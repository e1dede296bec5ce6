//! The determinism contract of `pas-par`, enforced end-to-end: the full
//! corpus → selection → Algorithm 1 → SFT → evaluation path produces
//! bit-identical datasets, reports, and win rates at `--threads 1` and
//! `--threads 8`.
//!
//! A single test function (not one per stage) because the thread count is
//! process-global and the harness runs tests concurrently.

use pas::ann::{CosineDistance, Hnsw, HnswConfig};
use pas::core::{NoOptimizer, PasSystem, SystemConfig};
use pas::data::CorpusConfig;
use pas::eval::harness::evaluate_suite;
use pas::eval::judge::Judge;
use pas::eval::suite::{EvalEnv, EvalEnvConfig};
use pas::llm::SimLlm;

/// Everything downstream code consumes, captured at one thread count.
#[derive(Debug, PartialEq)]
struct Outcome {
    dataset: Vec<(String, String)>,
    selection_report: String,
    generation_report: String,
    baseline_win_rate: f64,
    pas_win_rate: f64,
}

fn run(threads: usize) -> Outcome {
    pas_par::with_threads(threads, || {
        let system = PasSystem::build(&SystemConfig {
            corpus: CorpusConfig { size: 1200, seed: 13, ..CorpusConfig::default() },
            ..SystemConfig::default()
        });
        let env = EvalEnv::build(&EvalEnvConfig { arena_items: 100, alpaca_items: 30, seed: 0x51 });
        let judge = Judge::default();
        let model = SimLlm::named("gpt-4-0613", env.world.clone());
        let reference = SimLlm::named(&env.arena.reference_model, env.world.clone());
        Outcome {
            dataset: system
                .dataset
                .pairs
                .iter()
                .map(|p| (p.prompt.clone(), p.complement.clone()))
                .collect(),
            selection_report: format!("{:?}", system.selection_report),
            generation_report: format!("{:?}", system.generation_report),
            baseline_win_rate: evaluate_suite(&model, &NoOptimizer, &env.arena, &reference, &judge)
                .win_rate,
            pas_win_rate: evaluate_suite(&model, &system.pas, &env.arena, &reference, &judge)
                .win_rate,
        }
    })
}

#[test]
fn full_pipeline_is_identical_at_1_and_8_threads() {
    let serial = run(1);
    let parallel = run(8);
    assert_eq!(serial.dataset.len(), parallel.dataset.len());
    for (i, (s, p)) in serial.dataset.iter().zip(&parallel.dataset).enumerate() {
        assert_eq!(s, p, "dataset pair {i} diverged across thread counts");
    }
    assert_eq!(serial.selection_report, parallel.selection_report);
    assert_eq!(serial.generation_report, parallel.generation_report);
    assert_eq!(
        serial.baseline_win_rate.to_bits(),
        parallel.baseline_win_rate.to_bits(),
        "baseline win rate: {} vs {}",
        serial.baseline_win_rate,
        parallel.baseline_win_rate
    );
    assert_eq!(
        serial.pas_win_rate.to_bits(),
        parallel.pas_win_rate.to_bits(),
        "PAS win rate: {} vs {}",
        serial.pas_win_rate,
        parallel.pas_win_rate
    );
    // Sanity: the run did real work, not a degenerate empty pipeline.
    assert!(serial.dataset.len() > 100, "dataset {}", serial.dataset.len());
    assert!(serial.pas_win_rate > serial.baseline_win_rate);

    // The pre-normalized vector store keeps the contract too: a cosine HNSW
    // batch build stores unit vectors + norms, and the entire store (graph,
    // prepared vectors, norms) plus probe results are bit-identical at any
    // thread count. (Same function, not a separate #[test]: the thread
    // count is process-global and the harness runs tests concurrently.)
    let vectors: Vec<Vec<f32>> = (0..300)
        .map(|i| {
            let x = i as f32 * 0.173;
            // Deliberately unnormalized: lengths vary by ~6x, so the store
            // must do real normalization work at insert.
            vec![x.sin() * 3.0, x.cos(), (x * 0.7).sin() + 0.5, (x * 1.9).cos() * 2.0]
        })
        .collect();
    let build = |threads: usize| {
        pas_par::with_threads(threads, || {
            let mut idx = Hnsw::new(HnswConfig::default(), CosineDistance);
            idx.build_batch(vectors.clone());
            let dump = idx.dump();
            let norms: Vec<u32> = (0..idx.len()).map(|id| idx.norm(id).to_bits()).collect();
            let probes: Vec<Vec<(usize, u32)>> = vectors
                .iter()
                .step_by(13)
                .map(|q| {
                    idx.search(q, 5, 48).into_iter().map(|n| (n.id, n.distance.to_bits())).collect()
                })
                .collect();
            // The int8 probe tier and the batched probes obey the same
            // contract: quantized re-ranked results and `search_batch`
            // results are bit-identical at any thread count.
            let mut quant = Hnsw::new(HnswConfig::default(), CosineDistance);
            quant.set_quantization(true);
            quant.build_batch(vectors.clone());
            let quant_probes: Vec<Vec<(usize, u32)>> = vectors
                .iter()
                .step_by(13)
                .map(|q| {
                    quant
                        .search(q, 5, 48)
                        .into_iter()
                        .map(|n| (n.id, n.distance.to_bits()))
                        .collect()
                })
                .collect();
            // The PQ tier too: seeded codebook training, integer ADC probes,
            // and the exact re-rank are all bit-identical at any thread
            // count (training k-means fans out per subspace via pas_par).
            let mut pq = Hnsw::new(HnswConfig::default(), CosineDistance);
            pq.set_product_quantization(true);
            pq.build_batch(vectors.clone());
            assert!(pq.probe_bytes_per_vector() < 4, "PQ tier must have trained");
            let pq_probes: Vec<Vec<(usize, u32)>> = vectors
                .iter()
                .step_by(13)
                .map(|q| {
                    pq.search(q, 5, 48).into_iter().map(|n| (n.id, n.distance.to_bits())).collect()
                })
                .collect();
            let queries: Vec<Vec<f32>> = vectors.iter().step_by(29).cloned().collect();
            let batched: Vec<Vec<(usize, u32)>> = idx
                .search_batch(&queries, 5, 48)
                .into_iter()
                .map(|r| r.into_iter().map(|n| (n.id, n.distance.to_bits())).collect())
                .collect();
            let pq_batched: Vec<Vec<(usize, u32)>> = pq
                .search_batch(&queries, 5, 48)
                .into_iter()
                .map(|r| r.into_iter().map(|n| (n.id, n.distance.to_bits())).collect())
                .collect();
            (dump, norms, probes, quant_probes, batched, pq_probes, pq_batched)
        })
    };
    let store_serial = build(1);
    assert_eq!(build(8), store_serial, "normalized store diverged across thread counts");

    // Observability must be a pure observer. Re-running the identical
    // pipeline with every counter, gauge, histogram, and span recording
    // must not perturb a single output bit relative to the metrics-off
    // runs above — and the metrics themselves must come back bit-identical
    // at 1 and 8 threads. (Same function again: both the thread count and
    // the metrics registry are process-global.)
    pas::obs::set_enabled(true);
    pas::obs::reset();
    let observed_parallel = run(8);
    let metrics_parallel = pas::obs::snapshot();
    pas::obs::reset();
    let observed_serial = run(1);
    let metrics_serial = pas::obs::snapshot();
    pas::obs::reset();
    pas::obs::set_enabled(false);
    assert_eq!(observed_serial, serial, "enabling metrics must not perturb serial outputs");
    assert_eq!(observed_parallel, serial, "enabling metrics must not perturb parallel outputs");
    assert!(!metrics_serial.is_empty(), "an instrumented pipeline run must record something");
    assert_eq!(
        metrics_serial.to_json(),
        metrics_parallel.to_json(),
        "metrics must be bit-identical across thread counts"
    );
}
