//! Serial vs parallel wall-clock for the three pipelines the deterministic
//! runtime (`pas-par`) parallelizes: the §3.1 selection pipeline, HNSW
//! batch build, and suite evaluation.
//!
//! Unlike the other benches this one has a hand-written `main`: after the
//! Criterion runs it computes elements/sec and serial-vs-parallel speedup
//! per workload and writes a machine-readable summary to
//! `BENCH_parallel.json` at the workspace root. Speedup is only expected
//! on multi-core machines — the summary embeds the host metadata (`nproc`,
//! arch, OS) and the worker-thread count actually used, so single-core CI
//! numbers aren't misread as a regression.

use criterion::Criterion;
use std::hint::black_box;

use pas_ann::{CosineDistance, Hnsw, HnswConfig};
use pas_core::NoOptimizer;
use pas_data::{Corpus, CorpusConfig, SelectionConfig, SelectionPipeline};
use pas_eval::{evaluate_suite, EvalEnv, EvalEnvConfig, Judge};
use pas_llm::SimLlm;
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

const SELECTION_ELEMENTS: usize = 1200;
const HNSW_ELEMENTS: usize = 2000;
const EVAL_ELEMENTS: usize = 150;

fn random_unit_vectors(n: usize, dim: usize, seed: u64) -> Vec<Vec<f32>> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..n)
        .map(|_| {
            let mut v: Vec<f32> = (0..dim).map(|_| rng.random::<f32>() * 2.0 - 1.0).collect();
            pas_embed::normalize_in_place(&mut v);
            v
        })
        .collect()
}

/// Benches `work` at one thread and at the default thread count, under
/// `group/serial` and `group/parallel`.
fn bench_pair<R, F: Fn() -> R>(c: &mut Criterion, group: &str, work: F) {
    let mut g = c.benchmark_group(group);
    g.sample_size(10);
    g.bench_function("serial", |b| {
        pas_par::with_threads(1, || b.iter(|| black_box(work())));
    });
    g.bench_function("parallel", |b| {
        pas_par::with_threads(0, || b.iter(|| black_box(work())));
    });
    g.finish();
}

fn bench_selection(c: &mut Criterion) {
    let corpus = Corpus::generate(&CorpusConfig {
        size: SELECTION_ELEMENTS,
        seed: 29,
        ..CorpusConfig::default()
    });
    bench_pair(c, "parallel_selection", || {
        let (selected, report) = SelectionPipeline::new(SelectionConfig {
            labeled_size: 600,
            ..SelectionConfig::default()
        })
        .run(&corpus.records);
        (selected.len(), report.after_dedup)
    });
}

fn bench_hnsw_batch(c: &mut Criterion) {
    let vectors = random_unit_vectors(HNSW_ELEMENTS, 64, 31);
    bench_pair(c, "parallel_hnsw_build", || {
        let mut idx = Hnsw::new(HnswConfig::default(), CosineDistance);
        idx.build_batch(vectors.clone());
        idx.len()
    });
}

fn bench_suite_eval(c: &mut Criterion) {
    let env =
        EvalEnv::build(&EvalEnvConfig { arena_items: EVAL_ELEMENTS, alpaca_items: 10, seed: 37 });
    let model = SimLlm::named("gpt-4-0613", env.world.clone());
    let reference = SimLlm::named(&env.arena.reference_model, env.world.clone());
    let judge = Judge::default();
    bench_pair(c, "parallel_suite_eval", || {
        evaluate_suite(&model, &NoOptimizer, &env.arena, &reference, &judge).win_rate
    });
}

/// One workload's summary line in `BENCH_parallel.json`.
struct Workload {
    name: &'static str,
    group: &'static str,
    elements: usize,
}

const WORKLOADS: [Workload; 3] = [
    Workload {
        name: "selection_pipeline",
        group: "parallel_selection",
        elements: SELECTION_ELEMENTS,
    },
    Workload { name: "hnsw_batch_build", group: "parallel_hnsw_build", elements: HNSW_ELEMENTS },
    Workload { name: "suite_evaluation", group: "parallel_suite_eval", elements: EVAL_ELEMENTS },
];

fn write_summary(c: &Criterion) {
    let mut lines = Vec::new();
    for w in &WORKLOADS {
        let serial_ns = c.median_ns(&format!("{}/serial", w.group));
        let parallel_ns = c.median_ns(&format!("{}/parallel", w.group));
        let per_sec = |ns: f64| w.elements as f64 / (ns / 1e9);
        lines.push(format!(
            concat!(
                "    {{\"name\": \"{}\", \"elements\": {}, ",
                "\"serial_ns\": {:.0}, \"parallel_ns\": {:.0}, ",
                "\"serial_elements_per_sec\": {:.1}, ",
                "\"parallel_elements_per_sec\": {:.1}, ",
                "\"speedup\": {:.2}}}"
            ),
            w.name,
            w.elements,
            serial_ns,
            parallel_ns,
            per_sec(serial_ns),
            per_sec(parallel_ns),
            serial_ns / parallel_ns,
        ));
    }
    let json = format!(
        "{{\n  \"host\": {},\n  \"threads\": {},\n  \"workloads\": [\n{}\n  ]\n}}\n",
        bench::host_json(),
        pas_par::threads(),
        lines.join(",\n"),
    );
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_parallel.json");
    std::fs::write(path, &json).expect("write BENCH_parallel.json");
    println!("\nwrote {path}:\n{json}");
}

fn main() {
    let mut c = Criterion::default();
    bench_selection(&mut c);
    bench_hnsw_batch(&mut c);
    bench_suite_eval(&mut c);
    write_summary(&c);
}
