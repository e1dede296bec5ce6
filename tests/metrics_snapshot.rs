//! Golden-snapshot harness for the `pas-obs` observability layer.
//!
//! Two seeded scenarios — a Quick-scale pipeline run (corpus → selection →
//! Algorithm 1 → SFT → one evaluation) and a sharded gateway soak — are run
//! with metrics recording on, and their [`pas::obs::MetricsSnapshot`]s are
//! compared byte-for-byte against fixtures under `tests/snapshots/`. Each
//! scenario is also executed at 1 and 8 `pas_par` threads and must produce
//! the identical snapshot, and the soak's outputs are checked with metrics
//! off vs on (observability must be a pure observer).
//!
//! Regenerate fixtures after an intentional metrics change with:
//!
//! ```text
//! UPDATE_SNAPSHOTS=1 cargo test --test metrics_snapshot
//! ```
//!
//! A single `#[test]` function because both the thread count and the
//! metrics registry are process-global.

use std::path::{Path, PathBuf};

use pas::core::{PasSystem, PromptOptimizer, SystemConfig};
use pas::data::{CorpusConfig, SelectionConfig};
use pas::eval::harness::evaluate_suite;
use pas::eval::judge::Judge;
use pas::eval::suite::{EvalEnv, EvalEnvConfig};
use pas::gateway::{generate, Gateway, GatewayConfig, SemanticCacheConfig, WorkloadConfig};
use pas::llm::SimLlm;
use pas::obs::MetricsSnapshot;

fn fixture_path(name: &str) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/snapshots").join(name)
}

/// Compares `snapshot` with the named fixture byte-for-byte, or rewrites
/// the fixture when `UPDATE_SNAPSHOTS` is set.
fn check_fixture(name: &str, snapshot: &MetricsSnapshot) {
    let path = fixture_path(name);
    let json = snapshot.to_json();
    if std::env::var_os("UPDATE_SNAPSHOTS").is_some() {
        snapshot.write_json(&path).unwrap_or_else(|e| panic!("writing {}: {e}", path.display()));
        eprintln!("updated fixture {}", path.display());
        return;
    }
    let expected = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "missing fixture {} ({e}); run UPDATE_SNAPSHOTS=1 cargo test --test metrics_snapshot",
            path.display()
        )
    });
    assert_eq!(
        expected.trim_end(),
        json,
        "snapshot {name} diverged from its fixture; if the metrics change is intentional, \
         regenerate with UPDATE_SNAPSHOTS=1"
    );
}

/// A visible toy optimizer so gateway responses are checkable.
struct Suffix;

impl PromptOptimizer for Suffix {
    fn name(&self) -> &str {
        "suffix"
    }
    fn optimize(&self, prompt: &str) -> String {
        format!("{prompt} [augmented]")
    }
    fn requires_human_labels(&self) -> bool {
        false
    }
    fn llm_agnostic(&self) -> bool {
        true
    }
    fn task_agnostic(&self) -> bool {
        true
    }
    fn training_pairs(&self) -> Option<usize> {
        None
    }
}

/// Seeded Quick-scale pipeline + one evaluation, returning the snapshot.
fn pipeline_snapshot(threads: usize) -> MetricsSnapshot {
    pas_par::with_threads(threads, || {
        pas::obs::reset();
        let system = PasSystem::build(&SystemConfig {
            corpus: CorpusConfig { size: 350, seed: 11, ..CorpusConfig::default() },
            selection: SelectionConfig { labeled_size: 500, ..SelectionConfig::default() },
            ..SystemConfig::default()
        });
        let env = EvalEnv::build(&EvalEnvConfig { arena_items: 60, alpaca_items: 10, seed: 0x7 });
        let judge = Judge::default();
        let model = SimLlm::named("gpt-4-0613", env.world.clone());
        let reference = SimLlm::named(&env.arena.reference_model, env.world.clone());
        let score = evaluate_suite(&model, &system.pas, &env.arena, &reference, &judge);
        assert!(score.items > 0);
        let snap = pas::obs::snapshot();
        pas::obs::reset();
        snap
    })
}

/// Seeded 2-shard gateway soak; per-shard snapshots folded with
/// [`MetricsSnapshot::merge`] — the sharded-collector path. Returns the
/// merged snapshot and every response.
fn soak_snapshot(threads: usize) -> (MetricsSnapshot, Vec<String>) {
    pas_par::with_threads(threads, || {
        pas::obs::reset();
        // A universe wide enough that each shard's cache holds well over a
        // hundred live entries, so every near-tier scan covers many rows.
        let requests = generate(&WorkloadConfig {
            requests: 600,
            universe: 320,
            near_dup_rate: 0.2,
            seed: 0x90a7,
            ..WorkloadConfig::default()
        });
        let config = GatewayConfig {
            replicas: 2,
            cache: SemanticCacheConfig {
                // Tight tau so distinct universe prompts miss (and get
                // inserted) rather than near-hitting each other, while the
                // near tier still scans on every exact miss.
                tau: 0.05,
                ..SemanticCacheConfig::default()
            },
            ..GatewayConfig::default()
        };
        let mut merged = MetricsSnapshot::default();
        let mut responses = Vec::new();
        for shard in requests.chunks(300) {
            let mut gateway = Gateway::new(config.clone(), vec![Suffix, Suffix]);
            let (shard_responses, report) = gateway.run(shard);
            assert_eq!(report.completed, report.requests);
            responses.extend(shard_responses);
            let snap = pas::obs::snapshot();
            pas::obs::reset();
            merged.merge(&snap);
        }
        (merged, responses)
    })
}

#[test]
fn metrics_snapshots_are_stable_across_threads_and_match_fixtures() {
    // Outputs with metrics off, as the observer-effect baseline.
    pas::obs::set_enabled(false);
    let (_, baseline_responses) = soak_snapshot(8);

    pas::obs::set_enabled(true);

    // Scenario 1: the pipeline. Identical snapshot at 1 and 8 threads,
    // matching the committed fixture byte-for-byte.
    let pipeline_serial = pipeline_snapshot(1);
    let pipeline_parallel = pipeline_snapshot(8);
    assert!(!pipeline_serial.is_empty(), "instrumented pipeline must record metrics");
    assert_eq!(
        pipeline_serial.to_json(),
        pipeline_parallel.to_json(),
        "pipeline snapshot diverged across thread counts"
    );
    check_fixture("pipeline_quick.json", &pipeline_serial);

    // Scenario 2: the sharded gateway soak.
    let (soak_serial, responses_serial) = soak_snapshot(1);
    let (soak_parallel, responses_parallel) = soak_snapshot(8);
    assert_eq!(
        soak_serial.to_json(),
        soak_parallel.to_json(),
        "soak snapshot diverged across thread counts"
    );
    assert_eq!(responses_serial, responses_parallel);
    assert_eq!(
        responses_serial, baseline_responses,
        "metrics recording must not perturb gateway responses"
    );
    check_fixture("gateway_soak.json", &soak_serial);

    // Spot-check the merged soak content: both shards' requests counted,
    // every request completed, and the latency histogram saw all of them.
    assert_eq!(soak_serial.counter("gateway.requests"), 600);
    assert_eq!(soak_serial.counter("gateway.completed"), 600);
    let latency = &soak_serial.histograms["gateway.latency_ms"];
    assert_eq!(latency.count, 600);

    pas::obs::set_enabled(false);
    pas::obs::reset();
}
