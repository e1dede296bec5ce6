//! The served embedder is bit-identical to its plain reference on the
//! serving benchmark's own traffic (DESIGN.md §6, "Kernel determinism").
//!
//! The prompts are every distinct prompt of the 48 request streams of each
//! of pasbench's four workloads at its default seed (15 898 of them), built
//! with the traffic settings of `crates/bench/src/bin/pasbench/workload.rs`.
//! Each must get the reference's feature bag and the reference's vector
//! bits from the gateway's `NgramEmbedder::default()`, both from its plain
//! bag and from an IDF-reweighted one, whose weights are not small integers
//! and so would expose a sum added in another order.

#[path = "../crates/pas-embed/tests/reference/mod.rs"]
mod reference;

use std::collections::BTreeSet;

use pas::cluster::fleet_workloads;
use pas::embed::{feature_bag, Embedder, IdfModel, NgramEmbedder};
use pas::gateway::{generate, WorkloadConfig};
use reference::{bag_bits, bits};

/// pasbench's default seed and the request streams one of its runs cycles
/// through: stream 0 uses the seed, stream `k` the seed derived from it.
const SEED: u64 = 0x90a7;
const STREAMS: u64 = 48;

/// `(requests, universe, zipf_s, near_dup_rate)` of `hot_zipf`,
/// `tail_miss` and `churn_store`, then `fleet_chaos`'s per-node base,
/// which each of its 4 nodes derives its own stream from.
const TRAFFIC: [(usize, usize, f64, f64); 4] = [
    (20_000, 120, 1.1, 0.2),
    (4_000, 20_000, 0.6, 0.1),
    (600, 20_000, 0.6, 0.1),
    (2_500, 120, 1.1, 0.15),
];
const FLEET_NODES: usize = 4;

/// `NgramEmbedder::default()`'s width and projection seed.
const DIM: usize = 64;
const PROJECTION_SEED: u64 = 0x5eed_cafe;

fn benchmark_prompts() -> BTreeSet<String> {
    let mut prompts = BTreeSet::new();
    for (w, &(requests, universe, zipf_s, near_dup_rate)) in TRAFFIC.iter().enumerate() {
        for k in 0..STREAMS {
            let seed = if k == 0 { SEED } else { pas_par::derive_seed(SEED, k) };
            let config = WorkloadConfig {
                requests,
                universe,
                zipf_s,
                near_dup_rate,
                mean_interarrival_ms: 4.0,
                seed,
            };
            let streams = if w == 3 {
                fleet_workloads(&config, FLEET_NODES)
            } else {
                vec![generate(&config)]
            };
            prompts.extend(streams.into_iter().flatten().map(|r| r.prompt));
        }
    }
    prompts
}

#[test]
fn served_embeddings_match_the_reference_on_every_benchmark_prompt() {
    let prompts = benchmark_prompts();
    assert!(prompts.len() > 10_000, "only {} distinct prompts", prompts.len());
    let embedder = NgramEmbedder::default();
    let bags: Vec<_> = prompts.iter().map(|p| feature_bag(p)).collect();
    let idf = IdfModel::fit(bags.iter());
    for (prompt, bag) in prompts.iter().zip(&bags) {
        let want = reference::feature_bag(prompt);
        assert_eq!(bag_bits(bag.entries()), bag_bits(&want), "bag of {prompt:?}");
        assert_eq!(
            bits(&embedder.embed(prompt)),
            bits(&reference::project(DIM, PROJECTION_SEED, &want)),
            "embedding of {prompt:?}"
        );
        let reweighted = idf.reweight(bag);
        assert_eq!(
            bits(&embedder.project(&reweighted)),
            bits(&reference::project(DIM, PROJECTION_SEED, &reweighted)),
            "IDF-reweighted embedding of {prompt:?}"
        );
    }
}
