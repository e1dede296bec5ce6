//! Every distinct prompt of the serving benchmark's traffic: the 48 request
//! streams of each of pasbench's four workloads at its default seed
//! (15 898 prompts), built with the traffic settings of
//! `crates/bench/src/bin/pasbench/workload.rs`.
//!
//! Shared by `tests/embedding_bits.rs` and `tests/optimize_bits.rs`, which
//! pull it in with `#[path]`.

use std::collections::BTreeSet;

use pas::cluster::fleet_workloads;
use pas::gateway::{generate, WorkloadConfig};

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

pub fn benchmark_prompts() -> BTreeSet<String> {
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
