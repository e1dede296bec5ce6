//! Fleet scaling and chaos-resilience of the cluster simulation.
//!
//! Criterion-times cluster runs at 1, 2, 4, and 8 nodes (each node gets
//! its own decorrelated workload slice of the same per-node size, so the
//! fleet's total offered load scales with the node count), then replays
//! each size once for its deterministic `ClusterReport` and writes
//! `BENCH_cluster.json` at the workspace root with:
//!
//! - *simulated* fleet throughput (completed requests per simulated
//!   second) per size — the scaling headline, asserted ≥ 6x at 8 nodes
//!   vs 1 (near-linear: nodes serve their shards concurrently in
//!   simulated time, paying only cross-shard forwarding latency);
//! - wall-clock medians per size (the cost of *running* the simulation,
//!   which is serial per event — expected to grow with fleet size);
//! - a partition+heal chaos scenario (lossy net, node 3 isolated for a
//!   window, a leave and a rejoin) asserted to complete every request —
//!   the zero-error degradation contract under chaos;
//! - a replication-plane scenario (write-fanout + anti-entropy + gossip
//!   on a lossy partitioned net with a crash) asserted to complete every
//!   request with zero gossip false deaths;
//! - a replica-warmth measurement: after a primary crashes, the hit rate
//!   its heirs serve the orphaned keys at, with write-fanout on vs off —
//!   asserted ≥5x the cold baseline and ≥0.9 absolute;
//! - host metadata (`nproc`, arch, os) so numbers from different machines
//!   are never compared blind.

use criterion::Criterion;
use std::hint::black_box;

use pas_cluster::{fleet_workloads, hrw, Cluster, ClusterConfig, ClusterReport, Membership};
use pas_core::{BuildOptions, Pas, PasSystem, SystemConfig};
use pas_data::{CorpusConfig, SelectionConfig};
use pas_fault::NetFaultProfile;
use pas_gateway::{GatewayConfig, Request, SemanticCacheConfig, WorkloadConfig};

const REQUESTS_PER_NODE: usize = 1200;
const UNIVERSE: usize = 120;
const SIZES: [usize; 4] = [1, 2, 4, 8];

fn build_pas() -> Pas {
    let config = SystemConfig {
        corpus: CorpusConfig { size: 350, seed: 11, ..CorpusConfig::default() },
        selection: SelectionConfig { labeled_size: 500, ..SelectionConfig::default() },
        ..SystemConfig::default()
    };
    PasSystem::try_build(&config, &BuildOptions::default()).expect("clean build succeeds").pas
}

fn base_workload() -> WorkloadConfig {
    WorkloadConfig {
        requests: REQUESTS_PER_NODE,
        universe: UNIVERSE,
        zipf_s: 1.1,
        near_dup_rate: 0.15,
        ..WorkloadConfig::default()
    }
}

fn config(nodes: usize, net: NetFaultProfile, script: Vec<(u64, Membership)>) -> ClusterConfig {
    ClusterConfig {
        nodes,
        replication: 2.min(nodes),
        gateway: GatewayConfig {
            replicas: 2,
            cache: SemanticCacheConfig {
                capacity: 2048,
                tau: 0.15,
                ..SemanticCacheConfig::default()
            },
            ..GatewayConfig::default()
        },
        net,
        script,
        ..ClusterConfig::default()
    }
}

fn soak(pas: &Pas, cfg: ClusterConfig) -> ClusterReport {
    let workloads = fleet_workloads(&base_workload(), cfg.nodes);
    let mut cluster = Cluster::new(cfg, |_, _| pas.clone());
    let (responses, report) = cluster.run(&workloads);
    black_box(responses);
    report
}

/// The chaos scenario: lossy wide-area net, node 3 partitioned off for
/// [400, 1200) sim-ms, node 1 leaves at 800 and rejoins at 1600.
fn chaos_config() -> ClusterConfig {
    config(
        8,
        NetFaultProfile::lossy().with_partition(400, 1200, vec![3]),
        vec![(800, Membership::Leave(1)), (1600, Membership::Join(1))],
    )
}

/// The replication-plane scenario: chaos plus the full round-2 stack —
/// write-fanout, anti-entropy sweeps, the gossip failure detector, and a
/// hard crash replacing the graceful leave.
fn replication_config() -> ClusterConfig {
    ClusterConfig {
        ae_interval_ms: 40,
        gossip_interval_ms: 30,
        gossip_dead_rounds: 24,
        quiet_ms: 30 * 40,
        ..config(
            8,
            NetFaultProfile::lossy().with_partition(400, 1200, vec![3]),
            vec![(800, Membership::Crash(1)), (1600, Membership::Join(1))],
        )
    }
}

/// Measures how warm the heirs of a crashed primary are: warms the victim
/// with every prompt it owns, crashes it, then probes each orphaned key
/// exactly once at its new owner. The probe window's fleet hit rate is
/// the warmth — near 1.0 with write-fanout on, near 0.0 without.
fn replica_warmth(pas: &Pas, fanout: bool) -> f64 {
    let full: Vec<u32> = (0..4).collect();
    let victim = 0u32;
    let prompts: Vec<(String, u32)> = (0..)
        .map(|i| format!("prompt {i} about topic {}", i % 13))
        .filter_map(|p| {
            let cands = hrw::candidates(&p, &full, 2);
            (cands[0] == victim).then(|| (p.clone(), cands[1]))
        })
        .take(60)
        .collect();

    let mut cfg = ClusterConfig {
        repl_fanout: fanout,
        ..config(4, NetFaultProfile::none(), vec![(1000, Membership::Crash(victim))])
    };
    // Exact-match cache semantics: with a near-hit threshold, similar
    // prompts serve off each other without installing, which blurs the
    // warm/cold contrast this measurement pins.
    cfg.gateway.cache.tau = 0.0;
    let mut cluster = Cluster::new(cfg, |_, _| pas.clone());

    let mut warm: Vec<Vec<Request>> = vec![Vec::new(); 4];
    for (i, (prompt, _)) in prompts.iter().enumerate() {
        warm[victim as usize].push(Request {
            id: i,
            arrival_ms: 10 * i as u64,
            prompt: prompt.clone(),
        });
    }
    let (_, warm_report) = cluster.run(&warm);
    assert_eq!(warm_report.errors(), 0);
    assert_eq!(warm_report.crashes, 1, "the victim must die after the warm window");

    // The crash script re-fires as a no-op on the dead node; the report
    // covers the probe window alone.
    let mut probes: Vec<Vec<Request>> = vec![Vec::new(); 4];
    for (i, (prompt, heir)) in prompts.iter().enumerate() {
        probes[*heir as usize].push(Request {
            id: i,
            arrival_ms: 3 * i as u64,
            prompt: prompt.clone(),
        });
    }
    let (_, probe_report) = cluster.run(&probes);
    assert_eq!(probe_report.errors(), 0);
    assert_eq!(probe_report.fleet.requests, prompts.len() as u64);
    probe_report.fleet.hit_rate()
}

fn bench_cluster(c: &mut Criterion, pas: &Pas) {
    let mut g = c.benchmark_group("cluster");
    g.sample_size(10);
    for nodes in SIZES {
        g.bench_function(format!("nodes_{nodes}"), |b| {
            b.iter(|| soak(pas, config(nodes, NetFaultProfile::lan(), Vec::new())))
        });
    }
    g.bench_function("partition_heal_8", |b| b.iter(|| soak(pas, chaos_config())));
    g.bench_function("replication_8", |b| b.iter(|| soak(pas, replication_config())));
    g.finish();
}

fn write_summary(c: &Criterion, pas: &Pas) {
    // Replay each size once for its (deterministic) report.
    let mut sizes_json = Vec::new();
    let mut sim_rps = std::collections::BTreeMap::new();
    for nodes in SIZES {
        let report = soak(pas, config(nodes, NetFaultProfile::lan(), Vec::new()));
        assert_eq!(report.errors(), 0, "{nodes}-node soak must answer everything");
        assert_eq!(report.fleet.requests, (nodes * REQUESTS_PER_NODE) as u64);
        let rps = report.throughput_rps();
        sim_rps.insert(nodes, rps);
        sizes_json.push(format!(
            concat!(
                "    {{\"nodes\": {}, \"requests\": {}, \"wall_median_ns\": {:.0}, ",
                "\"sim_duration_ms\": {}, \"sim_requests_per_sec\": {:.1}, ",
                "\"forwards\": {}, \"hedges_fired\": {}, \"hit_rate\": {:.3}}}"
            ),
            nodes,
            report.fleet.requests,
            c.median_ns(&format!("cluster/nodes_{nodes}")),
            report.fleet.sim_duration_ms,
            rps,
            report.forwards,
            report.hedges_fired,
            report.fleet.hit_rate(),
        ));
    }
    let scaling = sim_rps[&8] / sim_rps[&1];
    assert!(
        scaling >= 6.0,
        "8-node fleet must scale ≥6x over 1 node in simulated throughput, got {scaling:.2}x"
    );

    let chaos = soak(pas, chaos_config());
    assert_eq!(chaos.errors(), 0, "partition+heal must answer everything");
    assert!(chaos.net_cut > 0 && chaos.net_drops > 0, "chaos must actually bite");
    assert!(chaos.hedges_fired > 0, "lossy links must trigger hedges");

    let repl = soak(pas, replication_config());
    assert_eq!(repl.errors(), 0, "the replication-plane scenario must answer everything");
    assert!(repl.repl_sent > 0 && repl.repl_applied > 0, "fanout must install replicas");
    assert!(repl.ae_digests > 0 && repl.ae_repairs > 0, "anti-entropy must repair chaos damage");
    assert!(repl.gossip_heartbeats > 0, "the failure detector must gossip");
    assert_eq!(repl.gossip_false_deaths, 0, "no live reachable node may be declared dead");

    let warm = replica_warmth(pas, true);
    let cold = replica_warmth(pas, false);
    assert!(warm >= 0.9, "fanout-warmed heirs must serve ≥90% from cache, got {warm:.3}");
    assert!(warm >= 5.0 * cold, "warm rate {warm:.3} must beat the cold baseline {cold:.3} ≥5x");

    let json = format!(
        concat!(
            "{{\n  \"host\": {},\n  \"threads\": {},\n",
            "  \"workload\": {{\"requests_per_node\": {}, \"universe\": {}, ",
            "\"zipf_s\": 1.1, \"near_dup_rate\": 0.15}},\n",
            "  \"sizes\": [\n{}\n  ],\n",
            "  \"sim_scaling_8x_vs_1x\": {:.2},\n",
            "  \"partition_heal\": {{\"nodes\": 8, \"wall_median_ns\": {:.0}, ",
            "\"errors\": {}, \"net_cut\": {}, \"net_drops\": {}, ",
            "\"hedges_fired\": {}, \"hedges_won\": {}, \"rescues\": {}, ",
            "\"local_fallbacks\": {}, \"rebalance_moved\": {}}},\n",
            "  \"replication\": {{\"nodes\": 8, \"wall_median_ns\": {:.0}, ",
            "\"errors\": {}, \"repl_sent\": {}, \"repl_applied\": {}, ",
            "\"repl_stale\": {}, \"ae_digests\": {}, \"ae_repairs\": {}, ",
            "\"ae_last_repair_ms\": {}, \"gossip_heartbeats\": {}, ",
            "\"gossip_deaths\": {}, \"gossip_false_deaths\": {}, ",
            "\"crash_retries\": {}}},\n",
            "  \"replica_warmth\": {{\"warm_hit_rate\": {:.3}, ",
            "\"cold_hit_rate\": {:.3}}}\n}}\n"
        ),
        bench::host_json(),
        pas_par::threads(),
        REQUESTS_PER_NODE,
        UNIVERSE,
        sizes_json.join(",\n"),
        scaling,
        c.median_ns("cluster/partition_heal_8"),
        chaos.errors(),
        chaos.net_cut,
        chaos.net_drops,
        chaos.hedges_fired,
        chaos.hedges_won,
        chaos.rescues,
        chaos.local_fallbacks,
        chaos.rebalance_moved,
        c.median_ns("cluster/replication_8"),
        repl.errors(),
        repl.repl_sent,
        repl.repl_applied,
        repl.repl_stale,
        repl.ae_digests,
        repl.ae_repairs,
        repl.ae_last_repair_ms,
        repl.gossip_heartbeats,
        repl.gossip_deaths,
        repl.gossip_false_deaths,
        repl.crash_retries,
        warm,
        cold,
    );
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_cluster.json");
    std::fs::write(path, &json).expect("write BENCH_cluster.json");
    println!("\nwrote {path}:\n{json}");
}

fn main() {
    let pas = build_pas();
    let mut c = Criterion::default();
    bench_cluster(&mut c, &pas);
    write_summary(&c, &pas);
}
