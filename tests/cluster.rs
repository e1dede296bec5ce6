//! The cluster contract, enforced end-to-end (DESIGN.md §14):
//!
//! 1. **Bit-reproducible fleet soaks** — the same fleet seed produces
//!    identical per-node responses and an identical `ClusterReport`
//!    (compared as serialized JSON) at `--threads 1` and `--threads 8`,
//!    including under a lossy network, replica chaos, and a scripted
//!    partition+heal with membership churn.
//! 2. **Zero-error degradation** — a full partition isolating a node,
//!    later healed, completes every request in the run: hedges cover slow
//!    links, rescues cover unreachable candidate sets, and the report's
//!    `errors()` stays 0.
//! 3. **Hedging** — under a lossy wide-area profile, backup probes fire
//!    and some of them win.
//! 4. **Decorrelated per-node workloads** — node workloads derived from
//!    one fleet seed differ from N copies of the same stream, while the
//!    fleet report stays thread-invariant (satellite: seeding).
//! 5. **Round-2 replication plane** (DESIGN.md §15) — a soak with write
//!    fanout, anti-entropy, gossip failure detection, and a hard crash
//!    stays bit-identical across thread counts while all three planes
//!    actually carry traffic.
//! 6. **Replica warmth** — after a primary crashes, the keys it owned are
//!    served warm by their new owners because write-fanout pre-installed
//!    them: the new-owner hit rate clears a pinned floor and beats the
//!    fanout-off cold baseline ≥5x.
//! 7. **A cross-commit golden** — the churn and round-2 soaks' reports and
//!    response digests match `tests/snapshots/cluster_soak.json` byte for
//!    byte.
//! 8. **One serving core** — a one-node fleet serves exactly what a
//!    `Gateway` serves, and a crash that abandons a batch in flight
//!    releases its replica load.
//!
//! Thread-dependent assertions share one test function because the
//! `pas_par` thread count is process-global and the harness runs tests
//! concurrently (same pattern as `tests/gateway.rs`).

use pas::cluster::{fleet_workloads, hrw, Cluster, ClusterConfig, ClusterReport, Membership};
use pas::core::PromptOptimizer;
use pas::fault::{FaultProfile, NetFaultProfile};
use pas::gateway::{
    AdmissionPolicy, Gateway, GatewayConfig, Request, SemanticCacheConfig, WorkloadConfig,
};

/// A toy deterministic optimizer with visible, prompt-derived output.
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
}

fn base_workload() -> WorkloadConfig {
    WorkloadConfig { requests: 220, universe: 50, near_dup_rate: 0.2, ..WorkloadConfig::default() }
}

fn chaotic_gateway() -> GatewayConfig {
    GatewayConfig {
        replicas: 2,
        replica_profiles: vec![FaultProfile::none(), FaultProfile::chaos()],
        ..GatewayConfig::default()
    }
}

fn quiet_gateway() -> GatewayConfig {
    let mut g = GatewayConfig::default();
    g.fault.profile = FaultProfile::none();
    g
}

/// A 4-node fleet on a lossy network with replica chaos, a partition
/// isolating node 3 mid-run that later heals, and membership churn
/// (node 1 leaves, node 3's partition ends, node 1 rejoins).
fn churn_config() -> ClusterConfig {
    ClusterConfig {
        nodes: 4,
        replication: 2,
        gateway: chaotic_gateway(),
        net: NetFaultProfile::lossy().with_partition(300, 900, vec![3]),
        script: vec![(500, Membership::Leave(1)), (1100, Membership::Join(1))],
        ..ClusterConfig::default()
    }
}

/// The churn soak plus the round-2 replication plane: write fanout,
/// anti-entropy, gossip failure detection, and a hard crash.
fn round2_config() -> ClusterConfig {
    ClusterConfig {
        nodes: 4,
        replication: 2,
        gateway: chaotic_gateway(),
        net: NetFaultProfile::lossy().with_partition(300, 900, vec![3]),
        script: vec![(500, Membership::Leave(1)), (700, Membership::Crash(2))],
        ae_interval_ms: 20,
        gossip_interval_ms: 25,
        gossip_dead_rounds: 24,
        quiet_ms: 25 * 40,
        ..ClusterConfig::default()
    }
}

fn run_cluster(
    config: ClusterConfig,
    workloads: &[Vec<Request>],
) -> (Vec<Vec<String>>, ClusterReport, String) {
    let mut cluster = Cluster::new(config, |_, _| Suffix);
    let (responses, report) = cluster.run(workloads);
    let json = serde_json::to_string(&report).expect("report serializes");
    (responses, report, json)
}

#[test]
fn fleet_soaks_are_bit_identical_across_thread_counts() {
    let workloads = fleet_workloads(&base_workload(), 4);

    let serial = pas_par::with_threads(1, || run_cluster(churn_config(), &workloads));
    let parallel = pas_par::with_threads(8, || run_cluster(churn_config(), &workloads));
    assert_eq!(serial.0, parallel.0, "responses must be thread-invariant");
    assert_eq!(serial.2, parallel.2, "folded fleet report must be thread-invariant");

    // Zero-error degradation through partition, heal, leave, and rejoin.
    let report = &serial.1;
    assert_eq!(report.errors(), 0, "partition+heal with churn must answer everything");
    assert_eq!(report.fleet.requests, 4 * 220);
    assert_eq!(report.fleet.completed, 4 * 220);
    assert!(report.net_cut > 0, "the partition window must actually cut traffic");
    assert!(report.net_drops > 0, "the lossy profile must actually drop messages");
    assert_eq!(report.rebalances, 2, "leave and rejoin each rebalance");
    assert!(report.rebalance_moved > 0);

    // Hedging under a lossy network: probes fire, and some win.
    assert!(report.hedges_fired > 0, "lossy links must trigger backup probes");
    assert!(report.hedges_won > 0, "some backup probes must win the race");

    // ── Round-2 leg: fanout + anti-entropy + gossip + a hard crash ──────
    // The full replication plane rides the same serial heap, so the soak
    // stays bit-identical at 1 and 8 threads while fanout, AE, and the
    // gossip detector all actually carry traffic.
    let serial2 = pas_par::with_threads(1, || run_cluster(round2_config(), &workloads));
    let parallel2 = pas_par::with_threads(8, || run_cluster(round2_config(), &workloads));
    assert_eq!(serial2.0, parallel2.0, "round-2 responses must be thread-invariant");
    assert_eq!(serial2.2, parallel2.2, "round-2 fleet report must be thread-invariant");

    let report2 = &serial2.1;
    assert_eq!(report2.errors(), 0, "crash + partition + churn must answer everything");
    assert_eq!(report2.crashes, 1);
    assert!(report2.repl_sent > 0 && report2.repl_applied > 0, "fanout must install replicas");
    assert!(report2.ae_digests > 0, "anti-entropy sweeps must run");
    assert!(report2.gossip_heartbeats > 0, "the failure detector must gossip");
    assert!(report2.transfers_sent > 0, "the leave must hand off in-band");
}

/// FNV-1a over every response, node-major, each followed by a `0xff`
/// separator (a byte UTF-8 text never contains).
fn responses_fnv(responses: &[Vec<String>]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in responses.iter().flatten().flat_map(|r| r.bytes().chain([0xff])) {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// A cross-commit golden for the cluster serving path: the churn soak's
/// and the round-2 soak's serialized `ClusterReport`s and response
/// digests, compared byte for byte with `tests/snapshots/cluster_soak.json`.
/// After an intentional change, regenerate it with
/// `UPDATE_SNAPSHOTS=1 cargo test --test cluster`.
#[test]
fn fleet_soaks_match_the_committed_golden() {
    let workloads = fleet_workloads(&base_workload(), 4);
    let mut golden = String::from("{\n");
    for (k, (name, config)) in
        [("churn", churn_config()), ("round2", round2_config())].into_iter().enumerate()
    {
        let (responses, _, json) = run_cluster(config, &workloads);
        let sep = if k == 0 { "," } else { "" };
        golden.push_str(&format!(
            "  \"{name}\": {{\n    \"responses_fnv\": \"{:#018x}\",\n    \"report\": {json}\n  }}{sep}\n",
            responses_fnv(&responses)
        ));
    }
    golden.push_str("}\n");

    let path =
        std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/snapshots/cluster_soak.json");
    if std::env::var_os("UPDATE_SNAPSHOTS").is_some() {
        std::fs::write(&path, &golden)
            .unwrap_or_else(|e| panic!("writing {}: {e}", path.display()));
        eprintln!("updated fixture {}", path.display());
        return;
    }
    let expected = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "missing fixture {} ({e}); run UPDATE_SNAPSHOTS=1 cargo test --test cluster",
            path.display()
        )
    });
    assert!(
        expected == golden,
        "cluster soaks diverged from {}; if the change is intentional, regenerate with \
         UPDATE_SNAPSHOTS=1",
        path.display()
    );
}

/// Property 7: write-fanout pre-warms the runner-up replica of every key,
/// so when the primary crashes the new owner serves those keys from cache.
/// The same windows with fanout disabled give the cold baseline.
#[test]
fn write_fanout_keeps_new_owners_warm_after_a_primary_crash() {
    let full: Vec<u32> = (0..4).collect();
    let victim = 0u32;
    // Prompts the victim primaries, tagged with the runner-up candidate
    // that inherits them when the victim dies (HRW promotes the runner-up).
    let prompts: Vec<(String, u32)> = (0..)
        .map(|i| format!("prompt {i} about topic {}", i % 13))
        .filter_map(|p| {
            let cands = hrw::candidates(&p, &full, 2);
            (cands[0] == victim).then(|| (p.clone(), cands[1]))
        })
        .take(40)
        .collect();

    let probe_hit_rate = |fanout: bool| -> f64 {
        let config = ClusterConfig {
            nodes: 4,
            replication: 2,
            gateway: quiet_gateway(),
            repl_fanout: fanout,
            script: vec![(500, Membership::Crash(victim))],
            ..ClusterConfig::default()
        };
        let mut cluster = Cluster::new(config, |_, _| Suffix);

        // Window 1: every prompt arrives at the victim (its primary),
        // which installs it — and, with fanout on, pushes it to the
        // runner-up. The scripted crash fires after the traffic settles.
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
        assert_eq!(warm_report.crashes, 1);
        assert!(!cluster.is_live(victim));

        // Window 2: each orphaned key arrives exactly once at its new
        // owner (the crash script re-fires as a no-op on the dead node).
        // The report covers this window alone, so its hit rate is the
        // new owners' warmth.
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
    };

    let warm = probe_hit_rate(true);
    let cold = probe_hit_rate(false);
    assert!(warm >= 0.95, "fanout-warmed new owners must serve ≥95% from cache, got {warm:.3}");
    assert!(warm >= 5.0 * cold, "warm rate {warm:.3} must beat the cold baseline {cold:.3} ≥5x");
}

#[test]
fn per_node_workloads_are_decorrelated_but_reproducible() {
    let base = base_workload();
    let per_node = fleet_workloads(&base, 2);
    assert_ne!(per_node[0], per_node[1], "fleet workloads must not be N copies of one stream");
    // Node 0's derived stream also differs from the raw fleet-seed stream,
    // so a 1-node fleet is not secretly the old single-gateway workload.
    assert_ne!(per_node[0], pas::gateway::generate(&base));

    // And the derivation is pure: same fleet seed, same traffic.
    assert_eq!(per_node, fleet_workloads(&base, 2));
}

/// A one-node, replication-1 fleet on a fault-free network runs the same
/// serving core as a `Gateway`, so it answers every request alike and
/// accounts the same report. Only `sim_duration_ms` may differ: a gateway
/// answers an arrival hit at once, while the node schedules the answer
/// `cache_hit_cost_ms` later, so a run that ends on a hit ends later.
#[test]
fn a_one_node_cluster_serves_what_a_gateway_serves() {
    let base = WorkloadConfig {
        requests: 1500,
        universe: 300,
        near_dup_rate: 0.2,
        zipf_s: 0.0,
        mean_interarrival_ms: 1.0,
        ..WorkloadConfig::default()
    };
    let workloads = fleet_workloads(&base, 1);
    let small_cache =
        |tau, capacity| SemanticCacheConfig { tau, capacity, ..SemanticCacheConfig::default() };
    let configs = [
        quiet_gateway(),
        GatewayConfig {
            cache: small_cache(0.25, 16),
            queue_capacity: 4,
            admission: AdmissionPolicy::ShedOldest,
            ..quiet_gateway()
        },
        GatewayConfig {
            cache: small_cache(0.15, 32),
            queue_capacity: 3,
            admission: AdmissionPolicy::Reject,
            ..quiet_gateway()
        },
    ];
    let mut totals = pas::gateway::GatewayReport::default();
    for gateway in configs {
        let hit_cost = gateway.cache_hit_cost_ms;
        let replicas = (0..gateway.replicas).map(|_| Suffix).collect();
        let (served, report) = Gateway::new(gateway.clone(), replicas).run(&workloads[0]);
        let config = ClusterConfig {
            nodes: 1,
            replication: 1,
            gateway,
            net: NetFaultProfile::none(),
            ..ClusterConfig::default()
        };
        let (fleet_served, fleet) = Cluster::new(config, |_, _| Suffix).run(&workloads);
        assert_eq!(fleet_served[0], served, "a one-node fleet must answer like a gateway");

        let mut node = fleet.per_node[0].clone();
        let ends_later = node.sim_duration_ms - report.sim_duration_ms;
        assert!(ends_later == 0 || ends_later == hit_cost, "{node:?} vs {report:?}");
        node.sim_duration_ms = report.sim_duration_ms;
        assert_eq!(node, report, "a one-node fleet must account like a gateway");
        totals.merge(&report);
    }
    // The configs exercise every serving path the core shares.
    assert!(totals.shed > 0 && totals.rejected > 0, "{totals:?}");
    assert!(totals.near_hits > 0 && totals.batch_hits > 0 && totals.evictions > 0, "{totals:?}");
}

/// A batch in flight when its node crashes is abandoned, and abandoning it
/// releases its replica load: after the node rejoins, least-loaded routing
/// must see true in-flight counts, so every pool ends the run idle.
#[test]
fn a_crash_releases_the_replica_load_of_its_batches_in_flight() {
    let base = WorkloadConfig {
        requests: 600,
        universe: 20_000,
        zipf_s: 0.0,
        near_dup_rate: 0.0,
        mean_interarrival_ms: 2.0,
        seed: 9,
    };
    let workloads = fleet_workloads(&base, 2);
    for crash_at in [500, 503, 507, 511] {
        let config = ClusterConfig {
            nodes: 2,
            replication: 2,
            gateway: quiet_gateway(),
            script: vec![(crash_at, Membership::Crash(1)), (900, Membership::Join(1))],
            ..ClusterConfig::default()
        };
        let mut cluster = Cluster::new(config, |_, _| Suffix);
        let (_, report) = cluster.run(&workloads);
        assert_eq!(report.errors(), 0);
        assert!(report.crash_retries > 0, "the crash at {crash_at} ms must orphan work");
        for node in 0..2 {
            assert!(
                cluster.in_flight(node).iter().all(|&n| n == 0),
                "node {node} keeps in-flight load {:?} after a crash at {crash_at} ms",
                cluster.in_flight(node)
            );
        }
    }
}
