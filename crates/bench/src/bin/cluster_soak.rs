//! Cluster soak harness: a seeded fleet of simulated gateway nodes over a
//! real (quick-scale) PAS complement model, printing the folded
//! `ClusterReport` as JSON on stdout and a human summary on stderr.
//!
//! ```text
//! cluster_soak [--nodes N] [--replication N] [--requests-per-node N]
//!              [--universe N] [--zipf S] [--near-dup F]
//!              [--replicas N] [--cache-capacity N] [--tau F]
//!              [--net-profile none|lan|lossy] [--hedge-ms N] [--rescue-ms N]
//!              [--partition START:END:ID[,ID...]]
//!              [--leave T:NODE] [--join T:NODE] [--crash T:NODE]
//!              [--repl-fanout on|off] [--ae-interval MS]
//!              [--gossip-interval MS] [--gossip-fanout N] [--quiet-ms MS]
//!              [--fault-profile NAME] [--seed S] [--threads N]
//!              [--metrics-out FILE]
//! ```
//!
//! Each node receives its own workload derived from the fleet seed
//! (`WorkloadConfig::for_node`), so an N-node soak is N decorrelated
//! traffic streams, not N copies of one. Everything is deterministic: the
//! same flags produce the same JSON on any machine at any thread count —
//! the CI `cluster-soak` job byte-diffs `--threads 1` against
//! `--threads 8` on a partition+heal scenario with membership churn.
//!
//! `--partition START:END:IDS` isolates the comma-separated node ids from
//! the rest of the fleet for `[START, END)` simulated ms (repeatable).
//! `--leave T:NODE` / `--join T:NODE` / `--crash T:NODE` script membership
//! changes (repeatable; a crash is a hard death — no drain, no hand-off,
//! no announcement).
//!
//! Round-2 replication knobs: `--repl-fanout off` disables write-fanout
//! to candidate replicas (on by default), `--ae-interval MS` enables
//! periodic anti-entropy digest sweeps, `--gossip-interval MS` enables
//! the gossip failure detector (routing then uses each node's *local*
//! view), and `--quiet-ms MS` extends the run past the last arrival so
//! anti-entropy and gossip converge before the report is cut.

use pas_cluster::{fleet_workloads, Cluster, ClusterConfig, Membership};
use pas_core::{BuildOptions, PasSystem, SystemConfig};
use pas_data::{CorpusConfig, SelectionConfig};
use pas_fault::{FaultConfig, FaultProfile, NetFaultProfile};
use pas_gateway::{GatewayConfig, SemanticCacheConfig, WorkloadConfig};

fn flag<T: std::str::FromStr>(args: &[String], name: &str, default: T) -> T {
    match args.iter().position(|a| a == name) {
        None => default,
        Some(i) => args
            .get(i + 1)
            .and_then(|v| v.parse().ok())
            .unwrap_or_else(|| panic!("{name} requires a value")),
    }
}

fn path_flag(args: &[String], name: &str) -> Option<std::path::PathBuf> {
    args.iter()
        .position(|a| a == name)
        .map(|i| args.get(i + 1).unwrap_or_else(|| panic!("{name} requires a path")).into())
}

/// Every value following an occurrence of a repeatable flag.
fn repeated<'a>(args: &'a [String], name: &str) -> Vec<&'a String> {
    args.iter()
        .enumerate()
        .filter(|(_, a)| *a == name)
        .map(|(i, _)| args.get(i + 1).unwrap_or_else(|| panic!("{name} requires a value")))
        .collect()
}

/// Parses `T:NODE` (e.g. `--leave 500:1`).
fn membership_at(spec: &str, flag: &str) -> (u64, u32) {
    let (t, n) = spec.split_once(':').unwrap_or_else(|| panic!("{flag} expects T:NODE"));
    (
        t.parse().unwrap_or_else(|_| panic!("{flag}: bad time '{t}'")),
        n.parse().unwrap_or_else(|_| panic!("{flag}: bad node '{n}'")),
    )
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    pas_par::set_threads(flag(&args, "--threads", 0usize));
    let metrics_out = path_flag(&args, "--metrics-out");
    pas_obs::set_enabled(metrics_out.is_some());

    let nodes = flag(&args, "--nodes", 4usize);
    let workload = WorkloadConfig {
        requests: flag(&args, "--requests-per-node", 1500usize),
        universe: flag(&args, "--universe", 150usize),
        zipf_s: flag(&args, "--zipf", 1.1f64),
        near_dup_rate: flag(&args, "--near-dup", 0.15f64),
        seed: flag(&args, "--seed", 0xc105u64),
        ..WorkloadConfig::default()
    };
    let mut fault = FaultConfig::default();
    if let Some(i) = args.iter().position(|a| a == "--fault-profile") {
        let name = args.get(i + 1).expect("--fault-profile requires a name");
        fault.profile =
            FaultProfile::named(name).unwrap_or_else(|| panic!("unknown fault profile '{name}'"));
    }
    let net_name: String = flag(&args, "--net-profile", "lan".to_string());
    let mut net = NetFaultProfile::named(&net_name)
        .unwrap_or_else(|| panic!("unknown net profile '{net_name}'"));
    for spec in repeated(&args, "--partition") {
        let mut parts = spec.splitn(3, ':');
        let (start, end, ids) = (
            parts.next().and_then(|v| v.parse().ok()),
            parts.next().and_then(|v| v.parse().ok()),
            parts.next(),
        );
        let (Some(start), Some(end), Some(ids)) = (start, end, ids) else {
            panic!("--partition expects START:END:ID[,ID...], got '{spec}'");
        };
        let island = ids
            .split(',')
            .map(|v| v.parse().unwrap_or_else(|_| panic!("--partition: bad node id '{v}'")))
            .collect();
        net = net.with_partition(start, end, island);
    }
    let mut script: Vec<(u64, Membership)> = Vec::new();
    for spec in repeated(&args, "--leave") {
        let (t, n) = membership_at(spec, "--leave");
        script.push((t, Membership::Leave(n)));
    }
    for spec in repeated(&args, "--join") {
        let (t, n) = membership_at(spec, "--join");
        script.push((t, Membership::Join(n)));
    }
    for spec in repeated(&args, "--crash") {
        let (t, n) = membership_at(spec, "--crash");
        script.push((t, Membership::Crash(n)));
    }
    script.sort_by_key(|&(t, _)| t);

    let fanout_name: String = flag(&args, "--repl-fanout", "on".to_string());
    let repl_fanout = match fanout_name.as_str() {
        "on" => true,
        "off" => false,
        other => panic!("--repl-fanout expects on|off, got '{other}'"),
    };

    let config = ClusterConfig {
        nodes,
        replication: flag(&args, "--replication", 2usize),
        gateway: GatewayConfig {
            replicas: flag(&args, "--replicas", 2usize),
            fault,
            cache: SemanticCacheConfig {
                capacity: flag(&args, "--cache-capacity", 4096usize),
                tau: flag(&args, "--tau", 0.15f32),
                ..SemanticCacheConfig::default()
            },
            ..GatewayConfig::default()
        },
        net,
        hedge_ms: flag(&args, "--hedge-ms", 12u64),
        rescue_ms: flag(&args, "--rescue-ms", 40u64),
        script,
        repl_fanout,
        ae_interval_ms: flag(&args, "--ae-interval", 0u64),
        gossip_interval_ms: flag(&args, "--gossip-interval", 0u64),
        gossip_fanout: flag(&args, "--gossip-fanout", 2usize),
        quiet_ms: flag(&args, "--quiet-ms", 0u64),
        ..ClusterConfig::default()
    };

    eprintln!(
        "soaking {} requests/node across {} node(s) (r={}, net '{}', {} membership change(s)), \
         {} replica(s)/node, cache {} τ {}, profile '{}'…",
        workload.requests,
        nodes,
        config.replication,
        config.net.name,
        config.script.len(),
        config.gateway.replicas,
        config.gateway.cache.capacity,
        config.gateway.cache.tau,
        config.gateway.fault.profile.name,
    );
    let system = SystemConfig {
        corpus: CorpusConfig { size: 350, seed: 11, ..CorpusConfig::default() },
        selection: SelectionConfig { labeled_size: 500, ..SelectionConfig::default() },
        ..SystemConfig::default()
    };
    let pas = PasSystem::try_build(&system, &BuildOptions::default())
        .expect("quick-scale build succeeds")
        .pas;

    let workloads = fleet_workloads(&workload, nodes);
    let mut cluster = Cluster::new(config, |_, _| pas.clone());
    let (_, report) = cluster.run(&workloads);

    if let Some(path) = &metrics_out {
        pas_obs::snapshot()
            .write_json(path)
            .unwrap_or_else(|e| panic!("writing {}: {e}", path.display()));
        eprintln!("metrics → {}", path.display());
    }
    eprintln!("{}", report.render_summary());
    println!("{}", serde_json::to_string(&report).expect("report serializes"));
}
