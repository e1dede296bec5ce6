//! Gateway soak harness: a seeded open-loop load test against a real
//! (quick-scale) PAS complement model, printing the full mergeable
//! `GatewayReport` as JSON on stdout and a human summary on stderr.
//!
//! ```text
//! gateway_soak [--requests N] [--universe N] [--zipf S] [--near-dup F]
//!              [--replicas N] [--cache-capacity N] [--tau F] [--shards N]
//!              [--fault-profile NAME]
//!              [--store-dir DIR] [--restart warm|cold|reembed] [--carry-cache]
//!              [--seed S] [--threads N]
//!              [--metrics-out FILE] [--metrics-jsonl FILE]
//! ```
//!
//! With `--shards N` the workload is split into N contiguous shards, each
//! served by its own gateway (a fleet of cold caches), and the per-shard
//! reports are folded with `GatewayReport::merge` — the aggregation path a
//! real fleet's metric collector would use. Everything is deterministic:
//! the same flags produce the same JSON on any machine at any thread
//! count (clean and eventual-success profiles).
//!
//! `--store-dir DIR` backs the semantic cache with a `pas-store` segment
//! log in DIR and restarts the gateway *between shards*: each shard's
//! cache is reopened from the store (`--restart warm` checkpoints and
//! warm-opens; `cold` drops the cache without a checkpoint — a kill — and
//! replays the log; `reembed` replays while re-embedding every prompt,
//! the pre-store restart cost). `--carry-cache` instead threads one
//! in-memory cache through every shard — the uninterrupted baseline the
//! CI crash-recovery job byte-diffs the restarted runs against: because
//! per-run report counters are deltas and the store replays the cache
//! bit-exactly, all four variants print identical JSON.
//!
//! `--metrics-out FILE` writes the fleet-merged `pas-obs` snapshot as one
//! JSON object; `--metrics-jsonl FILE` additionally appends one snapshot
//! line per shard (the registry is snapshotted and reset between shards,
//! and the per-shard snapshots fold with `MetricsSnapshot::merge` — the
//! same collector path, at the metrics layer).

use pas_core::{BuildOptions, PasSystem, SystemConfig};
use pas_data::{CorpusConfig, SelectionConfig};
use pas_fault::{FaultConfig, FaultProfile};
use pas_gateway::{
    cache_embedder, generate, Gateway, GatewayCache, GatewayConfig, GatewayReport, OpenMode,
    SemanticCache, SemanticCacheConfig, WorkloadConfig,
};

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

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    pas_par::set_threads(flag(&args, "--threads", 0usize));
    let metrics_out = path_flag(&args, "--metrics-out");
    let metrics_jsonl = path_flag(&args, "--metrics-jsonl");
    pas_obs::set_enabled(metrics_out.is_some() || metrics_jsonl.is_some());

    let workload = WorkloadConfig {
        requests: flag(&args, "--requests", 3000usize),
        universe: flag(&args, "--universe", 150usize),
        zipf_s: flag(&args, "--zipf", 1.1f64),
        near_dup_rate: flag(&args, "--near-dup", 0.15f64),
        seed: flag(&args, "--seed", 0x90a7u64),
        ..WorkloadConfig::default()
    };
    let mut fault = FaultConfig::default();
    if let Some(i) = args.iter().position(|a| a == "--fault-profile") {
        let name = args.get(i + 1).expect("--fault-profile requires a name");
        fault.profile =
            FaultProfile::named(name).unwrap_or_else(|| panic!("unknown fault profile '{name}'"));
    }
    let config = GatewayConfig {
        replicas: flag(&args, "--replicas", 2usize),
        fault,
        cache: SemanticCacheConfig {
            capacity: flag(&args, "--cache-capacity", 4096usize),
            tau: flag(&args, "--tau", 0.15f32),
            ..SemanticCacheConfig::default()
        },
        ..GatewayConfig::default()
    };
    let shards = flag(&args, "--shards", 1usize).max(1);
    let store_dir = path_flag(&args, "--store-dir");
    let restart: String = flag(&args, "--restart", "warm".to_string());
    assert!(
        matches!(restart.as_str(), "warm" | "cold" | "reembed"),
        "unknown restart mode '{restart}' (expected warm|cold|reembed)"
    );
    let carry = args.iter().any(|a| a == "--carry-cache");
    assert!(
        !(carry && store_dir.is_some()),
        "--carry-cache (uninterrupted baseline) and --store-dir (restart between shards) \
         are mutually exclusive"
    );

    eprintln!(
        "soaking {} requests (universe {}, zipf {}) through {} shard(s) × {} replica(s), \
         cache {} τ {}, profile '{}'…",
        workload.requests,
        workload.universe,
        workload.zipf_s,
        shards,
        config.replicas,
        config.cache.capacity,
        config.cache.tau,
        config.fault.profile.name,
    );
    if let Some(dir) = &store_dir {
        eprintln!("cache store → {} ({restart} restart between shards)", dir.display());
    } else if carry {
        eprintln!("carrying one in-memory cache across shards (uninterrupted baseline)");
    }
    let system = SystemConfig {
        corpus: CorpusConfig { size: 350, seed: 11, ..CorpusConfig::default() },
        selection: SelectionConfig { labeled_size: 500, ..SelectionConfig::default() },
        ..SystemConfig::default()
    };
    let pas = PasSystem::try_build(&system, &BuildOptions::default())
        .expect("quick-scale build succeeds")
        .pas;

    let requests = generate(&workload);
    let chunk = requests.len().div_ceil(shards);
    let mut fleet = GatewayReport::default();
    // Snapshot the build-phase metrics out of the way so the per-shard
    // lines cover serving only, then fold shard snapshots like a fleet
    // metrics collector would.
    let mut fleet_metrics = pas_obs::snapshot();
    pas_obs::reset();
    let mut carried: Option<GatewayCache> = None;
    for shard in requests.chunks(chunk.max(1)) {
        let replicas = (0..config.replicas).map(|_| pas.clone()).collect();
        let mut gateway = if let Some(cache) = carried.take() {
            Gateway::with_cache(config.clone(), replicas, cache)
        } else if let Some(dir) = &store_dir {
            // A restart boundary: this shard's gateway reopens the cache
            // from whatever the previous shard left in the store.
            let mode = match restart.as_str() {
                "warm" => OpenMode::Warm,
                "cold" => OpenMode::Replay,
                _ => OpenMode::Reembed,
            };
            let cache = SemanticCache::open_from(
                config.cache.clone(),
                cache_embedder(&config.cache),
                dir,
                mode,
            )
            .unwrap_or_else(|e| panic!("opening cache store {}: {e}", dir.display()));
            Gateway::with_cache(config.clone(), replicas, cache)
        } else {
            Gateway::new(config.clone(), replicas)
        };
        let (_, report) = gateway.run(shard);
        fleet.merge(&report);
        if carry {
            carried = Some(gateway.into_cache());
        } else if let Some(dir) = &store_dir {
            let mut cache = gateway.into_cache();
            if let Some(e) = cache.store_error() {
                panic!("cache store write failed mid-soak: {e}");
            }
            // Warm restarts checkpoint before "dying"; cold/reembed just
            // drop the cache — a kill. Every append is already durable, so
            // the next shard's reopen replays the full log.
            if restart == "warm" {
                cache
                    .persist_to(dir)
                    .unwrap_or_else(|e| panic!("checkpointing cache store {}: {e}", dir.display()));
            }
        }
        if pas_obs::enabled() {
            let snap = pas_obs::snapshot();
            pas_obs::reset();
            if let Some(path) = &metrics_jsonl {
                snap.append_jsonl(path)
                    .unwrap_or_else(|e| panic!("appending {}: {e}", path.display()));
            }
            fleet_metrics.merge(&snap);
        }
    }
    if let Some(path) = &metrics_out {
        fleet_metrics
            .write_json(path)
            .unwrap_or_else(|e| panic!("writing {}: {e}", path.display()));
        eprintln!("metrics → {}", path.display());
    }
    eprintln!("{}", fleet.render_summary());
    println!("{}", serde_json::to_string(&fleet).expect("report serializes"));
}
