//! Warm-restart cost of the persistent semantic cache.
//!
//! Populates a `pas-store`-backed cache by soaking a seeded Zipf workload
//! through the full gateway once, checkpoints it, then benches the three
//! ways the next process can get that cache back:
//!
//! - `open/warm` — restore the checkpoint snapshot (entries + live index
//!   rows) and replay only the log suffix (empty here);
//! - `open/cold_replay` — ignore the snapshot, replay every log record
//!   re-inserting the *logged* embeddings (no embedding);
//! - `open/reembed` — replay while re-embedding every prompt: the
//!   pre-`pas-store` restart cost, i.e. what a gateway had to pay before
//!   persistence existed.
//!
//! All three produce bit-identical caches (proven by the chaos and
//! persistence suites); this bench prices them. Hand-written `main` like
//! `obs.rs`: after the Criterion runs it writes medians, the speedup
//! ratios, and the store's recovery counters to `BENCH_store.json` at the
//! workspace root, asserting the headline claim that a warm open is at
//! least 10x faster than re-embedding.

use criterion::Criterion;
use std::hint::black_box;
use std::path::{Path, PathBuf};

use pas_core::{BuildOptions, Pas, PasSystem, SystemConfig};
use pas_data::{CorpusConfig, SelectionConfig};
use pas_gateway::{
    cache_embedder, generate, Gateway, GatewayCache, GatewayConfig, OpenMode, SemanticCache,
    SemanticCacheConfig, WorkloadConfig,
};

const REQUESTS: usize = 4000;
const UNIVERSE: usize = 2000;
const ZIPF_S: f64 = 1.1;

fn build_pas() -> Pas {
    let config = SystemConfig {
        corpus: CorpusConfig { size: 350, seed: 11, ..CorpusConfig::default() },
        selection: SelectionConfig { labeled_size: 500, ..SelectionConfig::default() },
        ..SystemConfig::default()
    };
    PasSystem::try_build(&config, &BuildOptions::default()).expect("clean build succeeds").pas
}

fn cache_config() -> SemanticCacheConfig {
    // τ well below the soak default: the near tier still exists (so the
    // checkpoint carries real index rows) but rarely absorbs a miss, so
    // the soak actually fills the cache and a restart has real state to
    // recover.
    SemanticCacheConfig { capacity: 8192, tau: 0.02, ..SemanticCacheConfig::default() }
}

fn store_dir() -> PathBuf {
    std::env::temp_dir().join(format!("pas-bench-store-{}", std::process::id()))
}

/// One soak through the full gateway with the cache logging to `dir`,
/// then a checkpoint — the state a killed-and-restarted process reopens.
fn populate(dir: &Path) -> usize {
    let pas = build_pas();
    let requests = generate(&WorkloadConfig {
        requests: REQUESTS,
        universe: UNIVERSE,
        zipf_s: ZIPF_S,
        near_dup_rate: 0.2,
        ..WorkloadConfig::default()
    });
    let config = GatewayConfig { replicas: 2, cache: cache_config(), ..GatewayConfig::default() };
    let cache = SemanticCache::open_from(
        cache_config(),
        cache_embedder(&config.cache),
        dir,
        OpenMode::Warm,
    )
    .expect("fresh store opens");
    let mut gateway = Gateway::with_cache(config, vec![pas.clone(), pas], cache);
    gateway.run(&requests);
    let mut cache = gateway.into_cache();
    assert!(cache.store_error().is_none(), "soak must not freeze the store");
    cache.persist_to(dir).expect("checkpoint succeeds");
    cache.len()
}

fn open(dir: &Path, mode: OpenMode) -> GatewayCache {
    SemanticCache::open_from(cache_config(), cache_embedder(&cache_config()), dir, mode)
        .expect("populated store reopens")
}

fn bench_opens(c: &mut Criterion, dir: &Path) {
    let mut g = c.benchmark_group("store");
    g.sample_size(10);
    g.bench_function("open/warm", |b| b.iter(|| black_box(open(dir, OpenMode::Warm))));
    g.bench_function("open/cold_replay", |b| b.iter(|| black_box(open(dir, OpenMode::Replay))));
    g.bench_function("open/reembed", |b| b.iter(|| black_box(open(dir, OpenMode::Reembed))));
    g.finish();
}

fn write_summary(c: &Criterion, dir: &Path, entries: usize) {
    let warm_ns = c.median_ns("store/open/warm");
    let cold_ns = c.median_ns("store/open/cold_replay");
    let reembed_ns = c.median_ns("store/open/reembed");
    let vs_cold = cold_ns / warm_ns;
    let vs_reembed = reembed_ns / warm_ns;
    // One recorded replay for the (deterministic) recovery counters.
    pas_obs::set_enabled(true);
    pas_obs::reset();
    let cache = open(dir, OpenMode::Replay);
    let snap = pas_obs::snapshot();
    pas_obs::set_enabled(false);
    assert_eq!(cache.len(), entries, "recorded replay must restore every entry");
    let json = format!(
        concat!(
            "{{\n  \"host\": {},\n  \"threads\": {},\n",
            "  \"workload\": {{\"requests\": {}, \"universe\": {}, \"zipf_s\": {}}},\n",
            "  \"cache_entries\": {},\n",
            "  \"warm_open\": {{\"median_ns\": {:.0}}},\n",
            "  \"cold_replay\": {{\"median_ns\": {:.0}}},\n",
            "  \"reembed\": {{\"median_ns\": {:.0}}},\n",
            "  \"store\": {{\"segments\": {}, \"recovered_records\": {}, ",
            "\"torn_tails\": {}, \"bytes\": {}}},\n",
            "  \"warm_speedup_vs_cold\": {:.2},\n",
            "  \"warm_speedup_vs_reembed\": {:.2}\n}}\n"
        ),
        bench::host_json(),
        pas_par::threads(),
        REQUESTS,
        UNIVERSE,
        ZIPF_S,
        entries,
        warm_ns,
        cold_ns,
        reembed_ns,
        snap.counter("store.segments"),
        snap.counter("store.recovered_records"),
        snap.counter("store.torn_tails"),
        snap.gauges.get("store.bytes").map(|g| g.last).unwrap_or(0),
        vs_cold,
        vs_reembed,
    );
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_store.json");
    std::fs::write(path, &json).expect("write BENCH_store.json");
    println!("\nwrote {path}:\n{json}");
    assert!(vs_reembed >= 10.0, "warm open must beat re-embedding by >= 10x, got {vs_reembed:.2}x");
}

fn main() {
    let dir = store_dir();
    let _ = std::fs::remove_dir_all(&dir);
    let entries = populate(&dir);
    assert!(entries > 500, "workload too small to price a restart: {entries} entries");
    let mut c = Criterion::default();
    bench_opens(&mut c, &dir);
    write_summary(&c, &dir, entries);
    let _ = std::fs::remove_dir_all(&dir);
}
