//! Semantic-cache effect on gateway serving throughput.
//!
//! Drives the same seeded Zipf workload through two gateways over a real
//! (quick-scale) PAS complement model: one with the cache disabled, one
//! with the exact+near semantic cache enabled. Like `parallel.rs` this
//! bench has a hand-written `main`: after the Criterion runs it replays
//! each configuration once to capture its `GatewayReport`, and writes
//! wall-clock medians, hit rates, and the cached-vs-uncached speedup to
//! `BENCH_gateway.json` at the workspace root (with host metadata, so
//! numbers from different machines are never compared blind).

use criterion::Criterion;
use std::hint::black_box;

use pas_core::{BuildOptions, Pas, PasSystem, SystemConfig};
use pas_data::{CorpusConfig, SelectionConfig};
use pas_gateway::{
    generate, Gateway, GatewayConfig, GatewayReport, Request, SemanticCacheConfig, WorkloadConfig,
};

const REQUESTS: usize = 2000;
const UNIVERSE: usize = 120;
const ZIPF_S: f64 = 1.1;
const CACHE_CAPACITY: usize = 512;
const TAU: f32 = 0.15;

fn build_pas() -> Pas {
    let config = SystemConfig {
        corpus: CorpusConfig { size: 350, seed: 11, ..CorpusConfig::default() },
        selection: SelectionConfig { labeled_size: 500, ..SelectionConfig::default() },
        ..SystemConfig::default()
    };
    PasSystem::try_build(&config, &BuildOptions::default()).expect("clean build succeeds").pas
}

fn workload() -> Vec<Request> {
    generate(&WorkloadConfig {
        requests: REQUESTS,
        universe: UNIVERSE,
        zipf_s: ZIPF_S,
        near_dup_rate: 0.2,
        ..WorkloadConfig::default()
    })
}

fn config(cache: SemanticCacheConfig) -> GatewayConfig {
    GatewayConfig { replicas: 2, cache, ..GatewayConfig::default() }
}

fn no_cache() -> SemanticCacheConfig {
    SemanticCacheConfig { capacity: 0, ..SemanticCacheConfig::default() }
}

fn semantic_cache() -> SemanticCacheConfig {
    SemanticCacheConfig { capacity: CACHE_CAPACITY, tau: TAU, ..SemanticCacheConfig::default() }
}

/// One full serving run; the gateway (and its cache) is rebuilt per
/// iteration so every measurement starts cold.
fn serve(pas: &Pas, requests: &[Request], cache: SemanticCacheConfig) -> GatewayReport {
    let mut gateway = Gateway::new(config(cache), vec![pas.clone(), pas.clone()]);
    let (responses, report) = gateway.run(requests);
    black_box(responses);
    report
}

fn bench_gateway(c: &mut Criterion, pas: &Pas, requests: &[Request]) {
    let mut g = c.benchmark_group("gateway");
    g.sample_size(10);
    g.bench_function("no_cache", |b| b.iter(|| serve(pas, requests, no_cache())));
    g.bench_function("semantic_cache", |b| b.iter(|| serve(pas, requests, semantic_cache())));
    g.finish();
}

fn write_summary(c: &Criterion, pas: &Pas, requests: &[Request]) {
    let uncached_ns = c.median_ns("gateway/no_cache");
    let cached_ns = c.median_ns("gateway/semantic_cache");
    // Replay each configuration once for its (deterministic) report.
    let uncached = serve(pas, requests, no_cache());
    let cached = serve(pas, requests, semantic_cache());
    assert_eq!(uncached.exact_hits + uncached.near_hits, 0, "capacity 0 must disable the cache");
    assert!(cached.hit_rate() > 0.3, "Zipf workload must hit: {}", cached.hit_rate());
    let per_sec = |ns: f64| REQUESTS as f64 / (ns / 1e9);
    let json = format!(
        concat!(
            "{{\n  \"host\": {},\n  \"threads\": {},\n",
            "  \"workload\": {{\"requests\": {}, \"universe\": {}, \"zipf_s\": {}, ",
            "\"near_dup_rate\": 0.2}},\n",
            "  \"no_cache\": {{\"median_ns\": {:.0}, \"requests_per_sec\": {:.1}, ",
            "\"sim_p50_ms\": {}, \"sim_p99_ms\": {}}},\n",
            "  \"semantic_cache\": {{\"capacity\": {}, \"tau\": {}, ",
            "\"median_ns\": {:.0}, \"requests_per_sec\": {:.1}, ",
            "\"exact_hits\": {}, \"near_hits\": {}, \"evictions\": {}, ",
            "\"hit_rate\": {:.3}, \"sim_p50_ms\": {}, \"sim_p99_ms\": {}}},\n",
            "  \"speedup\": {:.2}\n}}\n"
        ),
        bench::host_json(),
        pas_par::threads(),
        REQUESTS,
        UNIVERSE,
        ZIPF_S,
        uncached_ns,
        per_sec(uncached_ns),
        uncached.p50_ms(),
        uncached.p99_ms(),
        CACHE_CAPACITY,
        TAU,
        cached_ns,
        per_sec(cached_ns),
        cached.exact_hits,
        cached.near_hits,
        cached.evictions,
        cached.hit_rate(),
        cached.p50_ms(),
        cached.p99_ms(),
        uncached_ns / cached_ns,
    );
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_gateway.json");
    std::fs::write(path, &json).expect("write BENCH_gateway.json");
    println!("\nwrote {path}:\n{json}");
}

fn main() {
    let pas = build_pas();
    let requests = workload();
    let mut c = Criterion::default();
    bench_gateway(&mut c, &pas, &requests);
    write_summary(&c, &pas, &requests);
}
