//! Observability overhead on the gateway soak path.
//!
//! Runs the same seeded Zipf workload through the full gateway (semantic
//! cache + batching + replica pool over a real quick-scale PAS model)
//! twice per iteration family: once with the `pas-obs` registry disabled
//! (the production default) and once with every counter, gauge, histogram,
//! and span recording. The claim under test is that instrumentation is
//! cheap enough to leave on: enabled-metrics overhead stays under a few
//! percent of the soak wall-clock.
//!
//! Hand-written `main` like `gateway.rs`: after the Criterion runs it
//! writes medians, the overhead ratio, and the enabled run's snapshot
//! counter totals to `BENCH_obs.json` at the workspace root.

use criterion::Criterion;
use std::hint::black_box;

use pas_core::{BuildOptions, Pas, PasSystem, SystemConfig};
use pas_data::{CorpusConfig, SelectionConfig};
use pas_gateway::{generate, Gateway, GatewayConfig, Request, WorkloadConfig};

const REQUESTS: usize = 2000;
const UNIVERSE: usize = 120;
const ZIPF_S: f64 = 1.1;

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

/// One full serving run, cold gateway per iteration.
fn serve(pas: &Pas, requests: &[Request]) {
    let mut gateway = Gateway::new(
        GatewayConfig { replicas: 2, ..GatewayConfig::default() },
        vec![pas.clone(), pas.clone()],
    );
    black_box(gateway.run(requests));
}

fn bench_obs(c: &mut Criterion, pas: &Pas, requests: &[Request]) {
    let mut g = c.benchmark_group("obs");
    g.sample_size(10);
    pas_obs::set_enabled(false);
    g.bench_function("gateway_soak/metrics_off", |b| b.iter(|| serve(pas, requests)));
    pas_obs::set_enabled(true);
    pas_obs::reset();
    g.bench_function("gateway_soak/metrics_on", |b| b.iter(|| serve(pas, requests)));
    pas_obs::set_enabled(false);
    g.finish();
}

fn write_summary(c: &Criterion, pas: &Pas, requests: &[Request]) {
    let off_ns = c.median_ns("obs/gateway_soak/metrics_off");
    let on_ns = c.median_ns("obs/gateway_soak/metrics_on");
    let overhead = on_ns / off_ns - 1.0;
    // Replay once with metrics on for the (deterministic) snapshot totals.
    pas_obs::set_enabled(true);
    pas_obs::reset();
    serve(pas, requests);
    let snap = pas_obs::snapshot();
    pas_obs::set_enabled(false);
    assert_eq!(snap.counter("gateway.requests"), REQUESTS as u64);
    let json = format!(
        concat!(
            "{{\n  \"host\": {},\n  \"threads\": {},\n",
            "  \"workload\": {{\"requests\": {}, \"universe\": {}, \"zipf_s\": {}}},\n",
            "  \"metrics_off\": {{\"median_ns\": {:.0}}},\n",
            "  \"metrics_on\": {{\"median_ns\": {:.0}, \"counters\": {}, ",
            "\"gauges\": {}, \"histograms\": {}, \"gateway_requests\": {}}},\n",
            "  \"overhead\": {:.4}\n}}\n"
        ),
        bench::host_json(),
        pas_par::threads(),
        REQUESTS,
        UNIVERSE,
        ZIPF_S,
        off_ns,
        on_ns,
        snap.counters.len(),
        snap.gauges.len(),
        snap.histograms.len(),
        snap.counter("gateway.requests"),
        overhead,
    );
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_obs.json");
    std::fs::write(path, &json).expect("write BENCH_obs.json");
    println!("\nwrote {path}:\n{json}");
    assert!(overhead < 0.05, "enabled-metrics overhead {overhead:.4} must stay under 5%");
}

fn main() {
    let pas = build_pas();
    let requests = workload();
    let mut c = Criterion::default();
    bench_obs(&mut c, &pas, &requests);
    write_summary(&c, &pas, &requests);
}
