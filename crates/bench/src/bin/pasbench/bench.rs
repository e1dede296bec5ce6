//! One run of one workload: set-up, warm-up, the timed phase in whole
//! rounds over the streams (whose first round also checks every output
//! and reopens every stream's checkpointed cache), and for a traced run
//! the per-layer probes.

use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::time::Instant;

use pas_core::PromptOptimizer;
use pas_gateway::{
    cache_embedder, GatewayCache, GatewayReport, OpenMode, Request, SemanticCache,
    SemanticCacheConfig,
};

use crate::json::Json;
use crate::stats::{median, tail};
use crate::trace::{self, Span, Timed};
use crate::workload::{self, Report, Served, System, TempDir, Workload, STREAMS};

/// Timed iterations an untraced run makes at least: enough that the p90
/// of the per-iteration samples has ten samples beyond it.
const MIN_ITERS: usize = 100;
/// Untraced/traced iteration pairs a traced run makes at least.
const TRACE_PAIRS: usize = 20;
/// Builds of `Pas` whose median is the set-up time.
const SETUP_REPS: usize = 11;
/// Untimed iterations before timing starts.
const WARMUP_ITERS: usize = 2;
/// Timed reopens of each stream's checkpointed cache.
const RESTART_REPS: usize = 4;
/// Timed checkpoint writes and cold replays in a traced run.
const STORE_REPS: usize = 15;
/// Replay passes a traced run makes at most; a pass of `hot_zipf` makes
/// about 25 inserts, so 1 000 insert samples take some 40 passes.
const MAX_REPLAY_PASSES: usize = 200;

fn store_reps(smoke: bool) -> usize {
    if smoke {
        1
    } else {
        STORE_REPS
    }
}

/// How to run one workload.
#[derive(Debug, Clone)]
pub struct RunOptions {
    pub workload: Workload,
    pub seed: u64,
    /// Minimum timed wall time; the run also makes at least its minimum
    /// iterations, and whole rounds over the streams.
    pub seconds: f64,
    pub trace: bool,
    /// One stream, one build, no warm-up, two iterations and single probe
    /// samples: a check that everything runs, whose tail percentiles are
    /// refused.
    pub smoke: bool,
    /// Where span files and scratch store directories go.
    pub out_dir: PathBuf,
}

/// One measured metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: String,
    /// `NaN` for a refused percentile (smoke runs only).
    pub value: f64,
    /// A deterministic value: equal inputs must give it exactly.
    pub exact: bool,
}

/// What one run measured and checked.
#[derive(Debug, Clone, PartialEq)]
pub struct RunResult {
    pub workload: String,
    pub seed: u64,
    pub trace: bool,
    /// Timed iterations, traced ones included.
    pub iterations: u64,
    /// FNV-1a over the responses to the first stream, as `0x…` hex.
    pub digest: String,
    /// Requests served in the timed phase, and how many were not served a
    /// complement.
    pub attempted: u64,
    pub failed: u64,
    /// Failed output checks; empty when every check passed.
    pub failures: Vec<String>,
    pub metrics: Vec<Metric>,
}

impl RunResult {
    pub fn correct(&self) -> bool {
        self.failures.is_empty()
    }

    /// The run as a JSON record: `metrics` maps each name to its value,
    /// and `exact` lists the deterministic ones.
    pub fn to_json(&self) -> Json {
        let metrics = self.metrics.iter().map(|m| (m.name.clone(), Json::Num(m.value))).collect();
        let exact = self.metrics.iter().filter(|m| m.exact).map(|m| Json::str(&m.name)).collect();
        Json::obj([
            ("workload", Json::str(&self.workload)),
            ("seed", Json::Num(self.seed as f64)),
            ("trace", Json::Bool(self.trace)),
            ("iterations", Json::Num(self.iterations as f64)),
            ("digest", Json::str(&self.digest)),
            ("attempted", Json::Num(self.attempted as f64)),
            ("failed", Json::Num(self.failed as f64)),
            ("failures", Json::Arr(self.failures.iter().map(|f| Json::str(f)).collect())),
            ("metrics", Json::Obj(metrics)),
            ("exact", Json::Arr(exact)),
        ])
    }

    pub fn from_json(v: &Json) -> Result<RunResult, String> {
        let exact: Vec<&str> =
            v.get("exact")?.as_arr()?.iter().map(Json::as_str).collect::<Result<_, _>>()?;
        let metric = |(name, value): &(String, Json)| -> Result<Metric, String> {
            let exact = exact.contains(&name.as_str());
            Ok(Metric { name: name.clone(), value: value.as_f64()?, exact })
        };
        Ok(RunResult {
            workload: v.get("workload")?.as_str()?.to_string(),
            seed: v.get("seed")?.as_u64()?,
            trace: v.get("trace")?.as_bool()?,
            iterations: v.get("iterations")?.as_u64()?,
            digest: v.get("digest")?.as_str()?.to_string(),
            attempted: v.get("attempted")?.as_u64()?,
            failed: v.get("failed")?.as_u64()?,
            failures: v
                .get("failures")?
                .as_arr()?
                .iter()
                .map(|f| f.as_str().map(str::to_string))
                .collect::<Result<_, _>>()?,
            metrics: v.get("metrics")?.as_obj()?.iter().map(metric).collect::<Result<_, _>>()?,
        })
    }
}

/// Hands out fresh store directories under one scratch root, which is
/// removed when dropped.
struct Scratch {
    root: TempDir,
    next: usize,
}

impl Scratch {
    fn new(out_dir: &Path, workload: Workload) -> Result<Self, String> {
        let root = out_dir.join(format!("tmp-{}-{}", workload.name(), std::process::id()));
        let root =
            TempDir::create(root).map_err(|e| format!("creating a scratch directory: {e}"))?;
        Ok(Scratch { root, next: 0 })
    }

    fn dir(&mut self) -> Result<TempDir, String> {
        self.next += 1;
        TempDir::create(self.root.path().join(self.next.to_string()))
            .map_err(|e| format!("creating a store directory: {e}"))
    }
}

/// Collects metrics; a refused percentile is an error outside smoke runs.
struct Metrics {
    smoke: bool,
    list: Vec<Metric>,
}

impl Metrics {
    fn timing(&mut self, name: &str, value: f64) {
        self.list.push(Metric { name: name.to_string(), value, exact: false });
    }

    fn exact(&mut self, name: &str, value: f64) {
        self.list.push(Metric { name: name.to_string(), value, exact: true });
    }

    fn median(&mut self, name: &str, samples: &[f64]) {
        self.timing(name, median(samples));
    }

    /// The `q` percentile of `samples`, refused (an error, or `NaN` in a
    /// smoke run) with fewer than ten samples beyond it.
    fn tail(&mut self, name: &str, samples: &[f64], q: f64) -> Result<(), String> {
        let value = match tail(samples, q) {
            Some(v) => v,
            None if self.smoke => f64::NAN,
            None => {
                return Err(format!(
                    "{name}: {} samples leave fewer than ten beyond the p{}",
                    samples.len(),
                    q * 100.0
                ))
            }
        };
        self.timing(name, value);
        Ok(())
    }
}

fn secs(start: Instant) -> f64 {
    start.elapsed().as_secs_f64()
}

/// Serves one iteration; a persistent workload gets a fresh store.
fn serve<O: PromptOptimizer + Clone>(
    w: Workload,
    optimizer: &O,
    inputs: &[Vec<Request>],
    scratch: &mut Scratch,
) -> Result<Served<O>, String> {
    let store = if w.persistent() { Some(scratch.dir()?) } else { None };
    w.serve(optimizer, inputs, store)
}

/// What the first stream's first iteration leaves for the per-layer probes.
struct FirstStream {
    answers: HashMap<String, String>,
    report: Report,
    /// Its checkpointed cache.
    store: TempDir,
}

/// A checkpoint of the cache a serving run left behind, and its reopens.
struct Restart {
    store: TempDir,
    /// Reopen times, in ms.
    reopen_ms: Vec<f64>,
    /// Whether every reopened cache equals the live one.
    matched: bool,
}

/// Checkpoints the cache `system` leaves behind into `store` (a fresh
/// directory for an in-memory cache), writes `extra` more checkpoints,
/// timing each in ms into `persist_ms`, then reopens it
/// [`RESTART_REPS`] times.
fn restart<O: PromptOptimizer>(
    w: Workload,
    system: System<O>,
    store: Option<TempDir>,
    scratch: &mut Scratch,
    extra: usize,
    persist_ms: &mut Vec<f64>,
) -> Result<Restart, String> {
    let store = match store {
        Some(dir) => dir,
        None => scratch.dir()?,
    };
    let mut cache = system.into_cache(&w.cache());
    // The first checkpoint of an in-memory cache also attaches the store.
    persist(&mut cache, store.path())?;
    for _ in 0..extra {
        let t = Instant::now();
        persist(&mut cache, store.path())?;
        persist_ms.push(secs(t) * 1e3);
    }
    let live = cache.digest();
    drop(cache);
    let mut out = Restart { store, reopen_ms: Vec::new(), matched: true };
    for _ in 0..RESTART_REPS {
        let t = Instant::now();
        let reopened = reopen(&w.cache(), out.store.path(), OpenMode::Warm)?;
        out.reopen_ms.push(secs(t) * 1e3);
        out.matched &= reopened.digest() == live;
    }
    Ok(out)
}

/// Runs one workload per `opts`.
pub fn run(opts: &RunOptions) -> Result<RunResult, String> {
    let w = opts.workload;
    std::fs::create_dir_all(&opts.out_dir)
        .map_err(|e| format!("creating {}: {e}", opts.out_dir.display()))?;
    let mut scratch = Scratch::new(&opts.out_dir, w)?;
    let mut m = Metrics { smoke: opts.smoke, list: Vec::new() };
    let streams = if opts.smoke { 1 } else { STREAMS };
    let reps = if opts.smoke { 1 } else { SETUP_REPS };

    // Set-up: the untraced run times whole builds, the traced one stages.
    let (pas, builds, stages) = if opts.trace {
        let (pas, stages) = trace::staged_build(reps)?;
        (pas, Vec::new(), Some(stages))
    } else {
        let mut builds = Vec::new();
        let mut pas = None;
        for _ in 0..reps {
            let t = Instant::now();
            pas = Some(workload::build_pas()?);
            builds.push(secs(t));
        }
        (pas.expect("at least one build"), builds, None)
    };
    let t = Instant::now();
    let stream0 = w.stream(opts.seed, 0);
    let generation_s = secs(t);
    let requests = stream0.iter().map(Vec::len).sum::<usize>();
    for _ in 0..if opts.smoke { 0 } else { WARMUP_ITERS } {
        serve(w, &pas, &stream0, &mut scratch)?;
    }

    // Timed phase: whole rounds over the streams. The first round also
    // checks every output, records each stream's digest and reopens each
    // stream's checkpointed cache, all outside the timed region. A traced
    // run follows each iteration with a timed-optimizer one on the same
    // stream, so the tracing overhead is measured under equal conditions.
    let min_iters = if opts.smoke {
        2
    } else if opts.trace {
        TRACE_PAIRS
    } else {
        MIN_ITERS
    };
    let timed_opt = Timed::new(pas.clone(), run_span_name(w));
    let mut failures = Vec::new();
    let mut digests = Vec::new();
    let mut restart_ms = Vec::new();
    let mut persist_ms = Vec::new();
    let mut first: Option<FirstStream> = None;
    let mut peak_rss_mb = 0.0;
    let mut per_req_us = Vec::new();
    let mut walls = Vec::new();
    let mut traced_walls = Vec::new();
    let mut optimize_ns = Vec::new();
    let mut optimize_busy_ms = Vec::new();
    // The first traced iteration: its report, its run span and its calls.
    let mut traced: Option<(Report, Span, Vec<Span>)> = None;
    let (mut attempted, mut failed) = (0u64, 0u64);
    let start = Instant::now();
    let mut i = 0;
    while i < min_iters || i % streams != 0 || secs(start) < opts.seconds {
        let k = i % streams;
        let regenerated;
        let inputs = if k == 0 {
            &stream0
        } else {
            regenerated = w.stream(opts.seed, k);
            &regenerated
        };
        let served = serve(w, &pas, inputs, &mut scratch)?;
        let wall = served.wall.as_secs_f64();
        walls.push(wall);
        per_req_us.push(wall * 1e6 / requests as f64);
        attempted += requests as u64;
        failed += served.report.failed();
        let digest = workload::digest(&served.responses);
        if i < streams {
            let answers = workload::answers(&pas, inputs);
            if let Err(e) = workload::check_run(w, inputs, &answers, &served) {
                failures.push(format!("stream {k}: {e}"));
            }
            digests.push(digest);
            let extra = if opts.trace && k == 0 { store_reps(opts.smoke) } else { 0 };
            let r = restart(w, served.system, served.store, &mut scratch, extra, &mut persist_ms)?;
            restart_ms.extend(r.reopen_ms);
            if !r.matched {
                failures.push(format!("stream {k}: a reopened cache differs from the live one"));
            }
            if k == 0 {
                first = Some(FirstStream { answers, report: served.report, store: r.store });
            }
            if i + 1 == streams {
                // Peak memory of building PAS and serving every stream
                // once; later rounds repeat the same work.
                peak_rss_mb = max_rss_mb()?;
            }
        } else if digest != digests[k] {
            failures.push(format!("stream {k}: the responses differ from the first round's"));
        }
        if opts.trace {
            let start_ns = trace::now_ns();
            let served = serve(w, &timed_opt, inputs, &mut scratch)?;
            traced_walls.push(served.wall.as_secs_f64());
            attempted += requests as u64;
            failed += served.report.failed();
            if workload::digest(&served.responses) != digests[k] {
                failures.push(format!("stream {k}: the traced responses differ"));
            }
            let calls = timed_opt.drain();
            let ns: Vec<f64> = calls.iter().map(Span::ns).collect();
            optimize_busy_ms.push(ns.iter().sum::<f64>() / 1e6);
            optimize_ns.extend(ns);
            if traced.is_none() {
                let end_ns = start_ns + served.wall.as_nanos() as u64;
                let run = Span { req: 0, span: run_span_name(w), parent: None, start_ns, end_ns };
                traced = Some((served.report, run, calls));
            }
        }
        i += 1;
    }
    let first = first.expect("the first round ran");
    if let Some(committed) = crate::spec::committed_digest(w.name(), opts.seed) {
        if committed != digests[0] {
            failures.push(format!(
                "response digest {:#018x} differs from the committed {committed:#018x}",
                digests[0]
            ));
        }
    }

    if !opts.trace {
        let total_s: f64 = walls.iter().sum();
        m.timing("throughput_rps", (walls.len() * requests) as f64 / total_s);
        m.median("req_us_p50", &per_req_us);
        m.tail("req_us_p90", &per_req_us, 0.9)?;
        m.timing("setup_s", median(&builds) + generation_s);
        m.median("restart_ms", &restart_ms);
        m.timing("max_rss_mb", peak_rss_mb);
    }
    // What every run reports: the simulated latency of the first stream
    // and the share of requests not served a complement.
    let g = first.report.gateway();
    m.exact("gateway.sim_p50_ms", g.p50_ms() as f64);
    m.exact("gateway.sim_p99_ms", g.p99_ms() as f64);
    m.exact("gateway.fail_frac", failed as f64 / attempted as f64);

    if let (Some((report, run_span, calls)), Some(stages)) = (traced, stages) {
        let probe = LayerInputs {
            w,
            inputs: &stream0,
            first: &first,
            report: &report,
            optimize_calls: calls.len(),
            optimize_ns: &optimize_ns,
            optimize_busy_ms: &optimize_busy_ms,
            walls: &walls,
            traced_walls: &traced_walls,
            persist_ms: &persist_ms,
            stages: &stages,
        };
        let mut spans = layers(&mut m, &probe, &mut scratch)?;
        spans.push(run_span);
        spans.extend(calls);
        spans.sort_by_key(|s| s.start_ns);
        let path = opts.out_dir.join(format!("trace-{}.jsonl", w.name()));
        trace::write_spans(&path, &spans)
            .map_err(|e| format!("writing {}: {e}", path.display()))?;
    }

    Ok(RunResult {
        workload: w.name().to_string(),
        seed: opts.seed,
        trace: opts.trace,
        iterations: (walls.len() + traced_walls.len()) as u64,
        digest: format!("{:#018x}", digests[0]),
        attempted,
        failed,
        failures,
        metrics: m.list,
    })
}

/// Writes a checkpoint of `cache` to `dir`.
fn persist(cache: &mut GatewayCache, dir: &Path) -> Result<(), String> {
    cache.persist_to(dir).map_err(|e| format!("checkpointing to {}: {e}", dir.display()))
}

/// Opens the cache checkpointed in `dir`.
fn reopen(
    config: &SemanticCacheConfig,
    dir: &Path,
    mode: OpenMode,
) -> Result<GatewayCache, String> {
    SemanticCache::open_from(config.clone(), cache_embedder(config), dir, mode)
        .map_err(|e| format!("reopening {}: {e}", dir.display()))
}

/// The span a serving run opens, parent of its `optimize` calls.
fn run_span_name(w: Workload) -> &'static str {
    if w == Workload::FleetChaos {
        "cluster.run"
    } else {
        "gateway.run"
    }
}

/// Everything the per-layer metrics are computed from.
struct LayerInputs<'a> {
    w: Workload,
    /// The first stream and what its first iteration left.
    inputs: &'a [Vec<Request>],
    first: &'a FirstStream,
    /// The first traced iteration's report.
    report: &'a Report,
    /// `optimize` calls in one traced iteration.
    optimize_calls: usize,
    optimize_ns: &'a [f64],
    optimize_busy_ms: &'a [f64],
    /// Wall times of the untraced and traced iterations, pairwise.
    walls: &'a [f64],
    traced_walls: &'a [f64],
    persist_ms: &'a [f64],
    stages: &'a trace::StageTimes,
}

/// Per-layer metrics; returns the replay's spans.
fn layers(m: &mut Metrics, p: &LayerInputs, scratch: &mut Scratch) -> Result<Vec<Span>, String> {
    let requests: usize = p.inputs.iter().map(Vec::len).sum();
    let cache_config = p.w.cache();
    let g: &GatewayReport = p.report.gateway();

    // The host: a fixed loop of the program's kinds of work, so that a
    // slow host shows when two runs are compared.
    let samples = if m.smoke { 1 } else { trace::PROBE_SAMPLES };
    m.median("host.reference_us", &trace::host_probe(samples));

    // pas-core: M_p inside the real gateway or cluster.
    m.exact("core.optimize.calls", p.optimize_calls as f64);
    m.median("core.optimize.ns_p50", p.optimize_ns);
    m.tail("core.optimize.ns_p99", p.optimize_ns, 0.99)?;
    m.median("core.optimize.busy_ms", p.optimize_busy_ms);

    // pas-par: the fan-out paid on every dispatched batch.
    let batch_mean = if g.batches == 0 { 0.0 } else { g.batched_prompts as f64 / g.batches as f64 };
    let par_ns = trace::par_probe(batch_mean.round() as usize, samples);
    m.exact("par.map.calls", g.batches as f64);
    m.median("par.map.ns_p50", &par_ns);

    // pas-gateway scheduler and pool.
    m.exact("gateway.sched.batches", g.batches as f64);
    m.exact("gateway.sched.batch_size_mean", batch_mean);
    m.exact("gateway.sched.batch_hits", g.batch_hits as f64);
    let dispatched = g.misses.saturating_sub(g.shed + g.rejected + g.batch_hits);
    m.exact("gateway.sched.dedup_saved", dispatched.saturating_sub(g.batched_prompts) as f64);
    m.exact("gateway.sched.shed", g.shed as f64);
    m.exact("gateway.sched.rejected", g.rejected as f64);
    m.exact("gateway.pool.degraded", g.degraded as f64);
    m.exact("gateway.pool.failovers", g.failovers as f64);
    let traced_ns_per_req: Vec<f64> =
        p.traced_walls.iter().map(|s| s * 1e9 / requests as f64).collect();
    m.median("gateway.run.ns_per_req", &traced_ns_per_req);

    // pas-gateway cache, pas-embed and pas-ann, through a standalone replay
    // of the first stream in arrival order.
    let mut stream: Vec<&Request> = p.inputs.iter().flatten().collect();
    stream.sort_by_key(|r| r.arrival_ms);
    let answers = &p.first.answers;
    let passes = if m.smoke { 1 } else { MAX_REPLAY_PASSES };
    let replay = trace::replay(&cache_config, &stream, answers, passes);
    let c = &replay.counts;
    for (op, ns, busy, calls) in [
        ("lookup", &replay.lookup_ns, &replay.lookup_busy_ms, c.lookups),
        ("insert", &replay.insert_ns, &replay.insert_busy_ms, c.misses),
    ] {
        m.exact(&format!("cache.{op}.calls"), calls as f64);
        m.median(&format!("cache.{op}.ns_p50"), ns);
        m.tail(&format!("cache.{op}.ns_p99"), ns, 0.99)?;
        m.median(&format!("cache.{op}.busy_ms"), busy);
    }
    m.exact("cache.exact_hits", c.exact_hits as f64);
    m.exact("cache.near_hits", c.near_hits as f64);
    m.exact("cache.misses", c.misses as f64);
    m.exact("cache.evictions", c.evictions as f64);
    m.exact("cache.hit_rate", (c.exact_hits + c.near_hits) as f64 / c.lookups as f64);

    let prompts = trace::distinct_prompts(&stream);
    let embed_ns = trace::embed_probe(&prompts, samples);
    m.exact("embed.calls", c.embed_calls as f64);
    m.median("embed.ns_p50", &embed_ns);
    m.tail("embed.ns_p99", &embed_ns, 0.99)?;
    let memo = c.memo_hits + c.memo_misses;
    m.exact("embed.memo_hit_rate", if memo == 0 { 0.0 } else { c.memo_hits as f64 / memo as f64 });

    let ann_ns = trace::ann_probe(&cache_config, &replay.live_prompts, &prompts, samples);
    m.median("ann.search.ns_p50", &ann_ns);
    m.tail("ann.search.ns_p99", &ann_ns, 0.99)?;

    // pas-store: write-through cost, checkpoint writes and cold replays of
    // the first stream's checkpointed cache.
    let wt =
        trace::write_through_probe(&cache_config, &stream, answers, samples, || scratch.dir())?;
    m.median("store.write_through_ns_per_req", &wt);
    m.median("store.persist_ms", p.persist_ms);
    let dir = p.first.store.path();
    let mut replay_ms = Vec::new();
    for _ in 0..store_reps(m.smoke) {
        let t = Instant::now();
        reopen(&cache_config, dir, OpenMode::Replay)?;
        replay_ms.push(secs(t) * 1e3);
    }
    m.median("store.open_replay_ms", &replay_ms);
    // One recorded reopen for the store's own counters.
    pas_obs::reset();
    pas_obs::set_enabled(true);
    let reopened = reopen(&cache_config, dir, OpenMode::Replay);
    let snap = pas_obs::snapshot();
    pas_obs::set_enabled(false);
    reopened?;
    m.exact("store.bytes", snap.gauges.get("store.bytes").map_or(0, |g| g.last) as f64);
    m.exact(
        "store.records",
        snap.counters.get("store.recovered_records").copied().unwrap_or(0) as f64,
    );

    // pas-cluster.
    let cluster = match p.report {
        Report::Cluster(r) => Some(r),
        Report::Gateway(_) => None,
    };
    for (name, value) in [
        ("cluster.forwards", cluster.map(|r| r.forwards)),
        ("cluster.hedges_fired", cluster.map(|r| r.hedges_fired)),
        ("cluster.hedges_won", cluster.map(|r| r.hedges_won)),
        ("cluster.rescues", cluster.map(|r| r.rescues)),
        ("cluster.local_fallbacks", cluster.map(|r| r.local_fallbacks)),
        ("cluster.net_drops", cluster.map(|r| r.net_drops)),
        ("cluster.repl_sent", cluster.map(|r| r.repl_sent)),
        ("cluster.repl_applied", cluster.map(|r| r.repl_applied)),
        ("cluster.ae_repairs", cluster.map(|r| r.ae_repairs)),
        ("cluster.gossip_false_deaths", cluster.map(|r| r.gossip_false_deaths)),
        ("cluster.crash_retries", cluster.map(|r| r.crash_retries)),
    ] {
        m.exact(name, value.unwrap_or(0) as f64);
    }

    // Set-up stages (pas-data, SFT).
    m.median("setup.corpus_ms", &p.stages.corpus);
    m.median("setup.select_ms", &p.stages.select);
    m.median("setup.generate_ms", &p.stages.generate);
    m.median("setup.sft_ms", &p.stages.sft);

    // What the timing wrapper costs, and how much of a traced iteration
    // the layer timings account for.
    let overhead: Vec<f64> = p.traced_walls.iter().zip(p.walls).map(|(t, u)| t / u - 1.0).collect();
    m.median("trace.overhead_frac", &overhead);
    let attributed_ms = median(&replay.lookup_busy_ms)
        + median(&replay.insert_busy_ms)
        + median(p.optimize_busy_ms)
        + g.batches as f64 * median(&par_ns) / 1e6;
    m.timing("gateway.attributed_frac", attributed_ms / (median(p.traced_walls) * 1e3));
    Ok(replay.spans)
}

/// Peak resident set of this process (`VmHWM`), in MiB.
fn max_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("reading /proc/self/status for the peak RSS: {e}"))?;
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or("no VmHWM line in /proc/self/status")?;
    Ok(kb / 1024.0)
}
