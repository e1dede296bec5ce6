//! Per-layer measurement from outside the program.
//!
//! Nothing here changes the program. Layers are timed three ways:
//!
//! - [`Timed`] wraps the optimizer handed to the real gateway and
//!   cluster, so every `M_p` call they make is timed where it happens;
//! - [`replay`] drives a standalone `SemanticCache` through the workload
//!   in arrival order (lookup, then on a miss an insert) with a timed
//!   embedder, since the gateway's own cache cannot be reached mid-run;
//! - the `*_probe` functions call one layer's public function directly on
//!   the workload's data (embedding, ANN search, `par_map`, the store).
//!
//! Spans are kept in memory as `{req, span, parent, start_ns, end_ns}` and
//! written out as JSONL when the run ends. `req` is `entry_hash(prompt)`,
//! the only request identity visible from outside.

use std::cell::RefCell;
use std::collections::{BTreeSet, HashMap};
use std::hint::black_box;
use std::io::Write;
use std::path::Path;
use std::rc::Rc;
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;

use pas_ann::{CosineDistance, Hnsw};
use pas_core::{Pas, PromptOptimizer};
use pas_data::{Corpus, Generator, SelectionPipeline};
use pas_embed::{Embedder, EmbeddingCache, NgramEmbedder};
use pas_gateway::{
    cache_embedder, entry_hash, CacheOutcome, OpenMode, Request, SemanticCache, SemanticCacheConfig,
};

use crate::workload::TempDir;

/// Samples a timed probe collects at least in a measuring run, so its p99
/// has ten beyond it.
pub const PROBE_SAMPLES: usize = 1000;

static EPOCH: OnceLock<Instant> = OnceLock::new();

/// Nanoseconds since the first call in this process.
pub fn now_ns() -> u64 {
    EPOCH.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

/// One timed call into a layer.
#[derive(Debug, Clone)]
pub struct Span {
    pub req: u64,
    pub span: &'static str,
    pub parent: Option<&'static str>,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn ns(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64
    }
}

/// Writes `spans` as one JSON object per line.
pub fn write_spans(path: &Path, spans: &[Span]) -> std::io::Result<()> {
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    for s in spans {
        let parent = s.parent.map_or_else(|| "null".to_string(), |p| format!("\"{p}\""));
        writeln!(
            out,
            "{{\"req\": {}, \"span\": \"{}\", \"parent\": {parent}, \"start_ns\": {}, \"end_ns\": {}}}",
            s.req, s.span, s.start_ns, s.end_ns
        )?;
    }
    out.flush()
}

/// An optimizer that times each call into the one it wraps.
#[derive(Clone)]
pub struct Timed<O> {
    inner: O,
    /// The span every call is a child of.
    parent: &'static str,
    /// Every call since the last drain.
    calls: Arc<Mutex<Vec<Span>>>,
}

impl<O> Timed<O> {
    pub fn new(inner: O, parent: &'static str) -> Self {
        Timed { inner, parent, calls: Arc::default() }
    }

    /// Takes every call recorded so far.
    pub fn drain(&self) -> Vec<Span> {
        std::mem::take(&mut self.calls.lock().expect("a serving thread panicked while recording"))
    }
}

impl<O: PromptOptimizer> PromptOptimizer for Timed<O> {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn optimize(&self, prompt: &str) -> String {
        let start_ns = now_ns();
        let out = self.inner.optimize(prompt);
        let end_ns = now_ns();
        let span = Span {
            req: entry_hash(prompt),
            span: "core.optimize",
            parent: Some(self.parent),
            start_ns,
            end_ns,
        };
        self.calls.lock().expect("a serving thread panicked while recording").push(span);
        out
    }

    fn requires_human_labels(&self) -> bool {
        self.inner.requires_human_labels()
    }

    fn llm_agnostic(&self) -> bool {
        self.inner.llm_agnostic()
    }

    fn task_agnostic(&self) -> bool {
        self.inner.task_agnostic()
    }

    fn training_pairs(&self) -> Option<usize> {
        self.inner.training_pairs()
    }
}

/// Wall time of each build stage, in ms, one sample per build.
#[derive(Default)]
pub struct StageTimes {
    pub corpus: Vec<f64>,
    pub select: Vec<f64>,
    pub generate: Vec<f64>,
    pub sft: Vec<f64>,
}

fn ms_since(start: Instant) -> f64 {
    start.elapsed().as_secs_f64() * 1e3
}

/// Builds the quick-scale `Pas` `reps` times stage by stage, the same
/// stages `PasSystem::try_build` runs, timing each one.
pub fn staged_build(reps: usize) -> Result<(Pas, StageTimes), String> {
    let config = crate::workload::system_config();
    let mut times = StageTimes::default();
    let mut pas = None;
    for _ in 0..reps {
        let t = Instant::now();
        let corpus = Corpus::generate(&config.corpus);
        times.corpus.push(ms_since(t));
        let t = Instant::now();
        let (selected, _) = SelectionPipeline::new(config.selection.clone()).run(&corpus.records);
        times.select.push(ms_since(t));
        let t = Instant::now();
        let (dataset, _, _) = Generator::new(config.generation.clone(), Arc::new(corpus.world))
            .try_run(&selected)
            .map_err(|e| format!("generation stage failed: {e}"))?;
        times.generate.push(ms_since(t));
        let t = Instant::now();
        pas = Some(Pas::sft(&config.pas, &dataset).0);
        times.sft.push(ms_since(t));
    }
    Ok((pas.ok_or("no build repetitions")?, times))
}

/// The embedder a replay cache calls: the gateway's memoized stack, with
/// each call timed and attributed to the cache operation that made it.
struct TimedEmbedder {
    inner: Rc<EmbeddingCache<NgramEmbedder>>,
    log: Rc<RefCell<EmbedLog>>,
}

#[derive(Default)]
struct EmbedLog {
    calls: u64,
    /// The cache operation in progress and its request.
    parent: Option<&'static str>,
    req: u64,
    /// `Some` while spans are being kept.
    spans: Option<Vec<Span>>,
}

impl Embedder for TimedEmbedder {
    fn dim(&self) -> usize {
        self.inner.dim()
    }

    fn embed(&self, text: &str) -> Vec<f32> {
        let start_ns = now_ns();
        let v = self.inner.embed(text);
        let end_ns = now_ns();
        let mut log = self.log.borrow_mut();
        log.calls += 1;
        let (req, parent) = (log.req, log.parent);
        if let Some(spans) = &mut log.spans {
            spans.push(Span { req, span: "embed", parent, start_ns, end_ns });
        }
        v
    }
}

/// Counters of a replay's first pass.
#[derive(Default)]
pub struct ReplayCounts {
    pub lookups: u64,
    pub exact_hits: u64,
    pub near_hits: u64,
    pub misses: u64,
    pub evictions: u64,
    pub embed_calls: u64,
    pub memo_hits: u64,
    pub memo_misses: u64,
}

/// What [`replay`] measured.
pub struct Replay {
    /// Every timed lookup and insert, in ns, over all passes.
    pub lookup_ns: Vec<f64>,
    pub insert_ns: Vec<f64>,
    /// Total lookup and insert time of each pass, in ms.
    pub lookup_busy_ms: Vec<f64>,
    pub insert_busy_ms: Vec<f64>,
    pub counts: ReplayCounts,
    /// The prompts live in the cache after the first pass, LRU first.
    pub live_prompts: Vec<String>,
    /// Spans of the first pass.
    pub spans: Vec<Span>,
}

/// Replays `stream` through a fresh standalone cache per pass, timing each
/// lookup and each insert, until both have [`PROBE_SAMPLES`] samples (or
/// `max_passes` passes ran).
pub fn replay(
    config: &SemanticCacheConfig,
    stream: &[&Request],
    responses: &HashMap<String, String>,
    max_passes: usize,
) -> Replay {
    let mut out = Replay {
        lookup_ns: Vec::new(),
        insert_ns: Vec::new(),
        lookup_busy_ms: Vec::new(),
        insert_busy_ms: Vec::new(),
        counts: ReplayCounts::default(),
        live_prompts: Vec::new(),
        spans: Vec::new(),
    };
    for pass in 0..max_passes.max(1) {
        if pass > 0 && out.lookup_ns.len() >= PROBE_SAMPLES && out.insert_ns.len() >= PROBE_SAMPLES
        {
            break;
        }
        let first = pass == 0;
        let memo = Rc::new(cache_embedder(config));
        let log =
            Rc::new(RefCell::new(EmbedLog { spans: first.then(Vec::new), ..EmbedLog::default() }));
        let embedder = TimedEmbedder { inner: Rc::clone(&memo), log: Rc::clone(&log) };
        let mut cache = SemanticCache::new(config.clone(), embedder);
        let mut spans = Vec::new();
        let (mut lookup_busy, mut insert_busy) = (0.0, 0.0);
        for r in stream {
            let req = entry_hash(&r.prompt);
            {
                let mut l = log.borrow_mut();
                l.req = req;
                l.parent = Some("cache.lookup");
            }
            let start_ns = now_ns();
            let outcome = cache.lookup(&r.prompt);
            let end_ns = now_ns();
            let lookup = Span { req, span: "cache.lookup", parent: None, start_ns, end_ns };
            lookup_busy += lookup.ns();
            out.lookup_ns.push(lookup.ns());
            if first {
                spans.push(lookup);
            }
            if outcome == CacheOutcome::Miss {
                log.borrow_mut().parent = Some("cache.insert");
                let response = &responses[&r.prompt];
                let start_ns = now_ns();
                cache.insert(&r.prompt, response);
                let end_ns = now_ns();
                let insert = Span { req, span: "cache.insert", parent: None, start_ns, end_ns };
                insert_busy += insert.ns();
                out.insert_ns.push(insert.ns());
                if first {
                    spans.push(insert);
                }
            }
        }
        out.lookup_busy_ms.push(lookup_busy / 1e6);
        out.insert_busy_ms.push(insert_busy / 1e6);
        if first {
            out.counts = ReplayCounts {
                lookups: stream.len() as u64,
                exact_hits: cache.hits(),
                near_hits: cache.near_hits(),
                misses: cache.misses(),
                evictions: cache.evictions(),
                embed_calls: log.borrow().calls,
                memo_hits: memo.hits(),
                memo_misses: memo.misses(),
            };
            out.live_prompts =
                cache.live_entries_lru().into_iter().map(|(p, _)| p.to_string()).collect();
            spans.extend(log.borrow_mut().spans.take().unwrap_or_default());
            spans.sort_by_key(|s| s.start_ns);
            out.spans = spans;
        }
    }
    out
}

/// ns to serve `r` from `cache`: a lookup, and on a miss an insert.
fn serve_one<E: Embedder>(
    cache: &mut SemanticCache<E>,
    r: &Request,
    responses: &HashMap<String, String>,
) -> f64 {
    let t = Instant::now();
    if cache.lookup(&r.prompt) == CacheOutcome::Miss {
        cache.insert(&r.prompt, &responses[&r.prompt]);
    }
    t.elapsed().as_nanos() as f64
}

/// ns per request the write-through log adds, at least `samples` of
/// them: `stream` served through a store-backed cache and an in-memory twin
/// side by side, request by request in alternating order, as the
/// difference per request. Both
/// caches make the same decisions, so the difference is the log's work;
/// pairing each request cancels the host's changes of speed.
pub fn write_through_probe(
    config: &SemanticCacheConfig,
    stream: &[&Request],
    responses: &HashMap<String, String>,
    samples: usize,
    mut fresh_dir: impl FnMut() -> Result<TempDir, String>,
) -> Result<Vec<f64>, String> {
    let mut diffs = Vec::with_capacity(samples.max(stream.len()));
    while diffs.len() < samples.max(1) {
        let dir = fresh_dir()?;
        let mut stored = SemanticCache::open_from(
            config.clone(),
            cache_embedder(config),
            dir.path(),
            OpenMode::Warm,
        )
        .map_err(|e| format!("opening a store in {}: {e}", dir.path().display()))?;
        let mut memory = SemanticCache::new(config.clone(), cache_embedder(config));
        for (i, r) in stream.iter().enumerate() {
            let (s, m) = if i % 2 == 0 {
                let s = serve_one(&mut stored, r, responses);
                (s, serve_one(&mut memory, r, responses))
            } else {
                let m = serve_one(&mut memory, r, responses);
                (serve_one(&mut stored, r, responses), m)
            };
            diffs.push(s - m);
        }
        if let Some(e) = stored.store_error() {
            return Err(format!("the replay store froze: {e}"));
        }
    }
    Ok(diffs)
}

/// Times `f` over `items` in whole rounds until `samples` calls ran.
fn sample_calls<T>(items: &[T], samples: usize, mut f: impl FnMut(&T)) -> Vec<f64> {
    let mut ns = Vec::with_capacity(samples);
    if items.is_empty() {
        return ns;
    }
    while ns.len() < samples.max(1) {
        for item in items {
            let t = Instant::now();
            f(item);
            ns.push(t.elapsed().as_nanos() as f64);
        }
    }
    ns
}

/// Distinct prompts of the stream, in a fixed order.
pub fn distinct_prompts<'a>(stream: &[&'a Request]) -> Vec<&'a str> {
    stream.iter().map(|r| r.prompt.as_str()).collect::<BTreeSet<_>>().into_iter().collect()
}

/// ns per `NgramEmbedder::embed` of each distinct workload prompt, with no
/// memo in front.
pub fn embed_probe(prompts: &[&str], samples: usize) -> Vec<f64> {
    let embedder = NgramEmbedder::default();
    sample_calls(prompts, samples, |p| {
        black_box(embedder.embed(black_box(p)));
    })
}

/// ns per near-tier probe: an index with the cache's `HnswConfig` over the
/// prompts `live` holds, searched as the cache searches it for each
/// distinct workload prompt.
pub fn ann_probe(
    config: &SemanticCacheConfig,
    live: &[String],
    prompts: &[&str],
    samples: usize,
) -> Vec<f64> {
    let embedder = NgramEmbedder::default();
    let mut index = Hnsw::new(config.hnsw.clone(), CosineDistance);
    for p in live {
        index.insert(embedder.embed(p));
    }
    let queries: Vec<Vec<f32>> = prompts.iter().map(|p| embedder.embed(p)).collect();
    sample_calls(&queries, samples, |q| {
        black_box(index.search(black_box(q), 4, config.ef));
    })
}

/// ns per `pas_par::par_map` with a no-op closure over `batch` items: the
/// fan-out cost every dispatched batch pays.
pub fn par_probe(batch: usize, samples: usize) -> Vec<f64> {
    let items = vec![0u64; batch.max(1)];
    sample_calls(&[()], samples, |_| {
        black_box(pas_par::par_map(black_box(&items), |_, x| *x));
    })
}

/// µs per pass of a fixed loop of the kinds of work a served request does
/// (formatting and hashing strings, map inserts and lookups, f32 sums),
/// on fixed data: a host diagnostic, so that a run on a slow or busy host
/// shows as such. No other metric is derived from it.
pub fn host_probe(samples: usize) -> Vec<f64> {
    let pass = || {
        let mut map: HashMap<String, u64> = HashMap::with_capacity(256);
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for i in 0..256u64 {
            let s = format!("explain sorting a vector of structs by key v{i} please");
            for b in s.bytes() {
                h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
            }
            map.insert(s, h);
        }
        let hits = (0..512u64)
            .filter(|i| {
                map.contains_key(&format!("explain sorting a vector of structs by key v{i} please"))
            })
            .count();
        let sum: f32 = (0..16_384u32).map(|k| ((h >> (k % 64)) & 1) as f32 * 0.5 - 0.25).sum();
        black_box((hits, sum, map));
    };
    let mut us = sample_calls(&[()], samples, |_| pass());
    us.iter_mut().for_each(|ns| *ns /= 1e3);
    us
}
