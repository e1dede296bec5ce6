//! The serving core shared by [`Gateway`](crate::Gateway) and every node
//! of a `pas-cluster` fleet: one semantic cache, one replica pool, one
//! bounded queue and the per-run [`GatewayReport`], with the four jobs of
//! a serving loop written once — lookup, admission, micro-batch dispatch
//! and batch completion.
//!
//! A core knows requests only by their index in the driver's request
//! table. It hands back whatever the driver must answer: the request
//! admission turned away, a batch's per-member responses and its fresh
//! installs. It schedules only its own dispatch, as the driver's events.
//! The loop that drives a core keeps only what differs between a gateway
//! and a cluster node: where an answer is delivered, and what else enters
//! its heap.

use std::collections::VecDeque;

use pas_core::PromptOptimizer;

use crate::cache::CacheOutcome;
use crate::gateway::{AdmissionPolicy, GatewayCache, GatewayConfig};
use crate::pool::{ReplicaPool, ServeOutcome};
use crate::report::{GatewayReport, ReplicaReport};
use crate::sim::EventHeap;

// Every recording below happens on the serial loop thread: the only
// parallel region is `ReplicaPool::try_serve` inside `dispatch`, which
// records nothing, so gauges are safe and the metrics are as
// deterministic as the loop itself.
static OBS_BATCH_SIZE: pas_obs::Histogram = pas_obs::Histogram::new("gateway.batch.size");
static OBS_LATENCY: pas_obs::Histogram = pas_obs::Histogram::new("gateway.latency_ms");
static OBS_QUEUE_DEPTH: pas_obs::Gauge = pas_obs::Gauge::new("gateway.queue.depth");
static OBS_POOL_HEALTHY: pas_obs::Gauge = pas_obs::Gauge::new("gateway.pool.healthy");

/// `(request, text)` answers to deliver.
pub type Answers = Vec<(usize, String)>;

/// What admission did with a cache miss.
#[derive(Debug, Clone, Copy)]
pub struct Admission {
    /// The request to answer with its bare prompt now: the newcomer under
    /// [`AdmissionPolicy::Reject`], the oldest queued one under
    /// [`AdmissionPolicy::ShedOldest`].
    pub turned_away: Option<usize>,
    /// The newcomer was queued: arm its linger timer, unless `dispatch`.
    pub queued: bool,
    /// The queue holds `batch_max` items: dispatch now.
    pub dispatch: bool,
}

/// A dispatched batch's pool half, in flight until its driver hands it to
/// [`ServingCore::complete`], or to [`ServingCore::abandon`] when its node
/// died.
#[derive(Debug)]
pub struct Batch {
    replica: usize,
    /// Each member request with its unique prompt's index in `outcomes`.
    members: Vec<(usize, usize)>,
    /// Per unique prompt: its first member's index in `members`, and
    /// whether any member may install the answer.
    owners: Vec<(usize, bool)>,
    outcomes: Vec<ServeOutcome>,
}

/// Cache, pool, queue and running report of one serving node (module
/// docs).
pub struct ServingCore<O: PromptOptimizer> {
    config: GatewayConfig,
    cache: GatewayCache,
    pool: ReplicaPool<O>,
    /// Queued `(request, cacheable)` items. A non-cacheable serve never
    /// installs its answer (a cluster node's fallbacks and rescues for keys
    /// it does not own).
    queue: VecDeque<(usize, bool)>,
    /// This run's report. Until [`ServingCore::finish_run`], its four cache
    /// fields hold the cache's counters at [`ServingCore::begin_run`]: the
    /// cache is cumulative (carried across runs, or reopened from a store),
    /// and a report holds its run's delta so per-run reports fold with
    /// `merge`.
    report: GatewayReport,
}

impl<O: PromptOptimizer> ServingCore<O> {
    /// Builds a core over `optimizers` (one per replica; the length
    /// overrides `config.replicas`) around `cache`, whose own config
    /// governs it. Pool fault seeds derive from `config.fault`.
    pub fn new(config: GatewayConfig, optimizers: Vec<O>, cache: GatewayCache) -> Self {
        assert!(!optimizers.is_empty(), "a serving core needs at least one replica");
        assert!(config.batch_max > 0, "batch_max must be positive");
        let pool = ReplicaPool::new(optimizers, &config.fault, &config.replica_profiles);
        ServingCore {
            config,
            cache,
            pool,
            queue: VecDeque::new(),
            report: GatewayReport::default(),
        }
    }

    /// The serving knobs.
    pub fn config(&self) -> &GatewayConfig {
        &self.config
    }

    /// The live cache.
    pub fn cache(&self) -> &GatewayCache {
        &self.cache
    }

    /// Mutable access to the live cache.
    pub fn cache_mut(&mut self) -> &mut GatewayCache {
        &mut self.cache
    }

    /// Consumes the core and hands back its cache.
    pub fn into_cache(self) -> GatewayCache {
        self.cache
    }

    /// The replica pool.
    pub fn pool(&self) -> &ReplicaPool<O> {
        &self.pool
    }

    /// Starts a run with an empty report.
    pub fn begin_run(&mut self) {
        self.report = GatewayReport {
            exact_hits: self.cache.hits(),
            near_hits: self.cache.near_hits(),
            misses: self.cache.misses(),
            evictions: self.cache.evictions(),
            per_replica: vec![ReplicaReport::default(); self.pool.len()],
            ..GatewayReport::default()
        };
    }

    /// Ends the run at simulated time `now` and hands its report over,
    /// with the cache deltas, the duration and the replicas' fault
    /// accounting filled in.
    pub fn finish_run(&mut self, now: u64) -> GatewayReport {
        let mut report = std::mem::take(&mut self.report);
        report.exact_hits = self.cache.hits() - report.exact_hits;
        report.near_hits = self.cache.near_hits() - report.near_hits;
        report.misses = self.cache.misses() - report.misses;
        report.evictions = self.cache.evictions() - report.evictions;
        report.sim_duration_ms = now;
        for (r, faults) in report.per_replica.iter_mut().zip(self.pool.fault_reports()) {
            r.faults = faults;
        }
        report
    }

    /// Counts one request at the node that accounts it.
    pub fn arrived(&mut self) {
        self.report.requests += 1;
    }

    /// Counts one answered request and its end-to-end latency.
    pub fn answered(&mut self, latency_ms: u64) {
        self.report.completed += 1;
        self.report.latency.record(latency_ms);
        OBS_LATENCY.record(latency_ms);
    }

    /// The cached response for `prompt`, from the exact tier or else the
    /// near tier.
    pub fn lookup(&mut self, prompt: &str) -> Option<String> {
        match self.cache.lookup(prompt) {
            CacheOutcome::ExactHit(response) | CacheOutcome::NearHit { response, .. } => {
                Some(response)
            }
            CacheOutcome::Miss => None,
        }
    }

    /// Admission control for a cache miss: queues it, first making room or
    /// turning it away per the [`AdmissionPolicy`] when the queue is full.
    pub fn admit(&mut self, req: usize, cacheable: bool) -> Admission {
        let mut turned_away = None;
        if self.queue.len() >= self.config.queue_capacity {
            match self.config.admission {
                AdmissionPolicy::Reject => {
                    self.report.rejected += 1;
                    return Admission { turned_away: Some(req), queued: false, dispatch: false };
                }
                AdmissionPolicy::ShedOldest => {
                    self.report.shed += 1;
                    // At a zero capacity the oldest request is the newcomer.
                    let Some((oldest, _)) = self.queue.pop_front() else {
                        return Admission {
                            turned_away: Some(req),
                            queued: false,
                            dispatch: false,
                        };
                    };
                    turned_away = Some(oldest);
                }
            }
        }
        self.queue.push_back((req, cacheable));
        OBS_QUEUE_DEPTH.set(self.queue.len() as u64);
        Admission { turned_away, queued: true, dispatch: self.queue.len() >= self.config.batch_max }
    }

    /// Whether `req` waits in the queue: a linger timer armed for it is
    /// live, one for a request dispatched or shed since is stale.
    pub fn is_queued(&self, req: usize) -> bool {
        self.queue.iter().any(|&(r, _)| r == req)
    }

    /// Items waiting in the queue.
    pub fn queued(&self) -> usize {
        self.queue.len()
    }

    /// Empties the queue without serving it (its node died) and hands the
    /// waiting requests back.
    pub fn drain_queue(&mut self) -> Vec<usize> {
        self.queue.drain(..).map(|(req, _)| req).collect()
    }

    /// Dispatches up to `batch_max` queued items. Their prompts (named by
    /// `prompt`) are deduped in first-occurrence order, and each unique
    /// prompt gets a second-chance probe through
    /// [`lookup_batch`](crate::SemanticCache::lookup_batch): an earlier
    /// batch may have installed it while these requests queued. The
    /// prompts that miss again are served through the pool in parallel,
    /// the loop's only parallel region. Pushes the hits as
    /// `hits(members)`, due `cache_hit_cost_ms` from `now`, then the rest
    /// as `batch(batch)`, due at the batch cost; that push order decides a
    /// `(time, seq)` tie between the two.
    pub fn dispatch<'p, E>(
        &mut self,
        now: u64,
        prompt: impl Fn(usize) -> &'p str,
        events: &mut EventHeap<E>,
        hits: impl FnOnce(Answers) -> E,
        batch: impl FnOnce(Batch) -> E,
    ) {
        let take = self.queue.len().min(self.config.batch_max);
        let members: Vec<(usize, bool)> = self.queue.drain(..take).collect();
        OBS_QUEUE_DEPTH.set(self.queue.len() as u64);
        let mut unique: Vec<&str> = Vec::new();
        let unique_of: Vec<usize> = members
            .iter()
            .map(|&(req, _)| {
                let p = prompt(req);
                match unique.iter().position(|&q| q == p) {
                    Some(u) => u,
                    None => {
                        unique.push(p);
                        unique.len() - 1
                    }
                }
            })
            .collect();

        // Misses were counted at arrival; this only harvests prompts
        // cached since then.
        let cached = self.cache.lookup_batch(&unique);
        let mut hit_members = Vec::new();
        let mut live: Vec<&str> = Vec::new();
        let mut live_of: Vec<Option<usize>> = vec![None; unique.len()];
        let mut owners: Vec<(usize, bool)> = Vec::new();
        let mut live_members = Vec::new();
        for (&(req, cacheable), &u) in members.iter().zip(&unique_of) {
            if let Some(response) = &cached[u] {
                hit_members.push((req, response.clone()));
                continue;
            }
            let l = *live_of[u].get_or_insert_with(|| {
                live.push(unique[u]);
                owners.push((live_members.len(), false));
                live.len() - 1
            });
            owners[l].1 |= cacheable;
            live_members.push((req, l));
        }
        if !hit_members.is_empty() {
            self.report.batch_hits += hit_members.len() as u64;
            events.push(now + self.config.cache_hit_cost_ms, hits(hit_members));
        }
        if live.is_empty() {
            return;
        }

        let replica = self.pool.route();
        self.pool.begin(replica, live.len() as u64);
        // Item-ordered results and content-derived fault coordinates keep
        // the outcomes thread-count invariant.
        let pool = &self.pool;
        let outcomes = pas_par::par_map(&live, |_, p| pool.try_serve(replica, p));
        self.report.batches += 1;
        self.report.batched_prompts += live.len() as u64;
        OBS_BATCH_SIZE.record(live.len() as u64);
        let cost =
            self.config.batch_overhead_ms + self.config.per_prompt_cost_ms * live.len() as u64;
        events.push(now + cost, batch(Batch { replica, members: live_members, owners, outcomes }));
    }

    /// Completes a batch: releases its replica load, accounts each unique
    /// prompt's replica and failovers, and, when `install` is set, caches
    /// each served answer some member may install. Degraded answers are
    /// passthrough and never cached: one would keep serving the bare prompt
    /// after the pool recovers. Returns each member's `(request, response)`
    /// in member order, and for each fresh install the index there of the
    /// first member it answers.
    pub fn complete<'p>(
        &mut self,
        batch: Batch,
        install: bool,
        prompt: impl Fn(usize) -> &'p str,
    ) -> (Answers, Vec<usize>) {
        let Batch { replica, members, owners, outcomes } = batch;
        self.pool.finish(replica, outcomes.len() as u64);
        OBS_POOL_HEALTHY.set(self.pool.healthy() as u64);
        // Cache and replica accounting go per unique prompt…
        let mut installed = Vec::new();
        for (&(first, cacheable), outcome) in owners.iter().zip(&outcomes) {
            if let ServeOutcome::Served { response, replica: served_by, failovers } = outcome {
                let (owner, _) = members[first];
                if install && cacheable && self.cache.insert_versioned(prompt(owner), response, 1) {
                    installed.push(first);
                }
                self.report.failovers += failovers;
                let r = &mut self.report.per_replica[*served_by];
                r.served += 1;
                if *failovers > 0 {
                    r.failover_served += 1;
                }
            }
        }
        // …responses per member request.
        let responses = members
            .into_iter()
            .map(|(req, u)| {
                if outcomes[u] == ServeOutcome::Degraded {
                    self.report.degraded += 1;
                }
                (req, outcomes[u].response_for(prompt(req)))
            })
            .collect();
        (responses, installed)
    }

    /// Drops a batch whose node died with it in flight: releases its
    /// replica load, so a rejoined node routes on true counts, and hands
    /// the members back for their clients to retry.
    pub fn abandon(&mut self, batch: Batch) -> Vec<usize> {
        self.pool.finish(batch.replica, batch.outcomes.len() as u64);
        batch.members.into_iter().map(|(req, _)| req).collect()
    }
}
