//! The gateway proper: a deterministic discrete-event serving loop.
//!
//! The gateway is simulated rather than clocked: every request carries a
//! simulated arrival time, service costs are fixed per-operation
//! millisecond charges, and the loop pops events off a heap ordered by
//! `(time, seq)` where `seq` is assigned at scheduling time. No wall
//! clock, no OS timer, no thread ever touches the loop state — so a
//! seeded load test produces bit-identical responses, ordering, and
//! [`GatewayReport`] on every machine and at every `pas_par` thread
//! count. The loop runs on one thread, batches included: a dispatched
//! batch's unique prompts are served one by one in item order, since a
//! batch of a few `M_p` calls costs less than handing it to worker
//! threads.
//!
//! Request path: arrival → semantic cache lookup (exact, then τ-gated
//! near tier) → on miss, admission control into a bounded queue → micro-
//! batch dispatch (when `batch_max` prompts wait, or `batch_linger_ms`
//! after an enqueue) → replica pool with failover → completion responds,
//! installs fresh complements into the cache, and accounts latency.
//! Degraded results (full-pool exhaustion) are served as passthrough but
//! *never cached* — caching one would keep poisoning hits after the pool
//! recovers. Every step but the answer itself is a
//! [`ServingCore`](crate::ServingCore) job; [`Gateway::run`] only answers
//! in place and schedules the core's timers. An arrival hit is answered
//! at once, with no event of its own.

use pas_core::PromptOptimizer;
use pas_embed::{EmbeddingCache, NgramEmbedder};
use pas_fault::{FaultConfig, FaultProfile};

use crate::cache::{SemanticCache, SemanticCacheConfig};
use crate::report::GatewayReport;
use crate::serving::{Batch, ServingCore};
use crate::sim::EventHeap;
use crate::workload::Request;

/// What to do with a cache-miss arrival when the queue is full.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AdmissionPolicy {
    /// Turn the *new* request away: it is served passthrough immediately.
    Reject,
    /// Shed the *oldest* queued request (served passthrough) to make room
    /// — freshest-first, the usual choice when staleness is the cost.
    ShedOldest,
}

/// Gateway tuning knobs. Service costs are simulated-milliseconds charges,
/// not measurements.
#[derive(Debug, Clone)]
pub struct GatewayConfig {
    /// Replica count for the pool.
    pub replicas: usize,
    /// Base fault config; per-replica seeds are derived from its seed.
    pub fault: FaultConfig,
    /// Per-replica profile overrides (index-aligned; missing entries use
    /// `fault.profile`).
    pub replica_profiles: Vec<FaultProfile>,
    /// Semantic cache parameters.
    pub cache: SemanticCacheConfig,
    /// Bound on queued (admitted, undispatched) requests.
    pub queue_capacity: usize,
    /// Full-queue behaviour.
    pub admission: AdmissionPolicy,
    /// Dispatch as soon as this many prompts wait.
    pub batch_max: usize,
    /// … or this long after a prompt was enqueued, whichever first.
    pub batch_linger_ms: u64,
    /// Simulated cost of answering from the cache.
    pub cache_hit_cost_ms: u64,
    /// Simulated fixed cost of dispatching a batch to `M_p`.
    pub batch_overhead_ms: u64,
    /// Simulated marginal cost per unique prompt in a batch.
    pub per_prompt_cost_ms: u64,
}

impl Default for GatewayConfig {
    fn default() -> Self {
        GatewayConfig {
            replicas: 2,
            fault: FaultConfig::default(),
            replica_profiles: Vec::new(),
            cache: SemanticCacheConfig::default(),
            queue_capacity: 64,
            admission: AdmissionPolicy::ShedOldest,
            batch_max: 8,
            batch_linger_ms: 6,
            cache_hit_cost_ms: 1,
            batch_overhead_ms: 10,
            per_prompt_cost_ms: 5,
        }
    }
}

enum Event {
    /// Request `i` of the workload arrives.
    Arrival(usize),
    /// The linger timer armed when request `i` was enqueued fires.
    LingerFire(usize),
    /// Batch members whose prompt turned out cached by dispatch time
    /// (second-chance hits) complete without touching the pool.
    CacheServe(Vec<(usize, String)>),
    /// A dispatched batch completes.
    Completion(Batch),
}

/// The embedder-plus-memo stack the gateway's cache runs on: repeated
/// probes of hot prompts skip re-embedding through a *bounded*
/// [`EmbeddingCache`] sized to the semantic cache.
pub type GatewayCache = SemanticCache<EmbeddingCache<NgramEmbedder>>;

/// Builds the embedder stack [`Gateway::new`] gives its cache — callers
/// reopening a persisted cache ([`SemanticCache::open_from`]) use this to
/// reproduce the exact same embedding pipeline.
pub fn cache_embedder(cache: &SemanticCacheConfig) -> EmbeddingCache<NgramEmbedder> {
    EmbeddingCache::bounded(NgramEmbedder::default(), cache.capacity.max(1) * 2)
}

/// The deterministic serving gateway (module docs). Build one per load
/// test; [`Gateway::run`] consumes a workload and yields every response
/// plus the aggregate [`GatewayReport`].
pub struct Gateway<O: PromptOptimizer> {
    core: ServingCore<O>,
}

impl<O: PromptOptimizer> Gateway<O> {
    /// Builds a gateway over `optimizers` (one per replica; the length
    /// overrides `config.replicas`) with a fresh, empty cache.
    pub fn new(config: GatewayConfig, optimizers: Vec<O>) -> Self {
        let embedder = cache_embedder(&config.cache);
        let cache = SemanticCache::new(config.cache.clone(), embedder);
        Self::with_cache(config, optimizers, cache)
    }

    /// Builds a gateway around an existing cache — one carried over from a
    /// previous gateway ([`Gateway::into_cache`]) or reopened from a store
    /// directory ([`SemanticCache::open_from`]) for a warm restart. The
    /// cache's own construction-time config governs its behaviour;
    /// `config.cache` is not re-applied.
    pub fn with_cache(config: GatewayConfig, optimizers: Vec<O>, cache: GatewayCache) -> Self {
        Gateway { core: ServingCore::new(config, optimizers, cache) }
    }

    /// Consumes the gateway and hands back its cache, for a checkpoint
    /// ([`SemanticCache::persist_to`]) or a carry into the next gateway.
    pub fn into_cache(self) -> GatewayCache {
        self.core.into_cache()
    }

    /// The live cache.
    pub fn cache(&self) -> &GatewayCache {
        self.core.cache()
    }

    /// Mutable access to the live cache (e.g. to checkpoint mid-soak).
    pub fn cache_mut(&mut self) -> &mut GatewayCache {
        self.core.cache_mut()
    }

    /// Runs the full workload to completion. Returns the response for each
    /// request (index-aligned with `requests`) and the aggregate report.
    pub fn run(&mut self, requests: &[Request]) -> (Vec<String>, GatewayReport) {
        let mut span = pas_obs::span("gateway.run");
        span.items(requests.len() as u64);
        let core = &mut self.core;
        core.begin_run();
        let (hit_cost, linger) = (core.config().cache_hit_cost_ms, core.config().batch_linger_ms);
        // Index by position in the slice, not `Request::id` — a workload
        // shard keeps its global ids but is served as a self-contained run.
        let mut events =
            EventHeap::with_arrivals(requests.iter().map(|r| r.arrival_ms), Event::Arrival);
        let prompt = |i: usize| requests[i].prompt.as_str();
        let mut responses: Vec<Option<String>> = vec![None; requests.len()];
        let mut answer = |core: &mut ServingCore<O>, i: usize, text: String, at: u64| {
            responses[i] = Some(text);
            core.answered(at - requests[i].arrival_ms);
        };
        let dispatch = |core: &mut ServingCore<O>, events: &mut EventHeap<Event>, now: u64| {
            core.dispatch(now, prompt, events, Event::CacheServe, Event::Completion);
        };

        while let Some((now, event)) = events.pop() {
            match event {
                Event::Arrival(i) => {
                    core.arrived();
                    // A hit is answered at once, with no event of its own.
                    if let Some(response) = core.lookup(prompt(i)) {
                        answer(core, i, response, now + hit_cost);
                        continue;
                    }
                    let admission = core.admit(i, true);
                    if let Some(away) = admission.turned_away {
                        answer(core, away, prompt(away).to_string(), now);
                    }
                    if admission.dispatch {
                        dispatch(core, &mut events, now);
                    } else if admission.queued {
                        events.push(now + linger, Event::LingerFire(i));
                    }
                }
                // Stale once its request was dispatched or shed; a live
                // fire flushes the whole (sub-batch_max) queue.
                Event::LingerFire(i) => {
                    if core.is_queued(i) {
                        dispatch(core, &mut events, now);
                    }
                }
                Event::CacheServe(members) => {
                    for (i, text) in members {
                        answer(core, i, text, now);
                    }
                }
                Event::Completion(batch) => {
                    for (i, text) in core.complete(batch, true, prompt).0 {
                        answer(core, i, text, now);
                    }
                }
            }
        }

        debug_assert_eq!(core.queued(), 0, "linger fires must drain the queue");
        let now = events.now();
        let report = core.finish_run(now);
        // Aggregate counters are charged once per run from the finished
        // report (the core records the per-event metrics).
        for (name, n) in [
            ("gateway.requests", report.requests),
            ("gateway.completed", report.completed),
            ("gateway.cache.exact_hits", report.exact_hits),
            ("gateway.cache.near_hits", report.near_hits),
            ("gateway.cache.misses", report.misses),
            ("gateway.cache.batch_hits", report.batch_hits),
            ("gateway.cache.evictions", report.evictions),
            ("gateway.shed", report.shed),
            ("gateway.rejected", report.rejected),
            ("gateway.degraded", report.degraded),
            ("gateway.failovers", report.failovers),
            ("gateway.batches", report.batches),
            ("gateway.batched_prompts", report.batched_prompts),
        ] {
            pas_obs::counter_add(name, n);
        }
        if pas_obs::enabled() {
            for (idx, r) in report.per_replica.iter().enumerate() {
                pas_obs::counter_add(&format!("gateway.replica{idx}.served"), r.served);
            }
        }
        span.sim_ms(now);
        span.finish();
        let responses = responses.into_iter().map(|r| r.expect("every request answered")).collect();
        (responses, report)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::{generate, WorkloadConfig};
    use pas_core::NoOptimizer;

    /// A toy optimizer with visible, prompt-derived output.
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
        fn training_pairs(&self) -> Option<usize> {
            None
        }
    }

    fn gateway_with(config: GatewayConfig) -> Gateway<Suffix> {
        let n = config.replicas;
        Gateway::new(config, (0..n).map(|_| Suffix).collect())
    }

    fn small_workload() -> Vec<Request> {
        generate(&WorkloadConfig {
            requests: 300,
            universe: 25,
            near_dup_rate: 0.2,
            ..WorkloadConfig::default()
        })
    }

    #[test]
    fn every_request_is_answered_with_the_augmentation() {
        let requests = small_workload();
        let (responses, report) = gateway_with(GatewayConfig::default()).run(&requests);
        assert_eq!(responses.len(), requests.len());
        for (r, resp) in requests.iter().zip(&responses) {
            assert_eq!(resp, &format!("{} [augmented]", r.prompt));
        }
        assert_eq!(report.completed, report.requests);
        assert_eq!(report.degraded + report.shed + report.rejected, 0);
        assert_eq!(report.latency.count(), report.requests);
    }

    #[test]
    fn hot_prompts_hit_the_cache() {
        let requests = small_workload();
        let (_, report) = gateway_with(GatewayConfig::default()).run(&requests);
        assert!(report.exact_hits > 0, "Zipf head must repeat: {report:?}");
        assert!(report.hit_rate() > 0.3, "hit rate {}", report.hit_rate());
        // Every miss flowed through a batch (or was shed); in-batch
        // dedup can only shrink the dispatched-prompt count.
        assert!(report.batched_prompts + report.shed + report.rejected <= report.misses);
        assert!(report.batches > 0);
    }

    #[test]
    fn tau_enables_the_near_tier() {
        let requests = small_workload();
        let exact_only = gateway_with(GatewayConfig::default()).run(&requests).1;
        assert_eq!(exact_only.near_hits, 0, "τ=0 must keep the near tier off");
        let config = GatewayConfig {
            cache: SemanticCacheConfig { tau: 0.25, ..SemanticCacheConfig::default() },
            ..GatewayConfig::default()
        };
        let near = gateway_with(config).run(&requests).1;
        assert!(near.near_hits > 0, "τ=0.25 must catch workload near-dups: {near:?}");
        assert!(near.hit_rate() > exact_only.hit_rate());
    }

    #[test]
    fn tiny_queue_sheds_or_rejects_but_answers_everyone() {
        let requests = generate(&WorkloadConfig {
            requests: 400,
            universe: 380,
            zipf_s: 0.0,
            near_dup_rate: 0.0,
            mean_interarrival_ms: 1.0,
            ..WorkloadConfig::default()
        });
        // A zero capacity turns every miss away.
        for (admission, queue_capacity) in [
            (AdmissionPolicy::ShedOldest, 2),
            (AdmissionPolicy::Reject, 2),
            (AdmissionPolicy::ShedOldest, 0),
            (AdmissionPolicy::Reject, 0),
        ] {
            let config = GatewayConfig {
                queue_capacity,
                batch_max: 16,
                batch_linger_ms: 40,
                admission,
                ..GatewayConfig::default()
            };
            let (responses, report) = gateway_with(config).run(&requests);
            assert_eq!(report.completed, report.requests);
            assert_eq!(responses.len(), requests.len());
            match admission {
                AdmissionPolicy::ShedOldest => {
                    assert!(report.shed > 0, "tiny queue must shed: {report:?}");
                    assert_eq!(report.rejected, 0);
                }
                AdmissionPolicy::Reject => {
                    assert!(report.rejected > 0, "tiny queue must reject: {report:?}");
                    assert_eq!(report.shed, 0);
                }
            }
            if queue_capacity == 0 {
                assert_eq!(report.shed + report.rejected, report.misses, "{report:?}");
                assert_eq!(report.batches, 0);
            }
            // Shed/rejected requests still get the passthrough answer.
            for (r, resp) in requests.iter().zip(&responses) {
                assert!(
                    resp == &format!("{} [augmented]", r.prompt)
                        || resp == &NoOptimizer.optimize(&r.prompt)
                );
            }
        }
    }

    #[test]
    fn batching_dedupes_identical_prompts() {
        // Ten identical prompts arriving together: one unique prompt serves
        // the whole batch.
        let requests: Vec<Request> = (0..10)
            .map(|id| Request { id, arrival_ms: 0, prompt: "the same question".into() })
            .collect();
        let config = GatewayConfig { batch_max: 10, ..GatewayConfig::default() };
        let (responses, report) = gateway_with(config).run(&requests);
        assert!(responses.iter().all(|r| r == "the same question [augmented]"));
        assert_eq!(report.batches, 1);
        assert_eq!(report.batched_prompts, 1, "duplicates must be deduped in-batch");
    }

    #[test]
    fn queued_duplicates_get_second_chance_cache_hits() {
        // P is dispatched alone at t=15 (linger) and its complement lands in
        // the cache at t=30. The second P arrives at t=20 — after the first
        // dispatch, before the completion — so it misses at arrival, queues,
        // and its own dispatch at t=35 finds the prompt cached: served
        // without a second pool trip.
        let requests = vec![
            Request { id: 0, arrival_ms: 0, prompt: "the recurring question".into() },
            Request { id: 1, arrival_ms: 20, prompt: "the recurring question".into() },
        ];
        let config = GatewayConfig {
            batch_max: 8,
            batch_linger_ms: 15,
            batch_overhead_ms: 10,
            per_prompt_cost_ms: 5,
            ..GatewayConfig::default()
        };
        let (responses, report) = gateway_with(config).run(&requests);
        assert!(responses.iter().all(|r| r == "the recurring question [augmented]"));
        assert_eq!(report.misses, 2, "both arrivals miss at arrival time");
        assert_eq!(report.batch_hits, 1, "the queued duplicate must hit at dispatch");
        assert_eq!(report.batches, 1, "only the first request reaches the pool");
        assert_eq!(report.batched_prompts, 1);
        assert_eq!(report.completed, 2);
    }

    #[test]
    fn small_capacity_cache_evicts() {
        let config = GatewayConfig {
            cache: SemanticCacheConfig { capacity: 4, ..SemanticCacheConfig::default() },
            ..GatewayConfig::default()
        };
        let (_, report) = gateway_with(config).run(&small_workload());
        assert!(report.evictions > 0, "capacity 4 must churn: {report:?}");
    }
}
