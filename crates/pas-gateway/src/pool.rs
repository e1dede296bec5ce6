//! The replica pool: N fault-isolated copies of the serve-time optimizer.
//!
//! Each replica is a [`DegradingServer`] with its *own* fault stack —
//! injector seed derived per replica via [`pas_par::derive_seed_path`], so
//! one replica's chaos schedule never lines up with another's, and its own
//! circuit breaker, so one replica's outage never poisons its peers'
//! health signal.
//!
//! Routing is deterministic least-loaded: the gateway picks the healthy
//! replica (breaker closed) with the fewest in-flight prompts, lowest id
//! winning ties. Serving a miss batch walks the pool starting at the
//! routed replica — if it errors out, the next replica is tried
//! (*failover*), and only when the whole pool is exhausted does the
//! request degrade to passthrough. That is the pool-level form of the
//! plug-and-play guarantee: a full-pool outage serves every prompt exactly
//! as [`pas_core::NoOptimizer`] would, never an error.

use pas_core::{DegradingServer, PromptOptimizer};
use pas_fault::{FaultConfig, FaultProfile, FaultReport};

/// Derivation lane for per-replica fault seeds (disjoint from the
/// pipeline's `pas_par` lanes, which start at 1).
pub const REPLICA_LANE: u64 = 0x5e77;

/// How a prompt left the pool.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ServeOutcome {
    /// `replica` produced the augmented prompt after `failovers` dead
    /// replicas were skipped.
    Served { response: String, replica: usize, failovers: u64 },
    /// Every replica was exhausted; the caller must serve the bare prompt.
    Degraded,
}

impl ServeOutcome {
    /// The text to answer with, given the original prompt (passthrough on
    /// degradation — the plug-and-play guarantee).
    pub fn response_for(&self, prompt: &str) -> String {
        match self {
            ServeOutcome::Served { response, .. } => response.clone(),
            ServeOutcome::Degraded => prompt.to_string(),
        }
    }
}

/// A pool of [`DegradingServer`]-wrapped optimizer replicas with
/// deterministic least-loaded routing and failover.
pub struct ReplicaPool<O: PromptOptimizer> {
    replicas: Vec<DegradingServer<O>>,
    /// Prompts currently dispatched per replica (maintained by the serial
    /// event loop, hence no atomics).
    in_flight: Vec<u64>,
}

impl<O: PromptOptimizer> ReplicaPool<O> {
    /// Builds the pool. Replica `r` gets `profiles[r]` when provided (a
    /// shorter/empty slice falls back to `base.profile`), and a fault seed
    /// derived from `base.seed` along the replica lane, so schedules are
    /// decorrelated across replicas but pinned per replica.
    pub fn new(optimizers: Vec<O>, base: &FaultConfig, profiles: &[FaultProfile]) -> Self {
        let replicas: Vec<DegradingServer<O>> = optimizers
            .into_iter()
            .enumerate()
            .map(|(r, opt)| {
                let config = FaultConfig {
                    profile: profiles.get(r).cloned().unwrap_or_else(|| base.profile.clone()),
                    seed: pas_par::derive_seed_path(base.seed, &[REPLICA_LANE, r as u64]),
                    policy: base.policy.clone(),
                };
                DegradingServer::new(opt, &config)
            })
            .collect();
        let in_flight = vec![0; replicas.len()];
        ReplicaPool { replicas, in_flight }
    }

    /// Number of replicas.
    pub fn len(&self) -> usize {
        self.replicas.len()
    }

    /// True for an empty pool (never built by the gateway, but the type
    /// permits it).
    pub fn is_empty(&self) -> bool {
        self.replicas.is_empty()
    }

    /// Replicas whose breaker is currently closed.
    pub fn healthy(&self) -> usize {
        self.replicas.iter().filter(|r| !r.breaker_open()).count()
    }

    /// Deterministic least-loaded routing: the healthy replica with the
    /// fewest in-flight prompts, lowest id on ties; if every breaker is
    /// open, the least-loaded replica overall (its probe slots are the only
    /// path back to health).
    pub fn route(&self) -> usize {
        let pick =
            |ids: &mut dyn Iterator<Item = usize>| ids.min_by_key(|&r| (self.in_flight[r], r));
        let mut healthy = (0..self.replicas.len()).filter(|&r| !self.replicas[r].breaker_open());
        pick(&mut healthy).or_else(|| pick(&mut (0..self.replicas.len()))).expect("non-empty pool")
    }

    /// Prompts currently dispatched per replica.
    pub fn in_flight(&self) -> &[u64] {
        &self.in_flight
    }

    /// Marks `count` prompts dispatched to `replica`.
    pub fn begin(&mut self, replica: usize, count: u64) {
        self.in_flight[replica] += count;
    }

    /// Marks `count` prompts completed on `replica`.
    pub fn finish(&mut self, replica: usize, count: u64) {
        self.in_flight[replica] -= count;
    }

    /// Serves one prompt, starting at `start` and failing over through the
    /// pool in id order (wrapping) until a replica answers. Batch dispatch
    /// calls it once per unique prompt, in item order, on the serving
    /// loop's thread; it takes `&self`, since the replicas' fault stacks
    /// synchronize internally.
    pub fn try_serve(&self, start: usize, prompt: &str) -> ServeOutcome {
        for hop in 0..self.replicas.len() {
            let replica = (start + hop) % self.replicas.len();
            if let Ok(response) = self.replicas[replica].try_optimize(prompt) {
                return ServeOutcome::Served { response, replica, failovers: hop as u64 };
            }
        }
        ServeOutcome::Degraded
    }

    /// Per-replica fault-layer accounting.
    pub fn fault_reports(&self) -> Vec<FaultReport> {
        self.replicas.iter().map(|r| r.fault_report()).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
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

    fn pool_of(n: usize, profiles: &[FaultProfile]) -> ReplicaPool<Suffix> {
        let optimizers = (0..n).map(|_| Suffix).collect();
        ReplicaPool::new(optimizers, &FaultConfig::default(), profiles)
    }

    #[test]
    fn routes_least_loaded_with_lowest_id_ties() {
        let mut pool = pool_of(3, &[]);
        assert_eq!(pool.route(), 0);
        pool.begin(0, 2);
        pool.begin(1, 1);
        assert_eq!(pool.route(), 2);
        pool.begin(2, 1);
        assert_eq!(pool.route(), 1, "ties break toward the lowest id");
        pool.finish(0, 2);
        assert_eq!(pool.route(), 0);
    }

    #[test]
    fn healthy_pool_serves_without_failover() {
        let pool = pool_of(2, &[]);
        let out = pool.try_serve(1, "hello");
        assert_eq!(
            out,
            ServeOutcome::Served { response: "hello [augmented]".into(), replica: 1, failovers: 0 }
        );
        assert_eq!(out.response_for("hello"), "hello [augmented]");
    }

    #[test]
    fn failover_skips_a_dead_replica() {
        let pool = pool_of(3, &[FaultProfile::none(), FaultProfile::outage()]);
        // Start at the dead replica 1: failover must land on replica 2.
        match pool.try_serve(1, "q") {
            ServeOutcome::Served { replica, failovers, response } => {
                assert_eq!((replica, failovers), (2, 1));
                assert_eq!(response, "q [augmented]");
            }
            ServeOutcome::Degraded => panic!("live replicas remain"),
        }
        assert!(pool.fault_reports()[1].total_faults() > 0);
        assert_eq!(pool.fault_reports()[0].total_faults(), 0);
    }

    #[test]
    fn full_outage_degrades_and_routing_still_answers() {
        let pool = pool_of(2, &[FaultProfile::outage(), FaultProfile::outage()]);
        for prompt in ["a", "b", "longer prompt c"] {
            let out = pool.try_serve(pool.route(), prompt);
            assert_eq!(out, ServeOutcome::Degraded);
            assert_eq!(out.response_for(prompt), NoOptimizer.optimize(prompt));
        }
        // Once the breakers latch open, `healthy` reflects it but routing
        // still returns a replica (probe slots are the recovery path).
        while pool.healthy() > 0 {
            pool.try_serve(0, "drive the breakers open");
        }
        assert_eq!(pool.route(), 0);
    }

    #[test]
    fn replica_fault_seeds_are_decorrelated() {
        // Under the same bursty profile, two replicas must not fault on an
        // identical schedule: drive both with the same prompts and compare
        // injected-fault counts per replica.
        let pool = pool_of(2, &[FaultProfile::bursty(), FaultProfile::bursty()]);
        for i in 0..40 {
            let p = format!("probe {i}");
            pool.try_serve(0, &p);
            pool.try_serve(1, &p);
        }
        let reports = pool.fault_reports();
        let a: Vec<u64> = vec![reports[0].transient, reports[0].timeouts, reports[0].garbled];
        let b: Vec<u64> = vec![reports[1].transient, reports[1].timeouts, reports[1].garbled];
        assert_ne!(a, b, "per-replica seeds must decorrelate fault schedules: {a:?} vs {b:?}");
    }
}
