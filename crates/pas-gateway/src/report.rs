//! Mergeable accounting for a gateway run.
//!
//! Like `FaultReport` and `GenReport`, [`GatewayReport`] is built for
//! *ordered reduction*: every field is either a plain sum, a bucket-wise
//! histogram sum, or a max, so [`GatewayReport::merge`] is associative with
//! [`GatewayReport::default`] as the identity — shard-level soak reports
//! fold into a fleet report in any grouping.
//!
//! Latencies are simulated milliseconds recorded into a fixed
//! power-of-two-bucketed [`LatencyHistogram`]; percentiles are read off the
//! bucket upper edges, so p50/p99 are a pure function of the recorded
//! multiset (and therefore bit-reproducible).

use serde::{Deserialize, Serialize};

use pas_fault::FaultReport;

/// Number of latency buckets: bucket `i ≥ 1` holds latencies in
/// `[2^(i−1), 2^i)` ms, bucket 0 holds 0 ms, the last bucket everything
/// beyond. 40 buckets cover ~17 simulated years.
const BUCKETS: usize = 40;

/// A fixed-bucket (powers of two) latency histogram over simulated
/// milliseconds.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct LatencyHistogram {
    buckets: Vec<u64>,
    count: u64,
    sum_ms: u64,
    max_ms: u64,
}

impl Default for LatencyHistogram {
    fn default() -> Self {
        LatencyHistogram { buckets: vec![0; BUCKETS], count: 0, sum_ms: 0, max_ms: 0 }
    }
}

impl LatencyHistogram {
    fn bucket_for(ms: u64) -> usize {
        if ms == 0 {
            0
        } else {
            ((64 - ms.leading_zeros()) as usize).min(BUCKETS - 1)
        }
    }

    /// Upper edge (inclusive representative) of bucket `i`.
    fn bucket_edge(i: usize) -> u64 {
        if i == 0 {
            0
        } else {
            (1u64 << i) - 1
        }
    }

    /// Records one latency observation.
    pub fn record(&mut self, ms: u64) {
        self.buckets[Self::bucket_for(ms)] += 1;
        self.count += 1;
        self.sum_ms += ms;
        self.max_ms = self.max_ms.max(ms);
    }

    /// Number of observations.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Mean latency in ms (0 when empty).
    pub fn mean_ms(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum_ms as f64 / self.count as f64
        }
    }

    /// Largest observation.
    pub fn max_ms(&self) -> u64 {
        self.max_ms
    }

    /// The `q`-quantile (`0 < q ≤ 1`) as the upper edge of the bucket
    /// containing it — an upper bound on the true quantile, never off by
    /// more than the bucket width. Returns 0 for an empty histogram.
    pub fn quantile_ms(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut seen = 0;
        for (i, &n) in self.buckets.iter().enumerate() {
            seen += n;
            if seen >= rank {
                return Self::bucket_edge(i).min(self.max_ms);
            }
        }
        self.max_ms
    }

    /// Folds `other` into `self` bucket-wise. Associative; `default` is the
    /// identity.
    pub fn merge(&mut self, other: &LatencyHistogram) {
        for (a, b) in self.buckets.iter_mut().zip(&other.buckets) {
            *a += b;
        }
        self.count += other.count;
        self.sum_ms += other.sum_ms;
        self.max_ms = self.max_ms.max(other.max_ms);
    }
}

/// Per-replica serving counters plus the replica's fault-layer accounting.
#[derive(Debug, Clone, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct ReplicaReport {
    /// Prompts this replica answered successfully.
    pub served: u64,
    /// Prompts that failed over *to* this replica and succeeded here.
    pub failover_served: u64,
    /// Fault-stack accounting for this replica's boundary.
    pub faults: FaultReport,
}

impl ReplicaReport {
    /// Folds `other` into `self` (plain sums + [`FaultReport::merge`]).
    pub fn merge(&mut self, other: &ReplicaReport) {
        self.served += other.served;
        self.failover_served += other.failover_served;
        self.faults.merge(&other.faults);
    }
}

/// Everything one gateway run (or one shard of a fleet soak) did.
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct GatewayReport {
    /// Requests that arrived.
    pub requests: u64,
    /// Requests answered (the gateway never drops a request: always equals
    /// `requests` at the end of a run).
    pub completed: u64,
    /// Requests answered from the exact-match cache tier.
    pub exact_hits: u64,
    /// Requests answered from the ANN near-duplicate tier (a neighbour's
    /// complement within τ).
    pub near_hits: u64,
    /// Requests that missed the cache and went to the scheduler.
    pub misses: u64,
    /// Second-chance hits: requests that missed at arrival but found their
    /// prompt cached by dispatch time (an earlier batch completed and
    /// installed it while they sat in the queue), so they never reached the
    /// pool. Counted *in addition to* `misses` — the arrival-time miss
    /// accounting is not rewritten.
    pub batch_hits: u64,
    /// Complement-cache entries evicted by the LRU capacity bound.
    pub evictions: u64,
    /// Requests shed (oldest-dropped) by admission control; served
    /// passthrough.
    pub shed: u64,
    /// Requests rejected at arrival by admission control; served
    /// passthrough.
    pub rejected: u64,
    /// Requests whose `M_p` call failed on every replica; served
    /// passthrough.
    pub degraded: u64,
    /// Micro-batches dispatched to the replica pool.
    pub batches: u64,
    /// Distinct prompts sent in those batches (in-batch duplicates are
    /// answered once).
    pub batched_prompts: u64,
    /// Prompts that had to fail over past at least one dead replica.
    pub failovers: u64,
    /// End-to-end simulated latency per request.
    pub latency: LatencyHistogram,
    /// Simulated duration of the run (max over merged shards).
    pub sim_duration_ms: u64,
    /// Per-replica serving and fault accounting, indexed by replica id.
    pub per_replica: Vec<ReplicaReport>,
}

impl GatewayReport {
    /// Cache hit rate over the counted lookups: (exact + near hits) ÷
    /// (hits + misses). On a single gateway every arrival makes exactly one
    /// counted lookup, so this is the hit share of requests; a fleet node
    /// also counts the lookups it runs for forwarded requests, so a fleet
    /// report holds more lookups than requests.
    pub fn hit_rate(&self) -> f64 {
        let hits = self.exact_hits + self.near_hits;
        if hits + self.misses == 0 {
            0.0
        } else {
            hits as f64 / (hits + self.misses) as f64
        }
    }

    /// Median simulated latency (bucket upper edge).
    pub fn p50_ms(&self) -> u64 {
        self.latency.quantile_ms(0.50)
    }

    /// 99th-percentile simulated latency (bucket upper edge).
    pub fn p99_ms(&self) -> u64 {
        self.latency.quantile_ms(0.99)
    }

    /// Completed requests per simulated second.
    pub fn throughput_rps(&self) -> f64 {
        if self.sim_duration_ms == 0 {
            0.0
        } else {
            self.completed as f64 * 1000.0 / self.sim_duration_ms as f64
        }
    }

    /// Requests answered with the bare prompt (admission sheds/rejects plus
    /// replica-pool degradations) — the plug-and-play fallback total.
    pub fn passthroughs(&self) -> u64 {
        self.shed + self.rejected + self.degraded
    }

    /// Folds `other` into `self`: counters and histograms sum, durations
    /// max, per-replica reports merge index-wise. Associative, with
    /// [`GatewayReport::default`] as the identity.
    pub fn merge(&mut self, other: &GatewayReport) {
        self.requests += other.requests;
        self.completed += other.completed;
        self.exact_hits += other.exact_hits;
        self.near_hits += other.near_hits;
        self.misses += other.misses;
        self.batch_hits += other.batch_hits;
        self.evictions += other.evictions;
        self.shed += other.shed;
        self.rejected += other.rejected;
        self.degraded += other.degraded;
        self.batches += other.batches;
        self.batched_prompts += other.batched_prompts;
        self.failovers += other.failovers;
        self.latency.merge(&other.latency);
        self.sim_duration_ms = self.sim_duration_ms.max(other.sim_duration_ms);
        if self.per_replica.len() < other.per_replica.len() {
            self.per_replica.resize(other.per_replica.len(), ReplicaReport::default());
        }
        for (mine, theirs) in self.per_replica.iter_mut().zip(&other.per_replica) {
            mine.merge(theirs);
        }
    }

    /// One-paragraph human summary for CLI/bin output.
    pub fn render_summary(&self) -> String {
        format!(
            concat!(
                "{} requests in {} simulated ms ({:.1} req/s): ",
                "{} exact hits, {} near hits, {} misses (hit rate {:.1}%); ",
                "{} batches ({} prompts), {} second-chance hits, {} evictions; ",
                "latency p50 {} ms, p99 {} ms, max {} ms; ",
                "passthroughs: {} shed, {} rejected, {} degraded"
            ),
            self.requests,
            self.sim_duration_ms,
            self.throughput_rps(),
            self.exact_hits,
            self.near_hits,
            self.misses,
            self.hit_rate() * 100.0,
            self.batches,
            self.batched_prompts,
            self.batch_hits,
            self.evictions,
            self.p50_ms(),
            self.p99_ms(),
            self.latency.max_ms(),
            self.shed,
            self.rejected,
            self.degraded,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_quantiles_bound_the_data() {
        let mut h = LatencyHistogram::default();
        for ms in [0u64, 1, 2, 3, 5, 9, 17, 100, 1000] {
            h.record(ms);
        }
        assert_eq!(h.count(), 9);
        assert_eq!(h.max_ms(), 1000);
        assert!(h.quantile_ms(0.5) >= 3, "p50 {} below true median", h.quantile_ms(0.5));
        assert!(h.quantile_ms(0.5) <= 7, "p50 {} above bucket edge", h.quantile_ms(0.5));
        assert_eq!(h.quantile_ms(1.0), 1000);
        assert_eq!(LatencyHistogram::default().quantile_ms(0.99), 0);
    }

    #[test]
    fn histogram_merge_equals_joint_recording() {
        let mut a = LatencyHistogram::default();
        let mut b = LatencyHistogram::default();
        let mut joint = LatencyHistogram::default();
        for i in 0..200u64 {
            let ms = (i * 37) % 4096;
            if i % 2 == 0 {
                a.record(ms)
            } else {
                b.record(ms)
            }
            joint.record(ms);
        }
        a.merge(&b);
        assert_eq!(a, joint);
    }

    fn arb_report(seed: u64) -> GatewayReport {
        let f = |k: u64| (seed.rotate_left(k as u32).wrapping_mul(k + 5)) % 500;
        let mut latency = LatencyHistogram::default();
        for k in 0..f(1) % 40 {
            latency.record(seed.rotate_right(k as u32) % 9999);
        }
        GatewayReport {
            requests: f(2),
            completed: f(3),
            exact_hits: f(4),
            near_hits: f(5),
            misses: f(6),
            batch_hits: f(20),
            evictions: f(7),
            shed: f(8),
            rejected: f(9),
            degraded: f(10),
            batches: f(11),
            batched_prompts: f(12),
            failovers: f(13),
            latency,
            sim_duration_ms: f(14),
            per_replica: (0..(seed % 4))
                .map(|r| ReplicaReport { served: f(15 + r), ..ReplicaReport::default() })
                .collect(),
        }
    }

    #[test]
    fn merge_is_associative_with_identity() {
        for seed in [1u64, 99, 0xdead, 31337] {
            let (a, b, c) = (arb_report(seed), arb_report(seed ^ 7), arb_report(seed ^ 1234));
            let mut left = a.clone();
            left.merge(&b);
            left.merge(&c);
            let mut bc = b.clone();
            bc.merge(&c);
            let mut right = a.clone();
            right.merge(&bc);
            assert_eq!(left, right, "associativity at seed {seed}");

            let mut id = GatewayReport::default();
            id.merge(&a);
            assert_eq!(id, a, "left identity at seed {seed}");
            let mut back = a.clone();
            back.merge(&GatewayReport::default());
            assert_eq!(back, a, "right identity at seed {seed}");
        }
    }

    #[test]
    fn report_round_trips_through_json() {
        let r = arb_report(42);
        let json = serde_json::to_string(&r).unwrap();
        let back: GatewayReport = serde_json::from_str(&json).unwrap();
        assert_eq!(back, r);
    }

    #[test]
    fn summary_mentions_the_headline_numbers() {
        let mut r = GatewayReport { requests: 10, completed: 10, ..GatewayReport::default() };
        r.exact_hits = 4;
        r.misses = 6;
        let s = r.render_summary();
        assert!(s.contains("10 requests"), "{s}");
        assert!(s.contains("hit rate 40.0%"), "{s}");
    }
}
