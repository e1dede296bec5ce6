//! Deterministic high-throughput serving gateway for PAS.
//!
//! The paper's deployment story (PAS "serves heavy traffic from millions
//! of users") needs more than a single serve-time optimizer: it needs a
//! cache in front of `M_p`, batching behind it, and replicas around it.
//! This crate is that serving tier, built as a *deterministic discrete-
//! event simulation* so load tests are bit-reproducible — the same seeded
//! workload produces identical responses, identical ordering, and an
//! identical [`GatewayReport`] on any machine at any thread count.
//!
//! - [`cache`] — [`SemanticCache`]: exact-match LRU complement cache with
//!   a τ-gated ANN near-duplicate tier (off by default; a near hit serves
//!   the *neighbour's* complement), optionally backed by a `pas-store`
//!   segment log for crash-safe warm restarts
//!   ([`SemanticCache::open_from`] / [`SemanticCache::persist_to`]).
//! - [`pool`] — [`ReplicaPool`]: N `DegradingServer` replicas with
//!   decorrelated fault seeds, deterministic least-loaded routing, and
//!   failover; a full-pool outage degrades every request to passthrough.
//! - [`serving`] — [`ServingCore`]: one cache, one pool, one bounded queue
//!   and the per-run report, with lookup, admission control, micro-batch
//!   dispatch and batch completion written once. A [`Gateway`] drives one;
//!   every node of a `pas-cluster` fleet is one plus its membership state.
//! - [`gateway`] — [`Gateway`]: the single-node event loop around a core,
//!   answering at the gateway itself.
//! - [`sim`] — [`EventHeap`]: the `(time, seq)`-ordered future-event list
//!   both loops run on, with the workload's arrivals kept as a sorted
//!   schedule beside the heap rather than in it.
//! - [`workload`] — seeded Zipf-skewed open-loop request generation.
//! - [`report`] — mergeable [`GatewayReport`] with a log₂-bucketed
//!   latency histogram.

pub mod cache;
pub mod gateway;
pub mod pool;
pub mod report;
pub mod serving;
pub mod sim;
pub mod workload;

pub use cache::{entry_hash, CacheOutcome, OpenMode, SemanticCache, SemanticCacheConfig};
pub use gateway::{cache_embedder, AdmissionPolicy, Gateway, GatewayCache, GatewayConfig};
pub use pool::{ReplicaPool, ServeOutcome};
pub use report::{GatewayReport, LatencyHistogram, ReplicaReport};
pub use serving::{Batch, ServingCore};
pub use sim::EventHeap;
pub use workload::{base_prompt, generate, Request, WorkloadConfig};
