//! # PAS — Plug-and-Play Prompt Augmentation System
//!
//! Facade crate re-exporting the whole PAS workspace under one roof. See the
//! individual crates for the full APIs:
//!
//! - [`core`] — the PAS system itself: SFT of the complement model and the
//!   plug-and-play augmentation API.
//! - [`data`] — prompt schema, synthetic corpora, the §3.1 selection pipeline
//!   and the Algorithm 1 generation/selection/regeneration loop.
//! - [`llm`] — the simulated-LLM substrate (capability profiles, teacher,
//!   critic, response planner).
//! - [`eval`] — Arena-Hard / AlpacaEval 2.0 / AlpacaEval 2.0 (LC) harnesses,
//!   judge models, the human-evaluation panel and experiment runners.
//! - [`baselines`] — BPO, PPO/DPO surrogates, OPRO, ProTeGi and zero-shot CoT.
//! - [`fault`] — fault-tolerant runtime: deterministic fault injection,
//!   retry/backoff with circuit breaking, checkpoint journals, and the
//!   degraded-mode accounting the serve path uses.
//! - [`gateway`] — deterministic serving gateway: semantic complement
//!   caching, admission control, micro-batching, and a fault-isolated
//!   replica pool, all under a discrete-event simulator.
//! - [`obs`] — deterministic observability: counters, gauges, fixed-bucket
//!   histograms and spans over simulated time, with mergeable JSON
//!   snapshots (off by default; `--metrics-out` turns it on).
//! - [`cluster`] — sharded multi-node gateway simulation: rendezvous-hash
//!   placement, seeded network chaos, hedged cross-shard routing, and
//!   rebalancing — bit-identical at any thread count.
//! - [`store`] — crash-safe storage pieces under the gateway's persistent
//!   semantic cache: CRC'd records, an append-only segment log with
//!   deterministic compaction, and an atomic checkpoint file.
//! - substrates: [`text`], [`tokenizer`], [`embed`], [`ann`], [`nn`].

pub use pas_ann as ann;
pub use pas_baselines as baselines;
pub use pas_cluster as cluster;
pub use pas_core as core;
pub use pas_data as data;
pub use pas_embed as embed;
pub use pas_eval as eval;
pub use pas_fault as fault;
pub use pas_gateway as gateway;
pub use pas_kernels as kernels;
pub use pas_llm as llm;
pub use pas_nn as nn;
pub use pas_obs as obs;
pub use pas_store as store;
pub use pas_text as text;
pub use pas_tokenizer as tokenizer;
