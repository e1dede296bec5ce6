//! One simulated gateway node: a `pas_gateway::ServingCore` (the same
//! cache, replica pool, bounded queue and micro-batching a single
//! `Gateway` drives) plus what only a fleet member has — its id, its
//! liveness, its gossip view and its anti-entropy cursor.
//!
//! A node never talks to the network itself. The cluster loop in
//! [`crate::cluster`] drives its core, schedules its `CacheServe` and
//! `BatchDone` events on the fleet's one [`pas_gateway::EventHeap`], and
//! owns everything cross-node: routing, hedging, and answering at the
//! ingress.

use pas_core::PromptOptimizer;
use pas_fault::FaultConfig;
use pas_gateway::{cache_embedder, GatewayConfig, SemanticCache, ServingCore};

use crate::gossip::View;

/// Derivation lane for per-node fault seeds: every node's replica pool
/// draws its chaos from `derive(gateway.fault.seed, [NODE_FAULT_LANE,
/// node])`, so no two nodes fault on correlated schedules.
pub(crate) const NODE_FAULT_LANE: u64 = 0xc105;

/// A simulated gateway node.
pub(crate) struct Node<O: PromptOptimizer> {
    pub id: u32,
    pub live: bool,
    /// True after a `Membership::Crash` took the node down hard: pending
    /// serve events at it are discarded (no graceful drain happened) and
    /// orphaned local requests are re-driven by client retry.
    pub crashed: bool,
    /// This node's local membership view (the gossip failure detector);
    /// routing consults it instead of ground truth when gossip is on.
    pub view: View,
    /// Anti-entropy round counter: drives the round-robin peer rotation.
    pub ae_round: u64,
    pub core: ServingCore<O>,
}

impl<O: PromptOptimizer> Node<O> {
    /// Builds node `id` with a fresh cache and a pool whose fault seed is
    /// derived per node (decorrelated chaos across the fleet).
    pub fn new(id: u32, config: &GatewayConfig, optimizers: Vec<O>) -> Self {
        let config = GatewayConfig {
            fault: FaultConfig {
                seed: pas_par::derive_seed_path(config.fault.seed, &[NODE_FAULT_LANE, id.into()]),
                ..config.fault.clone()
            },
            ..config.clone()
        };
        let cache = SemanticCache::new(config.cache.clone(), cache_embedder(&config.cache));
        Node {
            id,
            live: true,
            crashed: false,
            view: View::new(id, &[]),
            ae_round: 0,
            core: ServingCore::new(config, optimizers, cache),
        }
    }
}
