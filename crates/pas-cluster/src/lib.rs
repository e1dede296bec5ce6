//! `pas-cluster`: a deterministic sharded multi-node gateway simulation.
//!
//! Runs N simulated gateway nodes against one discrete-event loop. Each
//! node is a `pas_gateway::ServingCore` (the core a single `Gateway`
//! drives) plus its id, liveness, gossip view and anti-entropy cursor:
//!
//! - [`hrw`] — rendezvous-hash sharding of the semantic cache: stable
//!   candidate lists, minimal-disruption reassignment on join/leave.
//! - [`cluster`] — the fleet loop: cross-shard routing with hedged
//!   requests, full-partition degradation to local passthrough, scripted
//!   membership changes with *in-band* state hand-off (per-entry transfer
//!   messages racing serving traffic), replica write-fanout, and periodic
//!   anti-entropy repair, all over the seeded `pas_fault::NetFaults`
//!   network with per-lane fault streams.
//! - [`gossip`] — the seeded gossip failure detector: per-node membership
//!   views with alive/suspect/dead states driven by heartbeats over the
//!   same chaotic network; routing consults each node's *local* view.
//! - [`report`] — per-node `GatewayReport`s folded through the existing
//!   associative merges into one [`ClusterReport`].
//!
//! The whole fleet shares the serial event loop; worker threads only ever
//! parallelise *inside* a node's batch dispatch, so responses and reports
//! are bit-identical at any thread count — the same contract every other
//! subsystem in this workspace honours, now across simulated machines.

pub mod cluster;
pub mod gossip;
pub mod hrw;
mod node;
pub mod report;

pub use cluster::{fleet_workloads, Cluster, ClusterConfig, Membership};
pub use gossip::NodeStatus;
pub use report::ClusterReport;

#[cfg(test)]
mod tests {
    use super::*;
    use pas_core::PromptOptimizer;
    use pas_fault::NetFaultProfile;
    use pas_gateway::WorkloadConfig;

    #[derive(Clone)]
    struct Suffix(&'static str);
    impl PromptOptimizer for Suffix {
        fn name(&self) -> &str {
            "suffix"
        }
        fn optimize(&self, prompt: &str) -> String {
            format!("{prompt} {}", self.0)
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
    }

    fn quiet_gateway() -> pas_gateway::GatewayConfig {
        let mut g = pas_gateway::GatewayConfig::default();
        g.fault.profile = pas_fault::FaultProfile::none();
        g
    }

    fn small_workloads(
        cluster: usize,
        per_node: usize,
        seed: u64,
    ) -> Vec<Vec<pas_gateway::Request>> {
        let base = WorkloadConfig { requests: per_node, seed, ..WorkloadConfig::default() };
        fleet_workloads(&base, cluster)
    }

    #[test]
    fn single_node_cluster_completes_everything_locally() {
        let config = ClusterConfig {
            nodes: 1,
            replication: 1,
            gateway: quiet_gateway(),
            ..ClusterConfig::default()
        };
        let mut cluster = Cluster::new(config, |_, _| Suffix("[augmented]"));
        let workloads = small_workloads(1, 120, 7);
        let (responses, report) = cluster.run(&workloads);
        assert_eq!(responses[0].len(), 120);
        assert_eq!(report.errors(), 0);
        assert_eq!(report.fleet.requests, 120);
        assert_eq!(report.forwards, 0, "one node is always its own candidate");
        assert!(responses[0].iter().any(|r| r.ends_with("[augmented]")));
    }

    #[test]
    fn multi_node_cluster_forwards_and_completes_everything() {
        let config = ClusterConfig {
            nodes: 4,
            replication: 2,
            gateway: quiet_gateway(),
            net: NetFaultProfile::lan(),
            ..ClusterConfig::default()
        };
        let mut cluster = Cluster::new(config, |_, _| Suffix("[augmented]"));
        let workloads = small_workloads(4, 80, 11);
        let (responses, report) = cluster.run(&workloads);
        assert_eq!(report.errors(), 0);
        assert_eq!(report.fleet.requests, 320);
        assert!(report.forwards > 0, "with 4 nodes and r=2 some keys live elsewhere");
        for (node, workload) in responses.iter().zip(&workloads) {
            assert_eq!(node.len(), workload.len());
        }
    }

    #[test]
    fn runs_are_reproducible() {
        let mk = || {
            let config = ClusterConfig {
                nodes: 3,
                gateway: quiet_gateway(),
                net: NetFaultProfile::lossy(),
                ..ClusterConfig::default()
            };
            let mut cluster = Cluster::new(config, |_, _| Suffix("[x]"));
            cluster.run(&small_workloads(3, 60, 5))
        };
        let (r1, rep1) = mk();
        let (r2, rep2) = mk();
        assert_eq!(r1, r2);
        assert_eq!(rep1, rep2);
    }

    #[test]
    fn leave_hands_primaries_to_survivors() {
        let config = ClusterConfig {
            nodes: 3,
            gateway: quiet_gateway(),
            script: vec![(400, Membership::Leave(1))],
            ..ClusterConfig::default()
        };
        let mut cluster = Cluster::new(config, |_, _| Suffix("[x]"));
        let (_, report) = cluster.run(&small_workloads(3, 150, 21));
        assert_eq!(report.errors(), 0);
        assert_eq!(report.rebalances, 1);
        assert!(report.rebalance_moved > 0, "the leaver owned some cached keys");
        assert!(!cluster.is_live(1));
    }

    #[test]
    fn join_pulls_primaries_from_incumbents() {
        let config = ClusterConfig {
            nodes: 3,
            gateway: quiet_gateway(),
            start_dead: vec![2],
            script: vec![(500, Membership::Join(2))],
            ..ClusterConfig::default()
        };
        let mut cluster = Cluster::new(config, |_, _| Suffix("[x]"));
        let (_, report) = cluster.run(&small_workloads(3, 150, 33));
        assert_eq!(report.errors(), 0);
        assert!(report.redirects > 0, "node 2's clients redirected while it was down");
        assert!(report.rebalance_moved > 0, "the joiner received its primaries");
        assert!(cluster.cache_len(2) > 0);
        assert!(cluster.is_live(2));
    }
}
