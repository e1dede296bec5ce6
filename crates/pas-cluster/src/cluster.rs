//! The multi-node discrete-event loop: HRW-sharded routing, hedged
//! cross-shard forwards, seeded network chaos, membership changes with
//! state hand-off, and fleet accounting.
//!
//! One [`EventHeap`] drives the whole fleet; its arrival schedule holds
//! every node's workload. Each node serves through its own
//! [`pas_gateway::ServingCore`], the core a single `Gateway` drives, and
//! this loop keeps only what a fleet adds: a node's cache hits and
//! batches complete through `CacheServe`/`BatchDone` events, answers
//! travel back to the ingress, a node installs only while it is part of
//! the fleet, and installs fan out. Requests arrive at their workload's
//! node (the *ingress*); the key's HRW candidate list decides where they
//! are served:
//!
//! - ingress ∈ candidates → served locally (lookup, admission, queue,
//!   batch: the node's core).
//! - otherwise → *forwarded* to the first reachable candidate. A hedge
//!   timer arms: if no response lands within `hedge_ms`, a backup probe
//!   goes to the next candidate (first response wins, losers are
//!   discarded on arrival). When the candidate chain is exhausted, a
//!   rescue timer serves the request locally as passthrough — so every
//!   request completes even if the network eats every message.
//! - every candidate link partitioned → immediate *local fallback*
//!   (served through the local pool, not cached locally): the
//!   full-partition degradation analogue of the plug-and-play guarantee.
//!
//! Membership changes are scripted, simulated-time events. A leave drains
//! the node's queue (graceful decommission), then hands the keys it
//! *primaries* to their new owners; a join pulls primaries over the same
//! way.
//!
//! Round 2 adds the replication plane, all riding the same heap:
//!
//! - *Write-fanout*: when a candidate installs a cache entry it pushes a
//!   replication message to every other HRW candidate, so hedged reads at
//!   replicas hit warm caches and a leave no longer goes cold.
//! - *Anti-entropy*: periodic sweeps exchange merkle-lite digests
//!   (`(entry_hash, version)` lists) between candidate peers in a
//!   round-robin rotation; missing or stale entries are pushed back as
//!   repairs, so replicas converge after drops and partitions.
//! - *In-band rebalance*: hand-off travels as per-entry transfer messages
//!   interleaved with serving traffic — big moves cost simulated time,
//!   race arrivals, and lose members to drops (anti-entropy heals those).
//! - *Gossip failure detection*: when [`ClusterConfig::gossip_interval_ms`]
//!   is set, each node keeps its own [`crate::gossip::View`] driven by
//!   seeded heartbeats, and candidate routing consults that *local* view —
//!   nodes legitimately disagree while the epidemic converges. A
//!   [`Membership::Crash`] announces nothing; peers time it out.
//!
//! Determinism: the loop is serial, a node's batch dispatch included,
//! which serves its unique prompts in item order. Network
//! fates are pure functions of `(net_seed, lane, src, dst, msg)` with
//! `msg` assigned serially *per lane* — serve traffic never shifts the
//! fate of a replication or gossip message — and all tie-breaks go
//! through the `(time, seq)` heap, so responses and the folded
//! [`ClusterReport`] are bit-identical at any worker-thread count.

use std::collections::BTreeMap;

use pas_core::PromptOptimizer;
use pas_fault::{MsgLane, NetFaultProfile, NetFaults};
use pas_gateway::{
    entry_hash, Batch, EventHeap, GatewayConfig, GatewayReport, Request, WorkloadConfig,
};

use crate::gossip::{GossipTuning, NodeStatus};
use crate::hrw;
use crate::node::Node;
use crate::report::ClusterReport;

// Aggregate counters are charged once per run from the finished report,
// following the gateway convention; golden metrics fixtures never run a
// cluster, so these names stay out of them.
static OBS_REQUESTS: pas_obs::Counter = pas_obs::Counter::new("cluster.requests");
static OBS_COMPLETED: pas_obs::Counter = pas_obs::Counter::new("cluster.completed");
static OBS_FORWARDS: pas_obs::Counter = pas_obs::Counter::new("cluster.forwards");
static OBS_HEDGES_FIRED: pas_obs::Counter = pas_obs::Counter::new("cluster.hedges.fired");
static OBS_HEDGES_WON: pas_obs::Counter = pas_obs::Counter::new("cluster.hedges.won");
static OBS_RESCUES: pas_obs::Counter = pas_obs::Counter::new("cluster.rescues");
static OBS_LOCAL_FALLBACKS: pas_obs::Counter = pas_obs::Counter::new("cluster.local_fallbacks");
static OBS_REBALANCE_MOVED: pas_obs::Counter = pas_obs::Counter::new("cluster.rebalance.moved");
static OBS_REPL_SENT: pas_obs::Counter = pas_obs::Counter::new("cluster.repl.sent");
static OBS_REPL_APPLIED: pas_obs::Counter = pas_obs::Counter::new("cluster.repl.applied");
static OBS_AE_DIGESTS: pas_obs::Counter = pas_obs::Counter::new("cluster.ae.digests");
static OBS_AE_REPAIRS: pas_obs::Counter = pas_obs::Counter::new("cluster.ae.repairs");
static OBS_GOSSIP_HEARTBEATS: pas_obs::Counter = pas_obs::Counter::new("cluster.gossip.heartbeats");
static OBS_GOSSIP_DEATHS: pas_obs::Counter = pas_obs::Counter::new("cluster.gossip.deaths");

/// A scripted membership change.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Membership {
    /// Node joins (or rejoins) the fleet and receives its primaries.
    Join(u32),
    /// Node drains its queue, hands its primaries off, and departs.
    Leave(u32),
    /// Node dies hard: no drain, no hand-off, no departure announcement.
    /// Its queued and in-flight local work re-arrives by client retry;
    /// with gossip on, peers only learn of the death by timing it out.
    Crash(u32),
}

/// Cluster tuning knobs on top of the per-node [`GatewayConfig`].
#[derive(Debug, Clone)]
pub struct ClusterConfig {
    /// Simulated gateway nodes (ids `0..nodes`).
    pub nodes: usize,
    /// HRW candidate-set size per key (primary + replicas).
    pub replication: usize,
    /// Per-node serving knobs; each node derives its own fault seed.
    pub gateway: GatewayConfig,
    /// Simulated network behaviour (latency, loss, partitions).
    pub net: NetFaultProfile,
    /// Seed for the network schedule.
    pub net_seed: u64,
    /// Delay before a backup probe goes to the next candidate.
    pub hedge_ms: u64,
    /// Delay before an exhausted hedge chain serves locally.
    pub rescue_ms: u64,
    /// Nodes built dead (they come up through a scripted `Join`).
    pub start_dead: Vec<u32>,
    /// Scripted membership changes as `(at_ms, change)` pairs.
    pub script: Vec<(u64, Membership)>,
    /// Fan cache installs out to the other HRW candidates so replicas
    /// serve warm after a leave or crash.
    pub repl_fanout: bool,
    /// Anti-entropy sweep period per node; `0` disables sweeps.
    pub ae_interval_ms: u64,
    /// Gossip heartbeat period per node; `0` disables the failure
    /// detector entirely (routing then uses scripted ground truth, the
    /// round-1 behaviour).
    pub gossip_interval_ms: u64,
    /// Heartbeat targets per gossip round.
    pub gossip_fanout: usize,
    /// Rounds of heartbeat silence before a peer turns `Suspect`.
    pub gossip_suspect_rounds: u64,
    /// Rounds of heartbeat silence before a peer turns `Dead`.
    pub gossip_dead_rounds: u64,
    /// Extra simulated time past the last arrival/script event during
    /// which periodic sweeps keep re-arming — the quiet period that lets
    /// anti-entropy and gossip converge after the chaos stops.
    pub quiet_ms: u64,
    /// Spacing between consecutive transfer messages on one hand-off
    /// link: a big move occupies simulated time instead of being instant.
    pub transfer_pace_ms: u64,
}

impl Default for ClusterConfig {
    fn default() -> Self {
        ClusterConfig {
            nodes: 4,
            replication: 2,
            gateway: GatewayConfig::default(),
            net: NetFaultProfile::none(),
            net_seed: 0x4e72,
            hedge_ms: 12,
            rescue_ms: 40,
            start_dead: Vec::new(),
            script: Vec::new(),
            repl_fanout: true,
            ae_interval_ms: 0,
            gossip_interval_ms: 0,
            gossip_fanout: 2,
            gossip_suspect_rounds: 8,
            gossip_dead_rounds: 16,
            quiet_ms: 0,
            transfer_pace_ms: 1,
        }
    }
}

impl ClusterConfig {
    /// Detector thresholds implied by the gossip knobs, or `None` when
    /// the detector is off.
    fn gossip_tuning(&self) -> Option<GossipTuning> {
        if self.gossip_interval_ms == 0 {
            return None;
        }
        Some(GossipTuning {
            fanout: self.gossip_fanout.max(1),
            suspect_ms: self.gossip_interval_ms * self.gossip_suspect_rounds.max(1),
            dead_ms: self.gossip_interval_ms * self.gossip_dead_rounds.max(2),
        })
    }
}

/// Per-node workloads for a fleet soak: node `n` gets `base.for_node(n)`
/// traffic — decorrelated streams, one fleet seed.
pub fn fleet_workloads(base: &WorkloadConfig, nodes: usize) -> Vec<Vec<Request>> {
    (0..nodes).map(|n| pas_gateway::generate(&base.for_node(n as u32))).collect()
}

/// Per-request simulation state.
pub(crate) struct ReqCtx {
    /// Workload coordinates (node index, position) for the response slot.
    node: usize,
    slot: usize,
    pub prompt: String,
    arrival_ms: u64,
    /// The node that accounts this request (workload node, or the primary
    /// owner when the workload node is dead).
    ingress: u32,
    candidates: Vec<u32>,
    /// The first forward target, when the request was forwarded at all.
    primary: Option<u32>,
    done: bool,
}

/// A message on the simulated network. Each variant travels on its own
/// [`MsgLane`], with its own serial message counter, so the fault fates
/// of one traffic class never shift another's.
#[derive(Clone)]
pub(crate) enum Msg {
    /// Serve `req` here (the receiver is a candidate for its key).
    Forward { req: usize },
    /// `server`'s answer for `req`, returning to the ingress.
    Response { req: usize, text: String, server: u32 },
    /// Write-fanout: install this entry at a candidate replica.
    Replicate { prompt: String, response: String, version: u64 },
    /// In-band rebalance: one hand-off entry for its new primary.
    Transfer { prompt: String, response: String, version: u64 },
    /// Anti-entropy: `from`'s sorted `(entry_hash, version)` digest.
    Digest { from: u32, entries: Vec<(u64, u64)> },
    /// Anti-entropy: an entry the digest sender was missing or held stale.
    Repair { prompt: String, response: String, version: u64 },
    /// Gossip: the sender's full view (alive stamps + departure stamps —
    /// the sender's own fresh stamp rides in `heard`, so no sender id is
    /// needed).
    Heartbeat { heard: Vec<(u32, u64)>, departed: Vec<(u32, u64)> },
    /// Gossip: `from` announces its own graceful departure at `at`.
    Departure { from: u32, at: u64 },
}

impl Msg {
    /// The traffic class this message travels on.
    fn lane(&self) -> MsgLane {
        match self {
            Msg::Forward { .. } | Msg::Response { .. } => MsgLane::Serve,
            Msg::Replicate { .. } => MsgLane::Replicate,
            Msg::Transfer { .. } => MsgLane::Transfer,
            Msg::Digest { .. } | Msg::Repair { .. } => MsgLane::AntiEntropy,
            Msg::Heartbeat { .. } | Msg::Departure { .. } => MsgLane::Gossip,
        }
    }
}

/// Cluster loop events (see module docs for the flow).
pub(crate) enum Ev {
    Arrival(usize),
    Deliver {
        dst: u32,
        msg: Msg,
    },
    Linger {
        node: u32,
        req: usize,
    },
    CacheServe {
        node: u32,
        members: Vec<(usize, String)>,
    },
    BatchDone {
        node: u32,
        batch: Batch,
    },
    Hedge {
        req: usize,
        next: usize,
    },
    Rescue {
        req: usize,
    },
    Membership(usize),
    /// Periodic anti-entropy sweep at `node`.
    AeSweep {
        node: u32,
    },
    /// Periodic gossip round `round` at `node`.
    GossipRound {
        node: u32,
        round: u64,
    },
}

/// The simulated fleet. Build once, [`Cluster::run`] per soak; node
/// caches stay warm across runs.
pub struct Cluster<O: PromptOptimizer> {
    config: ClusterConfig,
    nodes: Vec<Node<O>>,
    /// Simulated clock at the end of the last run — the instant at which
    /// [`Cluster::membership_view`] evaluates stamp ages.
    last_now: u64,
}

impl<O: PromptOptimizer> Cluster<O> {
    /// Builds the fleet; `optimizer(node, replica)` supplies each node's
    /// pool members.
    pub fn new(config: ClusterConfig, mut optimizer: impl FnMut(u32, usize) -> O) -> Self {
        assert!(config.nodes > 0, "cluster needs at least one node");
        assert!(config.replication > 0, "replication must be positive");
        assert!(
            config.replication <= config.nodes,
            "replication factor {} exceeds the {}-node fleet: every key would need more \
             candidate replicas than there are nodes; lower ClusterConfig::replication or \
             grow the fleet (HRW already clamps to the live count when nodes die at runtime)",
            config.replication,
            config.nodes,
        );
        let initial_live: Vec<u32> =
            (0..config.nodes as u32).filter(|n| !config.start_dead.contains(n)).collect();
        let nodes = (0..config.nodes as u32)
            .map(|n| {
                let opts = (0..config.gateway.replicas.max(1)).map(|r| optimizer(n, r)).collect();
                let mut node = Node::new(n, &config.gateway, opts);
                node.live = !config.start_dead.contains(&n);
                if node.live {
                    // Live nodes boot knowing the initial roster; a
                    // start-dead node learns the fleet when it joins.
                    node.view.bootstrap(&initial_live, 0);
                }
                node
            })
            .collect();
        Cluster { config, nodes, last_now: 0 }
    }

    /// Number of nodes (live or not).
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// True for a node-less cluster (never constructed; the type permits
    /// it).
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Whether `node` is currently part of the fleet.
    pub fn is_live(&self, node: u32) -> bool {
        self.nodes[node as usize].live
    }

    /// Live entries in `node`'s semantic cache.
    pub fn cache_len(&self, node: u32) -> usize {
        self.nodes[node as usize].core.cache().len()
    }

    /// Prompts in flight on each of `node`'s replicas: all zero between
    /// runs, once every dispatched batch has completed or been abandoned.
    pub fn in_flight(&self, node: u32) -> &[u64] {
        self.nodes[node as usize].core.pool().in_flight()
    }

    /// Every live `(prompt, response, version)` in `node`'s cache, sorted
    /// by prompt — the replica-convergence inspection export.
    pub fn cache_entries(&self, node: u32) -> Vec<(String, String, u64)> {
        let mut entries: Vec<(String, String, u64)> = self.nodes[node as usize]
            .core
            .cache()
            .live_entries_versioned()
            .into_iter()
            .map(|(p, r, v)| (p.to_string(), r.to_string(), v))
            .collect();
        entries.sort();
        entries
    }

    /// `node`'s membership view at the end of the last run, sorted by
    /// peer id. With gossip on this is the node's *local* (possibly
    /// wrong) belief; with gossip off it is scripted ground truth.
    pub fn membership_view(&self, node: u32) -> Vec<(u32, NodeStatus)> {
        match self.config.gossip_tuning() {
            Some(t) => self.nodes[node as usize].view.statuses(self.last_now, &t),
            None => self
                .nodes
                .iter()
                .map(|n| (n.id, if n.live { NodeStatus::Alive } else { NodeStatus::Dead }))
                .collect(),
        }
    }

    /// Runs one workload per node to completion. Returns the responses
    /// (index-aligned with each node's workload) and the fleet report.
    pub fn run(&mut self, workloads: &[Vec<Request>]) -> (Vec<Vec<String>>, ClusterReport) {
        assert_eq!(workloads.len(), self.nodes.len(), "one workload per node");
        let mut span = pas_obs::span("cluster.run");
        span.items(workloads.iter().map(|w| w.len() as u64).sum());
        for node in self.nodes.iter_mut() {
            node.core.begin_run();
        }

        let config = &self.config;
        // Periodic sweeps re-arm only up to the horizon: the last
        // arrival/script instant plus the configured quiet period. That
        // keeps the heap finite while giving anti-entropy and gossip a
        // chaos-free convergence window at the end of the run.
        let traffic_end = workloads
            .iter()
            .flat_map(|w| w.iter().map(|r| r.arrival_ms))
            .chain(config.script.iter().map(|(at, _)| *at))
            .max()
            .unwrap_or(0);
        // Requests node-major: same-time arrivals fire lowest-node-first,
        // a pure function of the workloads.
        let reqs: Vec<ReqCtx> = workloads
            .iter()
            .enumerate()
            .flat_map(|(ni, workload)| {
                workload.iter().enumerate().map(move |(si, r)| ReqCtx {
                    node: ni,
                    slot: si,
                    prompt: r.prompt.clone(),
                    arrival_ms: r.arrival_ms,
                    ingress: 0,
                    candidates: Vec::new(),
                    primary: None,
                    done: false,
                })
            })
            .collect();
        let mut sim = Sim {
            cfg: config,
            tuning: config.gossip_tuning(),
            horizon: traffic_end + config.quiet_ms,
            nodes: &mut self.nodes,
            events: EventHeap::with_arrivals(reqs.iter().map(|r| r.arrival_ms), Ev::Arrival),
            reqs,
            net: NetFaults::new(config.net.clone(), config.net_seed),
            msg_seq: [0; MsgLane::ALL.len()],
            responses: workloads.iter().map(|w| vec![None; w.len()]).collect(),
            stats: ClusterReport::default(),
        };
        for (k, (at_ms, _)) in config.script.iter().enumerate() {
            sim.events.push(*at_ms, Ev::Membership(k));
        }
        // Per-node stagger (+id) keeps same-instant sweeps ordered by
        // node without relying on heap insertion order.
        if config.ae_interval_ms > 0 {
            for n in 0..config.nodes as u32 {
                sim.events.push(config.ae_interval_ms + u64::from(n), Ev::AeSweep { node: n });
            }
        }
        if config.gossip_interval_ms > 0 {
            for n in 0..config.nodes as u32 {
                sim.events.push(
                    config.gossip_interval_ms + u64::from(n),
                    Ev::GossipRound { node: n, round: 0 },
                );
            }
        }

        while let Some((now, ev)) = sim.events.pop() {
            sim.handle(ev, now);
        }

        let Sim { events, responses, stats: mut report, .. } = sim;
        let now = events.now();
        self.last_now = now;
        report.nodes = self.nodes.len() as u64;
        for node in self.nodes.iter_mut() {
            report.per_node.push(node.core.finish_run(now));
        }
        let mut fleet = GatewayReport::default();
        for r in &report.per_node {
            fleet.merge(r);
        }
        report.fleet = fleet;

        OBS_REQUESTS.add(report.fleet.requests);
        OBS_COMPLETED.add(report.fleet.completed);
        OBS_FORWARDS.add(report.forwards);
        OBS_HEDGES_FIRED.add(report.hedges_fired);
        OBS_HEDGES_WON.add(report.hedges_won);
        OBS_RESCUES.add(report.rescues);
        OBS_LOCAL_FALLBACKS.add(report.local_fallbacks);
        OBS_REBALANCE_MOVED.add(report.rebalance_moved);
        OBS_REPL_SENT.add(report.repl_sent);
        OBS_REPL_APPLIED.add(report.repl_applied);
        OBS_AE_DIGESTS.add(report.ae_digests);
        OBS_AE_REPAIRS.add(report.ae_repairs);
        OBS_GOSSIP_HEARTBEATS.add(report.gossip_heartbeats);
        OBS_GOSSIP_DEATHS.add(report.gossip_deaths);
        span.sim_ms(now);
        span.finish();

        let responses = responses
            .into_iter()
            .map(|node| node.into_iter().map(|r| r.expect("every request answered")).collect())
            .collect();
        (responses, report)
    }
}

/// Loop state for one run (borrows the cluster's nodes).
struct Sim<'a, O: PromptOptimizer> {
    cfg: &'a ClusterConfig,
    /// Detector thresholds; `None` disables gossip (ground-truth views).
    tuning: Option<GossipTuning>,
    /// Last instant at which periodic sweeps still re-arm.
    horizon: u64,
    nodes: &'a mut Vec<Node<O>>,
    reqs: Vec<ReqCtx>,
    events: EventHeap<Ev>,
    net: NetFaults,
    /// Serial message counters, one per lane — the network schedule's
    /// final coordinate. Per-lane counters mean serve traffic volume
    /// never shifts the fates of replication/gossip messages (and vice
    /// versa), which is what lets chaos sweeps vary one lane at a time.
    msg_seq: [u64; MsgLane::ALL.len()],
    responses: Vec<Vec<Option<String>>>,
    stats: ClusterReport,
}

impl<O: PromptOptimizer> Sim<'_, O> {
    fn live_ids(&self) -> Vec<u32> {
        self.nodes.iter().filter(|n| n.live).map(|n| n.id).collect()
    }

    /// The membership node `n` routes by: its own gossip view when the
    /// detector is on (stale beliefs and all), scripted ground truth
    /// otherwise. Always contains `n` itself, so candidate lists derived
    /// from it are never empty.
    fn routing_live(&self, n: u32, now: u64) -> Vec<u32> {
        match &self.tuning {
            Some(t) => self.nodes[n as usize].view.routing_live(now, t),
            None => self.live_ids(),
        }
    }

    fn handle(&mut self, ev: Ev, now: u64) {
        match ev {
            Ev::Arrival(req) => self.ingest(req, now, false),
            Ev::Deliver { dst, msg } => self.deliver(dst, msg, now),
            Ev::Linger { node, req } => {
                // Stale once the item left the queue (dispatched, shed, or
                // completed elsewhere); a live fire flushes the queue.
                if !self.reqs[req].done && self.nodes[node as usize].core.is_queued(req) {
                    self.dispatch_node(node, now);
                }
            }
            Ev::CacheServe { node, members } => {
                if self.nodes[node as usize].crashed {
                    for (req, _) in members {
                        self.orphaned(node, req, now);
                    }
                    return;
                }
                for (req, text) in members {
                    self.complete_at(node, req, text, now);
                }
            }
            Ev::BatchDone { node, batch } => self.batch_done(node, batch, now),
            Ev::Hedge { req, next } => self.hedge(req, next, now),
            Ev::Rescue { req } => self.rescue(req, now),
            Ev::Membership(k) => self.membership(k, now),
            Ev::AeSweep { node } => self.ae_sweep(node, now),
            Ev::GossipRound { node, round } => self.gossip_round(node, round, now),
        }
    }

    /// A serve of `req` died with crashed node `n`. Its local client
    /// retries; a forwarded request is covered by its ingress's
    /// hedge/rescue chain instead.
    fn orphaned(&mut self, n: u32, req: usize, now: u64) {
        if self.reqs[req].ingress == n && !self.reqs[req].done {
            self.retry_after_crash(req, now);
        }
    }

    /// Re-drives a request orphaned by its node crashing: the client
    /// retries against the current fleet. Keeps the original arrival
    /// stamp (the crash delay is real latency) and does not re-count the
    /// request — the fleet saw it exactly once.
    fn retry_after_crash(&mut self, req: usize, now: u64) {
        self.reqs[req].primary = None;
        self.stats.crash_retries += 1;
        self.ingest(req, now, true);
    }

    fn ingest(&mut self, req: usize, now: u64, retry: bool) {
        let live = self.live_ids();
        if live.is_empty() {
            // Whole fleet down: the workload node answers passthrough.
            let ingress = self.reqs[req].node as u32;
            self.reqs[req].ingress = ingress;
            if !retry {
                self.nodes[ingress as usize].core.arrived();
            }
            self.stats.local_fallbacks += 1;
            if self.nodes[ingress as usize].crashed {
                // Even the passthrough path died: the retry degrades to
                // an immediate client-side passthrough answer.
                let text = self.reqs[req].prompt.clone();
                self.finish(req, text, now, ingress);
            } else {
                self.serve_local(ingress, req, false, now);
            }
            return;
        }
        let mut ingress = self.reqs[req].node as u32;
        if !self.nodes[ingress as usize].live {
            // Dead ingress: its clients reconnect straight to the primary
            // (ground-truth — a reconnect is a real handshake, not a
            // gossip belief).
            ingress = hrw::candidates(&self.reqs[req].prompt, &live, self.cfg.replication)[0];
            self.stats.redirects += 1;
        }
        // Routing consults the ingress node's *local* membership view;
        // with gossip on it may lag ground truth, and the hedge/rescue
        // chain absorbs any forward sent to a node that is already gone.
        let view = self.routing_live(ingress, now);
        let candidates = hrw::candidates(&self.reqs[req].prompt, &view, self.cfg.replication);
        self.reqs[req].ingress = ingress;
        self.reqs[req].candidates = candidates.clone();
        if !retry {
            self.nodes[ingress as usize].core.arrived();
        }

        if candidates.contains(&ingress) {
            self.serve_local(ingress, req, true, now);
        } else if let Some(pos) =
            candidates.iter().position(|&c| !self.net.partitioned(now, ingress, c))
        {
            let target = candidates[pos];
            self.reqs[req].primary = Some(target);
            self.stats.forwards += 1;
            self.send(now, ingress, target, Msg::Forward { req });
            self.events.push(now + self.cfg.hedge_ms, Ev::Hedge { req, next: pos + 1 });
        } else {
            // Every candidate unreachable: full-partition degradation.
            self.stats.local_fallbacks += 1;
            self.serve_local(ingress, req, false, now);
        }
    }

    /// Runs `req` through node `n`'s local serving path: cache lookup,
    /// admission control, queue, batch timers.
    fn serve_local(&mut self, n: u32, req: usize, cacheable: bool, now: u64) {
        let cfg = &self.cfg.gateway;
        let core = &mut self.nodes[n as usize].core;
        if let Some(response) = core.lookup(&self.reqs[req].prompt) {
            self.events.push(
                now + cfg.cache_hit_cost_ms,
                Ev::CacheServe { node: n, members: vec![(req, response)] },
            );
            return;
        }
        let admission = core.admit(req, cacheable);
        if let Some(away) = admission.turned_away {
            let text = self.reqs[away].prompt.clone();
            self.complete_at(n, away, text, now);
        }
        if admission.dispatch {
            self.dispatch_node(n, now);
        } else if admission.queued {
            self.events.push(now + cfg.batch_linger_ms, Ev::Linger { node: n, req });
        }
    }

    fn dispatch_node(&mut self, n: u32, now: u64) {
        let reqs = &self.reqs;
        self.nodes[n as usize].core.dispatch(
            now,
            |i| reqs[i].prompt.as_str(),
            &mut self.events,
            |members| Ev::CacheServe { node: n, members },
            |batch| Ev::BatchDone { node: n, batch },
        );
    }

    /// Node `n`'s batch completes: a crashed node abandons it and its
    /// local clients retry. A live node installs the answers it owns,
    /// answers every member, then fans its fresh installs out to the
    /// other candidates, so hedged reads at replicas hit warm caches.
    fn batch_done(&mut self, n: u32, batch: Batch, now: u64) {
        let node = &mut self.nodes[n as usize];
        if node.crashed {
            for req in node.core.abandon(batch) {
                self.orphaned(n, req, now);
            }
            return;
        }
        // Only a node still in the fleet installs what it served.
        let reqs = &self.reqs;
        let (responses, installed) =
            node.core.complete(batch, node.live, |i| reqs[i].prompt.as_str());
        let fanout: Vec<(usize, String)> = if self.cfg.repl_fanout {
            installed.iter().map(|&k| responses[k].clone()).collect()
        } else {
            Vec::new()
        };
        for (req, text) in responses {
            self.complete_at(n, req, text, now);
        }
        for (req, response) in fanout {
            self.fanout(n, req, &response, now);
        }
    }

    /// Pushes a just-installed entry to every other candidate replica
    /// (per this node's own view) over the replication lane.
    fn fanout(&mut self, n: u32, req: usize, response: &str, now: u64) {
        let prompt = self.reqs[req].prompt.clone();
        let view = self.routing_live(n, now);
        let targets: Vec<u32> = hrw::candidates(&prompt, &view, self.cfg.replication)
            .into_iter()
            .filter(|&c| c != n)
            .collect();
        for dst in targets {
            self.stats.repl_sent += 1;
            self.send(
                now,
                n,
                dst,
                Msg::Replicate {
                    prompt: prompt.clone(),
                    response: response.to_string(),
                    version: 1,
                },
            );
        }
    }

    /// Node `n` finished serving `req`: answer locally or send the
    /// response back to the ingress over the network.
    fn complete_at(&mut self, n: u32, req: usize, text: String, now: u64) {
        if self.reqs[req].done {
            return; // a faster path (hedge winner, rescue) got there first
        }
        let ingress = self.reqs[req].ingress;
        if n == ingress {
            self.finish(req, text, now, n);
        } else {
            self.send(now, n, ingress, Msg::Response { req, text, server: n });
        }
    }

    /// Delivers the final answer at the ingress: response slot, completion
    /// and latency accounting, hedge-win attribution.
    fn finish(&mut self, req: usize, text: String, now: u64, server: u32) {
        let (node, slot, ingress, arrival, primary) = {
            let r = &self.reqs[req];
            (r.node, r.slot, r.ingress, r.arrival_ms, r.primary)
        };
        self.reqs[req].done = true;
        self.responses[node][slot] = Some(text);
        self.nodes[ingress as usize].core.answered(now - arrival);
        if primary.is_some_and(|p| server != p && server != ingress) {
            self.stats.hedges_won += 1;
        }
    }

    /// Commits a message to the network at `at` (≥ now for paced
    /// transfers): refused on a partitioned link, otherwise delivered per
    /// the seeded schedule of its lane (possibly dropped or duplicated,
    /// each copy with its own latency).
    fn send(&mut self, at: u64, src: u32, dst: u32, msg: Msg) {
        if self.net.partitioned(at, src, dst) {
            self.stats.net_cut += 1;
            return;
        }
        let lane = msg.lane();
        let seq = self.msg_seq[lane.index()];
        self.msg_seq[lane.index()] += 1;
        let copies = self.net.deliveries(lane, src, dst, seq);
        match copies.len() {
            0 => self.stats.net_drops += 1,
            1 => {}
            _ => self.stats.net_duplicates += 1,
        }
        for latency in copies {
            self.events.push(at + latency, Ev::Deliver { dst, msg: msg.clone() });
        }
    }

    fn deliver(&mut self, dst: u32, msg: Msg, now: u64) {
        match msg {
            Msg::Forward { req } => {
                // Late or duplicated copies for settled requests — and
                // anything addressed to a departed node — evaporate; the
                // ingress hedge/rescue chain covers the loss.
                if self.reqs[req].done || !self.nodes[dst as usize].live {
                    return;
                }
                self.serve_local(dst, req, true, now);
            }
            Msg::Response { req, text, server } => {
                if self.reqs[req].done {
                    return;
                }
                self.finish(req, text, now, server);
            }
            Msg::Replicate { prompt, response, version } => {
                if !self.nodes[dst as usize].live {
                    return;
                }
                // Only candidates (per the receiver's own view) hold
                // replicas; anything else evaporates.
                let view = self.routing_live(dst, now);
                if !hrw::candidates(&prompt, &view, self.cfg.replication).contains(&dst) {
                    return;
                }
                if self.nodes[dst as usize]
                    .core
                    .cache_mut()
                    .insert_versioned(&prompt, &response, version)
                {
                    self.stats.repl_applied += 1;
                } else {
                    // Same or newer version already present — duplicated
                    // replication messages are idempotent by design.
                    self.stats.repl_stale += 1;
                }
            }
            Msg::Transfer { prompt, response, version } => {
                if !self.nodes[dst as usize].live {
                    return;
                }
                // Counted at delivery: a transfer the network ate is not
                // "moved" (anti-entropy repairs it later). Already-warm
                // replicas still count — the entry reached its new
                // primary, which is what the counter promises.
                self.stats.rebalance_moved += 1;
                let _ = self.nodes[dst as usize]
                    .core
                    .cache_mut()
                    .insert_versioned(&prompt, &response, version);
            }
            Msg::Digest { from, entries } => {
                if !self.nodes[dst as usize].live {
                    return;
                }
                self.ae_respond(dst, from, &entries, now);
            }
            Msg::Repair { prompt, response, version } => {
                if !self.nodes[dst as usize].live {
                    return;
                }
                let view = self.routing_live(dst, now);
                if !hrw::candidates(&prompt, &view, self.cfg.replication).contains(&dst) {
                    return;
                }
                if self.nodes[dst as usize]
                    .core
                    .cache_mut()
                    .insert_versioned(&prompt, &response, version)
                {
                    self.stats.ae_repairs += 1;
                    self.stats.ae_last_repair_ms = self.stats.ae_last_repair_ms.max(now);
                }
            }
            Msg::Heartbeat { heard, departed } => {
                if !self.nodes[dst as usize].live {
                    return;
                }
                self.nodes[dst as usize].view.merge(&heard, &departed);
            }
            Msg::Departure { from, at } => {
                if !self.nodes[dst as usize].live {
                    return;
                }
                self.nodes[dst as usize].view.note_departure(from, at);
            }
        }
    }

    fn hedge(&mut self, req: usize, next: usize, now: u64) {
        if self.reqs[req].done {
            return;
        }
        let ingress = self.reqs[req].ingress;
        let candidates = self.reqs[req].candidates.clone();
        let found = candidates
            .iter()
            .enumerate()
            .skip(next)
            .find(|&(_, &c)| self.nodes[c as usize].live && !self.net.partitioned(now, ingress, c))
            .map(|(pos, &c)| (pos, c));
        match found {
            Some((pos, c)) => {
                self.stats.hedges_fired += 1;
                self.send(now, ingress, c, Msg::Forward { req });
                self.events.push(now + self.cfg.hedge_ms, Ev::Hedge { req, next: pos + 1 });
            }
            // Chain exhausted: the rescue timer guarantees completion.
            None => self.events.push(now + self.cfg.rescue_ms, Ev::Rescue { req }),
        }
    }

    fn rescue(&mut self, req: usize, now: u64) {
        if self.reqs[req].done {
            return;
        }
        self.stats.rescues += 1;
        let ingress = self.reqs[req].ingress;
        let cacheable = self.reqs[req].candidates.contains(&ingress);
        self.serve_local(ingress, req, cacheable, now);
    }

    fn membership(&mut self, k: usize, now: u64) {
        let (_, change) = self.cfg.script[k];
        match change {
            Membership::Join(n) => {
                if self.nodes[n as usize].live {
                    return;
                }
                let old_live = self.live_ids();
                self.nodes[n as usize].live = true;
                self.nodes[n as usize].crashed = false;
                let new_live = self.live_ids();
                if self.tuning.is_some() {
                    // The joiner bootstraps from the current roster (its
                    // operator-supplied contact list) and announces
                    // itself to every member immediately, so routing
                    // starts sending it traffic without waiting a round.
                    self.nodes[n as usize].view.bootstrap(&new_live, now);
                    let (heard, departed) = self.nodes[n as usize].view.payload();
                    for &p in new_live.iter().filter(|&&p| p != n) {
                        self.stats.gossip_heartbeats += 1;
                        self.send(
                            now,
                            n,
                            p,
                            Msg::Heartbeat { heard: heard.clone(), departed: departed.clone() },
                        );
                    }
                }
                self.rebalance(&old_live, &new_live, now);
            }
            Membership::Leave(n) => {
                if !self.nodes[n as usize].live {
                    return;
                }
                // Graceful decommission: flush queued work (its batches
                // complete in flight; responses still travel), then hand
                // primaries off and depart.
                while self.nodes[n as usize].core.queued() > 0 {
                    self.dispatch_node(n, now);
                }
                if self.tuning.is_some() {
                    // Announce the departure; peers that miss it (drops,
                    // partitions) time the leaver out instead.
                    self.nodes[n as usize].view.note_departure(n, now);
                    let peers: Vec<u32> = self.live_ids().into_iter().filter(|&p| p != n).collect();
                    for p in peers {
                        self.send(now, n, p, Msg::Departure { from: n, at: now });
                    }
                }
                let old_live = self.live_ids();
                self.nodes[n as usize].live = false;
                let new_live = self.live_ids();
                self.rebalance(&old_live, &new_live, now);
            }
            Membership::Crash(n) => {
                if !self.nodes[n as usize].live {
                    return;
                }
                self.nodes[n as usize].live = false;
                self.nodes[n as usize].crashed = true;
                self.stats.crashes += 1;
                // No drain, no hand-off, no announcement. Queued work
                // dies with the node; its clients retry against the
                // surviving fleet (in-flight batch/cache events are
                // similarly retried when they fire at the corpse).
                for req in self.nodes[n as usize].core.drain_queue() {
                    if !self.reqs[req].done {
                        self.retry_after_crash(req, now);
                    }
                }
            }
        }
    }

    /// Moves every key whose *primary* changed between the memberships to
    /// its new primary — HRW guarantees that is the minimal set. Donors
    /// keep their (now stale) copies; LRU ages them out.
    ///
    /// The move is *in-band*: each entry becomes one [`Msg::Transfer`] on
    /// the transfer lane, paced [`ClusterConfig::transfer_pace_ms`] apart
    /// per link — a big hand-off occupies simulated time, races arriving
    /// traffic, and can lose members to drops or a mid-move partition
    /// (anti-entropy repairs the survivors' gaps afterwards).
    fn rebalance(&mut self, old_live: &[u32], new_live: &[u32], now: u64) {
        self.stats.rebalances += 1;
        if new_live.is_empty() {
            return;
        }
        // Deterministic move set: donors in id order, entries in LRU
        // order, grouped per (src, dst) link.
        type MoveSet = BTreeMap<(u32, u32), Vec<(String, String, u64)>>;
        let mut moves: MoveSet = BTreeMap::new();
        for &s in old_live {
            for (prompt, response, version) in
                self.nodes[s as usize].core.cache().live_entries_versioned()
            {
                if hrw::owner(prompt, old_live) != Some(s) {
                    continue;
                }
                let new_primary = hrw::owner(prompt, new_live).expect("non-empty membership");
                if new_primary != s {
                    moves.entry((s, new_primary)).or_default().push((
                        prompt.to_string(),
                        response.to_string(),
                        version,
                    ));
                }
            }
        }
        for ((src, dst), entries) in moves {
            for (i, (prompt, response, version)) in entries.into_iter().enumerate() {
                let at = now + self.cfg.transfer_pace_ms * i as u64;
                self.stats.transfers_sent += 1;
                self.send(at, src, dst, Msg::Transfer { prompt, response, version });
            }
        }
    }

    /// One anti-entropy sweep at `n`: pick the next peer in the
    /// round-robin rotation (full pair coverage every `peers` rounds, so
    /// convergence needs no luck) and send it this cache's digest.
    fn ae_sweep(&mut self, n: u32, now: u64) {
        // Re-arm first, even while down — a rejoining node resumes
        // sweeping on its own schedule.
        let next = now + self.cfg.ae_interval_ms;
        if next <= self.horizon {
            self.events.push(next, Ev::AeSweep { node: n });
        }
        if !self.nodes[n as usize].live {
            return;
        }
        let peers: Vec<u32> = self.routing_live(n, now).into_iter().filter(|&p| p != n).collect();
        if peers.is_empty() {
            return;
        }
        let round = self.nodes[n as usize].ae_round;
        self.nodes[n as usize].ae_round += 1;
        let peer = peers[(round % peers.len() as u64) as usize];
        let entries = self.nodes[n as usize].core.cache().digest();
        self.stats.ae_digests += 1;
        self.send(now, n, peer, Msg::Digest { from: n, entries });
    }

    /// Node `b` received `a`'s digest: push back every entry `b` holds
    /// that `a` is missing or holds stale, provided both sides are
    /// candidates for it per `b`'s view (anti-entropy replicates
    /// assignments, it does not spray the whole keyspace everywhere).
    fn ae_respond(&mut self, b: u32, a: u32, digest: &[(u64, u64)], now: u64) {
        let view = self.routing_live(b, now);
        let mut repairs: Vec<(String, String, u64)> = Vec::new();
        for (prompt, response, version) in
            self.nodes[b as usize].core.cache().live_entries_versioned()
        {
            let h = entry_hash(prompt);
            let theirs = digest.binary_search_by_key(&h, |e| e.0).ok().map(|i| digest[i].1);
            if theirs.is_some_and(|v| v >= version) {
                continue;
            }
            let cands = hrw::candidates(prompt, &view, self.cfg.replication);
            if cands.contains(&a) && cands.contains(&b) {
                repairs.push((prompt.to_string(), response.to_string(), version));
            }
        }
        for (prompt, response, version) in repairs {
            self.send(now, b, a, Msg::Repair { prompt, response, version });
        }
    }

    /// One gossip round at `n`: stamp self, re-derive peer statuses
    /// (counting detector transitions and false deaths), and push the
    /// whole view to a seeded pick of fanout peers.
    fn gossip_round(&mut self, n: u32, round: u64, now: u64) {
        let next = now + self.cfg.gossip_interval_ms;
        if next <= self.horizon {
            self.events.push(next, Ev::GossipRound { node: n, round: round + 1 });
        }
        if !self.nodes[n as usize].live {
            return;
        }
        let Some(t) = self.tuning else { return };
        self.nodes[n as usize].view.mark_self(now);
        let transitions = self.nodes[n as usize].view.refresh(now, &t);
        for (peer, _, status) in transitions {
            match status {
                NodeStatus::Suspect => self.stats.gossip_suspects += 1,
                NodeStatus::Dead => {
                    self.stats.gossip_deaths += 1;
                    if self.nodes[peer as usize].live && !self.net.partitioned(now, n, peer) {
                        self.stats.gossip_false_deaths += 1;
                    }
                }
                NodeStatus::Alive => {}
            }
        }
        let targets = self.nodes[n as usize].view.gossip_targets(now, &t, self.cfg.net_seed, round);
        let (heard, departed) = self.nodes[n as usize].view.payload();
        for dst in targets {
            self.stats.gossip_heartbeats += 1;
            self.send(
                now,
                n,
                dst,
                Msg::Heartbeat { heard: heard.clone(), departed: departed.clone() },
            );
        }
    }
}
