//! The four workloads: their traffic, the serving system each one runs,
//! and the output checks.
//!
//! Every workload serves the quick-scale `Pas` through
//! `GatewayConfig::default()` (2 replicas) and builds a fresh gateway or
//! cluster for each iteration. Arrivals are open-loop in simulated time
//! (exponential, mean 4 ms), so simulated latency counts from each
//! request's due time; in wall time one caller replays the whole stream as
//! fast as it can. The workloads differ in which layers they load:
//!
//! - `hot_zipf` — the cache read path (exact map, embedding memo, HNSW
//!   near probe); `M_p` is a small share of its time.
//! - `tail_miss` — the miss path (`M_p`, queueing, micro-batching,
//!   `par_map`, exact-tier insert/evict); embedder and ANN never run.
//! - `churn_store` — the cache write path with a write-through segment
//!   log: every install embeds, inserts into HNSW and appends to the log.
//! - `fleet_chaos` — the only workload that runs routing, hedging,
//!   replication and gossip, through a partition and a crash.

use std::collections::{HashMap, HashSet};
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use pas_cluster::{fleet_workloads, Cluster, ClusterConfig, ClusterReport, Membership};
use pas_core::{BuildOptions, Pas, PasSystem, PromptOptimizer, SystemConfig};
use pas_data::{CorpusConfig, SelectionConfig};
use pas_fault::NetFaultProfile;
use pas_gateway::{
    cache_embedder, generate, Gateway, GatewayCache, GatewayConfig, GatewayReport, OpenMode,
    Request, SemanticCache, SemanticCacheConfig, WorkloadConfig,
};

/// The generator seed used when none is given.
pub const DEFAULT_SEED: u64 = 0x90a7;

/// Request streams a run cycles through. A workload's cost per request
/// depends on its stream: on `hot_zipf`, whether a popular prompt's
/// variant first arrives before or after the prompt decides whether it is
/// served from the exact tier or probes the near tier on every later
/// arrival, and one stream's cost per request spread 20% across eight
/// seeds. A run averages over many streams so that its numbers do not
/// depend on which seed it was given.
pub const STREAMS: usize = 48;

/// One benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    HotZipf,
    TailMiss,
    ChurnStore,
    FleetChaos,
}

impl Workload {
    /// Every workload, in the order a full run takes them.
    pub const ALL: [Workload; 4] =
        [Workload::HotZipf, Workload::TailMiss, Workload::ChurnStore, Workload::FleetChaos];

    pub fn name(self) -> &'static str {
        match self {
            Workload::HotZipf => "hot_zipf",
            Workload::TailMiss => "tail_miss",
            Workload::ChurnStore => "churn_store",
            Workload::FleetChaos => "fleet_chaos",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Traffic for one node (for `fleet_chaos`, the fleet base config
    /// each node derives its own stream from).
    fn traffic(self, seed: u64) -> WorkloadConfig {
        let (requests, universe, zipf_s, near_dup_rate) = match self {
            Workload::HotZipf => (20_000, 120, 1.1, 0.2),
            Workload::TailMiss => (4_000, 20_000, 0.6, 0.1),
            Workload::ChurnStore => (600, 20_000, 0.6, 0.1),
            Workload::FleetChaos => (2_500, 120, 1.1, 0.15),
        };
        WorkloadConfig {
            requests,
            universe,
            zipf_s,
            near_dup_rate,
            mean_interarrival_ms: 4.0,
            seed,
        }
    }

    /// The semantic-cache configuration of every gateway (or node) the
    /// workload builds.
    pub fn cache(self) -> SemanticCacheConfig {
        let (capacity, tau) = match self {
            Workload::HotZipf => (512, 0.15),
            // τ = 0: exact tier only, so neither embedder nor ANN runs.
            Workload::TailMiss => (512, 0.0),
            // The near tier exists (every install embeds and indexes) but
            // rarely hits, so the write path dominates.
            Workload::ChurnStore => (128, 0.02),
            Workload::FleetChaos => (2048, 0.15),
        };
        SemanticCacheConfig { capacity, tau, ..SemanticCacheConfig::default() }
    }

    fn gateway(self) -> GatewayConfig {
        GatewayConfig { replicas: 2, cache: self.cache(), ..GatewayConfig::default() }
    }

    fn cluster(self) -> ClusterConfig {
        ClusterConfig {
            nodes: 4,
            replication: 2,
            gateway: self.gateway(),
            net: NetFaultProfile::lossy().with_partition(400, 1200, vec![3]),
            script: vec![(800, Membership::Crash(1)), (1600, Membership::Join(1))],
            repl_fanout: true,
            ae_interval_ms: 40,
            gossip_interval_ms: 30,
            gossip_dead_rounds: 24,
            quiet_ms: 1200,
            ..ClusterConfig::default()
        }
    }

    /// The inputs of stream `k` of a run seeded `seed`: one request
    /// stream per node for `fleet_chaos`, a single stream otherwise. Stream
    /// 0 uses `seed` itself, stream `k` the seed derived from `(seed, k)`.
    pub fn stream(self, seed: u64, k: usize) -> Vec<Vec<Request>> {
        let seed = if k == 0 { seed } else { pas_par::derive_seed(seed, k as u64) };
        match self {
            Workload::FleetChaos => fleet_workloads(&self.traffic(seed), self.cluster().nodes),
            _ => vec![generate(&self.traffic(seed))],
        }
    }

    /// Whether each run's cache writes through to a segment log.
    pub fn persistent(self) -> bool {
        self == Workload::ChurnStore
    }

    /// Serves `inputs` once through a freshly built gateway or cluster.
    /// Only building the system and running it is timed. A persistent
    /// workload opens its cache in `store`, an empty directory.
    pub fn serve<O: PromptOptimizer + Clone>(
        self,
        optimizer: &O,
        inputs: &[Vec<Request>],
        store: Option<TempDir>,
    ) -> Result<Served<O>, String> {
        let replicas = || vec![optimizer.clone(), optimizer.clone()];
        let start = Instant::now();
        let (responses, report, system) = match (self, &store) {
            (Workload::FleetChaos, _) => {
                let mut cluster = Cluster::new(self.cluster(), |_, _| optimizer.clone());
                let (responses, report) = cluster.run(inputs);
                (responses, Report::Cluster(Box::new(report)), System::Cluster(Box::new(cluster)))
            }
            (_, Some(dir)) => {
                let cache = SemanticCache::open_from(
                    self.cache(),
                    cache_embedder(&self.cache()),
                    dir.path(),
                    OpenMode::Warm,
                )
                .map_err(|e| format!("opening the cache store in {}: {e}", dir.path().display()))?;
                let mut gateway = Gateway::with_cache(self.gateway(), replicas(), cache);
                let (responses, report) = gateway.run(&inputs[0]);
                (vec![responses], Report::Gateway(report), System::Gateway(Box::new(gateway)))
            }
            (_, None) => {
                let mut gateway = Gateway::new(self.gateway(), replicas());
                let (responses, report) = gateway.run(&inputs[0]);
                (vec![responses], Report::Gateway(report), System::Gateway(Box::new(gateway)))
            }
        };
        let wall = start.elapsed();
        if let System::Gateway(g) = &system {
            if let Some(e) = g.cache().store_error() {
                return Err(format!("the cache store froze during the run: {e}"));
            }
        }
        Ok(Served { wall, responses, report, system, store })
    }
}

/// A scratch directory, removed with everything in it when dropped.
pub struct TempDir(PathBuf);

impl TempDir {
    /// Creates `path` (and its parents).
    pub fn create(path: PathBuf) -> std::io::Result<TempDir> {
        std::fs::create_dir_all(&path)?;
        Ok(TempDir(path))
    }

    pub fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// The quick-scale system configuration (corpus 350, seed 11, 500 labeled).
pub fn system_config() -> SystemConfig {
    SystemConfig {
        corpus: CorpusConfig { size: 350, seed: 11, ..CorpusConfig::default() },
        selection: SelectionConfig { labeled_size: 500, ..SelectionConfig::default() },
        ..SystemConfig::default()
    }
}

/// Builds the quick-scale `Pas` through the full pipeline.
pub fn build_pas() -> Result<Pas, String> {
    PasSystem::try_build(&system_config(), &BuildOptions::default())
        .map(|system| system.pas)
        .map_err(|e| format!("building PAS: {e}"))
}

/// What one serving run reports.
pub enum Report {
    Gateway(GatewayReport),
    Cluster(Box<ClusterReport>),
}

impl Report {
    /// The gateway-level report (the fleet-wide fold for a cluster).
    pub fn gateway(&self) -> &GatewayReport {
        match self {
            Report::Gateway(r) => r,
            Report::Cluster(r) => &r.fleet,
        }
    }

    /// Requests that were not served a complement: shed, rejected and
    /// degraded passthroughs, plus requests a cluster never answered.
    pub fn failed(&self) -> u64 {
        let lost = match self {
            Report::Gateway(_) => 0,
            Report::Cluster(r) => r.errors(),
        };
        self.gateway().passthroughs() + lost
    }
}

/// The system a run built, kept past the timed region so dropping it is
/// not timed and its cache can be checkpointed.
pub enum System<O: PromptOptimizer> {
    Gateway(Box<Gateway<O>>),
    Cluster(Box<Cluster<O>>),
}

impl<O: PromptOptimizer> System<O> {
    /// The cache a restart would reopen: the gateway's own, or node 0's
    /// live entries for a cluster.
    pub fn into_cache(self, config: &SemanticCacheConfig) -> GatewayCache {
        match self {
            System::Gateway(g) => g.into_cache(),
            System::Cluster(c) => {
                let mut cache = SemanticCache::new(config.clone(), cache_embedder(config));
                for (prompt, response, version) in c.cache_entries(0) {
                    cache.insert_versioned(&prompt, &response, version);
                }
                cache
            }
        }
    }
}

/// One serving run.
pub struct Served<O: PromptOptimizer> {
    /// Wall time to build the system and run the whole stream.
    pub wall: Duration,
    /// Responses, one stream per input stream.
    pub responses: Vec<Vec<String>>,
    pub report: Report,
    pub system: System<O>,
    /// The store directory of a persistent workload; declared last so it
    /// is removed after the system holding it open is dropped.
    pub store: Option<TempDir>,
}

/// FNV-1a over every response in order, each followed by a `0xff`
/// separator (a byte UTF-8 text never contains).
pub fn digest(responses: &[Vec<String>]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for r in responses.iter().flatten() {
        for b in r.bytes().chain([0xff]) {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

/// `M_p`'s answer for every distinct prompt of the workload.
pub fn answers(pas: &Pas, inputs: &[Vec<Request>]) -> HashMap<String, String> {
    let mut out = HashMap::new();
    for r in inputs.iter().flatten() {
        if !out.contains_key(&r.prompt) {
            out.insert(r.prompt.clone(), pas.optimize(&r.prompt));
        }
    }
    out
}

/// Checks one run's outputs: one response per request, none lost by a
/// cluster, and every response either `M_p`'s answer for its own prompt
/// or the bare prompt (a passthrough, which the report counts as failed).
/// Where the near tier is on, a response may also be `M_p`'s answer for
/// another workload prompt: a near hit serves its neighbour's cached
/// response whole.
pub fn check_run<O: PromptOptimizer>(
    w: Workload,
    inputs: &[Vec<Request>],
    answers: &HashMap<String, String>,
    served: &Served<O>,
) -> Result<(), String> {
    if served.responses.len() != inputs.len() {
        return Err(format!(
            "{} response streams for {} inputs",
            served.responses.len(),
            inputs.len()
        ));
    }
    let near_answers: HashSet<&str> = if w.cache().tau > 0.0 {
        answers.values().map(String::as_str).collect()
    } else {
        HashSet::new()
    };
    for (node, (requests, responses)) in inputs.iter().zip(&served.responses).enumerate() {
        if requests.len() != responses.len() {
            return Err(format!(
                "node {node}: {} responses for {} requests",
                responses.len(),
                requests.len()
            ));
        }
        for (r, resp) in requests.iter().zip(responses) {
            let own = answers.get(r.prompt.as_str()).is_some_and(|a| a == resp);
            if !own && *resp != r.prompt && !near_answers.contains(resp.as_str()) {
                return Err(format!("request {} of node {node} was served {resp:?}", r.id));
            }
        }
    }
    if let Report::Cluster(r) = &served.report {
        if r.errors() != 0 {
            return Err(format!("the cluster left {} requests unanswered", r.errors()));
        }
    }
    Ok(())
}
