//! The semantic complement cache: exact-match LRU in front of an ANN
//! near-duplicate tier.
//!
//! Prompt traffic is dominated by repeats and near-repeats (Zhang & Khan
//! document heavy near-duplicate mass in real prompt datasets), so the
//! cheapest way to serve `p → cat(p, p_c)` at scale is to not recompute
//! `p_c` at all:
//!
//! 1. **Exact tier** — a hash map from the prompt string to its cached
//!    complement. Free of caveats: an exact hit returns bit-identically
//!    what the optimizer would have produced.
//! 2. **Near tier** — the prompt is embedded (`pas-embed`) and probed
//!    against a cosine [`Hnsw`] (`pas-ann`) over the cached prompts; a
//!    neighbour within distance `τ` serves *its* cached response. This is a
//!    deliberate behaviour change gated behind `τ` — at the default
//!    `τ = 0` the tier is off and the cache is exact-only.
//!
//! Both tiers share one LRU capacity bound. Evicted entries are unlinked
//! from the HNSW graph incrementally ([`Hnsw::remove`] re-links the
//! victim's neighborhood in place), so probe cost tracks the live set
//! without rebuild pauses. A full rebuild survives as a rare fallback that
//! reclaims the dead entries' string storage once they heavily outnumber
//! the live set. The near tier can additionally run its graph traversal on
//! int8-quantized codes ([`SemanticCacheConfig::quantized`]) — the exact
//! f32 re-rank inside `pas-ann` keeps the served neighbors bit-identical.
//!
//! A near-tier probe is a pure function of the prompt and the index, and
//! the index changes only when an entry is installed, evicted or
//! renumbered. So the cache memoizes each probe's *outcome* — which entry
//! serves the prompt and at what distance, or none — keyed by the prompt,
//! and clears the memo at every such change and whenever it holds
//! `capacity` prompts. A repeat near hit then skips the embedding and the
//! HNSW search but still touches the entry, counts a near hit and serves
//! the entry's current response. The memo is derived state: it is never
//! logged, checkpointed, replicated or counted against capacity.
//!
//! The cache is a plain `&mut self` structure: the gateway's event loop is
//! serial (that is what makes runs bit-reproducible), so no interior
//! locking is needed.
//!
//! **Persistence** (optional): [`SemanticCache::open_from`] backs the cache
//! with a `pas-store` segment log in a directory and write-through-logs
//! every state change — entry insertions (meta + raw-embedding vector
//! records), recency touches, and evictions (tombstones) — so a reopened
//! cache reconstructs the live one *bit-identically*: same LRU order, same
//! HNSW graph, same future probes. [`SemanticCache::persist_to`] adds a
//! checkpoint so the next open skips replay (warm restart). Every append
//! is flushed before the serving path continues, which is what makes a
//! kill-without-checkpoint recoverable: a cold reopen replays the full log
//! and lands exactly where the killed process was.

use std::collections::HashMap;
use std::io;
use std::path::Path;

use pas_ann::{CosineDistance, Hnsw, HnswConfig};
use pas_embed::Embedder;
use pas_fault::DiskFaults;
use pas_store::{
    read_snapshot, wire, write_snapshot, Record, RecordMeta, SegmentLog, SnapshotData, StoreConfig,
};

/// Configuration for [`SemanticCache`].
#[derive(Debug, Clone)]
pub struct SemanticCacheConfig {
    /// Maximum live entries (LRU-evicted beyond this). `0` disables the
    /// cache entirely: every lookup misses and nothing is stored.
    pub capacity: usize,
    /// Near-duplicate distance threshold in cosine-distance space
    /// (`1 − cos`). `0.0` (the default) disables the near tier: only exact
    /// string matches hit.
    pub tau: f32,
    /// Beam width for near-tier probes.
    pub ef: usize,
    /// Construction parameters for the ANN index over cached prompts.
    pub hnsw: HnswConfig,
    /// Run near-tier graph traversal on int8-quantized codes with exact
    /// f32 re-rank (identical results, ~4x smaller probe working set).
    pub quantized: bool,
    /// Run near-tier graph traversal on product-quantized codes (~dim/8
    /// bytes per cached prompt, ~32x below f32) with exact f32 re-rank.
    /// Wins over `quantized` when both are set; the codebook trains lazily
    /// once enough prompts are cached (probes stay f32 before that).
    pub pq: bool,
}

impl Default for SemanticCacheConfig {
    fn default() -> Self {
        SemanticCacheConfig {
            capacity: 4096,
            tau: 0.0,
            ef: 32,
            hnsw: HnswConfig { m: 8, ef_construction: 48, seed: 0x9a7e }, // small serving index
            quantized: false,
            pq: false,
        }
    }
}

/// How [`SemanticCache::open_from`] rebuilds state from a store directory.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OpenMode {
    /// Restore from the checkpoint snapshot when one matches the log head,
    /// then replay only the log suffix. Falls back to a full replay when
    /// the checkpoint is missing, torn, stale, or fails any restore check.
    Warm,
    /// Ignore any checkpoint and replay the whole log, re-inserting the
    /// *logged* raw embeddings (no re-embedding).
    Replay,
    /// Replay the whole log but re-embed every prompt instead of using the
    /// logged vectors — the pre-`pas-store` restart cost, kept as the
    /// benchmark baseline. Bit-identical to `Replay` (embedding is
    /// deterministic), just slow.
    Reembed,
}

/// Record-category tag for committed cache entries.
const META_ENTRY: &str = "cache";
/// Record-category tag for recency touches (stamp-only meta records).
const META_TOUCH: &str = "touch";
/// Record-category tag for in-place version upgrades of a live entry.
const META_UPDATE: &str = "update";
/// Meta field key holding the prompt text.
const FIELD_PROMPT: &str = "p";
/// Meta field key holding the cached response.
const FIELD_RESPONSE: &str = "r";
/// Meta field key holding the entry version.
const FIELD_VERSION: &str = "v";
/// Magic prefix of the checkpoint payload (v2 added per-entry versions).
const SNAP_PAYLOAD_MAGIC: &[u8] = b"PASCSNP2";

/// FNV-1a over the prompt bytes — the key coordinate of
/// [`SemanticCache::digest`]. Stable across processes and architectures,
/// so two replicas hash the same prompt to the same digest slot.
pub fn entry_hash(key: &str) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in key.bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// FNV-1a over the fields that determine how a replayed log drives the
/// cache: the index geometry and probe tier, plus whether the near tier
/// exists at all. Two configs with the same fingerprint replay a log to
/// the same state; anything else is a hard error at open.
fn config_fingerprint(config: &SemanticCacheConfig) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for x in [
        u64::from_le_bytes(*b"PASCACHE"),
        (config.tau > 0.0) as u64,
        config.quantized as u64,
        config.pq as u64,
        config.hnsw.m as u64,
        config.hnsw.ef_construction as u64,
        config.hnsw.seed,
    ] {
        h ^= x;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

fn entry_meta(prompt: &str, response: &str, stamp: u64, version: u64) -> RecordMeta {
    RecordMeta {
        category: META_ENTRY.to_string(),
        degraded: false,
        stamp,
        fields: vec![
            (FIELD_PROMPT.to_string(), prompt.to_string()),
            (FIELD_RESPONSE.to_string(), response.to_string()),
            (FIELD_VERSION.to_string(), version.to_string()),
        ],
    }
}

/// The write-through log behind a persistent cache. The first failed write
/// freezes it (`error` goes sticky): the cache keeps serving from memory,
/// nothing further is logged, and the durable state stays a consistent
/// prefix — exactly what a reopen recovers.
struct CacheStore {
    log: SegmentLog,
    error: Option<io::Error>,
}

/// What a cache lookup found.
#[derive(Debug, Clone, PartialEq)]
pub enum CacheOutcome {
    /// The exact prompt was cached; its own complement is returned.
    ExactHit(String),
    /// A near-duplicate neighbour within τ was cached; the *neighbour's*
    /// complement is returned (τ-gated behaviour change, see module docs).
    NearHit {
        /// The neighbour's cached response.
        response: String,
        /// Cosine distance between the query and the neighbour prompt.
        distance: f32,
    },
    /// Nothing usable cached; the request must go to the replica pool.
    Miss,
}

struct Entry {
    prompt: String,
    response: String,
    alive: bool,
    /// Recency stamp; larger = more recently used.
    stamp: u64,
    /// Write version; replicas only ever apply monotone upgrades, which is
    /// what makes duplicated/reordered replication messages idempotent.
    version: u64,
}

/// Exact-match LRU map + tombstoned ANN near-duplicate tier (module docs).
pub struct SemanticCache<E> {
    config: SemanticCacheConfig,
    embedder: E,
    /// prompt → entry id, live entries only.
    exact: HashMap<String, usize>,
    /// All entries ever inserted, id-aligned with the ANN index; dead ones
    /// are tombstones until the next rebuild.
    entries: Vec<Entry>,
    /// stamp → entry id, live entries only (stamps are unique).
    lru: std::collections::BTreeMap<u64, usize>,
    index: Hnsw<CosineDistance>,
    /// prompt → what its last near-tier probe found: the serving entry's
    /// id and distance, or `None`. Valid until the index next changes.
    near_memo: HashMap<String, Option<(usize, f32)>>,
    clock: u64,
    hits: u64,
    near_hits: u64,
    misses: u64,
    evictions: u64,
    /// Write-through segment log; `None` for a purely in-memory cache.
    store: Option<CacheStore>,
}

impl<E: Embedder> SemanticCache<E> {
    /// Creates an empty cache that embeds with `embedder` (only used when
    /// `config.tau > 0`).
    pub fn new(config: SemanticCacheConfig, embedder: E) -> Self {
        let mut index = Hnsw::new(config.hnsw.clone(), CosineDistance);
        if config.pq {
            index.set_product_quantization(true);
        } else if config.quantized {
            index.set_quantization(true);
        }
        SemanticCache {
            config,
            embedder,
            exact: HashMap::new(),
            entries: Vec::new(),
            lru: std::collections::BTreeMap::new(),
            index,
            near_memo: HashMap::new(),
            clock: 0,
            hits: 0,
            near_hits: 0,
            misses: 0,
            evictions: 0,
            store: None,
        }
    }

    /// Opens (or creates) a persistent cache backed by the segment log in
    /// `dir`, rebuilding state per `mode`. The directory must have been
    /// written under the same [`config_fingerprint`]-relevant config
    /// (τ on/off, probe tier, HNSW geometry) — a mismatch is a hard error.
    /// All subsequent state changes are write-through-logged.
    pub fn open_from(
        config: SemanticCacheConfig,
        embedder: E,
        dir: &Path,
        mode: OpenMode,
    ) -> io::Result<Self> {
        Self::open_from_with(config, embedder, dir, mode, None)
    }

    /// [`SemanticCache::open_from`] with an optional disk-fault schedule
    /// threaded into the log, so chaos tests can kill the cache's store at
    /// any append/compact boundary.
    pub fn open_from_with(
        config: SemanticCacheConfig,
        embedder: E,
        dir: &Path,
        mode: OpenMode,
        faults: Option<DiskFaults>,
    ) -> io::Result<Self> {
        let fingerprint = config_fingerprint(&config);
        let store_config = StoreConfig { fingerprint, ..StoreConfig::default() };
        let (log, records) = SegmentLog::open(dir, store_config, faults)?;
        let mut cache = SemanticCache::new(config, embedder);
        let mut start = 0usize;
        if mode == OpenMode::Warm {
            if let Some(snap) = read_snapshot(dir, fingerprint)? {
                // A checkpoint is only usable when it pins a prefix of the
                // *current* generation; anything else (pre-compaction, or
                // ahead of a log that lost a torn tail) replays cold, as
                // does one that fails a restore check: the log alone is
                // the source of truth, so a bad checkpoint costs only time.
                if snap.generation == log.generation()
                    && snap.op_count <= records.len() as u64
                    && cache.restore_snapshot(&snap.payload).is_ok()
                {
                    start = snap.op_count as usize;
                }
            }
        }
        let reembed = mode == OpenMode::Reembed;
        let mut pending: HashMap<u64, RecordMeta> = HashMap::new();
        for record in &records[start..] {
            cache.apply_record(record, reembed, &mut pending)?;
        }
        // A meta left in `pending` is a crash between an insert's meta and
        // vector records: an invisible orphan, dropped by design.
        cache.store = Some(CacheStore { log, error: None });
        Ok(cache)
    }

    /// Writes a checkpoint pinning the full cache state to the current log
    /// position, so the next [`OpenMode::Warm`] open restores it without
    /// replay. On a cache that is not yet persistent, first attaches a
    /// fresh store in `dir` (the directory must not already hold a log);
    /// adoption runs a compaction, so for `τ > 0` the graph is rebuilt
    /// exactly as the fallback compaction would.
    pub fn persist_to(&mut self, dir: &Path) -> io::Result<()> {
        if let Some(store) = &self.store {
            if store.log.dir() != dir {
                return Err(io::Error::new(
                    io::ErrorKind::InvalidInput,
                    format!("pas-gateway: cache already persists to {}", store.log.dir().display()),
                ));
            }
        } else {
            let fingerprint = config_fingerprint(&self.config);
            let store_config = StoreConfig { fingerprint, ..StoreConfig::default() };
            let (log, records) = SegmentLog::open(dir, store_config, None)?;
            if !records.is_empty() {
                return Err(io::Error::new(
                    io::ErrorKind::InvalidInput,
                    "pas-gateway: directory already holds a cache log; reopen it with open_from",
                ));
            }
            self.store = Some(CacheStore { log, error: None });
            self.compact_now();
        }
        let store = self.store.as_ref().expect("store attached above");
        if let Some(e) = &store.error {
            return Err(io::Error::new(
                e.kind(),
                format!("pas-gateway: cache store frozen by earlier write error: {e}"),
            ));
        }
        let data = SnapshotData {
            generation: store.log.generation(),
            op_count: store.log.op_count(),
            payload: self.snapshot_payload(),
        };
        write_snapshot(dir, config_fingerprint(&self.config), &data, store.log.faults())
    }

    /// The directory this cache persists to, if any.
    pub fn store_dir(&self) -> Option<&Path> {
        self.store.as_ref().map(|s| s.log.dir())
    }

    /// The sticky store error, if a write-through append ever failed. The
    /// cache keeps serving from memory past a store error; the durable
    /// state is frozen at the last successful write.
    pub fn store_error(&self) -> Option<&io::Error> {
        self.store.as_ref().and_then(|s| s.error.as_ref())
    }

    /// Appends `record` to the attached log, if any; the first failure
    /// freezes the store (sticky error) instead of surfacing mid-serve.
    fn log_record(&mut self, record: Record) {
        if let Some(store) = &mut self.store {
            if store.error.is_none() {
                if let Err(e) = store.log.append(&record) {
                    store.error = Some(e);
                }
            }
        }
    }

    /// Applies one replayed log record. Mirrors the live mutation paths
    /// (insert / touch / evict) exactly, minus counters and logging.
    fn apply_record(
        &mut self,
        record: &Record,
        reembed: bool,
        pending: &mut HashMap<u64, RecordMeta>,
    ) -> io::Result<()> {
        match record {
            Record::Meta { id, meta } if meta.category == META_TOUCH => {
                let id = *id as usize;
                let Some(e) = self.entries.get_mut(id) else {
                    return Err(wire::corrupt("cache log: touch of unknown id"));
                };
                if e.alive {
                    self.lru.remove(&e.stamp);
                    e.stamp = meta.stamp;
                    self.lru.insert(meta.stamp, id);
                }
                self.clock = self.clock.max(meta.stamp);
            }
            Record::Meta { id, meta } if meta.category == META_UPDATE => {
                let id = *id as usize;
                let Some(e) = self.entries.get_mut(id) else {
                    return Err(wire::corrupt("cache log: update of unknown id"));
                };
                if e.alive {
                    self.lru.remove(&e.stamp);
                    e.stamp = meta.stamp;
                    e.response = meta.field(FIELD_RESPONSE).unwrap_or_default().to_string();
                    e.version = meta.field(FIELD_VERSION).and_then(|v| v.parse().ok()).unwrap_or(1);
                    self.lru.insert(meta.stamp, id);
                }
                self.clock = self.clock.max(meta.stamp);
            }
            Record::Meta { id, meta } => {
                pending.insert(*id, meta.clone());
            }
            Record::Vector { id, vector } => {
                let meta = pending
                    .remove(id)
                    .ok_or_else(|| wire::corrupt("cache log: vector record without meta"))?;
                let id = *id as usize;
                if id != self.entries.len() {
                    return Err(wire::corrupt("cache log: out-of-order entry id"));
                }
                let prompt = meta.field(FIELD_PROMPT).unwrap_or_default().to_string();
                let response = meta.field(FIELD_RESPONSE).unwrap_or_default().to_string();
                let version = meta.field(FIELD_VERSION).and_then(|v| v.parse().ok()).unwrap_or(1);
                if self.config.tau > 0.0 {
                    // The fingerprint does not cover the embedder, so a log
                    // written by one of another width must be refused here,
                    // before the index meets a row it cannot compare.
                    if vector.len() != self.embedder.dim() {
                        return Err(wire::corrupt("cache log: vector width"));
                    }
                    let v = if reembed { self.embedder.embed(&prompt) } else { vector.clone() };
                    let got = self.index.insert(v);
                    debug_assert_eq!(got, id, "replayed ids must align with entries");
                }
                self.clock = self.clock.max(meta.stamp);
                self.exact.insert(prompt.clone(), id);
                self.lru.insert(meta.stamp, id);
                self.entries.push(Entry {
                    prompt,
                    response,
                    alive: true,
                    stamp: meta.stamp,
                    version,
                });
            }
            Record::Tombstone { id } => {
                let id = *id as usize;
                let Some(e) = self.entries.get_mut(id) else {
                    return Err(wire::corrupt("cache log: tombstone for unknown id"));
                };
                if e.alive {
                    e.alive = false;
                    self.lru.remove(&e.stamp);
                    self.exact.remove(&e.prompt);
                    if self.config.tau > 0.0 {
                        self.index.remove(id);
                    }
                }
            }
        }
        Ok(())
    }

    /// Serializes the full cache state: clock, every entry slot (dead ones
    /// as stamp-only placeholders — replay just needs their count), and
    /// the HNSW graph dump when the near tier is on.
    fn snapshot_payload(&self) -> Vec<u8> {
        let mut out = Vec::new();
        out.extend_from_slice(SNAP_PAYLOAD_MAGIC);
        wire::put_u64(&mut out, self.clock);
        wire::put_u64(&mut out, self.entries.len() as u64);
        for e in &self.entries {
            out.push(e.alive as u8);
            wire::put_u64(&mut out, e.stamp);
            wire::put_u64(&mut out, if e.alive { e.version } else { 0 });
            let (p, r) = if e.alive { (e.prompt.as_str(), e.response.as_str()) } else { ("", "") };
            wire::put_str(&mut out, p);
            wire::put_str(&mut out, r);
        }
        if self.config.tau > 0.0 {
            let dump = self.index.dump();
            wire::put_u64(&mut out, dump.len() as u64);
            out.extend_from_slice(&dump);
        } else {
            wire::put_u64(&mut out, 0);
        }
        out
    }

    /// Restores the state serialized by [`SemanticCache::snapshot_payload`],
    /// decoding into locals and committing only a payload that passes every
    /// check a later lookup or insert relies on (an `Err` leaves the cache
    /// as it was):
    /// - live prompts and stamps are unique and no stamp runs ahead of the
    ///   clock, so the exact map and the LRU mirror each other;
    /// - with the near tier on, the graph has one slot per entry, removed
    ///   exactly where the entry is dead, and every live row is
    ///   `embedder.dim()` wide. A graph with no live row cannot show its
    ///   width, so a non-empty checkpoint without one is refused (its log
    ///   holds no live entry and replays quickly); an empty one keeps the
    ///   fresh index.
    fn restore_snapshot(&mut self, payload: &[u8]) -> io::Result<()> {
        let mut r = wire::Reader::new(payload);
        if r.take(SNAP_PAYLOAD_MAGIC.len())? != SNAP_PAYLOAD_MAGIC {
            return Err(wire::corrupt("cache snapshot: bad magic"));
        }
        let clock = r.u64()?;
        let n = r.u64()? as usize;
        if n > payload.len() {
            return Err(wire::corrupt("cache snapshot: entry count exceeds payload"));
        }
        let mut entries = Vec::with_capacity(n);
        let mut exact = HashMap::new();
        let mut lru = std::collections::BTreeMap::new();
        for id in 0..n {
            let alive = r.u8()? != 0;
            let stamp = r.u64()?;
            let version = r.u64()?;
            let prompt = r.str()?;
            let response = r.str()?;
            if alive
                && (stamp > clock
                    || exact.insert(prompt.clone(), id).is_some()
                    || lru.insert(stamp, id).is_some())
            {
                return Err(wire::corrupt("cache snapshot: live entries collide"));
            }
            entries.push(Entry { prompt, response, alive, stamp, version });
        }
        let dump_len = r.u64()? as usize;
        let dump = r.take(dump_len)?;
        if !r.is_empty() {
            return Err(wire::corrupt("cache snapshot: trailing bytes"));
        }
        if self.config.tau > 0.0 && n > 0 {
            let index = Hnsw::load(dump, CosineDistance).map_err(|e| {
                io::Error::new(
                    io::ErrorKind::InvalidData,
                    format!("pas-gateway: cache snapshot graph: {e}"),
                )
            })?;
            let dim = self.embedder.dim();
            let aligned = index.len() == n
                && !exact.is_empty()
                && entries.iter().enumerate().all(|(id, e)| {
                    index.is_removed(id) != e.alive && (!e.alive || index.vector(id).len() == dim)
                });
            if !aligned {
                return Err(wire::corrupt("cache snapshot: graph/sidecar mismatch"));
            }
            self.index = index;
        }
        self.clock = clock;
        self.entries = entries;
        self.exact = exact;
        self.lru = lru;
        Ok(())
    }

    /// Live cached entries.
    pub fn len(&self) -> usize {
        self.exact.len()
    }

    /// Live `(prompt, response)` pairs in LRU order (least recently used
    /// first) — the deterministic export order for shard hand-off:
    /// replaying the pairs through [`SemanticCache::insert`] on a
    /// receiving cache reproduces the donor's relative recency.
    pub fn live_entries_lru(&self) -> Vec<(&str, &str)> {
        self.lru
            .values()
            .map(|&id| {
                let e = &self.entries[id];
                (e.prompt.as_str(), e.response.as_str())
            })
            .collect()
    }

    /// Live `(prompt, response, version)` triples in LRU order — the
    /// versioned export replication hand-off and inspection use.
    pub fn live_entries_versioned(&self) -> Vec<(&str, &str, u64)> {
        self.lru
            .values()
            .map(|&id| {
                let e = &self.entries[id];
                (e.prompt.as_str(), e.response.as_str(), e.version)
            })
            .collect()
    }

    /// The merkle-lite digest anti-entropy exchanges: `(entry_hash(prompt),
    /// version)` pairs over the live set, sorted by hash so two replicas'
    /// digests are comparable with a merge walk (and binary-searchable).
    pub fn digest(&self) -> Vec<(u64, u64)> {
        let mut d: Vec<(u64, u64)> = self
            .lru
            .values()
            .map(|&id| {
                let e = &self.entries[id];
                (entry_hash(&e.prompt), e.version)
            })
            .collect();
        d.sort_unstable();
        d
    }

    /// Reads `prompt`'s live `(response, version)` without touching
    /// recency or hit counters — the inspection/repair-side read.
    pub fn peek(&self, prompt: &str) -> Option<(&str, u64)> {
        self.exact.get(prompt).map(|&id| {
            let e = &self.entries[id];
            (e.response.as_str(), e.version)
        })
    }

    /// The live version of `prompt`, if cached.
    pub fn version_of(&self, prompt: &str) -> Option<u64> {
        self.exact.get(prompt).map(|&id| self.entries[id].version)
    }

    /// True when nothing is cached.
    pub fn is_empty(&self) -> bool {
        self.exact.is_empty()
    }

    /// Exact-tier hits so far.
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// Near-tier hits so far.
    pub fn near_hits(&self) -> u64 {
        self.near_hits
    }

    /// Misses so far.
    pub fn misses(&self) -> u64 {
        self.misses
    }

    /// LRU evictions so far.
    pub fn evictions(&self) -> u64 {
        self.evictions
    }

    fn touch(&mut self, id: usize) {
        self.lru.remove(&self.entries[id].stamp);
        self.clock += 1;
        self.entries[id].stamp = self.clock;
        self.lru.insert(self.clock, id);
        if self.store.is_some() {
            // Touches are logged so a replayed cache reproduces the live
            // LRU order exactly — that is what makes a kill + cold reopen
            // byte-identical to never restarting, not just prefix-correct.
            self.log_record(Record::Meta {
                id: id as u64,
                meta: RecordMeta {
                    category: META_TOUCH.to_string(),
                    stamp: self.clock,
                    ..RecordMeta::default()
                },
            });
        }
    }

    /// Looks `prompt` up in both tiers, updating recency and counters.
    pub fn lookup(&mut self, prompt: &str) -> CacheOutcome {
        if self.config.capacity == 0 {
            self.misses += 1;
            return CacheOutcome::Miss;
        }
        if let Some(&id) = self.exact.get(prompt) {
            self.hits += 1;
            self.touch(id);
            return CacheOutcome::ExactHit(self.entries[id].response.clone());
        }
        if self.config.tau > 0.0 && !self.exact.is_empty() {
            if let [Some((id, distance))] = self.near_tier(&[prompt])[..] {
                self.near_hits += 1;
                self.touch(id);
                return CacheOutcome::NearHit {
                    response: self.entries[id].response.clone(),
                    distance,
                };
            }
        }
        self.misses += 1;
        CacheOutcome::Miss
    }

    /// The near tier for prompts the exact tier missed: for each prompt,
    /// the live entry that serves it and their distance, or `None`. The
    /// rule is that the first live neighbour among the top 4 hits only
    /// within τ. The memo answers what it can; the other prompts are
    /// embedded and probed (several through one [`Hnsw::search_batch`]
    /// call), and their answers are memoized. Callers check that the tier
    /// is on and the cache is not empty.
    fn near_tier(&mut self, prompts: &[&str]) -> Vec<Option<(usize, f32)>> {
        let mut hits = Vec::with_capacity(prompts.len());
        let mut todo = Vec::new();
        for (i, &p) in prompts.iter().enumerate() {
            let memo = self.near_memo.get(p).copied();
            if memo.is_none() {
                todo.push(i);
            }
            hits.push(memo.flatten());
        }
        if todo.is_empty() {
            return hits;
        }
        let queries: Vec<Vec<f32>> =
            todo.iter().map(|&i| self.embedder.embed(prompts[i])).collect();
        // Both walks return the same neighbours; a lone query skips the
        // batch bookkeeping.
        let found = match queries.as_slice() {
            [query] => vec![self.index.search(query, 4, self.config.ef)],
            _ => self.index.search_batch(&queries, 4, self.config.ef),
        };
        for (&i, neighbors) in todo.iter().zip(found) {
            // Over-fetch a little so a tombstoned nearest neighbour does
            // not hide a live one right behind it.
            let hit = neighbors
                .into_iter()
                .find(|n| self.entries[n.id].alive)
                .filter(|n| n.distance <= self.config.tau)
                .map(|n| (n.id, n.distance));
            if self.near_memo.len() >= self.config.capacity {
                self.near_memo.clear();
            }
            self.near_memo.insert(prompts[i].to_string(), hit);
            hits[i] = hit;
        }
        hits
    }

    /// Probes both tiers for a whole micro-batch at dispatch time, *without*
    /// the per-arrival hit/miss accounting — [`SemanticCache::lookup`]
    /// already counted these prompts when they arrived; this is the second
    /// chance an enqueued request gets after earlier batches completed and
    /// installed fresh complements. Near-tier probes go through the same
    /// memo as `lookup`; the prompts it cannot answer run through one
    /// [`Hnsw::search_batch`] call. Hits refresh recency.
    pub fn lookup_batch(&mut self, prompts: &[&str]) -> Vec<Option<String>> {
        if self.config.capacity == 0 {
            return vec![None; prompts.len()];
        }
        let mut out: Vec<Option<String>> = Vec::with_capacity(prompts.len());
        let mut pending: Vec<usize> = Vec::new();
        for &p in prompts {
            if let Some(&id) = self.exact.get(p) {
                self.touch(id);
                out.push(Some(self.entries[id].response.clone()));
            } else {
                if self.config.tau > 0.0 && !self.exact.is_empty() {
                    pending.push(out.len());
                }
                out.push(None);
            }
        }
        if !pending.is_empty() {
            let near: Vec<&str> = pending.iter().map(|&pi| prompts[pi]).collect();
            for (&pi, hit) in pending.iter().zip(self.near_tier(&near)) {
                if let Some((id, _)) = hit {
                    self.touch(id);
                    out[pi] = Some(self.entries[id].response.clone());
                }
            }
        }
        out
    }

    /// Caches `response` for `prompt`, evicting the least-recently-used
    /// entries beyond capacity. A prompt already cached keeps its existing
    /// entry (complements are deterministic, so re-insertion is a no-op).
    pub fn insert(&mut self, prompt: &str, response: &str) {
        self.insert_versioned(prompt, response, 1);
    }

    /// Versioned insert, the replication primitive: applies `(response,
    /// version)` only when it advances the entry — a fresh prompt installs
    /// at `version`, a live entry upgrades in place iff `version` is
    /// strictly newer (the id and its ANN row, keyed by the prompt
    /// embedding, stay put). Older and equal versions are no-ops, so
    /// duplicated or reordered replication messages are idempotent and a
    /// replica can never regress to a stale response. Returns whether the
    /// cache changed.
    pub fn insert_versioned(&mut self, prompt: &str, response: &str, version: u64) -> bool {
        if self.config.capacity == 0 {
            return false;
        }
        if let Some(&id) = self.exact.get(prompt) {
            if self.entries[id].version >= version {
                return false;
            }
            self.lru.remove(&self.entries[id].stamp);
            self.clock += 1;
            let e = &mut self.entries[id];
            e.stamp = self.clock;
            e.response = response.to_string();
            e.version = version;
            self.lru.insert(self.clock, id);
            if self.store.is_some() {
                self.log_record(Record::Meta {
                    id: id as u64,
                    meta: RecordMeta {
                        category: META_UPDATE.to_string(),
                        degraded: false,
                        stamp: self.clock,
                        fields: vec![
                            (FIELD_RESPONSE.to_string(), response.to_string()),
                            (FIELD_VERSION.to_string(), version.to_string()),
                        ],
                    },
                });
            }
            return true;
        }
        while self.exact.len() >= self.config.capacity {
            let (&stamp, &victim) = self.lru.iter().next().expect("LRU mirrors exact map");
            self.lru.remove(&stamp);
            self.exact.remove(&self.entries[victim].prompt);
            self.entries[victim].alive = false;
            if self.config.tau > 0.0 {
                // Unlink the victim from the ANN graph in place; probe cost
                // stays proportional to the live set without a rebuild.
                self.index.remove(victim);
            }
            self.log_record(Record::Tombstone { id: victim as u64 });
            self.evictions += 1;
        }
        self.clock += 1;
        let id = self.entries.len();
        // Exact-only mode never probes the ANN tier: skip embedding and the
        // index entirely and keep ids aligned with `entries` alone. The raw
        // (unprepared) embedding is what gets logged — `Hnsw::insert`
        // prepares internally, so replaying the logged bits reproduces the
        // graph bit-exactly.
        let raw = if self.config.tau > 0.0 { self.embedder.embed(prompt) } else { Vec::new() };
        if self.store.is_some() {
            // Meta first, vector second: the vector record is the commit
            // point, so a crash between the two leaves an invisible orphan
            // rather than a half-materialized entry.
            self.log_record(Record::Meta {
                id: id as u64,
                meta: entry_meta(prompt, response, self.clock, version),
            });
            self.log_record(Record::Vector { id: id as u64, vector: raw.clone() });
        }
        if self.config.tau > 0.0 {
            let got = self.index.insert(raw);
            debug_assert_eq!(got, id, "index ids must align with entries");
            // This insert and the evictions above changed the graph, so
            // every memoized probe answer may be stale.
            self.near_memo.clear();
        }
        self.entries.push(Entry {
            prompt: prompt.to_string(),
            response: response.to_string(),
            alive: true,
            stamp: self.clock,
            version,
        });
        self.exact.insert(prompt.to_string(), id);
        self.lru.insert(self.clock, id);
        self.maybe_compact();
        true
    }

    /// Fallback compaction: evicted ids are already unlinked from the graph
    /// incrementally, but dead `entries` slots still pin their prompt and
    /// response strings (and empty graph slots). Once the dead heavily
    /// outnumber the live set, rebuild everything from the live entries to
    /// reclaim that storage.
    fn maybe_compact(&mut self) {
        let dead = self.entries.len() - self.exact.len();
        if dead <= 8 * self.exact.len().max(1) || dead < 64 {
            return;
        }
        self.compact_now();
    }

    /// The rebuild itself, shared by the fallback trigger and store
    /// adoption ([`SemanticCache::persist_to`] on an unpersisted cache).
    fn compact_now(&mut self) {
        let live: Vec<Entry> =
            std::mem::take(&mut self.entries).into_iter().filter(|e| e.alive).collect();
        // Sync the log first: compact it down to exactly the records whose
        // replay reproduces the rebuilt state below (renumbered ids, same
        // stamps, re-embedded raw vectors — embedding is deterministic, so
        // the bits match what the rebuild inserts).
        if let Some(store) = &mut self.store {
            if store.error.is_none() {
                let mut records = Vec::with_capacity(live.len() * 2);
                for (id, entry) in live.iter().enumerate() {
                    let vector = if self.config.tau > 0.0 {
                        self.embedder.embed(&entry.prompt)
                    } else {
                        Vec::new()
                    };
                    records.push(Record::Meta {
                        id: id as u64,
                        meta: entry_meta(
                            &entry.prompt,
                            &entry.response,
                            entry.stamp,
                            entry.version,
                        ),
                    });
                    records.push(Record::Vector { id: id as u64, vector });
                }
                if let Err(e) = store.log.compact(&records) {
                    store.error = Some(e);
                }
            }
        }
        self.index = Hnsw::new(self.config.hnsw.clone(), CosineDistance);
        if self.config.pq {
            self.index.set_product_quantization(true);
        } else if self.config.quantized {
            self.index.set_quantization(true);
        }
        // A new graph over renumbered ids: no memoized answer survives.
        self.near_memo.clear();
        self.exact.clear();
        self.lru.clear();
        for (id, entry) in live.iter().enumerate() {
            if self.config.tau > 0.0 {
                let got = self.index.insert(self.embedder.embed(&entry.prompt));
                debug_assert_eq!(got, id);
            }
            self.exact.insert(entry.prompt.clone(), id);
            self.lru.insert(entry.stamp, id);
        }
        self.entries = live;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pas_embed::NgramEmbedder;

    fn cache(capacity: usize, tau: f32) -> SemanticCache<NgramEmbedder> {
        let config = SemanticCacheConfig { capacity, tau, ..SemanticCacheConfig::default() };
        SemanticCache::new(config, NgramEmbedder::default())
    }

    #[test]
    fn exact_tier_round_trips() {
        let mut c = cache(8, 0.0);
        assert_eq!(c.lookup("how do I sort a vec"), CacheOutcome::Miss);
        c.insert("how do I sort a vec", "how do I sort a vec [c]");
        assert_eq!(
            c.lookup("how do I sort a vec"),
            CacheOutcome::ExactHit("how do I sort a vec [c]".into())
        );
        assert_eq!((c.hits(), c.misses(), c.len()), (1, 1, 1));
    }

    #[test]
    fn tau_zero_never_near_hits() {
        let mut c = cache(8, 0.0);
        c.insert("please sort this list of numbers", "r1");
        assert_eq!(c.lookup("please sort this list of numbers!"), CacheOutcome::Miss);
        assert_eq!(c.near_hits(), 0);
    }

    #[test]
    fn near_tier_serves_close_neighbors_only() {
        let mut c = cache(8, 0.2);
        c.insert("please sort this list of numbers for me", "r1");
        match c.lookup("please sort this list of numbers for me!") {
            CacheOutcome::NearHit { response, distance } => {
                assert_eq!(response, "r1");
                // NB: the ngram featurizer strips punctuation, so the "!"
                // variant can land at distance exactly 0.
                assert!((0.0..=0.2).contains(&distance), "distance {distance}");
            }
            other => panic!("expected a near hit, got {other:?}"),
        }
        assert_eq!(c.lookup("write a poem about the autumn moon"), CacheOutcome::Miss);
        assert_eq!((c.near_hits(), c.misses()), (1, 1));
    }

    #[test]
    fn capacity_evicts_lru_and_tombstones_hide_from_near_tier() {
        let mut c = cache(2, 0.2);
        c.insert("alpha prompt one about databases", "r-alpha");
        c.insert("beta prompt two about compilers", "r-beta");
        assert!(matches!(c.lookup("alpha prompt one about databases"), CacheOutcome::ExactHit(_)));
        // beta is now LRU; inserting gamma evicts it.
        c.insert("gamma prompt three about gardening", "r-gamma");
        assert_eq!(c.len(), 2);
        assert_eq!(c.evictions(), 1);
        assert_eq!(c.lookup("beta prompt two about compilers"), CacheOutcome::Miss);
        // The evicted entry must not be served by the near tier either.
        assert_eq!(c.lookup("beta prompt two about compilers!"), CacheOutcome::Miss);
        // Survivors still hit.
        assert!(matches!(c.lookup("alpha prompt one about databases"), CacheOutcome::ExactHit(_)));
        assert!(matches!(
            c.lookup("gamma prompt three about gardening"),
            CacheOutcome::ExactHit(_)
        ));
    }

    #[test]
    fn disabled_cache_never_stores() {
        let mut c = cache(0, 0.5);
        c.insert("a prompt", "a response");
        assert_eq!(c.lookup("a prompt"), CacheOutcome::Miss);
        assert!(c.is_empty());
        assert_eq!(c.misses(), 1);
    }

    #[test]
    fn reinsert_keeps_the_existing_entry() {
        let mut c = cache(4, 0.0);
        c.insert("p", "r1");
        c.insert("p", "r2-should-be-ignored");
        assert_eq!(c.lookup("p"), CacheOutcome::ExactHit("r1".into()));
        assert_eq!(c.len(), 1);
    }

    #[test]
    fn versioned_insert_applies_only_monotone_upgrades() {
        let mut c = cache(4, 0.0);
        assert!(c.insert_versioned("p", "v2", 2));
        assert_eq!(c.peek("p"), Some(("v2", 2)));
        // Stale and duplicate versions are idempotent no-ops.
        assert!(!c.insert_versioned("p", "v1-stale", 1));
        assert!(!c.insert_versioned("p", "v2-dup", 2));
        assert_eq!(c.peek("p"), Some(("v2", 2)));
        // A strictly newer version upgrades in place: same entry count.
        assert!(c.insert_versioned("p", "v5", 5));
        assert_eq!(c.peek("p"), Some(("v5", 5)));
        assert_eq!(c.version_of("p"), Some(5));
        assert_eq!(c.len(), 1);
        assert_eq!(c.lookup("p"), CacheOutcome::ExactHit("v5".into()));
        // Plain inserts are version 1 and peek does not touch counters.
        c.insert("q", "rq");
        assert_eq!(c.version_of("q"), Some(1));
        assert_eq!(c.version_of("absent"), None);
    }

    #[test]
    fn versioned_upgrade_keeps_the_near_tier_row() {
        let mut c = cache(8, 0.2);
        c.insert_versioned("please sort this list of numbers for me", "old", 1);
        c.insert_versioned("please sort this list of numbers for me", "new", 3);
        match c.lookup("please sort this list of numbers for me!") {
            CacheOutcome::NearHit { response, .. } => assert_eq!(response, "new"),
            other => panic!("expected a near hit, got {other:?}"),
        }
    }

    #[test]
    fn digest_is_sorted_and_tracks_versions() {
        let mut c = cache(8, 0.0);
        c.insert_versioned("alpha", "a", 1);
        c.insert_versioned("beta", "b", 4);
        let d = c.digest();
        assert_eq!(d.len(), 2);
        assert!(d.windows(2).all(|w| w[0].0 < w[1].0), "digest must be hash-sorted");
        let beta = d.iter().find(|&&(h, _)| h == entry_hash("beta")).unwrap();
        assert_eq!(beta.1, 4);
        // Upgrading bumps the digest version; identical caches agree.
        c.insert_versioned("alpha", "a2", 7);
        let alpha = c.digest().into_iter().find(|&(h, _)| h == entry_hash("alpha")).unwrap();
        assert_eq!(alpha.1, 7);
        let mut twin = cache(8, 0.0);
        twin.insert_versioned("beta", "b", 4);
        twin.insert_versioned("alpha", "a2", 7);
        assert_eq!(twin.digest(), c.digest(), "digest must ignore insertion order");
    }

    #[test]
    fn versions_survive_persistence_round_trips() {
        let dir = std::env::temp_dir().join(format!(
            "pas-cache-version-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        let config = SemanticCacheConfig { capacity: 8, ..SemanticCacheConfig::default() };
        let mut c = SemanticCache::open_from(
            config.clone(),
            NgramEmbedder::default(),
            &dir,
            OpenMode::Replay,
        )
        .unwrap();
        c.insert_versioned("p", "v2", 2);
        c.insert_versioned("p", "v6", 6);
        c.insert_versioned("q", "q1", 1);
        drop(c);
        // Cold replay reapplies the insert and the in-place update.
        let replayed = SemanticCache::open_from(
            config.clone(),
            NgramEmbedder::default(),
            &dir,
            OpenMode::Replay,
        )
        .unwrap();
        assert_eq!(replayed.peek("p"), Some(("v6", 6)));
        assert_eq!(replayed.peek("q"), Some(("q1", 1)));
        let digest = replayed.digest();
        // Warm restore from a checkpoint carries versions too.
        let mut warm = replayed;
        warm.persist_to(&dir).unwrap();
        drop(warm);
        let snap = SemanticCache::open_from(config, NgramEmbedder::default(), &dir, OpenMode::Warm)
            .unwrap();
        assert_eq!(snap.peek("p"), Some(("v6", 6)));
        assert_eq!(snap.digest(), digest);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn compaction_preserves_behavior_under_churn() {
        let mut c = cache(4, 0.25);
        // Insert far more distinct prompts than capacity: every eviction
        // unlinks its victim from the graph incrementally, and the dead
        // entries pile high enough to cross the fallback-rebuild threshold.
        for i in 0..150 {
            let prompt = format!("distinct request number {i} about topic {}", i % 13);
            c.insert(&prompt, &format!("resp-{i}"));
        }
        assert_eq!(c.len(), 4);
        assert!(c.evictions() >= 146);
        // The four most recent entries are live and exactly retrievable.
        for i in 146..150 {
            let prompt = format!("distinct request number {i} about topic {}", i % 13);
            assert_eq!(c.lookup(&prompt), CacheOutcome::ExactHit(format!("resp-{i}")), "{i}");
        }
        // Near probes only ever see live entries.
        match c.lookup("distinct request number 149 about topic 6!") {
            CacheOutcome::NearHit { response, .. } => assert_eq!(response, "resp-149"),
            CacheOutcome::ExactHit(_) => panic!("punctuated variant cannot exact-hit"),
            CacheOutcome::Miss => {} // acceptable: τ may exclude the variant
        }
    }

    #[test]
    fn quantized_near_tier_serves_identical_results() {
        let prompts: Vec<String> = (0..40)
            .map(|i| format!("request number {i} about subject {} in style {}", i % 7, i % 3))
            .collect();
        let run = |quantized: bool| {
            let config = SemanticCacheConfig {
                capacity: 16,
                tau: 0.3,
                quantized,
                ..SemanticCacheConfig::default()
            };
            let mut c = SemanticCache::new(config, NgramEmbedder::default());
            let mut log = Vec::new();
            for p in &prompts {
                let out = c.lookup(p);
                if matches!(out, CacheOutcome::Miss) {
                    c.insert(p, &format!("{p} [c]"));
                }
                log.push(format!("{out:?}"));
                log.push(format!("{:?}", c.lookup(&format!("{p}!"))));
            }
            (log, c.hits(), c.near_hits(), c.misses(), c.evictions())
        };
        assert_eq!(run(false), run(true), "int8 probe path must not change served results");
    }

    #[test]
    fn pq_near_tier_serves_identical_results() {
        // Enough traffic that the PQ codebook actually trains (the lazy
        // threshold is PQ_TRAIN_MIN inserts) and evictions churn the index.
        let prompts: Vec<String> = (0..160)
            .map(|i| format!("request number {i} about subject {} in style {}", i % 7, i % 3))
            .collect();
        let run = |pq: bool| {
            let config = SemanticCacheConfig {
                capacity: 96,
                tau: 0.3,
                pq,
                ..SemanticCacheConfig::default()
            };
            let mut c = SemanticCache::new(config, NgramEmbedder::default());
            let mut log = Vec::new();
            for p in &prompts {
                let out = c.lookup(p);
                if matches!(out, CacheOutcome::Miss) {
                    c.insert(p, &format!("{p} [c]"));
                }
                log.push(format!("{out:?}"));
                log.push(format!("{:?}", c.lookup(&format!("{p}!"))));
            }
            (log, c.hits(), c.near_hits(), c.misses(), c.evictions())
        };
        assert_eq!(run(false), run(true), "PQ probe path must not change served results");
    }

    #[test]
    fn lookup_batch_hits_both_tiers_without_miss_accounting() {
        let mut c = cache(8, 0.2);
        c.insert("explain the borrow checker to me", "r-borrow");
        c.insert("what is a lifetime annotation", "r-lifetime");
        let misses_before = c.misses();
        let got = c.lookup_batch(&[
            "explain the borrow checker to me",     // exact hit
            "explain the borrow checker to me!",    // near hit (punctuation)
            "write a haiku about compilers please", // miss
        ]);
        assert_eq!(got[0].as_deref(), Some("r-borrow"));
        assert_eq!(got[1].as_deref(), Some("r-borrow"));
        assert_eq!(got[2], None);
        assert_eq!(c.misses(), misses_before, "dispatch probes must not recount misses");
        // Recency was refreshed: inserting two more prompts must evict the
        // untouched entry first, not the batch-hit one.
        let mut c2 = cache(2, 0.0);
        c2.insert("keep me", "r1");
        c2.insert("evict me", "r2");
        let _ = c2.lookup_batch(&["keep me"]);
        c2.insert("newcomer", "r3");
        assert!(matches!(c2.lookup("keep me"), CacheOutcome::ExactHit(_)));
        assert_eq!(c2.lookup("evict me"), CacheOutcome::Miss);
    }

    fn tmp(name: &str) -> std::path::PathBuf {
        let dir =
            std::env::temp_dir().join(format!("pas-cache-store-{}-{name}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    /// Drives `c` through a deterministic lookup/insert script and returns
    /// a byte-comparable trace of everything it served and counted.
    fn drive(c: &mut SemanticCache<NgramEmbedder>, lo: usize, hi: usize) -> Vec<String> {
        let mut log = Vec::new();
        for i in lo..hi {
            let p = format!("prompt {} about thing {}", i % 23, i % 7);
            let out = c.lookup(&p);
            if matches!(out, CacheOutcome::Miss) {
                c.insert(&p, &format!("resp {}", i % 23));
            }
            log.push(format!("{out:?}"));
        }
        log
    }

    #[test]
    fn persistent_cache_restarts_bit_identically_in_every_mode() {
        let config =
            SemanticCacheConfig { capacity: 8, tau: 0.3, ..SemanticCacheConfig::default() };
        // Uninterrupted baseline: one cache serves the whole script.
        let base_dir = tmp("base");
        let mut base = SemanticCache::open_from(
            config.clone(),
            NgramEmbedder::default(),
            &base_dir,
            OpenMode::Replay,
        )
        .unwrap();
        let first = drive(&mut base, 0, 60);
        let rest = drive(&mut base, 60, 120);
        assert!(base.store_error().is_none());

        for mode in [OpenMode::Warm, OpenMode::Replay, OpenMode::Reembed] {
            let dir = tmp(&format!("{mode:?}"));
            let mut c = SemanticCache::open_from(
                config.clone(),
                NgramEmbedder::default(),
                &dir,
                OpenMode::Replay,
            )
            .unwrap();
            assert_eq!(drive(&mut c, 0, 60), first, "{mode:?}");
            if mode == OpenMode::Warm {
                c.persist_to(&dir).unwrap();
            }
            // Drop without checkpoint for Replay/Reembed: a kill. Every
            // append was flushed, so the log holds the full history.
            drop(c);
            let mut c =
                SemanticCache::open_from(config.clone(), NgramEmbedder::default(), &dir, mode)
                    .unwrap();
            assert_eq!(
                drive(&mut c, 60, 120),
                rest,
                "{mode:?} restart must serve byte-identically to never restarting"
            );
            std::fs::remove_dir_all(&dir).unwrap();
        }
        std::fs::remove_dir_all(&base_dir).unwrap();
    }

    #[test]
    fn exact_only_cache_persists_lru_order() {
        let dir = tmp("exact");
        let config = SemanticCacheConfig { capacity: 2, ..SemanticCacheConfig::default() };
        let mut c = SemanticCache::open_from(
            config.clone(),
            NgramEmbedder::default(),
            &dir,
            OpenMode::Replay,
        )
        .unwrap();
        c.insert("keep me", "r1");
        c.insert("evict me", "r2");
        // Touch "keep me" so it is the most recent — the touch must be
        // durable for the restart to evict the right victim.
        assert!(matches!(c.lookup("keep me"), CacheOutcome::ExactHit(_)));
        drop(c);
        let mut c =
            SemanticCache::open_from(config, NgramEmbedder::default(), &dir, OpenMode::Replay)
                .unwrap();
        assert_eq!(c.len(), 2);
        c.insert("newcomer", "r3");
        assert!(matches!(c.lookup("keep me"), CacheOutcome::ExactHit(_)));
        assert_eq!(c.lookup("evict me"), CacheOutcome::Miss);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn persist_to_adopts_an_unpersisted_cache() {
        let dir = tmp("adopt");
        let mut c = cache(8, 0.0);
        c.insert("alpha", "r-alpha");
        c.insert("beta", "r-beta");
        assert_eq!(c.store_dir(), None);
        c.persist_to(&dir).unwrap();
        assert_eq!(c.store_dir(), Some(dir.as_path()));
        // Post-adoption writes are logged too.
        c.insert("gamma", "r-gamma");
        drop(c);
        let mut c = SemanticCache::open_from(
            SemanticCacheConfig { capacity: 8, ..SemanticCacheConfig::default() },
            NgramEmbedder::default(),
            &dir,
            OpenMode::Warm,
        )
        .unwrap();
        assert_eq!(c.len(), 3);
        for (p, r) in [("alpha", "r-alpha"), ("beta", "r-beta"), ("gamma", "r-gamma")] {
            assert_eq!(c.lookup(p), CacheOutcome::ExactHit(r.into()), "{p}");
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn mismatched_config_refuses_the_log() {
        let dir = tmp("fingerprint");
        let config =
            SemanticCacheConfig { capacity: 8, tau: 0.2, ..SemanticCacheConfig::default() };
        let mut c = SemanticCache::open_from(
            config.clone(),
            NgramEmbedder::default(),
            &dir,
            OpenMode::Replay,
        )
        .unwrap();
        c.insert("a prompt", "a response");
        drop(c);
        let other = SemanticCacheConfig {
            hnsw: HnswConfig { seed: 0xdead, ..config.hnsw.clone() },
            ..config
        };
        let err = SemanticCache::open_from(other, NgramEmbedder::default(), &dir, OpenMode::Replay)
            .err()
            .expect("mismatched config must refuse the log");
        assert!(err.to_string().contains("fingerprint"), "{err}");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn store_error_freezes_the_log_but_the_cache_keeps_serving() {
        let dir = tmp("freeze");
        let config = SemanticCacheConfig { capacity: 16, ..SemanticCacheConfig::default() };
        // Crash the 5th disk op; the short-write/flush-fail shape is seeded.
        let faults = pas_fault::DiskFaults::crash_at(0x5eed, 5);
        let mut c = SemanticCache::open_from_with(
            config.clone(),
            NgramEmbedder::default(),
            &dir,
            OpenMode::Replay,
            Some(faults),
        )
        .unwrap();
        for i in 0..12 {
            c.insert(&format!("prompt {i}"), &format!("resp {i}"));
        }
        assert!(c.store_error().is_some(), "the injected fault must freeze the store");
        // In-memory serving is unaffected…
        assert_eq!(c.len(), 12);
        assert_eq!(c.lookup("prompt 11"), CacheOutcome::ExactHit("resp 11".into()));
        // …and a checkpoint on a frozen store is refused.
        assert!(c.persist_to(&dir).is_err());
        drop(c);
        // Reopen (no faults): the recovered entries are a prefix of the
        // inserted sequence, each with its correct response.
        let mut c =
            SemanticCache::open_from(config, NgramEmbedder::default(), &dir, OpenMode::Replay)
                .unwrap();
        assert!(c.len() < 12, "the crash must have cut the durable prefix short");
        for i in 0..c.len() {
            assert_eq!(
                c.lookup(&format!("prompt {i}")),
                CacheOutcome::ExactHit(format!("resp {i}")),
                "entry {i} of the durable prefix"
            );
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn compaction_syncs_the_log() {
        let dir = tmp("compact-sync");
        let config =
            SemanticCacheConfig { capacity: 4, tau: 0.25, ..SemanticCacheConfig::default() };
        let mut c = SemanticCache::open_from(
            config.clone(),
            NgramEmbedder::default(),
            &dir,
            OpenMode::Replay,
        )
        .unwrap();
        // Cross the fallback-rebuild threshold (compaction_preserves_
        // behavior_under_churn shape) so the log compacts at least once.
        for i in 0..150 {
            let prompt = format!("distinct request number {i} about topic {}", i % 13);
            c.insert(&prompt, &format!("resp-{i}"));
        }
        assert!(c.store_error().is_none());
        let live: Vec<String> = (146..150)
            .map(|i| {
                format!(
                    "{:?}",
                    c.lookup(&format!("distinct request number {i} about topic {}", i % 13))
                )
            })
            .collect();
        drop(c);
        let mut c =
            SemanticCache::open_from(config, NgramEmbedder::default(), &dir, OpenMode::Replay)
                .unwrap();
        assert_eq!(c.len(), 4);
        let reopened: Vec<String> = (146..150)
            .map(|i| {
                format!(
                    "{:?}",
                    c.lookup(&format!("distinct request number {i} about topic {}", i % 13))
                )
            })
            .collect();
        assert_eq!(reopened, live, "replay of the compacted log must reproduce the live cache");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    fn near_config() -> SemanticCacheConfig {
        SemanticCacheConfig { capacity: 8, tau: 0.3, ..SemanticCacheConfig::default() }
    }

    fn open_near(dir: &Path, mode: OpenMode) -> SemanticCache<NgramEmbedder> {
        SemanticCache::open_from(near_config(), NgramEmbedder::default(), dir, mode)
            .unwrap_or_else(|e| panic!("{mode:?} open: {e}"))
    }

    /// A persistent near-tier cache in a fresh `dir` holding `n` distinct
    /// entries, checkpointed.
    fn checkpointed(dir: &Path, n: usize) -> SemanticCache<NgramEmbedder> {
        let mut c = open_near(dir, OpenMode::Replay);
        for i in 0..n {
            c.insert(&format!("prompt {i}"), &format!("resp {i}"));
        }
        c.persist_to(dir).unwrap();
        c
    }

    /// Replaces the payload of the checkpoint in `dir`, keeping its log
    /// position.
    fn rewrite_checkpoint(dir: &Path, payload: Vec<u8>) {
        let fingerprint = config_fingerprint(&near_config());
        let snap = read_snapshot(dir, fingerprint).unwrap().expect("a checkpoint exists");
        write_snapshot(dir, fingerprint, &SnapshotData { payload, ..snap }, None).unwrap();
    }

    fn owned_state(c: &SemanticCache<NgramEmbedder>) -> Vec<(String, String, u64)> {
        c.live_entries_versioned()
            .into_iter()
            .map(|(p, r, v)| (p.to_string(), r.to_string(), v))
            .collect()
    }

    #[test]
    fn replay_refuses_a_logged_vector_of_the_wrong_width() {
        let dir = tmp("narrow-vector");
        drop(checkpointed(&dir, 3));
        // A CRC-valid entry whose vector is 3 floats wide.
        let fingerprint = config_fingerprint(&near_config());
        let store_config = StoreConfig { fingerprint, ..StoreConfig::default() };
        let (mut log, _) = SegmentLog::open(&dir, store_config, None).unwrap();
        log.append(&Record::Meta { id: 3, meta: entry_meta("narrow", "r", 99, 1) }).unwrap();
        log.append(&Record::Vector { id: 3, vector: vec![0.5; 3] }).unwrap();
        drop(log);
        for mode in [OpenMode::Warm, OpenMode::Replay, OpenMode::Reembed] {
            let err = SemanticCache::open_from(near_config(), NgramEmbedder::default(), &dir, mode)
                .err()
                .expect("a narrow vector must refuse the log");
            assert!(err.to_string().contains("vector width"), "{mode:?}: {err}");
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn an_embedder_of_another_width_refuses_the_log() {
        let dir = tmp("narrow-embedder");
        drop(checkpointed(&dir, 3));
        for mode in [OpenMode::Warm, OpenMode::Replay] {
            let narrow = NgramEmbedder::new(32, 0x5eed_cafe);
            let err = SemanticCache::open_from(near_config(), narrow, &dir, mode)
                .err()
                .expect("a 32-wide embedder must refuse a 64-wide log");
            assert!(err.to_string().contains("vector width"), "{mode:?}: {err}");
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn a_checkpoint_with_an_old_magic_replays_the_log() {
        let dir = tmp("old-magic");
        let c = checkpointed(&dir, 5);
        let mut payload = c.snapshot_payload();
        drop(c);
        payload[..SNAP_PAYLOAD_MAGIC.len()].copy_from_slice(b"PASCSNP1");
        rewrite_checkpoint(&dir, payload);
        let replayed = owned_state(&open_near(&dir, OpenMode::Replay));
        assert_eq!(replayed.len(), 5);
        assert_eq!(owned_state(&open_near(&dir, OpenMode::Warm)), replayed);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// Checkpoints an `entries`-entry cache, swaps in the graph of a
    /// `nodes`-entry one, and checks the warm open replays the log instead
    /// and then serves both old and fresh entries their own responses.
    fn a_foreign_graph_replays_the_log(name: &str, entries: usize, nodes: usize) {
        let dir = tmp(name);
        let c = checkpointed(&dir, entries);
        let mut payload = c.snapshot_payload();
        payload.truncate(payload.len() - 8 - c.index.dump().len());
        drop(c);
        let mut other = SemanticCache::new(near_config(), NgramEmbedder::default());
        for i in 0..nodes {
            other.insert(&format!("other {i}"), "other");
        }
        let graph = other.index.dump();
        wire::put_u64(&mut payload, graph.len() as u64);
        payload.extend_from_slice(&graph);
        rewrite_checkpoint(&dir, payload);

        let replayed = owned_state(&open_near(&dir, OpenMode::Replay));
        let mut warm = open_near(&dir, OpenMode::Warm);
        assert_eq!(owned_state(&warm), replayed);
        warm.insert("a fresh prompt", "fresh");
        for (prompt, want) in (0..entries)
            .map(|i| (format!("prompt {i}!"), format!("resp {i}")))
            .chain([("a fresh prompt!".to_string(), "fresh".to_string())])
        {
            match warm.lookup(&prompt) {
                CacheOutcome::NearHit { response, .. } => assert_eq!(response, want, "{prompt}"),
                other => panic!("{prompt}: expected a near hit, got {other:?}"),
            }
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn a_graph_with_fewer_slots_than_entries_replays_the_log() {
        a_foreign_graph_replays_the_log("short-graph", 6, 3);
    }

    #[test]
    fn a_graph_with_more_slots_than_entries_replays_the_log() {
        a_foreign_graph_replays_the_log("long-graph", 3, 6);
    }

    #[test]
    fn warm_open_survives_mutated_checkpoints() {
        use rand::{RngExt, SeedableRng, StdRng};
        const MUTATIONS: usize = 2000;
        let dir = tmp("mutated");
        // 23 distinct prompts through 8 slots: the checkpoint holds dead
        // slots and a graph with removed rows, and the ops after it leave
        // a log suffix for the warm open to replay.
        let mut c = open_near(&dir, OpenMode::Replay);
        drive(&mut c, 0, 30);
        c.persist_to(&dir).unwrap();
        let valid = c.snapshot_payload();
        drive(&mut c, 30, 36);
        drop(c);
        let replayed = owned_state(&open_near(&dir, OpenMode::Replay));

        let mut rng = StdRng::seed_from_u64(0xcac4e);
        let (mut accepted, mut rejected) = (0, 0);
        for _ in 0..MUTATIONS {
            let mut bytes = valid.clone();
            let at = rng.random_range(0..bytes.len());
            let end = (at + rng.random_range(1..9)).min(bytes.len());
            match rng.random_range(0..4) {
                0 => bytes[at] ^= 1 << rng.random_range(0..8),
                1 => bytes[at..end].iter_mut().for_each(|b| *b = !*b),
                2 => bytes[at..end].fill(0),
                _ => bytes.truncate(at),
            }
            rewrite_checkpoint(&dir, bytes.clone());
            let warm = open_near(&dir, OpenMode::Warm);
            let mut restored = SemanticCache::new(near_config(), NgramEmbedder::default());
            if restored.restore_snapshot(&bytes).is_err() {
                rejected += 1;
                assert_eq!(owned_state(&warm), replayed, "a rejected checkpoint must replay");
                continue;
            }
            // Accepted bytes serve lookups in both tiers and evicting
            // inserts (in memory, so the log stays intact).
            accepted += 1;
            drive(&mut restored, 0, 12);
            for i in 0..6 {
                restored.insert(&format!("mutant {i}"), "m");
                restored.lookup(&format!("mutant {i}!"));
            }
        }
        assert!(accepted > 0 && rejected > 0, "accepted {accepted}, rejected {rejected}");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn lookup_sequences_are_deterministic() {
        let run = || {
            let mut c = cache(8, 0.3);
            let mut log = Vec::new();
            for i in 0..40 {
                let p = format!("prompt {} about thing {}", i % 11, i % 5);
                let out = c.lookup(&p);
                if matches!(out, CacheOutcome::Miss) {
                    c.insert(&p, &format!("resp {}", i % 11));
                }
                log.push(format!("{out:?}"));
            }
            (log, c.hits(), c.near_hits(), c.misses(), c.evictions())
        };
        assert_eq!(run(), run());
    }

    /// What a fresh probe of `prompt` finds, embedding and searching
    /// directly with no memo: the outcome and the id of the entry it
    /// serves. Every memoized answer must equal it.
    fn probe_direct(
        c: &SemanticCache<NgramEmbedder>,
        prompt: &str,
    ) -> (CacheOutcome, Option<usize>) {
        if c.config.capacity == 0 {
            return (CacheOutcome::Miss, None);
        }
        if let Some(&id) = c.exact.get(prompt) {
            return (CacheOutcome::ExactHit(c.entries[id].response.clone()), Some(id));
        }
        if c.config.tau > 0.0 && !c.exact.is_empty() {
            let query = c.embedder.embed(prompt);
            let neighbors = c.index.search(&query, 4, c.config.ef);
            if let Some(n) = neighbors.into_iter().find(|n| c.entries[n.id].alive) {
                if n.distance <= c.config.tau {
                    let response = c.entries[n.id].response.clone();
                    return (CacheOutcome::NearHit { response, distance: n.distance }, Some(n.id));
                }
            }
        }
        (CacheOutcome::Miss, None)
    }

    /// An outcome with its distance as raw bits, so equality is bitwise.
    fn outcome_bits(o: &CacheOutcome) -> (u8, &str, u32) {
        match o {
            CacheOutcome::ExactHit(r) => (0, r, 0),
            CacheOutcome::NearHit { response, distance } => (1, response, distance.to_bits()),
            CacheOutcome::Miss => (2, "", 0),
        }
    }

    /// Live ids from the most recently used back, `n` of them.
    fn recent_ids(c: &SemanticCache<NgramEmbedder>, n: usize) -> Vec<usize> {
        c.lru.values().rev().take(n).copied().collect()
    }

    #[test]
    fn the_near_memo_never_changes_an_answer() {
        use rand::{RngExt, SeedableRng, StdRng};
        // Hot prompts and their surface variants, which land near them at
        // a spread of distances around τ; cold prompts are never repeated.
        let hot = |i: usize, v: usize| {
            let base = format!("request {i} about subject {} in style {}", i % 7, i % 3);
            match v {
                0 => base,
                1 => format!("{base}!"),
                2 => format!("please {base}"),
                3 => format!("{base} today"),
                _ => format!("request {i} about topic {} in style {}", i % 7, i % 3),
            }
        };
        for (tier, quantized, pq) in
            [("f32", false, false), ("int8", true, false), ("pq", false, true)]
        {
            // 64 slots: PQ trains when they fill, the fallback compaction
            // fires past 512 dead ones, and cold inserts evict throughout.
            let capacity = 64;
            let config = SemanticCacheConfig {
                capacity,
                tau: 0.25,
                quantized,
                pq,
                ..SemanticCacheConfig::default()
            };
            let dir = tmp(&format!("memo-{tier}"));
            let mut c = SemanticCache::new(config, NgramEmbedder::default());
            let mut rng = StdRng::seed_from_u64(0x3e30);
            let (mut hits, mut near, mut misses, mut installs) = (0u64, 0u64, 0u64, 0u64);
            let (mut memo_answers, mut memo_peak, mut compactions, mut cold) = (0, 0, 0, 0);
            let install = |c: &mut SemanticCache<NgramEmbedder>, p: &str, installs: &mut u64| {
                *installs += u64::from(c.peek(p).is_none());
                c.insert(p, &format!("{p} [c]"));
            };
            for step in 0..3000 {
                // Alternate 100-step write phases (cold installs, so the
                // memo is cleared often) with read phases (hot traffic
                // only, so the memo answers repeats).
                let writing = (step / 100) % 2 == 0;
                if step == 350 {
                    // Adopt a store after lookups, with dead slots to
                    // renumber and a memo to invalidate.
                    assert!(!c.near_memo.is_empty() && c.entries.len() > c.exact.len(), "{tier}");
                    c.persist_to(&dir).unwrap();
                }
                let before = c.entries.len();
                let pick = |rng: &mut StdRng| hot(rng.random_range(0..24), rng.random_range(0..5));
                match rng.random_range(0..10) {
                    0..=5 if writing => {
                        install(
                            &mut c,
                            &format!("cold request {cold} on matter {}", cold % 11),
                            &mut installs,
                        );
                        cold += 1;
                    }
                    0..=5 => {
                        let p = pick(&mut rng);
                        memo_answers += usize::from(c.near_memo.contains_key(&p));
                        let (want, id) = probe_direct(&c, &p);
                        let got = c.lookup(&p);
                        assert_eq!(
                            outcome_bits(&got),
                            outcome_bits(&want),
                            "{tier} step {step}: {p}"
                        );
                        if let Some(id) = id {
                            assert_eq!(recent_ids(&c, 1), [id], "{tier} step {step}: touched");
                        }
                        match want {
                            CacheOutcome::ExactHit(_) => hits += 1,
                            CacheOutcome::NearHit { .. } => near += 1,
                            CacheOutcome::Miss => {
                                misses += 1;
                                install(&mut c, &p, &mut installs);
                            }
                        }
                    }
                    6..=8 => {
                        let batch: Vec<String> =
                            (0..rng.random_range(1..5)).map(|_| pick(&mut rng)).collect();
                        let batch: Vec<&str> = batch.iter().map(String::as_str).collect();
                        memo_answers +=
                            batch.iter().filter(|p| c.near_memo.contains_key(**p)).count();
                        let want: Vec<_> = batch.iter().map(|p| probe_direct(&c, p)).collect();
                        let got = c.lookup_batch(&batch);
                        for ((g, (w, _)), p) in got.iter().zip(&want).zip(&batch) {
                            let w = match w {
                                CacheOutcome::ExactHit(r)
                                | CacheOutcome::NearHit { response: r, .. } => Some(r),
                                CacheOutcome::Miss => None,
                            };
                            assert_eq!(g.as_ref(), w, "{tier} step {step}: batch {p}");
                        }
                        // Exact hits touch first, then near hits, each in
                        // batch order; the recency tail shows the last touch
                        // of each entry.
                        let is_exact = |w: &CacheOutcome| matches!(w, CacheOutcome::ExactHit(_));
                        let (exact, nearby): (Vec<_>, Vec<_>) =
                            want.iter().partition(|(w, _)| is_exact(w));
                        let touched: Vec<usize> =
                            exact.iter().chain(&nearby).filter_map(|(_, id)| *id).collect();
                        let mut tail: Vec<usize> = Vec::new();
                        for &id in touched.iter().rev() {
                            if !tail.contains(&id) {
                                tail.push(id);
                            }
                        }
                        assert_eq!(
                            recent_ids(&c, tail.len()),
                            tail,
                            "{tier} step {step}: batch touches"
                        );
                    }
                    _ => {
                        // Upgrade a live entry in place: a memoized near hit
                        // on it must serve the new response.
                        let live = c.live_entries_versioned();
                        let (p, _, v) = live[rng.random_range(0..live.len())];
                        let (p, v) = (p.to_string(), v);
                        assert!(c.insert_versioned(&p, &format!("{p} [v{}]", v + 1), v + 1));
                    }
                }
                compactions += usize::from(c.entries.len() < before);
                memo_peak = memo_peak.max(c.near_memo.len());
                assert!(c.near_memo.len() <= capacity, "{tier} step {step}: memo over capacity");
            }
            assert_eq!(
                (c.hits(), c.near_hits(), c.misses(), c.evictions()),
                (hits, near, misses, installs - c.len() as u64),
                "{tier}: counters"
            );
            assert!(c.store_error().is_none(), "{tier}");
            assert!(compactions > 0, "{tier}: the fallback compaction never fired");
            assert_eq!(memo_peak, capacity, "{tier}: the memo never filled");
            assert!(
                memo_answers > 400 && near > 400 && misses > 0,
                "{tier}: memo {memo_answers}, near {near}"
            );
            if pq {
                assert!(c.index.probe_bytes_per_vector() < c.embedder.dim(), "PQ never trained");
            }
            std::fs::remove_dir_all(&dir).unwrap();
        }
    }

    /// An embedder that counts its calls.
    struct Counting(NgramEmbedder, std::rc::Rc<std::cell::Cell<usize>>);

    impl Embedder for Counting {
        fn dim(&self) -> usize {
            self.0.dim()
        }
        fn embed(&self, text: &str) -> Vec<f32> {
            self.1.set(self.1.get() + 1);
            self.0.embed(text)
        }
    }

    #[test]
    fn a_repeat_near_hit_embeds_once_until_the_next_insert() {
        let calls = std::rc::Rc::new(std::cell::Cell::new(0));
        let config =
            SemanticCacheConfig { capacity: 8, tau: 0.2, ..SemanticCacheConfig::default() };
        let mut c = SemanticCache::new(config, Counting(NgramEmbedder::default(), calls.clone()));
        c.insert("please sort this list of numbers for me", "r1");
        let variant = "please sort this list of numbers for me!";
        let near = |c: &mut SemanticCache<Counting>| match c.lookup(variant) {
            CacheOutcome::NearHit { response, .. } => response,
            other => panic!("expected a near hit, got {other:?}"),
        };
        calls.set(0);
        assert_eq!((near(&mut c), near(&mut c)), ("r1".to_string(), "r1".to_string()));
        assert_eq!(calls.get(), 1, "the repeat must be answered by the memo");
        // An upgrade leaves the graph alone: the memo still answers, with
        // the new response.
        c.insert_versioned("please sort this list of numbers for me", "r2", 2);
        assert_eq!((near(&mut c), calls.get()), ("r2".to_string(), 1));
        // An insert changes the graph: the next probe embeds again.
        c.insert("write a poem about the autumn moon", "r3");
        calls.set(0);
        assert_eq!((near(&mut c), near(&mut c)), ("r2".to_string(), "r2".to_string()));
        assert_eq!(calls.get(), 1);
        assert_eq!(c.near_hits(), 5);
    }
}
