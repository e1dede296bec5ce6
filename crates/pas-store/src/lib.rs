//! Crash-safe storage pieces.
//!
//! PAS's serving stack derives expensive state from cheap inputs —
//! embeddings, the near tier's index rows, semantic-cache entries — and
//! before this crate it all died with the process. `pas-store`
//! holds the pieces that state persists through; the semantic cache
//! (`pas_gateway::SemanticCache`) is the one index built on top of them:
//!
//! - [`record`] — [`Record`]: the `vec:{id}` / `meta:{id}` / tombstone
//!   records ([`RecordMeta`] carries the sidecar) and their CRC'd framing.
//! - [`segment`] — [`SegmentLog`]: an append-only log of records,
//!   config-fingerprinted headers, torn-tail recovery, and atomic
//!   generation-based compaction. The design generalizes
//!   `pas_fault::Journal` from JSONL lines to binary frames.
//! - [`snapshot`] — an atomically-replaced checkpoint file holding an
//!   opaque payload (the cache's entry table and its live index rows) pinned
//!   to a log position, so a warm open restores the state and replays
//!   only the log suffix.
//! - [`wire`] and [`crc`] — the little-endian codec and the CRC-32 the
//!   formats share.
//!
//! **Crash safety** is proven by sweep: `pas_fault::DiskFaults` can kill
//! the log at every durability boundary, and `tests/chaos.rs` reopens the
//! semantic cache after each kill and checks the recovered state is one
//! the interrupted op allows — no duplicates, no ghosts, no torn frames
//! surviving — and that warm and cold reopens agree bit for bit.

pub mod crc;
pub mod record;
pub mod segment;
pub mod snapshot;
pub mod wire;

pub use record::{Record, RecordMeta};
pub use segment::{SegmentLog, StoreConfig};
pub use snapshot::{read_snapshot, write_snapshot, SnapshotData};

// Observability: segment files opened/created, compactions run, records
// replayed at open, torn tails truncated at open, and bytes across the
// current generation's files. Recovery counters depend on where a run was
// killed, so they are bench/CLI-recorded only — keep them out of golden
// fixtures.
pub(crate) static OBS_SEGMENTS: pas_obs::Counter = pas_obs::Counter::new("store.segments");
pub(crate) static OBS_COMPACTIONS: pas_obs::Counter = pas_obs::Counter::new("store.compactions");
pub(crate) static OBS_RECOVERED: pas_obs::Counter =
    pas_obs::Counter::new("store.recovered_records");
pub(crate) static OBS_TORN_TAILS: pas_obs::Counter = pas_obs::Counter::new("store.torn_tails");
pub(crate) static OBS_BYTES: pas_obs::Gauge = pas_obs::Gauge::new("store.bytes");
