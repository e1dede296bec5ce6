//! The append-only segment log.
//!
//! A store directory holds one *generation* of segment files named
//! `seg-{generation:06}-{seq:06}.log`. Each file starts with a CRC'd
//! header (magic, config fingerprint, generation, seq, and the index of
//! the first record it holds) followed by framed records
//! ([`Record::encode`]). Appends flush per record; when the current file
//! exceeds [`StoreConfig::segment_max_bytes`] the log rolls to the next
//! seq.
//!
//! **Compaction** rewrites the live records as generation `g+1`: one new
//! segment is built in a temp file and atomically renamed in, then the old
//! generation's files are deleted. Every step is restartable — on open the
//! highest *complete* generation wins, stray temp files and lower
//! generations are swept, so a crash at any compaction boundary converges
//! to either the old or the new generation, never a mix.
//!
//! **Recovery rules** (mirroring `pas_fault::Journal`): a fingerprint
//! mismatch is a hard error (the log belongs to a different config); a
//! torn record or torn header is tolerated only at the *tail of the last
//! segment* — it is truncated away and counted in `store.torn_tails` —
//! while corruption anywhere else is a hard error. Replay therefore
//! recovers exactly the durable record prefix of the current generation.
//!
//! Every durability boundary consults an optional
//! [`pas_fault::DiskFaults`] schedule first, so chaos tests can kill the
//! log at any append/roll/compact step; a fired fault poisons the handle
//! (all further operations error) exactly like a dead process.

use std::fs::{self, File, OpenOptions};
use std::io::{self, Read, Write};
use std::path::{Path, PathBuf};

use pas_fault::{DiskFault, DiskFaultKind, DiskFaults};

use crate::crc::crc32;
use crate::record::Record;
use crate::wire::{self, Reader};
use crate::{OBS_BYTES, OBS_COMPACTIONS, OBS_RECOVERED, OBS_SEGMENTS, OBS_TORN_TAILS};

/// Magic prefix of every segment file.
const SEG_MAGIC: &[u8] = b"PASSEG01";

/// Header: magic(8) + fingerprint(8) + generation(8) + seq(8) +
/// first_op(8) + crc(4).
const HEADER_LEN: usize = 44;

/// Segment-log tuning knobs. The roll trigger is a function of byte counts
/// only, so log layout is deterministic for a given op sequence.
#[derive(Debug, Clone)]
pub struct StoreConfig {
    /// Configuration fingerprint stamped into every header; opening a
    /// directory written under a different fingerprint is a hard error.
    pub fingerprint: u64,
    /// Roll to a new segment file once the current one exceeds this.
    pub segment_max_bytes: u64,
}

impl Default for StoreConfig {
    fn default() -> Self {
        StoreConfig { fingerprint: 0, segment_max_bytes: 4 << 20 }
    }
}

/// The path of segment `(generation, seq)` under `dir`.
fn segment_path(dir: &Path, generation: u64, seq: u64) -> PathBuf {
    dir.join(format!("seg-{generation:06}-{seq:06}.log"))
}

/// Parses a segment filename back into `(generation, seq)`.
fn parse_segment_name(name: &str) -> Option<(u64, u64)> {
    let rest = name.strip_prefix("seg-")?.strip_suffix(".log")?;
    let (g, s) = rest.split_once('-')?;
    Some((g.parse().ok()?, s.parse().ok()?))
}

fn encode_header(fingerprint: u64, generation: u64, seq: u64, first_op: u64) -> Vec<u8> {
    let mut out = Vec::with_capacity(HEADER_LEN);
    out.extend_from_slice(SEG_MAGIC);
    wire::put_u64(&mut out, fingerprint);
    wire::put_u64(&mut out, generation);
    wire::put_u64(&mut out, seq);
    wire::put_u64(&mut out, first_op);
    let crc = crc32(&out);
    wire::put_u32(&mut out, crc);
    out
}

/// Outcome of decoding one record frame.
enum Frame {
    Rec(Record, usize),
    Incomplete,
    Corrupt,
}

/// A decoded, CRC-valid segment header.
struct Header {
    fingerprint: u64,
    generation: u64,
    seq: u64,
    first_op: u64,
}

fn decode_header(bytes: &[u8]) -> Option<Header> {
    if bytes.len() < HEADER_LEN || &bytes[..8] != SEG_MAGIC {
        return None;
    }
    let mut r = Reader::new(&bytes[8..HEADER_LEN]);
    let fingerprint = r.u64().ok()?;
    let generation = r.u64().ok()?;
    let seq = r.u64().ok()?;
    let first_op = r.u64().ok()?;
    let crc = r.u32().ok()?;
    if crc != crc32(&bytes[..HEADER_LEN - 4]) {
        return None;
    }
    Some(Header { fingerprint, generation, seq, first_op })
}

/// The append-only, CRC'd, generation-compacted segment log.
#[derive(Debug)]
pub struct SegmentLog {
    dir: PathBuf,
    config: StoreConfig,
    faults: Option<DiskFaults>,
    generation: u64,
    /// Seq the *next* segment file will get.
    next_seq: u64,
    /// Records in the current generation (replayed + appended).
    op_count: u64,
    current: Option<File>,
    current_bytes: u64,
    /// Bytes across all current-generation files (headers included).
    total_bytes: u64,
    poisoned: bool,
}

impl SegmentLog {
    /// Opens (or creates) the log in `dir` and replays the durable record
    /// prefix of the newest complete generation. Leftovers of interrupted
    /// compactions — temp files, superseded generations — are swept here,
    /// which is what makes every compaction crash point recoverable.
    pub fn open(
        dir: &Path,
        config: StoreConfig,
        faults: Option<DiskFaults>,
    ) -> io::Result<(SegmentLog, Vec<Record>)> {
        fs::create_dir_all(dir)?;
        let mut segments: Vec<(u64, u64, PathBuf)> = Vec::new();
        for entry in fs::read_dir(dir)? {
            let path = entry?.path();
            let name = path.file_name().and_then(|n| n.to_str()).unwrap_or("");
            if name.ends_with(".tmp") {
                fs::remove_file(&path)?;
            } else if let Some((g, s)) = parse_segment_name(name) {
                segments.push((g, s, path));
            }
        }
        let generation = segments.iter().map(|&(g, _, _)| g).max().unwrap_or(0);
        // Sweep superseded generations (a compaction renamed its segment in
        // but died before the cleanup step).
        segments.retain(|&(g, _, ref path)| {
            if g < generation {
                let _ = fs::remove_file(path);
                false
            } else {
                true
            }
        });
        segments.sort_by_key(|&(_, s, _)| s);

        let mut log = SegmentLog {
            dir: dir.to_path_buf(),
            config,
            faults,
            generation,
            next_seq: 0,
            op_count: 0,
            current: None,
            current_bytes: 0,
            total_bytes: 0,
            poisoned: false,
        };
        let mut records = Vec::new();
        let last = segments.len().saturating_sub(1);
        for (i, (_, seq, path)) in segments.iter().enumerate() {
            let keep = log.replay_segment(path, *seq, i == last, &mut records)?;
            if keep {
                log.next_seq = seq + 1;
            }
        }
        OBS_RECOVERED.add(records.len() as u64);
        OBS_BYTES.set(log.total_bytes);
        Ok((log, records))
    }

    /// Reads one segment file into `records`. Returns false when the file
    /// was dropped entirely (torn header on the last segment).
    fn replay_segment(
        &mut self,
        path: &Path,
        seq: u64,
        is_last: bool,
        records: &mut Vec<Record>,
    ) -> io::Result<bool> {
        // Read-path crash legs: a process can die mid-replay too. Nothing
        // is written on a read, so every kind degenerates to "crash before
        // the step" — reopen simply starts replay over from the top.
        if let Some(f) = &self.faults {
            f.check("replay.segment").map_err(|fault| fault.to_io())?;
        }
        let mut bytes = Vec::new();
        File::open(path)?.read_to_end(&mut bytes)?;
        let header = match decode_header(&bytes) {
            Some(h) => h,
            None if is_last => {
                // Torn while creating the file: nothing durable in it.
                OBS_TORN_TAILS.incr();
                fs::remove_file(path)?;
                return Ok(false);
            }
            None => return Err(wire::corrupt("segment header")),
        };
        if header.fingerprint != self.config.fingerprint {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!(
                    "pas-store: fingerprint mismatch in {} (found {:#x}, expected {:#x})",
                    path.display(),
                    header.fingerprint,
                    self.config.fingerprint
                ),
            ));
        }
        if header.generation != self.generation
            || header.seq != seq
            || header.first_op != self.op_count
        {
            return Err(wire::corrupt("segment sequence"));
        }
        let mut pos = HEADER_LEN;
        loop {
            if pos == bytes.len() {
                break;
            }
            if let Some(f) = &self.faults {
                f.check("replay.record").map_err(|fault| fault.to_io())?;
            }
            match Self::read_frame(&bytes[pos..]) {
                Frame::Rec(rec, used) => {
                    records.push(rec);
                    self.op_count += 1;
                    pos += used;
                }
                // An incomplete frame at the end of the last segment is a
                // torn append: truncate it away. A *complete* frame that
                // fails its CRC is in-place corruption — hard error, even
                // at the tail.
                Frame::Incomplete if is_last => {
                    OBS_TORN_TAILS.incr();
                    let file = OpenOptions::new().write(true).open(path)?;
                    file.set_len(pos as u64)?;
                    bytes.truncate(pos);
                    break;
                }
                Frame::Incomplete | Frame::Corrupt => return Err(wire::corrupt("segment record")),
            }
        }
        self.total_bytes += bytes.len() as u64;
        if is_last {
            self.current = Some(OpenOptions::new().append(true).open(path)?);
            self.current_bytes = bytes.len() as u64;
        }
        OBS_SEGMENTS.incr();
        Ok(true)
    }

    /// Decodes one record frame from the front of `buf`. `Incomplete`
    /// means the frame runs past the end of the buffer (the shape every
    /// torn append has — a short write lands a prefix of the true frame);
    /// `Corrupt` means a complete frame failed its CRC or decode.
    fn read_frame(buf: &[u8]) -> Frame {
        if buf.len() < 4 {
            return Frame::Incomplete;
        }
        let len = u32::from_le_bytes(buf[..4].try_into().expect("4 bytes")) as usize;
        if len == 0 {
            return Frame::Corrupt;
        }
        if buf.len() < 4 + len + 4 {
            return Frame::Incomplete;
        }
        let body = &buf[4..4 + len];
        let crc = u32::from_le_bytes(buf[4 + len..4 + len + 4].try_into().expect("4 bytes"));
        if crc != crc32(body) {
            return Frame::Corrupt;
        }
        match Record::decode(body) {
            Ok(rec) => Frame::Rec(rec, 4 + len + 4),
            Err(_) => Frame::Corrupt,
        }
    }

    /// Records appended to (or replayed from) the current generation.
    pub fn op_count(&self) -> u64 {
        self.op_count
    }

    /// The current compaction generation.
    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// Bytes across the current generation's segment files.
    pub fn bytes(&self) -> u64 {
        self.total_bytes
    }

    /// The store directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// The fault schedule, for sibling writers (the snapshot file).
    pub fn faults(&self) -> Option<&DiskFaults> {
        self.faults.as_ref()
    }

    /// True once a fired fault has poisoned this handle.
    pub fn poisoned(&self) -> bool {
        self.poisoned
    }

    fn check_poison(&self) -> io::Result<()> {
        if self.poisoned {
            return Err(io::Error::other("pas-store: log poisoned by injected fault"));
        }
        Ok(())
    }

    /// Writes `bytes` to `file` under fault control: a fired fault may
    /// land nothing, a seeded prefix, or everything-but-report-failure,
    /// and poisons the handle.
    fn faulted_write(
        &mut self,
        file: &mut File,
        bytes: &[u8],
        label: &'static str,
    ) -> io::Result<()> {
        if let Some(f) = &self.faults {
            if let Err(fault) = f.check(label) {
                self.poisoned = true;
                apply_fault(&fault, self.faults.as_ref().expect("faults"), file, bytes)?;
                return Err(fault.to_io());
            }
        }
        file.write_all(bytes)?;
        file.flush()?;
        Ok(())
    }

    /// Opens the next segment file and writes its header.
    fn roll(&mut self) -> io::Result<()> {
        let seq = self.next_seq;
        let path = segment_path(&self.dir, self.generation, seq);
        let header = encode_header(self.config.fingerprint, self.generation, seq, self.op_count);
        let mut file = File::create(&path)?;
        self.faulted_write(&mut file, &header, "segment.roll")?;
        self.next_seq = seq + 1;
        self.current = Some(file);
        self.current_bytes = header.len() as u64;
        self.total_bytes += header.len() as u64;
        OBS_SEGMENTS.incr();
        Ok(())
    }

    /// Appends one record (flushed before return) and returns its op index
    /// within the current generation.
    pub fn append(&mut self, record: &Record) -> io::Result<u64> {
        self.check_poison()?;
        let frame = record.encode();
        if self.current.is_none()
            || self.current_bytes + frame.len() as u64 > self.config.segment_max_bytes
        {
            self.roll()?;
        }
        let mut file = self.current.take().expect("rolled above");
        let res = self.faulted_write(&mut file, &frame, "append");
        self.current = Some(file);
        res?;
        let op = self.op_count;
        self.op_count += 1;
        self.current_bytes += frame.len() as u64;
        self.total_bytes += frame.len() as u64;
        OBS_BYTES.set(self.total_bytes);
        Ok(op)
    }

    /// Rewrites the log as generation `g+1` containing exactly `live`, in
    /// order. On success the old generation's files are gone and
    /// [`SegmentLog::op_count`] restarts at `live.len()`.
    ///
    /// Crash-safe at every boundary: the new segment is staged in a temp
    /// file and renamed in atomically, and [`SegmentLog::open`] sweeps
    /// whichever half-state a crash leaves behind (temp file → old
    /// generation wins; renamed but uncleaned → new generation wins and
    /// the leftovers are deleted).
    pub fn compact(&mut self, live: &[Record]) -> io::Result<()> {
        self.check_poison()?;
        if let Some(f) = &self.faults {
            if let Err(fault) = f.check("compact.begin") {
                self.poisoned = true;
                return Err(fault.to_io());
            }
        }
        let generation = self.generation + 1;
        let mut bytes = encode_header(self.config.fingerprint, generation, 0, 0);
        for rec in live {
            bytes.extend_from_slice(&rec.encode());
        }
        let tmp = self.dir.join("compact.tmp");
        {
            let mut file = File::create(&tmp)?;
            self.faulted_write(&mut file, &bytes, "compact.write")?;
        }
        let path = segment_path(&self.dir, generation, 0);
        if let Some(f) = &self.faults {
            if let Err(fault) = f.check("compact.rename") {
                self.poisoned = true;
                // FlushFail models "renamed, then the ack was lost".
                if fault.kind == DiskFaultKind::FlushFail {
                    fs::rename(&tmp, &path)?;
                }
                return Err(fault.to_io());
            }
        }
        fs::rename(&tmp, &path)?;
        let cleanup_fault = self.faults.as_ref().and_then(|f| f.check("compact.cleanup").err());
        if let Some(fault) = &cleanup_fault {
            self.poisoned = true;
            if fault.kind != DiskFaultKind::FlushFail {
                return Err(fault.to_io());
            }
        }
        for entry in fs::read_dir(&self.dir)? {
            let p = entry?.path();
            let name = p.file_name().and_then(|n| n.to_str()).unwrap_or("");
            if let Some((g, _)) = parse_segment_name(name) {
                if g < generation {
                    fs::remove_file(&p)?;
                }
            }
        }
        if let Some(fault) = cleanup_fault {
            return Err(fault.to_io());
        }
        self.generation = generation;
        self.next_seq = 1;
        self.op_count = live.len() as u64;
        self.current = Some(OpenOptions::new().append(true).open(&path)?);
        self.current_bytes = bytes.len() as u64;
        self.total_bytes = bytes.len() as u64;
        OBS_COMPACTIONS.incr();
        OBS_SEGMENTS.incr();
        OBS_BYTES.set(self.total_bytes);
        Ok(())
    }
}

/// Applies a fired fault's partial effect to `file`.
fn apply_fault(
    fault: &DiskFault,
    faults: &DiskFaults,
    file: &mut File,
    bytes: &[u8],
) -> io::Result<()> {
    match fault.kind {
        DiskFaultKind::CleanCrash => Ok(()),
        DiskFaultKind::ShortWrite => {
            let n = faults.short_len_at(fault.op, bytes.len());
            file.write_all(&bytes[..n])?;
            file.flush()
        }
        DiskFaultKind::FlushFail => {
            file.write_all(bytes)?;
            file.flush()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::RecordMeta;
    use std::env::temp_dir;

    fn tmp(name: &str) -> PathBuf {
        let dir = temp_dir().join(format!("pas-store-seg-{}-{name}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    fn vec_rec(id: u64) -> Record {
        Record::Vector { id, vector: vec![id as f32, -1.0] }
    }

    fn meta_rec(id: u64) -> Record {
        Record::Meta {
            id,
            meta: RecordMeta { category: format!("c{}", id % 3), stamp: id, ..Default::default() },
        }
    }

    #[test]
    fn append_reopen_replays_in_order() {
        let dir = tmp("replay");
        let cfg = StoreConfig { fingerprint: 0xabc, ..Default::default() };
        let mut want = Vec::new();
        {
            let (mut log, records) = SegmentLog::open(&dir, cfg.clone(), None).unwrap();
            assert!(records.is_empty());
            for id in 0..20 {
                for rec in [meta_rec(id), vec_rec(id)] {
                    log.append(&rec).unwrap();
                    want.push(rec);
                }
            }
            log.append(&Record::Tombstone { id: 3 }).unwrap();
            want.push(Record::Tombstone { id: 3 });
        }
        let (log, records) = SegmentLog::open(&dir, cfg, None).unwrap();
        assert_eq!(records, want);
        assert_eq!(log.op_count(), 41);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn wrong_fingerprint_is_a_hard_error() {
        let dir = tmp("fingerprint");
        let cfg = StoreConfig { fingerprint: 1, ..Default::default() };
        {
            let (mut log, _) = SegmentLog::open(&dir, cfg, None).unwrap();
            log.append(&vec_rec(0)).unwrap();
        }
        let err =
            SegmentLog::open(&dir, StoreConfig { fingerprint: 2, ..Default::default() }, None)
                .unwrap_err();
        assert!(err.to_string().contains("fingerprint"), "{err}");
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn small_segments_roll_and_replay_across_files() {
        let dir = tmp("roll");
        let cfg = StoreConfig { segment_max_bytes: 128, ..Default::default() };
        {
            let (mut log, _) = SegmentLog::open(&dir, cfg.clone(), None).unwrap();
            for id in 0..30 {
                log.append(&vec_rec(id)).unwrap();
            }
        }
        let files = fs::read_dir(&dir).unwrap().count();
        assert!(files > 1, "expected multiple segment files, got {files}");
        let (_, records) = SegmentLog::open(&dir, cfg, None).unwrap();
        assert_eq!(records.len(), 30);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn torn_tail_is_truncated_and_appends_continue() {
        let dir = tmp("torn");
        let cfg = StoreConfig::default();
        {
            let (mut log, _) = SegmentLog::open(&dir, cfg.clone(), None).unwrap();
            for id in 0..5 {
                log.append(&vec_rec(id)).unwrap();
            }
        }
        // Tear the tail: append half a frame to the only segment.
        let path = segment_path(&dir, 0, 0);
        let mut file = OpenOptions::new().append(true).open(&path).unwrap();
        let frame = vec_rec(99).encode();
        file.write_all(&frame[..frame.len() / 2]).unwrap();
        drop(file);
        let (mut log, records) = SegmentLog::open(&dir, cfg.clone(), None).unwrap();
        assert_eq!(records.len(), 5, "torn record dropped");
        log.append(&vec_rec(5)).unwrap();
        drop(log);
        let (_, records) = SegmentLog::open(&dir, cfg, None).unwrap();
        assert_eq!(records.len(), 6);
        assert_eq!(records[5], vec_rec(5));
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn mid_file_corruption_is_a_hard_error() {
        let dir = tmp("midfile");
        let cfg = StoreConfig::default();
        {
            let (mut log, _) = SegmentLog::open(&dir, cfg.clone(), None).unwrap();
            for id in 0..10 {
                log.append(&vec_rec(id)).unwrap();
            }
        }
        let path = segment_path(&dir, 0, 0);
        let mut bytes = fs::read(&path).unwrap();
        let mid = HEADER_LEN + 10; // inside the first record's payload
        bytes[mid] ^= 0xff;
        fs::write(&path, &bytes).unwrap();
        assert!(SegmentLog::open(&dir, cfg, None).is_err());
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn compaction_keeps_live_records_and_sweeps_old_generation() {
        let dir = tmp("compact");
        let cfg = StoreConfig::default();
        let live: Vec<Record> = (10..14).map(vec_rec).collect();
        {
            let (mut log, _) = SegmentLog::open(&dir, cfg.clone(), None).unwrap();
            for id in 0..8 {
                log.append(&vec_rec(id)).unwrap();
            }
            for id in 0..6 {
                log.append(&Record::Tombstone { id }).unwrap();
            }
            log.compact(&live).unwrap();
            assert_eq!(log.generation(), 1);
            assert_eq!(log.op_count(), 4);
            // Appends continue in the new generation.
            log.append(&vec_rec(14)).unwrap();
        }
        let (log, records) = SegmentLog::open(&dir, cfg, None).unwrap();
        assert_eq!(log.generation(), 1);
        assert_eq!(records.len(), 5);
        assert_eq!(&records[..4], &live[..]);
        assert_eq!(records[4], vec_rec(14));
        fs::remove_dir_all(&dir).unwrap();
    }
}
