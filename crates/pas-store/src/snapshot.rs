//! The checkpoint snapshot file.
//!
//! A snapshot pins an opaque payload (the semantic cache's entry table
//! and its live index rows) to a log position `(generation, op_count)`. On a
//! warm open the payload restores the state directly and only the log
//! records *after* `op_count` replay.
//!
//! Format: magic + fingerprint + generation + op_count + payload length +
//! payload + CRC-32 over everything before the CRC. The file is staged in
//! a temp file and atomically renamed in, so there is always at most one
//! complete snapshot; a torn or stale one is simply ignored (the log
//! alone fully determines the state — a snapshot is an accelerator, never
//! a source of truth). Only a fingerprint mismatch on an otherwise-valid
//! snapshot is a hard error, matching the segment-header rule.

use std::fs::{self, File};
use std::io::{self, Read};
use std::path::Path;

use pas_fault::{DiskFaultKind, DiskFaults};

use crate::crc::crc32;
use crate::wire::{self, Reader};

const SNAP_MAGIC: &[u8] = b"PASSNAP1";
const SNAP_FILE: &str = "checkpoint.snap";
const SNAP_TMP: &str = "checkpoint.tmp";

/// A decoded snapshot: the log position it captures and the opaque
/// payload.
#[derive(Debug, Clone, PartialEq)]
pub struct SnapshotData {
    /// Log generation the snapshot was taken in.
    pub generation: u64,
    /// Records of that generation already folded into the payload.
    pub op_count: u64,
    /// Caller-defined state blob.
    pub payload: Vec<u8>,
}

/// Atomically replaces the snapshot in `dir`. Consults `faults` at the
/// write and rename boundaries, so crash sweeps cover half-written and
/// unrenamed checkpoints.
pub fn write_snapshot(
    dir: &Path,
    fingerprint: u64,
    data: &SnapshotData,
    faults: Option<&DiskFaults>,
) -> io::Result<()> {
    let mut bytes = Vec::with_capacity(data.payload.len() + 40);
    bytes.extend_from_slice(SNAP_MAGIC);
    wire::put_u64(&mut bytes, fingerprint);
    wire::put_u64(&mut bytes, data.generation);
    wire::put_u64(&mut bytes, data.op_count);
    wire::put_u64(&mut bytes, data.payload.len() as u64);
    bytes.extend_from_slice(&data.payload);
    let crc = crc32(&bytes);
    wire::put_u32(&mut bytes, crc);

    let tmp = dir.join(SNAP_TMP);
    if let Some(f) = faults {
        if let Err(fault) = f.check("snapshot.write") {
            if fault.kind == DiskFaultKind::ShortWrite {
                let n = f.short_len_at(fault.op, bytes.len());
                fs::write(&tmp, &bytes[..n])?;
            } else if fault.kind == DiskFaultKind::FlushFail {
                fs::write(&tmp, &bytes)?;
            }
            return Err(fault.to_io());
        }
    }
    fs::write(&tmp, &bytes)?;
    let path = dir.join(SNAP_FILE);
    if let Some(f) = faults {
        if let Err(fault) = f.check("snapshot.rename") {
            if fault.kind == DiskFaultKind::FlushFail {
                fs::rename(&tmp, &path)?;
            }
            return Err(fault.to_io());
        }
    }
    fs::rename(&tmp, &path)?;
    Ok(())
}

/// Reads the snapshot in `dir`, if one exists and is intact. A missing,
/// torn, or CRC-failing snapshot returns `Ok(None)` — the caller falls
/// back to a full log replay. A fingerprint mismatch on an intact
/// snapshot is a hard error.
pub fn read_snapshot(dir: &Path, fingerprint: u64) -> io::Result<Option<SnapshotData>> {
    let path = dir.join(SNAP_FILE);
    let mut bytes = Vec::new();
    match File::open(&path) {
        Ok(mut f) => f.read_to_end(&mut bytes)?,
        Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok(None),
        Err(e) => return Err(e),
    };
    if bytes.len() < SNAP_MAGIC.len() + 28 + 4 || !bytes.starts_with(SNAP_MAGIC) {
        return Ok(None);
    }
    let body = &bytes[..bytes.len() - 4];
    let crc = u32::from_le_bytes(bytes[bytes.len() - 4..].try_into().expect("4 bytes"));
    if crc != crc32(body) {
        return Ok(None);
    }
    let mut r = Reader::new(&body[SNAP_MAGIC.len()..]);
    let found = r.u64()?;
    if found != fingerprint {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!(
                "pas-store: snapshot fingerprint mismatch (found {found:#x}, expected {fingerprint:#x})"
            ),
        ));
    }
    let generation = r.u64()?;
    let op_count = r.u64()?;
    let len = r.u64()? as usize;
    let payload = r.take(len)?.to_vec();
    if !r.is_empty() {
        return Ok(None);
    }
    Ok(Some(SnapshotData { generation, op_count, payload }))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::env::temp_dir;
    use std::path::PathBuf;

    fn tmp(name: &str) -> PathBuf {
        let dir = temp_dir().join(format!("pas-store-snap-{}-{name}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn round_trip_and_replace() {
        let dir = tmp("roundtrip");
        assert_eq!(read_snapshot(&dir, 7).unwrap(), None);
        let a = SnapshotData { generation: 1, op_count: 10, payload: vec![1, 2, 3] };
        write_snapshot(&dir, 7, &a, None).unwrap();
        assert_eq!(read_snapshot(&dir, 7).unwrap(), Some(a));
        let b = SnapshotData { generation: 2, op_count: 0, payload: vec![9; 100] };
        write_snapshot(&dir, 7, &b, None).unwrap();
        assert_eq!(read_snapshot(&dir, 7).unwrap(), Some(b));
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn torn_snapshot_is_ignored() {
        let dir = tmp("torn");
        let a = SnapshotData { generation: 0, op_count: 5, payload: vec![4; 64] };
        write_snapshot(&dir, 7, &a, None).unwrap();
        let path = dir.join(SNAP_FILE);
        let bytes = fs::read(&path).unwrap();
        fs::write(&path, &bytes[..bytes.len() / 2]).unwrap();
        assert_eq!(read_snapshot(&dir, 7).unwrap(), None);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn fingerprint_mismatch_is_a_hard_error() {
        let dir = tmp("fp");
        let a = SnapshotData { generation: 0, op_count: 0, payload: Vec::new() };
        write_snapshot(&dir, 7, &a, None).unwrap();
        assert!(read_snapshot(&dir, 8).is_err());
        fs::remove_dir_all(&dir).unwrap();
    }
}
