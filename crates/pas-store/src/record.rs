//! The three record kinds of the segment log and their framing.
//!
//! On disk every record is `[len: u32][kind: u8][payload][crc: u32]` where
//! `len` covers kind + payload and the CRC covers the same bytes. The CRC
//! sits *after* the payload so a torn append (crash mid-write) is detected
//! by either a short frame or a CRC mismatch — recovery truncates at the
//! record start (see [`crate::segment`]).
//!
//! Semantics are defined by replay order:
//!
//! - `vec:{id}` carries the vector and *commits* id — an id exists once
//!   its vector record is durable.
//! - `meta:{id}` carries the sidecar metadata and is written *before* the
//!   vector record, so a crash between the two leaves an invisible orphan
//!   rather than a half-materialized entry.
//! - A tombstone kills id permanently: replay ignores any later records
//!   for it (no ghost resurrection, no id reuse).

use crate::wire::{self, Reader};
use std::io;

/// Sidecar metadata stored alongside a vector. `category` (the semantic
/// cache's record kind) and `degraded` are first-class bytes of the record
/// format; everything else rides in `fields` key-value pairs.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RecordMeta {
    /// Free-form category label (e.g. a route or tenant).
    pub category: String,
    /// True when the entry was produced on a degraded path.
    pub degraded: bool,
    /// Recency/priority stamp — the semantic cache stores its LRU clock
    /// here so replay restores eviction order.
    pub stamp: u64,
    /// Open key-value sidecar (e.g. prompt/response text).
    pub fields: Vec<(String, String)>,
}

impl RecordMeta {
    /// First value stored under `key`, if any.
    pub fn field(&self, key: &str) -> Option<&str> {
        self.fields.iter().find(|(k, _)| k == key).map(|(_, v)| v.as_str())
    }
}

/// One logical log record.
#[derive(Debug, Clone, PartialEq)]
pub enum Record {
    /// Commits `id` with its vector (raw f32 bits; may be empty when the
    /// producer indexes nothing, e.g. a cache running with `tau == 0`).
    Vector { id: u64, vector: Vec<f32> },
    /// Sidecar metadata for `id`; written before the vector record.
    Meta { id: u64, meta: RecordMeta },
    /// Permanently kills `id`.
    Tombstone { id: u64 },
}

const KIND_VECTOR: u8 = 1;
const KIND_META: u8 = 2;
const KIND_TOMBSTONE: u8 = 3;

impl Record {
    /// The id this record is about.
    pub fn id(&self) -> u64 {
        match self {
            Record::Vector { id, .. } | Record::Meta { id, .. } | Record::Tombstone { id } => *id,
        }
    }

    fn kind(&self) -> u8 {
        match self {
            Record::Vector { .. } => KIND_VECTOR,
            Record::Meta { .. } => KIND_META,
            Record::Tombstone { .. } => KIND_TOMBSTONE,
        }
    }

    fn payload(&self) -> Vec<u8> {
        let mut out = Vec::new();
        match self {
            Record::Vector { id, vector } => {
                wire::put_u64(&mut out, *id);
                wire::put_u32(&mut out, vector.len() as u32);
                for &x in vector {
                    wire::put_f32(&mut out, x);
                }
            }
            Record::Meta { id, meta } => {
                wire::put_u64(&mut out, *id);
                wire::put_str(&mut out, &meta.category);
                out.push(meta.degraded as u8);
                wire::put_u64(&mut out, meta.stamp);
                wire::put_u32(&mut out, meta.fields.len() as u32);
                for (k, v) in &meta.fields {
                    wire::put_str(&mut out, k);
                    wire::put_str(&mut out, v);
                }
            }
            Record::Tombstone { id } => wire::put_u64(&mut out, *id),
        }
        out
    }

    /// Encodes the full frame: `[len][kind][payload][crc]`.
    pub fn encode(&self) -> Vec<u8> {
        let payload = self.payload();
        let mut out = Vec::with_capacity(payload.len() + 9);
        wire::put_u32(&mut out, (payload.len() + 1) as u32);
        out.push(self.kind());
        out.extend_from_slice(&payload);
        let crc = crate::crc::crc32(&out[4..]);
        wire::put_u32(&mut out, crc);
        out
    }

    /// Decodes the body of a frame (`kind` byte + payload, CRC already
    /// verified by the segment reader).
    pub fn decode(body: &[u8]) -> io::Result<Record> {
        let mut r = Reader::new(body);
        let kind = r.u8()?;
        let rec = match kind {
            KIND_VECTOR => {
                let id = r.u64()?;
                let len = r.u32()? as usize;
                if len > body.len() {
                    return Err(wire::corrupt("vector record: length exceeds frame"));
                }
                let mut vector = Vec::with_capacity(len);
                for _ in 0..len {
                    vector.push(r.f32()?);
                }
                Record::Vector { id, vector }
            }
            KIND_META => {
                let id = r.u64()?;
                let category = r.str()?;
                let degraded = r.u8()? != 0;
                let stamp = r.u64()?;
                let n = r.u32()? as usize;
                if n > body.len() {
                    return Err(wire::corrupt("meta record: field count exceeds frame"));
                }
                let mut fields = Vec::with_capacity(n);
                for _ in 0..n {
                    let k = r.str()?;
                    let v = r.str()?;
                    fields.push((k, v));
                }
                Record::Meta { id, meta: RecordMeta { category, degraded, stamp, fields } }
            }
            KIND_TOMBSTONE => Record::Tombstone { id: r.u64()? },
            _ => return Err(wire::corrupt("record: unknown kind")),
        };
        if !r.is_empty() {
            return Err(wire::corrupt("record: trailing bytes"));
        }
        Ok(rec)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn round_trip(rec: Record) {
        let frame = rec.encode();
        let len = u32::from_le_bytes(frame[..4].try_into().unwrap()) as usize;
        assert_eq!(frame.len(), 4 + len + 4);
        let body = &frame[4..4 + len];
        assert_eq!(
            crate::crc::crc32(body),
            u32::from_le_bytes(frame[4 + len..].try_into().unwrap())
        );
        assert_eq!(Record::decode(body).unwrap(), rec);
    }

    #[test]
    fn all_kinds_round_trip() {
        round_trip(Record::Vector { id: 7, vector: vec![1.5, -0.25, f32::MIN_POSITIVE] });
        round_trip(Record::Vector { id: 0, vector: Vec::new() });
        round_trip(Record::Meta {
            id: 9,
            meta: RecordMeta {
                category: "route-a".into(),
                degraded: true,
                stamp: 41,
                fields: vec![("p".into(), "prompt text".into()), ("r".into(), "resp".into())],
            },
        });
        round_trip(Record::Tombstone { id: u64::MAX });
    }

    #[test]
    fn decode_rejects_garbage() {
        assert!(Record::decode(&[]).is_err());
        assert!(Record::decode(&[99, 0, 0]).is_err());
        let mut frame = Record::Tombstone { id: 3 }.encode();
        let len = frame.len();
        frame.truncate(len - 5); // chop into the payload
        assert!(Record::decode(&frame[4..]).is_err());
    }
}
