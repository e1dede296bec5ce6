//! Approximate nearest-neighbour search and near-duplicate detection.
//!
//! The PAS data-selection pipeline (§3.1 of the paper) deduplicates prompt
//! embeddings with HNSW. This crate implements that substrate from scratch:
//!
//! - [`hnsw`] — a Hierarchical Navigable Small World index (Malkov &
//!   Yashunin, 2016): multi-layer greedy graph search, `ef`-bounded beam
//!   construction, seeded level assignment.
//! - [`exact`] — a brute-force scanner with the same query interface and
//!   stable ids under removal: the semantic cache's near tier, the ground
//!   truth in recall tests and the baseline in benches.
//! - [`dedup`] — the near-duplicate grouping engine built on the index.
//! - [`minhash`] — MinHash signatures + LSH banding: the classical
//!   near-duplicate detector, as an alternative dedup backend and a
//!   cross-check for the embedding route.
//! - [`metric`] — pluggable distance metrics.

pub mod dedup;
pub mod exact;
pub mod hnsw;
pub mod metric;
pub mod minhash;

pub use dedup::{DedupConfig, DedupOutcome, Deduplicator};
pub use exact::ExactIndex;
pub use hnsw::{Hnsw, HnswConfig};
pub use metric::{CosineDistance, EuclideanDistance, Metric};
pub use minhash::{LshIndex, MinHashConfig, MinHashDeduplicator, MinHasher, Signature};

/// A search hit: item id plus its distance to the query (smaller = closer).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Neighbor {
    /// Index of the item in insertion order.
    pub id: usize,
    /// Distance under the index's metric.
    pub distance: f32,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hnsw_and_exact_agree_on_nearest_neighbor() {
        let vecs: Vec<Vec<f32>> = (0..200)
            .map(|i| {
                let x = (i as f32) * 0.31;
                let mut v = vec![x.sin(), x.cos(), (x * 0.5).sin(), (x * 0.7).cos()];
                pas_embed::normalize_in_place(&mut v);
                v
            })
            .collect();
        let mut hnsw = Hnsw::new(HnswConfig::default(), CosineDistance);
        let mut exact = ExactIndex::new(CosineDistance);
        for v in &vecs {
            hnsw.insert(v.clone());
            exact.insert(v.clone());
        }
        let mut agree = 0;
        for v in vecs.iter().step_by(10) {
            let h = hnsw.search(v, 1, 64);
            let e = exact.search(v, 1);
            if h[0].id == e[0].id {
                agree += 1;
            }
        }
        assert!(agree >= 18, "HNSW top-1 agreement too low: {agree}/20");
    }
}
