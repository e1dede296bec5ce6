//! Dense embedding via seeded sign-random projection.
//!
//! Each hashed feature deterministically seeds a splitmix64 stream that
//! yields a ±1 sign per output dimension; the embedding is the weighted sum
//! of those sign vectors, L2-normalized. By the Johnson–Lindenstrauss
//! property, cosine similarity in the projected space approximates cosine
//! similarity of the sparse TF bags — which is what the HNSW dedup consumes.
//!
//! The projection adds eight slots at a time: each byte of a stream word
//! picks a row of `±1.0` signs from a 256-row table, and each slot adds
//! `w * sign`. That product is exactly `±w`, and every slot still sums its
//! features one at a time in bag order, so the lanes change how many adds
//! run per instruction, never which adds happen or in what order: the
//! vector is bit-identical to a per-bit loop (DESIGN.md §6, "Kernel
//! determinism").

use crate::features::{feature_bag, FeatureBag};
use crate::vector::normalize_in_place;

/// Anything that maps text to a fixed-dimension unit vector.
pub trait Embedder {
    /// Output dimensionality.
    fn dim(&self) -> usize;

    /// Embeds one text into a unit vector of [`Self::dim`] components.
    fn embed(&self, text: &str) -> Vec<f32>;

    /// Embeds a batch (default: map [`Self::embed`]).
    fn embed_batch(&self, texts: &[&str]) -> Vec<Vec<f32>> {
        texts.iter().map(|t| self.embed(t)).collect()
    }
}

/// The workspace's SimCSE-bge substitute: hashed n-gram features projected
/// with per-feature sign streams.
#[derive(Debug, Clone)]
pub struct NgramEmbedder {
    dim: usize,
    seed: u64,
}

impl Default for NgramEmbedder {
    fn default() -> Self {
        NgramEmbedder::new(64, 0x5eed_cafe)
    }
}

/// `SIGNS[b][j]` is `1.0` when bit `j` of `b` is set and `-1.0` when it is
/// clear: the signs of the eight slots that byte `b` of a stream word covers.
static SIGNS: [[f32; 8]; 256] = sign_table();

const fn sign_table() -> [[f32; 8]; 256] {
    let mut table = [[-1.0f32; 8]; 256];
    let mut b = 0;
    while b < 256 {
        let mut j = 0;
        while j < 8 {
            if (b >> j) & 1 == 1 {
                table[b][j] = 1.0;
            }
            j += 1;
        }
        b += 1;
    }
    table
}

#[inline]
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

impl NgramEmbedder {
    /// Creates an embedder with output dimension `dim` (must be positive)
    /// and projection `seed`. Two embedders with the same parameters produce
    /// identical embeddings.
    pub fn new(dim: usize, seed: u64) -> Self {
        assert!(dim > 0, "embedding dimension must be positive");
        NgramEmbedder { dim, seed }
    }

    /// Projects an explicit feature bag (used when the caller already has
    /// IDF-reweighted features).
    pub fn project(&self, entries: &[(u64, f32)]) -> Vec<f32> {
        // Padded to whole 8-slot lanes; the padding is cut before normalizing.
        let mut out = vec![0.0f32; self.dim.next_multiple_of(8)];
        for &(h, w) in entries {
            let mut state = h ^ self.seed;
            // One stream word signs 64 slots: bit j of byte k signs slot 8k + j.
            for block in out.chunks_mut(64) {
                let word = splitmix64(&mut state);
                for (lanes, byte) in block.chunks_exact_mut(8).zip(word.to_le_bytes()) {
                    for (slot, sign) in lanes.iter_mut().zip(SIGNS[usize::from(byte)]) {
                        *slot += w * sign;
                    }
                }
            }
        }
        out.truncate(self.dim);
        normalize_in_place(&mut out);
        out
    }

    /// Embeds a pre-extracted bag.
    pub fn embed_bag(&self, bag: &FeatureBag) -> Vec<f32> {
        self.project(bag.entries())
    }
}

impl Embedder for NgramEmbedder {
    fn dim(&self) -> usize {
        self.dim
    }

    fn embed(&self, text: &str) -> Vec<f32> {
        self.embed_bag(&feature_bag(text))
    }

    /// Parallel batch embedding. Each text embeds independently of every
    /// other (pure function of the text), so the ordered `par_map` returns
    /// exactly what the serial loop would.
    fn embed_batch(&self, texts: &[&str]) -> Vec<Vec<f32>> {
        pas_par::par_map(texts, |_, t| self.embed(t))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::vector::{cosine, l2_norm};

    #[test]
    fn embeddings_are_unit_norm() {
        let e = NgramEmbedder::default();
        let v = e.embed("a perfectly ordinary sentence");
        assert!((l2_norm(&v) - 1.0).abs() < 1e-5);
    }

    #[test]
    fn empty_text_embeds_to_zero_vector() {
        let e = NgramEmbedder::default();
        let v = e.embed("");
        assert!(v.iter().all(|&x| x == 0.0));
    }

    #[test]
    fn deterministic_across_instances() {
        let a = NgramEmbedder::new(32, 7).embed("determinism matters");
        let b = NgramEmbedder::new(32, 7).embed("determinism matters");
        assert_eq!(a, b);
    }

    #[test]
    fn different_seeds_differ() {
        let a = NgramEmbedder::new(32, 1).embed("same text");
        let b = NgramEmbedder::new(32, 2).embed("same text");
        assert_ne!(a, b);
    }

    #[test]
    fn dim_is_respected() {
        let e = NgramEmbedder::new(17, 0);
        assert_eq!(e.embed("x").len(), 17);
        assert_eq!(e.dim(), 17);
    }

    #[test]
    fn paraphrase_closer_than_unrelated() {
        let e = NgramEmbedder::default();
        let base = e.embed("how can I quickly boil water in ancient times");
        let para = e.embed("how to boil water quickly in ancient times");
        let other = e.embed("derive the gradient of the softmax function");
        assert!(cosine(&base, &para) > cosine(&base, &other) + 0.2);
    }

    #[test]
    fn batch_matches_single() {
        let e = NgramEmbedder::default();
        let batch = e.embed_batch(&["one", "two"]);
        assert_eq!(batch[0], e.embed("one"));
        assert_eq!(batch[1], e.embed("two"));
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_dim_rejected() {
        NgramEmbedder::new(0, 0);
    }
}
