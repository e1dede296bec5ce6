//! Distance metrics for the vector indexes.
//!
//! Besides the plain two-slice [`Metric::distance`], a metric can define a
//! cheaper *prepared* form that the indexes store: [`Metric::prepare`]
//! converts a vector once at insert time (returning its original L2 norm),
//! and [`Metric::prepared_distance`] compares two prepared vectors.
//! [`CosineDistance`] uses this to store unit vectors, turning every probe
//! into `1 − dot` — no per-probe norms, no square roots.
//!
//! **Block probes** ([`Metric::prepared_distance_block`]) compare one query
//! against a packed panel of stored rows. Each output must be bit-identical
//! to the pairwise [`Metric::prepared_distance`]: cosine routes through
//! [`pas_kernels::dot_block`], whose per-row accumulation *is* the striped
//! [`pas_kernels::dot`].

use pas_kernels as kernels;

/// A distance function: smaller means more similar. Implementations must be
/// symmetric and return 0 for identical inputs.
pub trait Metric: Send + Sync {
    /// Distance between two equal-length raw vectors.
    fn distance(&self, a: &[f32], b: &[f32]) -> f32;

    /// Converts `v` into the form the indexes store, returning the original
    /// L2 norm. The default stores vectors unchanged.
    fn prepare(&self, v: &mut [f32]) -> f32 {
        kernels::sum_sq(v).sqrt()
    }

    /// Distance between two vectors already in stored form. Must equal
    /// [`Metric::distance`] of the raw vectors up to float rounding. The
    /// default is the identity-prepared case.
    fn prepared_distance(&self, a: &[f32], b: &[f32]) -> f32 {
        self.distance(a, b)
    }

    /// [`Metric::prepared_distance`] of `query` against every row of a
    /// packed panel (`out.len()` rows of `query.len()` elements). Outputs
    /// must be **bit-identical** to the pairwise calls — overrides may only
    /// change speed, never bits. The default loops.
    fn prepared_distance_block(&self, query: &[f32], panel: &[f32], out: &mut [f32]) {
        let d = query.len();
        assert_eq!(panel.len(), d * out.len(), "panel/rows mismatch");
        for (r, o) in out.iter_mut().enumerate() {
            *o = self.prepared_distance(query, &panel[r * d..(r + 1) * d]);
        }
    }
}

/// Cosine distance `1 − cos(a, b)`, in `[0, 2]`. Zero vectors are treated as
/// maximally dissimilar to everything (distance 1), matching
/// `pas_embed::cosine`'s zero-vector convention — both delegate to the one
/// shared kernel, [`pas_kernels::cosine_sim`].
///
/// Prepared form: the unit vector (the zero vector stays zero). A probe
/// between prepared vectors is `1 − a·b` — one fused dot, no `sqrt`.
#[derive(Debug, Clone, Copy, Default)]
pub struct CosineDistance;

impl Metric for CosineDistance {
    #[inline]
    fn distance(&self, a: &[f32], b: &[f32]) -> f32 {
        (1.0 - kernels::cosine_sim(a, b)).max(0.0)
    }

    fn prepare(&self, v: &mut [f32]) -> f32 {
        let norm = kernels::sum_sq(v).sqrt();
        if norm > 0.0 {
            kernels::scale(v, 1.0 / norm);
        }
        norm
    }

    #[inline]
    fn prepared_distance(&self, a: &[f32], b: &[f32]) -> f32 {
        // Unit vectors: cos = dot. A zero vector stays zero when prepared,
        // so dot = 0 and the distance is 1 — same convention as the raw path.
        (1.0 - kernels::dot(a, b)).max(0.0)
    }

    fn prepared_distance_block(&self, query: &[f32], panel: &[f32], out: &mut [f32]) {
        // dot_block's per-row accumulation is exactly `dot`, so each output
        // is bit-identical to the pairwise prepared_distance.
        kernels::dot_block(query, panel, out);
        for o in out.iter_mut() {
            *o = (1.0 - *o).max(0.0);
        }
    }
}

/// Euclidean (L2) distance. Stored form is the raw vector.
#[derive(Debug, Clone, Copy, Default)]
pub struct EuclideanDistance;

impl Metric for EuclideanDistance {
    #[inline]
    fn distance(&self, a: &[f32], b: &[f32]) -> f32 {
        kernels::l2_sq(a, b).sqrt()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cosine_identical_is_zero() {
        let d = CosineDistance.distance(&[1.0, 2.0], &[1.0, 2.0]);
        assert!(d.abs() < 1e-6);
    }

    #[test]
    fn cosine_orthogonal_is_one() {
        let d = CosineDistance.distance(&[1.0, 0.0], &[0.0, 1.0]);
        assert!((d - 1.0).abs() < 1e-6);
    }

    #[test]
    fn cosine_zero_vector_is_unit_distance() {
        // The shared zero-vector convention, pinned for both code paths:
        // similarity 0 ⇒ distance 1, raw and prepared alike.
        assert_eq!(CosineDistance.distance(&[0.0, 0.0], &[1.0, 0.0]), 1.0);
        let mut z = vec![0.0, 0.0];
        let mut u = vec![1.0, 0.0];
        assert_eq!(CosineDistance.prepare(&mut z), 0.0);
        CosineDistance.prepare(&mut u);
        assert_eq!(CosineDistance.prepared_distance(&z, &u), 1.0);
        assert_eq!(CosineDistance.prepared_distance(&z, &z), 1.0);
    }

    #[test]
    fn cosine_matches_pas_embed_convention() {
        // One shared implementation: 1 − pas_embed::cosine, bit for bit.
        let a = [0.2, -0.5, 0.7, 0.1];
        let b = [0.9, 0.1, -0.3, 0.4];
        let expect = (1.0 - pas_embed::cosine(&a, &b)).max(0.0);
        assert_eq!(CosineDistance.distance(&a, &b).to_bits(), expect.to_bits());
        assert_eq!(CosineDistance.distance(&[0.0; 3], &[1.0, 2.0, 3.0]), 1.0);
    }

    #[test]
    fn prepare_returns_original_norm_and_normalizes() {
        let mut v = vec![3.0, 4.0];
        let norm = CosineDistance.prepare(&mut v);
        assert_eq!(norm, 5.0);
        assert!((kernels::sum_sq(&v).sqrt() - 1.0).abs() < 1e-6);
        // Euclidean keeps the vector as-is but still reports the norm.
        let mut w = vec![3.0, 4.0];
        assert_eq!(EuclideanDistance.prepare(&mut w), 5.0);
        assert_eq!(w, vec![3.0, 4.0]);
    }

    #[test]
    fn prepared_distance_tracks_raw_distance() {
        let raw_pairs =
            [([0.2f32, -0.5, 0.7], [0.9f32, 0.1, -0.3]), ([1.0, 1.0, 0.0], [1.0, 0.9, 0.1])];
        for (a, b) in raw_pairs {
            let raw = CosineDistance.distance(&a, &b);
            let (mut pa, mut pb) = (a.to_vec(), b.to_vec());
            CosineDistance.prepare(&mut pa);
            CosineDistance.prepare(&mut pb);
            let prepared = CosineDistance.prepared_distance(&pa, &pb);
            assert!((raw - prepared).abs() < 1e-5, "raw {raw} vs prepared {prepared}");
        }
    }

    #[test]
    fn euclidean_known_value() {
        let d = EuclideanDistance.distance(&[0.0, 0.0], &[3.0, 4.0]);
        assert!((d - 5.0).abs() < 1e-6);
    }

    #[test]
    fn block_distance_bit_matches_pairwise() {
        let query = {
            let mut q = vec![0.2f32, -0.5, 0.7, 0.1, 0.4];
            CosineDistance.prepare(&mut q);
            q
        };
        let rows: Vec<Vec<f32>> = (0..7)
            .map(|r| {
                let mut v: Vec<f32> = (0..5).map(|i| ((r * 5 + i) as f32 * 0.37).sin()).collect();
                CosineDistance.prepare(&mut v);
                v
            })
            .collect();
        let panel: Vec<f32> = rows.iter().flatten().copied().collect();
        let mut out = vec![0.0f32; rows.len()];
        CosineDistance.prepared_distance_block(&query, &panel, &mut out);
        for (r, v) in rows.iter().enumerate() {
            assert_eq!(
                out[r].to_bits(),
                CosineDistance.prepared_distance(&query, v).to_bits(),
                "row {r}"
            );
        }
    }

    #[test]
    fn metrics_are_symmetric() {
        let a = [0.2, -0.5, 0.7];
        let b = [0.9, 0.1, -0.3];
        assert_eq!(CosineDistance.distance(&a, &b), CosineDistance.distance(&b, &a));
        assert_eq!(EuclideanDistance.distance(&a, &b), EuclideanDistance.distance(&b, &a));
    }
}
