//! Shared quantized-vector storage for the indexes: the int8 scalar tier
//! and the product-quantization (PQ) tier.
//!
//! A [`QuantStore`] holds one int8 code row plus one `f32` scale per stored
//! vector, flat and contiguous so block probes ([`pas_kernels::dot_i8_block`]
//! via [`crate::Metric::quantized_distance_block`]) scan it without
//! gathering. The traversal-resident working set per vector drops from
//! `4·dim` bytes (f32) to `dim + 4` bytes — the ~4× cut the bench reports —
//! while the exact f32 rows stay out-of-band for the re-rank pass.
//!
//! A [`PqStore`] goes further: vectors split into `m` subspaces, each
//! subspace gets a seeded-k-means codebook of 256 centroids
//! ([`PqCodebook`]), and a stored vector is just the `m` one-byte centroid
//! ids — `dim / 8` bytes per vector at the default subspace width of 8,
//! ~8× below the int8 tier and ~32× below f32. A probe builds one ADC
//! (asymmetric distance computation) table per query — per-subspace dots
//! against every centroid, quantized to 16-bit fixed point ([`PqTable`]) —
//! and each stored vector's approximate distance is then `m` integer table
//! adds ([`pas_kernels::lut_gather`]). Integer accumulation is associative,
//! so PQ probes are bit-identical on every kernel backend and at every
//! thread count by construction.
//!
//! The re-rank contract: a quantized probe first selects
//! [`rerank_overfetch`]`(k)` (int8) or [`pq_rerank_overfetch`]`(k)` (PQ)
//! candidates by approximate distance, then recomputes exact f32 distances
//! for just those and returns the true top-`k`. The property tests pin
//! recall@k == 1.0 (int8) and ≥ 0.95 (PQ) against the pure-f32 index at
//! these over-fetches.

use crate::kmeans::{kmeans, KMeansConfig};
use crate::metric::Metric;

// Observability counters shared by both indexes' quantized probe paths:
// vectors probed through int8 codes, candidates exactly re-ranked, vectors
// probed through PQ codes, and ADC tables built. All are exact functions of
// the workload, so they are safe in golden fixtures.
pub(crate) static OBS_QUANTIZED: pas_obs::Counter = pas_obs::Counter::new("ann.probe.quantized");
pub(crate) static OBS_RERANK: pas_obs::Counter = pas_obs::Counter::new("ann.probe.rerank");
pub(crate) static OBS_PQ: pas_obs::Counter = pas_obs::Counter::new("ann.probe.pq");
pub(crate) static OBS_PQ_TABLES: pas_obs::Counter = pas_obs::Counter::new("ann.pq.table_build");

// Probe-path bytes per vector, per quantization tier, recorded when a tier
// activates (serial contexts only — tier toggles and lazy training both run
// under `&mut self`). Deterministic functions of the dimension, so
// fixture-safe.
pub(crate) static OBS_BPV_INT8: pas_obs::Gauge = pas_obs::Gauge::new("ann.bytes_per_vector.int8");
pub(crate) static OBS_BPV_PQ: pas_obs::Gauge = pas_obs::Gauge::new("ann.bytes_per_vector.pq");

/// How many candidates a quantized probe over-fetches before the exact f32
/// re-rank keeps `k`. Generous on purpose: int8 cosine error on unit vectors
/// is ~1e-2, so a 4k+32 margin makes the re-ranked top-k match the pure-f32
/// top-k on every workload the property tests throw at it.
pub fn rerank_overfetch(k: usize) -> usize {
    k * 4 + 32
}

/// Flat per-vector int8 codes + scales, aligned with index ids.
#[derive(Debug, Clone, Default)]
pub struct QuantStore {
    dim: usize,
    codes: Vec<i8>,
    scales: Vec<f32>,
}

impl QuantStore {
    /// Empty store; the dimension locks in at the first [`QuantStore::push`].
    pub fn new() -> Self {
        QuantStore::default()
    }

    /// Quantizes a prepared vector via the metric and appends it.
    ///
    /// # Panics
    /// Panics when the metric does not support quantization or the
    /// dimension differs from earlier rows.
    pub fn push<M: Metric>(&mut self, metric: &M, prepared: &[f32]) {
        let (codes, scale) = metric.quantize(prepared).expect("metric has no quantized probe path");
        if self.scales.is_empty() {
            self.dim = codes.len();
            OBS_BPV_INT8.set(self.bytes_per_vector() as u64);
        }
        assert_eq!(codes.len(), self.dim, "quantized row dimension mismatch");
        self.codes.extend_from_slice(&codes);
        self.scales.push(scale);
    }

    /// Appends an all-zero placeholder row (scale 0) for a removed slot, so
    /// row indices stay aligned with positional ids.
    pub fn push_placeholder(&mut self, dim: usize) {
        if self.scales.is_empty() {
            self.dim = dim;
        }
        assert_eq!(dim, self.dim, "quantized row dimension mismatch");
        self.codes.resize(self.codes.len() + self.dim, 0);
        self.scales.push(0.0);
    }

    /// Number of stored rows.
    pub fn len(&self) -> usize {
        self.scales.len()
    }

    /// True when nothing is stored.
    pub fn is_empty(&self) -> bool {
        self.scales.is_empty()
    }

    /// Code row and scale for `id`.
    pub fn row(&self, id: usize) -> (&[i8], f32) {
        (&self.codes[id * self.dim..(id + 1) * self.dim], self.scales[id])
    }

    /// Contiguous code rows for `start..end` plus their scales — the panel
    /// form the block probes consume.
    pub fn rows(&self, start: usize, end: usize) -> (&[i8], &[f32]) {
        (&self.codes[start * self.dim..end * self.dim], &self.scales[start..end])
    }

    /// The flat row-major code store plus all per-row scales — what the
    /// row-indexed probe path ([`pas_kernels::dot_i8_rows`]) reads straight
    /// through, with no panel packing.
    pub fn flat(&self) -> (&[i8], &[f32]) {
        (&self.codes, &self.scales)
    }

    /// Probe-path bytes per stored vector (codes + scale) — what a
    /// traversal actually touches, vs `4·dim` for f32 rows.
    pub fn bytes_per_vector(&self) -> usize {
        self.dim + std::mem::size_of::<f32>()
    }

    /// Raw parts for the dump codec: `(dim, codes, scales)`.
    pub(crate) fn to_parts(&self) -> (usize, &[i8], &[f32]) {
        (self.dim, &self.codes, &self.scales)
    }

    /// Rebuilds a store from dumped parts.
    ///
    /// # Panics
    /// Panics when the code length is not `dim * scales.len()`.
    pub(crate) fn from_parts(dim: usize, codes: Vec<i8>, scales: Vec<f32>) -> QuantStore {
        assert_eq!(codes.len(), dim * scales.len(), "quantized parts shape mismatch");
        QuantStore { dim, codes, scales }
    }
}

/// How many candidates a PQ probe over-fetches before the exact f32 re-rank
/// keeps `k`. Wider than the int8 margin: PQ codes are lossy (sub-byte per
/// dimension), so the approximate ranking is noisier and the recall target is
/// ≥ 0.95 rather than the int8 tier's exact 1.0.
pub fn pq_rerank_overfetch(k: usize) -> usize {
    k * 8 + 64
}

/// Centroid count per subspace — one byte of code addresses all of them.
const PQ_KC: usize = 256;

/// Fixed-point bias added to every ADC table entry so the stored `u32` slots
/// are non-negative. Subtracted back out (times `m`) when decoding a row sum.
const PQ_LUT_BIAS: i32 = 1 << 15;

/// Product-quantization hyper-parameters.
#[derive(Debug, Clone)]
pub struct PqConfig {
    /// Training-sample cap: rows are stride-sampled down to this many before
    /// k-means. Bounds codebook-training cost on big stores; 256 samples per
    /// 256-centroid subspace keeps debug-build tests fast while the seeded
    /// sampling stays deterministic.
    pub train_cap: usize,
    /// Lloyd iterations per subspace codebook.
    pub max_iters: usize,
    /// Base RNG seed; each subspace trains with a seed derived from it.
    pub seed: u64,
}

impl Default for PqConfig {
    fn default() -> Self {
        PqConfig { train_cap: 256, max_iters: 8, seed: 0x70a5 }
    }
}

/// Picks the subspace width for `dim`: the widest of 8/4/2/1 that divides it.
/// At the widest split a code row is `dim / 8` bytes — 8× below int8, 32×
/// below f32.
fn pq_sub_width(dim: usize) -> usize {
    assert!(dim > 0, "product quantization requires dim > 0");
    [8usize, 4, 2, 1].into_iter().find(|&w| dim.is_multiple_of(w)).expect("1 divides dim")
}

/// Per-subspace k-means codebooks: `m` subspaces × up to 256 centroids each.
///
/// Centroid storage is padded to exactly [`PQ_KC`] rows per subspace so ADC
/// table construction is one fixed-shape [`pas_kernels::dot_block`] per
/// subspace; pad rows are zero and no code ever references them.
#[derive(Debug, Clone)]
pub struct PqCodebook {
    dim: usize,
    sub: usize,
    m: usize,
    /// Centroids actually trained per subspace (k-means clamps to the sample
    /// count); codes only ever index `0..kc`.
    kc: usize,
    /// `m` panels of `PQ_KC × sub`, subspace-major.
    centroids: Vec<f32>,
}

impl PqCodebook {
    /// Trains one codebook per subspace over `rows` (empty slices — removed
    /// slots — are skipped). Subspaces train in parallel via
    /// [`pas_par::par_map`] with per-subspace derived seeds, so the result is
    /// bit-identical at any thread count.
    ///
    /// # Panics
    /// Panics when no non-empty training row exists.
    pub fn train(rows: &[&[f32]], dim: usize, cfg: &PqConfig) -> PqCodebook {
        let sub = pq_sub_width(dim);
        let m = dim / sub;
        let live: Vec<&[f32]> = rows.iter().copied().filter(|r| !r.is_empty()).collect();
        assert!(!live.is_empty(), "PqCodebook::train requires at least one live row");
        // Deterministic stride sample down to the training cap.
        let cap = cfg.train_cap.max(1);
        let step = live.len().div_ceil(cap);
        let sample: Vec<&[f32]> = live.iter().copied().step_by(step).collect();
        let kc = PQ_KC.min(sample.len());

        let _span = pas_obs::span("ann.pq.train");
        let subspaces: Vec<usize> = (0..m).collect();
        let panels = pas_par::par_map(&subspaces, |_, &s| {
            let points: Vec<Vec<f32>> =
                sample.iter().map(|r| r[s * sub..(s + 1) * sub].to_vec()).collect();
            let res = kmeans(
                &points,
                &KMeansConfig {
                    k: kc,
                    max_iters: cfg.max_iters,
                    tolerance: 1e-4,
                    seed: pas_par::derive_seed(cfg.seed, s as u64),
                },
            );
            let mut panel = vec![0.0f32; PQ_KC * sub];
            for (c, centroid) in res.centroids.iter().enumerate() {
                panel[c * sub..(c + 1) * sub].copy_from_slice(centroid);
            }
            panel
        });
        let mut centroids = Vec::with_capacity(m * PQ_KC * sub);
        for panel in panels {
            centroids.extend_from_slice(&panel);
        }
        PqCodebook { dim, sub, m, kc, centroids }
    }

    /// Subspace count == bytes per encoded vector.
    pub fn m(&self) -> usize {
        self.m
    }

    /// Input dimensionality the codebook was trained for.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// The `PQ_KC × sub` centroid panel for subspace `s`.
    fn panel(&self, s: usize) -> &[f32] {
        &self.centroids[s * PQ_KC * self.sub..(s + 1) * PQ_KC * self.sub]
    }

    /// Raw parts for the dump codec: `(dim, sub, m, kc, centroids)`.
    pub(crate) fn to_parts(&self) -> (usize, usize, usize, usize, &[f32]) {
        (self.dim, self.sub, self.m, self.kc, &self.centroids)
    }

    /// Rebuilds a codebook from dumped parts, rejecting a shape training
    /// cannot produce.
    pub(crate) fn from_parts(
        dim: usize,
        sub: usize,
        m: usize,
        kc: usize,
        centroids: Vec<f32>,
    ) -> Result<PqCodebook, String> {
        if sub == 0 || m.checked_mul(sub) != Some(dim) {
            return Err("dump codebook dim mismatch".into());
        }
        if dim.checked_mul(PQ_KC) != Some(centroids.len()) {
            return Err("dump codebook panel shape mismatch".into());
        }
        if !(1..=PQ_KC).contains(&kc) {
            return Err("dump codebook kc out of range".into());
        }
        Ok(PqCodebook { dim, sub, m, kc, centroids })
    }

    /// Encodes a vector as `m` centroid ids (per-subspace nearest centroid,
    /// ties broken toward the lowest id).
    pub fn encode_into(&self, v: &[f32], out: &mut Vec<u8>) {
        assert_eq!(v.len(), self.dim, "encode dimension mismatch");
        for s in 0..self.m {
            let q = &v[s * self.sub..(s + 1) * self.sub];
            let panel = self.panel(s);
            let mut best = 0usize;
            let mut best_d = f32::INFINITY;
            for c in 0..self.kc {
                let d = pas_kernels::l2_sq(q, &panel[c * self.sub..(c + 1) * self.sub]);
                if d < best_d {
                    best_d = d;
                    best = c;
                }
            }
            out.push(best as u8);
        }
    }

    /// Builds the per-query ADC table: for each subspace, the dot of the
    /// query slice against every centroid, quantized to 16-bit fixed point in
    /// `u32` slots (see [`PqTable`]). The dots come from
    /// [`pas_kernels::dot_block`] — backend-pinned bit-identical — and the
    /// fixed-point conversion is elementwise, so table construction is as
    /// deterministic as a single probe.
    pub fn table(&self, query: &[f32]) -> PqTable {
        assert_eq!(query.len(), self.dim, "table dimension mismatch");
        let mut dots = vec![0.0f32; self.m * PQ_KC];
        for s in 0..self.m {
            pas_kernels::dot_block(
                &query[s * self.sub..(s + 1) * self.sub],
                self.panel(s),
                &mut dots[s * PQ_KC..(s + 1) * PQ_KC],
            );
        }
        let amax = dots.iter().fold(0.0f32, |a, &d| a.max(d.abs()));
        let (scale, unit) = if amax > 0.0 { (32767.0 / amax, amax / 32767.0) } else { (0.0, 0.0) };
        let lut: Vec<u32> =
            dots.iter().map(|&d| ((d * scale).round() as i32 + PQ_LUT_BIAS) as u32).collect();
        OBS_PQ_TABLES.incr();
        PqTable { m: self.m, unit, lut }
    }
}

/// A per-query ADC lookup table in fixed point.
///
/// Slot `s·256 + c` holds `round(dot(q_s, centroid_{s,c}) · 32767/amax) +
/// 32768` where `amax` is the largest |dot| in the table — a biased 16-bit
/// fixed-point value in a `u32` slot (the `u32` width lets the AVX2 kernel
/// use plain dword gathers). A row's approximate distance is `m` integer
/// table adds ([`pas_kernels::lut_gather`]): integer addition is associative,
/// so the sum — and hence the whole PQ ranking — is bit-identical on every
/// backend and at every thread count. Decoding subtracts the bias and scales
/// back: `dist = max(0, 1 − (sum − m·32768)·unit)`, the same `1 − dot` form
/// as the exact cosine probe.
#[derive(Debug, Clone)]
pub struct PqTable {
    m: usize,
    /// Fixed-point step in dot units: `amax / 32767` (0 for an all-zero
    /// query, which decodes every row to distance 1.0 — the zero-vector
    /// convention the exact metric uses).
    unit: f32,
    lut: Vec<u32>,
}

impl PqTable {
    /// Decodes an integer LUT sum into an approximate cosine distance.
    #[inline]
    fn decode(&self, sum: u32) -> f32 {
        let centered = sum as i64 - self.m as i64 * PQ_LUT_BIAS as i64;
        (1.0 - centered as f32 * self.unit).max(0.0)
    }

    /// Approximate distance for one code row.
    #[inline]
    pub fn distance(&self, codes: &[u8]) -> f32 {
        self.decode(pas_kernels::lut_gather(&self.lut, codes))
    }

    /// Approximate distances for a packed panel of `out.len()` code rows
    /// (`panel[r·m..(r+1)·m]` is row `r`), via the blocked gather kernel.
    pub fn distance_block(&self, panel: &[u8], sums: &mut Vec<u32>, out: &mut Vec<f32>) {
        let rows = panel.len() / self.m.max(1);
        sums.clear();
        sums.resize(rows, 0);
        pas_kernels::lut_gather_block(&self.lut, panel, sums);
        out.clear();
        out.extend(sums.iter().map(|&s| self.decode(s)));
    }

    /// Approximate distances for the code rows `rows[j]` of a flat store,
    /// via the row-indexed gather kernel — no panel packing.
    pub fn distance_rows(
        &self,
        codes: &[u8],
        rows: &[usize],
        sums: &mut Vec<u32>,
        out: &mut Vec<f32>,
    ) {
        sums.clear();
        sums.resize(rows.len(), 0);
        pas_kernels::lut_gather_rows(&self.lut, codes, rows, sums);
        out.clear();
        out.extend(sums.iter().map(|&s| self.decode(s)));
    }
}

/// Minimum live rows before a lazily-enabled PQ store trains its codebook.
/// Below this the indexes keep probing in f32; k-means on a handful of rows
/// would memorize them and generalize poorly to later inserts.
pub const PQ_TRAIN_MIN: usize = 64;

/// Flat per-vector PQ code rows, aligned with index ids.
///
/// Created untrained; the owning index calls [`PqStore::train_encode`] once
/// enough rows exist (see [`PQ_TRAIN_MIN`]), after which new rows are encoded
/// on insert. Until then [`PqStore::ready`] is false and probes fall back to
/// exact f32.
#[derive(Debug, Clone)]
pub struct PqStore {
    cfg: PqConfig,
    codebook: Option<PqCodebook>,
    codes: Vec<u8>,
    rows: usize,
}

impl PqStore {
    /// Empty, untrained store.
    pub fn new(cfg: PqConfig) -> Self {
        PqStore { cfg, codebook: None, codes: Vec::new(), rows: 0 }
    }

    /// True once the codebook is trained and rows are encoded.
    pub fn ready(&self) -> bool {
        self.codebook.is_some()
    }

    /// Bytes per encoded vector (== subspace count). 0 before training.
    pub fn bytes_per_vector(&self) -> usize {
        self.codebook.as_ref().map_or(0, |cb| cb.m)
    }

    /// Number of stored rows (placeholders included). 0 before training.
    pub fn len(&self) -> usize {
        self.rows
    }

    /// True when no rows are encoded yet.
    pub fn is_empty(&self) -> bool {
        self.rows == 0
    }

    /// Trains the codebook on `rows` and encodes every row (empty slices —
    /// removed slots — become placeholder rows, keeping positional ids
    /// aligned). Replaces any previous codebook and codes.
    pub fn train_encode(&mut self, rows: &[&[f32]], dim: usize) {
        let codebook = PqCodebook::train(rows, dim, &self.cfg);
        let m = codebook.m;
        self.codes.clear();
        self.codes.reserve(rows.len() * m);
        let encoded = pas_par::par_map(rows, |_, r| {
            let mut row = Vec::with_capacity(m);
            if r.is_empty() {
                row.resize(m, 0u8);
            } else {
                codebook.encode_into(r, &mut row);
            }
            row
        });
        for row in encoded {
            self.codes.extend_from_slice(&row);
        }
        self.rows = rows.len();
        self.codebook = Some(codebook);
        OBS_BPV_PQ.set(m as u64);
    }

    /// Encodes and appends one prepared vector.
    ///
    /// # Panics
    /// Panics when the store is not [`PqStore::ready`].
    pub fn push(&mut self, prepared: &[f32]) {
        let cb = self.codebook.as_ref().expect("PqStore::push before train_encode");
        cb.encode_into(prepared, &mut self.codes);
        self.rows += 1;
    }

    /// Appends an all-zero placeholder row for a removed slot.
    pub fn push_placeholder(&mut self) {
        let m = self.codebook.as_ref().expect("PqStore::push_placeholder before train_encode").m;
        self.codes.resize(self.codes.len() + m, 0);
        self.rows += 1;
    }

    /// Code row for `id`.
    pub fn row(&self, id: usize) -> &[u8] {
        let m = self.bytes_per_vector();
        &self.codes[id * m..(id + 1) * m]
    }

    /// Contiguous code rows for `start..end` — the panel form
    /// [`PqTable::distance_block`] consumes.
    pub fn rows(&self, start: usize, end: usize) -> &[u8] {
        let m = self.bytes_per_vector();
        &self.codes[start * m..end * m]
    }

    /// The flat row-major code store — what the row-indexed probe path
    /// ([`PqTable::distance_rows`]) reads straight through.
    pub fn flat(&self) -> &[u8] {
        &self.codes
    }

    /// Builds the ADC table for `query`.
    ///
    /// # Panics
    /// Panics when the store is not [`PqStore::ready`].
    pub fn table(&self, query: &[f32]) -> PqTable {
        self.codebook.as_ref().expect("PqStore::table before train_encode").table(query)
    }

    /// Raw parts for the dump codec: `(cfg, codebook, codes, rows)`.
    pub(crate) fn to_parts(&self) -> (&PqConfig, Option<&PqCodebook>, &[u8], usize) {
        (&self.cfg, self.codebook.as_ref(), &self.codes, self.rows)
    }

    /// Rebuilds a store from dumped parts, rejecting codes that are not
    /// `rows * m` long (empty while untrained) or that name an untrained
    /// centroid.
    pub(crate) fn from_parts(
        cfg: PqConfig,
        codebook: Option<PqCodebook>,
        codes: Vec<u8>,
        rows: usize,
    ) -> Result<PqStore, String> {
        let (m, kc) = codebook.as_ref().map_or((0, 0), |cb| (cb.m, cb.kc));
        if rows.checked_mul(m) != Some(codes.len()) {
            return Err("dump PQ codes shape mismatch".into());
        }
        if codes.iter().any(|&c| c as usize >= kc) {
            return Err("dump PQ code out of range".into());
        }
        Ok(PqStore { cfg, codebook, codes, rows })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metric::CosineDistance;

    fn prepared(seed: usize) -> Vec<f32> {
        let mut v: Vec<f32> = (0..16).map(|i| ((i + seed * 7) as f32 * 0.29).sin()).collect();
        CosineDistance.prepare(&mut v);
        v
    }

    #[test]
    fn rows_round_trip_and_pack() {
        let mut store = QuantStore::new();
        let vecs: Vec<Vec<f32>> = (0..5).map(prepared).collect();
        for v in &vecs {
            store.push(&CosineDistance, v);
        }
        assert_eq!(store.len(), 5);
        assert_eq!(store.bytes_per_vector(), 16 + 4);
        for (id, v) in vecs.iter().enumerate() {
            let (codes, scale) = store.row(id);
            let (want_codes, want_scale) = CosineDistance.quantize(v).unwrap();
            assert_eq!(codes, &want_codes[..], "row {id}");
            assert_eq!(scale.to_bits(), want_scale.to_bits(), "row {id}");
        }
        let (panel, scales) = store.rows(1, 4);
        assert_eq!(panel.len(), 3 * 16);
        assert_eq!(scales.len(), 3);
    }

    #[test]
    fn overfetch_grows_with_k() {
        assert!(rerank_overfetch(1) >= 32);
        assert!(rerank_overfetch(10) > rerank_overfetch(1));
    }

    #[test]
    #[should_panic(expected = "no quantized probe path")]
    fn push_rejects_unquantizable_metric() {
        let mut store = QuantStore::new();
        store.push(&crate::metric::EuclideanDistance, &[1.0, 2.0]);
    }

    fn prepared_dim(seed: usize, dim: usize) -> Vec<f32> {
        let mut v: Vec<f32> = (0..dim).map(|i| ((i * 13 + seed * 7) as f32 * 0.37).sin()).collect();
        CosineDistance.prepare(&mut v);
        v
    }

    #[test]
    fn pq_sub_width_picks_widest_divisor() {
        assert_eq!(pq_sub_width(64), 8);
        assert_eq!(pq_sub_width(12), 4);
        assert_eq!(pq_sub_width(10), 2);
        assert_eq!(pq_sub_width(7), 1);
    }

    #[test]
    fn pq_store_trains_encodes_and_probes() {
        let dim = 16;
        let vecs: Vec<Vec<f32>> = (0..80).map(|s| prepared_dim(s, dim)).collect();
        let refs: Vec<&[f32]> = vecs.iter().map(|v| v.as_slice()).collect();
        let mut store = PqStore::new(PqConfig::default());
        assert!(!store.ready());
        store.train_encode(&refs, dim);
        assert!(store.ready());
        assert_eq!(store.len(), 80);
        // dim 16 → sub 8 → m 2 bytes per vector.
        assert_eq!(store.bytes_per_vector(), 2);

        let query = prepared_dim(997, dim);
        let table = store.table(&query);
        // Single-row distances agree with the blocked path on a packed panel.
        let panel = store.rows(0, store.len());
        let mut sums = Vec::new();
        let mut block = Vec::new();
        table.distance_block(panel, &mut sums, &mut block);
        for (id, b) in block.iter().enumerate() {
            assert_eq!(table.distance(store.row(id)).to_bits(), b.to_bits(), "row {id}");
        }
        // The approximate distance tracks the exact one: the PQ-nearest row
        // should be among the exact top quarter on this smooth workload.
        let exact: Vec<f32> =
            vecs.iter().map(|v| CosineDistance.prepared_distance(&query, v)).collect();
        let pq_best = (0..store.len())
            .min_by(|&a, &b| block[a].total_cmp(&block[b]).then(a.cmp(&b)))
            .unwrap();
        let mut order: Vec<usize> = (0..store.len()).collect();
        order.sort_by(|&a, &b| exact[a].total_cmp(&exact[b]));
        let rank = order.iter().position(|&i| i == pq_best).unwrap();
        assert!(rank < 20, "PQ-nearest row ranks {rank} exactly");
    }

    #[test]
    fn pq_push_matches_train_encode() {
        let dim = 8;
        let vecs: Vec<Vec<f32>> = (0..70).map(|s| prepared_dim(s, dim)).collect();
        let refs: Vec<&[f32]> = vecs.iter().map(|v| v.as_slice()).collect();
        let mut store = PqStore::new(PqConfig::default());
        store.train_encode(&refs[..64], dim);
        for v in &refs[64..] {
            store.push(v);
        }
        store.push_placeholder();
        // Re-encoding a trained row reproduces its stored codes.
        let mut again = Vec::new();
        store.codebook.as_ref().unwrap().encode_into(&vecs[3], &mut again);
        assert_eq!(store.row(3), &again[..]);
        assert_eq!(store.len(), 71);
        assert_eq!(store.row(70), &[0u8; 1][..]);
    }

    #[test]
    fn pq_table_zero_query_decodes_to_unit_distance() {
        let dim = 8;
        let vecs: Vec<Vec<f32>> = (0..8).map(|s| prepared_dim(s, dim)).collect();
        let refs: Vec<&[f32]> = vecs.iter().map(|v| v.as_slice()).collect();
        let mut store = PqStore::new(PqConfig::default());
        store.train_encode(&refs, dim);
        let table = store.table(&vec![0.0; dim]);
        assert_eq!(table.distance(store.row(0)), 1.0);
    }

    #[test]
    fn pq_train_skips_removed_rows() {
        let dim = 8;
        let vecs: Vec<Vec<f32>> = (0..40).map(|s| prepared_dim(s, dim)).collect();
        let mut refs: Vec<&[f32]> = vecs.iter().map(|v| v.as_slice()).collect();
        refs[5] = &[];
        refs[17] = &[];
        let mut store = PqStore::new(PqConfig::default());
        store.train_encode(&refs, dim);
        assert_eq!(store.len(), 40);
        assert_eq!(store.row(5), &[0u8; 1][..]);
    }

    #[test]
    fn pq_overfetch_wider_than_int8() {
        assert!(pq_rerank_overfetch(1) > rerank_overfetch(1));
        assert!(pq_rerank_overfetch(10) > pq_rerank_overfetch(1));
    }
}
