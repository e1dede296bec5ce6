//! Brute-force exact nearest-neighbour index.
//!
//! Shares the query interface of [`crate::Hnsw`]. It is the semantic
//! cache's near tier in `pas-gateway`, the ground truth in recall tests,
//! and the baseline in the ANN benchmarks.
//!
//! Like the HNSW index, vectors are stored in the metric's *prepared* form
//! plus their original L2 norm ([`crate::Metric::prepare`]) — and they are
//! stored **flat**: one contiguous row-major buffer of the live rows, so a
//! scan range is already the packed panel
//! [`crate::Metric::prepared_distance_block`] wants. Under cosine a scan is
//! then a handful of block dots instead of a per-element `1 − dot` loop.
//!
//! Ids are handed out in insertion order and never change.
//! [`ExactIndex::remove`] moves the last row into the removed row's place
//! and repoints that row's id, so the buffer holds only live rows and a
//! scan never visits a dead one. A scan keeps a bounded top-`k` by
//! `(distance, id)` as it goes rather than sorting every row; the result is
//! exactly what sorting them all would return, so ties go to the smaller
//! id wherever the rows sit.
//!
//! With [`ExactIndex::set_quantization`] the index additionally keeps int8
//! codes ([`crate::quant::QuantStore`]) and probes through the integer path:
//! approximate-scan everything, keep [`crate::quant::rerank_overfetch`]`(k)`
//! candidates, exactly re-rank those in f32. Results stay deterministic at
//! every thread count and kernel backend.
//!
//! [`ExactIndex::set_product_quantization`] swaps the int8 tier for PQ codes
//! ([`crate::quant::PqStore`], `dim/8` bytes per vector): each scan builds
//! one fixed-point ADC table and ranks every row with pure integer adds,
//! over-fetching [`crate::quant::pq_rerank_overfetch`]`(k)` before the same
//! exact f32 re-rank. The codebook trains lazily once
//! [`crate::quant::PQ_TRAIN_MIN`] rows exist; until then scans stay f32.
//! Neither code tier supports [`ExactIndex::remove`].

use std::cmp::Ordering;
use std::collections::BinaryHeap;

use crate::metric::Metric;
use crate::quant::{
    pq_rerank_overfetch, rerank_overfetch, PqConfig, PqStore, QuantStore, OBS_PQ, OBS_QUANTIZED,
    OBS_RERANK, PQ_TRAIN_MIN,
};
use crate::Neighbor;

// Observability counters: a brute-force scan probes every stored vector,
// so the tallies are exact functions of the collection size and query
// count regardless of the parallel chunking.
static OBS_SEARCHES: pas_obs::Counter = pas_obs::Counter::new("ann.exact.searches");
static OBS_PROBES: pas_obs::Counter = pas_obs::Counter::new("ann.exact.probes");

/// The row of an id that has been removed.
const REMOVED: usize = usize::MAX;

/// Exhaustive-scan index over the inserted vectors.
pub struct ExactIndex<M: Metric> {
    metric: M,
    /// Row length; set by the first insert into an empty index.
    dim: usize,
    /// Prepared (e.g. unit-normalized) live rows, flat row-major.
    data: Vec<f32>,
    /// Original L2 norm of each live row, recorded at insert.
    norms: Vec<f32>,
    /// The id of each live row.
    ids: Vec<usize>,
    /// The row of every id handed out, or [`REMOVED`].
    rows: Vec<usize>,
    /// int8 codes + scales when quantized probing is on.
    quant: Option<QuantStore>,
    /// PQ codes when product-quantized probing is on (possibly untrained).
    pq: Option<PqStore>,
}

impl<M: Metric> ExactIndex<M> {
    /// Creates an empty index with the given metric.
    pub fn new(metric: M) -> Self {
        ExactIndex {
            metric,
            dim: 0,
            data: Vec::new(),
            norms: Vec::new(),
            ids: Vec::new(),
            rows: Vec::new(),
            quant: None,
            pq: None,
        }
    }

    /// Rebuilds an index from saved rows: ids `0..next_id` were handed out,
    /// and `rows` holds each live one as `(id, norm, prepared row)`, as
    /// [`ExactIndex::norm`] and [`ExactIndex::vector`] return them. The
    /// rows are taken as already prepared, so the rebuilt index answers
    /// every search with the saved one's bits.
    ///
    /// # Panics
    /// Panics when an id repeats or is not below `next_id`, or when the
    /// rows differ in width.
    pub fn from_rows(
        metric: M,
        next_id: usize,
        rows: impl IntoIterator<Item = (usize, f32, Vec<f32>)>,
    ) -> Self {
        let mut index = ExactIndex::new(metric);
        index.rows = vec![REMOVED; next_id];
        for (id, norm, row) in rows {
            assert!(
                index.rows.get(id) == Some(&REMOVED),
                "ExactIndex::from_rows: id {id} repeats or is not below {next_id}"
            );
            index.push_row(id, norm, &row);
        }
        index
    }

    /// Inserts a vector, returning its id (insertion order).
    ///
    /// # Panics
    /// Panics when the dimension differs from the live rows'.
    pub fn insert(&mut self, mut vector: Vec<f32>) -> usize {
        let id = self.rows.len();
        let norm = self.metric.prepare(&mut vector);
        self.push_row(id, norm, &vector);
        if let Some(quant) = &mut self.quant {
            quant.push(&self.metric, &vector);
        }
        let (dim, len) = (self.dim, self.len());
        if let Some(pq) = &mut self.pq {
            if pq.ready() {
                pq.push(&vector);
            } else if len >= PQ_TRAIN_MIN {
                Self::train_pq(pq, &self.data, dim, len);
            }
        }
        id
    }

    /// Appends a prepared row as the row of `id`.
    fn push_row(&mut self, id: usize, norm: f32, row: &[f32]) {
        if self.ids.is_empty() {
            self.dim = row.len();
        }
        assert_eq!(row.len(), self.dim, "dimension mismatch at insert");
        if id >= self.rows.len() {
            self.rows.resize(id + 1, REMOVED);
        }
        self.rows[id] = self.ids.len();
        self.ids.push(id);
        self.norms.push(norm);
        self.data.extend_from_slice(row);
    }

    /// Removes `id`, returning whether it was live. The last row moves into
    /// its place, so every other id keeps naming its own vector and no scan
    /// visits the removed one.
    ///
    /// # Panics
    /// Panics on an index with an int8 or PQ tier, whose code rows would
    /// have to move too.
    pub fn remove(&mut self, id: usize) -> bool {
        assert!(
            self.quant.is_none() && self.pq.is_none(),
            "ExactIndex::remove: an index with an int8 or PQ tier cannot remove rows"
        );
        let Some(&row) = self.rows.get(id).filter(|&&row| row != REMOVED) else {
            return false;
        };
        let (dim, last) = (self.dim, self.ids.len() - 1);
        self.data.copy_within(last * dim..(last + 1) * dim, row * dim);
        self.data.truncate(last * dim);
        self.norms.swap_remove(row);
        self.ids.swap_remove(row);
        if row < last {
            self.rows[self.ids[row]] = row;
        }
        self.rows[id] = REMOVED;
        true
    }

    /// Trains `pq` over all currently stored rows and encodes them.
    fn train_pq(pq: &mut PqStore, data: &[f32], dim: usize, len: usize) {
        let rows: Vec<&[f32]> = (0..len).map(|row| &data[row * dim..(row + 1) * dim]).collect();
        pq.train_encode(&rows, dim);
    }

    /// Turns int8 quantized probing on or off. Enabling quantizes every
    /// stored vector (and all future inserts) and drops any PQ tier;
    /// disabling drops the codes. Searches stay exact either way — the
    /// quantized path re-ranks an over-fetched candidate set with f32
    /// distances.
    ///
    /// # Panics
    /// Panics when the metric does not support quantization
    /// ([`Metric::quantize`] returns `None`).
    pub fn set_quantization(&mut self, enabled: bool) {
        if !enabled {
            self.quant = None;
            return;
        }
        self.pq = None;
        if self.quant.is_some() {
            return;
        }
        assert!(self.metric.quantize(&[]).is_some(), "metric has no quantized probe path");
        let mut store = QuantStore::new();
        for row in 0..self.len() {
            store.push(&self.metric, self.row(row));
        }
        self.quant = Some(store);
    }

    /// Turns product-quantized probing on or off. Enabling drops any int8
    /// tier (the tiers are mutually exclusive) and trains the codebook over
    /// the stored rows — immediately if at least [`PQ_TRAIN_MIN`] exist,
    /// otherwise lazily at the insert that reaches the threshold; scans fall
    /// back to exact f32 until then. Searches stay exact either way thanks
    /// to the f32 re-rank.
    pub fn set_product_quantization(&mut self, enabled: bool) {
        if !enabled {
            self.pq = None;
            return;
        }
        self.quant = None;
        if self.pq.is_some() {
            return;
        }
        let mut pq = PqStore::new(PqConfig::default());
        if self.len() >= PQ_TRAIN_MIN {
            Self::train_pq(&mut pq, &self.data, self.dim, self.len());
        }
        self.pq = Some(pq);
    }

    /// True when the int8 probe path is active.
    pub fn quantized(&self) -> bool {
        self.quant.is_some()
    }

    /// True when the PQ probe path is active (codebook may still be
    /// untrained — see [`ExactIndex::set_product_quantization`]).
    pub fn product_quantized(&self) -> bool {
        self.pq.is_some()
    }

    /// Bytes per vector the probe path touches: `m` (≈ dim/8) when a trained
    /// PQ tier is active, `dim + 4` when int8-quantized (codes + scale),
    /// `4·dim` for the f32 scan.
    pub fn probe_bytes_per_vector(&self) -> usize {
        if let Some(pq) = &self.pq {
            if pq.ready() {
                return pq.bytes_per_vector();
            }
        }
        match &self.quant {
            Some(q) if !q.is_empty() => q.bytes_per_vector(),
            _ => self.dim * std::mem::size_of::<f32>(),
        }
    }

    /// Number of live vectors.
    pub fn len(&self) -> usize {
        self.ids.len()
    }

    /// True when no vector is live.
    pub fn is_empty(&self) -> bool {
        self.ids.is_empty()
    }

    /// Returns the stored vector for `id`, in the metric's prepared form
    /// (under cosine: the unit vector — multiply by [`ExactIndex::norm`] to
    /// recover the original magnitude).
    ///
    /// # Panics
    /// Panics when `id` was never handed out or has been removed.
    pub fn vector(&self, id: usize) -> &[f32] {
        self.row(self.row_of(id))
    }

    /// Original L2 norm of the vector inserted as `id`.
    ///
    /// # Panics
    /// Panics when `id` was never handed out or has been removed.
    pub fn norm(&self, id: usize) -> f32 {
        self.norms[self.row_of(id)]
    }

    fn row_of(&self, id: usize) -> usize {
        let row = self.rows[id];
        assert!(row != REMOVED, "ExactIndex: id {id} was removed");
        row
    }

    fn row(&self, row: usize) -> &[f32] {
        &self.data[row * self.dim..(row + 1) * self.dim]
    }

    /// Prepares a query once for the probes of a whole scan.
    fn prepared_query(&self, query: &[f32]) -> Vec<f32> {
        let mut q = query.to_vec();
        self.metric.prepare(&mut q);
        q
    }

    /// Exact `k` nearest neighbours of `query`, closest first; ties broken
    /// by id for determinism.
    ///
    /// Large collections are scanned in parallel: fixed-size chunks (never
    /// dependent on the thread count) each reduce to a local top-`k`, and
    /// the ordered partial results merge sequentially — so the output is
    /// identical at any `--threads` setting.
    pub fn search(&self, query: &[f32], k: usize) -> Vec<Neighbor> {
        OBS_SEARCHES.incr();
        OBS_PROBES.add(self.len() as u64);
        let query = self.prepared_query(query);
        self.search_prepared(&query, k)
    }

    /// Vectors scanned per parallel work item in [`ExactIndex::search`] and
    /// [`ExactIndex::search_batch`].
    const SCAN_CHUNK: usize = 2048;

    /// Search body for an already-prepared query (no counters).
    fn search_prepared(&self, query: &[f32], k: usize) -> Vec<Neighbor> {
        if let Some(pq) = &self.pq {
            if pq.ready() {
                return self.search_pq(query, pq, k);
            }
        }
        if let Some(quant) = &self.quant {
            return self.search_quantized(query, quant, k);
        }
        self.top_by(k, |start, end, k| {
            let mut distances = vec![0.0f32; end - start];
            self.metric.prepared_distance_block(
                query,
                &self.data[start * self.dim..end * self.dim],
                &mut distances,
            );
            self.nearest_rows(start, distances, k)
        })
    }

    /// Chunked parallel scan skeleton: every `SCAN_CHUNK` range of rows
    /// reduces to a local top-`k`, and the partial results reduce to the
    /// top-`k` of all. The chunk size is fixed (never thread-count
    /// dependent), and the top-`k` is exact, so the result is identical at
    /// any `--threads` setting.
    fn top_by(
        &self,
        k: usize,
        scan: impl Fn(usize, usize, usize) -> Vec<Neighbor> + Send + Sync,
    ) -> Vec<Neighbor> {
        let n = self.len();
        if n <= Self::SCAN_CHUNK {
            return scan(0, n, k);
        }
        let chunk_starts: Vec<usize> = (0..n).step_by(Self::SCAN_CHUNK).collect();
        let partial = pas_par::par_map(&chunk_starts, |_, &start| {
            scan(start, (start + Self::SCAN_CHUNK).min(n), k)
        });
        top_k(partial.into_iter().flatten(), k)
    }

    /// The `k` nearest of the rows from `start` on, given their distances.
    fn nearest_rows(&self, start: usize, distances: Vec<f32>, k: usize) -> Vec<Neighbor> {
        let ids = &self.ids[start..start + distances.len()];
        top_k(distances.into_iter().zip(ids).map(|(distance, &id)| Neighbor { id, distance }), k)
    }

    /// The exact top-`k` of `candidates`, re-ranked by f32 distance.
    fn rerank(&self, query: &[f32], candidates: Vec<Neighbor>, k: usize) -> Vec<Neighbor> {
        OBS_RERANK.add(candidates.len() as u64);
        let exact = candidates.into_iter().map(|h| Neighbor {
            id: h.id,
            distance: self.metric.prepared_distance(query, self.vector(h.id)),
        });
        top_k(exact, k)
    }

    /// int8 probe: approximate-scan all code rows, keep the
    /// `rerank_overfetch(k)` best by `(approx distance, id)`, then compute
    /// exact f32 distances for just those and return the true top-`k`.
    fn search_quantized(&self, query: &[f32], quant: &QuantStore, k: usize) -> Vec<Neighbor> {
        let (qcodes, qscale) =
            self.metric.quantize(query).expect("metric has no quantized probe path");
        OBS_QUANTIZED.add(self.len() as u64);
        let approx = self.top_by(rerank_overfetch(k), |start, end, cap| {
            let (panel, scales) = quant.rows(start, end);
            let mut distances = vec![0.0f32; end - start];
            self.metric.quantized_distance_block(&qcodes, qscale, panel, scales, &mut distances);
            self.nearest_rows(start, distances, cap)
        });
        self.rerank(query, approx, k)
    }

    /// PQ probe: build one ADC table for the query, approximate-scan all
    /// code rows with integer LUT adds, keep the `pq_rerank_overfetch(k)`
    /// best by `(approx distance, id)`, then compute exact f32 distances for
    /// just those and return the true top-`k`.
    fn search_pq(&self, query: &[f32], pq: &PqStore, k: usize) -> Vec<Neighbor> {
        let table = pq.table(query);
        OBS_PQ.add(self.len() as u64);
        let approx = self.top_by(pq_rerank_overfetch(k), |start, end, cap| {
            let mut sums = Vec::new();
            let mut distances = Vec::new();
            table.distance_block(pq.rows(start, end), &mut sums, &mut distances);
            self.nearest_rows(start, distances, cap)
        });
        self.rerank(query, approx, k)
    }

    /// `k` nearest neighbours for every query, computed in parallel (one
    /// work item per query). Results are in query order.
    pub fn search_batch(&self, queries: &[Vec<f32>], k: usize) -> Vec<Vec<Neighbor>> {
        OBS_SEARCHES.add(queries.len() as u64);
        OBS_PROBES.add((queries.len() * self.len()) as u64);
        pas_par::par_map(queries, |_, q| {
            let query = self.prepared_query(q);
            self.search_prepared(&query, k)
        })
    }

    /// All ids whose distance to `query` is at most `radius`. Always the
    /// exact f32 path — a radius cut cannot tolerate approximation.
    pub fn search_radius(&self, query: &[f32], radius: f32) -> Vec<Neighbor> {
        OBS_SEARCHES.incr();
        OBS_PROBES.add(self.len() as u64);
        let query = self.prepared_query(query);
        let mut distances = vec![0.0f32; self.len()];
        self.metric.prepared_distance_block(&query, &self.data, &mut distances);
        let mut hits: Vec<Neighbor> = distances
            .into_iter()
            .zip(&self.ids)
            .filter_map(|(distance, &id)| (distance <= radius).then_some(Neighbor { id, distance }))
            .collect();
        hits.sort_by(|a, b| {
            a.distance
                .partial_cmp(&b.distance)
                .unwrap_or(std::cmp::Ordering::Equal)
                .then_with(|| a.id.cmp(&b.id))
        });
        hits
    }
}

/// A hit in scan order: by distance (`f32::total_cmp`), then by id.
struct Ranked(Neighbor);

impl Ord for Ranked {
    fn cmp(&self, other: &Self) -> Ordering {
        self.0.distance.total_cmp(&other.0.distance).then_with(|| self.0.id.cmp(&other.0.id))
    }
}

impl PartialOrd for Ranked {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl PartialEq for Ranked {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == Ordering::Equal
    }
}

impl Eq for Ranked {}

/// The `k` first of `hits` in scan order, closest first: exactly what
/// sorting them all and keeping `k` returns, while holding at most `k`.
fn top_k(hits: impl IntoIterator<Item = Neighbor>, k: usize) -> Vec<Neighbor> {
    let mut hits = hits.into_iter();
    let mut kept: BinaryHeap<Ranked> = hits.by_ref().take(k).map(Ranked).collect();
    if let Some(mut bound) = kept.peek().map(|worst| worst.0.distance) {
        for hit in hits {
            // Most rows lose to the worst one kept on distance alone.
            if hit.distance.total_cmp(&bound).is_gt() {
                continue;
            }
            let mut worst = kept.peek_mut().expect("k > 0 rows kept");
            if Ranked(hit) < *worst {
                *worst = Ranked(hit);
            }
            drop(worst);
            bound = kept.peek().expect("k > 0 rows kept").0.distance;
        }
    }
    kept.into_sorted_vec().into_iter().map(|r| r.0).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metric::{CosineDistance, EuclideanDistance};

    fn index_with_points() -> ExactIndex<EuclideanDistance> {
        let mut idx = ExactIndex::new(EuclideanDistance);
        for p in [[0.0, 0.0], [1.0, 0.0], [0.0, 2.0], [3.0, 3.0]] {
            idx.insert(p.to_vec());
        }
        idx
    }

    #[test]
    fn finds_nearest_in_order() {
        let idx = index_with_points();
        let hits = idx.search(&[0.1, 0.0], 3);
        assert_eq!(hits.iter().map(|h| h.id).collect::<Vec<_>>(), vec![0, 1, 2]);
    }

    #[test]
    fn k_larger_than_len_returns_all() {
        let idx = index_with_points();
        assert_eq!(idx.search(&[0.0, 0.0], 10).len(), 4);
    }

    #[test]
    fn radius_search_filters() {
        let idx = index_with_points();
        let hits = idx.search_radius(&[0.0, 0.0], 1.5);
        assert_eq!(hits.iter().map(|h| h.id).collect::<Vec<_>>(), vec![0, 1]);
    }

    #[test]
    fn empty_index_returns_nothing() {
        let idx: ExactIndex<EuclideanDistance> = ExactIndex::new(EuclideanDistance);
        assert!(idx.search(&[1.0], 5).is_empty());
        assert!(idx.is_empty());
    }

    #[test]
    fn chunked_parallel_scan_matches_serial_order() {
        // Enough vectors to span several scan chunks.
        let mut idx = ExactIndex::new(EuclideanDistance);
        for i in 0..(super::ExactIndex::<EuclideanDistance>::SCAN_CHUNK * 3 + 17) {
            let x = (i as f32 * 0.37).sin();
            let y = (i as f32 * 0.11).cos();
            idx.insert(vec![x, y]);
        }
        let query = [0.2, -0.4];
        let run = |threads| pas_par::with_threads(threads, || idx.search(&query, 25));
        let serial = run(1);
        assert_eq!(serial.len(), 25);
        for w in serial.windows(2) {
            assert!(w[0].distance <= w[1].distance);
        }
        assert_eq!(run(8), serial);
    }

    #[test]
    fn search_batch_matches_per_query_search() {
        let idx = index_with_points();
        let queries = vec![vec![0.1, 0.0], vec![3.0, 3.0], vec![-1.0, -1.0]];
        let batch = idx.search_batch(&queries, 2);
        assert_eq!(batch.len(), 3);
        for (q, hits) in queries.iter().zip(&batch) {
            assert_eq!(hits, &idx.search(q, 2));
        }
    }

    #[test]
    fn tie_break_by_id() {
        let mut idx = ExactIndex::new(EuclideanDistance);
        idx.insert(vec![1.0, 0.0]);
        idx.insert(vec![1.0, 0.0]);
        let hits = idx.search(&[1.0, 0.0], 2);
        assert_eq!(hits[0].id, 0);
        assert_eq!(hits[1].id, 1);
    }

    #[test]
    fn cosine_store_is_prenormalized_and_scale_invariant() {
        let mut idx = ExactIndex::new(CosineDistance);
        idx.insert(vec![3.0, 0.0, 4.0]);
        idx.insert(vec![0.0, 1.0, 0.0]);
        assert_eq!(idx.norm(0), 5.0);
        assert!((pas_kernels::sum_sq(idx.vector(0)).sqrt() - 1.0).abs() < 1e-6);
        // An unnormalized query parallel to vector 0 probes at distance ~0.
        let hits = idx.search(&[0.3, 0.0, 0.4], 2);
        assert_eq!(hits[0].id, 0);
        assert!(hits[0].distance < 1e-6);
        assert!((hits[1].distance - 1.0).abs() < 1e-6);
    }

    /// Unit vectors on a ring, dense enough that int8 rounding error could
    /// flip neighbors without the re-rank.
    fn ring(n: usize) -> Vec<Vec<f32>> {
        (0..n)
            .map(|i| {
                let x = i as f32 * 0.113;
                vec![x.sin(), x.cos(), (x * 0.7).sin(), (x * 1.3).cos()]
            })
            .collect()
    }

    #[test]
    fn quantized_search_matches_f32_search_exactly() {
        let mut plain = ExactIndex::new(CosineDistance);
        let mut quant = ExactIndex::new(CosineDistance);
        quant.set_quantization(true);
        for v in ring(400) {
            plain.insert(v.clone());
            quant.insert(v);
        }
        assert!(quant.quantized());
        assert_eq!(quant.probe_bytes_per_vector(), 4 + 4); // dim i8 + scale
        assert_eq!(plain.probe_bytes_per_vector(), 16); // dim f32
        for (qi, q) in ring(400).into_iter().step_by(29).enumerate() {
            let want = plain.search(&q, 5);
            let got = quant.search(&q, 5);
            assert_eq!(got.len(), want.len());
            for (g, w) in got.iter().zip(&want) {
                assert_eq!(g.id, w.id, "query {qi}");
                // Re-ranked distances are the exact f32 ones, bit for bit.
                assert_eq!(g.distance.to_bits(), w.distance.to_bits(), "query {qi}");
            }
        }
        // Enabling after the fact quantizes retroactively and matches too.
        let mut late = ExactIndex::new(CosineDistance);
        for v in ring(400) {
            late.insert(v);
        }
        late.set_quantization(true);
        let q = vec![0.4, 0.6, -0.2, 0.1];
        assert_eq!(late.search(&q, 3), quant.search(&q, 3));
        // And switching off drops back to the plain path.
        late.set_quantization(false);
        assert!(!late.quantized());
        assert_eq!(late.search(&q, 3), plain.search(&q, 3));
    }

    #[test]
    fn quantized_scan_is_thread_invariant() {
        let mut idx = ExactIndex::new(CosineDistance);
        idx.set_quantization(true);
        for i in 0..(super::ExactIndex::<CosineDistance>::SCAN_CHUNK * 2 + 31) {
            let x = i as f32 * 0.0371;
            idx.insert(vec![x.sin(), x.cos(), (x * 0.9).sin(), (x * 1.7).cos()]);
        }
        let query = [0.2, -0.4, 0.6, 0.1];
        let run = |threads| pas_par::with_threads(threads, || idx.search(&query, 9));
        assert_eq!(run(1), run(8));
    }

    #[test]
    #[should_panic(expected = "no quantized probe path")]
    fn quantization_rejects_unsupported_metric() {
        let mut idx = ExactIndex::new(EuclideanDistance);
        idx.set_quantization(true);
    }

    /// Clustered unit vectors: `n` points around `clusters` smooth anchors.
    fn clustered(n: usize, clusters: usize, dim: usize) -> Vec<Vec<f32>> {
        (0..n)
            .map(|i| {
                let c = (i % clusters) as f32;
                (0..dim)
                    .map(|d| (d as f32 * 0.61 + c * 2.3).sin() + (i as f32 * 0.013).sin() * 0.05)
                    .collect()
            })
            .collect()
    }

    #[test]
    fn pq_search_recall_and_lazy_training() {
        let mut plain = ExactIndex::new(CosineDistance);
        let mut pq = ExactIndex::new(CosineDistance);
        pq.set_product_quantization(true);
        assert!(pq.product_quantized());
        let vecs = clustered(500, 13, 16);
        for (i, v) in vecs.iter().enumerate() {
            plain.insert(v.clone());
            pq.insert(v.clone());
            if i + 1 < PQ_TRAIN_MIN {
                // Below the training floor the probe path is still f32.
                assert_eq!(pq.probe_bytes_per_vector(), 16 * 4);
            }
        }
        // Trained: dim 16 → 2 bytes per vector, ≥ 8x below int8's dim+4.
        assert_eq!(pq.probe_bytes_per_vector(), 2);
        let mut hit = 0usize;
        let mut total = 0usize;
        for q in vecs.iter().step_by(17) {
            let want = plain.search(q, 10);
            let got = pq.search(q, 10);
            assert_eq!(got.len(), want.len());
            let want_ids: Vec<usize> = want.iter().map(|h| h.id).collect();
            hit += got.iter().filter(|h| want_ids.contains(&h.id)).count();
            total += want.len();
            // Whatever PQ returns carries exact f32 distances.
            for g in &got {
                let exact = plain.search_radius(&vecs[g.id], 0.0);
                assert!(!exact.is_empty() || g.distance >= 0.0);
            }
        }
        assert!(hit as f64 >= total as f64 * 0.95, "recall {hit}/{total} below 0.95");
        // Disabling falls back to the plain scan, bit-identical.
        pq.set_product_quantization(false);
        let q = &vecs[3];
        assert_eq!(pq.search(q, 5), plain.search(q, 5));
    }

    #[test]
    fn pq_and_int8_tiers_are_mutually_exclusive() {
        let mut idx = ExactIndex::new(CosineDistance);
        for v in clustered(PQ_TRAIN_MIN + 10, 7, 8) {
            idx.insert(v);
        }
        idx.set_quantization(true);
        assert!(idx.quantized());
        idx.set_product_quantization(true);
        assert!(idx.product_quantized() && !idx.quantized());
        assert_eq!(idx.probe_bytes_per_vector(), 1); // dim 8 → m 1
        idx.set_quantization(true);
        assert!(idx.quantized() && !idx.product_quantized());
        assert_eq!(idx.probe_bytes_per_vector(), 8 + 4);
    }

    #[test]
    fn pq_search_is_thread_invariant() {
        let mut idx = ExactIndex::new(CosineDistance);
        idx.set_product_quantization(true);
        for v in clustered(super::ExactIndex::<CosineDistance>::SCAN_CHUNK * 2 + 31, 11, 8) {
            idx.insert(v);
        }
        let query = clustered(1, 5, 8).pop().unwrap();
        let run = |threads| pas_par::with_threads(threads, || idx.search(&query, 9));
        assert_eq!(run(1), run(8));
    }

    #[test]
    fn remove_moves_the_last_row_in_and_keeps_every_id() {
        let mut idx = index_with_points();
        assert!(idx.remove(1));
        assert!(!idx.remove(1), "a removed id stays removed");
        assert!(!idx.remove(9), "an id never handed out");
        assert_eq!(idx.len(), 3);
        // The last row now sits where id 1's did; each id keeps its vector.
        assert_eq!(idx.vector(3), &[3.0, 3.0]);
        assert_eq!(idx.vector(2), &[0.0, 2.0]);
        let ids = |hits: Vec<Neighbor>| hits.into_iter().map(|h| h.id).collect::<Vec<_>>();
        assert_eq!(ids(idx.search(&[1.0, 0.0], 10)), vec![0, 2, 3]);
        assert_eq!(ids(idx.search_radius(&[3.0, 3.0], 0.5)), vec![3]);
        // Ids keep counting past removed ones.
        assert_eq!(idx.insert(vec![1.0, 0.1]), 4);
        assert_eq!(ids(idx.search(&[1.0, 0.0], 2)), vec![4, 0]);
        for id in [0, 2, 3, 4] {
            assert!(idx.remove(id));
        }
        assert!(idx.is_empty() && idx.search(&[0.0, 0.0], 3).is_empty());
        // An emptied index takes a new width.
        assert_eq!(idx.insert(vec![1.0, 2.0, 3.0]), 5);
    }

    #[test]
    #[should_panic(expected = "was removed")]
    fn a_removed_id_has_no_vector() {
        let mut idx = index_with_points();
        idx.remove(2);
        idx.vector(2);
    }

    #[test]
    fn chunked_scan_after_removes_matches_a_full_sort() {
        let mut idx = ExactIndex::new(EuclideanDistance);
        let n = super::ExactIndex::<EuclideanDistance>::SCAN_CHUNK * 2 + 17;
        let point = |i: usize| vec![(i as f32 * 0.37).sin(), (i as f32 * 0.11).cos()];
        for i in 0..n {
            idx.insert(point(i));
        }
        for id in (0..n).step_by(5) {
            assert!(idx.remove(id));
        }
        let query = [0.2, -0.4];
        let mut want: Vec<Neighbor> = (0..n)
            .filter(|id| id % 5 != 0)
            .map(|id| Neighbor { id, distance: EuclideanDistance.distance(&query, &point(id)) })
            .collect();
        want.sort_by(|a, b| a.distance.total_cmp(&b.distance).then_with(|| a.id.cmp(&b.id)));
        want.truncate(40);
        let run = |threads| pas_par::with_threads(threads, || idx.search(&query, 40));
        let bits = |hits: &[Neighbor]| {
            hits.iter().map(|h| (h.id, h.distance.to_bits())).collect::<Vec<_>>()
        };
        assert_eq!(bits(&run(1)), bits(&want));
        assert_eq!(bits(&run(8)), bits(&want));
    }

    #[test]
    fn from_rows_answers_like_the_saved_index() {
        let mut idx = ExactIndex::new(CosineDistance);
        for v in ring(60) {
            idx.insert(v);
        }
        for id in (0..60).step_by(3) {
            idx.remove(id);
        }
        let live: Vec<usize> = (0..60).filter(|id| id % 3 != 0).collect();
        let rows = live.iter().rev().map(|&id| (id, idx.norm(id), idx.vector(id).to_vec()));
        let mut restored = ExactIndex::from_rows(CosineDistance, 60, rows);
        assert_eq!(restored.len(), idx.len());
        for q in ring(60).iter().step_by(7) {
            let bits = |hits: Vec<Neighbor>| {
                hits.into_iter().map(|h| (h.id, h.distance.to_bits())).collect::<Vec<_>>()
            };
            assert_eq!(bits(restored.search(q, 5)), bits(idx.search(q, 5)));
        }
        for &id in &live {
            assert_eq!(restored.norm(id).to_bits(), idx.norm(id).to_bits());
        }
        assert!(!restored.remove(3), "a dead id stays dead");
        assert_eq!(restored.insert(vec![0.1, 0.2, 0.3, 0.4]), 60);
    }

    #[test]
    #[should_panic(expected = "repeats or is not below")]
    fn from_rows_refuses_an_id_past_next_id() {
        ExactIndex::from_rows(EuclideanDistance, 2, [(2, 1.0, vec![1.0])]);
    }

    #[test]
    #[should_panic(expected = "cannot remove rows")]
    fn remove_refuses_an_index_with_a_code_tier() {
        let mut idx = ExactIndex::new(CosineDistance);
        idx.insert(vec![1.0, 0.0]);
        idx.set_quantization(true);
        idx.remove(0);
    }

    #[test]
    #[should_panic(expected = "dimension mismatch")]
    fn insert_rejects_mixed_dims() {
        let mut idx = ExactIndex::new(EuclideanDistance);
        idx.insert(vec![1.0, 2.0]);
        idx.insert(vec![1.0]);
    }
}
