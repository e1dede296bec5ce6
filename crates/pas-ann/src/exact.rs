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

use std::cmp::Ordering;
use std::collections::BinaryHeap;

use crate::metric::Metric;
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
    pub fn remove(&mut self, id: usize) -> bool {
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
    /// Large collections are scanned in parallel: every `SCAN_CHUNK` range
    /// of rows (a fixed size, never dependent on the thread count) reduces
    /// to a local top-`k`, and the partial results reduce to the top-`k` of
    /// all. The top-`k` is exact, so the output is identical at any
    /// `--threads` setting.
    pub fn search(&self, query: &[f32], k: usize) -> Vec<Neighbor> {
        OBS_SEARCHES.incr();
        OBS_PROBES.add(self.len() as u64);
        let query = self.prepared_query(query);
        let n = self.len();
        if n <= Self::SCAN_CHUNK {
            return self.scan(&query, 0, n, k);
        }
        let chunk_starts: Vec<usize> = (0..n).step_by(Self::SCAN_CHUNK).collect();
        let partial = pas_par::par_map(&chunk_starts, |_, &start| {
            self.scan(&query, start, (start + Self::SCAN_CHUNK).min(n), k)
        });
        top_k(partial.into_iter().flatten(), k)
    }

    /// Vectors scanned per parallel work item in [`ExactIndex::search`].
    const SCAN_CHUNK: usize = 2048;

    /// The `k` nearest of the rows `start..end` to an already-prepared
    /// query.
    fn scan(&self, query: &[f32], start: usize, end: usize, k: usize) -> Vec<Neighbor> {
        let mut distances = vec![0.0f32; end - start];
        self.metric.prepared_distance_block(
            query,
            &self.data[start * self.dim..end * self.dim],
            &mut distances,
        );
        let ids = &self.ids[start..end];
        top_k(distances.into_iter().zip(ids).map(|(distance, &id)| Neighbor { id, distance }), k)
    }

    /// All ids whose distance to `query` is at most `radius`.
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

    /// Smoothly varying 4-d points, one per `i`.
    fn ring(n: usize) -> Vec<Vec<f32>> {
        (0..n)
            .map(|i| {
                let x = i as f32 * 0.113;
                vec![x.sin(), x.cos(), (x * 0.7).sin(), (x * 1.3).cos()]
            })
            .collect()
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
    #[should_panic(expected = "dimension mismatch")]
    fn insert_rejects_mixed_dims() {
        let mut idx = ExactIndex::new(EuclideanDistance);
        idx.insert(vec![1.0, 2.0]);
        idx.insert(vec![1.0]);
    }
}
