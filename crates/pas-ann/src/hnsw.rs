//! Hierarchical Navigable Small World (HNSW) index.
//!
//! Implements the construction and search procedures of Malkov & Yashunin
//! (2016): every inserted vector gets a geometrically distributed level; each
//! level holds a proximity graph; queries descend greedily from the top
//! layer and run an `ef`-bounded best-first search at layer 0.
//!
//! The implementation favours clarity and determinism (seeded level
//! assignment, id-ordered tie-breaks) over micro-optimization; the exact
//! scanner in [`crate::exact`] provides the correctness oracle in tests and
//! the speed baseline in benches.

use std::cmp::Ordering;
use std::collections::BinaryHeap;

use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

use crate::metric::Metric;
use crate::Neighbor;

// Observability counters. Probe counts (distance evaluations) per
// `search_layer` call are a pure function of the graph and query, and the
// parallel build plans against a frozen wave graph, so the totals are
// thread-count invariant even though the adds happen inside `par_map`.
static OBS_SEARCHES: pas_obs::Counter = pas_obs::Counter::new("ann.hnsw.searches");
static OBS_PROBES: pas_obs::Counter = pas_obs::Counter::new("ann.hnsw.probes");

/// HNSW construction parameters.
#[derive(Debug, Clone)]
pub struct HnswConfig {
    /// Max bidirectional links per node per layer (layer 0 uses `2 * m`).
    pub m: usize,
    /// Beam width during construction.
    pub ef_construction: usize,
    /// Seed for the level-assignment RNG.
    pub seed: u64,
}

impl Default for HnswConfig {
    fn default() -> Self {
        HnswConfig { m: 16, ef_construction: 100, seed: 0x9a5 }
    }
}

/// Distance-ordered candidate for the heaps. `Reverse`-style ordering is
/// obtained by negating through the wrapper types below.
#[derive(Debug, Clone, Copy, PartialEq)]
struct Candidate {
    distance: f32,
    id: usize,
}

impl Eq for Candidate {}

impl Ord for Candidate {
    fn cmp(&self, other: &Self) -> Ordering {
        // Max-heap by distance, ties by id (deterministic).
        self.distance.total_cmp(&other.distance).then_with(|| self.id.cmp(&other.id))
    }
}

impl PartialOrd for Candidate {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

#[derive(Debug)]
struct Node {
    /// `neighbors[l]` = adjacency at layer `l`; length = node level + 1.
    neighbors: Vec<Vec<usize>>,
}

impl Node {
    fn level(&self) -> usize {
        self.neighbors.len() - 1
    }
}

/// The HNSW index. Generic over the distance [`Metric`].
///
/// Vectors are stored in the metric's *prepared* form ([`Metric::prepare`])
/// plus their original L2 norm: under [`crate::CosineDistance`] that is the
/// unit vector, so every probe during construction and search is a single
/// fused dot product (`1 − a·b`) instead of recomputing both operand norms.
/// Queries are prepared once per call.
pub struct Hnsw<M: Metric> {
    config: HnswConfig,
    metric: M,
    /// Prepared (e.g. unit-normalized) vectors, one per node.
    vectors: Vec<Vec<f32>>,
    /// Original L2 norm of each vector, recorded at insert.
    norms: Vec<f32>,
    nodes: Vec<Node>,
    entry: Option<usize>,
    rng: StdRng,
    level_norm: f64,
    /// Vector dimension, locked at the first insert (0 = not yet known).
    dim: usize,
}

impl<M: Metric> Hnsw<M> {
    /// Creates an empty index.
    ///
    /// # Panics
    /// Panics when `m < 2` or `ef_construction == 0`.
    pub fn new(config: HnswConfig, metric: M) -> Self {
        assert!(config.m >= 2, "m must be at least 2");
        assert!(config.ef_construction > 0, "ef_construction must be positive");
        let level_norm = 1.0 / (config.m as f64).ln();
        let rng = StdRng::seed_from_u64(config.seed);
        Hnsw {
            config,
            metric,
            vectors: Vec::new(),
            norms: Vec::new(),
            nodes: Vec::new(),
            entry: None,
            rng,
            level_norm,
            dim: 0,
        }
    }

    /// Number of stored vectors.
    pub fn len(&self) -> usize {
        self.vectors.len()
    }

    /// True when no vectors are stored.
    pub fn is_empty(&self) -> bool {
        self.vectors.is_empty()
    }

    /// The stored vector for `id`, in the metric's prepared form (under
    /// cosine: the unit vector — multiply by [`Hnsw::norm`] to recover the
    /// original magnitude).
    pub fn vector(&self, id: usize) -> &[f32] {
        &self.vectors[id]
    }

    /// Original L2 norm of the vector inserted as `id`.
    pub fn norm(&self, id: usize) -> f32 {
        self.norms[id]
    }

    fn random_level(&mut self) -> usize {
        let u: f64 = self.rng.random::<f64>().max(f64::MIN_POSITIVE);
        ((-u.ln()) * self.level_norm).floor() as usize
    }

    #[inline]
    fn dist(&self, a: usize, query: &[f32]) -> f32 {
        self.metric.prepared_distance(&self.vectors[a], query)
    }

    /// Best-first search at one layer. `query` must already be in prepared
    /// form. Returns up to `ef` closest candidates, unsorted.
    fn search_layer(&self, query: &[f32], entry: usize, ef: usize, layer: usize) -> Vec<Candidate> {
        let mut visited = vec![false; self.nodes.len()];
        visited[entry] = true;
        let mut probes = 1u64;
        let entry_cand = Candidate { distance: self.dist(entry, query), id: entry };

        // `candidates`: min-heap (via Reverse) of nodes to expand.
        let mut candidates: BinaryHeap<std::cmp::Reverse<Candidate>> = BinaryHeap::new();
        candidates.push(std::cmp::Reverse(entry_cand));
        // `results`: max-heap keeping the `ef` best found so far.
        let mut results: BinaryHeap<Candidate> = BinaryHeap::new();
        results.push(entry_cand);

        while let Some(std::cmp::Reverse(current)) = candidates.pop() {
            let worst = results.peek().expect("results never empty").distance;
            if current.distance > worst && results.len() >= ef {
                break;
            }
            for &next in &self.nodes[current.id].neighbors[layer] {
                if visited[next] {
                    continue;
                }
                visited[next] = true;
                probes += 1;
                let d = self.dist(next, query);
                let worst = results.peek().expect("non-empty").distance;
                if results.len() < ef || d < worst {
                    let cand = Candidate { distance: d, id: next };
                    candidates.push(std::cmp::Reverse(cand));
                    results.push(cand);
                    if results.len() > ef {
                        results.pop();
                    }
                }
            }
        }
        OBS_PROBES.add(probes);
        results.into_vec()
    }

    /// Greedy descent to the closest node at `layer`, starting from `entry`.
    fn greedy_step(&self, query: &[f32], mut entry: usize, layer: usize) -> usize {
        let mut best = self.dist(entry, query);
        loop {
            let mut improved = false;
            for &next in &self.nodes[entry].neighbors[layer] {
                let d = self.dist(next, query);
                if d < best {
                    best = d;
                    entry = next;
                    improved = true;
                }
            }
            if !improved {
                return entry;
            }
        }
    }

    fn max_links(&self, layer: usize) -> usize {
        if layer == 0 {
            self.config.m * 2
        } else {
            self.config.m
        }
    }

    /// Inserts a vector, returning its id (insertion order).
    pub fn insert(&mut self, mut vector: Vec<f32>) -> usize {
        let norm = self.metric.prepare(&mut vector);
        let level = self.random_level();
        let links = self.plan_insert(&vector, level);
        self.commit_plan(vector, norm, level, links)
    }

    /// Computes the layer-wise link selection for inserting `query` (already
    /// in prepared form) at `level`, *without mutating the graph*. This is
    /// the expensive half of an insert (all the distance evaluations live
    /// here) and is a pure function of the current graph, so
    /// [`Hnsw::build_batch`] runs it for a whole wave of vectors in
    /// parallel. Returns `links[layer]` = selected peers for each layer from
    /// 0 up to `min(level, top_level)`; empty when the index is empty.
    fn plan_insert(&self, query: &[f32], level: usize) -> Vec<Vec<usize>> {
        let Some(mut entry) = self.entry else {
            return Vec::new();
        };
        let top_level = self.nodes[entry].level();

        // Phase 1: descend through layers above the new node's level.
        for layer in ((level + 1)..=top_level).rev() {
            entry = self.greedy_step(query, entry, layer);
        }

        // Phase 2: select links on each layer from min(level, top) down to 0.
        let mut links = vec![Vec::new(); level.min(top_level) + 1];
        for layer in (0..=level.min(top_level)).rev() {
            let mut sorted = self.search_layer(query, entry, self.config.ef_construction, layer);
            sorted.sort();
            let m = self.max_links(layer);
            links[layer] = sorted.iter().take(m).map(|c| c.id).collect();
            // Continue descent from the closest node found on this layer.
            if let Some(best) = sorted.first() {
                entry = best.id;
            }
        }
        links
    }

    /// Applies a plan from [`Hnsw::plan_insert`]: registers the prepared
    /// vector and its original norm, wires the bidirectional links, trims
    /// overfull peers, and promotes the entry point when the new node's
    /// level exceeds the current top. Cheap (no distance evaluations except
    /// inside `shrink_links`) and always sequential — the graph mutation
    /// order is what keeps builds deterministic.
    fn commit_plan(
        &mut self,
        vector: Vec<f32>,
        norm: f32,
        level: usize,
        links: Vec<Vec<usize>>,
    ) -> usize {
        let id = self.vectors.len();
        if self.dim == 0 {
            self.dim = vector.len();
        } else {
            assert_eq!(vector.len(), self.dim, "vector dimension mismatch at insert");
        }
        let prev_top = self.entry.map(|e| self.nodes[e].level());
        self.vectors.push(vector);
        self.norms.push(norm);
        self.nodes.push(Node { neighbors: vec![Vec::new(); level + 1] });
        for (layer, peers) in links.iter().enumerate() {
            for &peer in peers {
                self.nodes[id].neighbors[layer].push(peer);
                self.nodes[peer].neighbors[layer].push(id);
                self.shrink_links(peer, layer);
            }
        }
        match prev_top {
            None => self.entry = Some(id),
            Some(top) if level > top => self.entry = Some(id),
            _ => {}
        }
        id
    }

    /// Bulk insertion with parallel distance evaluations. Returns the ids
    /// assigned, in input order.
    ///
    /// Vectors are processed in *waves*: every vector in a wave plans its
    /// links concurrently against the graph as frozen at the wave start
    /// (via [`pas_par::par_map`] — pure reads), then the plans are committed
    /// sequentially in input order. Wave sizes grow with the graph
    /// (1, 2, 4, … capped at [`Hnsw::MAX_WAVE`]) and never depend on the
    /// thread count, and levels are pre-drawn from the index RNG in input
    /// order, so the resulting graph is bit-identical at any `--threads`
    /// setting. The graph differs slightly from the one incremental
    /// [`Hnsw::insert`] calls would build (wave peers don't see each other
    /// while planning), but it satisfies the same HNSW invariants and recall
    /// bounds — see `batch_build_recall_matches_incremental`.
    pub fn build_batch(&mut self, vectors: Vec<Vec<f32>>) -> Vec<usize> {
        let levels: Vec<usize> = vectors.iter().map(|_| self.random_level()).collect();
        // Prepare every vector once up front (unit-normalize under cosine) —
        // element-wise work, safely parallel, order-independent.
        let prepared = pas_par::par_map(&vectors, |_, v| {
            let mut v = v.clone();
            let norm = self.metric.prepare(&mut v);
            (v, norm)
        });
        drop(vectors);
        let mut ids = Vec::with_capacity(prepared.len());
        let mut prepared: Vec<Option<(Vec<f32>, f32)>> = prepared.into_iter().map(Some).collect();
        let mut next = 0;
        while next < prepared.len() {
            let wave = (prepared.len() - next).min(self.len().clamp(1, Self::MAX_WAVE));
            let plans = {
                let wave_inputs: Vec<(usize, &[f32])> = (next..next + wave)
                    .map(|i| (i, prepared[i].as_ref().expect("not yet committed").0.as_slice()))
                    .collect();
                pas_par::par_map(&wave_inputs, |_, &(i, v)| self.plan_insert(v, levels[i]))
            };
            for (j, links) in plans.into_iter().enumerate() {
                let i = next + j;
                let (v, norm) = prepared[i].take().expect("committed once");
                ids.push(self.commit_plan(v, norm, levels[i], links));
            }
            next += wave;
        }
        ids
    }

    /// Cap on the number of vectors planned concurrently per wave of
    /// [`Hnsw::build_batch`]. Bounds how stale the frozen graph each plan
    /// sees can get (graph quality) while leaving enough items in flight to
    /// occupy every worker (speed).
    pub const MAX_WAVE: usize = 64;

    /// Trims a node's adjacency at `layer` to at most `max_links` using the
    /// diversity heuristic of Malkov & Yashunin's Algorithm 4: walk the
    /// candidates closest-first and keep one only when it is closer to the
    /// base than to every neighbour already kept; then backfill remaining
    /// slots with the closest pruned candidates ("keep pruned connections").
    /// Plain closest-`M` truncation severs every inbound link of an outlier
    /// (it is everyone's farthest neighbour), disconnecting it from the
    /// graph; the heuristic preserves such bridges.
    fn shrink_links(&mut self, node: usize, layer: usize) {
        let m = self.max_links(layer);
        if self.nodes[node].neighbors[layer].len() <= m {
            return;
        }
        let base = self.vectors[node].clone();
        let mut links: Vec<Candidate> = self.nodes[node].neighbors[layer]
            .iter()
            .map(|&peer| Candidate {
                distance: self.metric.prepared_distance(&base, &self.vectors[peer]),
                id: peer,
            })
            .collect();
        links.sort();
        let mut selected: Vec<Candidate> = Vec::with_capacity(m);
        let mut pruned: Vec<Candidate> = Vec::new();
        for cand in links {
            if selected.len() >= m {
                break;
            }
            let diverse = selected.iter().all(|s| {
                cand.distance
                    < self.metric.prepared_distance(&self.vectors[cand.id], &self.vectors[s.id])
            });
            if diverse {
                selected.push(cand);
            } else {
                pruned.push(cand);
            }
        }
        for cand in pruned {
            if selected.len() >= m {
                break;
            }
            selected.push(cand);
        }
        self.nodes[node].neighbors[layer] = selected.into_iter().map(|c| c.id).collect();
    }

    /// Searches the `k` nearest neighbours of `query` with beam width `ef`
    /// (clamped up to `k`). Closest first; ties by id. The query is prepared
    /// once (one normalization under cosine); every probe after that is a
    /// prepared-form distance.
    pub fn search(&self, query: &[f32], k: usize, ef: usize) -> Vec<Neighbor> {
        OBS_SEARCHES.incr();
        let Some(mut entry) = self.entry else {
            return Vec::new();
        };
        let mut prepared = query.to_vec();
        self.metric.prepare(&mut prepared);
        let query = prepared.as_slice();
        let top_level = self.nodes[entry].level();
        for layer in (1..=top_level).rev() {
            entry = self.greedy_step(query, entry, layer);
        }
        let mut found = self.search_layer(query, entry, ef.max(k).max(1), 0);
        found.sort();
        found.into_iter().take(k).map(|c| Neighbor { id: c.id, distance: c.distance }).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exact::ExactIndex;
    use crate::metric::{CosineDistance, EuclideanDistance};
    use rand::RngExt;

    fn random_vectors(n: usize, dim: usize, seed: u64) -> Vec<Vec<f32>> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..n).map(|_| (0..dim).map(|_| rng.random::<f32>() * 2.0 - 1.0).collect()).collect()
    }

    #[test]
    fn empty_index_searches_empty() {
        let idx = Hnsw::new(HnswConfig::default(), EuclideanDistance);
        assert!(idx.search(&[1.0, 2.0], 3, 16).is_empty());
        assert!(idx.is_empty());
    }

    #[test]
    fn single_element() {
        let mut idx = Hnsw::new(HnswConfig::default(), EuclideanDistance);
        idx.insert(vec![1.0, 1.0]);
        let hits = idx.search(&[0.0, 0.0], 5, 16);
        assert_eq!(hits.len(), 1);
        assert_eq!(hits[0].id, 0);
    }

    #[test]
    fn exact_match_is_found_first() {
        let mut idx = Hnsw::new(HnswConfig::default(), EuclideanDistance);
        let vecs = random_vectors(100, 8, 1);
        for v in &vecs {
            idx.insert(v.clone());
        }
        let hits = idx.search(&vecs[37], 1, 50);
        assert_eq!(hits[0].id, 37);
        assert!(hits[0].distance < 1e-6);
    }

    #[test]
    fn recall_at_10_vs_exact() {
        let vecs = random_vectors(500, 16, 7);
        let mut hnsw =
            Hnsw::new(HnswConfig { m: 12, ef_construction: 80, seed: 3 }, EuclideanDistance);
        let mut exact = ExactIndex::new(EuclideanDistance);
        for v in &vecs {
            hnsw.insert(v.clone());
            exact.insert(v.clone());
        }
        let queries = random_vectors(20, 16, 99);
        let mut hits_total = 0usize;
        for q in &queries {
            let truth: std::collections::HashSet<usize> =
                exact.search(q, 10).into_iter().map(|n| n.id).collect();
            let approx = hnsw.search(q, 10, 80);
            hits_total += approx.iter().filter(|n| truth.contains(&n.id)).count();
        }
        let recall = hits_total as f64 / (10 * queries.len()) as f64;
        assert!(recall >= 0.9, "recall@10 = {recall}");
    }

    #[test]
    fn results_sorted_by_distance() {
        let vecs = random_vectors(100, 4, 11);
        let mut idx = Hnsw::new(HnswConfig::default(), EuclideanDistance);
        for v in &vecs {
            idx.insert(v.clone());
        }
        let hits = idx.search(&vecs[0], 10, 64);
        for w in hits.windows(2) {
            assert!(w[0].distance <= w[1].distance);
        }
    }

    #[test]
    fn deterministic_given_seed() {
        let vecs = random_vectors(80, 8, 5);
        let build = |seed| {
            let mut idx =
                Hnsw::new(HnswConfig { seed, ..HnswConfig::default() }, EuclideanDistance);
            for v in &vecs {
                idx.insert(v.clone());
            }
            idx.search(&vecs[3], 5, 32).into_iter().map(|n| n.id).collect::<Vec<_>>()
        };
        assert_eq!(build(42), build(42));
    }

    #[test]
    #[should_panic(expected = "at least 2")]
    fn tiny_m_rejected() {
        let _ = Hnsw::new(HnswConfig { m: 1, ..HnswConfig::default() }, EuclideanDistance);
    }

    #[test]
    fn batch_build_assigns_sequential_ids() {
        let vecs = random_vectors(150, 8, 23);
        let mut idx = Hnsw::new(HnswConfig::default(), EuclideanDistance);
        let ids = idx.build_batch(vecs);
        assert_eq!(ids, (0..150).collect::<Vec<_>>());
        assert_eq!(idx.len(), 150);
    }

    #[test]
    fn batch_build_is_thread_count_invariant() {
        let vecs = random_vectors(300, 8, 29);
        let build = |threads: usize| {
            pas_par::with_threads(threads, || {
                let mut idx = Hnsw::new(HnswConfig::default(), EuclideanDistance);
                idx.build_batch(vecs.clone());
                // The whole index: every adjacency list, vector and norm bit,
                // and the entry point.
                let graph: Vec<Vec<Vec<usize>>> =
                    idx.nodes.iter().map(|n| n.neighbors.clone()).collect();
                let bits: Vec<Vec<u32>> = idx
                    .vectors
                    .iter()
                    .zip(&idx.norms)
                    .map(|(v, norm)| v.iter().chain([norm]).map(|x| x.to_bits()).collect())
                    .collect();
                let probes: Vec<Vec<usize>> = vecs
                    .iter()
                    .step_by(17)
                    .map(|q| idx.search(q, 5, 48).into_iter().map(|n| n.id).collect())
                    .collect();
                (graph, bits, idx.entry, probes)
            })
        };
        let serial = build(1);
        assert_eq!(build(2), serial);
        assert_eq!(build(8), serial);
    }

    #[test]
    fn batch_build_recall_matches_incremental() {
        let vecs = random_vectors(500, 16, 7);
        let mut hnsw =
            Hnsw::new(HnswConfig { m: 12, ef_construction: 80, seed: 3 }, EuclideanDistance);
        hnsw.build_batch(vecs.clone());
        let mut exact = ExactIndex::new(EuclideanDistance);
        for v in &vecs {
            exact.insert(v.clone());
        }
        let queries = random_vectors(20, 16, 99);
        let mut hits_total = 0usize;
        for q in &queries {
            let truth: std::collections::HashSet<usize> =
                exact.search(q, 10).into_iter().map(|n| n.id).collect();
            let approx = hnsw.search(q, 10, 80);
            hits_total += approx.iter().filter(|n| truth.contains(&n.id)).count();
        }
        let recall = hits_total as f64 / (10 * queries.len()) as f64;
        assert!(recall >= 0.9, "batch-built recall@10 = {recall}");
    }

    #[test]
    fn batch_build_draws_same_levels_as_incremental() {
        // The level sequence comes from the index RNG in input order, so a
        // batch build consumes exactly the same draws as incremental inserts.
        let vecs = random_vectors(40, 4, 31);
        let mut a = Hnsw::new(HnswConfig::default(), EuclideanDistance);
        a.build_batch(vecs.clone());
        let mut b = Hnsw::new(HnswConfig::default(), EuclideanDistance);
        for v in &vecs {
            b.insert(v.clone());
        }
        let levels =
            |idx: &Hnsw<EuclideanDistance>| idx.nodes.iter().map(|n| n.level()).collect::<Vec<_>>();
        assert_eq!(levels(&a), levels(&b));
    }

    #[test]
    fn batch_build_on_top_of_existing_index() {
        let vecs = random_vectors(120, 8, 37);
        let mut idx = Hnsw::new(HnswConfig::default(), EuclideanDistance);
        for v in &vecs[..40] {
            idx.insert(v.clone());
        }
        let ids = idx.build_batch(vecs[40..].to_vec());
        assert_eq!(ids.first(), Some(&40));
        assert_eq!(idx.len(), 120);
        let hits = idx.search(&vecs[100], 1, 64);
        assert_eq!(hits[0].id, 100);
        assert!(hits[0].distance < 1e-6);
    }

    #[test]
    fn cosine_store_is_prenormalized_and_keeps_norms() {
        let mut idx = Hnsw::new(HnswConfig::default(), CosineDistance);
        idx.insert(vec![3.0, 0.0, 4.0]);
        idx.insert(vec![0.0, 0.0, 0.0]);
        assert_eq!(idx.norm(0), 5.0);
        assert!((pas_kernels::sum_sq(idx.vector(0)).sqrt() - 1.0).abs() < 1e-6);
        assert_eq!(idx.norm(1), 0.0);
        assert_eq!(idx.vector(1), &[0.0, 0.0, 0.0]);
        // Scale-invariant probe: an unnormalized query parallel to vector 0
        // still lands at distance ~0.
        let hits = idx.search(&[30.0, 0.0, 40.0], 1, 16);
        assert_eq!(hits[0].id, 0);
        assert!(hits[0].distance < 1e-6);
    }

    #[test]
    fn batch_build_prepares_like_incremental_inserts() {
        let vecs: Vec<Vec<f32>> = random_vectors(90, 8, 41)
            .into_iter()
            .map(|v| v.into_iter().map(|x| x * 3.0).collect())
            .collect();
        let mut batch = Hnsw::new(HnswConfig::default(), CosineDistance);
        batch.build_batch(vecs.clone());
        let mut incremental = Hnsw::new(HnswConfig::default(), CosineDistance);
        for v in &vecs {
            incremental.insert(v.clone());
        }
        for id in 0..vecs.len() {
            assert_eq!(batch.vector(id), incremental.vector(id), "stored vector {id}");
            assert_eq!(batch.norm(id).to_bits(), incremental.norm(id).to_bits(), "norm {id}");
        }
    }

    #[test]
    fn batch_build_empty_input_is_noop() {
        let mut idx = Hnsw::new(HnswConfig::default(), EuclideanDistance);
        assert!(idx.build_batch(Vec::new()).is_empty());
        assert!(idx.is_empty());
    }
}
