//! Property-based tests for the ANN substrate: HNSW against the exact
//! oracle, the exact index under removal against a full sort, dedup
//! invariants.

use proptest::prelude::*;

use pas_ann::{
    CosineDistance, DedupConfig, Deduplicator, EuclideanDistance, ExactIndex, Hnsw, HnswConfig,
    Metric,
};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

fn vectors(n: std::ops::Range<usize>, dim: usize) -> impl Strategy<Value = Vec<Vec<f32>>> {
    prop::collection::vec(prop::collection::vec(-1.0f32..1.0, dim..=dim), n)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn hnsw_top1_matches_exact_for_existing_points(vs in vectors(5..80, 6)) {
        let mut hnsw = Hnsw::new(HnswConfig { ef_construction: 64, ..HnswConfig::default() }, EuclideanDistance);
        let mut exact = ExactIndex::new(EuclideanDistance);
        for v in &vs {
            hnsw.insert(v.clone());
            exact.insert(v.clone());
        }
        // Querying an inserted point must return distance ~0 at rank 1.
        for (i, v) in vs.iter().enumerate().step_by(7) {
            let hit = &hnsw.search(v, 1, 48)[0];
            prop_assert!(hit.distance < 1e-5, "query {i}: distance {}", hit.distance);
        }
    }

    #[test]
    fn hnsw_recall_at_5_is_high(vs in vectors(60..150, 8)) {
        let mut hnsw = Hnsw::new(HnswConfig { ef_construction: 80, ..HnswConfig::default() }, EuclideanDistance);
        let mut exact = ExactIndex::new(EuclideanDistance);
        for v in &vs {
            hnsw.insert(v.clone());
            exact.insert(v.clone());
        }
        let mut hits = 0usize;
        let mut total = 0usize;
        for v in vs.iter().step_by(11) {
            let truth: std::collections::HashSet<usize> =
                exact.search(v, 5).into_iter().map(|n| n.id).collect();
            for n in hnsw.search(v, 5, 64) {
                total += 1;
                if truth.contains(&n.id) {
                    hits += 1;
                }
            }
        }
        prop_assert!(total == 0 || hits * 10 >= total * 8, "recall {hits}/{total}");
    }

    #[test]
    fn hnsw_results_are_sorted_and_unique(vs in vectors(10..60, 4)) {
        let mut hnsw = Hnsw::new(HnswConfig::default(), EuclideanDistance);
        for v in &vs {
            hnsw.insert(v.clone());
        }
        let res = hnsw.search(&vs[0], 8, 32);
        for w in res.windows(2) {
            prop_assert!(w[0].distance <= w[1].distance);
        }
        let ids: std::collections::HashSet<usize> = res.iter().map(|n| n.id).collect();
        prop_assert_eq!(ids.len(), res.len(), "duplicate ids in results");
    }

    #[test]
    fn dedup_partitions_the_input(vs in vectors(5..60, 5)) {
        let out = Deduplicator::run(DedupConfig::default(), vs.clone());
        prop_assert_eq!(out.group_of.len(), vs.len());
        prop_assert!(out.kept.len() <= vs.len());
        prop_assert!(!out.kept.is_empty());
        // Every group id referenced is in range.
        for &g in &out.group_of {
            prop_assert!(g < out.group_count);
        }
        // Kept items are in strictly increasing input order.
        for w in out.kept.windows(2) {
            prop_assert!(w[0] < w[1]);
        }
    }

    #[test]
    fn dedup_is_idempotent(vs in vectors(5..50, 5)) {
        let first = Deduplicator::run(DedupConfig::default(), vs.clone());
        let kept: Vec<Vec<f32>> = first.kept.iter().map(|&i| vs[i].clone()).collect();
        let second = Deduplicator::run(DedupConfig::default(), kept.clone());
        prop_assert_eq!(second.kept.len(), kept.len(), "dedup of deduped must keep all");
    }

    #[test]
    fn cosine_distance_triangle_ish(a in prop::collection::vec(-1.0f32..1.0, 4),
                                    b in prop::collection::vec(-1.0f32..1.0, 4)) {
        use pas_ann::Metric;
        let d = CosineDistance.distance(&a, &b);
        prop_assert!((0.0..=2.0 + 1e-5).contains(&d));
        prop_assert!((CosineDistance.distance(&b, &a) - d).abs() < 1e-6);
    }

    // After any script of inserts and removes, every search returns what
    // sorting all survivors by `(distance, id)` and keeping `k` returns,
    // bit for bit, so a removed id never appears. Coordinates come from a
    // five-value grid, so exact distance ties (and zero vectors) are
    // common and the id tie-break is exercised.
    #[test]
    fn exact_index_matches_a_sort_of_the_survivors(seed in 0u64..u64::MAX) {
        let mut rng = StdRng::seed_from_u64(seed);
        let grid = [-1.0f32, -0.5, 0.0, 0.5, 1.0];
        let draw = |rng: &mut StdRng| -> Vec<f32> {
            (0..4).map(|_| grid[rng.random_range(0..grid.len())]).collect()
        };
        let prepared = |mut v: Vec<f32>| {
            CosineDistance.prepare(&mut v);
            v
        };
        let mut index = ExactIndex::new(CosineDistance);
        let mut survivors: Vec<(usize, Vec<f32>)> = Vec::new();
        let mut removed: Vec<usize> = Vec::new();
        for step in 0..rng.random_range(1..160) {
            if survivors.is_empty() || rng.random_range(0..3) > 0 {
                let v = draw(&mut rng);
                let id = index.insert(v.clone());
                survivors.push((id, prepared(v)));
            } else {
                let (id, _) = survivors.swap_remove(rng.random_range(0..survivors.len()));
                prop_assert!(index.remove(id), "step {}: live id {} not removed", step, id);
                removed.push(id);
            }
            let query = draw(&mut rng);
            let q = prepared(query.clone());
            let k = rng.random_range(0..survivors.len() + 2);
            let mut want: Vec<(usize, f32)> = survivors
                .iter()
                .map(|(id, v)| (*id, CosineDistance.prepared_distance(&q, v)))
                .collect();
            want.sort_by(|a, b| a.1.total_cmp(&b.1).then_with(|| a.0.cmp(&b.0)));
            want.truncate(k);
            let bits = |hits: &[(usize, f32)]| {
                hits.iter().map(|&(id, d)| (id, d.to_bits())).collect::<Vec<_>>()
            };
            let got: Vec<(usize, f32)> =
                index.search(&query, k).into_iter().map(|n| (n.id, n.distance)).collect();
            prop_assert_eq!(bits(&got), bits(&want), "step {}", step);
            prop_assert_eq!(index.len(), survivors.len());
            let everything = index.search_radius(&query, f32::INFINITY);
            prop_assert!(everything.iter().all(|n| !removed.contains(&n.id)), "step {}", step);
            for &id in &removed {
                prop_assert!(!index.remove(id), "step {}: id {} removed twice", step, id);
            }
        }
        for (id, v) in &survivors {
            let stored: Vec<u32> = index.vector(*id).iter().map(|x| x.to_bits()).collect();
            let want: Vec<u32> = v.iter().map(|x| x.to_bits()).collect();
            prop_assert_eq!(stored, want, "id {}", id);
        }
    }
}
