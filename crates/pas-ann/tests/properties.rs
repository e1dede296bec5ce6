//! Property-based tests for the ANN substrate: HNSW against the exact
//! oracle, the exact index under removal against a full sort, k-means
//! invariants, dedup invariants.

use proptest::prelude::*;

use pas_ann::{
    kmeans, CosineDistance, DedupConfig, Deduplicator, EuclideanDistance, ExactIndex, Hnsw,
    HnswConfig, KMeansConfig, Metric,
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
    fn kmeans_assignments_are_nearest_centroid(vs in vectors(8..60, 3)) {
        let res = kmeans(&vs, &KMeansConfig { k: 3, ..KMeansConfig::default() });
        for (p, &a) in vs.iter().zip(&res.assignments) {
            let d_assigned: f32 = p.iter().zip(&res.centroids[a]).map(|(x, y)| (x - y).powi(2)).sum();
            for c in &res.centroids {
                let d: f32 = p.iter().zip(c).map(|(x, y)| (x - y).powi(2)).sum();
                prop_assert!(d_assigned <= d + 1e-4);
            }
        }
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

    #[test]
    fn quantized_exact_topk_after_rerank_matches_f32(vs in vectors(30..120, 16)) {
        // recall@k == 1.0, and stronger: the exact f32 re-rank over the
        // over-fetched int8 scan returns the plain index's top-k with
        // bit-identical distances.
        let mut plain = ExactIndex::new(CosineDistance);
        let mut quant = ExactIndex::new(CosineDistance);
        quant.set_quantization(true);
        for v in &vs {
            plain.insert(v.clone());
            quant.insert(v.clone());
        }
        for (i, v) in vs.iter().enumerate().step_by(9) {
            let want: Vec<(usize, u32)> =
                plain.search(v, 5).into_iter().map(|n| (n.id, n.distance.to_bits())).collect();
            let got: Vec<(usize, u32)> =
                quant.search(v, 5).into_iter().map(|n| (n.id, n.distance.to_bits())).collect();
            prop_assert_eq!(&got, &want, "exact query {}", i);
        }
    }

    #[test]
    fn quantized_hnsw_topk_after_rerank_matches_f32(vs in vectors(40..120, 12)) {
        // Graph construction always runs in f32, so both indexes hold the
        // same graph; the int8 traversal plus over-fetched f32 re-rank must
        // land on the f32 search's top-k exactly (recall@k == 1.0).
        let mut plain = Hnsw::new(HnswConfig::default(), CosineDistance);
        let mut quant = Hnsw::new(HnswConfig::default(), CosineDistance);
        quant.set_quantization(true);
        for v in &vs {
            plain.insert(v.clone());
            quant.insert(v.clone());
        }
        for (i, v) in vs.iter().enumerate().step_by(7) {
            let want: Vec<(usize, u32)> =
                plain.search(v, 5, 48).into_iter().map(|n| (n.id, n.distance.to_bits())).collect();
            let got: Vec<(usize, u32)> =
                quant.search(v, 5, 48).into_iter().map(|n| (n.id, n.distance.to_bits())).collect();
            prop_assert_eq!(&got, &want, "hnsw query {}", i);
        }
    }

    #[test]
    fn pq_rerank_recall_at_5_on_clustered_data(
        centers in prop::collection::vec(prop::collection::vec(-1.0f32..1.0, 16..=16), 3..8),
        jitters in prop::collection::vec(prop::collection::vec(-0.05f32..0.05, 16..=16), 80..150),
    ) {
        // PQ is lossy (no recall == 1.0 guarantee like int8), but on
        // clusterable data — the regime the codebook k-means is built for —
        // the over-fetched ADC scan plus exact f32 re-rank must keep
        // recall@5 at 0.95 or better against the pure-f32 oracle.
        let vs: Vec<Vec<f32>> = jitters
            .iter()
            .enumerate()
            .map(|(i, j)| {
                let c = &centers[i % centers.len()];
                c.iter().zip(j).map(|(a, b)| a + b).collect()
            })
            .collect();
        let mut plain = ExactIndex::new(CosineDistance);
        let mut pq = ExactIndex::new(CosineDistance);
        pq.set_product_quantization(true);
        for v in &vs {
            plain.insert(v.clone());
            pq.insert(v.clone());
        }
        // Enough rows to cross the lazy-training threshold: 2 code bytes
        // per vector at dim 16, not the 64-byte f32 fallback.
        prop_assert_eq!(pq.probe_bytes_per_vector(), 2);
        let mut hits = 0usize;
        let mut total = 0usize;
        for v in vs.iter().step_by(7) {
            let truth: std::collections::HashSet<usize> =
                plain.search(v, 5).into_iter().map(|n| n.id).collect();
            for n in pq.search(v, 5) {
                total += 1;
                if truth.contains(&n.id) {
                    hits += 1;
                }
            }
        }
        prop_assert!(hits * 100 >= total * 95, "PQ recall@5 {}/{}", hits, total);
    }

    #[test]
    fn pq_index_is_bit_identical_across_kernel_backends(vs in vectors(70..120, 8)) {
        // Codebook training (f32 striped kernels), encoding (integer
        // argmin), ADC tables (fixed-point), and the re-ranked probes must
        // all agree bit-for-bit on every backend this CPU has: the whole
        // index is rebuilt under each backend and every probe compared.
        use pas_kernels::Backend;
        let backends: &[Backend] = if pas_kernels::best_supported() == Backend::Avx2 {
            &[Backend::Scalar, Backend::Sse2, Backend::Avx2]
        } else if cfg!(target_arch = "x86_64") {
            &[Backend::Scalar, Backend::Sse2]
        } else {
            &[Backend::Scalar]
        };
        let restore = pas_kernels::backend();
        let runs: Vec<Vec<Vec<(usize, u32)>>> = backends
            .iter()
            .map(|&be| {
                pas_kernels::set_backend(be);
                let mut pq = Hnsw::new(HnswConfig::default(), CosineDistance);
                pq.set_product_quantization(true);
                for v in &vs {
                    pq.insert(v.clone());
                }
                vs.iter()
                    .step_by(9)
                    .map(|q| {
                        pq.search(q, 5, 48)
                            .into_iter()
                            .map(|n| (n.id, n.distance.to_bits()))
                            .collect()
                    })
                    .collect()
            })
            .collect();
        pas_kernels::set_backend(restore);
        for (bi, r) in runs.iter().enumerate().skip(1) {
            prop_assert_eq!(
                r,
                &runs[0],
                "PQ probes diverged: {} vs {}",
                backends[bi].name(),
                backends[0].name()
            );
        }
    }

    #[test]
    fn hnsw_dump_load_round_trip_is_bit_identical_across_tiers(
        vs in vectors(70..120, 8),
        removes in prop::collection::vec(0usize..1000, 0..12),
    ) {
        // The persistence contract (pas-store warm opens): a graph
        // serialized mid-life — after arbitrary inserts and removes, on
        // every probe tier — must deserialize into an index whose probes
        // AND whose future are bit-identical to the original's. 70+ rows
        // keeps the PQ tier above its lazy-training threshold.
        for tier in 0..3u8 {
            let mut live = Hnsw::new(HnswConfig::default(), CosineDistance);
            match tier {
                1 => live.set_quantization(true),
                2 => live.set_product_quantization(true),
                _ => {}
            }
            for v in &vs {
                live.insert(v.clone());
            }
            for &r in &removes {
                live.remove(r % vs.len());
            }
            let bytes = live.dump();
            let loaded = Hnsw::load(&bytes, CosineDistance);
            prop_assert!(loaded.is_ok(), "tier {} load failed: {:?}", tier, loaded.err());
            let mut loaded = loaded.unwrap();
            // Re-serializing the loaded graph reproduces the dump exactly.
            prop_assert_eq!(loaded.dump(), bytes, "tier {} dump drifted through load", tier);
            for (qi, q) in vs.iter().enumerate().step_by(9) {
                let want: Vec<(usize, u32)> =
                    live.search(q, 5, 48).into_iter().map(|n| (n.id, n.distance.to_bits())).collect();
                let got: Vec<(usize, u32)> =
                    loaded.search(q, 5, 48).into_iter().map(|n| (n.id, n.distance.to_bits())).collect();
                prop_assert_eq!(got, want, "tier {} query {} diverged after load", tier, qi);
            }
            // RNG continuity: the loaded graph's *future* matches too — the
            // same inserts land on the same levels and links.
            for v in vs.iter().take(7) {
                let grown: Vec<f32> = v.iter().map(|x| x * 0.9 + 0.05).collect();
                prop_assert_eq!(live.insert(grown.clone()), loaded.insert(grown));
            }
            for (qi, q) in vs.iter().enumerate().step_by(13) {
                let want: Vec<(usize, u32)> =
                    live.search(q, 5, 48).into_iter().map(|n| (n.id, n.distance.to_bits())).collect();
                let got: Vec<(usize, u32)> =
                    loaded.search(q, 5, 48).into_iter().map(|n| (n.id, n.distance.to_bits())).collect();
                prop_assert_eq!(got, want, "tier {} query {} diverged post-load insert", tier, qi);
            }
        }
    }

    #[test]
    fn search_batch_equals_sequential_searches(vs in vectors(20..90, 8)) {
        let mut hnsw = Hnsw::new(HnswConfig::default(), CosineDistance);
        for v in &vs {
            hnsw.insert(v.clone());
        }
        let queries: Vec<Vec<f32>> = vs.iter().step_by(5).cloned().collect();
        let batch = hnsw.search_batch(&queries, 4, 32);
        prop_assert_eq!(batch.len(), queries.len());
        for (qi, (q, got)) in queries.iter().zip(&batch).enumerate() {
            let want = hnsw.search(q, 4, 32);
            prop_assert_eq!(got.len(), want.len(), "query {}", qi);
            for (g, w) in got.iter().zip(&want) {
                prop_assert_eq!(g.id, w.id, "query {}", qi);
                prop_assert_eq!(g.distance.to_bits(), w.distance.to_bits(), "query {}", qi);
            }
        }
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
