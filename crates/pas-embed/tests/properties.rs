//! Property-based tests for the embedding layer.

use proptest::prelude::*;

use pas_embed::{cosine, feature_bag, l2_norm, Embedder, EmbeddingCache, IdfModel, NgramEmbedder};

mod reference;

use reference::{bag_bits, bits};

/// Output widths around the 8-slot lane and the 64-slot stream word.
const DIMS: [usize; 8] = [1, 7, 8, 17, 63, 64, 65, 130];

/// Printable ASCII plus chars whose lowercase, case class or width is
/// unusual: `İ` lowercases to two chars, `Σ` to a final or medial sigma,
/// `ǅ` is titlecase, `Ⅻ` and `٣` are non-Latin alphanumerics, U+0301 is a
/// combining mark, U+00A0 is whitespace, and the rest are 2- to 4-byte
/// UTF-8.
const TEXT: &str = "[ -~\t\nİΣσςǅⅫ٣\u{301}\u{a0}ßé雪🙂]{0,160}";

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    // The served bag and projection against the plain per-gram,
    // per-bit reference: the same entries and the same vector bits at
    // every width. The IDF-reweighted bag carries weights that are not
    // small integers, so a sum added in another order would show.
    #[test]
    fn bags_and_projections_match_the_reference_bit_for_bit(
        text in TEXT,
        corpus in prop::collection::vec(TEXT, 0..4),
        seed in 0u64..u64::MAX,
    ) {
        let want = reference::feature_bag(&text);
        let bag = feature_bag(&text);
        prop_assert_eq!(bag_bits(bag.entries()), bag_bits(&want));
        let bags: Vec<_> = corpus.iter().map(|d| feature_bag(d)).chain([bag.clone()]).collect();
        let reweighted = IdfModel::fit(bags.iter()).reweight(&bag);
        for dim in DIMS {
            let e = NgramEmbedder::new(dim, seed);
            prop_assert_eq!(bits(&e.embed(&text)), bits(&reference::project(dim, seed, &want)));
            prop_assert_eq!(
                bits(&e.project(&reweighted)),
                bits(&reference::project(dim, seed, &reweighted))
            );
        }
    }

    #[test]
    fn embeddings_are_unit_or_zero(s in ".{0,120}") {
        let e = NgramEmbedder::default();
        let v = e.embed(&s);
        let n = l2_norm(&v);
        prop_assert!(n.abs() < 1e-5 || (n - 1.0).abs() < 1e-4, "norm {n}");
    }

    #[test]
    fn cosine_is_symmetric_and_bounded(a in ".{0,80}", b in ".{0,80}") {
        let e = NgramEmbedder::default();
        let va = e.embed(&a);
        let vb = e.embed(&b);
        let ab = cosine(&va, &vb);
        prop_assert!((-1.0001..=1.0001).contains(&ab));
        prop_assert!((ab - cosine(&vb, &va)).abs() < 1e-6);
    }

    #[test]
    fn self_similarity_is_one_for_nonempty(s in "[a-z]{3,20}( [a-z]{3,20}){1,5}") {
        let e = NgramEmbedder::default();
        let v = e.embed(&s);
        prop_assert!((cosine(&v, &v) - 1.0).abs() < 1e-5);
    }

    #[test]
    fn surface_variants_stay_close(s in "[a-z]{3,12}( [a-z]{3,12}){2,6}") {
        let e = NgramEmbedder::default();
        let variant = format!("{}!!", s.to_uppercase());
        let sim = cosine(&e.embed(&s), &e.embed(&variant));
        prop_assert!(sim > 0.99, "case/punct variant similarity {sim}");
    }

    #[test]
    fn feature_bags_are_canonical(s in ".{0,120}") {
        let bag = feature_bag(&s);
        let hashes: Vec<u64> = bag.entries().iter().map(|e| e.0).collect();
        let mut sorted = hashes.clone();
        sorted.sort_unstable();
        sorted.dedup();
        prop_assert_eq!(hashes, sorted);
        prop_assert!(bag.entries().iter().all(|&(_, w)| w > 0.0));
    }

    // Cache accounting invariants (DESIGN.md §9): for any request
    // sequence, every lookup is exactly one hit or one miss, a bounded
    // cache never exceeds its capacity, and — because the inner embedder
    // is pure — a bounded cache returns byte-identical embeddings to the
    // unbounded one no matter what it evicted along the way.
    #[test]
    fn cache_accounting_invariants(
        // Each draw encodes (key = r % 12, as_batch = r >= 12).
        requests in prop::collection::vec(0usize..24, 1..80),
        capacity in 1usize..6,
    ) {
        let bounded = EmbeddingCache::bounded(NgramEmbedder::default(), capacity);
        let unbounded = EmbeddingCache::new(NgramEmbedder::default());
        let mut issued = 0u64;
        // Interleave single lookups and mini-batches, like serve traffic.
        for r in &requests {
            let (key, as_batch) = (r % 12, *r >= 12);
            let text = format!("prompt {key}");
            if as_batch {
                let pair = format!("prompt {}", (key + 1) % 12);
                let got = bounded.embed_batch(&[&text, &pair]);
                let want = unbounded.embed_batch(&[&text, &pair]);
                prop_assert_eq!(got, want);
                issued += 2;
            } else {
                let got = bounded.embed(&text);
                let want = unbounded.embed(&text);
                prop_assert_eq!(got.iter().map(|x| x.to_bits()).collect::<Vec<_>>(),
                                want.iter().map(|x| x.to_bits()).collect::<Vec<_>>(),
                                "bounded and unbounded caches must agree bit-for-bit");
                issued += 1;
            }
            prop_assert!(bounded.len() <= capacity, "len {} > capacity {capacity}", bounded.len());
            prop_assert_eq!(bounded.hits() + bounded.misses(), issued);
            prop_assert_eq!(unbounded.hits() + unbounded.misses(), issued);
            prop_assert_eq!(unbounded.evictions(), 0);
        }
        // Every eviction was a real entry that left the map.
        prop_assert_eq!(bounded.misses(), bounded.evictions() + bounded.len() as u64);
    }

    #[test]
    fn idf_is_positive_and_monotone(docs in prop::collection::vec("[a-z]{2,8}( [a-z]{2,8}){0,5}", 1..10)) {
        let bags: Vec<_> = docs.iter().map(|d| feature_bag(d)).collect();
        let idf = IdfModel::fit(bags.iter());
        for bag in &bags {
            for &(h, _) in bag.entries() {
                prop_assert!(idf.idf(h) > 0.0);
                // A seen feature is never rarer than an unseen one.
                prop_assert!(idf.idf(h) <= idf.idf(0xdead_beef_dead_beef) + 1e-6);
            }
        }
    }
}
