//! The served embedder is bit-identical to its plain reference on the
//! serving benchmark's own traffic (DESIGN.md §6, "Kernel determinism").
//!
//! The prompts are every distinct prompt of the serving benchmark's
//! traffic (15 898 of them, `common/benchmark_prompts.rs`). Each must get
//! the reference's feature bag and the reference's vector bits from the
//! gateway's `NgramEmbedder::default()`, both from its plain bag and from
//! an IDF-reweighted one, whose weights are not small integers and so would
//! expose a sum added in another order.

#[path = "common/benchmark_prompts.rs"]
mod benchmark_prompts;
#[path = "../crates/pas-embed/tests/reference/mod.rs"]
mod reference;

use benchmark_prompts::benchmark_prompts;
use pas::embed::{feature_bag, Embedder, IdfModel, NgramEmbedder};
use reference::{bag_bits, bits};

/// `NgramEmbedder::default()`'s width and projection seed.
const DIM: usize = 64;
const PROJECTION_SEED: u64 = 0x5eed_cafe;

#[test]
fn served_embeddings_match_the_reference_on_every_benchmark_prompt() {
    let prompts = benchmark_prompts();
    assert!(prompts.len() > 10_000, "only {} distinct prompts", prompts.len());
    let embedder = NgramEmbedder::default();
    let bags: Vec<_> = prompts.iter().map(|p| feature_bag(p)).collect();
    let idf = IdfModel::fit(bags.iter());
    for (prompt, bag) in prompts.iter().zip(&bags) {
        let want = reference::feature_bag(prompt);
        assert_eq!(bag_bits(bag.entries()), bag_bits(&want), "bag of {prompt:?}");
        assert_eq!(
            bits(&embedder.embed(prompt)),
            bits(&reference::project(DIM, PROJECTION_SEED, &want)),
            "embedding of {prompt:?}"
        );
        let reweighted = idf.reweight(bag);
        assert_eq!(
            bits(&embedder.project(&reweighted)),
            bits(&reference::project(DIM, PROJECTION_SEED, &reweighted)),
            "IDF-reweighted embedding of {prompt:?}"
        );
    }
}
