//! Hashed lexical feature extraction.
//!
//! A text becomes a sparse bag of 64-bit feature hashes with counts: one
//! feature per word and one per character trigram of the normalized text.
//! Words carry more weight than character grams (they are more
//! discriminative); character grams provide robustness to small edits and
//! typos, which is what makes near-duplicates land close together.
//!
//! Extraction allocates nothing per feature. Words are hashed from one
//! reused buffer ([`pas_text::for_each_word`]). A trigram is hashed straight
//! from the normalized text's bytes: three consecutive chars are one
//! contiguous UTF-8 slice, so hashing that slice gives the same value as
//! hashing a `String` built from the three chars.

use pas_text::for_each_word;
use pas_text::hash::{fx_combine, fx_hash_bytes, fx_hash_str};
use pas_text::normalize::normalize_for_dedup;

/// Namespace tags keep word features and char-gram features from colliding.
const NS_WORD: u64 = 0x57_4f_52_44; // "WORD"
const NS_CHAR: u64 = 0x43_48_41_52; // "CHAR"

/// Relative weight of a word feature vs. a character-trigram feature.
pub const WORD_WEIGHT: f32 = 3.0;
/// Relative weight of a character-trigram feature.
pub const CHAR_WEIGHT: f32 = 1.0;

/// A sparse feature bag: `(feature_hash, weight)` pairs, hash-sorted and
/// aggregated.
#[derive(Debug, Clone, PartialEq)]
pub struct FeatureBag {
    entries: Vec<(u64, f32)>,
}

impl FeatureBag {
    /// The `(hash, weight)` entries in ascending hash order.
    pub fn entries(&self) -> &[(u64, f32)] {
        &self.entries
    }

    /// Number of distinct features.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when the text produced no features (empty/punctuation-only).
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }
}

/// Extracts the hashed feature bag of `text`.
pub fn feature_bag(text: &str) -> FeatureBag {
    let canonical = normalize_for_dedup(text);
    let mut entries: Vec<(u64, f32)> = Vec::new();
    for_each_word(&canonical, |w| {
        entries.push((fx_combine(NS_WORD, fx_hash_str(w)), WORD_WEIGHT));
    });
    for_each_trigram(&canonical, |g| {
        entries.push((fx_combine(NS_CHAR, fx_hash_bytes(g)), CHAR_WEIGHT));
    });
    entries.sort_unstable_by_key(|&(h, _)| h);
    // Aggregate duplicate features: `dedup_by` hands each later entry of a
    // run to the first one, in order.
    entries.dedup_by(|later, first| {
        let same = later.0 == first.0;
        if same {
            first.1 += later.1;
        }
        same
    });
    FeatureBag { entries }
}

/// Calls `f` with the bytes of each character trigram of `text`, in order.
/// A non-empty text shorter than three chars is one gram of its own.
fn for_each_trigram(text: &str, mut f: impl FnMut(&[u8])) {
    let bytes = text.as_bytes();
    // Trigram k runs from the start of char k to the end of char k + 2.
    let mut ends = text.char_indices().skip(2).map(|(i, c)| i + c.len_utf8()).peekable();
    if ends.peek().is_none() {
        if !bytes.is_empty() {
            f(bytes);
        }
        return;
    }
    for (start, end) in text.char_indices().map(|(i, _)| i).zip(ends) {
        f(&bytes[start..end]);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn identical_texts_identical_bags() {
        assert_eq!(feature_bag("Sort the list"), feature_bag("sort the list!"));
    }

    #[test]
    fn empty_text_empty_bag() {
        assert!(feature_bag("").is_empty());
        assert!(feature_bag("?!.,").is_empty());
    }

    #[test]
    fn repeated_words_aggregate_weight() {
        let once = feature_bag("rust");
        let thrice = feature_bag("rust rust rust");
        let w1: f32 = once.entries().iter().map(|e| e.1).sum();
        let w3: f32 = thrice.entries().iter().map(|e| e.1).sum();
        assert!(w3 > w1 * 2.0);
    }

    #[test]
    fn entries_are_hash_sorted_and_unique() {
        let bag = feature_bag("the quick brown fox jumps over the lazy dog");
        let hashes: Vec<u64> = bag.entries().iter().map(|e| e.0).collect();
        let mut sorted = hashes.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(hashes, sorted);
    }

    #[test]
    fn small_edit_shares_most_features() {
        let a = feature_bag("explain the merge sort algorithm step by step");
        let b = feature_bag("explain the merge sort algorithm step by steps");
        let set_a: std::collections::HashSet<u64> = a.entries().iter().map(|e| e.0).collect();
        let shared = b.entries().iter().filter(|e| set_a.contains(&e.0)).count();
        assert!(shared as f64 / b.len() as f64 > 0.8);
    }
}
