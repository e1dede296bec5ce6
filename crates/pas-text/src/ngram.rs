//! Word n-gram extraction.
//!
//! Word shingles feed near-duplicate detection. They operate on the
//! canonical word stream from [`crate::words`] so the representations line
//! up across crates. (The embedder in `pas-embed` hashes its character
//! trigrams in place, without building gram strings.)

use crate::hash::{fx_combine, fx_hash_str};
use crate::words;

/// Returns the word `n`-grams of `text`, joined with single spaces.
pub fn word_ngrams(text: &str, n: usize) -> Vec<String> {
    assert!(n > 0, "n-gram size must be positive");
    let ws = words(text);
    if ws.is_empty() {
        return Vec::new();
    }
    if ws.len() <= n {
        return vec![ws.join(" ")];
    }
    (0..=ws.len() - n).map(|i| ws[i..i + n].join(" ")).collect()
}

/// Hashes each word `n`-gram (shingle) of `text` to a 64-bit value.
///
/// Shingle hash sets support MinHash-style and Jaccard near-duplicate checks
/// without keeping the gram strings alive.
pub fn word_shingle_hashes(text: &str, n: usize) -> Vec<u64> {
    assert!(n > 0, "shingle size must be positive");
    let ws = words(text);
    if ws.is_empty() {
        return Vec::new();
    }
    let hashes: Vec<u64> = ws.iter().map(|w| fx_hash_str(w)).collect();
    if hashes.len() <= n {
        return vec![hashes.iter().fold(0u64, |acc, &h| fx_combine(acc, h))];
    }
    (0..=hashes.len() - n)
        .map(|i| hashes[i..i + n].iter().fold(0u64, |acc, &h| fx_combine(acc, h)))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn word_ngrams_basic() {
        assert_eq!(
            word_ngrams("the quick brown fox", 2),
            vec!["the quick", "quick brown", "brown fox"]
        );
    }

    #[test]
    fn word_ngrams_normalizes_case_and_punct() {
        assert_eq!(word_ngrams("The, QUICK fox", 2), vec!["the quick", "quick fox"]);
    }

    #[test]
    fn shingle_hashes_match_for_equal_texts() {
        assert_eq!(word_shingle_hashes("a b c d", 3), word_shingle_hashes("A b. C d", 3));
    }

    #[test]
    fn shingle_hashes_are_order_sensitive() {
        assert_ne!(word_shingle_hashes("a b c", 3), word_shingle_hashes("c b a", 3));
    }

    #[test]
    fn counts_line_up() {
        let text = "one two three four five";
        assert_eq!(word_ngrams(text, 2).len(), 4);
        assert_eq!(word_shingle_hashes(text, 2).len(), 4);
    }
}
