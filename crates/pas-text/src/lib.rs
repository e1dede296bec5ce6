//! Text utilities shared by every PAS crate.
//!
//! This crate deliberately has no heavyweight dependencies: it provides the
//! deterministic, allocation-conscious primitives the rest of the workspace
//! builds on — normalization, n-gram extraction, keyword scoring, string
//! similarity, a seedable template realizer, and a fast non-cryptographic
//! hash used for feature hashing throughout the system.

pub mod hash;
pub mod keywords;
pub mod lang;
pub mod ngram;
pub mod normalize;
pub mod similarity;
pub mod template;

pub use hash::{fx_hash_bytes, fx_hash_str, FxHasher};
pub use keywords::{content_words, keyword_overlap, top_keywords};
pub use lang::{detect_language, Language};
pub use ngram::{word_ngrams, word_shingle_hashes};
pub use normalize::{collapse_whitespace, normalize_for_dedup, strip_punctuation};
pub use similarity::{dice_coefficient, jaccard_words, levenshtein, normalized_levenshtein};
pub use template::{Template, TemplateError};

/// Splits text into lowercase word tokens (alphanumeric runs).
///
/// This is the single tokenization used by the lexical components so that
/// keyword extraction, similarity and feature hashing all agree on word
/// boundaries.
pub fn words(text: &str) -> Vec<String> {
    let mut out = Vec::new();
    for_each_word(text, |w| out.push(w.to_owned()));
    out
}

/// Calls `f` with each token [`words`] returns, in order, lowercased into
/// one reused buffer, so a caller that only hashes the tokens allocates
/// none of them. An ASCII character is classified and lowercased by the
/// ASCII rules, which agree with `char::is_alphanumeric` and
/// `char::to_lowercase` there; only other characters take the Unicode
/// path.
pub fn for_each_word(text: &str, mut f: impl FnMut(&str)) {
    let mut cur = String::new();
    for ch in text.chars() {
        if ch.is_ascii_alphanumeric() {
            cur.push(ch.to_ascii_lowercase());
        } else if !ch.is_ascii() && ch.is_alphanumeric() {
            cur.extend(ch.to_lowercase());
        } else if !cur.is_empty() {
            f(&cur);
            cur.clear();
        }
    }
    if !cur.is_empty() {
        f(&cur);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn words_splits_on_non_alphanumeric() {
        assert_eq!(words("Hello, world!"), vec!["hello", "world"]);
    }

    #[test]
    fn words_keeps_digits() {
        assert_eq!(words("top-10 results"), vec!["top", "10", "results"]);
    }

    #[test]
    fn words_empty_input() {
        assert!(words("").is_empty());
        assert!(words("  ,.! ").is_empty());
    }

    #[test]
    fn words_handles_unicode() {
        assert_eq!(words("Grüße an alle"), vec!["grüße", "an", "alle"]);
    }
}
