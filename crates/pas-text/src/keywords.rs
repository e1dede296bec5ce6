//! Keyword extraction and overlap metrics.
//!
//! The judge models in `pas-eval` check whether a response *covers* the
//! content of a prompt, and the critic model in `pas-llm` checks whether a
//! complementary prompt is on-topic. Both reduce to keyword overlap between
//! two texts after stopword removal.

use std::sync::OnceLock;

use crate::for_each_word;
use crate::hash::{FxHashMap, FxHashSet};

/// English stopwords used across the workspace. Kept small on purpose: the
/// synthetic corpus is template-generated, so a compact list suffices and
/// stays auditable.
pub const STOPWORDS: &[&str] = &[
    "a", "an", "the", "and", "or", "but", "if", "then", "else", "for", "of", "to", "in", "on",
    "at", "by", "with", "about", "as", "is", "are", "was", "were", "be", "been", "being", "do",
    "does", "did", "have", "has", "had", "i", "you", "he", "she", "it", "we", "they", "me", "him",
    "her", "us", "them", "my", "your", "its", "our", "their", "this", "that", "these", "those",
    "what", "which", "who", "whom", "how", "when", "where", "why", "can", "could", "should",
    "would", "will", "shall", "may", "might", "must", "not", "no", "so", "than", "too", "very",
    "just", "please", "also", "there", "here", "from", "into", "out", "up", "down", "over",
    "under", "again", "more", "most", "some", "any", "each", "own", "same", "s", "t", "don", "now",
    "am",
];

/// Whether `word` (lowercase) is in [`STOPWORDS`]: one hash probe, not a
/// scan of the list.
fn is_stopword(word: &str) -> bool {
    static SET: OnceLock<FxHashSet<&'static str>> = OnceLock::new();
    SET.get_or_init(|| STOPWORDS.iter().copied().collect()).contains(word)
}

/// Returns the non-stopword tokens of `text`, lowercased, in order, with
/// duplicates preserved.
pub fn content_words(text: &str) -> Vec<String> {
    let mut out = Vec::new();
    for_each_word(text, |w| {
        if !is_stopword(w) {
            out.push(w.to_owned());
        }
    });
    out
}

/// Returns the `k` most frequent content words of `text`, most frequent
/// first; ties broken alphabetically for determinism. Each distinct word
/// is allocated once, when it is first counted.
pub fn top_keywords(text: &str, k: usize) -> Vec<String> {
    let mut counts: FxHashMap<String, u32> = FxHashMap::default();
    for_each_word(text, |w| {
        if is_stopword(w) {
            return;
        }
        match counts.get_mut(w) {
            Some(n) => *n += 1,
            None => {
                counts.insert(w.to_owned(), 1);
            }
        }
    });
    let mut items: Vec<(String, u32)> = counts.into_iter().collect();
    items.sort_by(|a, b| b.1.cmp(&a.1).then_with(|| a.0.cmp(&b.0)));
    items.into_iter().take(k).map(|(w, _)| w).collect()
}

/// Fraction of the content words of `reference` that also appear in
/// `candidate` (recall-oriented overlap in `[0, 1]`). Returns 1.0 when the
/// reference has no content words — an empty requirement is trivially covered.
pub fn keyword_overlap(reference: &str, candidate: &str) -> f64 {
    let ref_words: Vec<String> = {
        let mut v = content_words(reference);
        v.sort_unstable();
        v.dedup();
        v
    };
    if ref_words.is_empty() {
        return 1.0;
    }
    let cand: std::collections::HashSet<String> = content_words(candidate).into_iter().collect();
    let hit = ref_words.iter().filter(|w| cand.contains(*w)).count();
    hit as f64 / ref_words.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn content_words_drops_stopwords() {
        assert_eq!(
            content_words("How do I sort the list of numbers"),
            vec!["sort", "list", "numbers"]
        );
    }

    #[test]
    fn top_keywords_by_frequency_then_alpha() {
        let kws = top_keywords("rust rust python python java", 2);
        // rust and python tie at 2; alphabetical tie-break puts python first.
        assert_eq!(kws, vec!["python", "rust"]);
    }

    #[test]
    fn top_keywords_k_larger_than_vocab() {
        assert_eq!(top_keywords("alpha beta", 10).len(), 2);
    }

    #[test]
    fn overlap_bounds() {
        assert_eq!(keyword_overlap("sort numbers", "please sort these numbers"), 1.0);
        assert_eq!(keyword_overlap("sort numbers", "boil water"), 0.0);
        assert_eq!(keyword_overlap("", "anything"), 1.0);
    }

    #[test]
    fn overlap_is_recall_not_precision() {
        // Candidate may say much more; only reference coverage matters.
        let r = keyword_overlap("merge lists", "merge the two sorted lists carefully using a heap");
        assert_eq!(r, 1.0);
    }

    #[test]
    fn overlap_partial() {
        let r = keyword_overlap("merge sorted lists", "merge lists");
        assert!((r - 2.0 / 3.0).abs() < 1e-12);
    }
}
