//! Hashed text featurization for the trainable classifiers.
//!
//! The category classifier and the PAS aspect model both consume one
//! feature vector per prompt: hashed unigram/bigram counts (L2-normalized)
//! concatenated with the ten aspect-detection indicator features. The
//! indicators matter: whether a prompt already *states* an aspect is
//! precisely the signal the PAS aspect model must not have to relearn from
//! scratch through word hashes.
//!
//! [`sparse_features`] computes a prompt's features once, as its nonzero
//! entries: a prompt of a dozen words sets about 25 of the
//! [`FEATURE_DIM`] slots, and aspect inference sums only those weight rows
//! (`MultiLabelClassifier::predict_probs`). [`prompt_features`] is that
//! list densified, for training.

use pas_text::for_each_word;
use pas_text::hash::{fx_combine, fx_hash_str};

use pas_llm::world::{detect_aspects, Aspect};

/// Dimension of the hashed word-feature block.
pub const HASHED_DIM: usize = 512;
/// Total feature dimension: hashed block + one indicator per aspect.
pub const FEATURE_DIM: usize = HASHED_DIM + Aspect::ALL.len();

const NS_UNIGRAM: u64 = 0x756e_6931;
const NS_BIGRAM: u64 = 0x6269_6732;

/// The nonzero entries `(index, value)` of `text`'s feature vector, in
/// strictly ascending index order: first the hashed block, where each of
/// the words' unigram and bigram slots holds its count divided by the
/// block's L2 norm, then a `1.0` at `HASHED_DIM + i` for each aspect
/// `Aspect::ALL[i]` the text mentions.
///
/// The norm sums the squared counts in ascending slot order, as a sum over
/// the whole dense block does (its zero slots add +0 to a positive sum),
/// so every value is bit-identical to the dense featurization's.
pub fn sparse_features(text: &str) -> Vec<(usize, f32)> {
    let slot = |h: u64| (h % HASHED_DIM as u64) as usize;
    let mut slots = Vec::new();
    let mut prev: Option<u64> = None;
    for_each_word(text, |w| {
        let h = fx_hash_str(w);
        slots.push(slot(fx_combine(NS_UNIGRAM, h)));
        if let Some(p) = prev {
            slots.push(slot(fx_combine(NS_BIGRAM, fx_combine(p, h))));
        }
        prev = Some(h);
    });
    slots.sort_unstable();
    let mut entries: Vec<(usize, f32)> = Vec::with_capacity(slots.len() + Aspect::ALL.len());
    for s in slots {
        match entries.last_mut() {
            Some((last, count)) if *last == s => *count += 1.0,
            _ => entries.push((s, 1.0)),
        }
    }
    let norm = entries.iter().map(|&(_, c)| c * c).sum::<f32>().sqrt();
    for (_, x) in &mut entries {
        *x /= norm;
    }
    let detected = detect_aspects(text);
    for (i, &a) in Aspect::ALL.iter().enumerate() {
        if detected.contains(a) {
            entries.push((HASHED_DIM + i, 1.0));
        }
    }
    entries
}

/// [`sparse_features`] as a dense vector of length [`FEATURE_DIM`], the
/// rows the classifiers train on.
pub fn prompt_features(text: &str) -> Vec<f32> {
    let mut v = vec![0.0f32; FEATURE_DIM];
    for (i, x) in sparse_features(text) {
        v[i] = x;
    }
    v
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dimensions_are_consistent() {
        assert_eq!(prompt_features("hello world").len(), FEATURE_DIM);
        assert!(sparse_features("hello world").iter().all(|&(i, _)| i < FEATURE_DIM));
    }

    #[test]
    fn featurization_is_deterministic() {
        assert_eq!(prompt_features("sort a list"), prompt_features("sort a list"));
    }

    #[test]
    fn hashed_block_is_unit_norm() {
        let v = prompt_features("some plain text with several words");
        let n: f32 = v[..HASHED_DIM].iter().map(|x| x * x).sum::<f32>().sqrt();
        assert!((n - 1.0).abs() < 1e-5);
    }

    #[test]
    fn empty_text_is_zero_vector() {
        assert!(sparse_features("").is_empty());
        assert!(prompt_features("").iter().all(|&x| x == 0.0));
    }

    #[test]
    fn aspect_indicator_fires() {
        let v = prompt_features("please reason step by step");
        let indicators = &v[HASHED_DIM..];
        assert_eq!(indicators[Aspect::StepByStep.index()], 1.0);
        assert_eq!(indicators.iter().sum::<f32>(), 1.0);
    }

    #[test]
    fn entries_are_nonzero_and_strictly_ascending() {
        let e = sparse_features("Please reason step by step: sort the list, then sort it again.");
        assert!(e.windows(2).all(|w| w[0].0 < w[1].0));
        assert!(e.iter().all(|&(_, x)| x != 0.0));
    }

    #[test]
    fn different_texts_usually_differ() {
        assert_ne!(
            prompt_features("write a poem about autumn"),
            prompt_features("debug my python web scraper")
        );
    }

    #[test]
    fn bigrams_distinguish_word_order() {
        let a = prompt_features("dog bites man");
        let b = prompt_features("man bites dog");
        assert_ne!(a, b, "bigram features must be order-sensitive");
    }
}
