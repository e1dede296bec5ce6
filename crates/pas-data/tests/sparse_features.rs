//! Sparse featurization and sparse aspect inference against their dense
//! references, bit for bit.
//!
//! The references are written the plain way and live only here: a dense
//! vector of hashed counts over words lowercased with `char::to_lowercase`
//! on every character, the aspect indicators appended, and `x·W + b`
//! summed over every slot. The texts mix ASCII words, every aspect trigger
//! phrase and characters whose lowercase, case class or width is unusual
//! (`İ` lowercases to two chars, `Σ` to a final or medial sigma, `ǅ` is
//! titlecase, `Ⅻ` and `٣` are non-Latin alphanumerics, U+0301 is a
//! combining mark, U+00A0 is whitespace).

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

use pas_data::features::{prompt_features, sparse_features, FEATURE_DIM, HASHED_DIM};
use pas_llm::world::{detect_aspects, Aspect};
use pas_nn::loss::sigmoid;
use pas_nn::MultiLabelClassifier;
use pas_text::hash::{fx_combine, fx_hash_str};

const NS_UNIGRAM: u64 = 0x756e_6931;
const NS_BIGRAM: u64 = 0x6269_6732;
const LABELS: usize = Aspect::ALL.len();

const WORDS: &str =
    "Sort the LIST of numbers in Rust please x86 top-10 don't Grüße déjà vu ΣΟΦΙΑ İstanbul";
const ODD: [&str; 14] =
    ["İ", "Σ", "σ", "ς", "ǅ", "Ⅻ", "٣", "\u{301}", "\u{a0}", "ß", "é", "雪", "🙂", "ΌΣΟΣ"];
const SEPARATORS: [&str; 5] = [" ", ", ", "\t", "! ", ""];

/// Every fragment a text is built from: words, odd characters and every
/// trigger phrase of every aspect, English and Chinese.
fn fragments() -> Vec<&'static str> {
    let mut out: Vec<&str> = WORDS.split(' ').chain(ODD).collect();
    for a in Aspect::ALL {
        out.extend(a.trigger_phrases().iter().chain(a.trigger_phrases_zh()));
    }
    out
}

fn text_of(picks: &[usize], seps: &[usize]) -> String {
    let pool = fragments();
    let mut text = String::new();
    for (&p, &s) in picks.iter().zip(seps) {
        text.push_str(pool[p % pool.len()]);
        text.push_str(SEPARATORS[s % SEPARATORS.len()]);
    }
    text
}

/// Alphanumeric runs, each character lowercased by `char::to_lowercase`.
fn reference_words(text: &str) -> Vec<String> {
    let mut out = Vec::new();
    let mut cur = String::new();
    for ch in text.chars() {
        if ch.is_alphanumeric() {
            cur.extend(ch.to_lowercase());
        } else if !cur.is_empty() {
            out.push(std::mem::take(&mut cur));
        }
    }
    if !cur.is_empty() {
        out.push(cur);
    }
    out
}

/// The dense featurizer: hashed unigram and bigram counts over all
/// [`HASHED_DIM`] slots, L2-normalized, then one 0/1 indicator per aspect.
fn reference_features(text: &str) -> Vec<f32> {
    let ws = reference_words(text);
    let mut v = vec![0.0f32; HASHED_DIM];
    for w in &ws {
        v[(fx_combine(NS_UNIGRAM, fx_hash_str(w)) % HASHED_DIM as u64) as usize] += 1.0;
    }
    for pair in ws.windows(2) {
        let h = fx_combine(NS_BIGRAM, fx_combine(fx_hash_str(&pair[0]), fx_hash_str(&pair[1])));
        v[(h % HASHED_DIM as u64) as usize] += 1.0;
    }
    let norm: f32 = v.iter().map(|x| x * x).sum::<f32>().sqrt();
    if norm > 0.0 {
        for x in &mut v {
            *x /= norm;
        }
    }
    let detected = detect_aspects(text);
    v.extend(Aspect::ALL.iter().map(|&a| if detected.contains(a) { 1.0 } else { 0.0 }));
    v
}

/// A classifier with seeded weights and bias that are multiples of 2⁻¹⁰,
/// so their JSON text parses back exactly.
fn random_classifier(seed: u64) -> (MultiLabelClassifier, Vec<f32>, Vec<f32>) {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut draw = |n: usize| -> Vec<f32> {
        (0..n).map(|_| rng.random_range(-4096i32..4096) as f32 / 1024.0).collect()
    };
    let weights = draw(FEATURE_DIM * LABELS);
    let bias = draw(LABELS);
    let list = |v: &[f32]| v.iter().map(|x| x.to_string()).collect::<Vec<_>>().join(",");
    let zeros = vec![0.0f32; FEATURE_DIM * LABELS];
    let json = format!(
        "{{\"layer\":{{\"weight\":{{\"rows\":{FEATURE_DIM},\"cols\":{LABELS},\"data\":[{}]}},\
         \"bias\":[{}],\"grad_weight\":{{\"rows\":{FEATURE_DIM},\"cols\":{LABELS},\"data\":[{}]}},\
         \"grad_bias\":[{}]}},\"labels\":{LABELS}}}",
        list(&weights),
        list(&bias),
        list(&zeros),
        list(&zeros[..LABELS]),
    );
    let clf = serde_json::from_str(&json).expect("classifier JSON parses");
    (clf, weights, bias)
}

/// `sigmoid(x·W + b)`, each logit summed over every input slot in index
/// order from +0, then the bias.
fn reference_probs(weights: &[f32], bias: &[f32], x: &[f32]) -> Vec<f32> {
    (0..LABELS)
        .map(|j| {
            let mut acc = 0.0f32;
            for (p, &xp) in x.iter().enumerate() {
                acc += xp * weights[p * LABELS + j];
            }
            sigmoid(acc + bias[j])
        })
        .collect()
}

fn bits(v: &[f32]) -> Vec<u32> {
    v.iter().map(|x| x.to_bits()).collect()
}

fn assert_matches_reference(text: &str, seed: u64) {
    let sparse = sparse_features(text);
    assert!(sparse.windows(2).all(|w| w[0].0 < w[1].0), "entries of {text:?} not ascending");
    assert!(sparse.iter().all(|&(i, x)| i < FEATURE_DIM && x != 0.0), "entries of {text:?}");
    let dense = reference_features(text);
    assert_eq!(bits(&prompt_features(text)), bits(&dense), "features of {text:?}");
    let (clf, weights, bias) = random_classifier(seed);
    assert_eq!(
        bits(&clf.predict_probs(&sparse)),
        bits(&reference_probs(&weights, &bias, &dense)),
        "aspect probabilities of {text:?}"
    );
}

#[test]
fn sparse_features_match_the_dense_reference_on_every_trigger_phrase() {
    for (k, a) in Aspect::ALL.into_iter().enumerate() {
        for phrase in a.trigger_phrases().iter().chain(a.trigger_phrases_zh()) {
            let text = format!("Sort the LIST, {phrase}: déjà vu ΣΟΦΙΑ!");
            assert_matches_reference(&text, k as u64);
            assert!(prompt_features(&text)[HASHED_DIM + k] == 1.0, "{a:?} in {text:?}");
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn sparse_features_and_inference_match_the_dense_reference(
        picks in prop::collection::vec(0usize..10_000, 0..24),
        seps in prop::collection::vec(0usize..5, 24),
        seed in 0u64..u64::MAX,
    ) {
        assert_matches_reference(&text_of(&picks, &seps), seed);
    }

    #[test]
    fn sparse_features_match_the_dense_reference_on_odd_characters(
        text in "[ -~\t\nİΣσςǅⅫ٣\u{301}\u{a0}ßé雪🙂]{0,160}",
        seed in 0u64..u64::MAX,
    ) {
        assert_matches_reference(&text, seed);
    }
}
