//! The embedder written the plain way, kept as the reference that
//! `pas_embed::feature_bag` and `NgramEmbedder::project` must match bit for
//! bit: a `String` per character trigram, and one branch per sign bit.
//!
//! Shared by `crates/pas-embed/tests/properties.rs` and the root
//! `tests/embedding_bits.rs` sweep.

use pas_text::hash::{fx_combine, fx_hash_str};
use pas_text::{normalize_for_dedup, words};

const NS_WORD: u64 = 0x57_4f_52_44;
const NS_CHAR: u64 = 0x43_48_41_52;

/// The character `n`-grams of `text`; the whole text when it has at most
/// `n` chars.
fn char_ngrams(text: &str, n: usize) -> Vec<String> {
    let chars: Vec<char> = text.chars().collect();
    if chars.is_empty() {
        return Vec::new();
    }
    if chars.len() <= n {
        return vec![chars.iter().collect()];
    }
    (0..=chars.len() - n).map(|i| chars[i..i + n].iter().collect()).collect()
}

/// The feature bag's entries: word and trigram hashes, sorted, with the
/// weights of equal hashes summed in order.
pub fn feature_bag(text: &str) -> Vec<(u64, f32)> {
    let canonical = normalize_for_dedup(text);
    let mut raw: Vec<(u64, f32)> = Vec::new();
    for w in words(&canonical) {
        raw.push((fx_combine(NS_WORD, fx_hash_str(&w)), 3.0));
    }
    for g in char_ngrams(&canonical, 3) {
        raw.push((fx_combine(NS_CHAR, fx_hash_str(&g)), 1.0));
    }
    raw.sort_unstable_by_key(|&(h, _)| h);
    let mut entries: Vec<(u64, f32)> = Vec::with_capacity(raw.len());
    for (h, w) in raw {
        match entries.last_mut() {
            Some((lh, lw)) if *lh == h => *lw += w,
            _ => entries.push((h, w)),
        }
    }
    entries
}

fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// The sign-random projection of `entries` into `dim` slots, one sign bit
/// at a time, L2-normalized.
pub fn project(dim: usize, seed: u64, entries: &[(u64, f32)]) -> Vec<f32> {
    let mut out = vec![0.0f32; dim];
    for &(h, w) in entries {
        let mut state = h ^ seed;
        let mut bits = 0u64;
        let mut remaining = 0u32;
        for slot in out.iter_mut() {
            if remaining == 0 {
                bits = splitmix64(&mut state);
                remaining = 64;
            }
            let sign = if bits & 1 == 1 { w } else { -w };
            *slot += sign;
            bits >>= 1;
            remaining -= 1;
        }
    }
    pas_embed::normalize_in_place(&mut out);
    out
}

/// A vector's exact bit patterns, for comparisons that `-0.0 == 0.0` and
/// NaN would blur.
pub fn bits(v: &[f32]) -> Vec<u32> {
    v.iter().map(|x| x.to_bits()).collect()
}

/// A bag's hashes and weight bit patterns.
pub fn bag_bits(entries: &[(u64, f32)]) -> Vec<(u64, u32)> {
    entries.iter().map(|&(h, w)| (h, w.to_bits())).collect()
}
