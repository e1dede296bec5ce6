//! Property-based tests for the text primitives.

use proptest::prelude::*;

use pas_text::normalize::normalize_for_dedup;
use pas_text::{
    collapse_whitespace, dice_coefficient, fx_hash_str, jaccard_words, levenshtein,
    normalized_levenshtein, strip_punctuation, words,
};

/// Printable ASCII plus chars whose lowercase, case class or width is
/// unusual: `İ` lowercases to two chars, `Σ` to a final or medial sigma,
/// `ǅ` is titlecase, `Ⅻ` and `٣` are non-Latin alphanumerics, U+0301 is a
/// combining mark, U+00A0 is whitespace, and the rest are 2- to 4-byte
/// UTF-8.
const ODD_TEXT: &str = "[ -~\t\nİΣσςǅⅫ٣\u{301}\u{a0}ßé雪🙂]{0,160}";

/// Alphanumeric runs, each character lowercased by `char::to_lowercase`.
fn per_char_words(text: &str) -> Vec<String> {
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

proptest! {
    // The one-pass canonical form against the three passes it replaced.
    #[test]
    fn normalize_is_the_three_pass_composition(s in ODD_TEXT, t in ".{0,200}") {
        for text in [&s, &t] {
            prop_assert_eq!(
                normalize_for_dedup(text),
                collapse_whitespace(&strip_punctuation(&text.to_lowercase()))
            );
        }
    }

    // ASCII lowercasing takes a shortcut; every token still equals the
    // per-character Unicode lowercase.
    #[test]
    fn words_lowercase_each_char_as_unicode_does(s in ODD_TEXT, t in ".{0,200}") {
        for text in [&s, &t] {
            prop_assert_eq!(words(text), per_char_words(text));
        }
    }

    #[test]
    fn normalize_is_idempotent(s in ".{0,200}") {
        let once = normalize_for_dedup(&s);
        prop_assert_eq!(normalize_for_dedup(&once), once);
    }

    #[test]
    fn collapse_never_has_double_spaces(s in ".{0,200}") {
        let c = collapse_whitespace(&s);
        prop_assert!(!c.contains("  "));
        prop_assert!(!c.starts_with(' '));
        prop_assert!(!c.ends_with(' '));
    }

    #[test]
    fn words_are_lowercase_alphanumeric(s in ".{0,200}") {
        for w in words(&s) {
            prop_assert!(!w.is_empty());
            prop_assert!(w.chars().all(|c| c.is_alphanumeric()));
            // Case-folded: lowercasing again is a no-op. (Some uppercase
            // codepoints, e.g. 𝐀, have no lowercase mapping and survive.)
            prop_assert_eq!(w.to_lowercase(), w);
        }
    }

    #[test]
    fn hash_is_stable(s in ".{0,100}") {
        prop_assert_eq!(fx_hash_str(&s), fx_hash_str(&s));
    }

    #[test]
    fn jaccard_is_symmetric_and_bounded(a in "[a-z ]{0,80}", b in "[a-z ]{0,80}") {
        let ab = jaccard_words(&a, &b);
        let ba = jaccard_words(&b, &a);
        prop_assert!((ab - ba).abs() < 1e-12);
        prop_assert!((0.0..=1.0).contains(&ab));
        prop_assert!(dice_coefficient(&a, &b) + 1e-12 >= ab, "dice >= jaccard");
    }

    #[test]
    fn jaccard_self_is_one(a in "[a-z]{1,10}( [a-z]{1,10}){0,8}") {
        prop_assert!((jaccard_words(&a, &a) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn levenshtein_triangle_inequality(
        a in "[a-c]{0,12}", b in "[a-c]{0,12}", c in "[a-c]{0,12}"
    ) {
        let ab = levenshtein(&a, &b);
        let bc = levenshtein(&b, &c);
        let ac = levenshtein(&a, &c);
        prop_assert!(ac <= ab + bc, "d(a,c)={ac} > d(a,b)+d(b,c)={}", ab + bc);
    }

    #[test]
    fn levenshtein_identity_and_symmetry(a in ".{0,30}", b in ".{0,30}") {
        prop_assert_eq!(levenshtein(&a, &a), 0);
        prop_assert_eq!(levenshtein(&a, &b), levenshtein(&b, &a));
    }

    #[test]
    fn normalized_levenshtein_bounds(a in ".{0,40}", b in ".{0,40}") {
        let v = normalized_levenshtein(&a, &b);
        prop_assert!((0.0..=1.0).contains(&v));
    }

    #[test]
    fn template_literal_without_braces_renders_verbatim(s in "[a-zA-Z0-9 .,!?]{0,100}") {
        use pas_text::Template;
        let t = Template::parse(&s).unwrap();
        let out = t.render(&std::collections::BTreeMap::new()).unwrap();
        prop_assert_eq!(out, s);
    }
}
