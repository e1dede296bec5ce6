//! Canonicalization of raw prompt text.
//!
//! The deduplication stage of the PAS data pipeline (§3.1 of the paper)
//! compares *meaning*, not bytes; these helpers strip the variation that the
//! embedding model should not have to absorb: casing, punctuation, and
//! whitespace runs.

/// Collapses runs of whitespace to single spaces and trims the ends.
pub fn collapse_whitespace(text: &str) -> String {
    let mut out = String::with_capacity(text.len());
    let mut in_ws = true; // leading whitespace is dropped
    for ch in text.chars() {
        if ch.is_whitespace() {
            if !in_ws {
                out.push(' ');
                in_ws = true;
            }
        } else {
            out.push(ch);
            in_ws = false;
        }
    }
    if out.ends_with(' ') {
        out.pop();
    }
    out
}

/// Removes punctuation characters, replacing them with spaces so word
/// boundaries survive (`"don't"` → `"don t"`, `"a,b"` → `"a b"`).
pub fn strip_punctuation(text: &str) -> String {
    text.chars().map(|c| if c.is_alphanumeric() || c.is_whitespace() { c } else { ' ' }).collect()
}

/// Full canonical form used as the dedup key: lowercase, punctuation-free,
/// whitespace-collapsed. Equals
/// `collapse_whitespace(&strip_punctuation(&text.to_lowercase()))` in one
/// pass after `str::to_lowercase` (which keeps its final-sigma rule): every
/// character that is not alphanumeric is a word boundary, and each run of
/// them becomes one space, none at the ends.
pub fn normalize_for_dedup(text: &str) -> String {
    let lower = text.to_lowercase();
    let mut out = String::with_capacity(lower.len());
    let mut boundary = false;
    for ch in lower.chars() {
        if ch.is_alphanumeric() {
            if boundary && !out.is_empty() {
                out.push(' ');
            }
            out.push(ch);
            boundary = false;
        } else {
            boundary = true;
        }
    }
    out
}

/// Truncates a string to at most `max_chars` characters on a char boundary,
/// appending an ellipsis when truncation happened. Used by report renderers.
pub fn truncate_chars(text: &str, max_chars: usize) -> String {
    if text.chars().count() <= max_chars {
        return text.to_string();
    }
    let mut out: String = text.chars().take(max_chars.saturating_sub(1)).collect();
    out.push('…');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn collapse_handles_tabs_and_newlines() {
        assert_eq!(collapse_whitespace("  a\t\tb\n\nc  "), "a b c");
    }

    #[test]
    fn collapse_empty_and_all_space() {
        assert_eq!(collapse_whitespace(""), "");
        assert_eq!(collapse_whitespace(" \n\t "), "");
    }

    #[test]
    fn strip_punctuation_preserves_boundaries() {
        assert_eq!(collapse_whitespace(&strip_punctuation("a,b.c")), "a b c");
    }

    #[test]
    fn normalize_is_idempotent() {
        let n1 = normalize_for_dedup("  How DO I   sort, a Vec?? ");
        let n2 = normalize_for_dedup(&n1);
        assert_eq!(n1, n2);
        assert_eq!(n1, "how do i sort a vec");
    }

    #[test]
    fn normalize_equates_surface_variants() {
        assert_eq!(
            normalize_for_dedup("How do I sort a Vec?"),
            normalize_for_dedup("how do i sort a vec!!")
        );
    }

    #[test]
    fn truncate_respects_char_boundaries() {
        assert_eq!(truncate_chars("héllo wörld", 6), "héllo…");
        assert_eq!(truncate_chars("short", 10), "short");
    }
}
