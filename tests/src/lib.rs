//! Integration-test crate for the `nvd-clean` workspace.
//!
//! The tests live in `tests/` and exercise cross-crate behaviour: the full
//! cleaning pipeline over generated corpora, determinism, JSON feed
//! round-trips, cross-database mapping, and property-based invariants.
//! This library holds the oracles several of those suites share.

/// Levenshtein edit distance over the full dynamic-programming table,
/// counting insertions, deletions, and substitutions (each cost 1) over
/// `char`s.
///
/// No production code calls it: it is the oracle that
/// `nvd_clean::names::text::levenshtein_at_most`, the banded early-exit
/// kernel the §4.2 sweeps run, is checked against, and the distance the
/// frozen pre-blocking sweeps in `tests/names_oracle` use.
///
/// ```
/// use nvd_tests::levenshtein;
/// assert_eq!(levenshtein("tbe_banner_engine", "the_banner_engine"), 1);
/// assert_eq!(levenshtein("microsoft", "microsft"), 1);
/// assert_eq!(levenshtein("", "abc"), 3);
/// ```
pub fn levenshtein(a: &str, b: &str) -> usize {
    let a: Vec<char> = a.chars().collect();
    let b: Vec<char> = b.chars().collect();
    if a.is_empty() {
        return b.len();
    }
    if b.is_empty() {
        return a.len();
    }
    // Single-row dynamic programming; `prev` holds D[i-1][j-1].
    let mut row: Vec<usize> = (0..=b.len()).collect();
    for (i, &ca) in a.iter().enumerate() {
        let mut prev = row[0];
        row[0] = i + 1;
        for (j, &cb) in b.iter().enumerate() {
            let cost = if ca == cb { 0 } else { 1 };
            let next = (prev + cost).min(row[j] + 1).min(row[j + 1] + 1);
            prev = row[j + 1];
            row[j + 1] = next;
        }
    }
    row[b.len()]
}
