//! The string helpers the §4.2 name sweeps call.
//!
//! The paper's vendor heuristics key on the **longest common substring**
//! (`|LCS| ≥ 3` versus `< 3` splits Table 2's columns) and on **prefix**
//! relations; its product heuristics use **edit distance** to catch
//! character replacement/addition/swap typos (e.g. `tbe_banner_engine` vs
//! `the_banner_engine`, edit distance 1), and compare names by their
//! separator-free components and abbreviations.
//!
//! Every helper works on `char`s, with a byte fast path where both inputs
//! are ASCII, so multi-byte names are measured in characters.

/// Banded Levenshtein with early exit: `Some(distance)` when the edit
/// distance (insertions, deletions and substitutions, each cost 1) is at
/// most `k`, `None` otherwise.
///
/// Only the `2k + 1`-wide diagonal band of the DP table is computed, and
/// the scan stops as soon as every cell in the current band row exceeds
/// `k` — so near-miss pairs exit after a couple of rows instead of filling
/// the full table. The §4.2 edit-distance blocks call this with
/// `k ∈ {1, 2}`, where the band collapses to three or five cells per row.
/// The integration tests check it against a full-table Levenshtein.
///
/// ```
/// use nvd_clean::names::text::levenshtein_at_most;
/// assert_eq!(levenshtein_at_most("tbe_banner_engine", "the_banner_engine", 1), Some(1));
/// assert_eq!(levenshtein_at_most("microsoft", "microsft", 2), Some(1));
/// assert_eq!(levenshtein_at_most("kitten", "sitting", 2), None);
/// assert_eq!(levenshtein_at_most("same", "same", 0), Some(0));
/// ```
pub fn levenshtein_at_most(a: &str, b: &str, k: usize) -> Option<usize> {
    // ASCII fast path: byte length is character length, so the length
    // pre-filter and the band both run on the raw bytes with no per-call
    // character collection.
    if a.is_ascii() && b.is_ascii() {
        if a.len().abs_diff(b.len()) > k {
            return None;
        }
        return banded_distance(a.as_bytes(), b.as_bytes(), k);
    }
    let a: Vec<char> = a.chars().collect();
    let b: Vec<char> = b.chars().collect();
    if a.len().abs_diff(b.len()) > k {
        return None;
    }
    banded_distance(&a, &b, k)
}

/// The banded DP core of [`levenshtein_at_most`]. Callers have already
/// established `|a.len() - b.len()| <= k`.
fn banded_distance<T: PartialEq + Copy>(a: &[T], b: &[T], k: usize) -> Option<usize> {
    let m = b.len();
    // One DP row of `m + 1` cells: a stack buffer covers every realistic
    // CPE name (so the ASCII path allocates nothing); longer inputs fall
    // back to a heap row.
    const STACK_ROW: usize = 96;
    if m < STACK_ROW {
        banded_distance_in(a, b, k, &mut [0usize; STACK_ROW][..=m])
    } else {
        banded_distance_in(a, b, k, &mut vec![0usize; m + 1])
    }
}

fn banded_distance_in<T: PartialEq + Copy>(
    a: &[T],
    b: &[T],
    k: usize,
    row: &mut [usize],
) -> Option<usize> {
    let (n, m) = (a.len(), b.len());
    if n == 0 || m == 0 {
        return Some(n.max(m));
    }
    // Values above `k` all behave the same, so they clamp to `inf`; cells
    // outside the band keep `inf` from initialisation, which is sound
    // because a cell at |i - j| > k can never be reached in ≤ k edits.
    let inf = k + 1;
    for (j, cell) in row.iter_mut().enumerate() {
        *cell = if j <= k { j } else { inf };
    }
    for i in 1..=n {
        let lo = i.saturating_sub(k).max(1);
        let hi = (i + k).min(m);
        let mut diag = row[lo - 1]; // D[i-1][lo-1]
        row[lo - 1] = if lo == 1 { i.min(inf) } else { inf }; // D[i][lo-1]
        let mut band_min = row[lo - 1];
        for j in lo..=hi {
            let up = row[j]; // D[i-1][j]
            let cost = usize::from(a[i - 1] != b[j - 1]);
            let d = (diag + cost).min(up + 1).min(row[j - 1] + 1).min(inf);
            diag = up;
            row[j] = d;
            band_min = band_min.min(d);
        }
        if band_min > k {
            return None;
        }
    }
    let d = row[m];
    (d <= k).then_some(d)
}

/// Length of the longest common substring (contiguous) of `a` and `b`.
///
/// This is the signifier the paper uses to grade vendor-pair heuristics:
/// pairs with `|LCS| ≥ 3` are far more likely to be genuinely matching.
///
/// ```
/// use nvd_clean::names::text::longest_common_substring_len;
/// assert_eq!(longest_common_substring_len("lynx", "lynx_project"), 4);
/// assert_eq!(longest_common_substring_len("abc", "xyz"), 0);
/// ```
pub fn longest_common_substring_len(a: &str, b: &str) -> usize {
    if a.is_ascii() && b.is_ascii() {
        return common_run_len(a.as_bytes(), b.as_bytes());
    }
    let a: Vec<char> = a.chars().collect();
    let b: Vec<char> = b.chars().collect();
    common_run_len(&a, &b)
}

/// The DP core of [`longest_common_substring_len`]: `row[j]` holds the
/// length of the common suffix of `a[..=i]` and `b[..j]`.
fn common_run_len<T: PartialEq>(a: &[T], b: &[T]) -> usize {
    let mut row = vec![0usize; b.len() + 1];
    let mut best = 0;
    for ca in a {
        // Iterate j downwards so row[j] still holds the previous row's value.
        for j in (0..b.len()).rev() {
            row[j + 1] = if *ca == b[j] { row[j] + 1 } else { 0 };
            best = best.max(row[j + 1]);
        }
    }
    best
}

/// Whether one string is a strict prefix of the other (in either direction),
/// the paper's `Pref` vendor-pair pattern (`lynx` / `lynx_project`).
///
/// Equal strings are not considered prefixes of each other.
pub fn is_strict_prefix_pair(a: &str, b: &str) -> bool {
    a != b && (a.starts_with(b) || b.starts_with(a))
}

/// Strips all non-alphanumeric characters from a name, the paper's "identical
/// except for special characters" comparison key (`avast` vs `avast!`).
pub fn strip_specials(name: &str) -> String {
    name.chars()
        .filter(|c| c.is_alphanumeric())
        .flat_map(char::to_lowercase)
        .collect()
}

/// Splits a CPE-style name into its lowercase components.
///
/// Separators are whitespace and any non-alphanumeric character (`_`, `-`,
/// `.`, `!`, …), matching the paper's product-name tokenisation that treats
/// `internet-explorer`, `internet_explorer`, and `internet explorer` as the
/// same token sequence.
///
/// ```
/// use nvd_clean::names::text::name_components;
/// assert_eq!(name_components("internet-explorer"), vec!["internet", "explorer"]);
/// assert_eq!(name_components("internet_explorer"), vec!["internet", "explorer"]);
/// assert_eq!(name_components("avast!"), vec!["avast"]);
/// ```
pub fn name_components(name: &str) -> Vec<String> {
    name.split(|c: char| !c.is_alphanumeric())
        .filter(|part| !part.is_empty())
        .map(|part| part.chars().flat_map(char::to_lowercase).collect())
        .collect()
}

/// The abbreviation of a multi-component name: first character of each
/// component (`lan_management_system` → `lms`, `internet-explorer` → `ie`).
/// Returns `None` for names with fewer than two components.
pub fn abbreviation(name: &str) -> Option<String> {
    let parts = name_components(name);
    if parts.len() < 2 {
        return None;
    }
    Some(parts.iter().filter_map(|p| p.chars().next()).collect())
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The unbounded edit distance, through the banded kernel with a band
    /// no pair can leave.
    fn distance(a: &str, b: &str) -> usize {
        levenshtein_at_most(a, b, a.len().max(b.len())).expect("within the widest band")
    }

    #[test]
    fn levenshtein_known_pairs() {
        assert_eq!(distance("kitten", "sitting"), 3);
        assert_eq!(distance("flaw", "lawn"), 2);
        assert_eq!(distance("same", "same"), 0);
        assert_eq!(distance("", ""), 0);
        // Paper §4.2: cisco firmware names differ by one character yet are
        // different products — the heuristic must still measure distance 1.
        assert_eq!(
            distance("ucs-e160dp-m1_firmware", "ucs-e140dp-m1_firmware"),
            1
        );
    }

    #[test]
    fn levenshtein_is_symmetric() {
        let pairs = [("abc", "acb"), ("microsoft", "microsft"), ("", "x")];
        for (a, b) in pairs {
            assert_eq!(distance(a, b), distance(b, a));
        }
    }

    #[test]
    fn levenshtein_at_most_agrees_with_full_distance() {
        // Full-table distances of each pair; the band must report exactly
        // these at every k that admits them, and `None` below.
        let cases = [
            ("kitten", "sitting", 3),
            ("flaw", "lawn", 2),
            ("same", "same", 0),
            ("", "", 0),
            ("", "abc", 3),
            ("microsoft", "microsft", 1),
            ("tbe_banner_engine", "the_banner_engine", 1),
            ("ucs-e160dp-m1_firmware", "ucs-e140dp-m1_firmware", 1),
            ("avast", "avast!", 1),
            ("脆弱性", "脆弱情報", 2),
        ];
        for (a, b, full) in cases {
            for k in 0..6 {
                assert_eq!(
                    levenshtein_at_most(a, b, k),
                    (full <= k).then_some(full),
                    "({a:?}, {b:?}, k={k})"
                );
            }
        }
    }

    #[test]
    fn levenshtein_at_most_band_edges() {
        // Distance exactly k, k+1, and far beyond the band.
        assert_eq!(levenshtein_at_most("abc", "abd", 1), Some(1));
        assert_eq!(levenshtein_at_most("abc", "add", 1), None);
        assert_eq!(levenshtein_at_most("abcdefgh", "abcdefgh____", 2), None);
        assert_eq!(levenshtein_at_most("aaaa", "bbbb", 3), None);
        assert_eq!(levenshtein_at_most("aaaa", "bbbb", 4), Some(4));
    }

    #[test]
    fn lcs_examples_from_paper() {
        // bea / bea_systems share "bea" (3) → strong signal bucket.
        assert_eq!(longest_common_substring_len("bea", "bea_systems"), 3);
        assert_eq!(longest_common_substring_len("avast", "avast!"), 5);
        // lms vs lan_management_system share only single characters.
        assert!(longest_common_substring_len("lms", "lan_management_system") < 3);
        // Multi-byte names are measured in characters, not bytes.
        assert_eq!(longest_common_substring_len("脆弱性", "脆弱情報"), 2);
    }

    #[test]
    fn lcs_empty_and_disjoint() {
        assert_eq!(longest_common_substring_len("", "abc"), 0);
        assert_eq!(longest_common_substring_len("abc", ""), 0);
        assert_eq!(longest_common_substring_len("abc", "xyz"), 0);
    }

    #[test]
    fn prefix_pairs() {
        assert!(is_strict_prefix_pair("lynx", "lynx_project"));
        assert!(is_strict_prefix_pair("lynx_project", "lynx"));
        assert!(!is_strict_prefix_pair("lynx", "lynx"));
        assert!(!is_strict_prefix_pair("lynx", "linx"));
    }

    #[test]
    fn name_component_variants_agree() {
        let a = name_components("internet-explorer");
        let b = name_components("internet_explorer");
        let c = name_components("internet explorer");
        assert_eq!(a, b);
        assert_eq!(b, c);
    }

    #[test]
    fn strip_specials_examples() {
        assert_eq!(strip_specials("avast!"), "avast");
        assert_eq!(strip_specials("bea_systems"), "beasystems");
        assert_eq!(strip_specials("O'Reilly"), "oreilly");
    }

    #[test]
    fn abbreviation_examples() {
        assert_eq!(abbreviation("lan_management_system").unwrap(), "lms");
        assert_eq!(abbreviation("internet-explorer").unwrap(), "ie");
        assert_eq!(abbreviation("tbe_banner_engine").unwrap(), "tbe");
        assert_eq!(abbreviation("microsoft"), None);
    }
}
