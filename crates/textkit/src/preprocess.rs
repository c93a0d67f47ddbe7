//! The description-preprocessing pipeline of the paper's §4.4.
//!
//! "we unified the cases …, removed the stop words and special characters …,
//! replaced contractions (e.g., *identifier's* is changed to *identifier*),
//! and tense (past tense is changed to present tense …)". The pipeline is a
//! plain composition: [`expand_contractions`] (which also case-folds) →
//! [`tokenize`] (drops specials) → drop [stop words](is_stopword) →
//! Porter-[`stem`].

use crate::stemmer::stem;
use crate::stopwords::is_stopword;
use crate::tokenize::tokenize;

/// Common English contractions expanded before stemming. Possessive `'s` is
/// handled structurally (tokenisation splits it off and `s` is dropped as a
/// stop word), so this table only carries irregular forms.
const CONTRACTIONS: &[(&str, &[&str])] = &[
    ("can't", &["can", "not"]),
    ("cannot", &["can", "not"]),
    ("won't", &["will", "not"]),
    ("shan't", &["shall", "not"]),
    ("n't", &["not"]), // generic -n't suffix fallback
    ("i'm", &["i", "am"]),
    ("it's", &["it", "is"]),
    ("let's", &["let", "us"]),
    ("they're", &["they", "are"]),
    ("we're", &["we", "are"]),
    ("you're", &["you", "are"]),
    ("he's", &["he", "is"]),
    ("she's", &["she", "is"]),
    ("that's", &["that", "is"]),
    ("there's", &["there", "is"]),
    ("what's", &["what", "is"]),
    ("who's", &["who", "is"]),
    ("i've", &["i", "have"]),
    ("we've", &["we", "have"]),
    ("they've", &["they", "have"]),
    ("you've", &["you", "have"]),
    ("i'll", &["i", "will"]),
    ("we'll", &["we", "will"]),
    ("it'll", &["it", "will"]),
    ("i'd", &["i", "would"]),
    ("we'd", &["we", "would"]),
];

/// Case-folds raw text and expands its contractions, before tokenisation
/// strips the apostrophes. Words are whitespace-delimited (Unicode
/// whitespace, so NBSP and vertical tab split words too); a word matches
/// the contraction table whole, else a trailing `n't` becomes ` not` and a
/// trailing `'s` is dropped.
///
/// ```
/// use textkit::preprocess::expand_contractions;
/// assert_eq!(expand_contractions("It's used; can't access"), "it is used; can not access");
/// ```
pub fn expand_contractions(text: &str) -> String {
    let lower = text.to_lowercase();
    let mut out = String::with_capacity(lower.len());
    for word in lower.split_inclusive(char::is_whitespace) {
        let (core, trail) = split_trailing_ws(word);
        if let Some((_, exp)) = CONTRACTIONS.iter().find(|(pat, _)| core == *pat) {
            out.push_str(&exp.join(" "));
        } else if let Some(stem_part) = core.strip_suffix("n't") {
            // Generic -n't handling: "doesn't" → "does not".
            out.push_str(stem_part);
            out.push_str(" not");
        } else if let Some(owner) = core.strip_suffix("'s") {
            // Possessive / clitic: keep the owner word only.
            out.push_str(owner);
        } else {
            out.push_str(core);
        }
        out.push_str(trail);
    }
    out
}

fn split_trailing_ws(word: &str) -> (&str, &str) {
    let end = word.trim_end_matches(char::is_whitespace).len();
    word.split_at(end)
}

/// Fully preprocesses a description into normalised terms: contraction
/// expansion, tokenisation with case folding and special-character removal,
/// stop-word removal, Porter stemming.
///
/// ```
/// use textkit::preprocess::preprocess;
/// // The paper's example: "This capability can be accessed" → "capability access".
/// assert_eq!(preprocess("This capability can be accessed"), vec!["capabl", "access"]);
/// ```
pub fn preprocess(text: &str) -> Vec<String> {
    tokenize(&expand_contractions(text))
        .into_iter()
        .filter(|t| !is_stopword(t))
        .map(|t| stem(&t))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn contraction_expansion() {
        assert_eq!(expand_contractions("can't"), "can not");
        assert_eq!(expand_contractions("doesn't"), "does not");
        assert_eq!(expand_contractions("identifier's"), "identifier");
        assert_eq!(expand_contractions("It's"), "it is");
        assert_eq!(expand_contractions("plain words"), "plain words");
    }

    #[test]
    fn preprocess_drops_stopwords_and_stems() {
        let terms = preprocess("The attacker used a crafted header to cause a denial of service.");
        assert!(!terms.iter().any(|t| t == "the" || t == "a" || t == "to"));
        assert!(terms.iter().any(|t| t == "attack")); // attacker → attack
        assert!(terms.iter().any(|t| t == "craft")); // crafted → craft
    }

    #[test]
    fn preprocess_tense_normalisation() {
        // "used" and "uses" and "using" collapse to the same stem.
        let a = preprocess("attackers used the flaw");
        let b = preprocess("attackers using the flaw");
        let c = preprocess("attacker uses the flaw");
        assert_eq!(a, b);
        assert_eq!(b, c);
    }

    #[test]
    fn preprocess_empty_and_punctuation() {
        assert!(preprocess("").is_empty());
        assert!(preprocess("!!! ??? ...").is_empty());
        // Pure stop-word text vanishes.
        assert!(preprocess("this is the and of a").is_empty());
    }

    #[test]
    fn preprocess_keeps_cwe_tokens() {
        let terms = preprocess("CWE-89: SQL injection in login form");
        assert!(terms.iter().any(|t| t == "cwe"));
        assert!(terms.iter().any(|t| t == "89"));
        assert!(terms.iter().any(|t| t == "sql"));
    }

    #[test]
    fn matches_reference_on_tricky_fixed_cases() {
        // Known answers for the edge cases: final sigma, ß, ligatures,
        // dotted İ, NBSP / vertical tab / form feed, and the `n't` / `'s`
        // forms in every position.
        let cases: [(&str, &[&str]); 12] = [
            ("", &[]),
            ("   \t \n ", &[]),
            ("This capability can be accessed!", &["capabl", "access"]),
            ("can't. won't, doesn'T shan't CANNOT", &["t", "t", "shall"]),
            (
                "identifier's O'Reilly's n't 's xn't",
                &["identifi", "o", "reilli", "x"],
            ),
            (
                "CWE-89: SQL injection (login form) — crafted requests",
                &[
                    "cwe", "89", "sql", "inject", "login", "form", "craft", "request",
                ],
            ),
            (
                "脆弱性 情報 identifiers' flaw",
                &["脆弱性", "情報", "identifi", "flaw"],
            ),
            (
                "Σίσυφος ΑΣ ΟΔΥΣΣΕΥΣ naïve İstanbul",
                &["σίσυφος", "ας", "οδυσσευς", "naïve", "stanbul"],
            ),
            (
                "mixed\u{00A0}nbsp\u{000B}vtab\u{000C}ff",
                &["mix", "nbsp", "vtab", "ff"],
            ),
            ("they're you've it'll we'd LET'S", &["us"]),
            (
                "a-bn't c_d's e.f'g 1234n't 5's",
                &["b", "c", "d", "e", "f", "g", "1234", "5"],
            ),
            ("ﬁle ﬂaw ǅungla ß", &["ﬁle", "ﬂaw", "ǆungla", "ß"]),
        ];
        for (text, want) in cases {
            assert_eq!(preprocess(text), want, "input {text:?}");
        }
    }
}
