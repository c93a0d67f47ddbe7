//! The Porter stemming algorithm.
//!
//! A faithful implementation of M. F. Porter's 1980 suffix-stripping
//! algorithm, used by the preprocessing pipeline to normalise inflected
//! forms — the paper's "tense (past tense is changed to present tense, e.g.,
//! *used* is changed to *use*)" step is subsumed by stemming (`used` → `us`,
//! `using` → `us`, `uses` → `us` all collapse to one key).
//!
//! Only lowercase ASCII words are stemmed; anything containing other
//! characters is returned unchanged.

/// Stems one lowercase word.
///
/// ```
/// use textkit::stemmer::stem;
/// assert_eq!(stem("caresses"), "caress");
/// assert_eq!(stem("motoring"), "motor");
/// assert_eq!(stem("exploited"), "exploit");
/// ```
pub fn stem(word: &str) -> String {
    if word.len() <= 2 || !word.bytes().all(|b| b.is_ascii_lowercase()) {
        return word.to_owned();
    }
    let mut w: Vec<u8> = word.bytes().collect();
    stem_in_place(&mut w);
    String::from_utf8(w).expect("ascii in, ascii out")
}

/// Stems a word in place on its byte buffer. Words that are too short or
/// not pure lowercase ASCII are left untouched, exactly like [`stem`].
fn stem_in_place(w: &mut Vec<u8>) {
    if w.len() <= 2 || !w.iter().all(|b| b.is_ascii_lowercase()) {
        return;
    }
    step_1a(w);
    step_1b(w);
    step_1c(w);
    step_2(w);
    step_3(w);
    step_4(w);
    step_5a(w);
    step_5b(w);
}

/// Whether `w[i]` acts as a consonant under Porter's rules (`y` is a
/// consonant when it follows a vowel position's consonant rule).
fn is_consonant(w: &[u8], i: usize) -> bool {
    match w[i] {
        b'a' | b'e' | b'i' | b'o' | b'u' => false,
        b'y' => {
            if i == 0 {
                true
            } else {
                !is_consonant(w, i - 1)
            }
        }
        _ => true,
    }
}

/// Porter's measure *m*: the number of vowel-consonant sequences in `w`.
fn measure(w: &[u8]) -> usize {
    let mut m = 0;
    let mut i = 0;
    let n = w.len();
    // Skip initial consonants.
    while i < n && is_consonant(w, i) {
        i += 1;
    }
    loop {
        // Skip vowels.
        while i < n && !is_consonant(w, i) {
            i += 1;
        }
        if i == n {
            return m;
        }
        // Skip consonants — one full VC sequence seen.
        while i < n && is_consonant(w, i) {
            i += 1;
        }
        m += 1;
        if i == n {
            return m;
        }
    }
}

/// `*v*`: the stem contains a vowel.
fn has_vowel(w: &[u8]) -> bool {
    (0..w.len()).any(|i| !is_consonant(w, i))
}

/// `*d`: the stem ends with a double consonant.
fn ends_double_consonant(w: &[u8]) -> bool {
    let n = w.len();
    n >= 2 && w[n - 1] == w[n - 2] && is_consonant(w, n - 1)
}

/// `*o`: the stem ends consonant-vowel-consonant where the final consonant
/// is not `w`, `x` or `y`.
fn ends_cvc(w: &[u8]) -> bool {
    let n = w.len();
    if n < 3 {
        return false;
    }
    is_consonant(w, n - 3)
        && !is_consonant(w, n - 2)
        && is_consonant(w, n - 1)
        && !matches!(w[n - 1], b'w' | b'x' | b'y')
}

fn ends_with(w: &[u8], suffix: &str) -> bool {
    w.len() >= suffix.len() && &w[w.len() - suffix.len()..] == suffix.as_bytes()
}

/// If `w` ends with `suffix`, returns the stem length (without the suffix).
fn stem_len(w: &[u8], suffix: &str) -> Option<usize> {
    ends_with(w, suffix).then(|| w.len() - suffix.len())
}

/// Replaces `suffix` by `replacement` if the measure of the stem satisfies
/// `min_m`. Returns true if the suffix matched (whether or not replaced).
fn replace_if_m(w: &mut Vec<u8>, suffix: &str, replacement: &str, min_m: usize) -> bool {
    if let Some(len) = stem_len(w, suffix) {
        if measure(&w[..len]) > min_m - 1 {
            w.truncate(len);
            w.extend_from_slice(replacement.as_bytes());
        }
        true
    } else {
        false
    }
}

fn step_1a(w: &mut Vec<u8>) {
    if ends_with(w, "sses") {
        w.truncate(w.len() - 2); // sses -> ss
    } else if ends_with(w, "ies") {
        w.truncate(w.len() - 2); // ies -> i
    } else if !ends_with(w, "ss") && ends_with(w, "s") {
        w.truncate(w.len() - 1); // s -> ""
    }
}

fn step_1b(w: &mut Vec<u8>) {
    if let Some(len) = stem_len(w, "eed") {
        if measure(&w[..len]) > 0 {
            w.truncate(w.len() - 1); // eed -> ee
        }
        return;
    }
    let stripped = if let Some(len) = stem_len(w, "ed") {
        if has_vowel(&w[..len]) {
            w.truncate(len);
            true
        } else {
            false
        }
    } else if let Some(len) = stem_len(w, "ing") {
        if has_vowel(&w[..len]) {
            w.truncate(len);
            true
        } else {
            false
        }
    } else {
        false
    };
    if !stripped {
        return;
    }
    if ends_with(w, "at") || ends_with(w, "bl") || ends_with(w, "iz") {
        w.push(b'e'); // at -> ate, bl -> ble, iz -> ize
    } else if ends_double_consonant(w) && !matches!(w[w.len() - 1], b'l' | b's' | b'z') {
        w.truncate(w.len() - 1); // double consonant -> single
    } else if measure(w) == 1 && ends_cvc(w) {
        w.push(b'e'); // (m=1 and *o) -> add e
    }
}

fn step_1c(w: &mut [u8]) {
    if let Some(len) = stem_len(w, "y") {
        if has_vowel(&w[..len]) {
            w[len] = b'i';
        }
    }
}

fn step_2(w: &mut Vec<u8>) {
    const RULES: &[(&str, &str)] = &[
        ("ational", "ate"),
        ("tional", "tion"),
        ("enci", "ence"),
        ("anci", "ance"),
        ("izer", "ize"),
        ("abli", "able"),
        ("alli", "al"),
        ("entli", "ent"),
        ("eli", "e"),
        ("ousli", "ous"),
        ("ization", "ize"),
        ("ation", "ate"),
        ("ator", "ate"),
        ("alism", "al"),
        ("iveness", "ive"),
        ("fulness", "ful"),
        ("ousness", "ous"),
        ("aliti", "al"),
        ("iviti", "ive"),
        ("biliti", "ble"),
    ];
    for (suffix, replacement) in RULES {
        if replace_if_m(w, suffix, replacement, 1) {
            return;
        }
    }
}

fn step_3(w: &mut Vec<u8>) {
    const RULES: &[(&str, &str)] = &[
        ("icate", "ic"),
        ("ative", ""),
        ("alize", "al"),
        ("iciti", "ic"),
        ("ical", "ic"),
        ("ful", ""),
        ("ness", ""),
    ];
    for (suffix, replacement) in RULES {
        if replace_if_m(w, suffix, replacement, 1) {
            return;
        }
    }
}

fn step_4(w: &mut Vec<u8>) {
    const SUFFIXES: &[&str] = &[
        "al", "ance", "ence", "er", "ic", "able", "ible", "ant", "ement", "ment", "ent", "ion",
        "ou", "ism", "ate", "iti", "ous", "ive", "ize",
    ];
    for suffix in SUFFIXES {
        if let Some(len) = stem_len(w, suffix) {
            if measure(&w[..len]) > 1 {
                // `ion` only strips after `s` or `t`.
                if *suffix == "ion" && !(len > 0 && matches!(w[len - 1], b's' | b't')) {
                    return;
                }
                w.truncate(len);
            }
            return;
        }
    }
}

fn step_5a(w: &mut Vec<u8>) {
    if let Some(len) = stem_len(w, "e") {
        let m = measure(&w[..len]);
        if m > 1 || (m == 1 && !ends_cvc(&w[..len])) {
            w.truncate(len);
        }
    }
}

fn step_5b(w: &mut Vec<u8>) {
    if measure(w) > 1 && ends_double_consonant(w) && w[w.len() - 1] == b'l' {
        w.truncate(w.len() - 1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn porter_paper_examples() {
        // (input, expected) pairs from Porter's 1980 paper and the reference
        // implementation's vocabulary.
        let cases = [
            ("caresses", "caress"),
            ("ponies", "poni"),
            ("ties", "ti"),
            ("caress", "caress"),
            ("cats", "cat"),
            ("feed", "feed"),
            ("agreed", "agre"),
            ("plastered", "plaster"),
            ("bled", "bled"),
            ("motoring", "motor"),
            ("sing", "sing"),
            ("conflated", "conflat"),
            ("troubled", "troubl"),
            ("sized", "size"),
            ("hopping", "hop"),
            ("tanned", "tan"),
            ("falling", "fall"),
            ("hissing", "hiss"),
            ("fizzed", "fizz"),
            ("failing", "fail"),
            ("filing", "file"),
            ("happy", "happi"),
            ("sky", "sky"),
            ("relational", "relat"),
            ("conditional", "condit"),
            ("rational", "ration"),
            ("digitizer", "digit"),
            ("operator", "oper"),
            ("feudalism", "feudal"),
            ("decisiveness", "decis"),
            ("hopefulness", "hope"),
            ("callousness", "callous"),
            ("formaliti", "formal"),
            ("sensitiviti", "sensit"),
            ("sensibiliti", "sensibl"),
            ("triplicate", "triplic"),
            ("formative", "form"),
            ("formalize", "formal"),
            ("electriciti", "electr"),
            ("electrical", "electr"),
            ("hopeful", "hope"),
            ("goodness", "good"),
            ("revival", "reviv"),
            ("allowance", "allow"),
            ("inference", "infer"),
            ("airliner", "airlin"),
            ("gyroscopic", "gyroscop"),
            ("adjustable", "adjust"),
            ("defensible", "defens"),
            ("irritant", "irrit"),
            ("replacement", "replac"),
            ("adjustment", "adjust"),
            ("dependent", "depend"),
            ("adoption", "adopt"),
            ("homologou", "homolog"),
            ("communism", "commun"),
            ("activate", "activ"),
            ("angulariti", "angular"),
            ("homologous", "homolog"),
            ("effective", "effect"),
            ("bowdlerize", "bowdler"),
            ("probate", "probat"),
            ("rate", "rate"),
            ("cease", "ceas"),
            ("controll", "control"),
            ("roll", "roll"),
        ];
        for (input, want) in cases {
            assert_eq!(stem(input), want, "stem({input:?})");
        }
    }

    #[test]
    fn security_vocabulary() {
        // Tense/number normalisation the preprocessing pipeline relies on:
        // inflections of the same verb must collapse to one stem.
        assert_eq!(stem("exploited"), stem("exploits"));
        assert_eq!(stem("exploited"), stem("exploiting"));
        assert_eq!(stem("injection"), stem("injections"));
        assert_eq!(stem("overflows"), stem("overflow"));
        assert_eq!(stem("attackers"), stem("attacker"));
        assert_eq!(stem("used"), stem("using"));
        // "vulnerabilities" -> ies->i -> biliti->ble -> able stripped.
        assert_eq!(stem("vulnerabilities"), "vulner");
        assert_eq!(stem("vulnerabilities"), stem("vulnerable"));
    }

    #[test]
    fn in_place_matches_allocating_stem() {
        for word in [
            "caresses",
            "vulnerabilities",
            "exploited",
            "a",
            "xss",
            "sql2",
            "Mixed",
            "脆弱性",
            "controll",
            "relational",
        ] {
            let mut buf = word.as_bytes().to_vec();
            stem_in_place(&mut buf);
            assert_eq!(String::from_utf8(buf).unwrap(), stem(word), "{word}");
        }
    }

    #[test]
    fn short_and_non_ascii_words_untouched() {
        assert_eq!(stem("a"), "a");
        assert_eq!(stem("is"), "is");
        assert_eq!(stem("xss"), "xss");
        assert_eq!(stem("os"), "os");
        assert_eq!(stem("脆弱性"), "脆弱性");
        assert_eq!(stem("sql2"), "sql2"); // digits -> untouched
        assert_eq!(stem("Mixed"), "Mixed"); // uppercase -> untouched
    }

    #[test]
    fn measure_function() {
        assert_eq!(measure(b"tr"), 0);
        assert_eq!(measure(b"ee"), 0);
        assert_eq!(measure(b"tree"), 0);
        assert_eq!(measure(b"y"), 0);
        assert_eq!(measure(b"by"), 0);
        assert_eq!(measure(b"trouble"), 1);
        assert_eq!(measure(b"oats"), 1);
        assert_eq!(measure(b"trees"), 1);
        assert_eq!(measure(b"ivy"), 1);
        assert_eq!(measure(b"troubles"), 2);
        assert_eq!(measure(b"private"), 2);
        assert_eq!(measure(b"oaten"), 2);
        assert_eq!(measure(b"orrery"), 2);
    }

    #[test]
    fn cvc_and_doubles() {
        assert!(ends_cvc(b"hop"));
        assert!(!ends_cvc(b"snow")); // ends w
        assert!(!ends_cvc(b"box")); // ends x
        assert!(!ends_cvc(b"tray")); // ends y
        assert!(ends_double_consonant(b"hopp"));
        assert!(!ends_double_consonant(b"hoop"));
    }
}
