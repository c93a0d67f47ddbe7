//! Determinism tests: every textkit primitive is a pure function, so
//! repeated calls on fixed inputs must agree exactly — the §4.4
//! classification experiment depends on that for reproducible runs.

use nvd_synth::{generate, SynthConfig};
use textkit::encoder::{Idf, PreprocessedCorpus, SentenceEncoder};
use textkit::preprocess::{preprocess, Preprocessor};
use textkit::stemmer::stem;
use textkit::tokenize::tokenize;

const DESCRIPTION: &str = "SQL injection vulnerability in index.php in ExampleCMS 2.1 \
     allows remote attackers to execute arbitrary SQL commands via the id parameter.";

#[test]
fn tokenize_is_deterministic_and_stable() {
    let first = tokenize(DESCRIPTION);
    for _ in 0..10 {
        assert_eq!(tokenize(DESCRIPTION), first);
    }
    assert!(!first.is_empty());
    // Tokens never carry surrounding whitespace.
    assert!(first.iter().all(|t| t.trim() == t && !t.is_empty()));
}

#[test]
fn stem_is_deterministic_and_idempotent() {
    for word in [
        "vulnerabilities",
        "attackers",
        "execute",
        "injection",
        "allows",
        "overflow",
        "crafted",
    ] {
        let once = stem(word);
        assert_eq!(stem(word), once, "{word}: repeated call differs");
        // Stemming a stem must be a fixed point.
        assert_eq!(stem(&once), once, "{word}: stem not idempotent");
        assert!(!once.is_empty());
    }
}

#[test]
fn preprocess_is_deterministic() {
    let first = preprocess(DESCRIPTION);
    for _ in 0..5 {
        assert_eq!(preprocess(DESCRIPTION), first);
    }
}

#[test]
fn reused_preprocessor_matches_free_function() {
    // The scratch-buffer pipeline behind the free function must behave
    // identically when one Preprocessor instance is reused across many
    // texts — no state may leak between calls.
    let texts = [
        DESCRIPTION,
        "",
        "can't won't doesn't",
        "Buffer overflow (CWE-120) in the TIFF decoder!",
        "脆弱性 情報 Σίσυφος ΑΣ",
    ];
    let mut pre = Preprocessor::new();
    for text in texts {
        let mut terms = Vec::new();
        pre.for_each_term(text, |t| terms.push(t.to_owned()));
        assert_eq!(terms, preprocess(text), "input {text:?}");
    }
}

/// Encodes `texts` through the corpus API (one `PreprocessedCorpus` feeding
/// the IDF fit and the encoding) at `jobs` pool width, and asserts every
/// row equals the per-call `preprocess`/`add_document`/`encode`
/// composition.
fn assert_corpus_matches_per_call(texts: &[&str], dim: usize, jobs: usize) -> Vec<Vec<f64>> {
    const SEED: u64 = 0x5e17;
    let batch = minipar::with_jobs(jobs, || {
        let corpus = PreprocessedCorpus::build(texts.iter().copied(), SEED);
        let enc = SentenceEncoder::new(dim, SEED).with_idf(Idf::fit_corpus(&corpus));
        enc.encode_corpus(&corpus)
    });
    let per_call = SentenceEncoder::new(dim, SEED).with_idf_corpus(texts.iter().copied());
    for (i, text) in texts.iter().enumerate() {
        assert_eq!(batch[i], per_call.encode(text), "doc {i} at jobs {jobs}");
    }
    batch
}

#[test]
fn corpus_pipeline_is_bit_identical_to_per_call_pipeline() {
    // PreprocessedCorpus + fit_corpus + encode_corpus must reproduce the
    // per-call preprocess/add_document/encode composition exactly.
    let texts = [
        DESCRIPTION,
        "Buffer overflow in the kernel driver causes local denial of service.",
        "Cross-site scripting in the search form.",
    ];
    assert_corpus_matches_per_call(&texts, 128, 1);

    // The same on 256 descriptions of a synthetic corpus (analyst and
    // evaluator text), and bit-identical at pool widths 1 and 4.
    let corpus = generate(&SynthConfig::with_scale(0.02, 0xbe9c));
    let texts: Vec<&str> = corpus
        .database
        .iter()
        .flat_map(|e| e.descriptions.iter().map(|d| d.text.as_str()))
        .take(256)
        .collect();
    assert_eq!(texts.len(), 256);
    assert_eq!(
        assert_corpus_matches_per_call(&texts, 256, 1),
        assert_corpus_matches_per_call(&texts, 256, 4),
        "corpus encode diverged across job counts"
    );
}
