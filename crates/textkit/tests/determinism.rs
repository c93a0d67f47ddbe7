//! Determinism tests: every textkit primitive is a pure function, so
//! repeated calls on fixed inputs must agree exactly — the §4.4
//! classification experiment depends on that for reproducible runs.

use nvd_synth::{generate, SynthConfig};
use textkit::encoder::{Idf, SentenceEncoder};
use textkit::preprocess::preprocess;
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

/// The §4.4 embedding as `nvd_analysis::typeclf` runs it, at `jobs` pool
/// width: preprocess each text on the pool, fit IDF with one serial
/// `add_document` per text, then encode the term lists on the pool.
fn encode_with_idf(texts: &[&str], dim: usize, jobs: usize) -> Vec<Vec<f64>> {
    const SEED: u64 = 0x5e17;
    minipar::with_jobs(jobs, || {
        let terms = minipar::par_map(texts, |t| preprocess(t));
        let mut idf = Idf::new(SEED);
        for doc in &terms {
            idf.add_document(doc);
        }
        let enc = SentenceEncoder::new(dim, SEED).with_idf(idf);
        minipar::par_map(&terms, |doc| enc.encode_terms(doc))
    })
}

#[test]
fn corpus_pipeline_is_bit_identical_to_per_call_pipeline() {
    // An IDF-weighted encode of 256 descriptions of a synthetic corpus
    // (analyst and evaluator text) must be bit-identical at pool widths 1
    // and 4, and equal to the serial `with_idf_corpus` + `encode` calls.
    let corpus = generate(&SynthConfig::with_scale(0.02, 0xbe9c));
    let texts: Vec<&str> = corpus
        .database
        .iter()
        .flat_map(|e| e.descriptions.iter().map(|d| d.text.as_str()))
        .take(256)
        .collect();
    assert_eq!(texts.len(), 256);
    let serial = encode_with_idf(&texts, 256, 1);
    assert_eq!(
        serial,
        encode_with_idf(&texts, 256, 4),
        "IDF-weighted encode diverged across job counts"
    );
    let per_call = SentenceEncoder::new(256, 0x5e17).with_idf_corpus(texts.iter().copied());
    for (i, text) in texts.iter().enumerate() {
        assert_eq!(serial[i], per_call.encode(text), "doc {i}");
    }
}
