//! Fixed-dimension sentence embedding: the stand-in for the paper's
//! Universal Sentence Encoder.
//!
//! The paper (§4.4) encodes each CVE description with the pre-trained
//! Universal Sentence Encoder into a `1 × 512` vector and feeds those vectors
//! to k-NN/CNN/DNN classifiers. USE itself is a TensorFlow model we cannot
//! (and should not) ship; what the downstream models actually require is a
//! deterministic `text → ℝ^512` map under which lexically similar
//! descriptions are close. [`SentenceEncoder`] provides that with classical
//! machinery built from scratch:
//!
//! 1. preprocess (case-fold, expand contractions, drop stop words, stem);
//! 2. hash unigrams and bigrams into a sparse feature space (feature
//!    hashing, a.k.a. the hashing trick) with sublinear TF weighting and
//!    optional IDF reweighting via [`Idf`];
//! 3. project into `dim` dimensions with a seeded signed random projection
//!    (each hashed feature deterministically contributes ±w to every output
//!    coordinate), then L2-normalise.
//!
//! Random projection preserves inner products in expectation
//! (Johnson–Lindenstrauss), so cosine similarity of encodings tracks the
//! TF(-IDF) similarity of the underlying token multisets — the property the
//! k-NN type classifier depends on.

use std::collections::{BTreeMap, HashMap};

use crate::preprocess::preprocess;

/// Default embedding width, matching the paper's `1 × 512` USE vectors.
pub const DEFAULT_DIM: usize = 512;

/// Seed perturbation separating the bigram feature space from unigrams.
const BIGRAM_SEED_XOR: u64 = 0xb16a;

/// splitmix64: a small, high-quality 64-bit mixer used for feature hashing.
fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// Folds bytes into a running FNV-1a state.
fn fnv_fold(mut h: u64, bytes: &[u8]) -> u64 {
    for b in bytes {
        h ^= u64::from(*b);
        h = h.wrapping_mul(FNV_PRIME);
    }
    h
}

/// FNV-1a hash of a string, seeded.
fn hash_term(term: &str, seed: u64) -> u64 {
    splitmix64(fnv_fold(FNV_OFFSET ^ seed, term.as_bytes()))
}

/// Hash of the bigram `"{a} {b}"`, computed incrementally — the first
/// term's bytes, the space byte, and the second term's bytes stream through
/// one FNV-1a state, so the result is bit-identical to hashing the
/// formatted string without ever building it.
fn hash_term_pair(a: &str, b: &str, seed: u64) -> u64 {
    let h = fnv_fold(FNV_OFFSET ^ seed, a.as_bytes());
    let h = fnv_fold(h, b" ");
    splitmix64(fnv_fold(h, b.as_bytes()))
}

/// Hashed term features of a preprocessed token sequence: unigrams and
/// bigrams with sublinear term-frequency weights `1 + ln(tf)`.
///
/// Keys are 64-bit feature hashes; the map is sparse (a handful of entries
/// per description).
pub fn term_features(terms: &[String], seed: u64) -> BTreeMap<u64, f64> {
    let mut counts: BTreeMap<u64, u32> = BTreeMap::new();
    for t in terms {
        *counts.entry(hash_term(t, seed)).or_default() += 1;
    }
    for pair in terms.windows(2) {
        *counts
            .entry(hash_term_pair(&pair[0], &pair[1], seed ^ BIGRAM_SEED_XOR))
            .or_default() += 1;
    }
    counts
        .into_iter()
        .map(|(k, c)| (k, 1.0 + f64::from(c).ln()))
        .collect()
}

// ---------------------------------------------------------------------------
// IDF
// ---------------------------------------------------------------------------

/// Inverse document frequency statistics, fit over a corpus of preprocessed
/// term sequences and applied as a reweighting of [`term_features`].
///
/// `idf(t) = ln((1 + N) / (1 + df(t))) + 1` (smoothed, scikit-learn style);
/// unseen terms receive the maximum weight `ln(1 + N) + 1`.
#[derive(Debug, Clone, Default)]
pub struct Idf {
    doc_count: usize,
    doc_freq: HashMap<u64, u32>,
    seed: u64,
    /// Reusable sort-dedup scratch for [`Idf::add_document`].
    scratch: Vec<u64>,
}

impl Idf {
    /// Creates an empty model with the given hashing seed (must match the
    /// encoder's seed for the hashes to line up).
    pub fn new(seed: u64) -> Self {
        Self {
            doc_count: 0,
            doc_freq: HashMap::new(),
            seed,
            scratch: Vec::new(),
        }
    }

    /// Folds one document's terms into the document-frequency counts.
    ///
    /// Deduplication runs on a reusable sort-dedup scratch vector (same
    /// semantics as a per-call ordered set, no per-document allocation).
    pub fn add_document(&mut self, terms: &[String]) {
        self.doc_count += 1;
        self.scratch.clear();
        self.scratch
            .extend(terms.iter().map(|t| hash_term(t, self.seed)));
        self.scratch.sort_unstable();
        self.scratch.dedup();
        for &h in &self.scratch {
            *self.doc_freq.entry(h).or_default() += 1;
        }
    }

    /// Number of documents folded in so far.
    pub fn len(&self) -> usize {
        self.doc_count
    }

    /// Whether no documents have been added.
    pub fn is_empty(&self) -> bool {
        self.doc_count == 0
    }

    /// The hashing seed this model was fit under.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// The IDF weight for a feature hash.
    pub fn weight(&self, feature: u64) -> f64 {
        let df = self.doc_freq.get(&feature).copied().unwrap_or(0);
        (((1 + self.doc_count) as f64) / (f64::from(df) + 1.0)).ln() + 1.0
    }
}

// ---------------------------------------------------------------------------
// The encoder
// ---------------------------------------------------------------------------

/// Deterministic sentence encoder: preprocess → hashed TF(-IDF) features →
/// seeded signed random projection → L2-normalised `dim`-vector.
///
/// ```
/// use textkit::encoder::{SentenceEncoder, cosine};
/// let enc = SentenceEncoder::default();
/// let a = enc.encode("SQL injection in the login form allows remote attackers to read data");
/// let b = enc.encode("SQL injection vulnerability in login form lets remote attackers read the database");
/// let c = enc.encode("Buffer overflow in the kernel driver causes local denial of service");
/// assert_eq!(a.len(), 512);
/// assert!(cosine(&a, &b) > cosine(&a, &c));
/// ```
#[derive(Debug, Clone)]
pub struct SentenceEncoder {
    dim: usize,
    seed: u64,
    idf: Option<Idf>,
}

impl Default for SentenceEncoder {
    fn default() -> Self {
        Self::new(DEFAULT_DIM, 0x5e17)
    }
}

impl SentenceEncoder {
    /// Creates an encoder with the given output dimension and hashing seed.
    ///
    /// # Panics
    ///
    /// Panics if `dim` is zero.
    pub fn new(dim: usize, seed: u64) -> Self {
        assert!(dim > 0, "encoder dimension must be positive");
        Self {
            dim,
            seed,
            idf: None,
        }
    }

    /// Output dimensionality.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// The hashing seed.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Installs pre-fit IDF statistics.
    ///
    /// # Panics
    ///
    /// Panics if the model was fit under a different hashing seed.
    pub fn with_idf(mut self, idf: Idf) -> Self {
        assert_eq!(
            idf.seed(),
            self.seed,
            "IDF seed must match the encoder seed"
        );
        self.idf = Some(idf);
        self
    }

    /// Fits IDF weights on a corpus (one [`Idf::add_document`] per text)
    /// and returns the reweighting encoder.
    pub fn with_idf_corpus<'a, I: IntoIterator<Item = &'a str>>(self, corpus: I) -> Self {
        let mut idf = Idf::new(self.seed);
        for text in corpus {
            idf.add_document(&preprocess(text));
        }
        self.with_idf(idf)
    }

    /// Encodes raw text (runs the preprocessing pipeline first).
    pub fn encode(&self, text: &str) -> Vec<f64> {
        self.encode_terms(&preprocess(text))
    }

    /// Encodes already-preprocessed terms.
    ///
    /// Empty input encodes to the zero vector (the only non-unit output).
    pub fn encode_terms(&self, terms: &[String]) -> Vec<f64> {
        self.scatter(term_features(terms, self.seed))
    }

    /// Signed random projection of sparse features into the output space.
    ///
    /// Features are consumed in ascending hash order (the `BTreeMap`
    /// order), so the floating-point accumulation sequence is fixed and an
    /// encoding is bit-identical wherever and on whichever thread it runs.
    fn scatter(&self, features: BTreeMap<u64, f64>) -> Vec<f64> {
        let mut out = vec![0.0f64; self.dim];
        for (feature, tf) in features {
            let w = match &self.idf {
                Some(idf) => tf * idf.weight(feature),
                None => tf,
            };
            // Each feature deterministically scatters ±w over all output
            // coordinates: stream signs from splitmix64(feature, j).
            let mut state = feature ^ self.seed;
            for slot in out.iter_mut() {
                state = splitmix64(state);
                if state & 1 == 1 {
                    *slot += w;
                } else {
                    *slot -= w;
                }
            }
        }
        let norm = out.iter().map(|x| x * x).sum::<f64>().sqrt();
        if norm > 0.0 {
            for x in &mut out {
                *x /= norm;
            }
        }
        out
    }
}

/// Cosine similarity of two equal-length vectors; zero vectors yield 0.
///
/// # Panics
///
/// Panics if the vectors have different lengths.
pub fn cosine(a: &[f64], b: &[f64]) -> f64 {
    assert_eq!(a.len(), b.len(), "cosine over mismatched dimensions");
    let dot: f64 = a.iter().zip(b).map(|(x, y)| x * y).sum();
    let na: f64 = a.iter().map(|x| x * x).sum::<f64>().sqrt();
    let nb: f64 = b.iter().map(|x| x * x).sum::<f64>().sqrt();
    if na == 0.0 || nb == 0.0 {
        0.0
    } else {
        dot / (na * nb)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn encoding_is_deterministic() {
        let enc = SentenceEncoder::default();
        let a = enc.encode("heap buffer overflow in image parser");
        let b = enc.encode("heap buffer overflow in image parser");
        assert_eq!(a, b);
    }

    #[test]
    fn encoding_is_unit_norm() {
        let enc = SentenceEncoder::new(128, 7);
        let v = enc.encode("use after free in browser engine");
        let norm: f64 = v.iter().map(|x| x * x).sum::<f64>().sqrt();
        assert!((norm - 1.0).abs() < 1e-9, "norm {norm}");
    }

    #[test]
    fn empty_text_encodes_to_zero() {
        let enc = SentenceEncoder::default();
        let v = enc.encode("");
        assert!(v.iter().all(|&x| x == 0.0));
        let w = enc.encode("the of and");
        assert!(w.iter().all(|&x| x == 0.0), "stop words only");
    }

    #[test]
    fn similar_texts_are_closer_than_dissimilar() {
        let enc = SentenceEncoder::default();
        let sqli_a = enc.encode(
            "SQL injection in login form allows remote attackers to execute arbitrary SQL commands",
        );
        let sqli_b = enc.encode("SQL injection vulnerability in the search form allows remote attackers to run SQL commands");
        let bof = enc.encode(
            "stack-based buffer overflow in the TIFF decoder allows local users to gain privileges",
        );
        assert!(cosine(&sqli_a, &sqli_b) > cosine(&sqli_a, &bof) + 0.1);
    }

    #[test]
    fn different_seeds_give_different_embeddings() {
        let a = SentenceEncoder::new(64, 1).encode("memory corruption");
        let b = SentenceEncoder::new(64, 2).encode("memory corruption");
        assert_ne!(a, b);
    }

    #[test]
    fn incremental_bigram_hash_matches_string_built_hash() {
        // The zero-allocation pair hash must agree bit-for-bit with hashing
        // the `format!("{a} {b}")` string it replaced.
        let pairs = [
            ("sql", "inject"),
            ("buffer", "overflow"),
            ("", "x"),
            ("x", ""),
            ("", ""),
            ("a b", "c"), // embedded space in a term still lines up
            ("脆弱性", "情報"),
        ];
        for seed in [0u64, 0x5e17, 0x5e17 ^ BIGRAM_SEED_XOR, u64::MAX] {
            for (a, b) in pairs {
                assert_eq!(
                    hash_term_pair(a, b, seed),
                    hash_term(&format!("{a} {b}"), seed),
                    "pair ({a:?}, {b:?}) seed {seed:#x}"
                );
            }
        }
    }

    #[test]
    fn idf_downweights_ubiquitous_terms() {
        let corpus = [
            "vulnerability in server allows remote attackers",
            "vulnerability in client allows remote attackers",
            "vulnerability in kernel allows local attackers",
            "sql injection vulnerability in form",
        ];
        let mut idf = Idf::new(0x5e17);
        for doc in corpus {
            idf.add_document(&preprocess(doc));
        }
        assert_eq!(idf.len(), 4);
        let vuln = hash_term(&preprocess("vulnerability")[0], 0x5e17);
        let sql = hash_term(&preprocess("sql")[0], 0x5e17);
        assert!(idf.weight(vuln) < idf.weight(sql));
        // Unseen terms get at least the max seen weight.
        assert!(idf.weight(hash_term("zzzz", 0x5e17)) >= idf.weight(sql));
    }

    #[test]
    fn add_document_scratch_reuse_keeps_dedup_semantics() {
        // Repeated terms in one document count once; the shared scratch
        // must not leak state between documents.
        let mut idf = Idf::new(9);
        idf.add_document(&preprocess("overflow overflow overflow"));
        idf.add_document(&preprocess("overflow injection"));
        let over = hash_term(&preprocess("overflow")[0], 9);
        let inj = hash_term(&preprocess("injection")[0], 9);
        assert_eq!(idf.doc_freq[&over], 2, "df(overflow)");
        assert_eq!(idf.doc_freq[&inj], 1, "df(injection)");
    }

    #[test]
    fn cosine_basics() {
        assert!((cosine(&[1.0, 0.0], &[1.0, 0.0]) - 1.0).abs() < 1e-12);
        assert!((cosine(&[1.0, 0.0], &[0.0, 1.0])).abs() < 1e-12);
        assert_eq!(cosine(&[0.0, 0.0], &[1.0, 2.0]), 0.0);
    }

    #[test]
    #[should_panic(expected = "mismatched")]
    fn cosine_rejects_mismatched_lengths() {
        let _ = cosine(&[1.0], &[1.0, 2.0]);
    }

    #[test]
    #[should_panic(expected = "IDF seed must match")]
    fn mismatched_idf_seed_is_rejected() {
        let _ = SentenceEncoder::new(64, 1).with_idf(Idf::new(2));
    }
}
