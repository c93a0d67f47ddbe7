//! # textkit
//!
//! The natural-language-processing substrate for the `nvd-clean` workspace —
//! the Rust reproduction of *"Cleaning the NVD"* (Anwar et al., DSN 2021).
//!
//! The paper's §4.4 type-classification experiment embeds CVE
//! descriptions and classifies them with k-NN (`nvd_analysis::typeclf`).
//! This crate is its description pipeline: [`preprocess::Preprocessor`], a
//! single-pass, buffer-reusing implementation of case folding, contraction
//! expansion, stop-word removal via [`stopwords`], and in-place Porter
//! stemming via [`stemmer`]; and a 512-dimensional sentence embedding
//! ([`encoder::SentenceEncoder`], the from-scratch substitute for the
//! Universal Sentence Encoder). Corpus-scale work goes through
//! [`encoder::PreprocessedCorpus`]: preprocess once, intern every unique
//! term once, then fit IDF and encode off cached hashes in parallel.
//! [`tokenize`](mod@tokenize) is the plain tokeniser the preprocessing
//! tests compare the single-pass pipeline against.
//!
//! The classifier never rectifies data, so no cleaning or serving crate
//! depends on this one; the §4.2 name sweeps keep their own string helpers
//! in `nvd_clean::names::text`.
//!
//! Everything is deterministic and dependency-free, so encodings are
//! reproducible across runs and platforms.
//!
//! ## Example
//!
//! ```
//! use textkit::encoder::{cosine, SentenceEncoder};
//!
//! // Lexically similar descriptions embed close together.
//! let enc = SentenceEncoder::default();
//! let a = enc.encode("SQL injection allows remote attackers to execute commands");
//! let b = enc.encode("SQL injection lets remote attackers run arbitrary commands");
//! assert!(cosine(&a, &b) > 0.5);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs, missing_debug_implementations)]

pub mod encoder;
pub mod preprocess;
pub mod stemmer;
pub mod stopwords;
pub mod tokenize;

pub use encoder::{cosine, Idf, PreprocessedCorpus, SentenceEncoder, TermInterner};
pub use preprocess::{preprocess, Preprocessor};
pub use stemmer::{stem, stem_in_place};
pub use stopwords::is_stopword;
pub use tokenize::tokenize;
