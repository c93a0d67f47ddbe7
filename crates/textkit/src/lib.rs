//! # textkit
//!
//! The natural-language-processing substrate for the `nvd-clean` workspace —
//! the Rust reproduction of *"Cleaning the NVD"* (Anwar et al., DSN 2021).
//!
//! The paper's §4.4 type-classification experiment embeds CVE
//! descriptions and classifies them with k-NN (`nvd_analysis::typeclf`).
//! This crate is its description pipeline, one plain composition per step:
//! [`preprocess()`] runs [`preprocess::expand_contractions`] (case folding
//! and contraction expansion), [`tokenize()`], stop-word removal via
//! [`stopwords`] and Porter stemming via [`stemmer`]; a 512-dimensional
//! sentence embedding ([`encoder::SentenceEncoder`], the from-scratch
//! substitute for the Universal Sentence Encoder) hashes the terms, with
//! optional IDF weights ([`encoder::Idf`]) fit one document at a time.
//! Every function is pure, so corpus-scale callers fan documents out over
//! any thread pool and get the same bits at any width.
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

pub use encoder::{cosine, Idf, SentenceEncoder};
pub use preprocess::preprocess;
pub use stemmer::stem;
pub use stopwords::is_stopword;
pub use tokenize::tokenize;
