//! # textkit
//!
//! The natural-language-processing substrate for the `nvd-clean` workspace —
//! the Rust reproduction of *"Cleaning the NVD"* (Anwar et al., DSN 2021).
//!
//! The paper's cleaning pipeline leans on NLP in two places:
//!
//! * **§4.2 name consolidation** needs string-similarity primitives —
//!   [`distance::levenshtein`], [`distance::longest_common_substring_len`],
//!   prefix tests, plus CPE-name tokenisation and abbreviation extraction in
//!   [`tokenize`](mod@tokenize);
//! * **§4.4 type classification** needs the description-preprocessing
//!   pipeline ([`preprocess::Preprocessor`], a single-pass, buffer-reusing
//!   implementation of case folding, contraction expansion, stop-word
//!   removal via [`stopwords`], and in-place Porter stemming via
//!   [`stemmer`]) and a 512-dimensional sentence embedding
//!   ([`encoder::SentenceEncoder`], the from-scratch substitute for the
//!   Universal Sentence Encoder). Corpus-scale work goes through
//!   [`encoder::PreprocessedCorpus`]: preprocess once, intern every unique
//!   term once, then fit IDF and encode off cached hashes in parallel.
//!
//! Everything is deterministic and dependency-free, so encodings and
//! similarity scores are reproducible across runs and platforms.
//!
//! ## Example
//!
//! ```
//! use textkit::distance::levenshtein;
//! use textkit::encoder::{cosine, SentenceEncoder};
//!
//! // §4.2: catch the human-error pair the paper cites.
//! assert_eq!(levenshtein("tbe_banner_engine", "the_banner_engine"), 1);
//!
//! // §4.4: lexically similar descriptions embed close together.
//! let enc = SentenceEncoder::default();
//! let a = enc.encode("SQL injection allows remote attackers to execute commands");
//! let b = enc.encode("SQL injection lets remote attackers run arbitrary commands");
//! assert!(cosine(&a, &b) > 0.5);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs, missing_debug_implementations)]

pub mod distance;
pub mod encoder;
pub mod preprocess;
pub mod stemmer;
pub mod stopwords;
pub mod tokenize;

pub use distance::{levenshtein, longest_common_substring, longest_common_substring_len};
pub use encoder::{cosine, Idf, PreprocessedCorpus, SentenceEncoder, TermInterner};
pub use preprocess::{preprocess, Preprocessor};
pub use stemmer::{stem, stem_in_place};
pub use stopwords::is_stopword;
pub use tokenize::{abbreviation, name_components, strip_specials, tokenize};
