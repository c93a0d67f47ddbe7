//! # nvd-clean
//!
//! NVD data-quality assessment and rectification — the core library of the
//! Rust reproduction of *"Cleaning the NVD: Comprehensive Quality
//! Assessment, Improvements, and Analyses"* (Anwar et al., DSN 2021).
//!
//! The paper identifies four classes of inconsistency in the National
//! Vulnerability Database and builds automated corrections:
//!
//! | § | problem | fix | module |
//! |---|---------|-----|--------|
//! | 4.1 | publication date ≠ public disclosure date | crawl reference URLs, take the earliest extracted date | [`disclosure`] |
//! | 4.2 | inconsistent vendor/product names | heuristics + verification + canonical remapping | [`names`] |
//! | 4.3 | two thirds of CVEs lack CVSS v3 | learn v3 from v2 features + CWE (LR/SVR/CNN/DNN) | [`severity`] |
//! | 4.4 | degenerate CWE labels | mine `CWE-\d+` from descriptions | [`cwe_fix`] |
//!
//! [`cleaner`] chains all four into a pipeline producing a
//! [`cleaner::CleanOutcome`]: the rectified database, a
//! [`cleaner::CleanReport`], and the typed per-CVE
//! [`quality::QualityLedger`] every stage emits its findings into.
//!
//! ## Example
//!
//! ```
//! use nvd_clean::cleaner::Cleaner;
//! use nvd_clean::names::OracleVerifier;
//! use nvd_synth::{generate, SynthConfig};
//!
//! let corpus = generate(&SynthConfig::with_scale(0.003, 1));
//! let oracle = OracleVerifier::new(corpus.truth.vendor_alias_map());
//! let outcome = Cleaner::default().clean(
//!     &corpus.database,
//!     &corpus.archive,
//!     &oracle,
//! );
//! assert!(outcome.database.vendor_set().len() <= corpus.database.vendor_set().len());
//! assert_eq!(outcome.report.disclosure.len(), outcome.database.len());
//! assert!(outcome.ledger.total_issues() > 0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs, missing_debug_implementations)]

pub mod cleaner;
pub mod cwe_fix;
pub mod disclosure;
pub mod incremental;
pub mod names;
pub mod quality;
#[cfg(test)]
mod reference;
pub mod severity;

pub use cleaner::{CleanOptions, CleanOutcome, CleanReport, Cleaner, NameReport};
pub use cwe_fix::{extract_cwe_ids, rectify_cwe, CweFixOutcome, CweFixStats};
pub use disclosure::{AggregationRule, DisclosureEstimate, DisclosureEstimator, LagSummary};
pub use incremental::{
    CleanState, IngestError, IngestOutcome, QuarantineLedger, QuarantineReason, QuarantineRecord,
};
pub use names::{NameMapping, OracleVerifier, Verifier};
pub use quality::{
    CorpusQuality, IssueKind, IssueSeverity, QualityIssue, QualityLedger, QualityScore, Resolution,
    ScoreAxis,
};
pub use severity::{backport_v3, BackportOptions, BackportOutcome, ModelKind, TrainProfile};
