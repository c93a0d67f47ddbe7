//! CVSS v3 severity backporting (§4.3).
//!
//! Two thirds of the paper's NVD snapshot have no CVSS v3 score. The
//! pipeline here: extract features from the v2 vector plus the CWE type
//! ([`features`]), train a model zoo — linear regression, RBF SVR, CNN,
//! DNN — on the ≈37K CVEs carrying both versions ([`models`]), evaluate
//! with the paper's AE / AER / per-class-accuracy metrics ([`eval`]), then
//! predict v3 base scores for every v2-only CVE ([`backport`]).

pub mod backport;
pub mod eval;
pub mod features;
pub mod models;

pub use backport::{backport_v3, can_backport, BackportOptions, BackportOutcome, MIN_GROUND_TRUTH};
pub use eval::{transition_matrix, EvalReport};
pub use features::{FeatureExtractor, FEATURE_DIM};
pub use models::{ModelKind, SeverityModel, TrainProfile};
