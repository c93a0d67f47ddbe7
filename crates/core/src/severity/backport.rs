//! The end-to-end v3 backport (§4.3 "Improvement Impact", Tables 5–7).
//!
//! Ground truth = CVEs carrying both CVSS versions, split 80/20 stratified
//! by v3 band. All four models train on the same split; the best test-split
//! banded accuracy is selected (the paper selects its CNN at 86.29%), and
//! the winner predicts v3 scores for every v2-only CVE.

use std::collections::BTreeMap;

use mlkit::data::{stratified_split_indices, Dataset};
use mlkit::matrix::Matrix;
use nvd_model::prelude::{CveEntry, CveId, Database, Severity};

use super::eval::{evaluate, transition_matrix, v3_band_index, EvalReport};
use super::features::{FeatureExtractor, FEATURE_DIM};
use super::models::{ModelKind, SeverityModel, TrainProfile};

/// Fewest ground-truth CVEs (those carrying both CVSS versions)
/// [`backport_v3`] trains on. Cleaning skips the backport below it.
pub const MIN_GROUND_TRUTH: usize = 20;

/// Whether `db` holds enough ground truth for [`backport_v3`].
pub fn can_backport(db: &Database) -> bool {
    db.iter().filter(|e| is_ground_truth(e)).count() >= MIN_GROUND_TRUTH
}

fn is_ground_truth(e: &CveEntry) -> bool {
    e.cvss_v2.is_some() && e.cvss_v3.is_some()
}

/// Options for [`backport_v3`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BackportOptions {
    /// Training fidelity (paper vs fast).
    pub profile: TrainProfile,
    /// Held-out fraction of the ground truth (paper: 20%).
    pub test_fraction: f64,
    /// RNG seed for the split and model initialisation.
    pub seed: u64,
    /// Force a specific model instead of selecting by test accuracy.
    pub force_model: Option<ModelKind>,
    /// Train only this subset (default: all four). Trims bench time.
    pub kinds: &'static [ModelKind],
}

impl Default for BackportOptions {
    fn default() -> Self {
        Self {
            profile: TrainProfile::Fast,
            test_fraction: 0.2,
            seed: 0xbac0,
            force_model: None,
            kinds: &ModelKind::ALL,
        }
    }
}

/// Everything the backport produces.
#[derive(Debug, Clone)]
pub struct BackportOutcome {
    /// Per-model test evaluation (Tables 5 and 7).
    pub reports: BTreeMap<ModelKind, EvalReport>,
    /// The selected model kind (the paper's CNN).
    pub chosen: ModelKind,
    /// Predicted v3 base score per v2-only CVE.
    pub predictions: BTreeMap<CveId, f64>,
    /// v2 → predicted-v3 transition matrix over the v2-only population
    /// (Table 6).
    pub backport_transition: mlkit::metrics::ConfusionMatrix,
    /// v2 → true-v3 transition matrix over the ground truth (Table 4).
    pub ground_truth_transition: mlkit::metrics::ConfusionMatrix,
    /// v2 → *predicted*-v3 transitions over the full ground truth
    /// (Table 13).
    pub full_prediction_transition: mlkit::metrics::ConfusionMatrix,
    /// v2 → true-v3 transitions over the test split only (Table 14).
    pub test_ground_truth_transition: mlkit::metrics::ConfusionMatrix,
    /// v2 → predicted-v3 transitions over the test split only (Table 15).
    pub test_prediction_transition: mlkit::metrics::ConfusionMatrix,
    /// Ground truth size (paper: ≈37K).
    pub ground_truth_size: usize,
    /// v2-only population size (paper: ≈74K).
    pub v2_only_size: usize,
}

impl BackportOutcome {
    /// Predicted v3 severity band for a CVE, if it was backported.
    pub fn predicted_severity(&self, id: &CveId) -> Option<Severity> {
        self.predictions
            .get(id)
            .map(|&s| Severity::from_v3_score(s))
    }

    /// The v3 severity of a CVE after rectification: the NVD label when
    /// present, else the prediction.
    pub fn effective_severity(&self, db: &Database, id: &CveId) -> Option<Severity> {
        db.get(id)
            .and_then(|e| e.severity_v3())
            .or_else(|| self.predicted_severity(id))
    }
}

/// Runs the full §4.3 pipeline over a database.
///
/// # Panics
///
/// Panics if fewer than [`MIN_GROUND_TRUTH`] CVEs carry both CVSS
/// versions (no ground truth to learn from; see [`can_backport`]).
pub fn backport_v3(db: &Database, options: &BackportOptions) -> BackportOutcome {
    // --- assemble ground truth ------------------------------------------
    let ground: Vec<_> = db.iter().filter(|e| is_ground_truth(e)).collect();
    assert!(
        ground.len() >= MIN_GROUND_TRUTH,
        "need at least {MIN_GROUND_TRUTH} dual-scored CVEs, found {}",
        ground.len()
    );

    let gt_v2: Vec<Severity> = ground
        .iter()
        .map(|e| e.severity_v2().expect("filtered"))
        .collect();
    let gt_v3: Vec<Severity> = ground
        .iter()
        .map(|e| e.severity_v3().expect("filtered"))
        .collect();
    let strata: Vec<usize> = gt_v3.iter().map(|&b| v3_band_index(b)).collect();
    let (train_idx, test_idx) =
        stratified_split_indices(&strata, options.test_fraction, options.seed);

    // Target encoding must only see training data.
    let extractor = FeatureExtractor::fit(train_idx.iter().map(|&i| ground[i]));

    // Feature extraction is per-CVE and pure: every ground-truth row is
    // extracted once, on the pool, in index order, so the matrices
    // assembled from it are identical at any thread count.
    let features = minipar::par_map(&ground, |e| extractor.extract(e).expect("filtered for v2"));
    let assemble = |indices: &[usize]| -> Dataset {
        let mut rows = Vec::with_capacity(indices.len() * FEATURE_DIM);
        let mut y = Vec::with_capacity(indices.len());
        for &i in indices {
            rows.extend_from_slice(&features[i]);
            y.push(ground[i].cvss_v3.as_ref().expect("filtered").base_score);
        }
        Dataset::new(Matrix::from_vec(indices.len(), FEATURE_DIM, rows), y)
    };
    let pick = |bands: &[Severity], indices: &[usize]| -> Vec<Severity> {
        indices.iter().map(|&i| bands[i]).collect()
    };
    let train = assemble(&train_idx);
    let test = assemble(&test_idx);
    let test_v2 = pick(&gt_v2, &test_idx);

    // --- train the zoo -----------------------------------------------------
    // Each model keeps its test-split predictions; the winner's are reused
    // for Tables 13 and 15 below.
    let mut reports = BTreeMap::new();
    let mut models: BTreeMap<ModelKind, (SeverityModel, Vec<f64>)> = BTreeMap::new();
    for &kind in options.kinds {
        let model = SeverityModel::train(kind, &train.x, &train.y, options.profile, options.seed);
        let pred = model.predict(&test.x);
        reports.insert(kind, evaluate(&test.y, &pred, &test_v2));
        models.insert(kind, (model, pred));
    }

    // --- select the winner ---------------------------------------------------
    let chosen = options.force_model.unwrap_or_else(|| {
        *reports
            .iter()
            .max_by(|a, b| {
                a.1.overall_accuracy
                    .partial_cmp(&b.1.overall_accuracy)
                    .expect("finite accuracy")
            })
            .expect("at least one model")
            .0
    });
    let (winner, winner_test_pred) = &models[&chosen];

    // --- backport the v2-only population ----------------------------------
    // The paper's ≈74K-CVE sweep: extract features per entry on the pool,
    // assemble one flat design matrix, and predict the whole population
    // through the winner's batched kernels.
    let v2_only: Vec<_> = db
        .iter()
        .filter(|e| e.cvss_v3.is_none() && e.cvss_v2.is_some())
        .collect();
    let mut predictions = BTreeMap::new();
    let mut v2_bands = Vec::with_capacity(v2_only.len());
    let mut pred_bands = Vec::with_capacity(v2_only.len());
    if !v2_only.is_empty() {
        let extracted = minipar::par_map(&v2_only, |e| {
            (
                extractor.extract(e).expect("has v2"),
                e.severity_v2().expect("has v2"),
            )
        });
        let mut rows = Vec::with_capacity(v2_only.len() * FEATURE_DIM);
        for (f, band) in &extracted {
            rows.extend_from_slice(f);
            v2_bands.push(*band);
        }
        let x = Matrix::from_vec(v2_only.len(), FEATURE_DIM, rows);
        let scores = winner.predict(&x);
        for (e, &score) in v2_only.iter().zip(&scores) {
            predictions.insert(e.id, score);
            pred_bands.push(Severity::from_v3_score(score));
        }
    }
    let backport_transition = transition_matrix(&v2_bands, &pred_bands);

    // --- Table 4: ground-truth transitions ---------------------------------
    let ground_truth_transition = transition_matrix(&gt_v2, &gt_v3);

    // --- Tables 13–15: sanity matrices on the ground truth ------------------
    // Tables 14 and 15 are the test split: its true bands and the winner's
    // predictions from the zoo loop. Table 13 counts transitions over the
    // whole ground truth, so it is the train rows (predicted here) plus
    // those same test predictions; every model predicts row by row, so a
    // row's score does not depend on the matrix it is predicted in.
    let bands = |scores: &[f64]| -> Vec<Severity> {
        scores.iter().map(|&s| Severity::from_v3_score(s)).collect()
    };
    let test_pred = bands(winner_test_pred);
    let full_v2 = [pick(&gt_v2, &train_idx), test_v2.clone()].concat();
    let full_pred = [bands(&winner.predict(&train.x)), test_pred.clone()].concat();
    let full_prediction_transition = transition_matrix(&full_v2, &full_pred);
    let test_ground_truth_transition = transition_matrix(&test_v2, &pick(&gt_v3, &test_idx));
    let test_prediction_transition = transition_matrix(&test_v2, &test_pred);

    BackportOutcome {
        reports,
        chosen,
        v2_only_size: predictions.len(),
        predictions,
        backport_transition,
        ground_truth_transition,
        full_prediction_transition,
        test_ground_truth_transition,
        test_prediction_transition,
        ground_truth_size: ground.len(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nvd_synth::{generate, SynthConfig};

    fn outcome() -> (nvd_model::prelude::Database, BackportOutcome) {
        let corpus = generate(&SynthConfig::with_scale(0.02, 17));
        let out = backport_v3(&corpus.database, &BackportOptions::default());
        (corpus.database, out)
    }

    #[test]
    fn backports_every_v2_only_cve() {
        let (db, out) = outcome();
        let v2_only = db
            .iter()
            .filter(|e| e.cvss_v2.is_some() && e.cvss_v3.is_none())
            .count();
        assert_eq!(out.predictions.len(), v2_only);
        assert_eq!(out.v2_only_size, v2_only);
        for s in out.predictions.values() {
            assert!((0.0..=10.0).contains(s));
        }
    }

    #[test]
    fn model_accuracy_is_meaningful() {
        let (_, out) = outcome();
        let best = out.reports[&out.chosen].overall_accuracy;
        // The paper's best model reaches 86%; the fast profile on a small
        // corpus should still clearly beat chance (4 classes ⇒ 25%).
        assert!(best > 0.55, "best accuracy {best}");
    }

    #[test]
    fn ground_truth_transition_shape_matches_table4() {
        let (_, out) = outcome();
        let m = &out.ground_truth_transition;
        // v2 High row: no Low, meaningful Critical mass.
        assert_eq!(m.count(2, 0), 0, "H→L must be empty");
        assert!(m.row_percent(2, 3) > 20.0, "H→C {}", m.row_percent(2, 3));
        // v2 Low row: dominated by Medium.
        assert!(m.row_percent(0, 1) > 50.0, "L→M {}", m.row_percent(0, 1));
    }

    #[test]
    fn deterministic_under_seed() {
        let corpus = generate(&SynthConfig::with_scale(0.01, 4));
        let a = backport_v3(&corpus.database, &BackportOptions::default());
        let b = backport_v3(&corpus.database, &BackportOptions::default());
        assert_eq!(a.chosen, b.chosen);
        assert_eq!(a.predictions, b.predictions);
    }

    #[test]
    fn forced_model_is_respected() {
        let corpus = generate(&SynthConfig::with_scale(0.01, 4));
        let out = backport_v3(
            &corpus.database,
            &BackportOptions {
                force_model: Some(ModelKind::Lr),
                kinds: &[ModelKind::Lr],
                ..BackportOptions::default()
            },
        );
        assert_eq!(out.chosen, ModelKind::Lr);
    }
}
