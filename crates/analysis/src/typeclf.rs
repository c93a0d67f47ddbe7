//! Description-based vulnerability-type classification (§4.4).
//!
//! "Evidently, the CVE description outlines the traces of a vulnerability,
//! which can be used to determine the type of vulnerability." The paper
//! preprocesses descriptions (case folding, stop-word and special-character
//! removal, contraction expansion, tense normalisation), embeds them with
//! the Universal Sentence Encoder into 512-dimensional vectors, and trains
//! k-NN / CNN / DNN classifiers — "k-NN (k = 1) provides the best results,
//! predicting 151 different types with 65.60% accuracy", which the paper
//! deems too unreliable to deploy. This module reproduces that experiment
//! with `textkit`'s encoder substitute. It never rectifies data, so it
//! lives with the analyses rather than in the cleaning crate.

use std::collections::BTreeMap;

use mlkit::data::stratified_split_indices;
use mlkit::matrix::Matrix;
use nvd_model::cwe::CweId;
use nvd_model::prelude::{CveEntry, Database};
use textkit::encoder::{Idf, PreprocessedCorpus, SentenceEncoder};

use crate::knn::KnnClassifier;

/// Options for [`train_type_classifier`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TypeClassifierOptions {
    /// Neighbours to vote with (paper's best: 1).
    pub k: usize,
    /// Embedding dimensionality (paper: 512; ablate with 128/256).
    pub dim: usize,
    /// Held-out fraction for accuracy measurement.
    pub test_fraction: f64,
    /// RNG seed for the split.
    pub seed: u64,
    /// Cap on training samples (embedding + brute-force k-NN are O(n²)
    /// at evaluation; the cap keeps large corpora tractable).
    pub max_samples: usize,
}

impl Default for TypeClassifierOptions {
    fn default() -> Self {
        Self {
            k: 1,
            dim: 512,
            test_fraction: 0.2,
            seed: 0x7c1f,
            max_samples: 6000,
        }
    }
}

/// A trained description → CWE classifier.
#[derive(Debug, Clone)]
pub struct TypeClassifier {
    encoder: SentenceEncoder,
    knn: KnnClassifier,
    classes: Vec<CweId>,
}

impl TypeClassifier {
    /// Predicts the CWE type of a description (a one-row batch through the
    /// classifier's batched distance sweep).
    pub fn classify(&self, description: &str) -> CweId {
        self.classify_batch(&[description])[0]
    }

    /// Predicts the CWE type of every description at once: the batch is
    /// preprocessed once into a [`PreprocessedCorpus`], embeddings fan out
    /// over the `minipar` pool, and the k-NN sweep runs as one batched
    /// Gram product.
    pub fn classify_batch(&self, descriptions: &[&str]) -> Vec<CweId> {
        if descriptions.is_empty() {
            return Vec::new();
        }
        let corpus = PreprocessedCorpus::build(descriptions.iter().copied(), self.encoder.seed());
        let x = embed_corpus(&self.encoder, &corpus);
        self.knn
            .predict(&x)
            .into_iter()
            .map(|c| self.classes[c])
            .collect()
    }

    /// Number of distinct types the classifier can emit.
    pub fn class_count(&self) -> usize {
        self.classes.len()
    }
}

/// Embeds an already-preprocessed corpus into one flat `n × dim` matrix;
/// per-document scatter work shards over the `minipar` pool (pure per-item,
/// so job-count invariant).
///
/// # Panics
///
/// Panics on an empty corpus (callers guard).
fn embed_corpus(encoder: &SentenceEncoder, corpus: &PreprocessedCorpus) -> Matrix {
    assert!(!corpus.is_empty(), "non-empty batch");
    let embedded = encoder.encode_corpus(corpus);
    let dim = encoder.dim();
    let mut rows = Vec::with_capacity(corpus.len() * dim);
    for e in &embedded {
        rows.extend_from_slice(e);
    }
    Matrix::from_vec(corpus.len(), dim, rows)
}

/// Evaluation of the classifier on its held-out split.
#[derive(Debug, Clone, PartialEq)]
pub struct TypeClassifierReport {
    /// Held-out accuracy (paper: 65.60%).
    pub accuracy: f64,
    /// Distinct predicted types (paper: 151).
    pub classes: usize,
    /// Training-set size after the cap.
    pub train_size: usize,
    /// Test-set size.
    pub test_size: usize,
}

/// Trains the §4.4 classifier on every entry with a concrete CWE label and
/// measures held-out accuracy.
///
/// Returns `None` when the database has fewer than 20 typed entries.
pub fn train_type_classifier(
    db: &Database,
    options: &TypeClassifierOptions,
) -> Option<(TypeClassifier, TypeClassifierReport)> {
    let mut typed: Vec<(&CveEntry, CweId)> = db
        .iter()
        .filter_map(|e| e.effective_cwe().specific().map(|id| (e, id)))
        .collect();
    if typed.len() < 20 {
        return None;
    }
    typed.truncate(options.max_samples);

    // Class index.
    let mut class_index: BTreeMap<CweId, usize> = BTreeMap::new();
    let mut classes: Vec<CweId> = Vec::new();
    for (_, id) in &typed {
        class_index.entry(*id).or_insert_with(|| {
            classes.push(*id);
            classes.len() - 1
        });
    }
    let labels: Vec<usize> = typed.iter().map(|(_, id)| class_index[id]).collect();

    let (train_idx, test_idx) =
        stratified_split_indices(&labels, options.test_fraction, options.seed);

    // Preprocess each training description exactly once: the same
    // PreprocessedCorpus feeds the IDF fit (deterministic parallel
    // par_fold) and the design-matrix encoding. Entries without a primary
    // description embed as empty documents but are excluded from the IDF
    // document population, matching the historical fit.
    let text_of = |i: usize| typed[i].0.primary_description().unwrap_or_default();
    let train_corpus =
        PreprocessedCorpus::build(train_idx.iter().map(|&i| text_of(i)), options.seed);
    let idf_docs: Vec<usize> = train_idx
        .iter()
        .enumerate()
        .filter(|&(_, &i)| typed[i].0.primary_description().is_some())
        .map(|(doc, _)| doc)
        .collect();
    let encoder = SentenceEncoder::new(options.dim, options.seed)
        .with_idf(Idf::fit_corpus_docs(&train_corpus, &idf_docs));

    // Embeddings fan out over the pool and land in flat design matrices;
    // the held-out evaluation is one batched k-NN sweep.
    let train_x = embed_corpus(&encoder, &train_corpus);
    let train_y: Vec<usize> = train_idx.iter().map(|&i| labels[i]).collect();
    let knn = KnnClassifier::fit(train_x, train_y, options.k);

    let accuracy = if test_idx.is_empty() {
        0.0
    } else {
        let test_corpus =
            PreprocessedCorpus::build(test_idx.iter().map(|&i| text_of(i)), options.seed);
        let test_x = embed_corpus(&encoder, &test_corpus);
        let pred = knn.predict(&test_x);
        let correct = test_idx
            .iter()
            .zip(&pred)
            .filter(|(&i, &p)| p == labels[i])
            .count();
        correct as f64 / test_idx.len() as f64
    };

    let report = TypeClassifierReport {
        accuracy,
        classes: classes.len(),
        train_size: train_idx.len(),
        test_size: test_idx.len(),
    };
    Some((
        TypeClassifier {
            encoder,
            knn,
            classes,
        },
        report,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use nvd_synth::{generate, SynthConfig};

    #[test]
    fn accuracy_is_mid_band_not_perfect() {
        let corpus = generate(&SynthConfig::with_scale(0.02, 23));
        let (_, report) = train_type_classifier(
            &corpus.database,
            &TypeClassifierOptions {
                max_samples: 1500,
                ..TypeClassifierOptions::default()
            },
        )
        .expect("enough typed entries");
        // Paper: 65.60% over 151 classes. The synthetic corpus has fewer
        // classes; the defining property is "useful but unreliable".
        assert!(
            (0.35..0.95).contains(&report.accuracy),
            "accuracy {}",
            report.accuracy
        );
        assert!(report.classes > 20, "classes {}", report.classes);
    }

    #[test]
    fn classifier_identifies_obvious_sql_injection() {
        let corpus = generate(&SynthConfig::with_scale(0.02, 23));
        let (clf, _) = train_type_classifier(
            &corpus.database,
            &TypeClassifierOptions {
                max_samples: 1500,
                ..TypeClassifierOptions::default()
            },
        )
        .unwrap();
        let pred = clf.classify(
            "SQL injection vulnerability in index.php allows remote attackers to \
             execute arbitrary SQL commands via the id parameter. The issue is \
             classified as sql injection.",
        );
        assert_eq!(pred, CweId::new(89));
    }

    #[test]
    fn too_few_samples_returns_none() {
        let db = Database::new();
        assert!(train_type_classifier(&db, &TypeClassifierOptions::default()).is_none());
    }

    #[test]
    fn smaller_dim_still_works() {
        let corpus = generate(&SynthConfig::with_scale(0.01, 3));
        let r128 = train_type_classifier(
            &corpus.database,
            &TypeClassifierOptions {
                dim: 128,
                max_samples: 600,
                ..TypeClassifierOptions::default()
            },
        );
        assert!(r128.is_some());
    }
}
