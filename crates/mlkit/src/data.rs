//! Datasets, stratified splits and feature scaling.
//!
//! The paper splits its ground truth "into 80% training and 20% testing
//! datasets evenly distributed among classes" (§4.3) — i.e. a *stratified*
//! split, implemented here by [`stratified_split_indices`].

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

use crate::matrix::Matrix;

/// A supervised dataset: one feature row per sample plus a scalar target.
#[derive(Debug, Clone, PartialEq)]
pub struct Dataset {
    /// Feature matrix, one row per sample.
    pub x: Matrix,
    /// Regression targets, `y.len() == x.rows()`.
    pub y: Vec<f64>,
}

impl Dataset {
    /// Bundles features and targets.
    ///
    /// # Panics
    ///
    /// Panics if the number of rows and targets disagree.
    pub fn new(x: Matrix, y: Vec<f64>) -> Self {
        assert_eq!(x.rows(), y.len(), "feature/target length mismatch");
        Self { x, y }
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.y.len()
    }

    /// Whether the dataset holds no samples.
    pub fn is_empty(&self) -> bool {
        self.y.is_empty()
    }
}

/// Computes a stratified train/test split: within every stratum the requested
/// test fraction is held out (rounded down, but at least one sample is kept
/// in training whenever a stratum is non-empty).
///
/// Returns `(train_indices, test_indices)`, each sorted ascending.
///
/// # Panics
///
/// Panics if `test_fraction` is outside `[0, 1)`.
pub fn stratified_split_indices(
    strata: &[usize],
    test_fraction: f64,
    seed: u64,
) -> (Vec<usize>, Vec<usize>) {
    assert!(
        (0.0..1.0).contains(&test_fraction),
        "test_fraction must be in [0, 1)"
    );
    let mut rng = StdRng::seed_from_u64(seed);
    let max_stratum = strata.iter().copied().max().unwrap_or(0);
    let mut by_stratum: Vec<Vec<usize>> = vec![Vec::new(); max_stratum + 1];
    for (i, &s) in strata.iter().enumerate() {
        by_stratum[s].push(i);
    }

    let mut train = Vec::new();
    let mut test = Vec::new();
    for members in &mut by_stratum {
        members.shuffle(&mut rng);
        let n_test = ((members.len() as f64) * test_fraction).floor() as usize;
        let n_test = n_test.min(members.len().saturating_sub(1));
        test.extend_from_slice(&members[..n_test]);
        train.extend_from_slice(&members[n_test..]);
    }
    train.sort_unstable();
    test.sort_unstable();
    (train, test)
}

/// Per-column standardisation to zero mean and unit variance.
///
/// Columns with (near-)zero variance are passed through unchanged so constant
/// features do not blow up to NaN.
#[derive(Debug, Clone, PartialEq)]
pub struct StandardScaler {
    means: Vec<f64>,
    stds: Vec<f64>,
}

impl StandardScaler {
    /// Learns column means and standard deviations from the data.
    pub fn fit(x: &Matrix) -> Self {
        let means = x.column_means();
        let mut stds = vec![0.0; x.cols()];
        if x.rows() > 0 {
            for r in 0..x.rows() {
                let row = x.row(r);
                for (c, &v) in row.iter().enumerate() {
                    let d = v - means[c];
                    stds[c] += d * d;
                }
            }
            for s in &mut stds {
                *s = (*s / x.rows() as f64).sqrt();
            }
        }
        Self { means, stds }
    }

    /// Applies the learned transform to a matrix.
    ///
    /// # Panics
    ///
    /// Panics if the column count differs from the fitted data.
    pub fn transform(&self, x: &Matrix) -> Matrix {
        assert_eq!(x.cols(), self.means.len(), "column count mismatch");
        let mut out = x.clone();
        for r in 0..out.rows() {
            let row = out.row_mut(r);
            for (c, v) in row.iter_mut().enumerate() {
                *v = self.scale_value(c, *v);
            }
        }
        out
    }

    fn scale_value(&self, col: usize, v: f64) -> f64 {
        let s = self.stds[col];
        if s > 1e-12 {
            (v - self.means[col]) / s
        } else {
            v - self.means[col]
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn toy() -> Dataset {
        let x = Matrix::from_rows(&[&[1.0, 10.0], &[2.0, 20.0], &[3.0, 30.0], &[4.0, 40.0]]);
        Dataset::new(x, vec![1.0, 2.0, 3.0, 4.0])
    }

    #[test]
    fn stratified_split_respects_fraction_per_stratum() {
        // 40 samples of class 0, 10 of class 1.
        let strata: Vec<usize> = (0..50).map(|i| usize::from(i >= 40)).collect();
        let (train, test) = stratified_split_indices(&strata, 0.2, 7);
        assert_eq!(train.len() + test.len(), 50);
        let test_c1 = test.iter().filter(|&&i| strata[i] == 1).count();
        let test_c0 = test.len() - test_c1;
        assert_eq!(test_c0, 8, "20% of 40");
        assert_eq!(test_c1, 2, "20% of 10");
    }

    #[test]
    fn stratified_split_no_overlap_and_deterministic() {
        let strata: Vec<usize> = (0..30).map(|i| i % 3).collect();
        let (tr1, te1) = stratified_split_indices(&strata, 0.25, 99);
        let (tr2, te2) = stratified_split_indices(&strata, 0.25, 99);
        assert_eq!(tr1, tr2);
        assert_eq!(te1, te2);
        for i in &te1 {
            assert!(!tr1.contains(i));
        }
    }

    #[test]
    fn singleton_stratum_stays_in_training() {
        let strata = vec![0, 0, 0, 1];
        let (train, test) = stratified_split_indices(&strata, 0.5, 1);
        assert!(train.contains(&3), "lone class-1 sample must train");
        assert_eq!(train.len() + test.len(), 4);
    }

    #[test]
    fn scaler_zero_mean_unit_variance() {
        let d = toy();
        let scaler = StandardScaler::fit(&d.x);
        let t = scaler.transform(&d.x);
        let means = t.column_means();
        for m in means {
            assert!(m.abs() < 1e-12);
        }
        // variance 1 in each column
        for c in 0..t.cols() {
            let var: f64 = (0..t.rows()).map(|r| t.row(r)[c].powi(2)).sum::<f64>() / 4.0;
            assert!((var - 1.0).abs() < 1e-9, "col {c} var {var}");
        }
    }

    #[test]
    fn scaler_constant_column_is_centred_not_nan() {
        let x = Matrix::from_rows(&[&[5.0], &[5.0], &[5.0]]);
        let scaler = StandardScaler::fit(&x);
        let t = scaler.transform(&x);
        assert!(t.is_finite());
        assert_eq!(t.row(0)[0], 0.0);
    }

    #[test]
    fn scaler_single_row_matrix_matches_full_transform() {
        let d = toy();
        let scaler = StandardScaler::fit(&d.x);
        let t = scaler.transform(&d.x);
        for r in 0..d.x.rows() {
            let one = scaler.transform(&Matrix::from_rows(&[d.x.row(r)]));
            assert_eq!(one.row(0), t.row(r));
        }
    }
}
