//! Brute-force k-nearest-neighbour classification on batched matrix
//! kernels.
//!
//! §4.4 of the paper classifies 512-d description embeddings into CWE types
//! and finds "k-NN (k = 1) provides the best results, predicting 151
//! different types with 65.60% accuracy". [`crate::typeclf`] is its only
//! user.
//!
//! The distance sweep is one Gram product per query chunk:
//! `‖q − t‖² = ‖q‖² − 2·q·t + ‖t‖²`, with `q·t` computed by the blocked
//! parallel [`Matrix::matmul_transposed`] kernel and the norms precomputed
//! once. All three terms reduce their feature dimension in ascending order
//! with the same [`dot`] kernel, so a query identical to a stored sample
//! yields a distance of exactly `0.0` and results are bit-identical at any
//! `NVD_JOBS` setting.

use mlkit::matrix::{dot, Matrix};

/// Query rows per Gram-product chunk: bounds the `chunk × train` distance
/// buffer while keeping the matmul large enough to amortise. Chunking never
/// changes values — every query row is independent.
const QUERY_CHUNK: usize = 256;

/// A k-NN classifier over dense feature rows with `usize` class labels.
///
/// Prediction is majority vote among the k nearest training samples by
/// Euclidean distance; ties break towards the nearer neighbour (and then the
/// smaller label, for full determinism).
#[derive(Debug, Clone, PartialEq)]
pub struct KnnClassifier {
    k: usize,
    x: Matrix,
    /// Precomputed `‖t‖²` per training row.
    norms: Vec<f64>,
    labels: Vec<usize>,
}

impl KnnClassifier {
    /// Stores the training set and precomputes its row norms.
    ///
    /// # Panics
    ///
    /// Panics if `k == 0`, the dataset is empty, or lengths mismatch.
    pub fn fit(x: Matrix, labels: Vec<usize>, k: usize) -> Self {
        assert!(k > 0, "k must be positive");
        assert!(x.rows() > 0, "empty training set");
        assert_eq!(x.rows(), labels.len(), "feature/label length mismatch");
        let norms = (0..x.rows()).map(|i| dot(x.row(i), x.row(i))).collect();
        Self {
            k,
            x,
            norms,
            labels,
        }
    }

    /// The `k` this classifier votes with.
    pub fn k(&self) -> usize {
        self.k
    }

    /// Number of stored training samples.
    pub fn len(&self) -> usize {
        self.labels.len()
    }

    /// Whether the training set is empty (never true after `fit`).
    pub fn is_empty(&self) -> bool {
        self.labels.is_empty()
    }

    /// For every query row: indices and squared distances of the k nearest
    /// training samples, ordered by increasing distance (then index).
    ///
    /// # Panics
    ///
    /// Panics if `queries.cols()` differs from the training width.
    pub fn kneighbors(&self, queries: &Matrix) -> Vec<Vec<(usize, f64)>> {
        assert_eq!(
            queries.cols(),
            self.x.cols(),
            "query width mismatch: {} vs trained {}",
            queries.cols(),
            self.x.cols()
        );
        let k = self.k.min(self.x.rows());
        let mut out = Vec::with_capacity(queries.rows());
        let mut start = 0;
        while start < queries.rows() {
            let len = QUERY_CHUNK.min(queries.rows() - start);
            // One flat chunk × train Gram product on the blocked kernels.
            let chunk = Matrix::from_vec(
                len,
                queries.cols(),
                queries.as_slice()[start * queries.cols()..(start + len) * queries.cols()].to_vec(),
            );
            let mut gram = chunk.matmul_transposed(&self.x);
            // In place: gram[r][i] ← ‖q_r‖² − 2·q_r·t_i + ‖t_i‖², clamped
            // at zero against negative rounding residue.
            let norms = &self.norms;
            gram.par_rows_mut(|r, row| {
                let qn = dot(chunk.row(r), chunk.row(r));
                for (d, &tn) in row.iter_mut().zip(norms) {
                    *d = (qn - 2.0 * *d + tn).max(0.0);
                }
            });
            for r in 0..len {
                let mut dists: Vec<(usize, f64)> = gram
                    .row(r)
                    .iter()
                    .enumerate()
                    .map(|(i, &d)| (i, d))
                    .collect();
                dists.sort_by(|a, b| a.1.partial_cmp(&b.1).unwrap().then(a.0.cmp(&b.0)));
                dists.truncate(k);
                out.push(dists);
            }
            start += len;
        }
        out
    }

    /// Predicts the class of every query row by majority vote.
    pub fn predict(&self, queries: &Matrix) -> Vec<usize> {
        self.kneighbors(queries)
            .into_iter()
            .map(|neigh| {
                // Majority vote; first (nearest) occurrence wins ties.
                let mut votes: Vec<(usize, usize, usize)> = Vec::new(); // (label, count, first_rank)
                for (rank, (idx, _)) in neigh.iter().enumerate() {
                    let label = self.labels[*idx];
                    match votes.iter_mut().find(|(l, _, _)| *l == label) {
                        Some((_, c, _)) => *c += 1,
                        None => votes.push((label, 1, rank)),
                    }
                }
                votes
                    .into_iter()
                    .max_by(|a, b| a.1.cmp(&b.1).then(b.2.cmp(&a.2)).then(b.0.cmp(&a.0)))
                    .map(|(l, _, _)| l)
                    .expect("non-empty neighbours")
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn clusters() -> (Matrix, Vec<usize>) {
        // Two clusters around (0,0) and (10,10).
        let x = Matrix::from_rows(&[
            &[0.0, 0.1],
            &[0.2, -0.1],
            &[-0.1, 0.0],
            &[10.0, 10.1],
            &[9.9, 9.8],
            &[10.2, 10.0],
        ]);
        (x, vec![0, 0, 0, 1, 1, 1])
    }

    #[test]
    fn one_nn_returns_nearest_label() {
        let (x, labels) = clusters();
        let knn = KnnClassifier::fit(x, labels, 1);
        let q = Matrix::from_rows(&[&[0.05, 0.05], &[9.0, 9.0]]);
        assert_eq!(knn.predict(&q), vec![0, 1]);
    }

    #[test]
    fn majority_vote_with_k3() {
        let (x, labels) = clusters();
        let knn = KnnClassifier::fit(x, labels, 3);
        let q = Matrix::from_rows(&[&[1.0, 1.0], &[8.0, 8.0]]);
        assert_eq!(knn.predict(&q), vec![0, 1]);
    }

    #[test]
    fn tie_breaks_towards_nearest() {
        // k=2 with one vote each: nearest neighbour should win.
        let x = Matrix::from_rows(&[&[0.0], &[1.0]]);
        let knn = KnnClassifier::fit(x, vec![7, 3], 2);
        let q = Matrix::from_rows(&[&[0.1], &[0.9]]);
        assert_eq!(knn.predict(&q), vec![7, 3]);
    }

    #[test]
    fn k_larger_than_dataset_is_clamped() {
        let x = Matrix::from_rows(&[&[0.0], &[1.0]]);
        let knn = KnnClassifier::fit(x, vec![0, 1], 10);
        assert_eq!(knn.kneighbors(&Matrix::from_rows(&[&[0.4]]))[0].len(), 2);
    }

    #[test]
    fn kneighbors_sorted_by_distance() {
        let (x, labels) = clusters();
        let knn = KnnClassifier::fit(x, labels, 6);
        let n = &knn.kneighbors(&Matrix::from_rows(&[&[0.0, 0.0]]))[0];
        for w in n.windows(2) {
            assert!(w[0].1 <= w[1].1);
        }
    }

    #[test]
    fn exact_training_point_is_own_neighbour() {
        // The ‖q‖² − 2·q·t + ‖t‖² identity must still yield an *exact* zero
        // for q == t: all three reductions share the same kernel and order,
        // so the cancellation is exact in floating point.
        let (x, labels) = clusters();
        let probe = Matrix::from_rows(&[x.row(3)]);
        let knn = KnnClassifier::fit(x, labels, 1);
        let n = &knn.kneighbors(&probe)[0];
        assert_eq!(n[0].0, 3);
        assert_eq!(n[0].1, 0.0);
    }

    #[test]
    fn sweep_is_job_count_invariant() {
        let (x, labels) = clusters();
        let knn = KnnClassifier::fit(x, labels, 3);
        let q = Matrix::from_rows(&[&[0.3, 0.2], &[5.0, 5.0], &[9.7, 10.3]]);
        let serial = minipar::with_jobs(1, || knn.kneighbors(&q));
        let wide = minipar::with_jobs(4, || knn.kneighbors(&q));
        assert_eq!(serial, wide, "distance sweep diverged across job counts");
    }
}
