//! # mlkit
//!
//! The machine-learning substrate for the `nvd-clean` workspace — the Rust
//! reproduction of *"Cleaning the NVD"* (Anwar et al., DSN 2021).
//!
//! The paper's §4.3 backports CVSS v3 severity with a zoo of models (linear
//! regression, RBF support-vector regression, a CNN and a DNN trained with
//! Adam on an MSE loss), evaluates them with average error / average error
//! rate / per-class accuracy, and visualises the feature space with PCA
//! (Fig. 5). None of that tooling exists offline, so this crate provides it
//! from scratch:
//!
//! * [`matrix`] — dense row-major matrices plus the blocked,
//!   `minipar`-sharded batched kernels (`matmul`, `matmul_transposed`,
//!   `transpose_matmul`, broadcasts) every model trains on — bit-identical
//!   output at any `NVD_JOBS` setting. The 4 × 8 register-tiled GEMM behind
//!   `matmul` and `transpose_matmul` also runs as an AVX2 compilation when
//!   the CPU has it, with the same bits; that call is the crate's one
//!   `unsafe` block, hence `deny` rather than `forbid(unsafe_code)`;
//! * [`linalg`] — Cholesky solves and Jacobi symmetric eigendecomposition;
//! * [`data`] — datasets, stratified train/test splits, standard scaling;
//! * [`metrics`] — AE, AER, accuracy, confusion matrices (paper Tables 5, 7);
//! * [`linear`] — ridge linear regression via normal equations;
//! * [`svr`] — ε-insensitive SVR with an RBF kernel approximated by random
//!   Fourier features;
//! * [`nn`] — sequential neural networks (Dense / Conv1D, ReLU / Sigmoid,
//!   Adam, MSE) matching the paper's two architectures; both layer kinds
//!   run forward on the tiled `matmul` against transposed weights;
//! * [`pca`] — principal component analysis (paper Fig. 5).
//!
//! Everything is deterministic under a caller-supplied seed, and every
//! model exposes **batched** entry points only — training and prediction
//! take whole matrices, never one sample at a time.
//!
//! ## Example
//!
//! ```
//! use mlkit::linear::RidgeRegression;
//! use mlkit::matrix::Matrix;
//!
//! // y = 2x + 1, recovered from four noiseless points.
//! let x = Matrix::from_rows(&[&[0.0], &[1.0], &[2.0], &[3.0]]);
//! let y = [1.0, 3.0, 5.0, 7.0];
//! let model = RidgeRegression::fit(&x, &y, 1e-9)?;
//! let probes = Matrix::from_rows(&[&[4.0], &[10.0]]);
//! let pred = model.predict(&probes);
//! assert!((pred[0] - 9.0).abs() < 1e-6);
//! assert!((pred[1] - 21.0).abs() < 1e-6);
//! # Ok::<(), mlkit::linalg::LinalgError>(())
//! ```

#![deny(unsafe_code)]
#![warn(missing_docs, missing_debug_implementations)]

pub mod data;
pub mod linalg;
pub mod linear;
pub mod matrix;
pub mod metrics;
pub mod nn;
pub mod pca;
pub mod svr;

pub use data::{Dataset, StandardScaler};
pub use linear::RidgeRegression;
pub use matrix::Matrix;
pub use metrics::{accuracy, average_error, average_error_rate, ConfusionMatrix};
pub use nn::{Activation, Network, NetworkBuilder, TrainConfig};
pub use pca::Pca;
pub use svr::{Svr, SvrConfig};
