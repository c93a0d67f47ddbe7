//! Dense row-major matrices and the matrix kernels the model zoo trains on.
//!
//! The three product kernels ([`Matrix::matmul`], [`Matrix::matmul_transposed`],
//! [`Matrix::transpose_matmul`]) and the broadcast helpers are the batched
//! substrate every training loop in this crate runs on. They are blocked for
//! cache reuse and sharded over the `minipar` pool, with a determinism
//! contract the whole pipeline relies on:
//!
//! * **Row-band sharding.** Output rows are split into contiguous bands and
//!   each band is computed by exactly one task. No output element is ever
//!   touched by two tasks, so there is nothing to merge and no merge order
//!   to get wrong.
//! * **Fixed accumulation order.** Every output element accumulates its
//!   reduction dimension in ascending index order, regardless of banding or
//!   thread count. Results are therefore bit-identical at every `NVD_JOBS`
//!   setting, including the inline `jobs = 1` path.
//! * **Register blocking.** [`Matrix::matmul`] and
//!   [`Matrix::transpose_matmul`] share one kernel that cuts each band into
//!   [`ROW_BLOCK`] × 8 output tiles. A tile stays in registers
//!   for its whole reduction, so the inner loop does 32 independent
//!   multiply-adds per step and never reloads or stores an output element.
//! * **Run-time dispatch.** The workspace builds for baseline x86-64, where
//!   a tile row is four 2-wide SSE2 vectors. On x86-64 the tile kernel is
//!   compiled a second time with AVX2 enabled (two 4-wide vectors per row)
//!   and picked when `is_x86_feature_detected!("avx2")` says the CPU has
//!   it. Both compilations do the same IEEE multiplies and adds in the same
//!   order, never fused into an FMA, so they agree to the bit.
//!
//! No BLAS. The crate's one `unsafe` is the call into the AVX2 compilation,
//! guarded by that detection (see `band_kernel`).

use std::fmt;
use std::ops::{Add, Mul, Sub};

/// Output rows per register tile in [`Matrix::matmul`] and
/// [`Matrix::transpose_matmul`].
pub const ROW_BLOCK: usize = 4;

/// Output columns per register tile in [`Matrix::matmul`] and
/// [`Matrix::transpose_matmul`]: two AVX2 or four SSE2 vectors per tile row.
const COL_BLOCK: usize = 8;

/// A dense, row-major `rows × cols` matrix of `f64`.
///
/// ```
/// use mlkit::matrix::Matrix;
/// let a = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
/// let b = Matrix::identity(2);
/// assert_eq!(a.matmul(&b), a);
/// ```
#[derive(Clone, PartialEq)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f64>,
}

impl fmt::Debug for Matrix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "Matrix {}x{} [", self.rows, self.cols)?;
        for r in 0..self.rows.min(8) {
            write!(f, "  [")?;
            for c in 0..self.cols.min(8) {
                write!(f, "{:>10.4}", self[(r, c)])?;
            }
            writeln!(f, "{}]", if self.cols > 8 { " …" } else { "" })?;
        }
        if self.rows > 8 {
            writeln!(f, "  …")?;
        }
        write!(f, "]")
    }
}

impl Matrix {
    /// Creates a zero matrix.
    ///
    /// # Panics
    ///
    /// Panics if either dimension is zero.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        assert!(rows > 0 && cols > 0, "matrix dimensions must be positive");
        Self {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// Creates the `n × n` identity matrix.
    pub fn identity(n: usize) -> Self {
        let mut m = Self::zeros(n, n);
        for i in 0..n {
            m[(i, i)] = 1.0;
        }
        m
    }

    /// Builds a matrix from row slices.
    ///
    /// # Panics
    ///
    /// Panics if `rows` is empty or the rows have unequal lengths.
    pub fn from_rows(rows: &[&[f64]]) -> Self {
        assert!(!rows.is_empty(), "need at least one row");
        let cols = rows[0].len();
        assert!(cols > 0, "need at least one column");
        let mut data = Vec::with_capacity(rows.len() * cols);
        for r in rows {
            assert_eq!(r.len(), cols, "ragged rows");
            data.extend_from_slice(r);
        }
        Self {
            rows: rows.len(),
            cols,
            data,
        }
    }

    /// Builds a matrix from a flat row-major vector.
    ///
    /// # Panics
    ///
    /// Panics if `data.len() != rows * cols` or a dimension is zero.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f64>) -> Self {
        assert!(rows > 0 && cols > 0, "matrix dimensions must be positive");
        assert_eq!(data.len(), rows * cols, "data length mismatch");
        Self { rows, cols, data }
    }

    /// Stacks row vectors (e.g. feature vectors) into a matrix.
    ///
    /// # Panics
    ///
    /// Panics if `vectors` is empty or lengths differ.
    pub fn from_vectors(vectors: &[Vec<f64>]) -> Self {
        let refs: Vec<&[f64]> = vectors.iter().map(Vec::as_slice).collect();
        Self::from_rows(&refs)
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Borrow of row `r` as a slice.
    ///
    /// # Panics
    ///
    /// Panics if `r` is out of bounds.
    pub fn row(&self, r: usize) -> &[f64] {
        assert!(r < self.rows, "row {r} out of bounds");
        &self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Mutable borrow of row `r`.
    ///
    /// # Panics
    ///
    /// Panics if `r` is out of bounds.
    pub fn row_mut(&mut self, r: usize) -> &mut [f64] {
        assert!(r < self.rows, "row {r} out of bounds");
        &mut self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// The underlying row-major data.
    pub fn as_slice(&self) -> &[f64] {
        &self.data
    }

    /// Mutable view of the underlying row-major data (e.g. for optimizer
    /// updates over a weight matrix).
    pub fn as_mut_slice(&mut self) -> &mut [f64] {
        &mut self.data
    }

    /// Matrix transpose.
    pub fn transpose(&self) -> Matrix {
        let mut t = Matrix::zeros(self.cols, self.rows);
        self.transpose_into(&mut t);
        t
    }

    /// [`Matrix::transpose`] into a caller-owned output (overwritten).
    ///
    /// # Panics
    ///
    /// Panics if `out` is not `self.cols() × self.rows()`.
    pub(crate) fn transpose_into(&self, out: &mut Matrix) {
        assert_eq!(
            (out.rows, out.cols),
            (self.cols, self.rows),
            "transpose output shape mismatch"
        );
        for (r, row) in self.data.chunks_exact(self.cols).enumerate() {
            for (c, &x) in row.iter().enumerate() {
                out.data[c * self.rows + r] = x;
            }
        }
    }

    /// Reinterprets the row-major data as `rows × cols` in place (no
    /// element moves), e.g. to view a `batch × (positions · channels)`
    /// activation matrix as `(batch · positions) × channels`.
    ///
    /// # Panics
    ///
    /// Panics if `rows * cols` differs from the element count or a
    /// dimension is zero.
    pub(crate) fn reshape(&mut self, rows: usize, cols: usize) {
        assert!(rows > 0 && cols > 0, "matrix dimensions must be positive");
        assert_eq!(
            rows * cols,
            self.data.len(),
            "reshape {}x{} to {rows}x{cols}",
            self.rows,
            self.cols
        );
        self.rows = rows;
        self.cols = cols;
    }

    /// Runs `f(row_index, row)` over every row, sharding contiguous row
    /// bands across the `minipar` pool.
    ///
    /// Each row is visited by exactly one task, so as long as `f` is a pure
    /// per-row function the result is bit-identical at every job count.
    /// Band boundaries only affect scheduling, never values. Assumes
    /// roughly `cols` work per row; kernels with heavier rows use
    /// [`Matrix::par_rows_mut_cost`].
    pub fn par_rows_mut(&mut self, f: impl Fn(usize, &mut [f64]) + Sync) {
        let cols = self.cols;
        self.par_rows_mut_cost(cols, f);
    }

    /// [`Matrix::par_rows_mut`] with an explicit per-row work estimate (in
    /// flop-ish units). Small workloads run inline: below
    /// [`MIN_TASK_WORK`] per would-be band, forking costs more than it
    /// saves — the threshold only changes scheduling, never values.
    pub fn par_rows_mut_cost(&mut self, work_per_row: usize, f: impl Fn(usize, &mut [f64]) + Sync) {
        let cols = self.cols;
        let rows = self.rows;
        let bands = band_count(rows, work_per_row);
        if bands <= 1 {
            for (r, row) in self.data.chunks_mut(cols).enumerate() {
                f(r, row);
            }
            return;
        }
        let band_rows = rows.div_ceil(bands);
        minipar::scope(|s| {
            for (bi, band) in self.data.chunks_mut(band_rows * cols).enumerate() {
                let f = &f;
                s.spawn(move || {
                    for (i, row) in band.chunks_mut(cols).enumerate() {
                        f(bi * band_rows + i, row);
                    }
                });
            }
        });
    }

    /// Matrix product `self · other`.
    ///
    /// Blocked and parallel: row bands shard over `minipar`, and each band
    /// is computed in register tiles. Every output element accumulates `k`
    /// in ascending order, so the result is bit-identical at any job count.
    ///
    /// # Panics
    ///
    /// Panics if `self.cols() != other.rows()`.
    pub fn matmul(&self, other: &Matrix) -> Matrix {
        let mut out = Matrix::zeros(self.rows, other.cols);
        self.matmul_into(other, &mut out);
        out
    }

    /// [`Matrix::matmul`] into a caller-owned output (overwritten), so hot
    /// loops can reuse a preallocated workspace.
    ///
    /// # Panics
    ///
    /// Panics if `self.cols() != other.rows()` or `out` is not
    /// `self.rows() × other.cols()`.
    pub fn matmul_into(&self, other: &Matrix, out: &mut Matrix) {
        assert_eq!(
            self.cols, other.rows,
            "matmul shape mismatch {}x{} · {}x{}",
            self.rows, self.cols, other.rows, other.cols
        );
        assert_eq!(
            (out.rows, out.cols),
            (self.rows, other.cols),
            "matmul output shape mismatch"
        );
        out.gemm(self.cols, (&self.data, self.cols, 1), &other.data);
    }

    /// Product with a transposed right-hand side: `self · otherᵀ`, where
    /// `other` is `n × k` row-major and `self` is `m × k`.
    ///
    /// This is the natural layout for SVR's random-feature lift, PCA
    /// projections and Gram/distance sweeps: both operands stream
    /// row-major, so every dot product is a pair of contiguous loads. Row
    /// bands shard over `minipar`; each element reduces `k` ascending from
    /// −0.0 (an `Iterator::sum`) — bit-identical at any job count. Dense
    /// layers do not use it: they keep `Wᵀ` and run the tiled
    /// [`Matrix::matmul`].
    ///
    /// # Panics
    ///
    /// Panics if `self.cols() != other.cols()`.
    pub fn matmul_transposed(&self, other: &Matrix) -> Matrix {
        let mut out = Matrix::zeros(self.rows, other.rows);
        self.matmul_transposed_into(other, &mut out);
        out
    }

    /// [`Matrix::matmul_transposed`] into a caller-owned output
    /// (overwritten).
    ///
    /// # Panics
    ///
    /// Panics if `self.cols() != other.cols()` or `out` is not
    /// `self.rows() × other.rows()`.
    pub fn matmul_transposed_into(&self, other: &Matrix, out: &mut Matrix) {
        assert_eq!(
            self.cols, other.cols,
            "matmul_transposed shape mismatch {}x{} · ({}x{})ᵀ",
            self.rows, self.cols, other.rows, other.cols
        );
        assert_eq!(
            (out.rows, out.cols),
            (self.rows, other.rows),
            "matmul_transposed output shape mismatch"
        );
        out.par_rows_mut_cost(self.cols.saturating_mul(other.rows), |r, out_row| {
            let a_row = self.row(r);
            for (c, o) in out_row.iter_mut().enumerate() {
                *o = dot(a_row, other.row(c));
            }
        });
    }

    /// Product with a transposed left-hand side: `selfᵀ · other`, where
    /// `self` is `s × m` and `other` is `s × n` (both row-major), giving
    /// `m × n`.
    ///
    /// This is the gradient-accumulation kernel (`∂L/∂W = Dᵀ · X` with both
    /// `D` and `X` batch-major). It runs on the same tiled kernel as
    /// [`Matrix::matmul`], reading `self` transposed in place. Each output
    /// element reduces the batch dimension `s` in ascending order —
    /// bit-identical at any job count, and identical to a per-sample
    /// accumulation loop.
    ///
    /// # Panics
    ///
    /// Panics if `self.rows() != other.rows()`.
    pub fn transpose_matmul(&self, other: &Matrix) -> Matrix {
        let mut out = Matrix::zeros(self.cols, other.cols);
        self.transpose_matmul_into(other, &mut out);
        out
    }

    /// [`Matrix::transpose_matmul`] into a caller-owned output
    /// (overwritten).
    ///
    /// # Panics
    ///
    /// Panics if `self.rows() != other.rows()` or `out` is not
    /// `self.cols() × other.cols()`.
    pub fn transpose_matmul_into(&self, other: &Matrix, out: &mut Matrix) {
        assert_eq!(
            self.rows, other.rows,
            "transpose_matmul shape mismatch ({}x{})ᵀ · {}x{}",
            self.rows, self.cols, other.rows, other.cols
        );
        assert_eq!(
            (out.rows, out.cols),
            (self.cols, other.cols),
            "transpose_matmul output shape mismatch"
        );
        out.gemm(self.rows, (&self.data, 1, self.cols), &other.data);
    }

    /// Adds `row` to every row of the matrix in place (bias broadcast),
    /// sharded over `minipar`.
    ///
    /// # Panics
    ///
    /// Panics if `row.len() != self.cols()`.
    pub fn add_broadcast(&mut self, row: &[f64]) {
        assert_eq!(
            row.len(),
            self.cols,
            "add_broadcast shape mismatch: {} columns vs row of {}",
            self.cols,
            row.len()
        );
        self.par_rows_mut(|_, out_row| {
            for (o, &b) in out_row.iter_mut().zip(row) {
                *o += b;
            }
        });
    }

    /// Subtracts `row` from every row of the matrix in place (e.g. mean
    /// centring), sharded over `minipar`.
    ///
    /// # Panics
    ///
    /// Panics if `row.len() != self.cols()`.
    pub fn sub_broadcast(&mut self, row: &[f64]) {
        assert_eq!(
            row.len(),
            self.cols,
            "sub_broadcast shape mismatch: {} columns vs row of {}",
            self.cols,
            row.len()
        );
        self.par_rows_mut(|_, out_row| {
            for (o, &b) in out_row.iter_mut().zip(row) {
                *o -= b;
            }
        });
    }

    /// Column sums, e.g. bias gradients over a batch. Each column reduces
    /// the rows in ascending order.
    pub fn column_sums(&self) -> Vec<f64> {
        let mut sums = vec![0.0; self.cols];
        self.column_sums_into(&mut sums);
        sums
    }

    /// [`Matrix::column_sums`] into a caller-owned slice (overwritten).
    ///
    /// # Panics
    ///
    /// Panics if `sums.len() != self.cols()`.
    pub(crate) fn column_sums_into(&self, sums: &mut [f64]) {
        assert_eq!(sums.len(), self.cols, "column_sums output length mismatch");
        sums.fill(0.0);
        for row in self.data.chunks_exact(self.cols) {
            for (s, &x) in sums.iter_mut().zip(row) {
                *s += x;
            }
        }
    }

    /// Overwrites `self` with `A · b` through [`gemm_band`], where `b` is
    /// row-major `len × self.cols()` and `A` is read through `a` as
    /// described there. Bands of whole register tiles shard over
    /// `minipar`, sized by [`band_count`].
    fn gemm(&mut self, len: usize, a: (&[f64], usize, usize), b: &[f64]) {
        let (rows, n) = (self.rows, self.cols);
        let kernel = band_kernel();
        let bands = band_count(rows, len.saturating_mul(n));
        let band_rows = rows.div_ceil(bands).div_ceil(ROW_BLOCK) * ROW_BLOCK;
        if bands <= 1 {
            kernel(&mut self.data, n, 0, len, a, b);
            return;
        }
        minipar::scope(|s| {
            for (bi, band) in self.data.chunks_mut(band_rows * n).enumerate() {
                s.spawn(move || kernel(band, n, bi * band_rows, len, a, b));
            }
        });
    }

    /// Matrix–vector product `self · v`.
    ///
    /// # Panics
    ///
    /// Panics if `v.len() != self.cols()`.
    pub fn matvec(&self, v: &[f64]) -> Vec<f64> {
        assert_eq!(v.len(), self.cols, "matvec shape mismatch");
        (0..self.rows)
            .map(|r| self.row(r).iter().zip(v).map(|(a, b)| a * b).sum())
            .collect()
    }

    /// Applies `f` to every element in place, sharding row bands over
    /// `minipar` (element-wise, so trivially job-count invariant).
    pub fn map_in_place(&mut self, f: impl Fn(f64) -> f64 + Sync) {
        self.par_rows_mut(|_, row| {
            for v in row.iter_mut() {
                *v = f(*v);
            }
        });
    }

    /// Applies `f` to every element, returning a new matrix.
    pub fn map(&self, f: impl Fn(f64) -> f64) -> Matrix {
        Matrix {
            rows: self.rows,
            cols: self.cols,
            data: self.data.iter().map(|&x| f(x)).collect(),
        }
    }

    /// Scales every element by `s`.
    pub fn scale(&self, s: f64) -> Matrix {
        self.map(|x| x * s)
    }

    /// Frobenius norm.
    pub fn frobenius_norm(&self) -> f64 {
        self.data.iter().map(|x| x * x).sum::<f64>().sqrt()
    }

    /// Column means, e.g. for centering before PCA.
    pub fn column_means(&self) -> Vec<f64> {
        let mut means = vec![0.0; self.cols];
        for r in 0..self.rows {
            for (m, &x) in means.iter_mut().zip(self.row(r)) {
                *m += x;
            }
        }
        let n = self.rows as f64;
        for m in &mut means {
            *m /= n;
        }
        means
    }

    /// Whether all elements are finite (no NaN/inf) — a guard the training
    /// loops use to fail fast on divergence.
    pub fn is_finite(&self) -> bool {
        self.data.iter().all(|x| x.is_finite())
    }
}

impl std::ops::Index<(usize, usize)> for Matrix {
    type Output = f64;

    fn index(&self, (r, c): (usize, usize)) -> &f64 {
        assert!(
            r < self.rows && c < self.cols,
            "index ({r},{c}) out of bounds"
        );
        &self.data[r * self.cols + c]
    }
}

impl std::ops::IndexMut<(usize, usize)> for Matrix {
    fn index_mut(&mut self, (r, c): (usize, usize)) -> &mut f64 {
        assert!(
            r < self.rows && c < self.cols,
            "index ({r},{c}) out of bounds"
        );
        &mut self.data[r * self.cols + c]
    }
}

impl Add for &Matrix {
    type Output = Matrix;

    fn add(self, other: &Matrix) -> Matrix {
        assert_eq!(
            (self.rows, self.cols),
            (other.rows, other.cols),
            "add shape mismatch"
        );
        Matrix {
            rows: self.rows,
            cols: self.cols,
            data: self
                .data
                .iter()
                .zip(&other.data)
                .map(|(a, b)| a + b)
                .collect(),
        }
    }
}

impl Sub for &Matrix {
    type Output = Matrix;

    fn sub(self, other: &Matrix) -> Matrix {
        assert_eq!(
            (self.rows, self.cols),
            (other.rows, other.cols),
            "sub shape mismatch"
        );
        Matrix {
            rows: self.rows,
            cols: self.cols,
            data: self
                .data
                .iter()
                .zip(&other.data)
                .map(|(a, b)| a - b)
                .collect(),
        }
    }
}

impl Mul for &Matrix {
    type Output = Matrix;

    /// Element-wise (Hadamard) product; use [`Matrix::matmul`] for the
    /// matrix product.
    fn mul(self, other: &Matrix) -> Matrix {
        assert_eq!(
            (self.rows, self.cols),
            (other.rows, other.cols),
            "hadamard shape mismatch"
        );
        Matrix {
            rows: self.rows,
            cols: self.cols,
            data: self
                .data
                .iter()
                .zip(&other.data)
                .map(|(a, b)| a * b)
                .collect(),
        }
    }
}

/// Minimum estimated work (flop-ish units) a parallel band must carry
/// before forking it onto the pool beats running it inline. Tiny kernels —
/// a 32-row minibatch through a 16-unit layer — stay inline at any job
/// count; the backport-scale sweeps fork. Purely a scheduling decision:
/// values never depend on it.
pub const MIN_TASK_WORK: usize = 1 << 16;

/// How many parallel bands to cut `rows` into for a kernel doing
/// `work_per_row` work per row: at most ~4 bands per worker for load
/// balancing, each band carrying at least [`MIN_TASK_WORK`], and 1 (run
/// inline) when the whole job is small or only one job is allowed.
pub(crate) fn band_count(rows: usize, work_per_row: usize) -> usize {
    let jobs = minipar::jobs();
    if jobs <= 1 {
        return 1;
    }
    let total = rows.saturating_mul(work_per_row.max(1));
    (total / MIN_TASK_WORK).min(jobs * 4).min(rows).max(1)
}

/// The signature of [`gemm_band`] and of its AVX2 compilation.
type BandKernel = fn(&mut [f64], usize, usize, usize, (&[f64], usize, usize), &[f64]);

/// The compilation of [`gemm_band`] this CPU runs fastest: the AVX2 one
/// when the CPU has AVX2, the baseline one otherwise. std caches the
/// feature detection, so asking once per product costs one atomic load.
#[allow(unsafe_code)]
fn band_kernel() -> BandKernel {
    #[cfg(target_arch = "x86_64")]
    {
        if std::arch::is_x86_feature_detected!("avx2") {
            return |band, n, i0, len, a, b| {
                // SAFETY: `gemm_band_avx2`'s only requirement is that the
                // CPU supports AVX2, and this closure is returned only after
                // `is_x86_feature_detected!("avx2")` confirmed it does.
                unsafe { gemm_band_avx2(band, n, i0, len, a, b) }
            };
        }
    }
    gemm_band
}

/// [`gemm_band`] compiled with AVX2 enabled. The body is the same
/// `#[inline(always)]` source, so it does the same multiplies and adds in
/// the same order; AVX2 only widens each one to four lanes.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
fn gemm_band_avx2(
    band: &mut [f64],
    n: usize,
    i0: usize,
    len: usize,
    a: (&[f64], usize, usize),
    b: &[f64],
) {
    gemm_band(band, n, i0, len, a, b);
}

/// The tiled product kernel behind [`Matrix::matmul`] and
/// [`Matrix::transpose_matmul`]. It fills `band`, the rows `i0..` of a
/// row-major output with `n` columns, with `out[i][j] = Σ_k A(i, k) ·
/// b[k][j]`. Here `b` is row-major `len × n` and `A(i, k) = a[i ·
/// row_stride + k · k_stride]`, so one kernel serves both `A` and `Aᵀ`.
///
/// The band is cut into [`ROW_BLOCK`] × [`COL_BLOCK`] tiles, each held in
/// registers across the whole reduction. Every element starts at 0.0 and
/// adds its products in ascending `k`, exactly like an unblocked loop, so
/// tiling and banding never change a bit.
#[inline(always)]
fn gemm_band(
    band: &mut [f64],
    n: usize,
    i0: usize,
    len: usize,
    (a, row_stride, k_stride): (&[f64], usize, usize),
    b: &[f64],
) {
    for (qi, quad) in band.chunks_mut(ROW_BLOCK * n).enumerate() {
        let r0 = i0 + qi * ROW_BLOCK;
        let rows = quad.len() / n;
        let a_at = |i: usize, k: usize| a[(r0 + i) * row_stride + k * k_stride];
        for j0 in (0..n).step_by(COL_BLOCK) {
            let cols = COL_BLOCK.min(n - j0);
            let tile = if rows == ROW_BLOCK && cols == COL_BLOCK {
                tile_kernel(
                    len,
                    |k| std::array::from_fn(|i| a_at(i, k)),
                    |k| b[k * n + j0..][..COL_BLOCK].try_into().expect("full tile"),
                )
            } else {
                // Edge tile: the padding lanes multiply zeros and are dropped.
                tile_kernel(
                    len,
                    |k| std::array::from_fn(|i| if i < rows { a_at(i, k) } else { 0.0 }),
                    |k| std::array::from_fn(|j| if j < cols { b[k * n + j0 + j] } else { 0.0 }),
                )
            };
            for (out_row, acc) in quad.chunks_exact_mut(n).zip(&tile) {
                out_row[j0..j0 + cols].copy_from_slice(&acc[..cols]);
            }
        }
    }
}

/// One register tile of [`gemm_band`]: `a(k)` yields the tile rows'
/// left-hand factors at reduction index `k`, and `b(k)` the tile columns'
/// right-hand factors.
#[inline(always)]
fn tile_kernel(
    len: usize,
    a: impl Fn(usize) -> [f64; ROW_BLOCK],
    b: impl Fn(usize) -> [f64; COL_BLOCK],
) -> [[f64; COL_BLOCK]; ROW_BLOCK] {
    let mut acc = [[0.0; COL_BLOCK]; ROW_BLOCK];
    for k in 0..len {
        let (a, b) = (a(k), b(k));
        for (acc_row, &a) in acc.iter_mut().zip(&a) {
            for (o, &b) in acc_row.iter_mut().zip(&b) {
                *o += a * b;
            }
        }
    }
    acc
}

/// Dot product of two equal-length slices.
///
/// # Panics
///
/// Panics if lengths differ.
pub fn dot(a: &[f64], b: &[f64]) -> f64 {
    assert_eq!(a.len(), b.len(), "dot over mismatched lengths");
    a.iter().zip(b).map(|(x, y)| x * y).sum()
}

/// Squared Euclidean distance between two equal-length slices.
///
/// # Panics
///
/// Panics if lengths differ.
pub fn squared_distance(a: &[f64], b: &[f64]) -> f64 {
    assert_eq!(a.len(), b.len(), "distance over mismatched lengths");
    a.iter().zip(b).map(|(x, y)| (x - y) * (x - y)).sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_and_indexing() {
        let m = Matrix::from_rows(&[&[1.0, 2.0, 3.0], &[4.0, 5.0, 6.0]]);
        assert_eq!(m.rows(), 2);
        assert_eq!(m.cols(), 3);
        assert_eq!(m[(0, 1)], 2.0);
        assert_eq!(m[(1, 2)], 6.0);
        assert_eq!(m.row(1), &[4.0, 5.0, 6.0]);
    }

    #[test]
    #[should_panic(expected = "ragged")]
    fn rejects_ragged_rows() {
        let _ = Matrix::from_rows(&[&[1.0, 2.0], &[3.0]]);
    }

    #[test]
    fn matmul_known_product() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
        let b = Matrix::from_rows(&[&[5.0, 6.0], &[7.0, 8.0]]);
        let c = a.matmul(&b);
        assert_eq!(c, Matrix::from_rows(&[&[19.0, 22.0], &[43.0, 50.0]]));
    }

    #[test]
    fn matmul_identity_is_noop() {
        let a = Matrix::from_rows(&[&[1.0, -2.0, 0.5], &[0.0, 3.0, 9.0]]);
        assert_eq!(a.matmul(&Matrix::identity(3)), a);
        assert_eq!(Matrix::identity(2).matmul(&a), a);
    }

    #[test]
    fn transpose_involution() {
        let a = Matrix::from_rows(&[&[1.0, 2.0, 3.0], &[4.0, 5.0, 6.0]]);
        assert_eq!(a.transpose().transpose(), a);
        assert_eq!(a.transpose()[(2, 1)], 6.0);
    }

    #[test]
    fn matvec_matches_matmul() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
        let v = vec![5.0, 6.0];
        assert_eq!(a.matvec(&v), vec![17.0, 39.0]);
    }

    #[test]
    fn elementwise_ops() {
        let a = Matrix::from_rows(&[&[1.0, 2.0]]);
        let b = Matrix::from_rows(&[&[3.0, 5.0]]);
        assert_eq!(&a + &b, Matrix::from_rows(&[&[4.0, 7.0]]));
        assert_eq!(&b - &a, Matrix::from_rows(&[&[2.0, 3.0]]));
        assert_eq!(&a * &b, Matrix::from_rows(&[&[3.0, 10.0]]));
        assert_eq!(a.scale(2.0), Matrix::from_rows(&[&[2.0, 4.0]]));
    }

    #[test]
    fn column_means_and_norm() {
        let a = Matrix::from_rows(&[&[1.0, 10.0], &[3.0, 20.0]]);
        assert_eq!(a.column_means(), vec![2.0, 15.0]);
        assert!((Matrix::identity(4).frobenius_norm() - 2.0).abs() < 1e-12);
    }

    #[test]
    fn finite_guard() {
        let mut a = Matrix::zeros(1, 2);
        assert!(a.is_finite());
        a[(0, 1)] = f64::NAN;
        assert!(!a.is_finite());
    }

    #[test]
    fn dot_and_distance() {
        assert_eq!(dot(&[1.0, 2.0, 3.0], &[4.0, 5.0, 6.0]), 32.0);
        assert_eq!(squared_distance(&[0.0, 0.0], &[3.0, 4.0]), 25.0);
    }

    /// Deterministic pseudo-random matrix (no RNG dependency needed).
    fn probe(rows: usize, cols: usize, salt: u64) -> Matrix {
        let data: Vec<f64> = (0..rows * cols)
            .map(|i| {
                let mut z = (i as u64)
                    .wrapping_add(salt)
                    .wrapping_mul(0x9E37_79B9_7F4A_7C15);
                z ^= z >> 29;
                ((z % 2000) as f64 - 1000.0) / 500.0
            })
            .collect();
        Matrix::from_vec(rows, cols, data)
    }

    /// Reference triple loop, no blocking, no parallelism.
    fn naive_matmul(a: &Matrix, b: &Matrix) -> Matrix {
        let mut out = Matrix::zeros(a.rows(), b.cols());
        for r in 0..a.rows() {
            for c in 0..b.cols() {
                let mut acc = 0.0;
                for k in 0..a.cols() {
                    acc += a[(r, k)] * b[(k, c)];
                }
                out[(r, c)] = acc;
            }
        }
        out
    }

    #[test]
    fn blocked_matmul_matches_naive_oracle_non_square() {
        // Deliberately awkward shapes: not multiples of ROW_BLOCK, not
        // square, odd reduction length.
        let a = probe(37, 23, 1);
        let b = probe(23, 41, 2);
        let blocked = a.matmul(&b);
        let oracle = naive_matmul(&a, &b);
        assert_eq!(blocked.rows(), 37);
        assert_eq!(blocked.cols(), 41);
        // Register tiles keep the naive loop's ascending-k order, edge
        // tiles included, so both tiled kernels match it to the bit.
        let bits = |m: &Matrix| m.as_slice().iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&blocked), bits(&oracle), "matmul");
        let via_transpose = a.transpose().transpose_matmul(&b);
        assert_eq!(bits(&via_transpose), bits(&oracle), "transpose_matmul");
    }

    #[test]
    fn transposed_kernels_match_explicit_transpose() {
        let a = probe(17, 9, 3);
        let b = probe(29, 9, 4);
        assert_eq!(a.matmul_transposed(&b), a.matmul(&b.transpose()));
        let c = probe(17, 11, 5);
        let tm = a.transpose_matmul(&c);
        let explicit = a.transpose().matmul(&c);
        for r in 0..tm.rows() {
            for j in 0..tm.cols() {
                assert!((tm[(r, j)] - explicit[(r, j)]).abs() < 1e-9);
            }
        }
    }

    #[test]
    fn degenerate_shapes_one_by_n_and_n_by_one() {
        // 1×N · N×1 → 1×1 dot product.
        let row = probe(1, 23, 6);
        let col = probe(23, 1, 7);
        let d = row.matmul(&col);
        assert_eq!((d.rows(), d.cols()), (1, 1));
        let expect: f64 = (0..23).map(|k| row[(0, k)] * col[(k, 0)]).sum();
        assert!((d[(0, 0)] - expect).abs() < 1e-12);
        // N×1 · 1×N → rank-1 outer product.
        let outer = col.matmul(&row);
        assert_eq!((outer.rows(), outer.cols()), (23, 23));
        assert!((outer[(4, 9)] - col[(4, 0)] * row[(0, 9)]).abs() < 1e-12);
        // Transposed kernels on single-row operands.
        assert_eq!(
            row.matmul_transposed(&row)[(0, 0)],
            dot(row.row(0), row.row(0))
        );
    }

    #[test]
    fn parallel_and_serial_products_are_bit_identical() {
        // Large enough that every kernel forks into several bands at 4 jobs.
        let a = probe(203, 61, 8);
        let b = probe(61, 47, 9);
        let bt = b.transpose();
        assert!(minipar::with_jobs(4, || band_count(203, 61 * 47)) > 1);
        assert!(minipar::with_jobs(4, || band_count(61, 203 * 61)) > 1);
        let serial = minipar::with_jobs(1, || {
            (
                a.matmul(&b),
                a.matmul_transposed(&bt),
                a.transpose_matmul(&a),
            )
        });
        let wide = minipar::with_jobs(4, || {
            (
                a.matmul(&b),
                a.matmul_transposed(&bt),
                a.transpose_matmul(&a),
            )
        });
        // PartialEq on Matrix compares every f64 exactly: bit-identity.
        assert_eq!(serial.0, wide.0, "matmul diverged across job counts");
        assert_eq!(serial.1, wide.1, "matmul_transposed diverged");
        assert_eq!(serial.2, wide.2, "transpose_matmul diverged");
    }

    /// Values for the kernel parity check: ordinary magnitudes from
    /// [`probe`], with every fourth element replaced by one of `specials`.
    fn salted(count: usize, salt: u64, specials: &[f64]) -> Vec<f64> {
        let plain = probe(1, count.max(1), salt);
        (0..count)
            .map(|i| {
                if i % 4 == (salt as usize) % 4 {
                    specials[(i / 4 + salt as usize) % specials.len()]
                } else {
                    plain.as_slice()[i]
                }
            })
            .collect()
    }

    #[test]
    fn tile_compilations_agree_bit_for_bit() {
        let portable: BandKernel = gemm_band;
        let dispatched = band_kernel();
        #[cfg(target_arch = "x86_64")]
        if !std::arch::is_x86_feature_detected!("avx2") {
            eprintln!("no AVX2 on this CPU: both sides run the portable kernel");
        }
        let tiny = 5e-324;
        let finite = [
            0.0,
            -0.0,
            tiny,
            -tiny,
            2.5e-310,
            f64::MIN_POSITIVE,
            1e300,
            -3.5,
        ];
        let special = [
            0.0,
            -0.0,
            tiny,
            f64::INFINITY,
            f64::NEG_INFINITY,
            f64::NAN,
            -2.5e-310,
        ];
        // Every small shape, edge tiles included, and the reduction lengths
        // of the §4.3 CNN's forward (3, 24, 48) and weight-gradient (160,
        // 352) products.
        let small = (1..=9)
            .flat_map(|rows| (1..=17).flat_map(move |n| (0..=5).map(move |len| (rows, n, len))));
        let cnn = [3, 24, 48, 160, 352]
            .into_iter()
            .flat_map(|len| [(4, 8, len), (9, 17, len), (32, 16, len)]);
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        for (rows, n, len) in small.chain(cnn) {
            for (vi, values) in [&finite[..], &special[..]].into_iter().enumerate() {
                let salt = (rows * 1000 + n * 10 + len) as u64 + vi as u64;
                let a = salted(rows * len, salt, values);
                let b = salted(len * n, salt + 1, values);
                // A read row-major (`matmul`) and transposed (`transpose_matmul`).
                for (row_stride, k_stride) in [(len, 1), (1, rows)] {
                    let mut want = vec![f64::NAN; rows * n];
                    let mut got = vec![f64::NAN; rows * n];
                    portable(&mut want, n, 0, len, (&a, row_stride, k_stride), &b);
                    dispatched(&mut got, n, 0, len, (&a, row_stride, k_stride), &b);
                    assert_eq!(
                        bits(&got),
                        bits(&want),
                        "{rows}x{len}x{n}, values {vi}, strides ({row_stride}, {k_stride})"
                    );
                }
            }
        }
    }

    #[test]
    fn broadcast_and_column_sums() {
        let mut m = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
        m.add_broadcast(&[10.0, 20.0]);
        assert_eq!(m, Matrix::from_rows(&[&[11.0, 22.0], &[13.0, 24.0]]));
        assert_eq!(m.column_sums(), vec![24.0, 46.0]);
        let serial = minipar::with_jobs(1, || {
            let mut x = probe(19, 7, 10);
            x.add_broadcast(&[0.5; 7]);
            x
        });
        let wide = minipar::with_jobs(4, || {
            let mut x = probe(19, 7, 10);
            x.add_broadcast(&[0.5; 7]);
            x
        });
        assert_eq!(serial, wide);
    }

    #[test]
    fn into_variants_match_allocating_kernels() {
        let a = probe(7, 5, 11);
        let mut t = Matrix::zeros(5, 7);
        a.transpose_into(&mut t);
        assert_eq!(t, a.transpose());
        let mut sums = vec![f64::NAN; 5];
        a.column_sums_into(&mut sums);
        assert_eq!(sums, a.column_sums());
        // Reshaping moves no element: a 7×5 matrix viewed as 35×1.
        let mut r = a.clone();
        r.reshape(35, 1);
        assert_eq!(r.as_slice(), a.as_slice());
        assert_eq!(r[(12, 0)], a[(2, 2)]);
    }

    #[test]
    #[should_panic(expected = "reshape 2x3 to 4x2")]
    fn reshape_rejects_element_count_change() {
        Matrix::zeros(2, 3).reshape(4, 2);
    }

    #[test]
    #[should_panic(expected = "matmul shape mismatch 2x3 · 2x2")]
    fn matmul_dimension_mismatch_names_shapes() {
        let a = Matrix::zeros(2, 3);
        let b = Matrix::zeros(2, 2);
        let _ = a.matmul(&b);
    }

    #[test]
    #[should_panic(expected = "matmul_transposed shape mismatch 2x3 · (4x2)ᵀ")]
    fn matmul_transposed_dimension_mismatch_names_shapes() {
        let a = Matrix::zeros(2, 3);
        let b = Matrix::zeros(4, 2);
        let _ = a.matmul_transposed(&b);
    }

    #[test]
    #[should_panic(expected = "transpose_matmul shape mismatch (2x3)ᵀ · 4x2")]
    fn transpose_matmul_dimension_mismatch_names_shapes() {
        let a = Matrix::zeros(2, 3);
        let b = Matrix::zeros(4, 2);
        let _ = a.transpose_matmul(&b);
    }

    #[test]
    #[should_panic(expected = "add_broadcast shape mismatch")]
    fn add_broadcast_dimension_mismatch_panics() {
        let mut a = Matrix::zeros(2, 3);
        a.add_broadcast(&[1.0, 2.0]);
    }

    #[test]
    #[should_panic(expected = "matmul output shape mismatch")]
    fn matmul_into_rejects_wrong_output_shape() {
        let a = Matrix::zeros(2, 3);
        let b = Matrix::zeros(3, 4);
        let mut out = Matrix::zeros(2, 3);
        a.matmul_into(&b, &mut out);
    }
}
