//! Sequential neural networks: Dense / Conv1D layers, Adam, MSE — in
//! **batched matrix form**.
//!
//! §4.3 of the paper trains two deep models to backport CVSS v3 scores:
//!
//! * a **CNN** of "four consecutive convolutional layers. The first two
//!   layers consist of 64 filters and the remaining layers consist of 128
//!   filters with a filter size of 3×3", followed by flattening, a
//!   512-neuron fully connected layer, and a single sigmoid output;
//! * a **DNN** of "four fully connected layers with size of 128, 128, 256,
//!   and 256", followed by a single sigmoid output.
//!
//! Both are "trained … over 100 epochs using mean squared error loss … and
//! Adam optimizer with a learning rate of 0.001". The feature vector is
//! one-dimensional, so the 3×3 convolution degenerates to a kernel-3 Conv1D.
//!
//! Training works on whole minibatches at once, and every layer is one GEMM
//! on the blocked, `minipar`-sharded kernels of [`crate::matrix`]:
//!
//! * a **dense** layer's forward pass is one `X · Wᵀ` product plus a bias
//!   broadcast. It runs on the tiled [`Matrix::matmul`] kernel against a
//!   transposed copy of `W` that the workspace refreshes every pass. The
//!   tile starts each sum at 0.0 where a `dot` starts at −0.0; the two
//!   differ only on a sum of −0.0 products, and adding the bias (never −0.0:
//!   it starts at 0.0, and Adam's `b − u` cannot reach −0.0 from 0.0) maps
//!   both to the same value. The backward pass is one `Dᵀ · X`
//!   [`Matrix::transpose_matmul`] for the weight gradient and one `D · W`
//!   [`Matrix::matmul`] for the input gradient;
//! * a **convolution** is the same GEMM over im2col windows. Activations
//!   are stored position-major (a sample's row is position 0's channels,
//!   then position 1's, …), so the window at output position `p` is one
//!   contiguous slice of the input row. The forward pass gathers the
//!   batch's windows into a `(batch · l_out) × (kernel · c_in)` matrix and
//!   multiplies it by the filter bank, which yields the position-major
//!   output directly. The backward pass views δ as
//!   `(batch · l_out) × filters`: its column sums are the bias gradient,
//!   `δᵀ · windows` the weight gradient, and `δ · W` the window gradients
//!   that col2im folds back onto the input.
//!
//! The first layer's input gradient is never computed: nothing reads it.
//!
//! Activations, deltas, transposed weights and im2col buffers live in
//! preallocated [`Matrix`] workspaces, one per batch length, reused across
//! every batch of an epoch and every chunk of a prediction. Weight-gradient
//! reductions accumulate samples, then positions, in ascending order, so
//! training is deterministic under a seed and bit-identical at any
//! `NVD_JOBS` setting.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::matrix::Matrix;

/// Element-wise activation functions.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Activation {
    /// Identity.
    Linear,
    /// Rectified linear unit, `max(0, x)`.
    Relu,
    /// Logistic sigmoid, `1 / (1 + e^-x)` — the paper's output activation.
    Sigmoid,
}

impl Activation {
    fn apply(self, x: f64) -> f64 {
        match self {
            Activation::Linear => x,
            Activation::Relu => x.max(0.0),
            Activation::Sigmoid => 1.0 / (1.0 + (-x).exp()),
        }
    }

    /// Derivative expressed in terms of the *output* value.
    fn derivative_from_output(self, out: f64) -> f64 {
        match self {
            Activation::Linear => 1.0,
            Activation::Relu => {
                if out > 0.0 {
                    1.0
                } else {
                    0.0
                }
            }
            Activation::Sigmoid => out * (1.0 - out),
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum LayerKind {
    Dense { units: usize },
    Conv1d { filters: usize, kernel: usize },
}

/// One layer: parameters plus fixed input/output shapes `(channels, len)`.
///
/// Activations are stored **position-major**: a sample's row holds
/// position 0's channels, then position 1's, and so on (a dense layer's
/// output is one position of `units` channels). Weights are a [`Matrix`]:
/// `units × fan_in` for dense layers, and `filters × (kernel · c_in)` for
/// convolutions, where row `f` holds filter `f`'s taps in the same
/// position-major order as one input window. Either way the batched forward
/// pass multiplies by `Wᵀ`.
#[derive(Debug, Clone, PartialEq)]
struct Layer {
    kind: LayerKind,
    activation: Activation,
    in_shape: (usize, usize),
    out_shape: (usize, usize),
    weights: Matrix,
    biases: Vec<f64>,
}

/// A convolution's im2col buffers for one batch length.
#[derive(Debug)]
struct Im2col {
    /// `(batch · l_out) × (kernel · c_in)`: row `s · l_out + p` is sample
    /// `s`'s input window at output position `p`.
    cols: Matrix,
    /// ∂L/∂`cols`, folded back onto the input by col2im (only when the
    /// layer's input gradient is computed).
    col_grads: Option<Matrix>,
}

impl Layer {
    fn dense(in_shape: (usize, usize), units: usize, activation: Activation) -> Self {
        let fan_in = in_shape.0 * in_shape.1;
        Self {
            kind: LayerKind::Dense { units },
            activation,
            in_shape,
            out_shape: (1, units),
            weights: Matrix::zeros(units, fan_in),
            biases: vec![0.0; units],
        }
    }

    fn conv1d(
        in_shape: (usize, usize),
        filters: usize,
        kernel: usize,
        activation: Activation,
    ) -> Self {
        let (c, l) = in_shape;
        assert!(
            l >= kernel,
            "conv1d kernel {kernel} longer than input length {l}"
        );
        Self {
            kind: LayerKind::Conv1d { filters, kernel },
            activation,
            in_shape,
            out_shape: (filters, l - kernel + 1),
            weights: Matrix::zeros(filters, kernel * c),
            biases: vec![0.0; filters],
        }
    }

    fn init(&mut self, rng: &mut StdRng) {
        let (fan_in, fan_out) = match self.kind {
            LayerKind::Dense { units } => (self.in_shape.0 * self.in_shape.1, units),
            LayerKind::Conv1d { filters, kernel } => (self.in_shape.0 * kernel, filters * kernel),
        };
        let limit = (6.0 / (fan_in + fan_out) as f64).sqrt();
        for w in self.weights.as_mut_slice() {
            *w = rng.gen_range(-limit..limit);
        }
        // Biases start at zero.
    }

    fn out_size(&self) -> usize {
        self.out_shape.0 * self.out_shape.1
    }

    /// The im2col buffers this layer needs at a batch length (`None` for
    /// dense layers, whose input already is their GEMM operand);
    /// `input_grad` says whether backward passes compute ∂L/∂input.
    fn im2col_buffers(&self, batch: usize, input_grad: bool) -> Option<Im2col> {
        let LayerKind::Conv1d { kernel, .. } = self.kind else {
            return None;
        };
        let rows = batch * self.out_shape.1;
        let width = kernel * self.in_shape.0;
        Some(Im2col {
            cols: Matrix::zeros(rows, width),
            col_grads: input_grad.then(|| Matrix::zeros(rows, width)),
        })
    }

    /// Forward pass over a whole minibatch: `input` is `batch × in_size`,
    /// `output` (overwritten) is `batch × out_size`.
    ///
    /// Both layer kinds are one GEMM by `weights_t`, which this pass
    /// overwrites with `Wᵀ`, plus a bias broadcast and the activation. A
    /// convolution first gathers every window of the batch into `cols`, so
    /// its GEMM yields the `(batch · l_out) × filters` position-major output
    /// directly.
    fn forward_batch(
        &self,
        input: &Matrix,
        output: &mut Matrix,
        weights_t: &mut Matrix,
        im2col: Option<&mut Im2col>,
    ) {
        let batch = input.rows();
        self.weights.transpose_into(weights_t);
        let gemm_input = match im2col {
            None => input,
            Some(buf) => {
                self.im2col(input, &mut buf.cols);
                output.reshape(buf.cols.rows(), self.weights.rows());
                &buf.cols
            }
        };
        gemm_input.matmul_into(weights_t, output);
        output.add_broadcast(&self.biases);
        let act = self.activation;
        output.map_in_place(|x| act.apply(x));
        output.reshape(batch, self.out_size());
    }

    /// Gathers every sample's input windows: row `s · l_out + p` of `cols`
    /// is sample `s`'s positions `p..p + kernel`, one contiguous slice of
    /// its position-major input row.
    fn im2col(&self, input: &Matrix, cols: &mut Matrix) {
        let c_in = self.in_shape.0;
        let l_out = self.out_shape.1;
        let width = cols.cols();
        cols.par_rows_mut(|r, window| {
            window.copy_from_slice(&input.row(r / l_out)[r % l_out * c_in..][..width]);
        });
    }

    /// The adjoint of [`Layer::im2col`]: every input element sums the
    /// window gradients that cover it, in ascending position order.
    fn col2im(&self, col_grads: &Matrix, grad_in: &mut Matrix) {
        let c_in = self.in_shape.0;
        let l_out = self.out_shape.1;
        let width = col_grads.cols();
        grad_in.par_rows_mut_cost(l_out * width, |s, gi_row| {
            gi_row.fill(0.0);
            for p in 0..l_out {
                let window = &mut gi_row[p * c_in..][..width];
                for (g, &d) in window.iter_mut().zip(col_grads.row(s * l_out + p)) {
                    *g += d;
                }
            }
        });
    }

    /// Backpropagates a whole minibatch.
    ///
    /// On entry `delta` holds ∂L/∂(activated output); this routine folds the
    /// activation derivative in place, then overwrites `grad_w`/`grad_b`
    /// with the batch-summed parameter gradients and `grad_in`, when given,
    /// with ∂L/∂input. Viewing δ as `(batch · positions) × units`, the bias
    /// gradient is its column sums, the weight gradient one
    /// `δᵀ · X` [`Matrix::transpose_matmul`] (`X` = the input, or a
    /// convolution's `cols`), and the input gradient one `δ · W`
    /// [`Matrix::matmul`] (col2im-folded for a convolution). Every
    /// reduction runs over samples, then positions, in ascending order,
    /// keeping the float stream independent of the job count.
    #[allow(clippy::too_many_arguments)]
    fn backward_batch(
        &self,
        input: &Matrix,
        output: &Matrix,
        delta: &mut Matrix,
        grad_in: Option<&mut Matrix>,
        grad_w: &mut Matrix,
        grad_b: &mut [f64],
        im2col: Option<&mut Im2col>,
    ) {
        // δ ← δ ⊙ act'(out), elementwise per row.
        let act = self.activation;
        delta.par_rows_mut(|s, d_row| {
            for (d, &o) in d_row.iter_mut().zip(output.row(s)) {
                *d *= act.derivative_from_output(o);
            }
        });
        let batch = delta.rows();
        let units = self.weights.rows();
        delta.reshape(batch * self.out_size() / units, units);
        delta.column_sums_into(grad_b);
        match im2col {
            None => {
                delta.transpose_matmul_into(input, grad_w);
                if let Some(grad_in) = grad_in {
                    delta.matmul_into(&self.weights, grad_in);
                }
            }
            Some(buf) => {
                delta.transpose_matmul_into(&buf.cols, grad_w);
                if let Some(grad_in) = grad_in {
                    let col_grads = buf
                        .col_grads
                        .as_mut()
                        .expect("input-gradient im2col buffers");
                    delta.matmul_into(&self.weights, col_grads);
                    self.col2im(col_grads, grad_in);
                }
            }
        }
        delta.reshape(batch, self.out_size());
    }
}

/// Builder for [`Network`]; shapes are checked as layers are appended.
#[derive(Debug, Clone)]
pub struct NetworkBuilder {
    input: (usize, usize),
    layers: Vec<Layer>,
}

impl NetworkBuilder {
    /// Starts a network over a 1-D input of the given length (one channel).
    pub fn input_1d(len: usize) -> Self {
        assert!(len > 0, "input length must be positive");
        Self {
            input: (1, len),
            layers: Vec::new(),
        }
    }

    fn current_shape(&self) -> (usize, usize) {
        self.layers
            .last()
            .map(|l| l.out_shape)
            .unwrap_or(self.input)
    }

    /// Appends a 1-D convolution (`filters` output channels, width `kernel`).
    ///
    /// # Panics
    ///
    /// Panics if the kernel is longer than the current feature length.
    pub fn conv1d(mut self, filters: usize, kernel: usize, activation: Activation) -> Self {
        let shape = self.current_shape();
        self.layers
            .push(Layer::conv1d(shape, filters, kernel, activation));
        self
    }

    /// Appends a fully connected layer (flattens its input implicitly).
    pub fn dense(mut self, units: usize, activation: Activation) -> Self {
        let shape = self.current_shape();
        self.layers.push(Layer::dense(shape, units, activation));
        self
    }

    /// Initialises all weights (Glorot uniform) and returns the network.
    ///
    /// # Panics
    ///
    /// Panics if no layers were added.
    pub fn build(self, seed: u64) -> Network {
        assert!(!self.layers.is_empty(), "network has no layers");
        let mut rng = StdRng::seed_from_u64(seed);
        let mut layers = self.layers;
        for l in &mut layers {
            l.init(&mut rng);
        }
        Network {
            input: self.input,
            layers,
        }
    }
}

/// Training hyper-parameters (paper: Adam, lr 0.001, MSE, 100 epochs).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TrainConfig {
    /// Number of passes over the training set.
    pub epochs: usize,
    /// Minibatch size.
    pub batch_size: usize,
    /// Adam step size.
    pub learning_rate: f64,
    /// Adam first-moment decay.
    pub beta1: f64,
    /// Adam second-moment decay.
    pub beta2: f64,
    /// Adam numerical-stability constant.
    pub epsilon: f64,
    /// Seed for shuffling.
    pub seed: u64,
}

impl Default for TrainConfig {
    fn default() -> Self {
        Self {
            epochs: 100,
            batch_size: 32,
            learning_rate: 0.001,
            beta1: 0.9,
            beta2: 0.999,
            epsilon: 1e-8,
            seed: 0xadab,
        }
    }
}

/// Adam state for one parameter vector.
#[derive(Debug, Clone, Default)]
struct AdamState {
    m: Vec<f64>,
    v: Vec<f64>,
}

impl AdamState {
    fn sized(n: usize) -> Self {
        Self {
            m: vec![0.0; n],
            v: vec![0.0; n],
        }
    }

    /// One Adam step; `(bc1, bc2)` are the step's bias corrections
    /// `1 − β₁ᵗ` and `1 − β₂ᵗ`, shared by every parameter vector.
    fn update(
        &mut self,
        params: &mut [f64],
        grads: &[f64],
        cfg: &TrainConfig,
        (bc1, bc2): (f64, f64),
    ) {
        for i in 0..params.len() {
            let g = grads[i];
            self.m[i] = cfg.beta1 * self.m[i] + (1.0 - cfg.beta1) * g;
            self.v[i] = cfg.beta2 * self.v[i] + (1.0 - cfg.beta2) * g * g;
            let m_hat = self.m[i] / bc1;
            let v_hat = self.v[i] / bc2;
            params[i] -= cfg.learning_rate * m_hat / (v_hat.sqrt() + cfg.epsilon);
        }
    }
}

/// Preallocated per-batch matrices: `acts[0]` is the gathered input batch,
/// `acts[i + 1]` the activations of layer `i`, `weights_t[i]` layer `i`'s
/// weights transposed (`fan_in × units`, refreshed by every forward pass)
/// and `im2col[i]` layer `i`'s convolution buffers. A training workspace
/// also holds `deltas`, which mirrors `acts` (`deltas[i + 1]` holds
/// ∂L/∂(activated output of layer `i`); `deltas[0]` is never written,
/// because the network's input gradient is not computed), and the window
/// gradients of every convolution but the first. One workspace exists per
/// distinct batch length — at most two per fit or prediction (full batches
/// plus the tail) — so no training step or prediction chunk allocates.
#[derive(Debug)]
struct Workspace {
    acts: Vec<Matrix>,
    deltas: Vec<Matrix>,
    weights_t: Vec<Matrix>,
    im2col: Vec<Option<Im2col>>,
}

impl Workspace {
    fn new(layers: &[Layer], input_len: usize, batch: usize, training: bool) -> Self {
        let mut sizes = vec![input_len];
        sizes.extend(layers.iter().map(Layer::out_size));
        let matrices = || sizes.iter().map(|&s| Matrix::zeros(batch, s)).collect();
        Self {
            acts: matrices(),
            deltas: if training { matrices() } else { Vec::new() },
            weights_t: layers
                .iter()
                .map(|l| Matrix::zeros(l.weights.cols(), l.weights.rows()))
                .collect(),
            im2col: layers
                .iter()
                .enumerate()
                .map(|(li, l)| l.im2col_buffers(batch, training && li > 0))
                .collect(),
        }
    }

    /// Runs every layer forward over the batch in `acts[0]`.
    fn forward(&mut self, layers: &[Layer]) {
        for (li, layer) in layers.iter().enumerate() {
            let (head, tail) = self.acts.split_at_mut(li + 1);
            layer.forward_batch(
                &head[li],
                &mut tail[0],
                &mut self.weights_t[li],
                self.im2col[li].as_mut(),
            );
        }
    }

    /// Backpropagates the output delta in `deltas[layers.len()]` through
    /// every layer, overwriting the per-layer parameter gradients. Layer 0's
    /// input gradient is skipped: nothing reads it.
    fn backward(&mut self, layers: &[Layer], grad_w: &mut [Matrix], grad_b: &mut [Vec<f64>]) {
        for li in (0..layers.len()).rev() {
            let (d_head, d_tail) = self.deltas.split_at_mut(li + 1);
            layers[li].backward_batch(
                &self.acts[li],
                &self.acts[li + 1],
                &mut d_tail[0],
                (li > 0).then(|| &mut d_head[li]),
                &mut grad_w[li],
                &mut grad_b[li],
                self.im2col[li].as_mut(),
            );
        }
    }
}

/// A feed-forward network of [`NetworkBuilder`]-assembled layers.
#[derive(Debug, Clone, PartialEq)]
pub struct Network {
    input: (usize, usize),
    layers: Vec<Layer>,
}

/// Rows per inference chunk in [`Network::forward`] — bounds workspace
/// memory when predicting over very large populations (the ≈74K-CVE
/// backport sweep) while keeping each chunk large enough for the matrix
/// kernels to amortise (a convolution's GEMM sees `l_out` rows per sample).
const PREDICT_CHUNK: usize = 128;

impl Network {
    /// Expected input feature count.
    pub fn input_len(&self) -> usize {
        self.input.0 * self.input.1
    }

    /// Output dimension of the final layer.
    pub fn output_len(&self) -> usize {
        self.layers.last().map(Layer::out_size).unwrap_or(0)
    }

    /// Total trainable parameter count.
    pub fn num_parameters(&self) -> usize {
        self.layers
            .iter()
            .map(|l| l.weights.as_slice().len() + l.biases.len())
            .sum()
    }

    /// Runs the batched forward pass over every row of `x`, returning the
    /// `x.rows() × output_len()` activation matrix. Large inputs are
    /// processed in `PREDICT_CHUNK`-row chunks so workspace memory stays
    /// bounded; chunking never changes values (rows are independent).
    ///
    /// # Panics
    ///
    /// Panics if `x.cols() != input_len()`.
    pub fn forward(&self, x: &Matrix) -> Matrix {
        assert_eq!(x.cols(), self.input_len(), "input width mismatch");
        let mut out = Matrix::zeros(x.rows(), self.output_len());
        let full = PREDICT_CHUNK.min(x.rows());
        let mut ws = Workspace::new(&self.layers, self.input_len(), full, false);
        for start in (0..x.rows()).step_by(full) {
            let len = full.min(x.rows() - start);
            if len < full {
                // The shorter tail is the last chunk: free the full-size
                // buffers before sizing its own.
                drop(ws);
                ws = Workspace::new(&self.layers, self.input_len(), len, false);
            }
            for bi in 0..len {
                ws.acts[0].row_mut(bi).copy_from_slice(x.row(start + bi));
            }
            ws.forward(&self.layers);
            for bi in 0..len {
                out.row_mut(start + bi)
                    .copy_from_slice(ws.acts[self.layers.len()].row(bi));
            }
        }
        out
    }

    /// Predicts the scalar output (first output unit) for every row of a
    /// matrix.
    pub fn predict(&self, x: &Matrix) -> Vec<f64> {
        let out = self.forward(x);
        (0..out.rows()).map(|r| out.row(r)[0]).collect()
    }

    /// Trains with minibatch Adam on the MSE loss; returns per-epoch mean
    /// training loss.
    ///
    /// Targets are rows of `y` (use a 1-column matrix for scalar
    /// regression).
    ///
    /// # Panics
    ///
    /// Panics if shapes disagree with the network or the dataset is empty.
    pub fn fit(&mut self, x: &Matrix, y: &Matrix, cfg: &TrainConfig) -> Vec<f64> {
        assert_eq!(x.rows(), y.rows(), "sample count mismatch");
        assert!(x.rows() > 0, "empty dataset");
        assert_eq!(x.cols(), self.input_len(), "input width mismatch");
        assert_eq!(y.cols(), self.output_len(), "output width mismatch");

        let mut rng = StdRng::seed_from_u64(cfg.seed);
        let n = x.rows();
        let n_layers = self.layers.len();

        let mut adam_w: Vec<AdamState> = self
            .layers
            .iter()
            .map(|l| AdamState::sized(l.weights.as_slice().len()))
            .collect();
        let mut adam_b: Vec<AdamState> = self
            .layers
            .iter()
            .map(|l| AdamState::sized(l.biases.len()))
            .collect();

        let mut grad_w: Vec<Matrix> = self
            .layers
            .iter()
            .map(|l| Matrix::zeros(l.weights.rows(), l.weights.cols()))
            .collect();
        let mut grad_b: Vec<Vec<f64>> = self
            .layers
            .iter()
            .map(|l| vec![0.0; l.biases.len()])
            .collect();

        // Preallocated activation/delta workspaces: one for full batches,
        // one (lazily sized) for the shorter tail batch.
        let full = cfg.batch_size.max(1).min(n);
        let mut ws_full = Workspace::new(&self.layers, self.input_len(), full, true);
        let tail = n % full;
        let mut ws_tail =
            (tail != 0).then(|| Workspace::new(&self.layers, self.input_len(), tail, true));

        let mut order: Vec<usize> = (0..n).collect();
        let mut step = 0.0f64;
        let mut epoch_losses = Vec::with_capacity(cfg.epochs);

        for _ in 0..cfg.epochs {
            for i in (1..order.len()).rev() {
                let j = rng.gen_range(0..=i);
                order.swap(i, j);
            }
            let mut epoch_loss = 0.0;
            for batch in order.chunks(full) {
                let ws = if batch.len() == full {
                    &mut ws_full
                } else {
                    ws_tail.as_mut().expect("tail workspace sized at entry")
                };
                // Gather the shuffled batch into the input workspace.
                for (bi, &s) in batch.iter().enumerate() {
                    ws.acts[0].row_mut(bi).copy_from_slice(x.row(s));
                }
                ws.forward(&self.layers);
                // MSE gradient at the output (ascending batch order).
                let scale = 1.0 / batch.len() as f64;
                let out_act = &ws.acts[n_layers];
                let delta_out = &mut ws.deltas[n_layers];
                for (bi, &s) in batch.iter().enumerate() {
                    let d_row = delta_out.row_mut(bi);
                    for ((d, &o), &t) in d_row.iter_mut().zip(out_act.row(bi)).zip(y.row(s)) {
                        let e = o - t;
                        epoch_loss += e * e * scale;
                        *d = 2.0 * e * scale;
                    }
                }
                ws.backward(&self.layers, &mut grad_w, &mut grad_b);
                step += 1.0;
                let bias_correction = (1.0 - cfg.beta1.powf(step), 1.0 - cfg.beta2.powf(step));
                for (li, layer) in self.layers.iter_mut().enumerate() {
                    adam_w[li].update(
                        layer.weights.as_mut_slice(),
                        grad_w[li].as_slice(),
                        cfg,
                        bias_correction,
                    );
                    adam_b[li].update(&mut layer.biases, &grad_b[li], cfg, bias_correction);
                }
            }
            epoch_losses.push(epoch_loss / (n as f64 / full as f64).max(1.0));
        }
        epoch_losses
    }

    /// Convenience wrapper for scalar targets.
    pub fn fit_scalar(&mut self, x: &Matrix, y: &[f64], cfg: &TrainConfig) -> Vec<f64> {
        let y_mat = Matrix::from_vec(y.len(), 1, y.to_vec());
        self.fit(x, &y_mat, cfg)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::matrix::dot;

    #[test]
    fn shapes_propagate_through_builder() {
        let net = NetworkBuilder::input_1d(13)
            .conv1d(4, 3, Activation::Relu)
            .conv1d(8, 3, Activation::Relu)
            .dense(16, Activation::Relu)
            .dense(1, Activation::Sigmoid)
            .build(1);
        assert_eq!(net.input_len(), 13);
        assert_eq!(net.output_len(), 1);
        // conv1: 4*(1*3)+4; conv2: 8*(4*3)+8; dense: 16*(8*9)+16; out: 1*16+1
        assert_eq!(net.num_parameters(), 16 + 104 + 1168 + 17);
    }

    #[test]
    fn forward_is_deterministic_and_job_count_invariant() {
        let net = NetworkBuilder::input_1d(5)
            .dense(8, Activation::Relu)
            .dense(1, Activation::Sigmoid)
            .build(42);
        let x = Matrix::from_rows(&[&[0.1, 0.2, 0.3, 0.4, 0.5]]);
        let a = net.forward(&x);
        let b = net.forward(&x);
        assert_eq!(a, b);
        let serial = minipar::with_jobs(1, || net.forward(&x));
        let wide = minipar::with_jobs(4, || net.forward(&x));
        assert_eq!(serial, wide, "forward diverged across job counts");
        assert!(
            a[(0, 0)] > 0.0 && a[(0, 0)] < 1.0,
            "sigmoid output in (0,1)"
        );
    }

    #[test]
    fn conv_forward_is_job_count_invariant_when_kernels_fork() {
        let net = NetworkBuilder::input_1d(13)
            .conv1d(8, 3, Activation::Relu)
            .conv1d(16, 3, Activation::Relu)
            .dense(8, Activation::Relu)
            .dense(1, Activation::Sigmoid)
            .build(42);
        // 600 rows: full chunks plus a shorter tail, so both workspace
        // sizes run.
        let rows = 600;
        let tail_start = rows / PREDICT_CHUNK * PREDICT_CHUNK;
        assert!(tail_start > 0 && tail_start < rows);
        let x = random_matrix(rows, 13, 5);
        // The second conv's GEMM over a full chunk is large enough to be
        // cut into parallel bands at 4 jobs.
        let (conv2_rows, conv2_work) = (PREDICT_CHUNK * 9, 8 * 3 * 16);
        assert!(minipar::with_jobs(4, || crate::matrix::band_count(conv2_rows, conv2_work)) > 1);
        let serial = minipar::with_jobs(1, || net.forward(&x));
        let wide = minipar::with_jobs(4, || net.forward(&x));
        assert_eq!(serial, wide, "conv forward diverged across job counts");
        // Chunking never changes values: the tail rows alone agree.
        let tail = Matrix::from_vec(
            rows - tail_start,
            13,
            x.as_slice()[tail_start * 13..].to_vec(),
        );
        assert_eq!(
            net.forward(&tail).as_slice(),
            &serial.as_slice()[tail_start..]
        );
    }

    #[test]
    fn training_is_bit_identical_across_job_counts() {
        let (x, y) = batch_dataset();
        let cfg = TrainConfig {
            epochs: 5,
            batch_size: 16,
            ..TrainConfig::default()
        };
        let run = || {
            let mut net = NetworkBuilder::input_1d(6)
                .conv1d(4, 3, Activation::Relu)
                .dense(8, Activation::Relu)
                .dense(1, Activation::Linear)
                .build(9);
            let losses = net.fit_scalar(&x, &y, &cfg);
            (losses, net.predict(&x))
        };
        let serial = minipar::with_jobs(1, run);
        let wide = minipar::with_jobs(4, run);
        assert_eq!(serial.0, wide.0, "losses diverged across job counts");
        assert_eq!(serial.1, wide.1, "predictions diverged across job counts");

        // The §4.3 severity DNN's shape at the ground-truth size of a 2%
        // corpus: 13 features, 1,024 rows, minibatches of 32.
        let (x, y) = severity_sized_dataset();
        let cfg = TrainConfig {
            epochs: 5,
            batch_size: 32,
            seed: 7,
            ..TrainConfig::default()
        };
        let run = || {
            let mut net = NetworkBuilder::input_1d(13)
                .dense(16, Activation::Relu)
                .dense(16, Activation::Relu)
                .dense(32, Activation::Relu)
                .dense(32, Activation::Relu)
                .dense(1, Activation::Sigmoid)
                .build(7);
            let losses = net.fit_scalar(&x, &y, &cfg);
            (losses, net.predict(&x))
        };
        let serial = minipar::with_jobs(1, run);
        let wide = minipar::with_jobs(4, run);
        assert_eq!(serial.0, wide.0, "severity DNN losses diverged across jobs");
        assert_eq!(
            serial.1, wide.1,
            "severity DNN predictions diverged across jobs"
        );
    }

    /// 1,024 rows of 13 features in `[0, 1)` with a nonlinear target.
    fn severity_sized_dataset() -> (Matrix, Vec<f64>) {
        let (rows, cols) = (1024, 13);
        let mut data = Vec::with_capacity(rows * cols);
        let mut y = Vec::with_capacity(rows);
        for i in 0..rows {
            let row: Vec<f64> = (0..cols)
                .map(|j| ((i * 31 + j * 17) % 97) as f64 / 97.0)
                .collect();
            y.push(((3.0 + 4.0 * row[0] + 3.0 * row[3] * row[4] + 2.0 * row[12]) / 10.0).min(1.0));
            data.extend_from_slice(&row);
        }
        (Matrix::from_vec(rows, cols, data), y)
    }

    #[test]
    fn learns_xor_with_dense_net() {
        let x = Matrix::from_rows(&[&[0.0, 0.0], &[0.0, 1.0], &[1.0, 0.0], &[1.0, 1.0]]);
        let y = [0.0, 1.0, 1.0, 0.0];
        let mut net = NetworkBuilder::input_1d(2)
            .dense(8, Activation::Relu)
            .dense(1, Activation::Sigmoid)
            .build(3);
        net.fit_scalar(
            &x,
            &y,
            &TrainConfig {
                epochs: 800,
                batch_size: 4,
                learning_rate: 0.01,
                ..TrainConfig::default()
            },
        );
        let pred = net.predict(&x);
        for (i, &target) in y.iter().enumerate() {
            assert!(
                (pred[i] - target).abs() < 0.25,
                "sample {i}: predicted {}, want {target}",
                pred[i]
            );
        }
    }

    fn batch_dataset() -> (Matrix, Vec<f64>) {
        // Target: mean of the 6 inputs (a linear function a conv can express).
        let mut rows = Vec::new();
        let mut y = Vec::new();
        for i in 0..64 {
            let row: Vec<f64> = (0..6)
                .map(|j| ((i * 7 + j * 13) % 10) as f64 / 10.0)
                .collect();
            y.push(row.iter().sum::<f64>() / 6.0);
            rows.push(row);
        }
        (Matrix::from_vectors(&rows), y)
    }

    #[test]
    fn conv_net_learns_simple_function() {
        let (x, y) = batch_dataset();
        let mut net = NetworkBuilder::input_1d(6)
            .conv1d(4, 3, Activation::Relu)
            .dense(8, Activation::Relu)
            .dense(1, Activation::Linear)
            .build(9);
        net.fit_scalar(
            &x,
            &y,
            &TrainConfig {
                epochs: 300,
                batch_size: 16,
                learning_rate: 0.01,
                ..TrainConfig::default()
            },
        );
        let pred = net.predict(&x);
        let ae = crate::metrics::average_error(&y, &pred);
        assert!(ae < 0.05, "average error {ae}");
    }

    #[test]
    fn training_loss_decreases() {
        let x = Matrix::from_rows(&[&[0.0], &[0.25], &[0.5], &[0.75], &[1.0]]);
        let y = [0.0, 0.5, 1.0, 1.5, 2.0];
        let mut net = NetworkBuilder::input_1d(1)
            .dense(4, Activation::Relu)
            .dense(1, Activation::Linear)
            .build(5);
        let losses = net.fit_scalar(
            &x,
            &y,
            &TrainConfig {
                epochs: 200,
                batch_size: 5,
                learning_rate: 0.01,
                ..TrainConfig::default()
            },
        );
        assert!(losses.last().unwrap() < &(losses[0] * 0.5));
    }

    /// Numerical gradient check on a tiny two-conv + dense network, through
    /// the batched backward path (a 2-sample batch exercises the
    /// batch-summed reductions; the second conv's col2im folds over two
    /// input channels).
    #[test]
    fn analytic_gradients_match_numerical() {
        let x = Matrix::from_rows(&[
            &[0.3, -0.2, 0.8, 0.1, -0.6, 0.5],
            &[-0.5, 0.4, 0.2, 0.9, 0.7, -0.3],
        ]);
        let y = Matrix::from_vec(2, 1, vec![0.7, 0.2]);
        let mut net = NetworkBuilder::input_1d(6)
            .conv1d(2, 3, Activation::Sigmoid)
            .conv1d(3, 2, Activation::Sigmoid)
            .dense(3, Activation::Sigmoid)
            .dense(1, Activation::Linear)
            .build(17);
        // Nonzero biases, so bias placement in the GEMM path is checked too.
        for (li, layer) in net.layers.iter_mut().enumerate() {
            for (bi, b) in layer.biases.iter_mut().enumerate() {
                *b = 0.1 * (li as f64 + 1.0) - 0.07 * bi as f64;
            }
        }

        // Batch-mean squared error, the loss `fit` differentiates.
        let loss_of = |net: &Network| {
            let o = net.forward(&x);
            (0..x.rows())
                .map(|s| (o[(s, 0)] - y[(s, 0)]).powi(2) / x.rows() as f64)
                .sum::<f64>()
        };

        let n_layers = net.layers.len();
        let mut ws = Workspace::new(&net.layers, net.input_len(), x.rows(), true);
        for s in 0..x.rows() {
            ws.acts[0].row_mut(s).copy_from_slice(x.row(s));
        }
        ws.forward(&net.layers);
        let scale = 1.0 / x.rows() as f64;
        for s in 0..x.rows() {
            ws.deltas[n_layers].row_mut(s)[0] =
                2.0 * (ws.acts[n_layers].row(s)[0] - y[(s, 0)]) * scale;
        }
        let mut grad_w: Vec<Matrix> = net
            .layers
            .iter()
            .map(|l| Matrix::zeros(l.weights.rows(), l.weights.cols()))
            .collect();
        let mut grad_b: Vec<Vec<f64>> = net
            .layers
            .iter()
            .map(|l| vec![0.0; l.biases.len()])
            .collect();
        ws.backward(&net.layers, &mut grad_w, &mut grad_b);

        // Compare every parameter against central differences.
        let eps = 1e-6;
        let check = |name: &str, ana: f64, perturb: &dyn Fn(&mut Network, f64)| {
            let mut plus = net.clone();
            perturb(&mut plus, eps);
            let mut minus = net.clone();
            perturb(&mut minus, -eps);
            let num = (loss_of(&plus) - loss_of(&minus)) / (2.0 * eps);
            assert!(
                (num - ana).abs() < 1e-5 * (1.0 + num.abs().max(ana.abs())),
                "{name}: numerical {num} vs analytic {ana}"
            );
        };
        for li in 0..n_layers {
            for wi in 0..net.layers[li].weights.as_slice().len() {
                check(
                    &format!("layer {li} w{wi}"),
                    grad_w[li].as_slice()[wi],
                    &|n, d| n.layers[li].weights.as_mut_slice()[wi] += d,
                );
            }
            for bi in 0..net.layers[li].biases.len() {
                check(&format!("layer {li} b{bi}"), grad_b[li][bi], &|n, d| {
                    n.layers[li].biases[bi] += d
                });
            }
        }
    }

    /// Deterministic pseudo-random matrix in `[-1, 1)`.
    fn random_matrix(rows: usize, cols: usize, seed: u64) -> Matrix {
        let mut rng = StdRng::seed_from_u64(seed);
        let data = (0..rows * cols).map(|_| rng.gen_range(-1.0..1.0)).collect();
        Matrix::from_vec(rows, cols, data)
    }

    /// The per-sample convolution the im2col GEMM path replaced, kept as
    /// an oracle. It works channel-major — input element `(c, p)` at
    /// `c · len + p`, filter taps stored `[c][j]` — so comparing against
    /// it also checks the position-major layout bookkeeping.
    struct ConvReference {
        c_in: usize,
        l_in: usize,
        l_out: usize,
        filters: usize,
        kernel: usize,
        activation: Activation,
        weights: Matrix,
        biases: Vec<f64>,
    }

    impl ConvReference {
        fn of(layer: &Layer) -> Self {
            let LayerKind::Conv1d { filters, kernel } = layer.kind else {
                panic!("not a conv layer");
            };
            let (c_in, l_in) = layer.in_shape;
            let mut weights = Matrix::zeros(filters, c_in * kernel);
            for f in 0..filters {
                let taps = to_channel_major(layer.weights.row(f), c_in, kernel);
                weights.row_mut(f).copy_from_slice(&taps);
            }
            Self {
                c_in,
                l_in,
                l_out: layer.out_shape.1,
                filters,
                kernel,
                activation: layer.activation,
                weights,
                biases: layer.biases.clone(),
            }
        }

        fn forward_row(&self, input: &[f64], output: &mut [f64]) {
            let (c_in, l_in, l_out, kernel) = (self.c_in, self.l_in, self.l_out, self.kernel);
            for f in 0..self.filters {
                let w_row = self.weights.row(f);
                for p in 0..l_out {
                    let mut acc = self.biases[f];
                    for c in 0..c_in {
                        let w = &w_row[c * kernel..(c + 1) * kernel];
                        let x = &input[c * l_in + p..][..kernel];
                        for (wi, xi) in w.iter().zip(x) {
                            acc += wi * xi;
                        }
                    }
                    output[f * l_out + p] = self.activation.apply(acc);
                }
            }
        }

        /// The sample-serial backward loop; `delta` already carries the
        /// activation derivative.
        fn backward(
            &self,
            input: &Matrix,
            delta: &Matrix,
            grad_in: &mut Matrix,
            grad_w: &mut Matrix,
            grad_b: &mut [f64],
        ) {
            let (c_in, l_in, l_out, kernel) = (self.c_in, self.l_in, self.l_out, self.kernel);
            grad_w.as_mut_slice().fill(0.0);
            grad_b.fill(0.0);
            for s in 0..delta.rows() {
                let d_row = delta.row(s);
                let x_row = input.row(s);
                let gi_row = grad_in.row_mut(s);
                gi_row.fill(0.0);
                for f in 0..self.filters {
                    let w_row = self.weights.row(f);
                    let gw_row = grad_w.row_mut(f);
                    for p in 0..l_out {
                        let d = d_row[f * l_out + p];
                        if d == 0.0 {
                            continue;
                        }
                        grad_b[f] += d;
                        for c in 0..c_in {
                            let base_w = c * kernel;
                            let base_x = c * l_in + p;
                            for j in 0..kernel {
                                gw_row[base_w + j] += d * x_row[base_x + j];
                                gi_row[base_x + j] += d * w_row[base_w + j];
                            }
                        }
                    }
                }
            }
        }
    }

    /// Position-major `len × channels` row → channel-major.
    fn to_channel_major(row: &[f64], channels: usize, len: usize) -> Vec<f64> {
        let mut out = vec![0.0; row.len()];
        for p in 0..len {
            for c in 0..channels {
                out[c * len + p] = row[p * channels + c];
            }
        }
        out
    }

    /// Row-wise [`to_channel_major`] over a whole batch.
    fn batch_to_channel_major(m: &Matrix, channels: usize, len: usize) -> Matrix {
        let rows: Vec<Vec<f64>> = (0..m.rows())
            .map(|r| to_channel_major(m.row(r), channels, len))
            .collect();
        Matrix::from_vectors(&rows)
    }

    fn assert_close(what: &str, got: &[f64], want: &[f64]) {
        assert_eq!(got.len(), want.len(), "{what}: length");
        for (i, (&g, &w)) in got.iter().zip(want).enumerate() {
            assert!(
                (g - w).abs() <= 1e-12 * g.abs().max(w.abs()).max(1.0),
                "{what}[{i}]: im2col {g} vs per-sample {w}"
            );
        }
    }

    #[test]
    fn im2col_conv_matches_per_sample_reference() {
        let (c_in, l_in, filters, kernel, batch) = (3, 9, 5, 3, 7);
        let mut layer = Layer::conv1d((c_in, l_in), filters, kernel, Activation::Sigmoid);
        layer.init(&mut StdRng::seed_from_u64(3));
        layer.biases = (0..filters).map(|f| 0.2 * f as f64 - 0.3).collect();
        let reference = ConvReference::of(&layer);
        let l_out = layer.out_shape.1;
        let x = random_matrix(batch, c_in * l_in, 4);
        let x_cm = batch_to_channel_major(&x, c_in, l_in);

        let mut im2col = layer.im2col_buffers(batch, true);
        let mut weights_t = Matrix::zeros(kernel * c_in, filters);
        let mut out = Matrix::zeros(batch, layer.out_size());
        layer.forward_batch(&x, &mut out, &mut weights_t, im2col.as_mut());
        let mut want_out = Matrix::zeros(batch, layer.out_size());
        for s in 0..batch {
            reference.forward_row(x_cm.row(s), want_out.row_mut(s));
        }
        let out_cm = batch_to_channel_major(&out, filters, l_out);
        assert_close("forward", out_cm.as_slice(), want_out.as_slice());

        // Backward from a random upstream gradient.
        let upstream = random_matrix(batch, layer.out_size(), 5);
        let mut delta = upstream.clone();
        let mut grad_in = Matrix::zeros(batch, c_in * l_in);
        let mut grad_w = Matrix::zeros(filters, kernel * c_in);
        let mut grad_b = vec![0.0; filters];
        layer.backward_batch(
            &x,
            &out,
            &mut delta,
            Some(&mut grad_in),
            &mut grad_w,
            &mut grad_b,
            im2col.as_mut(),
        );
        let mut delta_cm = batch_to_channel_major(&upstream, filters, l_out);
        for s in 0..batch {
            for (d, &o) in delta_cm.row_mut(s).iter_mut().zip(out_cm.row(s)) {
                *d *= layer.activation.derivative_from_output(o);
            }
        }
        let mut want_gi = Matrix::zeros(batch, c_in * l_in);
        let mut want_gw = Matrix::zeros(filters, c_in * kernel);
        let mut want_gb = vec![0.0; filters];
        reference.backward(&x_cm, &delta_cm, &mut want_gi, &mut want_gw, &mut want_gb);
        let grad_w_cm = batch_to_channel_major(&grad_w, c_in, kernel);
        assert_close("grad_w", grad_w_cm.as_slice(), want_gw.as_slice());
        assert_close("grad_b", &grad_b, &want_gb);
        let grad_in_cm = batch_to_channel_major(&grad_in, c_in, l_in);
        assert_close("grad_in", grad_in_cm.as_slice(), want_gi.as_slice());
    }

    /// The dense forward pass the tiled `X · Wᵀ` path replaced, kept as an
    /// oracle: every output is `act(dot(x, w) + b)`, where `dot` sums from
    /// −0.0 (the tile sums from 0.0).
    fn dense_reference_forward(layer: &Layer, input: &Matrix) -> Matrix {
        let mut out = input.matmul_transposed(&layer.weights);
        out.add_broadcast(&layer.biases);
        let act = layer.activation;
        out.map_in_place(|x| act.apply(x));
        out
    }

    #[test]
    fn dense_forward_matches_dot_reference_bit_for_bit() {
        let activations = [Activation::Linear, Activation::Relu, Activation::Sigmoid];
        // (fan_in, units, batch): the severity DNN's and CNN head's shapes
        // plus edge tiles in every dimension.
        let shapes = [
            (1, 1, 1),
            (13, 16, 32),
            (5, 17, 7),
            (80, 32, 32),
            (32, 1, 9),
        ];
        for (ai, &activation) in activations.iter().enumerate() {
            for (si, &(fan_in, units, batch)) in shapes.iter().enumerate() {
                let seed = (ai * 10 + si) as u64;
                let mut layer = Layer::dense((1, fan_in), units, activation);
                layer.init(&mut StdRng::seed_from_u64(seed));
                // Unit 0's weights are all negative and unit 1's all
                // positive; biases include +0.0.
                for w in layer.weights.row_mut(0) {
                    *w = -w.abs() - 0.01;
                }
                if units > 1 {
                    for w in layer.weights.row_mut(1) {
                        *w = w.abs() + 0.01;
                    }
                }
                layer.biases = (0..units).map(|u| 0.25 * (u % 5) as f64 - 0.5).collect();
                layer.biases[0] = 0.0;
                let mut x = random_matrix(batch, fan_in, seed + 100);
                // Row 0 is +0.0 inputs against unit 0's negative weights, and
                // the last row −0.0 inputs against unit 1's positive ones:
                // both dots are an exact −0.0, which the tile sums to +0.0.
                let negative_zero = (-0.0f64).to_bits();
                x.row_mut(0).fill(0.0);
                assert_eq!(dot(x.row(0), layer.weights.row(0)).to_bits(), negative_zero);
                if batch > 1 && units > 1 {
                    x.row_mut(batch - 1).fill(-0.0);
                    let last = x.row(batch - 1);
                    assert_eq!(dot(last, layer.weights.row(1)).to_bits(), negative_zero);
                }

                let want = dense_reference_forward(&layer, &x);
                let mut got = Matrix::zeros(batch, units);
                let mut weights_t = Matrix::zeros(fan_in, units);
                layer.forward_batch(&x, &mut got, &mut weights_t, None);
                let bits =
                    |m: &Matrix| m.as_slice().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
                assert_eq!(
                    bits(&got),
                    bits(&want),
                    "{activation:?} {fan_in} -> {units}, batch {batch}"
                );
            }
        }
    }

    #[test]
    #[should_panic(expected = "input width mismatch")]
    fn wrong_input_width_panics() {
        let net = NetworkBuilder::input_1d(3)
            .dense(1, Activation::Linear)
            .build(0);
        net.forward(&Matrix::from_rows(&[&[1.0]]));
    }
}
