//! Multi-layer perceptron: the workhorse network of the reproduction.
//!
//! Every actor, critic, and the i-EOI identity classifier in the paper is a
//! small MLP ("h/i-MADRL only contains fully connected layers", §VI-F).

use crate::activation::Activation;
use crate::init::Init;
use crate::linear::Linear;
use crate::matrix::Matrix;
use crate::param::Param;
use rand::Rng;
use serde::{Deserialize, Serialize};

/// A feed-forward network of `Linear` layers with a shared hidden activation
/// and a (usually linear) output activation.
///
/// ```
/// use agsc_nn::{Adam, Matrix, Mlp};
/// use rand::SeedableRng;
/// let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(7);
/// let mut net = Mlp::tanh(&[2, 16, 1], &mut rng);
/// let mut opt = Adam::new(1e-2);
/// let x = Matrix::from_vec(4, 2, vec![0.0, 0.0, 0.0, 1.0, 1.0, 0.0, 1.0, 1.0]);
/// let y = Matrix::from_vec(4, 1, vec![0.0, 1.0, 1.0, 0.0]); // XOR
/// for _ in 0..500 {
///     net.zero_grad();
///     let pred = net.forward(&x);
///     let (_, grad) = agsc_nn::loss::mse(&pred, &y);
///     net.backward(&x, &grad);
///     opt.step(&mut net.params_mut());
/// }
/// let pred = net.forward_inference(&x);
/// for (p, t) in pred.as_slice().iter().zip(y.as_slice()) {
///     assert!((p - t).abs() < 0.2, "XOR not learned: {p} vs {t}");
/// }
/// ```
#[derive(Debug, Serialize, Deserialize)]
pub struct Mlp {
    layers: Vec<Linear>,
    hidden_act: Activation,
    output_act: Activation,
    /// The last training forward's layer outputs `[y₁, …, yₙ]`. The
    /// forward's input is not copied: the caller still holds it and hands
    /// it to the backward. `backward` differentiates layer `i`'s activation
    /// through entry `i` and reads its input from entry `i − 1` (the
    /// caller's input for the first layer).
    #[serde(skip)]
    acts: Vec<Matrix>,
}

/// A clone carries the parameters, not the last forward's activations: no
/// caller that clones a network (the NaN guard's snapshot, a checkpoint)
/// runs its backward before another forward. `clone_from` refills the
/// destination's parameter buffers in place and drops its activations.
impl Clone for Mlp {
    fn clone(&self) -> Self {
        Self::from_layers(self.layers.clone(), self.hidden_act, self.output_act)
    }

    fn clone_from(&mut self, src: &Self) {
        self.layers.clone_from(&src.layers);
        (self.hidden_act, self.output_act) = (src.hidden_act, src.output_act);
        self.acts.clear();
    }
}

/// Networks are equal when their layers and activations are; the cached
/// activations of a forward are not part of the value.
impl PartialEq for Mlp {
    fn eq(&self, other: &Self) -> bool {
        (&self.layers, self.hidden_act, self.output_act)
            == (&other.layers, other.hidden_act, other.output_act)
    }
}

impl Mlp {
    /// Build an MLP with the given layer sizes, e.g. `[in, 64, 64, out]`.
    ///
    /// Hidden layers use `hidden_init`; the final layer uses `out_init` (policy
    /// heads typically want `Init::SmallUniform`).
    ///
    /// # Panics
    /// Panics if fewer than two sizes are given.
    pub fn new<R: Rng + ?Sized>(
        sizes: &[usize],
        hidden_act: Activation,
        output_act: Activation,
        hidden_init: Init,
        out_init: Init,
        rng: &mut R,
    ) -> Self {
        assert!(sizes.len() >= 2, "an MLP needs at least input and output sizes");
        let mut layers = Vec::with_capacity(sizes.len() - 1);
        for w in 0..sizes.len() - 1 {
            let init = if w == sizes.len() - 2 { out_init } else { hidden_init };
            layers.push(Linear::new(sizes[w], sizes[w + 1], init, rng));
        }
        Self { layers, hidden_act, output_act, acts: Vec::new() }
    }

    /// Assemble an MLP from existing layers, e.g. weights read off a wire.
    ///
    /// # Panics
    /// Panics if `layers` is empty or a layer's input width is not the
    /// previous layer's output width.
    pub fn from_layers(
        layers: Vec<Linear>,
        hidden_act: Activation,
        output_act: Activation,
    ) -> Self {
        assert!(!layers.is_empty(), "an MLP needs at least one layer");
        assert!(
            layers.windows(2).all(|p| p[0].out_dim() == p[1].in_dim()),
            "layer widths must chain"
        );
        Self { layers, hidden_act, output_act, acts: Vec::new() }
    }

    /// A copy with the same layers, activations and parameter values but
    /// fresh gradient and optimiser-moment buffers: what a consumer that
    /// only runs the network keeps.
    pub fn values_copy(&self) -> Self {
        let layers = self
            .layers
            .iter()
            .map(|l| Linear::from_values(l.w.value.clone(), l.b.value.clone()))
            .collect();
        Self::from_layers(layers, self.hidden_act, self.output_act)
    }

    /// The layers, input first.
    pub fn layers(&self) -> &[Linear] {
        &self.layers
    }

    /// The `(hidden, output)` activations.
    pub fn activations(&self) -> (Activation, Activation) {
        (self.hidden_act, self.output_act)
    }

    /// Convenience constructor matching the paper's defaults: tanh hidden
    /// layers, linear output, Xavier weights.
    pub fn tanh<R: Rng + ?Sized>(sizes: &[usize], rng: &mut R) -> Self {
        Self::new(
            sizes,
            Activation::Tanh,
            Activation::Linear,
            Init::XavierUniform,
            Init::SmallUniform,
            rng,
        )
    }

    /// Input dimension.
    pub fn in_dim(&self) -> usize {
        self.layers.first().map_or(0, Linear::in_dim)
    }

    /// Output dimension.
    pub fn out_dim(&self) -> usize {
        self.layers.last().map_or(0, Linear::out_dim)
    }

    /// Total number of scalar parameters.
    pub fn param_count(&self) -> usize {
        self.params().iter().map(|p| p.count()).sum()
    }

    /// Training-mode forward pass; keeps its layer outputs for `backward`,
    /// which takes the same `x` again.
    ///
    /// Each layer runs the fused GEMM → bias → activation entry point
    /// (`Linear::forward_act`), which is bit-identical to the unfused
    /// `forward_inference` + `Activation::forward` sequence.
    pub fn forward(&mut self, x: &Matrix) -> Matrix {
        self.acts.clear();
        for (i, layer) in self.layers.iter().enumerate() {
            let input = if i == 0 { x } else { &self.acts[i - 1] };
            let y = layer.forward_act(input, self.act_of(i));
            self.acts.push(y);
        }
        self.acts.last().expect("an MLP has at least one layer").clone()
    }

    /// Inference-mode forward pass (no caches touched, `&self`).
    pub fn forward_inference(&self, x: &Matrix) -> Matrix {
        let mut h: Option<Matrix> = None;
        for (i, layer) in self.layers.iter().enumerate() {
            h = Some(layer.forward_act(h.as_ref().unwrap_or(x), self.act_of(i)));
        }
        h.expect("an MLP has at least one layer")
    }

    /// Layer `i`'s activation: the hidden one, or the output one for the
    /// last layer.
    fn act_of(&self, i: usize) -> Activation {
        if i + 1 == self.layers.len() {
            self.output_act
        } else {
            self.hidden_act
        }
    }

    /// Batched inference over a row-major `B × in_dim` matrix: each layer
    /// evaluates the whole batch in one GEMM instead of per-row calls.
    ///
    /// Row `i` of the result is **bit-identical** to running
    /// [`forward_inference`](Self::forward_inference) on row `i` alone:
    /// `Matrix::matmul` accumulates every output row independently (and in
    /// the same flop order) of all other rows, bias broadcast and the
    /// activations are elementwise. The parallel rollout engine's
    /// serial-equivalence guarantee rests on this contract, which the unit
    /// tests pin to the last ulp.
    pub fn forward_batch(&self, x: &Matrix) -> Matrix {
        self.forward_inference(x)
    }

    /// Backward pass from `dL/dy` through the last training `forward`,
    /// whose input was `x`; accumulates parameter gradients and returns
    /// `dL/dx`.
    ///
    /// Only reads the caches of the last training `forward`, so several
    /// backward passes may follow one forward.
    ///
    /// # Panics
    /// Panics if called before a training-mode `forward`, or if `x` cannot
    /// have been that forward's input (wrong shape).
    pub fn backward(&mut self, x: &Matrix, grad_out: &Matrix) -> Matrix {
        self.backward_layers(x, grad_out, true).expect("the input gradient was requested")
    }

    /// [`backward`](Self::backward) without `dL/dx`: accumulates the same
    /// parameter gradients, bit for bit, but skips the first layer's
    /// input-gradient GEMM. For callers that only step the parameters.
    ///
    /// # Panics
    /// As [`backward`](Self::backward).
    pub fn backward_params(&mut self, x: &Matrix, grad_out: &Matrix) {
        self.backward_layers(x, grad_out, false);
    }

    /// The one backward loop; returns `dL/dx` when `input_grad` is set.
    fn backward_layers(
        &mut self,
        x: &Matrix,
        grad_out: &Matrix,
        input_grad: bool,
    ) -> Option<Matrix> {
        let n = self.layers.len();
        assert_eq!(self.acts.len(), n, "Mlp::backward called before forward");
        assert_eq!(
            x.shape(),
            (self.acts[0].rows(), self.in_dim()),
            "Mlp::backward: x is not the forward's input"
        );
        let mut g = grad_out.clone();
        for i in (0..n).rev() {
            self.act_of(i).backward_from_output(&mut g, &self.acts[i]);
            let input = if i == 0 { x } else { &self.acts[i - 1] };
            if i == 0 && !input_grad {
                self.layers[0].backward_params(input, &g);
                return None;
            }
            g = self.layers[i].backward(input, &g);
        }
        Some(g)
    }

    /// Zero all accumulated gradients.
    pub fn zero_grad(&mut self) {
        for p in self.params_mut() {
            p.zero_grad();
        }
    }

    /// Mutable references to every parameter, in deterministic order.
    pub fn params_mut(&mut self) -> Vec<&mut Param> {
        self.layers.iter_mut().flat_map(Linear::params_mut).collect()
    }

    /// Shared references to every parameter, in deterministic order.
    pub fn params(&self) -> Vec<&Param> {
        self.layers.iter().flat_map(Linear::params).collect()
    }

    /// Flatten all parameter values into one vector (used by the h-CoPO
    /// first-order meta-gradient, Eqn 32 of the paper).
    pub fn flat_values(&self) -> Vec<f32> {
        let mut out = Vec::with_capacity(self.param_count());
        for p in self.params() {
            out.extend_from_slice(p.value.as_slice());
        }
        out
    }

    /// Flatten all accumulated gradients into one vector.
    pub fn flat_grads(&self) -> Vec<f32> {
        let mut out = Vec::with_capacity(self.param_count());
        for p in self.params() {
            out.extend_from_slice(p.grad.as_slice());
        }
        out
    }

    /// Global L2 norm of the accumulated gradients (a key learning-health
    /// signal: explosions show up here before they show up in the loss).
    pub fn grad_norm(&self) -> f32 {
        self.params().iter().map(|p| p.grad.norm_sq()).sum::<f32>().sqrt()
    }

    /// Global L2 gradient-norm clip; returns the pre-clip norm.
    pub fn clip_grad_norm(&mut self, max_norm: f32) -> f32 {
        let [total] = Self::clip_grad_norms([self], max_norm);
        total
    }

    /// [`clip_grad_norm`](Self::clip_grad_norm) of `N` networks, bit for
    /// bit, with their norms summed side by side.
    ///
    /// A norm is one long sequential `f32` sum, so it waits on the latency
    /// of each add. Networks with the same parameter shapes (an agent's
    /// three critics) walk their gradients in one loop with one running sum
    /// each, every sum in its own order, so `N` chains run at once.
    pub fn clip_grad_norms<const N: usize>(mut nets: [&mut Mlp; N], max_norm: f32) -> [f32; N] {
        let totals = Self::grad_norms(nets.each_ref().map(|n| &**n));
        for (net, &total) in nets.iter_mut().zip(&totals) {
            if total > max_norm && total > 0.0 {
                let scale = max_norm / total;
                for p in net.params_mut() {
                    for g in p.grad.as_mut_slice() {
                        *g *= scale;
                    }
                }
            }
        }
        totals
    }

    /// [`grad_norm`](Self::grad_norm) of each network, the sums of
    /// like-shaped networks run side by side.
    fn grad_norms<const N: usize>(nets: [&Mlp; N]) -> [f32; N] {
        let params = nets.map(Mlp::params);
        let shapes = |p: &Vec<&Param>| p.iter().map(|p| p.grad.shape()).collect::<Vec<_>>();
        if N == 1 || params.iter().any(|p| shapes(p) != shapes(&params[0])) {
            return nets.map(Mlp::grad_norm);
        }
        // Per network, the per-parameter squared norms in parameter order,
        // then their sum: `grad_norm`'s two sums, in its order.
        let mut per_param = [const { Vec::new() }; N];
        for i in 0..params[0].len() {
            let sums = norm_sqs(params.each_ref().map(|p| p[i].grad.as_slice()));
            for (v, s) in per_param.iter_mut().zip(sums) {
                v.push(s);
            }
        }
        per_param.map(|v| v.into_iter().sum::<f32>().sqrt())
    }
}

/// `Σ x²` of each same-length slice, each a sequential `f32` sum from the
/// start exactly as `Matrix::norm_sq` computes it, the `N` sums advanced
/// together.
fn norm_sqs<const N: usize>(xs: [&[f32]; N]) -> [f32; N] {
    // The neutral element `Iterator::sum` folds from.
    let mut acc = [std::iter::empty::<f32>().sum::<f32>(); N];
    let len = xs[0].len();
    let xs = xs.map(|x| &x[..len]);
    for i in 0..len {
        for (a, x) in acc.iter_mut().zip(&xs) {
            *a += x[i] * x[i];
        }
    }
    acc
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    fn rng() -> ChaCha8Rng {
        ChaCha8Rng::seed_from_u64(3)
    }

    #[test]
    fn shapes_flow_through() {
        let mut net = Mlp::tanh(&[5, 16, 8, 2], &mut rng());
        assert_eq!(net.in_dim(), 5);
        assert_eq!(net.out_dim(), 2);
        let x = Matrix::zeros(7, 5);
        let y = net.forward(&x);
        assert_eq!(y.shape(), (7, 2));
    }

    #[test]
    fn param_count_matches_architecture() {
        let net = Mlp::tanh(&[4, 8, 3], &mut rng());
        // (4*8 + 8) + (8*3 + 3)
        assert_eq!(net.param_count(), 40 + 27);
    }

    #[test]
    fn inference_matches_training_forward() {
        let mut net = Mlp::tanh(&[3, 10, 2], &mut rng());
        let x = Matrix::from_vec(2, 3, vec![0.1, -0.3, 0.5, 0.9, 0.0, -0.7]);
        let yt = net.forward(&x);
        let yi = net.forward_inference(&x);
        assert_eq!(yt, yi);
    }

    #[test]
    fn end_to_end_gradient_matches_finite_difference() {
        let mut net = Mlp::tanh(&[3, 6, 1], &mut rng());
        let x = Matrix::from_vec(2, 3, vec![0.2, -0.4, 0.6, -0.1, 0.3, 0.8]);

        net.zero_grad();
        let y = net.forward(&x);
        let g = Matrix::full(y.rows(), y.cols(), 1.0);
        net.backward(&x, &g);

        let eps = 1e-3f32;
        let analytic = net.flat_grads();
        // Numerically check a scattering of parameters.
        let n = analytic.len();
        for &flat_idx in &[0usize, n / 3, n / 2, n - 1] {
            // Perturb the flat_idx-th parameter.
            let loss_at = |net: &mut Mlp, delta: f32| {
                let mut offset = 0usize;
                for p in net.params_mut() {
                    let c = p.count();
                    if flat_idx < offset + c {
                        p.value.as_mut_slice()[flat_idx - offset] += delta;
                        break;
                    }
                    offset += c;
                }
                let l = net.forward_inference(&x).sum();
                let mut offset = 0usize;
                for p in net.params_mut() {
                    let c = p.count();
                    if flat_idx < offset + c {
                        p.value.as_mut_slice()[flat_idx - offset] -= delta;
                        break;
                    }
                    offset += c;
                }
                l
            };
            let lp = loss_at(&mut net, eps);
            let lm = loss_at(&mut net, -eps);
            let num = (lp - lm) / (2.0 * eps);
            assert!(
                (num - analytic[flat_idx]).abs() < 2e-2,
                "param {flat_idx}: numeric {num} vs analytic {}",
                analytic[flat_idx]
            );
        }
    }

    #[test]
    fn clip_grad_norm_scales_down() {
        let mut net = Mlp::tanh(&[2, 2], &mut rng());
        for p in net.params_mut() {
            for g in p.grad.as_mut_slice() {
                *g = 10.0;
            }
        }
        let pre = net.clip_grad_norm(1.0);
        assert!(pre > 1.0);
        let post = net.grad_norm();
        assert!((post - 1.0).abs() < 1e-4);
    }

    #[test]
    fn grad_norm_reports_preclip_magnitude() {
        let mut net = Mlp::tanh(&[2, 2], &mut rng());
        // 2*2 weights + 2 biases = 6 entries of 2.0 → norm = 2*sqrt(6).
        for p in net.params_mut() {
            for g in p.grad.as_mut_slice() {
                *g = 2.0;
            }
        }
        assert!((net.grad_norm() - 2.0 * 6.0f32.sqrt()).abs() < 1e-5);
        let pre = net.clip_grad_norm(100.0);
        assert!((pre - net.grad_norm()).abs() < 1e-6, "clip above norm must not rescale");
        net.zero_grad();
        assert_eq!(net.grad_norm(), 0.0);
    }

    #[test]
    fn forward_batch_of_one_matches_forward() {
        let mut net = Mlp::tanh(&[4, 12, 3], &mut rng());
        let x = Matrix::from_vec(1, 4, vec![0.3, -0.8, 0.05, 1.2]);
        let trained = net.forward(&x);
        let batched = net.forward_batch(&x);
        for (a, b) in trained.as_slice().iter().zip(batched.as_slice()) {
            assert_eq!(a.to_bits(), b.to_bits(), "batch-of-1 must equal forward: {a} vs {b}");
        }
    }

    #[test]
    fn forward_batch_matches_stacked_single_rows_to_the_last_ulp() {
        let net = Mlp::tanh(&[3, 16, 16, 2], &mut rng());
        let rows: Vec<Vec<f32>> =
            (0..7).map(|r| (0..3).map(|c| ((r * 3 + c) as f32).sin() * 0.9).collect()).collect();
        let batched = net.forward_batch(&Matrix::from_rows(&rows));
        for (r, row) in rows.iter().enumerate() {
            let single = net.forward_inference(&Matrix::row_vector(row));
            for c in 0..2 {
                assert_eq!(
                    batched[(r, c)].to_bits(),
                    single[(0, c)].to_bits(),
                    "row {r} col {c}: batched {} vs single {}",
                    batched[(r, c)],
                    single[(0, c)]
                );
            }
        }
    }

    #[test]
    fn gradients_through_batched_path_match_per_row_loop() {
        // One batched forward/backward must accumulate the same parameter
        // gradients as looping row-by-row (gradient contributions are sums
        // over batch rows either way).
        let rows: Vec<Vec<f32>> =
            (0..5).map(|r| (0..3).map(|c| ((r + 2 * c) as f32).cos() * 0.7).collect()).collect();

        let mut batched_net = Mlp::tanh(&[3, 8, 2], &mut rng());
        let mut looped_net = batched_net.clone();

        batched_net.zero_grad();
        let x = Matrix::from_rows(&rows);
        let y = batched_net.forward(&x);
        batched_net.backward(&x, &Matrix::full(y.rows(), y.cols(), 1.0));
        let batched_grads = batched_net.flat_grads();

        looped_net.zero_grad();
        for row in &rows {
            let x = Matrix::row_vector(row);
            let y = looped_net.forward(&x);
            looped_net.backward(&x, &Matrix::full(1, y.cols(), 1.0));
        }
        let looped_grads = looped_net.flat_grads();

        assert_eq!(batched_grads.len(), looped_grads.len());
        for (i, (b, l)) in batched_grads.iter().zip(looped_grads.iter()).enumerate() {
            assert!(
                (b - l).abs() <= 1e-5 * l.abs().max(1.0),
                "grad {i} diverged: batched {b} vs looped {l}"
            );
        }
    }

    #[test]
    #[should_panic(expected = "Mlp::backward called before forward")]
    fn backward_without_forward_panics() {
        let mut net = Mlp::tanh(&[3, 4, 2], &mut rng());
        net.backward(&Matrix::zeros(1, 3), &Matrix::zeros(1, 2));
    }

    #[test]
    #[should_panic(expected = "Mlp::backward called before forward")]
    fn backward_on_a_clone_without_its_own_forward_panics() {
        // A clone carries no activations, even when its source has them.
        let mut net = Mlp::tanh(&[3, 4, 2], &mut rng());
        net.forward(&Matrix::zeros(1, 3));
        let mut copy = net.clone();
        copy.backward_params(&Matrix::zeros(1, 3), &Matrix::zeros(1, 2));
    }

    #[test]
    #[should_panic(expected = "x is not the forward's input")]
    fn backward_with_an_input_of_the_wrong_shape_panics() {
        let mut net = Mlp::tanh(&[3, 4, 2], &mut rng());
        net.forward(&Matrix::zeros(2, 3));
        net.backward_params(&Matrix::zeros(1, 3), &Matrix::zeros(2, 2));
    }

    /// Gradients with a spread of magnitudes, so the clip binds for some.
    fn nets_with_grads(scale: [f32; 3]) -> [Mlp; 3] {
        let mut r = rng();
        scale.map(|s| {
            let mut net = Mlp::tanh(&[7, 9, 1], &mut r);
            for (i, p) in net.params_mut().into_iter().enumerate() {
                for (j, g) in p.grad.as_mut_slice().iter_mut().enumerate() {
                    *g = s * (((i * 31 + j * 7) % 13) as f32 - 6.0) / 7.0;
                }
            }
            net
        })
    }

    #[test]
    fn clip_grad_norms_side_by_side_match_one_at_a_time_to_the_bit() {
        for max_norm in [0.5f32, 3.0, 1e6] {
            let mut alone = nets_with_grads([0.1, 1.0, 40.0]);
            let mut together = alone.clone();
            for (a, b) in alone.iter_mut().zip(&mut together) {
                b.params_mut()
                    .into_iter()
                    .zip(a.params())
                    .for_each(|(b, a)| b.grad = a.grad.clone());
            }
            let want = alone.each_mut().map(|n| n.clip_grad_norm(max_norm));
            let [a, b, c] = &mut together;
            let got = Mlp::clip_grad_norms([a, b, c], max_norm);
            assert_eq!(want.map(f32::to_bits), got.map(f32::to_bits), "max {max_norm}");
            for (a, b) in alone.iter().zip(&together) {
                let bits = |n: &Mlp| n.flat_grads().iter().map(|g| g.to_bits()).collect::<Vec<_>>();
                assert_eq!(bits(a), bits(b), "clipped gradients, max {max_norm}");
            }
        }
    }

    #[test]
    fn clone_from_refills_in_place_and_drops_activations() {
        let src = Mlp::tanh(&[3, 5, 2], &mut rng());
        let mut dst = Mlp::tanh(&[3, 5, 2], &mut ChaCha8Rng::seed_from_u64(99));
        dst.forward(&Matrix::zeros(2, 3));
        let buffer = dst.layers[0].w.value.as_slice().as_ptr();
        dst.clone_from(&src);
        assert_eq!(dst, src);
        assert_eq!(dst.layers[0].w.value.as_slice().as_ptr(), buffer, "buffers are reused");
        assert!(dst.acts.is_empty(), "a copy carries no activations");
    }

    #[test]
    fn serde_round_trip_preserves_outputs() {
        let net = Mlp::tanh(&[3, 8, 2], &mut rng());
        let json = serde_json::to_string(&net).unwrap();
        let back: Mlp = serde_json::from_str(&json).unwrap();
        let x = Matrix::from_vec(1, 3, vec![0.3, 0.3, -0.9]);
        assert_eq!(net.forward_inference(&x), back.forward_inference(&x));
    }
}
