//! Fully-connected layer with manual backward pass.

use crate::activation::Activation;
use crate::init::Init;
use crate::matrix::Matrix;
use crate::param::Param;
use rand::Rng;
use serde::{Deserialize, Serialize};

/// `y = x W + b`.
///
/// `W` is stored `in_dim × out_dim`, so a batch `x` of shape `B × in_dim`
/// maps to `B × out_dim`. The layer holds no activations: the caller keeps
/// the forward's input and hands it to the backward (as
/// [`Mlp`](crate::Mlp) does with its activation list).
#[derive(Debug, PartialEq, Serialize, Deserialize)]
pub struct Linear {
    /// Weight parameter, `in_dim × out_dim`.
    pub w: Param,
    /// Bias parameter, `1 × out_dim`.
    pub b: Param,
}

/// `clone_from` refills the destination's parameters in place.
impl Clone for Linear {
    fn clone(&self) -> Self {
        Self { w: self.w.clone(), b: self.b.clone() }
    }

    fn clone_from(&mut self, src: &Self) {
        self.w.clone_from(&src.w);
        self.b.clone_from(&src.b);
    }
}

impl Linear {
    /// Create a layer with the given initialisation for `W` (bias is zero).
    pub fn new<R: Rng + ?Sized>(in_dim: usize, out_dim: usize, init: Init, rng: &mut R) -> Self {
        Self {
            w: Param::new(init.sample(in_dim, out_dim, rng)),
            b: Param::new(Matrix::zeros(1, out_dim)),
        }
    }

    /// A layer with the given weight (`in_dim × out_dim`) and bias
    /// (`1 × out_dim`) values and fresh gradient and moment buffers.
    ///
    /// # Panics
    /// Panics if the bias is not one row as wide as the weight.
    pub fn from_values(w: Matrix, b: Matrix) -> Self {
        assert_eq!(b.shape(), (1, w.cols()), "bias must be 1 × out_dim");
        Self { w: Param::new(w), b: Param::new(b) }
    }

    /// Input dimension.
    pub fn in_dim(&self) -> usize {
        self.w.value.rows()
    }

    /// Output dimension.
    pub fn out_dim(&self) -> usize {
        self.w.value.cols()
    }

    /// Forward pass: `x·W + b`.
    pub fn forward_inference(&self, x: &Matrix) -> Matrix {
        x.matmul(&self.w.value).add_row_broadcast(self.b.value.row(0))
    }

    /// Fused inference entry point: `act(x·W + b)` with the bias broadcast
    /// and the activation applied in one pass over the GEMM output (no
    /// intermediate allocations).
    ///
    /// Per scalar this computes exactly `act(z + b)` in the same order as
    /// `forward_inference` followed by `Activation::forward`, so the fused
    /// and unfused paths are bit-identical — `tests/gemm_equivalence.rs`
    /// pins this.
    pub fn forward_act(&self, x: &Matrix, act: Activation) -> Matrix {
        let mut z = x.matmul(&self.w.value);
        act.bias_act(z.as_mut_slice(), self.b.value.row(0));
        z
    }

    /// Backward pass through the forward whose input was `x`: given
    /// `dL/dy`, accumulate `dL/dW`, `dL/db` and return `dL/dx`.
    pub fn backward(&mut self, x: &Matrix, grad_out: &Matrix) -> Matrix {
        self.backward_params(x, grad_out);
        // dX = dY · Wᵀ
        grad_out.matmul_t(&self.w.value)
    }

    /// The parameter half of [`backward`](Self::backward): accumulate
    /// `dL/dW` and `dL/db` without the `dL/dx` product, for a first layer
    /// nobody differentiates into.
    pub fn backward_params(&mut self, x: &Matrix, grad_out: &Matrix) {
        // dW = xᵀ · dY
        let dw = x.t_matmul(grad_out);
        self.w.grad.add_scaled(&dw, 1.0);
        // db = column sums of dY
        let db = grad_out.sum_rows();
        for (g, d) in self.b.grad.as_mut_slice().iter_mut().zip(db.iter()) {
            *g += d;
        }
    }

    /// Mutable references to this layer's parameters.
    pub fn params_mut(&mut self) -> Vec<&mut Param> {
        vec![&mut self.w, &mut self.b]
    }

    /// Shared references to this layer's parameters.
    pub fn params(&self) -> Vec<&Param> {
        vec![&self.w, &self.b]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    fn rng() -> ChaCha8Rng {
        ChaCha8Rng::seed_from_u64(1)
    }

    #[test]
    fn forward_shape_and_bias() {
        let mut l = Linear::new(3, 2, Init::Zeros, &mut rng());
        l.b.value.as_mut_slice().copy_from_slice(&[1.0, -1.0]);
        let x = Matrix::from_vec(2, 3, vec![0.0; 6]);
        let y = l.forward_inference(&x);
        assert_eq!(y.shape(), (2, 2));
        assert_eq!(y.row(0), &[1.0, -1.0]);
    }

    #[test]
    fn backward_gradient_matches_finite_difference() {
        let mut l = Linear::new(4, 3, Init::XavierUniform, &mut rng());
        let x = Matrix::from_vec(2, 4, vec![0.3, -0.1, 0.8, 0.2, -0.5, 0.4, 0.0, 1.0]);

        // Scalar loss: sum of outputs.
        let y = l.forward_inference(&x);
        let grad_out = Matrix::full(y.rows(), y.cols(), 1.0);
        let dx = l.backward(&x, &grad_out);

        let eps = 1e-3f32;
        // Check dW numerically for a few entries.
        for &(i, j) in &[(0usize, 0usize), (2, 1), (3, 2)] {
            let orig = l.w.value[(i, j)];
            l.w.value[(i, j)] = orig + eps;
            let lp = l.forward_inference(&x).sum();
            l.w.value[(i, j)] = orig - eps;
            let lm = l.forward_inference(&x).sum();
            l.w.value[(i, j)] = orig;
            let num = (lp - lm) / (2.0 * eps);
            let ana = l.w.grad[(i, j)];
            assert!((num - ana).abs() < 1e-2, "dW[{i},{j}]: numeric {num} vs analytic {ana}");
        }
        // Check dX numerically for one entry.
        let mut xp = x.clone();
        xp[(0, 2)] += eps;
        let lp = l.forward_inference(&xp).sum();
        let mut xm = x.clone();
        xm[(0, 2)] -= eps;
        let lm = l.forward_inference(&xm).sum();
        let num = (lp - lm) / (2.0 * eps);
        assert!((num - dx[(0, 2)]).abs() < 1e-2);
    }

    #[test]
    fn backward_accumulates_grads() {
        let mut l = Linear::new(2, 2, Init::XavierUniform, &mut rng());
        let x = Matrix::from_vec(1, 2, vec![1.0, 1.0]);
        let g = Matrix::full(1, 2, 1.0);
        l.backward(&x, &g);
        let first = l.w.grad.clone();
        l.backward(&x, &g);
        let mut doubled = first.clone();
        doubled.add_scaled(&first, 1.0);
        assert_eq!(l.w.grad, doubled);
    }
}
