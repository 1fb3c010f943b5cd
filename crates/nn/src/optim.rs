//! First-order optimisers operating on `Param` slices.

use crate::lanes::{self, AdamStep};
use crate::param::Param;
use serde::{Deserialize, Serialize};

/// Adam optimiser (Kingma & Ba, 2015) with bias correction.
///
/// Moment buffers live inside each [`Param`], so one `Adam` instance can be
/// shared across any set of parameters; only the step counter is global.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Adam {
    /// Learning rate.
    pub lr: f32,
    /// Exponential decay for the first moment.
    pub beta1: f32,
    /// Exponential decay for the second moment.
    pub beta2: f32,
    /// Numerical-stability epsilon.
    pub eps: f32,
    /// Steps taken so far (for bias correction).
    pub t: u64,
}

impl Adam {
    /// Adam with the conventional `(0.9, 0.999, 1e-8)` moments.
    pub fn new(lr: f32) -> Self {
        Self { lr, beta1: 0.9, beta2: 0.999, eps: 1e-8, t: 0 }
    }

    /// Apply one update step to every parameter, then zero its gradient.
    ///
    /// Per element this is `m ← β1·m + (1−β1)·g`, `v ← β2·v + (1−β2)·g·g`
    /// and `x ← x − lr·(m / (1−β1ᵗ)) / (√(v / (1−β2ᵗ)) + ε)`, each
    /// operation rounded on its own, at the GEMM's SIMD width
    /// (`lanes`). Once `1 − β1ᵗ` rounds to 1.0 (from t = 165 at
    /// β1 = 0.9) the first division is skipped: `m / 1.0` is `m` exactly.
    pub fn step(&mut self, params: &mut [&mut Param]) {
        self.t += 1;
        let c = AdamStep {
            beta1: self.beta1,
            beta2: self.beta2,
            one_minus_beta1: 1.0 - self.beta1,
            one_minus_beta2: 1.0 - self.beta2,
            b1t: 1.0 - self.beta1.powi(self.t as i32),
            b2t: 1.0 - self.beta2.powi(self.t as i32),
            lr: self.lr,
            eps: self.eps,
        };
        for p in params.iter_mut() {
            let Param { value, grad, m, v } = &mut **p;
            let (m, v) = (m.as_mut_slice(), v.as_mut_slice());
            lanes::adam(value.as_mut_slice(), grad.as_mut_slice(), m, v, c);
        }
    }
}

/// Plain stochastic gradient descent (used for LCF meta-updates, where the
/// paper prescribes vanilla gradient ascent, Eqn 32).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Sgd {
    /// Learning rate.
    pub lr: f32,
}

impl Sgd {
    /// SGD with the given learning rate.
    pub fn new(lr: f32) -> Self {
        Self { lr }
    }

    /// `value -= lr * grad` for every parameter, then zero the gradient.
    pub fn step(&mut self, params: &mut [&mut Param]) {
        for p in params.iter_mut() {
            let n = p.value.len();
            for i in 0..n {
                let g = p.grad.as_slice()[i];
                p.value.as_mut_slice()[i] -= self.lr * g;
            }
            p.zero_grad();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::matrix::Matrix;

    /// Minimise f(x) = (x - 3)^2 with Adam; gradient is 2(x-3).
    #[test]
    fn adam_converges_on_quadratic() {
        let mut p = Param::new(Matrix::from_vec(1, 1, vec![0.0]));
        let mut opt = Adam::new(0.1);
        for _ in 0..500 {
            let x = p.value.as_slice()[0];
            p.grad.as_mut_slice()[0] = 2.0 * (x - 3.0);
            opt.step(&mut [&mut p]);
        }
        let x = p.value.as_slice()[0];
        assert!((x - 3.0).abs() < 1e-2, "adam failed to converge: x = {x}");
    }

    #[test]
    fn sgd_converges_on_quadratic() {
        let mut p = Param::new(Matrix::from_vec(1, 1, vec![10.0]));
        let mut opt = Sgd::new(0.1);
        for _ in 0..200 {
            let x = p.value.as_slice()[0];
            p.grad.as_mut_slice()[0] = 2.0 * (x - 3.0);
            opt.step(&mut [&mut p]);
        }
        let x = p.value.as_slice()[0];
        assert!((x - 3.0).abs() < 1e-3);
    }

    #[test]
    fn step_zeroes_gradient() {
        let mut p = Param::new(Matrix::from_vec(1, 1, vec![1.0]));
        p.grad.as_mut_slice()[0] = 5.0;
        Adam::new(0.01).step(&mut [&mut p]);
        assert_eq!(p.grad.as_slice()[0], 0.0);
    }

    #[test]
    fn adam_first_step_moves_by_lr() {
        // With bias correction, the very first Adam step ≈ lr * sign(grad).
        let mut p = Param::new(Matrix::from_vec(1, 1, vec![0.0]));
        p.grad.as_mut_slice()[0] = 123.0;
        Adam::new(0.05).step(&mut [&mut p]);
        let x = p.value.as_slice()[0];
        assert!((x + 0.05).abs() < 1e-4, "first step should be ≈ -lr, got {x}");
    }
}
