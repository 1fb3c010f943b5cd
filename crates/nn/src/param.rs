//! Trainable parameter: value, accumulated gradient, and Adam moments.
//!
//! Keeping optimiser state inside the parameter avoids any key/index
//! bookkeeping between layers and the optimiser — the optimiser just walks
//! a `&mut [&mut Param]` slice handed to it by the network.

use crate::matrix::Matrix;
use serde::{Deserialize, Serialize};

/// A trainable tensor with gradient accumulator and Adam moment estimates.
#[derive(Debug, PartialEq, Serialize, Deserialize)]
pub struct Param {
    /// Current value.
    pub value: Matrix,
    /// Accumulated gradient (same shape as `value`).
    pub grad: Matrix,
    /// Adam first-moment estimate.
    pub m: Matrix,
    /// Adam second-moment estimate.
    pub v: Matrix,
}

/// `clone_from` refills the destination's four buffers in place.
impl Clone for Param {
    fn clone(&self) -> Self {
        let Self { value, grad, m, v } = self;
        Self { value: value.clone(), grad: grad.clone(), m: m.clone(), v: v.clone() }
    }

    fn clone_from(&mut self, src: &Self) {
        self.value.clone_from(&src.value);
        self.grad.clone_from(&src.grad);
        self.m.clone_from(&src.m);
        self.v.clone_from(&src.v);
    }
}

impl Param {
    /// Wrap a value matrix, allocating zeroed gradient/moment buffers.
    pub fn new(value: Matrix) -> Self {
        let (r, c) = value.shape();
        Self { value, grad: Matrix::zeros(r, c), m: Matrix::zeros(r, c), v: Matrix::zeros(r, c) }
    }

    /// Reset the accumulated gradient to zero (keeps moments).
    pub fn zero_grad(&mut self) {
        self.grad.fill_zero();
    }

    /// Number of scalar parameters.
    pub fn count(&self) -> usize {
        self.value.len()
    }

    /// Euclidean norm of the accumulated gradient.
    pub fn grad_norm(&self) -> f32 {
        self.grad.norm_sq().sqrt()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn new_allocates_matching_buffers() {
        let p = Param::new(Matrix::from_vec(2, 3, vec![1.0; 6]));
        assert_eq!(p.grad.shape(), (2, 3));
        assert_eq!(p.m.shape(), (2, 3));
        assert_eq!(p.v.shape(), (2, 3));
        assert_eq!(p.count(), 6);
    }

    #[test]
    fn zero_grad_clears() {
        let mut p = Param::new(Matrix::zeros(1, 2));
        p.grad.as_mut_slice()[0] = 3.0;
        assert!(p.grad_norm() > 0.0);
        p.zero_grad();
        assert_eq!(p.grad_norm(), 0.0);
    }
}
