//! Loss functions with their gradients w.r.t. the network output.

use crate::activation::{log_softmax_rows, softmax_rows};
use crate::matrix::Matrix;

/// Mean-squared error `mean((pred - target)²)` and its gradient w.r.t. `pred`.
///
/// Used by every value network in the paper (Eqn 26).
pub fn mse(pred: &Matrix, target: &Matrix) -> (f32, Matrix) {
    assert_eq!(pred.shape(), target.shape(), "mse shape mismatch");
    let n = pred.len().max(1) as f32;
    let diff = pred - target;
    let loss = diff.norm_sq() / n;
    let grad = diff.scale(2.0 / n);
    (loss, grad)
}

/// Softmax cross-entropy against integer class targets.
///
/// Returns `(mean loss, dL/dlogits)`. Used to train the i-EOI identity
/// classifier against `one_hot(k)` (first term of Eqn 21).
pub fn cross_entropy_classes(logits: &Matrix, classes: &[usize]) -> (f32, Matrix) {
    assert_eq!(logits.rows(), classes.len(), "class count mismatch");
    let b = logits.rows().max(1) as f32;
    let log_p = log_softmax_rows(logits);
    let p = softmax_rows(logits);
    let mut loss = 0.0f32;
    let mut grad = p.clone();
    for (r, &c) in classes.iter().enumerate() {
        assert!(c < logits.cols(), "class index out of range");
        loss -= log_p[(r, c)];
        grad[(r, c)] -= 1.0;
    }
    (loss / b, grad.scale(1.0 / b))
}

/// Entropy regulariser `H(p)` of the softmax of `logits`, with the gradient of
/// the *negative* entropy w.r.t. the logits (so adding `grad` to a minimised
/// loss maximises confidence; subtracting maximises entropy).
///
/// The second term of Eqn 21 in the paper,
/// `CrossEntropy(p_µ(·|o), p_µ(·|o)) = H(p_µ(·|o))`, minimises conditional
/// entropy `H(K|O)` — i.e. maximises the mutual information `MI(K;O)`.
pub fn entropy_of_softmax(logits: &Matrix) -> (f32, Matrix) {
    let p = softmax_rows(logits);
    let log_p = log_softmax_rows(logits);
    let b = logits.rows().max(1) as f32;
    let mut h = 0.0f32;
    for r in 0..p.rows() {
        for c in 0..p.cols() {
            h -= p[(r, c)] * log_p[(r, c)];
        }
    }
    h /= b;
    // d(-H)/dlogit_{rc} = p_rc * (log p_rc + H_r)  (per-row H)
    let mut grad = Matrix::zeros(p.rows(), p.cols());
    for r in 0..p.rows() {
        let mut h_r = 0.0f32;
        for c in 0..p.cols() {
            h_r -= p[(r, c)] * log_p[(r, c)];
        }
        for c in 0..p.cols() {
            grad[(r, c)] = p[(r, c)] * (log_p[(r, c)] + h_r) / b;
        }
    }
    (h, grad)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mse_zero_at_target() {
        let a = Matrix::from_vec(1, 3, vec![1.0, 2.0, 3.0]);
        let (l, g) = mse(&a, &a);
        assert_eq!(l, 0.0);
        assert!(g.as_slice().iter().all(|&x| x == 0.0));
    }

    #[test]
    fn mse_gradient_finite_difference() {
        let pred = Matrix::from_vec(1, 2, vec![0.5, -1.0]);
        let target = Matrix::from_vec(1, 2, vec![1.0, 1.0]);
        let (_, g) = mse(&pred, &target);
        let eps = 1e-3;
        for i in 0..2 {
            let mut p = pred.clone();
            p.as_mut_slice()[i] += eps;
            let (lp, _) = mse(&p, &target);
            let mut m = pred.clone();
            m.as_mut_slice()[i] -= eps;
            let (lm, _) = mse(&m, &target);
            let num = (lp - lm) / (2.0 * eps);
            assert!((num - g.as_slice()[i]).abs() < 1e-3);
        }
    }

    #[test]
    fn cross_entropy_low_when_confident_correct() {
        let confident = Matrix::from_vec(1, 3, vec![10.0, 0.0, 0.0]);
        let wrong = Matrix::from_vec(1, 3, vec![0.0, 10.0, 0.0]);
        let (l_good, _) = cross_entropy_classes(&confident, &[0]);
        let (l_bad, _) = cross_entropy_classes(&wrong, &[0]);
        assert!(l_good < 0.01);
        assert!(l_bad > 5.0);
    }

    #[test]
    fn cross_entropy_gradient_finite_difference() {
        let logits = Matrix::from_vec(2, 3, vec![0.5, -0.2, 0.1, 1.0, 0.0, -1.0]);
        let classes = [2usize, 0];
        let (_, g) = cross_entropy_classes(&logits, &classes);
        let eps = 1e-3;
        for idx in 0..6 {
            let mut lp = logits.clone();
            lp.as_mut_slice()[idx] += eps;
            let (a, _) = cross_entropy_classes(&lp, &classes);
            let mut lm = logits.clone();
            lm.as_mut_slice()[idx] -= eps;
            let (b, _) = cross_entropy_classes(&lm, &classes);
            let num = (a - b) / (2.0 * eps);
            assert!(
                (num - g.as_slice()[idx]).abs() < 1e-3,
                "logit {idx}: numeric {num} vs analytic {}",
                g.as_slice()[idx]
            );
        }
    }

    #[test]
    fn entropy_gradient_finite_difference() {
        let logits = Matrix::from_vec(1, 3, vec![0.3, -0.6, 0.9]);
        let (_, g) = entropy_of_softmax(&logits);
        let eps = 1e-3;
        for idx in 0..3 {
            let mut lp = logits.clone();
            lp.as_mut_slice()[idx] += eps;
            let (a, _) = entropy_of_softmax(&lp);
            let mut lm = logits.clone();
            lm.as_mut_slice()[idx] -= eps;
            let (b, _) = entropy_of_softmax(&lm);
            // grad is of NEGATIVE entropy
            let num = -(a - b) / (2.0 * eps);
            assert!(
                (num - g.as_slice()[idx]).abs() < 1e-3,
                "logit {idx}: numeric {num} vs analytic {}",
                g.as_slice()[idx]
            );
        }
    }
}
