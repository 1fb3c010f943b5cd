//! Action distributions for policy heads.
//!
//! UAV/UGV actions in the paper are continuous `(direction, speed)` pairs, so
//! actors use a diagonal Gaussian with a state-independent learned `log σ`
//! (standard PPO parameterisation).

use crate::matrix::Matrix;
use rand::Rng;

const LOG_2PI: f32 = 1.837_877_1; // ln(2π)

/// Sample a standard normal via Box–Muller (avoids a `rand_distr` dependency).
pub fn sample_standard_normal<R: Rng + ?Sized>(rng: &mut R) -> f32 {
    // u1 in (0, 1] so ln(u1) is finite.
    let u1: f32 = 1.0 - rng.gen::<f32>();
    let u2: f32 = rng.gen();
    (-2.0 * u1.ln()).sqrt() * (std::f32::consts::TAU * u2).cos()
}

/// Diagonal Gaussian over a batch of mean vectors with shared per-dimension
/// `log σ`.
#[derive(Debug, Clone)]
pub struct DiagGaussian<'a> {
    /// Batch of means, `B × dim`.
    pub mean: &'a Matrix,
    /// Shared log standard deviations, length `dim`.
    pub log_std: &'a [f32],
}

impl<'a> DiagGaussian<'a> {
    /// Wrap a batch of means with shared per-dimension log standard deviations.
    ///
    /// # Panics
    /// Panics if `log_std.len() != mean.cols()`.
    pub fn new(mean: &'a Matrix, log_std: &'a [f32]) -> Self {
        assert_eq!(mean.cols(), log_std.len(), "log_std length mismatch");
        Self { mean, log_std }
    }

    /// `σ` per dimension.
    fn std(&self) -> Vec<f32> {
        self.log_std.iter().map(|ls| ls.exp()).collect()
    }

    /// `1/σ²` per dimension.
    fn inv_var(&self) -> Vec<f32> {
        self.log_std.iter().map(|ls| (-2.0 * ls).exp()).collect()
    }

    /// Sample one action per batch row.
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> Matrix {
        let std = self.std();
        let mut out = self.mean.clone();
        for r in 0..out.rows() {
            for (x, &s) in out.row_mut(r).iter_mut().zip(&std) {
                let z = sample_standard_normal(rng);
                *x += z * s;
            }
        }
        out
    }

    /// Log-probability of `actions` (`B × dim`), one value per row.
    pub fn log_prob(&self, actions: &Matrix) -> Vec<f32> {
        assert_eq!(actions.shape(), self.mean.shape(), "action shape mismatch");
        let inv_var = self.inv_var();
        let mut out = Vec::with_capacity(actions.rows());
        for r in 0..actions.rows() {
            let mut lp = 0.0f32;
            for c in 0..actions.cols() {
                let d = actions[(r, c)] - self.mean[(r, c)];
                lp += -0.5 * (d * d * inv_var[c] + LOG_2PI) - self.log_std[c];
            }
            out.push(lp);
        }
        out
    }

    /// Differential entropy (identical for every row).
    pub fn entropy(&self) -> f32 {
        self.log_std.iter().map(|ls| 0.5 * (LOG_2PI + 1.0) + ls).sum()
    }

    /// Gradient of `Σ_r coeff[r] · log p(a_r)` with respect to the means
    /// (`B × dim`) and with respect to `log σ` (length `dim`).
    ///
    /// This is the hand-derived piece that lets PPO backprop through the
    /// policy head without an autograd engine:
    /// `∂logp/∂µ = (a − µ)/σ²`, `∂logp/∂logσ = ((a − µ)/σ)² − 1`.
    pub fn log_prob_grad(&self, actions: &Matrix, coeff: &[f32]) -> (Matrix, Vec<f32>) {
        assert_eq!(actions.rows(), coeff.len(), "coeff length mismatch");
        let mut d_mean = Matrix::zeros(actions.rows(), actions.cols());
        let mut d_log_std = vec![0.0f32; actions.cols()];
        let inv_var = self.inv_var();
        for r in 0..actions.rows() {
            let w = coeff[r];
            if w == 0.0 {
                continue;
            }
            for c in 0..actions.cols() {
                let d = actions[(r, c)] - self.mean[(r, c)];
                d_mean[(r, c)] = w * d * inv_var[c];
                d_log_std[c] += w * (d * d * inv_var[c] - 1.0);
            }
        }
        (d_mean, d_log_std)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    #[test]
    fn gaussian_log_prob_matches_closed_form() {
        // Standard normal at 0 → logp = -0.5·ln(2π) per dim.
        let mean = Matrix::zeros(1, 2);
        let log_std = [0.0f32, 0.0];
        let d = DiagGaussian::new(&mean, &log_std);
        let a = Matrix::zeros(1, 2);
        let lp = d.log_prob(&a)[0];
        assert!((lp - (-LOG_2PI)).abs() < 1e-4);
    }

    #[test]
    fn gaussian_entropy_increases_with_std() {
        let mean = Matrix::zeros(1, 2);
        let small = [0.0f32, 0.0];
        let large = [1.0f32, 1.0];
        let h_small = DiagGaussian::new(&mean, &small).entropy();
        let h_large = DiagGaussian::new(&mean, &large).entropy();
        assert!(h_large > h_small);
    }

    #[test]
    fn gaussian_sample_statistics() {
        let mut rng = ChaCha8Rng::seed_from_u64(11);
        let mean = Matrix::from_vec(1, 1, vec![2.0]);
        let log_std = [0.0f32]; // σ = 1
        let d = DiagGaussian::new(&mean, &log_std);
        let n = 4000;
        let mut sum = 0.0f64;
        let mut sq = 0.0f64;
        for _ in 0..n {
            let s = d.sample(&mut rng)[(0, 0)] as f64;
            sum += s;
            sq += s * s;
        }
        let m = sum / n as f64;
        let var = sq / n as f64 - m * m;
        assert!((m - 2.0).abs() < 0.1, "mean {m}");
        assert!((var - 1.0).abs() < 0.15, "var {var}");
    }

    #[test]
    fn gaussian_grad_matches_finite_difference() {
        let mean = Matrix::from_vec(1, 2, vec![0.3, -0.2]);
        let log_std = [0.1f32, -0.3];
        let a = Matrix::from_vec(1, 2, vec![0.8, 0.1]);
        let d = DiagGaussian::new(&mean, &log_std);
        let (dm, dls) = d.log_prob_grad(&a, &[1.0]);

        let eps = 1e-3f32;
        for c in 0..2 {
            let mut mp = mean.clone();
            mp[(0, c)] += eps;
            let mut mm = mean.clone();
            mm[(0, c)] -= eps;
            let lp = DiagGaussian::new(&mp, &log_std).log_prob(&a)[0];
            let lm = DiagGaussian::new(&mm, &log_std).log_prob(&a)[0];
            let num = (lp - lm) / (2.0 * eps);
            assert!((num - dm[(0, c)]).abs() < 1e-2, "d_mean[{c}]");

            let mut lsp = log_std;
            lsp[c] += eps;
            let mut lsm = log_std;
            lsm[c] -= eps;
            let lp = DiagGaussian::new(&mean, &lsp).log_prob(&a)[0];
            let lm = DiagGaussian::new(&mean, &lsm).log_prob(&a)[0];
            let num = (lp - lm) / (2.0 * eps);
            assert!((num - dls[c]).abs() < 1e-2, "d_log_std[{c}]");
        }
    }
}
