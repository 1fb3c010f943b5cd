//! Gated recurrent unit with truncated back-propagation through time.
//!
//! The e-Divert baseline (Liu et al., TMC 2019 — cited as reference 40 in the paper)
//! uses a recurrent core for sequential modeling. The original uses an LSTM;
//! we implement a GRU (same gated-recurrence family, fewer parameters), noted
//! as a substitution in DESIGN.md.
//!
//! Gate equations (our convention):
//! ```text
//! z = σ(x·Wxz + h·Whz + bz)        update gate
//! r = σ(x·Wxr + h·Whr + br)        reset gate
//! n = tanh(x·Wxn + (r ⊙ h)·Whn + bn)  candidate
//! h' = (1 − z) ⊙ n + z ⊙ h
//! ```

use crate::activation::{sigmoid, tanh, Activation};
use crate::init::Init;
use crate::matrix::Matrix;
use crate::param::Param;
use rand::Rng;
use serde::{Deserialize, Serialize};

/// Per-step cache needed for BPTT.
#[derive(Debug, Clone)]
struct StepCache {
    x: Matrix,
    h_prev: Matrix,
    z: Matrix,
    r: Matrix,
    n: Matrix,
    rh: Matrix,
}

/// A single-layer GRU cell operating on batched step inputs.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct GruCell {
    /// Input→update-gate weights.
    pub wxz: Param,
    /// State→update-gate weights.
    pub whz: Param,
    /// Update-gate bias.
    pub bz: Param,
    /// Input→reset-gate weights.
    pub wxr: Param,
    /// State→reset-gate weights.
    pub whr: Param,
    /// Reset-gate bias.
    pub br: Param,
    /// Input→candidate weights.
    pub wxn: Param,
    /// State→candidate weights.
    pub whn: Param,
    /// Candidate bias.
    pub bn: Param,
    in_dim: usize,
    hidden_dim: usize,
    #[serde(skip)]
    caches: Vec<StepCache>,
}

impl GruCell {
    /// Xavier-initialised cell mapping `in_dim` inputs to `hidden_dim` state.
    pub fn new<R: Rng + ?Sized>(in_dim: usize, hidden_dim: usize, rng: &mut R) -> Self {
        let wi = |rng: &mut R| Param::new(Init::XavierUniform.sample(in_dim, hidden_dim, rng));
        let wh = |rng: &mut R| Param::new(Init::XavierUniform.sample(hidden_dim, hidden_dim, rng));
        let b = || Param::new(Matrix::zeros(1, hidden_dim));
        Self {
            wxz: wi(rng),
            whz: wh(rng),
            bz: b(),
            wxr: wi(rng),
            whr: wh(rng),
            br: b(),
            wxn: wi(rng),
            whn: wh(rng),
            bn: b(),
            in_dim,
            hidden_dim,
            caches: Vec::new(),
        }
    }

    /// Input feature dimension.
    pub fn in_dim(&self) -> usize {
        self.in_dim
    }

    /// Hidden-state dimension.
    pub fn hidden_dim(&self) -> usize {
        self.hidden_dim
    }

    /// Zero-state for a batch of `b` sequences.
    pub fn zero_state(&self, b: usize) -> Matrix {
        Matrix::zeros(b, self.hidden_dim)
    }

    /// Forget all cached steps (start a new BPTT window).
    pub fn reset_cache(&mut self) {
        self.caches.clear();
    }

    /// One step, caching intermediates for `backward_sequence`.
    pub fn forward(&mut self, x: &Matrix, h_prev: &Matrix) -> Matrix {
        let (h, cache) = self.step(x, h_prev);
        self.caches.push(cache);
        h
    }

    /// One step without caching (inference).
    pub fn forward_inference(&self, x: &Matrix, h_prev: &Matrix) -> Matrix {
        self.step(x, h_prev).0
    }

    fn step(&self, x: &Matrix, h_prev: &Matrix) -> (Matrix, StepCache) {
        assert_eq!(x.cols(), self.in_dim, "GRU input dim mismatch");
        assert_eq!(h_prev.cols(), self.hidden_dim, "GRU state dim mismatch");
        let z = (&x.matmul(&self.wxz.value) + &h_prev.matmul(&self.whz.value))
            .add_row_broadcast(self.bz.value.row(0))
            .map(sigmoid);
        let r = (&x.matmul(&self.wxr.value) + &h_prev.matmul(&self.whr.value))
            .add_row_broadcast(self.br.value.row(0))
            .map(sigmoid);
        let rh = r.hadamard(h_prev);
        let n = (&x.matmul(&self.wxn.value) + &rh.matmul(&self.whn.value))
            .add_row_broadcast(self.bn.value.row(0))
            .map(tanh);
        // h' = (1 - z) ⊙ n + z ⊙ h_prev
        let mut h = Matrix::zeros(x.rows(), self.hidden_dim);
        for i in 0..h.len() {
            let zi = z.as_slice()[i];
            h.as_mut_slice()[i] = (1.0 - zi) * n.as_slice()[i] + zi * h_prev.as_slice()[i];
        }
        let cache = StepCache { x: x.clone(), h_prev: h_prev.clone(), z, r, n, rh };
        (h, cache)
    }

    /// BPTT over all cached steps. `grad_h_per_step[t]` is `dL/dh_t` from the
    /// loss at step `t` (zeros where a step contributes no direct loss).
    /// Accumulates parameter gradients; returns `dL/dx_t` per step.
    ///
    /// # Panics
    /// Panics if the number of supplied gradients differs from the number of
    /// cached steps.
    pub fn backward_sequence(&mut self, grad_h_per_step: &[Matrix]) -> Vec<Matrix> {
        assert_eq!(
            grad_h_per_step.len(),
            self.caches.len(),
            "gradient count must equal cached step count"
        );
        let steps = self.caches.len();
        let mut dx_all = vec![Matrix::zeros(0, 0); steps];
        let mut carry: Option<Matrix> = None; // dL/dh_t flowing backwards

        for t in (0..steps).rev() {
            let cache = self.caches[t].clone();
            let mut gh = grad_h_per_step[t].clone();
            if let Some(c) = carry.take() {
                gh += &c;
            }

            // h = (1-z)⊙n + z⊙h_prev
            let h_minus_n = &cache.h_prev - &cache.n;
            let mut daz = gh.hadamard(&h_minus_n);
            let one_minus_z = cache.z.map(|v| 1.0 - v);
            let mut dan = gh.hadamard(&one_minus_z);
            let mut dh_prev = gh.hadamard(&cache.z);

            // n = tanh(a_n)
            Activation::Tanh.backward_from_output(&mut dan, &cache.n);
            self.wxn.grad.add_scaled(&cache.x.t_matmul(&dan), 1.0);
            self.whn.grad.add_scaled(&cache.rh.t_matmul(&dan), 1.0);
            add_bias_grad(&mut self.bn, &dan);
            let mut dx = dan.matmul_t(&self.wxn.value);
            let drh = dan.matmul_t(&self.whn.value);
            let mut dar = drh.hadamard(&cache.h_prev);
            dh_prev += &drh.hadamard(&cache.r);

            // r = σ(a_r)
            Activation::Sigmoid.backward_from_output(&mut dar, &cache.r);
            self.wxr.grad.add_scaled(&cache.x.t_matmul(&dar), 1.0);
            self.whr.grad.add_scaled(&cache.h_prev.t_matmul(&dar), 1.0);
            add_bias_grad(&mut self.br, &dar);
            dx += &dar.matmul_t(&self.wxr.value);
            dh_prev += &dar.matmul_t(&self.whr.value);

            // z = σ(a_z)
            Activation::Sigmoid.backward_from_output(&mut daz, &cache.z);
            self.wxz.grad.add_scaled(&cache.x.t_matmul(&daz), 1.0);
            self.whz.grad.add_scaled(&cache.h_prev.t_matmul(&daz), 1.0);
            add_bias_grad(&mut self.bz, &daz);
            dx += &daz.matmul_t(&self.wxz.value);
            dh_prev += &daz.matmul_t(&self.whz.value);

            dx_all[t] = dx;
            carry = Some(dh_prev);
        }
        self.caches.clear();
        dx_all
    }

    /// Mutable references to all nine parameter tensors.
    pub fn params_mut(&mut self) -> Vec<&mut Param> {
        vec![
            &mut self.wxz,
            &mut self.whz,
            &mut self.bz,
            &mut self.wxr,
            &mut self.whr,
            &mut self.br,
            &mut self.wxn,
            &mut self.whn,
            &mut self.bn,
        ]
    }

    /// Shared references to all nine parameter tensors.
    pub fn params(&self) -> Vec<&Param> {
        vec![
            &self.wxz, &self.whz, &self.bz, &self.wxr, &self.whr, &self.br, &self.wxn, &self.whn,
            &self.bn,
        ]
    }

    /// Zero every accumulated gradient.
    pub fn zero_grad(&mut self) {
        for p in self.params_mut() {
            p.zero_grad();
        }
    }
}

fn add_bias_grad(bias: &mut Param, grad: &Matrix) {
    let col_sums = grad.sum_rows();
    for (g, s) in bias.grad.as_mut_slice().iter_mut().zip(col_sums.iter()) {
        *g += s;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    fn rng() -> ChaCha8Rng {
        ChaCha8Rng::seed_from_u64(17)
    }

    #[test]
    fn forward_shapes() {
        let mut cell = GruCell::new(4, 6, &mut rng());
        let h0 = cell.zero_state(3);
        let x = Matrix::zeros(3, 4);
        let h1 = cell.forward(&x, &h0);
        assert_eq!(h1.shape(), (3, 6));
    }

    #[test]
    fn zero_input_zero_state_gives_zero_output_with_zero_bias() {
        // With all-zero input and state, z and r are σ(0)=0.5, n = tanh(0)=0,
        // so h' = 0.5·0 + 0.5·0 = 0.
        let mut cell = GruCell::new(3, 5, &mut rng());
        let h0 = cell.zero_state(1);
        let x = Matrix::zeros(1, 3);
        let h1 = cell.forward(&x, &h0);
        assert!(h1.as_slice().iter().all(|&v| v.abs() < 1e-6));
    }

    #[test]
    fn bptt_gradient_matches_finite_difference() {
        let mut cell = GruCell::new(3, 4, &mut rng());
        let x0 = Matrix::from_vec(1, 3, vec![0.5, -0.3, 0.2]);
        let x1 = Matrix::from_vec(1, 3, vec![-0.1, 0.7, 0.4]);

        // Loss: sum of final hidden state over a 2-step rollout.
        let loss = |cell: &GruCell| {
            let h0 = cell.zero_state(1);
            let h1 = cell.forward_inference(&x0, &h0);
            let h2 = cell.forward_inference(&x1, &h1);
            h2.sum()
        };

        cell.zero_grad();
        cell.reset_cache();
        let h0 = cell.zero_state(1);
        let h1 = cell.forward(&x0, &h0);
        let h2 = cell.forward(&x1, &h1);
        let zero = Matrix::zeros(1, 4);
        let ones = Matrix::full(h2.rows(), h2.cols(), 1.0);
        cell.backward_sequence(&[zero, ones]);

        let eps = 1e-3f32;
        // Probe a couple of parameters from different weight matrices.
        let probes: Vec<(usize, usize, usize)> = vec![(0, 0, 0), (6, 1, 2), (2, 0, 1)];
        for (param_idx, i, j) in probes {
            let analytic = cell.params()[param_idx].grad[(i, j)];
            {
                let p = &mut cell.params_mut()[param_idx];
                p.value[(i, j)] += eps;
            }
            let lp = loss(&cell);
            {
                let p = &mut cell.params_mut()[param_idx];
                p.value[(i, j)] -= 2.0 * eps;
            }
            let lm = loss(&cell);
            {
                let p = &mut cell.params_mut()[param_idx];
                p.value[(i, j)] += eps;
            }
            let num = (lp - lm) / (2.0 * eps);
            assert!(
                (num - analytic).abs() < 2e-2,
                "param {param_idx}[{i},{j}]: numeric {num} vs analytic {analytic}"
            );
        }
    }

    #[test]
    #[should_panic(expected = "gradient count must equal cached step count")]
    fn backward_with_wrong_step_count_panics() {
        let mut cell = GruCell::new(2, 2, &mut rng());
        let h0 = cell.zero_state(1);
        let x = Matrix::zeros(1, 2);
        cell.forward(&x, &h0);
        cell.backward_sequence(&[]);
    }

    #[test]
    fn state_carries_information() {
        let cell = GruCell::new(2, 4, &mut rng());
        let h0 = cell.zero_state(1);
        let xa = Matrix::from_vec(1, 2, vec![1.0, 0.0]);
        let xb = Matrix::from_vec(1, 2, vec![0.0, 1.0]);
        let ha = cell.forward_inference(&xa, &h0);
        let hb = cell.forward_inference(&xb, &h0);
        assert_ne!(ha, hb, "different inputs must yield different states");
        // Same next input, different histories → different outputs.
        let x2 = Matrix::from_vec(1, 2, vec![0.5, 0.5]);
        let out_a = cell.forward_inference(&x2, &ha);
        let out_b = cell.forward_inference(&x2, &hb);
        assert_ne!(out_a, out_b, "GRU must remember its history");
    }
}
