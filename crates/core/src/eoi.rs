//! i-EOI: intrinsic-reward-driven exploitation of individuality (§V-A).
//!
//! A global probabilistic classifier `p_µ(k | o^k)` is trained to identify
//! which UV an observation belongs to. Its confidence on the true owner is
//! paid back as an intrinsic reward (Eqn 19), and the loss adds a
//! mutual-information regulariser (Eqn 21):
//! `L_EOI = CE(p_µ(·|o), one_hot(k)) + ε · H(p_µ(·|o))` — minimising the
//! conditional entropy `H(K|O)` maximises `MI(K;O)` (Eqn 20).

use agsc_nn::activation::softmax_rows;
use agsc_nn::loss::{cross_entropy_classes, entropy_of_softmax};
use agsc_nn::{Adam, Matrix, Mlp};
use rand::Rng;
use serde::{Deserialize, Serialize};

/// The self-supervised identity classifier.
#[derive(Debug, Serialize, Deserialize)]
pub struct EoiClassifier {
    net: Mlp,
    opt: Adam,
    epsilon: f32,
}

/// `clone_from` refills the destination's buffers in place.
impl Clone for EoiClassifier {
    fn clone(&self) -> Self {
        Self { net: self.net.clone(), opt: self.opt.clone(), epsilon: self.epsilon }
    }

    fn clone_from(&mut self, src: &Self) {
        self.net.clone_from(&src.net);
        self.opt.clone_from(&src.opt);
        self.epsilon = src.epsilon;
    }
}

impl EoiClassifier {
    /// Classifier mapping `obs_dim` observations to `num_agents` logits.
    pub fn new<R: Rng + ?Sized>(
        obs_dim: usize,
        hidden: &[usize],
        num_agents: usize,
        lr: f32,
        epsilon: f32,
        rng: &mut R,
    ) -> Self {
        let mut sizes = vec![obs_dim];
        sizes.extend_from_slice(hidden);
        sizes.push(num_agents);
        Self { net: Mlp::tanh(&sizes, rng), opt: Adam::new(lr), epsilon }
    }

    /// Number of identity classes.
    pub fn num_agents(&self) -> usize {
        self.net.out_dim()
    }

    /// Intrinsic reward `p_µ(k | o^k)` for a batch of observations owned by
    /// agent `k` (one probability per row).
    pub fn intrinsic(&self, obs: &Matrix, k: usize) -> Vec<f32> {
        assert!(k < self.num_agents(), "agent index out of range");
        let probs = softmax_rows(&self.net.forward_inference(obs));
        (0..probs.rows()).map(|r| probs[(r, k)]).collect()
    }

    /// The network, for tests that poison it.
    #[cfg(test)]
    pub(crate) fn net_mut(&mut self) -> &mut Mlp {
        &mut self.net
    }

    /// Predicted identity distribution for a batch of observations.
    pub fn predict(&self, obs: &Matrix) -> Matrix {
        softmax_rows(&self.net.forward_inference(obs))
    }

    /// One gradient step on Eqn 21 over a labelled batch; returns the loss.
    pub fn train_batch(&mut self, obs: &Matrix, labels: &[usize]) -> f32 {
        assert_eq!(obs.rows(), labels.len(), "label count mismatch");
        if obs.rows() == 0 {
            return 0.0;
        }
        self.net.zero_grad();
        let logits = self.net.forward(obs);
        let (ce, ce_grad) = cross_entropy_classes(&logits, labels);
        let (h, neg_h_grad) = entropy_of_softmax(&logits);
        // L = CE + ε·H  ⇒  dL/dlogits = dCE − ε·d(−H).
        let mut grad = ce_grad;
        grad.add_scaled(&neg_h_grad, -self.epsilon);
        self.net.backward_params(obs, &grad);
        self.net.clip_grad_norm(5.0);
        self.opt.step(&mut self.net.params_mut());
        ce + self.epsilon * h
    }

    /// One pass over a labelled batch in `minibatches` interleaved
    /// minibatches (row `r` goes to minibatch `r mod minibatches`), one
    /// Eqn 21 step each; returns the mean loss over the steps. One
    /// minibatch is one [`train_batch`](Self::train_batch) step on the
    /// whole batch.
    pub fn fit(&mut self, obs: &Matrix, labels: &[usize], minibatches: usize) -> f32 {
        assert_eq!(obs.rows(), labels.len(), "label count mismatch");
        assert!(minibatches > 0, "at least one minibatch required");
        let batches = interleaved(labels.len(), minibatches);
        if batches.is_empty() {
            return 0.0;
        }
        let total: f32 = batches
            .iter()
            .map(|idx| {
                let mb_labels: Vec<usize> = idx.iter().map(|&r| labels[r]).collect();
                self.train_batch(&obs.gather_rows(idx), &mb_labels)
            })
            .sum();
        total / batches.len() as f32
    }

    /// Classification accuracy of predicted identity distributions
    /// ([`predict`](Self::predict)'s rows) against their labels. A row
    /// holding a NaN counts as a miss.
    pub fn accuracy(probs: &Matrix, labels: &[usize]) -> f32 {
        assert_eq!(probs.rows(), labels.len(), "label count mismatch");
        if labels.is_empty() {
            return 0.0;
        }
        let correct =
            labels.iter().enumerate().filter(|&(r, &label)| argmax(probs.row(r)) == Some(label));
        correct.count() as f32 / labels.len() as f32
    }
}

/// The row indices `0..rows` split into `min(minibatches, rows)`
/// interleaved minibatches: row `r` goes to minibatch `r mod minibatches`. The trainer
/// stacks its batch agent by agent, so contiguous chunks would give steps
/// that each see one identity; interleaving gives every step every agent
/// (when each agent has at least `minibatches` rows) and draws no
/// randomness.
fn interleaved(rows: usize, minibatches: usize) -> Vec<Vec<usize>> {
    let m = minibatches.min(rows);
    (0..m).map(|first| (first..rows).step_by(m).collect()).collect()
}

/// Index of the row's largest entry (the last one on ties), or `None` if
/// the row is empty or holds a NaN.
fn argmax(row: &[f32]) -> Option<usize> {
    if row.iter().any(|p| p.is_nan()) {
        return None;
    }
    row.iter().enumerate().max_by(|a, b| a.1.total_cmp(b.1)).map(|(i, _)| i)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    /// Two agents with well-separated observation clusters.
    fn labelled_batch() -> (Matrix, Vec<usize>) {
        let mut rows = Vec::new();
        let mut labels = Vec::new();
        for i in 0..20 {
            let jitter = (i % 5) as f32 * 0.01;
            rows.push(vec![0.9 + jitter, 0.1]);
            labels.push(0);
            rows.push(vec![0.1, 0.9 - jitter]);
            labels.push(1);
        }
        (Matrix::from_rows(&rows), labels)
    }

    #[test]
    fn intrinsic_probabilities_sum_to_one() {
        let mut rng = ChaCha8Rng::seed_from_u64(1);
        let c = EoiClassifier::new(2, &[16], 3, 1e-3, 0.1, &mut rng);
        let obs = Matrix::from_vec(1, 2, vec![0.5, 0.5]);
        let total: f32 = (0..3).map(|k| c.intrinsic(&obs, k)[0]).sum();
        assert!((total - 1.0).abs() < 1e-5);
    }

    #[test]
    fn training_learns_identities() {
        let mut rng = ChaCha8Rng::seed_from_u64(2);
        let mut c = EoiClassifier::new(2, &[16], 2, 5e-3, 0.05, &mut rng);
        let (obs, labels) = labelled_batch();
        let before = EoiClassifier::accuracy(&c.predict(&obs), &labels);
        let mut last = f32::INFINITY;
        for _ in 0..200 {
            last = c.train_batch(&obs, &labels);
        }
        let after = EoiClassifier::accuracy(&c.predict(&obs), &labels);
        assert!(after > 0.95, "accuracy after training: {after} (before {before})");
        assert!(last < 0.7, "loss should fall, got {last}");
    }

    #[test]
    fn intrinsic_reward_grows_for_identifiable_obs() {
        let mut rng = ChaCha8Rng::seed_from_u64(3);
        let mut c = EoiClassifier::new(2, &[16], 2, 5e-3, 0.05, &mut rng);
        let (obs, labels) = labelled_batch();
        let probe = Matrix::from_vec(1, 2, vec![0.95, 0.1]);
        let before = c.intrinsic(&probe, 0)[0];
        for _ in 0..200 {
            c.train_batch(&obs, &labels);
        }
        let after = c.intrinsic(&probe, 0)[0];
        assert!(
            after > before && after > 0.9,
            "agent-0-like obs should earn high intrinsic reward ({before} → {after})"
        );
    }

    #[test]
    fn fit_with_one_minibatch_is_train_batch() {
        let (obs, labels) = labelled_batch();
        let mut rng = ChaCha8Rng::seed_from_u64(6);
        let mut a = EoiClassifier::new(2, &[16], 2, 1e-2, 0.1, &mut rng);
        let mut b = a.clone();
        for _ in 0..3 {
            let la = a.train_batch(&obs, &labels);
            let lb = b.fit(&obs, &labels, 1);
            assert_eq!(la.to_bits(), lb.to_bits(), "loss");
        }
        // Values, gradients and Adam moments of every parameter.
        let bits = |c: &mut EoiClassifier| -> Vec<u32> {
            let params = c.net.params_mut();
            let mats = params.iter().flat_map(|p| [&p.value, &p.grad, &p.m, &p.v]);
            mats.flat_map(|m| m.as_slice().iter().map(|x| x.to_bits())).collect()
        };
        assert_eq!(bits(&mut a), bits(&mut b), "parameters");
    }

    #[test]
    fn interleaved_minibatches_hold_every_label() {
        // The trainer's layout: 4 agents, each with `t` consecutive rows.
        for (t, m) in [(25, 8), (8, 8), (100, 8), (25, 1)] {
            let labels: Vec<usize> = (0..4).flat_map(|k| std::iter::repeat_n(k, t)).collect();
            let batches = interleaved(labels.len(), m);
            assert_eq!(batches.len(), m);
            let mut seen: Vec<usize> = batches.concat();
            seen.sort_unstable();
            assert_eq!(seen, (0..labels.len()).collect::<Vec<_>>(), "a partition of the rows");
            for idx in &batches {
                for k in 0..4 {
                    assert!(idx.iter().any(|&r| labels[r] == k), "t={t} m={m}: no label {k}");
                }
            }
        }
        assert_eq!(interleaved(3, 8), vec![vec![0], vec![1], vec![2]]);
        assert!(interleaved(0, 8).is_empty());
    }

    #[test]
    fn empty_batch_is_a_noop() {
        let mut rng = ChaCha8Rng::seed_from_u64(4);
        let mut c = EoiClassifier::new(2, &[8], 2, 1e-3, 0.1, &mut rng);
        let empty = Matrix::zeros(0, 2);
        assert_eq!(c.train_batch(&empty, &[]), 0.0);
        assert_eq!(c.fit(&empty, &[], 8), 0.0);
        assert_eq!(EoiClassifier::accuracy(&c.predict(&empty), &[]), 0.0);
    }

    #[test]
    fn nan_rows_count_as_misses() {
        let probs = Matrix::from_vec(3, 2, vec![0.9, 0.1, f32::NAN, 0.2, 0.3, f32::NAN]);
        assert_eq!(EoiClassifier::accuracy(&probs, &[0, 0, 1]), 1.0 / 3.0);
        assert_eq!(EoiClassifier::accuracy(&probs, &[0, 1, 1]), 1.0 / 3.0);
        let ties = Matrix::from_vec(1, 3, vec![0.4, 0.4, 0.2]);
        assert_eq!(EoiClassifier::accuracy(&ties, &[1]), 1.0, "ties go to the last index");
    }

    #[test]
    #[should_panic(expected = "agent index out of range")]
    fn intrinsic_rejects_bad_agent() {
        let mut rng = ChaCha8Rng::seed_from_u64(5);
        let c = EoiClassifier::new(2, &[8], 2, 1e-3, 0.1, &mut rng);
        let obs = Matrix::zeros(1, 2);
        c.intrinsic(&obs, 5);
    }
}
