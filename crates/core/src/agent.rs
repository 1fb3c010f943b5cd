//! Per-UV actor-critic networks and PPO update machinery.
//!
//! Each UV `k` holds (Algorithm 1, line 2): a Gaussian policy `π^k`, an
//! individual value network `V^k`, and — for h-CoPO — the heterogeneous and
//! homogeneous neighbourhood value networks `V^k_HE`, `V^k_HO`.

use agsc_nn::{Activation, Adam, DiagGaussian, Init, Matrix, Mlp, Param};
use rand::Rng;
use serde::{Deserialize, Serialize};

use crate::config::TrainConfig;

/// Which of the agent's critics to address.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CriticKind {
    /// Individual value network `V^k` (input: obs, or state under CC).
    Own,
    /// Heterogeneous neighbourhood value network `V^k_HE`.
    Heterogeneous,
    /// Homogeneous neighbourhood value network `V^k_HO`.
    Homogeneous,
}

/// One UV's trainable networks.
#[derive(Debug, Serialize, Deserialize)]
pub struct PpoAgent {
    /// Policy trunk: obs → 2-D action mean, tanh-squashed into `[-1, 1]`.
    actor: Mlp,
    /// State-independent log standard deviations (length 2).
    log_std: Param,
    /// Individual critic `V^k`.
    critic: Mlp,
    /// `V^k_HE` — always takes the local observation.
    critic_he: Mlp,
    /// `V^k_HO` — always takes the local observation.
    critic_ho: Mlp,
    actor_opt: Adam,
    critic_opt: Adam,
}

/// `clone_from` refills the destination's buffers in place (the trainer's
/// NaN-guard snapshot does, every iteration).
impl Clone for PpoAgent {
    fn clone(&self) -> Self {
        Self {
            actor: self.actor.clone(),
            log_std: self.log_std.clone(),
            critic: self.critic.clone(),
            critic_he: self.critic_he.clone(),
            critic_ho: self.critic_ho.clone(),
            actor_opt: self.actor_opt.clone(),
            critic_opt: self.critic_opt.clone(),
        }
    }

    fn clone_from(&mut self, src: &Self) {
        self.actor.clone_from(&src.actor);
        self.log_std.clone_from(&src.log_std);
        self.critic.clone_from(&src.critic);
        self.critic_he.clone_from(&src.critic_he);
        self.critic_ho.clone_from(&src.critic_ho);
        self.actor_opt.clone_from(&src.actor_opt);
        self.critic_opt.clone_from(&src.critic_opt);
    }
}

/// Stats of one PPO policy update.
#[derive(Debug, Clone, Copy, Default)]
pub struct PpoStats {
    /// Mean importance ratio.
    pub mean_ratio: f32,
    /// Fraction of samples where the clip was binding.
    pub clip_fraction: f32,
    /// Policy entropy after the update.
    pub entropy: f32,
    /// Approximate KL divergence old‖new, the standard `E[logπ_old − logπ_new]`
    /// estimator evaluated before the step.
    pub approx_kl: f32,
    /// Pre-clip L2 norm of the policy gradient.
    pub grad_norm: f32,
}

/// Stats of one critic regression step.
#[derive(Debug, Clone, Copy, Default)]
pub struct CriticStats {
    /// MSE loss against the targets (Eqn 26).
    pub loss: f32,
    /// Pre-clip L2 norm of the critic gradient.
    pub grad_norm: f32,
}

impl PpoAgent {
    /// Build an agent with `cfg`'s hidden widths, initial log-σ and
    /// learning rates. `critic_in_dim` is the individual critic's input size
    /// (obs dim for IPPO, global-state dim for the centralised-critic
    /// variant); the neighbourhood critics always take the observation.
    pub fn new<R: Rng + ?Sized>(
        obs_dim: usize,
        critic_in_dim: usize,
        action_dim: usize,
        cfg: &TrainConfig,
        rng: &mut R,
    ) -> Self {
        let hidden = &cfg.hidden;
        let sizes = |input: usize, output: usize| {
            let mut s = vec![input];
            s.extend_from_slice(hidden);
            s.push(output);
            s
        };
        let actor = Mlp::new(
            &sizes(obs_dim, action_dim),
            Activation::Tanh,
            Activation::Tanh,
            Init::XavierUniform,
            Init::SmallUniform,
            rng,
        );
        Self {
            actor,
            log_std: Param::new(Matrix::full(1, action_dim, cfg.init_log_std)),
            critic: Mlp::tanh(&sizes(critic_in_dim, 1), rng),
            critic_he: Mlp::tanh(&sizes(obs_dim, 1), rng),
            critic_ho: Mlp::tanh(&sizes(obs_dim, 1), rng),
            actor_opt: Adam::new(cfg.actor_lr),
            critic_opt: Adam::new(cfg.critic_lr),
        }
    }

    /// Action dimension.
    pub fn action_dim(&self) -> usize {
        self.actor.out_dim()
    }

    /// The policy trunk.
    pub fn actor(&self) -> &Mlp {
        &self.actor
    }

    /// The policy trunk, mutably: for callers that set its weights (a
    /// fault-injection test poisons them).
    pub fn actor_mut(&mut self) -> &mut Mlp {
        &mut self.actor
    }

    /// Current log-σ values.
    pub fn log_std(&self) -> &[f32] {
        self.log_std.value.as_slice()
    }

    /// Deterministic (mean) action for evaluation.
    pub fn act_deterministic(&self, obs: &[f32]) -> Vec<f32> {
        let o = Matrix::row_vector(obs);
        self.actor.forward_inference(&o).as_slice().to_vec()
    }

    /// The chosen critic.
    fn critic_mut(&mut self, which: CriticKind) -> &mut Mlp {
        match which {
            CriticKind::Own => &mut self.critic,
            CriticKind::Heterogeneous => &mut self.critic_he,
            CriticKind::Homogeneous => &mut self.critic_ho,
        }
    }

    /// Value estimates of the chosen critic for a batch of inputs.
    ///
    /// This is the training forward (bit-equal to inference), so the
    /// returned [`CriticForward`] can later step that critic with
    /// [`critic_step`](Self::critic_step) without running it again. It
    /// borrows `input` for that step's backward.
    pub fn critic_forward<'a>(
        &mut self,
        input: &'a Matrix,
        which: CriticKind,
    ) -> CriticForward<'a> {
        CriticForward { which, input, pred: self.critic_mut(which).forward(input) }
    }

    /// One clipped-PPO ascent step on the surrogate objective (Eqn 25/28).
    ///
    /// `advantages` are whatever advantage the caller chose — `A^k` for the
    /// base module or the cooperation-aware `A^k_CO` for h-CoPO. `cfg`
    /// supplies the clip range, entropy bonus and gradient-norm clip.
    pub fn ppo_update(
        &mut self,
        obs: &Matrix,
        actions: &Matrix,
        old_log_probs: &[f32],
        advantages: &[f32],
        cfg: &TrainConfig,
    ) -> PpoStats {
        let TrainConfig { clip_eps, entropy_coef, max_grad_norm, .. } = *cfg;
        let b = obs.rows();
        assert!(b > 0, "empty PPO batch");
        assert_eq!(actions.rows(), b);
        assert_eq!(old_log_probs.len(), b);
        assert_eq!(advantages.len(), b);

        self.actor.zero_grad();
        self.log_std.zero_grad();

        let mean = self.actor.forward(obs);
        let dist = DiagGaussian::new(&mean, self.log_std.value.as_slice());
        let logp_new = dist.log_prob(actions);

        // Gradient of E[min(ϱA, clip(ϱ)A)] w.r.t. logπ_new: per the min rule,
        // the unclipped branch contributes ϱ·A where it is the active branch,
        // otherwise zero.
        let mut coeff = vec![0.0f32; b];
        let mut clipped = 0usize;
        let mut ratio_sum = 0.0f32;
        let mut kl_sum = 0.0f32;
        for i in 0..b {
            let ratio = (logp_new[i] - old_log_probs[i]).exp();
            ratio_sum += ratio;
            kl_sum += old_log_probs[i] - logp_new[i];
            let a = advantages[i];
            let unclipped = ratio * a;
            let clipped_val = ratio.clamp(1.0 - clip_eps, 1.0 + clip_eps) * a;
            if unclipped <= clipped_val {
                coeff[i] = ratio * a / b as f32;
            } else {
                clipped += 1;
            }
        }
        // Ascent on the objective ⇒ descent on its negation.
        let neg: Vec<f32> = coeff.iter().map(|c| -c).collect();
        let (d_mean, d_log_std) = dist.log_prob_grad(actions, &neg);
        self.actor.backward_params(obs, &d_mean);
        for (g, d) in self.log_std.grad.as_mut_slice().iter_mut().zip(d_log_std.iter()) {
            // Entropy bonus: dH/dlogσ = 1 per dimension (ascent ⇒ −coef).
            *g += d - entropy_coef;
        }

        let grad_norm = self.actor.clip_grad_norm(max_grad_norm);
        let mut params = self.actor.params_mut();
        params.push(&mut self.log_std);
        self.actor_opt.step(&mut params);
        // Keep σ in a sane band.
        self.log_std.value.map_inplace(|v| v.clamp(-3.0, 1.0));

        let entropy = DiagGaussian::new(&mean, self.log_std.value.as_slice()).entropy();
        PpoStats {
            mean_ratio: ratio_sum / b as f32,
            clip_fraction: clipped as f32 / b as f32,
            entropy,
            approx_kl: kl_sum / b as f32,
            grad_norm,
        }
    }

    /// One MSE regression step (Eqn 26) of the critic `fwd` came from,
    /// towards `targets`, backpropagated from that forward's cached
    /// activations; returns the loss and pre-clip gradient norm.
    ///
    /// Step each forward once, before that critic runs another forward.
    pub fn critic_step(
        &mut self,
        fwd: &CriticForward,
        targets: &[f32],
        max_grad_norm: f32,
    ) -> CriticStats {
        let [stats] = self.critic_steps([(fwd, targets)], max_grad_norm);
        stats
    }

    /// [`critic_step`](Self::critic_step) for each `(forward, targets)` of
    /// distinct critics, bit for bit as if called one after another in
    /// that order. Each critic backpropagates first, their gradient norms
    /// are then summed side by side ([`Mlp::clip_grad_norms`]), and the
    /// shared optimiser steps them in order. An empty batch steps nothing.
    ///
    /// # Panics
    /// Panics if two forwards came from one critic, or a forward's row
    /// count differs from its target count.
    pub fn critic_steps<const N: usize>(
        &mut self,
        steps: [(&CriticForward, &[f32]); N],
        max_grad_norm: f32,
    ) -> [CriticStats; N] {
        for (fwd, targets) in &steps {
            assert_eq!(fwd.pred.rows(), targets.len(), "target count mismatch");
        }
        if steps.iter().any(|(_, targets)| targets.is_empty()) {
            return [CriticStats::default(); N];
        }
        let Self { critic, critic_he, critic_ho, critic_opt, .. } = self;
        // In `CriticKind` order.
        let mut critics = [Some(critic), Some(critic_he), Some(critic_ho)];
        let mut nets = steps
            .map(|(fwd, _)| critics[fwd.which as usize].take().expect("one forward per critic"));
        let mut losses = [0.0; N];
        for ((net, (fwd, targets)), loss) in nets.iter_mut().zip(&steps).zip(&mut losses) {
            net.zero_grad();
            let target = Matrix::from_vec(targets.len(), 1, targets.to_vec());
            let (l, grad) = agsc_nn::loss::mse(&fwd.pred, &target);
            net.backward_params(fwd.input, &grad);
            *loss = l;
        }
        let norms = Mlp::clip_grad_norms(nets.each_mut().map(|n| &mut **n), max_grad_norm);
        for net in nets {
            critic_opt.step(&mut net.params_mut());
        }
        std::array::from_fn(|i| CriticStats { loss: losses[i], grad_norm: norms[i] })
    }

    /// A frozen copy of the policy — actor weights and log-σ, without the
    /// critics or any optimiser state: the behaviour policy `π_old` the
    /// LCF meta-gradient differentiates (Eqn 32).
    pub fn behaviour_policy(&self) -> BehaviourPolicy {
        BehaviourPolicy {
            actor: self.actor.values_copy(),
            log_std: self.log_std.value.as_slice().to_vec(),
        }
    }

    /// Flat gradient of the clipped surrogate `J` (with the given advantages)
    /// with respect to all policy parameters — the meta-gradient's first term
    /// (Eqn 31), evaluated at the *current* parameters.
    pub fn ppo_objective_grad(
        &mut self,
        obs: &Matrix,
        actions: &Matrix,
        old_log_probs: &[f32],
        advantages: &[f32],
        clip_eps: f32,
    ) -> Vec<f32> {
        let b = obs.rows();
        self.actor.zero_grad();
        self.log_std.zero_grad();
        let mean = self.actor.forward(obs);
        let dist = DiagGaussian::new(&mean, self.log_std.value.as_slice());
        let logp_new = dist.log_prob(actions);
        let mut coeff = vec![0.0f32; b];
        for i in 0..b {
            let ratio = (logp_new[i] - old_log_probs[i]).exp();
            let a = advantages[i];
            let unclipped = ratio * a;
            let clipped_val = ratio.clamp(1.0 - clip_eps, 1.0 + clip_eps) * a;
            if unclipped <= clipped_val {
                coeff[i] = ratio * a / b as f32;
            }
        }
        let (d_mean, d_log_std) = dist.log_prob_grad(actions, &coeff);
        self.actor.backward_params(obs, &d_mean);
        let mut flat = self.actor.flat_grads();
        flat.extend_from_slice(&d_log_std);
        self.actor.zero_grad();
        flat
    }
}

/// One critic's training forward: its value estimates, waiting for the
/// regression step ([`PpoAgent::critic_step`]) that reuses its cached
/// activations and the input it borrows. It names the critic it came from,
/// so the step cannot land on another one.
#[derive(Debug)]
pub struct CriticForward<'a> {
    which: CriticKind,
    input: &'a Matrix,
    pred: Matrix,
}

impl CriticForward<'_> {
    /// The critic's raw outputs (before any value-norm denormalisation),
    /// one per input row.
    pub fn values(&self) -> &[f32] {
        self.pred.as_slice()
    }
}

/// A snapshot of one agent's policy, taken by [`PpoAgent::behaviour_policy`].
#[derive(Debug)]
pub struct BehaviourPolicy {
    actor: Mlp,
    log_std: Vec<f32>,
}

impl BehaviourPolicy {
    /// Run the actor on `obs` once. The returned [`LogProbGrads`]
    /// backpropagates any number of coefficient vectors from that forward.
    pub fn log_prob_grads<'a>(
        &'a mut self,
        obs: &'a Matrix,
        actions: &'a Matrix,
    ) -> LogProbGrads<'a> {
        let mean = self.actor.forward(obs);
        LogProbGrads { actor: &mut self.actor, log_std: &self.log_std, obs, mean, actions }
    }
}

/// A behaviour policy's forward on one batch of `(obs, action)` pairs.
#[derive(Debug)]
pub struct LogProbGrads<'a> {
    actor: &'a mut Mlp,
    log_std: &'a [f32],
    obs: &'a Matrix,
    mean: Matrix,
    actions: &'a Matrix,
}

impl LogProbGrads<'_> {
    /// Flat gradient of `Σ_t coeff[t] · log π(a_t | o_t)` with respect to
    /// all policy parameters (actor weights then log-σ). The
    /// meta-gradient's second term (Eqn 32) is this with
    /// `coeff[t] = ∂A^k_CO/∂LCF · α / T`.
    pub fn grad(&mut self, coeff: &[f32]) -> Vec<f32> {
        self.actor.zero_grad();
        let dist = DiagGaussian::new(&self.mean, self.log_std);
        let (d_mean, d_log_std) = dist.log_prob_grad(self.actions, coeff);
        self.actor.backward_params(self.obs, &d_mean);
        let mut flat = self.actor.flat_grads();
        flat.extend_from_slice(&d_log_std);
        flat
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    fn rng() -> ChaCha8Rng {
        ChaCha8Rng::seed_from_u64(21)
    }

    /// Clip 0.2, no entropy bonus, a loose gradient clip.
    fn ppo_cfg() -> TrainConfig {
        TrainConfig {
            clip_eps: 0.2,
            entropy_coef: 0.0,
            max_grad_norm: 10.0,
            ..TrainConfig::default()
        }
    }

    fn agent() -> PpoAgent {
        let cfg = TrainConfig {
            hidden: vec![16],
            init_log_std: -0.5,
            actor_lr: 3e-3,
            critic_lr: 1e-2,
            ..TrainConfig::default()
        };
        PpoAgent::new(4, 4, 2, &cfg, &mut rng())
    }

    #[test]
    fn act_outputs_bounded_means_and_finite_logprob() {
        let a = agent();
        let mean = a.actor().forward_batch(&Matrix::row_vector(&[0.1, 0.2, 0.3, 0.4]));
        let dist = DiagGaussian::new(&mean, a.log_std());
        let action = dist.sample(&mut rng());
        assert_eq!(action.cols(), 2);
        assert!(dist.log_prob(&action)[0].is_finite());
        let det = a.act_deterministic(&[0.1, 0.2, 0.3, 0.4]);
        assert!(det.iter().all(|v| v.abs() <= 1.0), "tanh head bounds the mean");
    }

    #[test]
    fn ppo_update_increases_probability_of_advantaged_actions() {
        let mut a = agent();
        let obs = Matrix::from_vec(4, 4, vec![0.5; 16]);
        // Always the same state; action [0.5, 0.5] has positive advantage,
        // [-0.5, -0.5] negative.
        let actions = Matrix::from_vec(4, 2, vec![0.5, 0.5, -0.5, -0.5, 0.5, 0.5, -0.5, -0.5]);
        let adv = [1.0f32, -1.0, 1.0, -1.0];

        let lp_of = |agent: &PpoAgent| {
            let mean = agent.act_deterministic(&[0.5; 4]);
            let m = Matrix::row_vector(&mean);
            let d = DiagGaussian::new(&m, agent.log_std());
            let good = Matrix::from_vec(1, 2, vec![0.5, 0.5]);
            d.log_prob(&good)[0]
        };

        let mean0 =
            Matrix::from_rows(&(0..4).map(|_| a.act_deterministic(&[0.5; 4])).collect::<Vec<_>>());
        let dist0 = DiagGaussian::new(&mean0, a.log_std());
        let old_lp = dist0.log_prob(&actions);

        let before = lp_of(&a);
        for _ in 0..50 {
            a.ppo_update(&obs, &actions, &old_lp, &adv, &ppo_cfg());
        }
        let after = lp_of(&a);
        assert!(after > before, "good action log-prob should rise: {before} → {after}");
    }

    /// One regression step of `which` towards `targets`.
    fn step_towards(
        a: &mut PpoAgent,
        input: &Matrix,
        targets: &[f32],
        which: CriticKind,
    ) -> CriticStats {
        let fwd = a.critic_forward(input, which);
        a.critic_step(&fwd, targets, 10.0)
    }

    fn values(a: &mut PpoAgent, input: &Matrix, which: CriticKind) -> Vec<f32> {
        a.critic_forward(input, which).values().to_vec()
    }

    #[test]
    fn critic_step_reduces_loss() {
        let mut a = agent();
        let input = Matrix::from_vec(3, 4, vec![0.1; 12]);
        let targets = [1.0f32, 1.0, 1.0];
        let first = step_towards(&mut a, &input, &targets, CriticKind::Own);
        assert!(first.grad_norm > 0.0, "a non-trivial regression step must have gradient");
        let mut last = first;
        for _ in 0..300 {
            last = step_towards(&mut a, &input, &targets, CriticKind::Own);
        }
        assert!(
            last.loss < first.loss * 0.1,
            "critic loss should fall ({} → {})",
            first.loss,
            last.loss
        );
        let v = values(&mut a, &input, CriticKind::Own);
        assert!((v[0] - 1.0).abs() < 0.2);
    }

    #[test]
    fn three_critics_are_independent() {
        let mut a = agent();
        let input = Matrix::from_vec(2, 4, vec![0.3; 8]);
        for _ in 0..200 {
            step_towards(&mut a, &input, &[2.0, 2.0], CriticKind::Heterogeneous);
        }
        let own = values(&mut a, &input, CriticKind::Own);
        let he = values(&mut a, &input, CriticKind::Heterogeneous);
        let ho = values(&mut a, &input, CriticKind::Homogeneous);
        assert!((he[0] - 2.0).abs() < 0.3, "HE critic should have learned");
        assert!((own[0] - 2.0).abs() > 0.5, "own critic must be untouched");
        assert!((ho[0] - 2.0).abs() > 0.5, "HO critic must be untouched");
    }

    #[test]
    fn a_step_lands_on_the_critic_its_forward_came_from() {
        // Forward all three critics first, as the trainer's phase A does,
        // then step only the homogeneous one: the other two keep their
        // values, bit for bit.
        let mut a = agent();
        let input = Matrix::from_vec(2, 4, vec![0.3; 8]);
        let own = a.critic_forward(&input, CriticKind::Own);
        let he = a.critic_forward(&input, CriticKind::Heterogeneous);
        let ho = a.critic_forward(&input, CriticKind::Homogeneous);
        a.critic_step(&ho, &[2.0, 2.0], 10.0);
        assert_eq!(values(&mut a, &input, CriticKind::Own), own.values());
        assert_eq!(values(&mut a, &input, CriticKind::Heterogeneous), he.values());
        assert_ne!(values(&mut a, &input, CriticKind::Homogeneous), ho.values());
    }

    #[test]
    fn ppo_stats_expose_learning_health_signals() {
        let mut a = agent();
        let obs = Matrix::from_vec(2, 4, vec![0.5; 8]);
        let actions = Matrix::from_vec(2, 2, vec![0.2, 0.2, -0.2, -0.2]);
        let mean = Matrix::from_rows(&vec![a.act_deterministic(&[0.5; 4]); 2]);
        let old_lp = DiagGaussian::new(&mean, a.log_std()).log_prob(&actions);

        // First update starts at the behaviour policy: ratio 1, KL ≈ 0.
        let s0 = a.ppo_update(&obs, &actions, &old_lp, &[-1.0, -1.0], &ppo_cfg());
        assert!((s0.mean_ratio - 1.0).abs() < 1e-5);
        assert!(s0.approx_kl.abs() < 1e-6, "pre-step KL must be ~0, got {}", s0.approx_kl);
        assert!(s0.grad_norm > 0.0, "non-zero advantages must produce gradient");

        // Negative advantages push the policy away from the sampled actions,
        // so their log-probs fall and the KL estimate E[logπ_old − logπ_new]
        // turns strictly positive.
        let mut last = s0;
        for _ in 0..30 {
            last = a.ppo_update(&obs, &actions, &old_lp, &[-1.0, -1.0], &ppo_cfg());
        }
        assert!(last.approx_kl > 0.0, "diverged policy must show positive KL");
        assert!(last.entropy.is_finite());
    }

    #[test]
    fn log_prob_grads_have_full_length_and_respond_to_coeff() {
        let a = agent();
        let obs = Matrix::from_vec(2, 4, vec![0.2; 8]);
        let actions = Matrix::from_vec(2, 2, vec![0.1, 0.1, -0.1, -0.1]);
        let mut old = a.behaviour_policy();
        let mut grads = old.log_prob_grads(&obs, &actions);
        let g0 = grads.grad(&[0.0, 0.0]);
        assert!(g0.iter().all(|&v| v == 0.0), "zero coeff ⇒ zero grad");
        let g1 = grads.grad(&[1.0, 0.0]);
        assert!(g1.iter().any(|&v| v != 0.0));
        // actor params + 2 log_std entries
        assert_eq!(g1.len(), a.actor().param_count() + 2);
        // Backward passes from one forward do not accumulate into each other.
        assert_eq!(grads.grad(&[0.0, 0.0]), g0);
        assert_eq!(grads.grad(&[1.0, 0.0]), g1);
    }

    #[test]
    fn ppo_objective_grad_zero_for_zero_advantage() {
        let mut a = agent();
        let obs = Matrix::from_vec(2, 4, vec![0.2; 8]);
        let actions = Matrix::from_vec(2, 2, vec![0.1, 0.1, -0.1, -0.1]);
        let mean = Matrix::from_rows(&vec![a.act_deterministic(&[0.2; 4]); 2]);
        let old_lp = DiagGaussian::new(&mean, a.log_std()).log_prob(&actions);
        let g = a.ppo_objective_grad(&obs, &actions, &old_lp, &[0.0, 0.0], 0.2);
        assert!(g.iter().all(|&v| v == 0.0));
    }

    #[test]
    fn log_std_stays_in_band() {
        let mut a = agent();
        let obs = Matrix::from_vec(2, 4, vec![0.5; 8]);
        let actions = Matrix::from_vec(2, 2, vec![3.0, 3.0, 3.0, 3.0]); // far-out actions
        let old_lp = [-10.0f32, -10.0];
        for _ in 0..100 {
            a.ppo_update(&obs, &actions, &old_lp, &[5.0, 5.0], &ppo_cfg());
        }
        for &ls in a.log_std() {
            assert!((-3.0..=1.0).contains(&ls), "log_std escaped: {ls}");
        }
    }
}
