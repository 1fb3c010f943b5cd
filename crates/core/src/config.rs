//! Training configuration for h/i-MADRL (Algorithm 1 and §VI-B).

use serde::{Deserialize, Serialize};

/// Schedule for the intrinsic-reward weight `ω_in` (Eqn 19).
///
/// Table III tunes constant values {0.001, 0.003, 0.01}; Table IV probes
/// linear decay (0.01→0.001 and 0.003→0) and finds it *worse* — both options
/// are provided so the Table IV experiment can run.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum IntrinsicSchedule {
    /// Fixed `ω_in` for the whole run (the paper's winning choice, 0.003).
    Constant(f32),
    /// Linear interpolation from `from` to `to` over the training run.
    LinearDecay {
        /// Initial weight.
        from: f32,
        /// Final weight.
        to: f32,
    },
}

impl IntrinsicSchedule {
    /// The weight at training progress `frac ∈ [0, 1]`.
    pub fn weight_at(&self, frac: f32) -> f32 {
        match *self {
            IntrinsicSchedule::Constant(w) => w,
            IntrinsicSchedule::LinearDecay { from, to } => {
                let f = frac.clamp(0.0, 1.0);
                from + (to - from) * f
            }
        }
    }
}

/// Which plug-in modules are active — the paper's ablation grid (Table VI).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct Ablation {
    /// Use the i-EOI intrinsic reward (§V-A).
    pub use_eoi: bool,
    /// Use coordinated policy optimisation (§V-B).
    pub use_copo: bool,
    /// Treat heterogeneous and homogeneous neighbours separately (h-CoPO).
    /// When `false` with `use_copo`, both neighbour kinds are merged into a
    /// single set — the homogeneous CoPO baseline of §VI-A.
    pub heterogeneous: bool,
}

impl Ablation {
    /// Full h/i-MADRL.
    pub fn full() -> Self {
        Self { use_eoi: true, use_copo: true, heterogeneous: true }
    }

    /// h/i-MADRL(CoPO) baseline: plain CoPO instead of h-CoPO.
    pub fn copo_baseline() -> Self {
        Self { use_eoi: true, use_copo: true, heterogeneous: false }
    }

    /// Remove i-EOI only.
    pub fn without_eoi() -> Self {
        Self { use_eoi: false, use_copo: true, heterogeneous: true }
    }

    /// Remove h-CoPO only.
    pub fn without_copo() -> Self {
        Self { use_eoi: true, use_copo: false, heterogeneous: true }
    }

    /// Remove both plug-ins (bare base module).
    pub fn base_only() -> Self {
        Self { use_eoi: false, use_copo: false, heterogeneous: true }
    }
}

/// Hyperparameters of the h/i-MADRL trainer.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TrainConfig {
    /// Discount factor γ.
    pub gamma: f32,
    /// GAE λ (1.0 recovers Monte-Carlo; the paper's Eqn 24 is one-step TD,
    /// i.e. λ = 0; 0.95 is the PPO default — ablated in the bench suite).
    pub gae_lambda: f32,
    /// PPO clip ε (Eqn 25).
    pub clip_eps: f32,
    /// Actor learning rate.
    pub actor_lr: f32,
    /// Critic learning rate (all three per-UV critics + the overall critic).
    pub critic_lr: f32,
    /// i-EOI classifier learning rate.
    pub classifier_lr: f32,
    /// LCF meta learning rate (gradient ascent on φ, χ).
    pub lcf_lr: f32,
    /// Inner learning rate α in the first-order expansion (Eqn 32).
    pub meta_alpha: f32,
    /// Entropy bonus coefficient.
    pub entropy_coef: f32,
    /// Policy epochs per iteration `M1` (Algorithm 1, line 14).
    pub policy_epochs: usize,
    /// LCF epochs per iteration `M2` (Algorithm 1, line 21).
    pub lcf_epochs: usize,
    /// Hidden layer sizes of every MLP.
    pub hidden: Vec<usize>,
    /// Intrinsic-reward weight schedule `ω_in` (Eqn 19).
    pub intrinsic: IntrinsicSchedule,
    /// ε regulariser weight in the classifier loss (Eqn 21).
    pub eoi_epsilon: f32,
    /// Homogeneous-neighbour range as a fraction of the task-area diagonal
    /// (Table V; 25 % is the paper's winner).
    pub neighbor_range_frac: f64,
    /// Share one set of network parameters across all UVs ("SP" in
    /// Table III — the paper finds w/o SP is better for h-CoPO).
    pub shared_params: bool,
    /// Centralised critic on the global state ("CC" in Table III; also the
    /// MAPPO base-module switch).
    pub centralized_critic: bool,
    /// Which plug-ins are active.
    pub ablation: Ablation,
    /// Global gradient-norm clip.
    pub max_grad_norm: f32,
    /// Initial policy log-σ.
    pub init_log_std: f32,
    /// Use MAPPO-style value normalisation on critic targets.
    pub value_norm: bool,
    /// Guard each iteration against non-finite rewards/advantages/losses:
    /// the poisoned update is skipped and the last good parameters are
    /// restored (reported via `IterationStats::update_skipped`).
    #[serde(default = "default_nan_guard")]
    pub nan_guard: bool,
    /// Number of environment replicas stepped per rollout collection. `1`
    /// trains on the given env itself, bit-for-bit like a one-replica
    /// `VecEnv` (the golden test suite enforces this); larger values
    /// concatenate per-replica episodes in fixed env order before GAE/PPO.
    #[serde(default = "default_num_envs")]
    pub num_envs: usize,
    /// The trainer's thread budget: collection shards its `num_envs`
    /// replicas over this many threads, and the update runs its per-agent
    /// jobs (PPO epochs, critic steps, LCF meta-gradient) over as many.
    /// `0` (the default) auto-sizes from `AGSC_TEST_THREADS` /
    /// `available_parallelism`; any positive value is used as-is (clamped
    /// to the job count). The worker count never affects results — only
    /// wall-clock.
    #[serde(default)]
    pub rollout_workers: usize,
}

fn default_nan_guard() -> bool {
    true
}

fn default_num_envs() -> usize {
    1
}

impl Default for TrainConfig {
    fn default() -> Self {
        Self {
            gamma: 0.99,
            gae_lambda: 0.95,
            clip_eps: 0.2,
            // CPU-scale budgets (tens to hundreds of iterations instead of
            // the paper's 10,000) need the faster step size; see
            // EXPERIMENTS.md for the calibration.
            actor_lr: 1e-3,
            critic_lr: 3e-3,
            classifier_lr: 1e-2,
            lcf_lr: 1e-2,
            meta_alpha: 3e-4,
            entropy_coef: 3e-3,
            policy_epochs: 4,
            lcf_epochs: 2,
            hidden: vec![64, 64],
            intrinsic: IntrinsicSchedule::Constant(0.003),
            eoi_epsilon: 0.1,
            neighbor_range_frac: 0.25,
            shared_params: false,
            centralized_critic: false,
            ablation: Ablation::full(),
            max_grad_norm: 0.5,
            init_log_std: -0.5,
            value_norm: true,
            nan_guard: true,
            num_envs: 1,
            rollout_workers: 0,
        }
    }
}

impl TrainConfig {
    /// Validate hyperparameters; returns an error string on failure.
    pub fn validate(&self) -> Result<(), String> {
        if !(0.0..=1.0).contains(&self.gamma) {
            return Err("gamma must be in [0, 1]".into());
        }
        if !(0.0..=1.0).contains(&self.gae_lambda) {
            return Err("gae_lambda must be in [0, 1]".into());
        }
        if self.clip_eps.is_nan() || self.clip_eps <= 0.0 {
            return Err("clip_eps must be positive".into());
        }
        if self.policy_epochs == 0 {
            return Err("at least one policy epoch required".into());
        }
        if self.hidden.is_empty() {
            return Err("at least one hidden layer required".into());
        }
        if !(0.0..=1.0).contains(&self.neighbor_range_frac) {
            return Err("neighbor_range_frac must be a fraction".into());
        }
        if self.num_envs == 0 {
            return Err("num_envs must be at least 1".into());
        }
        for (name, v) in [
            ("actor_lr", self.actor_lr),
            ("critic_lr", self.critic_lr),
            ("classifier_lr", self.classifier_lr),
            ("lcf_lr", self.lcf_lr),
            ("meta_alpha", self.meta_alpha),
            ("entropy_coef", self.entropy_coef),
            ("eoi_epsilon", self.eoi_epsilon),
        ] {
            if !v.is_finite() || v < 0.0 {
                return Err(format!("{name} must be finite and non-negative, got {v}"));
            }
        }
        if self.max_grad_norm.is_nan() || self.max_grad_norm <= 0.0 {
            return Err(format!("max_grad_norm must be positive, got {}", self.max_grad_norm));
        }
        let (w0, w1) = match self.intrinsic {
            IntrinsicSchedule::Constant(w) => (w, w),
            IntrinsicSchedule::LinearDecay { from, to } => (from, to),
        };
        if [w0, w1].iter().any(|w| !w.is_finite() || *w < 0.0) {
            return Err(format!(
                "intrinsic weights must be finite and non-negative, got {w0}, {w1}"
            ));
        }
        if !self.init_log_std.is_finite() {
            return Err(format!("init_log_std must be finite, got {}", self.init_log_std));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_are_valid() {
        assert!(TrainConfig::default().validate().is_ok());
    }

    /// Each of `bad` written into the defaults by `set` must fail
    /// validation with a message naming `field`.
    fn rejects(field: &str, bad: [f32; 3], set: fn(&mut TrainConfig, f32)) {
        for v in bad {
            let mut cfg = TrainConfig::default();
            set(&mut cfg, v);
            let err = cfg.validate().expect_err(&format!("{field} = {v} must be rejected"));
            assert!(err.contains(field), "{field} = {v}: {err}");
        }
    }

    const NOT_FINITE_OR_NEGATIVE: [f32; 3] = [f32::NAN, f32::INFINITY, -1e-3];

    #[test]
    fn rejects_bad_actor_lr() {
        rejects("actor_lr", NOT_FINITE_OR_NEGATIVE, |c, v| c.actor_lr = v);
    }

    #[test]
    fn rejects_bad_critic_lr() {
        rejects("critic_lr", NOT_FINITE_OR_NEGATIVE, |c, v| c.critic_lr = v);
    }

    #[test]
    fn rejects_bad_classifier_lr() {
        rejects("classifier_lr", NOT_FINITE_OR_NEGATIVE, |c, v| c.classifier_lr = v);
    }

    #[test]
    fn rejects_bad_lcf_lr() {
        rejects("lcf_lr", NOT_FINITE_OR_NEGATIVE, |c, v| c.lcf_lr = v);
    }

    #[test]
    fn rejects_bad_meta_alpha() {
        rejects("meta_alpha", NOT_FINITE_OR_NEGATIVE, |c, v| c.meta_alpha = v);
    }

    #[test]
    fn rejects_bad_entropy_coef() {
        rejects("entropy_coef", NOT_FINITE_OR_NEGATIVE, |c, v| c.entropy_coef = v);
    }

    #[test]
    fn rejects_bad_eoi_epsilon() {
        rejects("eoi_epsilon", NOT_FINITE_OR_NEGATIVE, |c, v| c.eoi_epsilon = v);
    }

    #[test]
    fn rejects_non_positive_max_grad_norm() {
        rejects("max_grad_norm", [f32::NAN, 0.0, -1.0], |c, v| c.max_grad_norm = v);
    }

    #[test]
    fn rejects_non_finite_init_log_std() {
        rejects("init_log_std", [f32::NAN, f32::INFINITY, f32::NEG_INFINITY], |c, v| {
            c.init_log_std = v
        });
    }

    #[test]
    fn rejects_nan_clip_eps() {
        rejects("clip_eps", [f32::NAN, 0.0, -0.2], |c, v| c.clip_eps = v);
    }

    #[test]
    fn rejects_bad_intrinsic_weights() {
        rejects("intrinsic", NOT_FINITE_OR_NEGATIVE, |c, v| {
            c.intrinsic = IntrinsicSchedule::Constant(v)
        });
        rejects("intrinsic", NOT_FINITE_OR_NEGATIVE, |c, v| {
            c.intrinsic = IntrinsicSchedule::LinearDecay { from: 0.01, to: v }
        });
    }

    #[test]
    fn zero_rates_and_coefficients_stay_valid() {
        let cfg = TrainConfig {
            lcf_lr: 0.0,
            meta_alpha: 0.0,
            entropy_coef: 0.0,
            eoi_epsilon: 0.0,
            ..TrainConfig::default()
        };
        assert!(cfg.validate().is_ok());
    }

    #[test]
    fn schedule_constant() {
        let s = IntrinsicSchedule::Constant(0.003);
        assert_eq!(s.weight_at(0.0), 0.003);
        assert_eq!(s.weight_at(1.0), 0.003);
    }

    #[test]
    fn schedule_linear_decay() {
        let s = IntrinsicSchedule::LinearDecay { from: 0.01, to: 0.001 };
        assert_eq!(s.weight_at(0.0), 0.01);
        assert!((s.weight_at(1.0) - 0.001).abs() < 1e-9);
        let mid = s.weight_at(0.5);
        assert!((mid - 0.0055).abs() < 1e-6);
        // Clamped outside [0, 1].
        assert_eq!(s.weight_at(2.0), s.weight_at(1.0));
    }

    #[test]
    fn ablation_presets() {
        assert!(Ablation::full().use_eoi && Ablation::full().use_copo);
        assert!(!Ablation::copo_baseline().heterogeneous);
        assert!(!Ablation::without_eoi().use_eoi);
        assert!(!Ablation::without_copo().use_copo);
        let base = Ablation::base_only();
        assert!(!base.use_eoi && !base.use_copo);
    }

    #[test]
    fn config_without_nan_guard_field_defaults_on() {
        // Checkpoints saved before the guard existed must restore with it on.
        let mut v = serde_json::to_value(TrainConfig::default()).unwrap();
        v.as_object_mut().unwrap().remove("nan_guard");
        let back: TrainConfig = serde_json::from_value(v).unwrap();
        assert!(back.nan_guard);
    }

    #[test]
    fn config_without_parallel_fields_defaults_to_serial() {
        // Checkpoints saved before the parallel rollout engine existed must
        // restore onto the serial path: one replica, auto worker sizing.
        let mut v = serde_json::to_value(TrainConfig::default()).unwrap();
        v.as_object_mut().unwrap().remove("num_envs");
        v.as_object_mut().unwrap().remove("rollout_workers");
        let back: TrainConfig = serde_json::from_value(v).unwrap();
        assert_eq!(back.num_envs, 1);
        assert_eq!(back.rollout_workers, 0);
    }

    #[test]
    fn validation_catches_bad_values() {
        let c = TrainConfig { gamma: 1.5, ..TrainConfig::default() };
        assert!(c.validate().is_err());
        let c = TrainConfig { policy_epochs: 0, ..TrainConfig::default() };
        assert!(c.validate().is_err());
        let c = TrainConfig { neighbor_range_frac: 2.0, ..TrainConfig::default() };
        assert!(c.validate().is_err());
    }
}
