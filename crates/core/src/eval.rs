//! Policy evaluation: greedy episodes → task metrics.
//!
//! Mirrors the paper's protocol (§VI): "test each model 50 times to take an
//! average" — the episode count is a parameter so harness runs can trade
//! variance for time.

use crate::trainer::HiMadrlTrainer;
use agsc_env::{AirGroundEnv, Metrics};

/// A policy that maps `(uv index, observation)` to an action.
pub trait Policy {
    /// Deterministic action for UV `k` given its local observation.
    fn action(&self, k: usize, obs: &[f32]) -> agsc_env::UvAction;
}

impl Policy for HiMadrlTrainer {
    fn action(&self, k: usize, obs: &[f32]) -> agsc_env::UvAction {
        self.policy_action(k, obs)
    }
}

/// Run `episodes` greedy episodes and average the task metrics.
pub fn evaluate<P: Policy>(
    policy: &P,
    env: &mut AirGroundEnv,
    episodes: usize,
    base_seed: u64,
) -> Metrics {
    let mut runs = Vec::with_capacity(episodes);
    for e in 0..episodes {
        env.reset(base_seed.wrapping_add(e as u64));
        while !env.is_done() {
            let obs = env.observations();
            let actions: Vec<agsc_env::UvAction> =
                (0..env.num_uvs()).map(|k| policy.action(k, &obs[k])).collect();
            env.step(&actions);
        }
        runs.push(env.metrics());
    }
    Metrics::mean(&runs)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::TrainConfig;
    use agsc_datasets::presets;
    use agsc_env::{EnvConfig, UvAction};

    struct StayPolicy;
    impl Policy for StayPolicy {
        fn action(&self, _k: usize, _obs: &[f32]) -> UvAction {
            UvAction::stay()
        }
    }

    fn env() -> AirGroundEnv {
        let dataset = presets::purdue(1);
        let cfg = EnvConfig { horizon: 15, stochastic_fading: false, ..EnvConfig::default() };
        AirGroundEnv::new(cfg, &dataset, 5)
    }

    #[test]
    fn evaluate_static_policy() {
        let mut e = env();
        let m = evaluate(&StayPolicy, &mut e, 2, 100);
        assert!((0.0..=1.0).contains(&m.data_collection_ratio));
        assert!(m.efficiency >= 0.0);
    }

    #[test]
    fn evaluate_trained_policy_runs() {
        let mut e = env();
        let cfg = TrainConfig { hidden: vec![16], ..TrainConfig::default() };
        let t = HiMadrlTrainer::new(&e, cfg, 5, 3).unwrap();
        let m = evaluate(&t, &mut e, 2, 100);
        assert!(m.data_collection_ratio.is_finite());
    }

    #[test]
    fn evaluation_is_deterministic_given_seed() {
        let mut e = env();
        let a = evaluate(&StayPolicy, &mut e, 2, 42);
        let b = evaluate(&StayPolicy, &mut e, 2, 42);
        assert_eq!(a, b);
    }
}
