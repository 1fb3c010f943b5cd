//! Policy evaluation: greedy episodes → task metrics.
//!
//! Mirrors the paper's protocol (§VI): "test each model 50 times to take an
//! average" — the episode count is a parameter so harness runs can trade
//! variance for time. [`evaluate`] averages [`play_episode`], the greedy
//! loop that the trajectory renders also run.

use crate::trainer::HiMadrlTrainer;
use agsc_env::{AirGroundEnv, Metrics};

/// A policy that maps `(uv index, observation)` to an action.
pub trait Policy {
    /// Deterministic action for UV `k` given its local observation.
    fn action(&self, k: usize, obs: &[f32]) -> agsc_env::UvAction;

    /// Clear any per-episode state; [`play_episode`] calls it before an
    /// episode's first action. Stateless policies keep this no-op.
    fn reset(&self) {}
}

impl Policy for HiMadrlTrainer {
    fn action(&self, k: usize, obs: &[f32]) -> agsc_env::UvAction {
        self.policy_action(k, obs)
    }
}

/// Play one greedy episode from `env.reset(seed)` and return its task
/// metrics. `env` is left at the episode's end, trajectories included.
pub fn play_episode<P: Policy>(policy: &P, env: &mut AirGroundEnv, seed: u64) -> Metrics {
    env.reset(seed);
    policy.reset();
    while !env.is_done() {
        let obs = env.observations();
        let actions: Vec<agsc_env::UvAction> =
            (0..env.num_uvs()).map(|k| policy.action(k, &obs[k])).collect();
        env.step(&actions);
    }
    env.metrics()
}

/// Run `episodes` greedy episodes on seeds `base_seed`, `base_seed + 1`, ...
/// and average the task metrics.
pub fn evaluate<P: Policy>(
    policy: &P,
    env: &mut AirGroundEnv,
    episodes: usize,
    base_seed: u64,
) -> Metrics {
    let runs: Vec<Metrics> = (0..episodes)
        .map(|e| play_episode(policy, env, base_seed.wrapping_add(e as u64)))
        .collect();
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

    /// Logs `reset` and the first action after it, to check the order.
    #[derive(Default)]
    struct CountingPolicy {
        log: std::cell::RefCell<Vec<&'static str>>,
    }
    impl Policy for CountingPolicy {
        fn action(&self, _k: usize, _obs: &[f32]) -> UvAction {
            let mut log = self.log.borrow_mut();
            if log.last() == Some(&"reset") {
                log.push("action");
            }
            UvAction::stay()
        }
        fn reset(&self) {
            self.log.borrow_mut().push("reset");
        }
    }

    #[test]
    fn evaluate_resets_the_policy_once_before_each_episode() {
        let mut e = env();
        let policy = CountingPolicy::default();
        evaluate(&policy, &mut e, 3, 7);
        assert_eq!(*policy.log.borrow(), ["reset", "action"].repeat(3));
    }

    #[test]
    fn evaluation_is_deterministic_given_seed() {
        let mut e = env();
        let a = evaluate(&StayPolicy, &mut e, 2, 42);
        let b = evaluate(&StayPolicy, &mut e, 2, 42);
        assert_eq!(a, b);
    }
}
