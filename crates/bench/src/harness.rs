//! Shared experiment harness: method dispatch, budgets, and evaluation.
//!
//! Every table/figure target reads its budget from the environment:
//! `AGSC_ITERS` (training iterations per run, default 25),
//! `AGSC_EVAL_EPISODES` (test episodes averaged per point, default 3 — the
//! paper uses 50), and `AGSC_SEED`. The defaults are sized so the complete
//! suite regenerates on a laptop CPU; raise them to sharpen the numbers.
//!
//! Long campaigns are failure-hardened: [`run_method_robust`] retries a
//! failed point once on a bumped seed before recording a sentinel row, and
//! [`parallel_try_map`] contains worker panics so one poisoned job cannot
//! take down a whole table.

use crate::error::BenchError;
use agsc_baselines::{
    hi_madrl, hi_madrl_copo, mappo, EDivert, EDivertConfig, GaConfig, RandomPolicy,
    ShortestPathPolicy,
};
use agsc_datasets::CampusDataset;
use agsc_env::{AirGroundEnv, EnvConfig, Metrics};
use agsc_madrl::parallel::panic_message;
use agsc_madrl::{evaluate, HiMadrlTrainer, TrainConfig, TrainError};
use agsc_telemetry::{self as tlm, knobs};

// The worker-pool machinery was promoted to `agsc-madrl::parallel` so the
// trainer's parallel rollout engine can share it; re-exported here to keep
// the bench-facing API unchanged.
pub use agsc_madrl::parallel::{parallel_map, parallel_try_map, JobPanic};
use std::num::NonZeroUsize;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;

/// Global experiment budget.
#[derive(Debug, Clone)]
pub struct HarnessConfig {
    /// Training iterations per learned method.
    pub iters: usize,
    /// Evaluation episodes averaged per point.
    pub eval_episodes: usize,
    /// Base seed.
    pub seed: u64,
}

impl Default for HarnessConfig {
    fn default() -> Self {
        Self { iters: 25, eval_episodes: 3, seed: 42 }
    }
}

impl HarnessConfig {
    /// Read the budget from `AGSC_ITERS` / `AGSC_EVAL_EPISODES` / `AGSC_SEED`;
    /// a malformed value warns and keeps its default. `AGSC_EVAL_EPISODES=0`
    /// is malformed: zero episodes would average to the all-zero row that
    /// [`run_method_robust`] records for a failed point.
    pub fn from_env() -> Self {
        let d = Self::default();
        let eval_episodes = NonZeroUsize::new(d.eval_episodes).expect("default is positive");
        Self {
            iters: knobs::parse("AGSC_ITERS", d.iters),
            eval_episodes: knobs::parse("AGSC_EVAL_EPISODES", eval_episodes).get(),
            seed: knobs::parse("AGSC_SEED", d.seed),
        }
    }
}

/// The six comparison methods of §VI-A.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Method {
    /// Full h/i-MADRL (ours).
    HiMadrl,
    /// h/i-MADRL with homogeneous CoPO instead of h-CoPO.
    HiMadrlCopo,
    /// MAPPO (centralised critic, no plug-ins).
    Mappo,
    /// e-Divert (CTDE + prioritized replay + GRU).
    EDivert,
    /// Genetic-algorithm shortest paths.
    ShortestPath,
    /// Uniform random actions.
    Random,
}

impl Method {
    /// All six methods, strongest-claim first (paper figure legend order).
    pub const ALL: [Method; 6] = [
        Method::HiMadrl,
        Method::HiMadrlCopo,
        Method::Mappo,
        Method::EDivert,
        Method::ShortestPath,
        Method::Random,
    ];

    /// Display name matching the paper's legends.
    pub fn name(&self) -> &'static str {
        match self {
            Method::HiMadrl => "h/i-MADRL",
            Method::HiMadrlCopo => "h/i-MADRL(CoPO)",
            Method::Mappo => "MAPPO",
            Method::EDivert => "e-Divert",
            Method::ShortestPath => "Shortest Path",
            Method::Random => "Random",
        }
    }

    /// The trainer preset for trainer-based methods.
    pub fn train_config(&self) -> Option<TrainConfig> {
        match self {
            Method::HiMadrl => Some(hi_madrl()),
            Method::HiMadrlCopo => Some(hi_madrl_copo()),
            Method::Mappo => Some(mappo()),
            _ => None,
        }
    }
}

/// Train (if applicable) and evaluate `method` on one environment point.
///
/// `train_override` lets hyperparameter experiments (Tables III-V) replace
/// the preset `TrainConfig` for trainer-based methods.
///
/// Setup failures (bad environment config, bad training config) surface as
/// typed [`BenchError`]s instead of panics.
pub fn run_method(
    method: Method,
    env_cfg: &EnvConfig,
    dataset: &CampusDataset,
    h: &HarnessConfig,
    train_override: Option<TrainConfig>,
) -> Result<Metrics, BenchError> {
    let _span = tlm::span("bench_point");
    let started = tlm::is_enabled().then(Instant::now);
    let mut env = AirGroundEnv::try_new(env_cfg.clone(), dataset, h.seed)?;
    let eval_seed = h.seed.wrapping_mul(7919).wrapping_add(13);
    let metrics = match method {
        Method::HiMadrl | Method::HiMadrlCopo | Method::Mappo => {
            let cfg = match (train_override, method.train_config()) {
                (Some(c), _) => c,
                (None, Some(c)) => c,
                (None, None) => {
                    return Err(BenchError::Train(TrainError::InvalidConfig(format!(
                        "{} has no training preset",
                        method.name()
                    ))))
                }
            };
            let mut t = HiMadrlTrainer::new(&env, cfg, h.iters, h.seed)?;
            t.train(&mut env, h.iters);
            evaluate(&t, &mut env, h.eval_episodes, eval_seed)
        }
        Method::EDivert => {
            let cfg = EDivertConfig { updates_per_iteration: 16, ..Default::default() };
            let mut learner = EDivert::new(&env, cfg, h.seed);
            for _ in 0..h.iters {
                learner.train_iteration(&mut env);
            }
            evaluate(&learner, &mut env, h.eval_episodes, eval_seed)
        }
        Method::ShortestPath => {
            let ga = GaConfig::default();
            let policy = ShortestPathPolicy::plan(&env, &ga, h.seed);
            evaluate(&policy, &mut env, h.eval_episodes, eval_seed)
        }
        Method::Random => {
            let policy = RandomPolicy::new(h.seed);
            evaluate(&policy, &mut env, h.eval_episodes, eval_seed)
        }
    };
    if let Some(t0) = started {
        let secs = t0.elapsed().as_secs_f64();
        tlm::emit_with(tlm::Level::Info, "bench_point", |e| {
            e.str("method", method.name())
                .u64("iters", h.iters as u64)
                .u64("eval_episodes", h.eval_episodes as u64)
                .u64("seed", h.seed)
                .f64("lambda", metrics.efficiency)
                .f64("wall_secs", secs)
        });
    }
    Ok(metrics)
}

/// Like [`run_method`], but never fails the campaign: errors and panics are
/// contained, the point is retried once on a bumped seed, and a zero-metrics
/// sentinel row (`Metrics::default()`) is recorded if the retry also fails.
/// Every failure is reported on stderr. Also returns the wall-clock seconds
/// the point cost (train + eval + any retry), for machine-readable rows.
pub fn run_method_robust(
    method: Method,
    env_cfg: &EnvConfig,
    dataset: &CampusDataset,
    h: &HarnessConfig,
    train_override: Option<TrainConfig>,
) -> (Metrics, f64) {
    let t0 = Instant::now();
    let attempt = |budget: &HarnessConfig| -> Result<Metrics, BenchError> {
        match catch_unwind(AssertUnwindSafe(|| {
            run_method(method, env_cfg, dataset, budget, train_override.clone())
        })) {
            Ok(result) => result,
            Err(payload) => Err(BenchError::JobPanicked(panic_message(&*payload))),
        }
    };
    let metrics = match attempt(h) {
        Ok(m) => m,
        Err(first) => {
            // Transient numeric blow-ups are usually seed-specific; one
            // retry on a decorrelated seed rescues most of them.
            let mut retry = h.clone();
            retry.seed = h.seed.wrapping_add(0x9E37_79B9);
            tlm::warn("bench_retry", |e| {
                e.str("method", method.name()).u64("retry_seed", retry.seed).msg(format!(
                    "{} failed ({first}); retrying once with seed {}",
                    method.name(),
                    retry.seed
                ))
            });
            match attempt(&retry) {
                Ok(m) => m,
                Err(second) => {
                    tlm::warn("bench_sentinel", |e| {
                        e.str("method", method.name()).msg(format!(
                            "{} failed twice ({second}); recording a zero-metrics sentinel row",
                            method.name()
                        ))
                    });
                    Metrics::default()
                }
            }
        }
    };
    (metrics, t0.elapsed().as_secs_f64())
}

#[cfg(test)]
mod tests {
    use super::*;
    use agsc_datasets::presets;

    fn tiny_harness() -> HarnessConfig {
        HarnessConfig { iters: 2, eval_episodes: 1, seed: 7 }
    }

    fn tiny_env_cfg() -> EnvConfig {
        EnvConfig { horizon: 10, stochastic_fading: false, ..EnvConfig::default() }
    }

    #[test]
    fn every_method_runs_end_to_end() {
        let dataset = presets::purdue(1);
        let cfg = tiny_env_cfg();
        let h = tiny_harness();
        for m in Method::ALL {
            let metrics = run_method(m, &cfg, &dataset, &h, None).unwrap();
            assert!(
                metrics.efficiency.is_finite(),
                "{} produced a non-finite efficiency",
                m.name()
            );
        }
    }

    #[test]
    fn run_method_surfaces_bad_env_config_as_typed_error() {
        let dataset = presets::purdue(1);
        let mut cfg = tiny_env_cfg();
        cfg.horizon = 0;
        let h = tiny_harness();
        let err = run_method(Method::Random, &cfg, &dataset, &h, None).unwrap_err();
        assert!(matches!(err, BenchError::Env(_)), "got {err:?}");
    }

    #[test]
    fn run_method_surfaces_bad_train_config_as_typed_error() {
        let dataset = presets::purdue(1);
        let cfg = tiny_env_cfg();
        let h = tiny_harness();
        let bad = TrainConfig { gamma: 2.0, ..TrainConfig::default() };
        let err = run_method(Method::HiMadrl, &cfg, &dataset, &h, Some(bad)).unwrap_err();
        assert!(matches!(err, BenchError::Train(_)), "got {err:?}");
    }

    #[test]
    fn run_method_robust_passes_through_success() {
        let dataset = presets::purdue(1);
        let cfg = tiny_env_cfg();
        let h = tiny_harness();
        let direct = run_method(Method::Random, &cfg, &dataset, &h, None).unwrap();
        let (robust, secs) = run_method_robust(Method::Random, &cfg, &dataset, &h, None);
        assert_eq!(direct, robust);
        assert!(secs > 0.0, "wall-clock must be positive, got {secs}");
    }

    #[test]
    fn run_method_robust_records_sentinel_after_double_failure() {
        let dataset = presets::purdue(1);
        let cfg = tiny_env_cfg();
        let h = tiny_harness();
        // Invalid on every seed: both the attempt and the retry fail, and
        // the campaign gets a zero row instead of a panic.
        let bad = TrainConfig { gamma: 2.0, ..TrainConfig::default() };
        let (m, _) = run_method_robust(Method::HiMadrl, &cfg, &dataset, &h, Some(bad));
        assert_eq!(m, Metrics::default());
    }

    #[test]
    fn parallel_map_preserves_order() {
        let out = parallel_map((0..20).collect(), |&x: &i32| x * x);
        assert_eq!(out, (0..20).map(|x| x * x).collect::<Vec<_>>());
    }

    #[test]
    fn parallel_map_empty() {
        let out: Vec<i32> = parallel_map(Vec::<i32>::new(), |&x| x);
        assert!(out.is_empty());
    }

    #[test]
    fn parallel_try_map_contains_panicking_jobs() {
        let results = parallel_try_map((0..8).collect(), |&x: &i32| {
            if x == 3 {
                panic!("boom on {x}");
            }
            x * 2
        });
        assert_eq!(results.len(), 8);
        for (i, r) in results.iter().enumerate() {
            if i == 3 {
                let e = r.as_ref().unwrap_err();
                assert_eq!(e.index, 3);
                assert!(e.message.contains("boom"), "{e}");
            } else {
                assert_eq!(*r.as_ref().unwrap(), i as i32 * 2);
            }
        }
    }

    #[test]
    #[should_panic(expected = "parallel job 1 panicked")]
    fn parallel_map_repanics_worker_failures() {
        parallel_map(vec![0, 1], |&x: &i32| {
            if x == 1 {
                panic!("die");
            }
            x
        });
    }

    #[test]
    fn harness_from_env_defaults() {
        // No env vars set in the test runner: defaults apply.
        let h = HarnessConfig::from_env();
        assert!(h.iters > 0 && h.eval_episodes > 0);
    }

    #[test]
    fn method_names_match_paper_legend() {
        assert_eq!(Method::HiMadrl.name(), "h/i-MADRL");
        assert_eq!(Method::HiMadrlCopo.name(), "h/i-MADRL(CoPO)");
        assert_eq!(Method::ALL.len(), 6);
    }
}
