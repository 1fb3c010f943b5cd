//! Shared world construction for the learner/worker bin pair, the
//! quickstart example, and the CI smoke job.
//!
//! The determinism contract requires every process in a fleet to build the
//! *same* environment prototype and the learner to seed its trainer the
//! way the single-process reference would. Both are pure functions of the
//! seed, defined once here, so a learner and its workers can only drift if
//! they were launched with different seeds — which a worker's check of
//! every `Params` (fleet size and obs_dim) then catches only when the
//! shapes differ, hence: one function, both bins.

use std::net::SocketAddr;

use agsc_datasets::presets;
use agsc_env::{AirGroundEnv, EnvConfig};
use agsc_madrl::{HiMadrlTrainer, TrainConfig};

use crate::error::DistError;

/// The fleet's environment prototype: the Purdue campus preset with a
/// short horizon and deterministic fading — small enough for smoke runs,
/// rich enough that every rollout field (relay pairs, neighbours,
/// per-UV collection) is exercised.
pub fn quickstart_env(seed: u64) -> AirGroundEnv {
    let dataset = presets::purdue(seed);
    let cfg = EnvConfig { horizon: 10, stochastic_fading: false, ..EnvConfig::default() };
    AirGroundEnv::new(cfg, &dataset, seed)
}

/// The learner's reference trainer for [`quickstart_env`]: a small network
/// (fast smoke runs) seeded so a single-process `train_vec` run with the
/// same seed is the bit-exact reference.
pub fn quickstart_trainer(
    env: &AirGroundEnv,
    planned_iterations: usize,
    seed: u64,
) -> Result<HiMadrlTrainer, DistError> {
    let cfg =
        TrainConfig { hidden: vec![16], policy_epochs: 1, lcf_epochs: 1, ..TrainConfig::default() };
    HiMadrlTrainer::new(env, cfg, planned_iterations, seed)
        .map_err(|e| DistError::Params(e.to_string()))
}

/// The fleet address both bins use: `AGSC_DIST_ADDR`, default
/// `127.0.0.1:7800`. The error names the variable and its malformed value.
pub fn fleet_addr() -> Result<SocketAddr, String> {
    let raw = agsc_telemetry::knobs::text("AGSC_DIST_ADDR").unwrap_or("127.0.0.1:7800".into());
    raw.parse().map_err(|_| format!("AGSC_DIST_ADDR={raw:?} is not a host:port socket address"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn world_construction_is_a_pure_function_of_the_seed() {
        let a = quickstart_env(7);
        let b = quickstart_env(7);
        assert_eq!(a.obs_dim(), b.obs_dim());
        assert_eq!(a.num_uvs(), b.num_uvs());
        let ta = quickstart_trainer(&a, 3, 7).unwrap();
        let tb = quickstart_trainer(&b, 3, 7).unwrap();
        let ja = serde_json::to_string(&ta.checkpoint()).unwrap();
        let jb = serde_json::to_string(&tb.checkpoint()).unwrap();
        assert_eq!(ja, jb, "two processes with one seed must build identical trainers");
    }
}
