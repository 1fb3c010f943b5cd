//! Fault-injection integration tests: seeded replay, degraded fleets,
//! subchannel outages, observation faults, and the zero-cost guarantee for
//! the all-off default configuration.

mod common;

use agsc::datasets::presets;
use agsc::env::{AirGroundEnv, EnvConfig, FaultConfig, FaultPlan, UvAction};
use agsc::madrl::{HiMadrlTrainer, TrainConfig};
use common::{check, Rng};

fn base_cfg() -> EnvConfig {
    EnvConfig { horizon: 20, ..EnvConfig::default() }
}

fn faulty(mut c: EnvConfig) -> EnvConfig {
    c.faults = FaultConfig {
        uv_failure_rate: 0.6,
        failure_window: (0.2, 0.8),
        outage_rate: 0.1,
        outage_len: (1, 4),
        obs_noise_std: 0.02,
        obs_drop_rate: 0.05,
    };
    c
}

fn small_train() -> TrainConfig {
    TrainConfig { hidden: vec![16], policy_epochs: 1, lcf_epochs: 1, ..TrainConfig::default() }
}

fn drive(env: &mut AirGroundEnv) -> (Vec<Vec<f64>>, Vec<Vec<f64>>) {
    let actions = vec![UvAction { heading: 0.2, speed: 0.6 }; env.num_uvs()];
    let mut rewards = Vec::new();
    let mut collected = Vec::new();
    for _ in 0..env.config().horizon {
        let r = env.step(&actions);
        rewards.push(r.rewards);
        collected.push(r.collection.collected_per_uv);
    }
    (rewards, collected)
}

const CASES: u64 = 16;

// Same seed ⇒ the same fault plan, bit for bit.
#[test]
fn fault_plans_replay_from_the_seed_alone() {
    check(CASES, |rng| {
        let seed: u64 = rng.gen();
        let cfg = faulty(base_cfg());
        let a = FaultPlan::sample(&cfg.faults, 4, 3, 50, seed);
        let b = FaultPlan::sample(&cfg.faults, 4, 3, 50, seed);
        assert_eq!(a, b);
    });
}

// Same seed ⇒ bit-identical faulty episodes end to end.
#[test]
fn faulty_episodes_replay_bit_identically() {
    check(CASES, |rng| {
        let seed = rng.gen_range(0u64..500);
        let dataset = presets::purdue(3);
        let cfg = faulty(base_cfg());
        let mut e1 = AirGroundEnv::new(cfg.clone(), &dataset, seed);
        let mut e2 = AirGroundEnv::new(cfg, &dataset, seed);
        let (r1, c1) = drive(&mut e1);
        let (r2, c2) = drive(&mut e2);
        assert_eq!(r1, r2);
        assert_eq!(c1, c2);
        assert_eq!(e1.metrics(), e2.metrics());
        assert_eq!(e1.trajectories(), e2.trajectories());
    });
}

// Every metric stays finite and in range when the whole fleet can die.
#[test]
fn metrics_bounded_under_total_fleet_failure() {
    check(CASES, |rng| {
        let seed = rng.gen_range(0u64..200);
        let dataset = presets::purdue(3);
        let mut cfg = base_cfg();
        cfg.faults.uv_failure_rate = 1.0;
        cfg.faults.failure_window = (0.0, 0.5);
        let mut env = AirGroundEnv::new(cfg, &dataset, seed);
        let (rewards, _) = drive(&mut env);
        assert!(rewards.iter().flatten().all(|r| r.is_finite()));
        let m = env.metrics();
        assert!((0.0..=1.0).contains(&m.data_collection_ratio));
        assert!((0.0..=1.0).contains(&m.data_loss_ratio));
        assert!((0.0..=1.0).contains(&m.fairness));
        assert!(m.energy_ratio.is_finite() && m.energy_ratio >= 0.0);
        assert!(m.efficiency.is_finite() && m.efficiency >= 0.0);
    });
}

/// The documented zero-cost guarantee: the fault stream is salted away from
/// the dynamics RNG, so an *armed but inert* fault plan (every UV scheduled
/// to die exactly at the horizon, i.e. never during the episode) produces
/// exactly the trajectories, rewards, and metrics of `FaultConfig::default()`.
#[test]
fn default_fault_config_is_bit_identical_to_fault_free() {
    let dataset = presets::purdue(3);
    let mut armed = base_cfg();
    armed.faults.uv_failure_rate = 1.0;
    armed.faults.failure_window = (1.0, 1.0); // death slot == horizon: inert

    let mut plain_env = AirGroundEnv::new(base_cfg(), &dataset, 7);
    let mut armed_env = AirGroundEnv::new(armed, &dataset, 7);
    assert!(!plain_env.fault_injector().is_active());
    assert!(armed_env.fault_injector().is_active());

    assert_eq!(plain_env.observations(), armed_env.observations());
    let (r1, c1) = drive(&mut plain_env);
    let (r2, c2) = drive(&mut armed_env);
    assert_eq!(r1, r2, "fault stream must not perturb the dynamics RNG");
    assert_eq!(c1, c2);
    assert_eq!(plain_env.trajectories(), armed_env.trajectories());
    assert_eq!(plain_env.metrics(), armed_env.metrics());
}

#[test]
fn default_config_samples_no_faults() {
    assert!(FaultConfig::default().is_off());
    let dataset = presets::purdue(3);
    let env = AirGroundEnv::new(base_cfg(), &dataset, 7);
    assert!(!env.fault_injector().is_active());
    assert!(env.uv_alive().iter().all(|&a| a));
}

#[test]
fn mid_episode_death_freezes_movement_collection_and_observations() {
    let dataset = presets::purdue(3);
    let mut cfg = base_cfg();
    cfg.faults.uv_failure_rate = 1.0;
    cfg.faults.failure_window = (0.5, 0.5); // everyone dies at slot 10 of 20
    let mut env = AirGroundEnv::new(cfg, &dataset, 7);
    let actions = vec![UvAction { heading: 0.2, speed: 0.8 }; env.num_uvs()];

    let mut post_death_collected = 0.0;
    for t in 0..20 {
        let r = env.step(&actions);
        if t >= 10 {
            post_death_collected += r.collection.collected_per_uv.iter().sum::<f64>();
        }
    }
    assert_eq!(post_death_collected, 0.0, "dead UVs must not collect");
    assert!(env.uv_alive().iter().all(|&a| !a));

    // Positions frozen from the death slot on.
    for traj in env.trajectories() {
        let frozen = &traj[10];
        for p in &traj[10..] {
            assert_eq!(p, frozen, "dead UV moved");
        }
    }

    // A dead UV's own observation goes fully dark.
    for obs in env.observations() {
        assert!(obs.iter().all(|&v| v == 0.0), "dead UV observation not masked");
    }
}

#[test]
fn permanent_total_outage_blocks_all_collection() {
    let dataset = presets::purdue(3);
    let mut cfg = base_cfg();
    cfg.faults.outage_rate = 1.0;
    cfg.faults.outage_len = (64, 64); // longer than the horizon: always down
    let mut env = AirGroundEnv::new(cfg, &dataset, 7);
    let (_, collected) = drive(&mut env);
    assert_eq!(collected.iter().flatten().sum::<f64>(), 0.0);
    let m = env.metrics();
    assert_eq!(m.data_collection_ratio, 0.0);
    assert!(m.data_loss_ratio.is_finite() && (0.0..=1.0).contains(&m.data_loss_ratio));
}

#[test]
fn training_stays_finite_under_observation_faults() {
    let dataset = presets::purdue(3);
    let mut cfg = base_cfg();
    cfg.horizon = 12;
    cfg.stochastic_fading = false;
    cfg.faults.obs_noise_std = 0.1;
    cfg.faults.obs_drop_rate = 0.1;
    let mut env = AirGroundEnv::new(cfg, &dataset, 3);
    let mut t = HiMadrlTrainer::new(&env, small_train(), 2, 3).unwrap();
    let stats = t.train(&mut env, 2);
    assert!(stats.iter().all(|s| s.mean_ext_reward.is_finite()));
    assert!(stats.iter().all(|s| !s.update_skipped));
}

#[test]
fn training_survives_a_degraded_fleet() {
    let dataset = presets::purdue(3);
    let mut cfg = base_cfg();
    cfg.horizon = 12;
    cfg.stochastic_fading = false;
    cfg.faults.uv_failure_rate = 1.0;
    cfg.faults.failure_window = (0.0, 0.4);
    let mut env = AirGroundEnv::new(cfg, &dataset, 3);
    let mut t = HiMadrlTrainer::new(&env, small_train(), 2, 3).unwrap();
    let stats = t.train(&mut env, 2);
    assert!(stats.iter().all(|s| s.mean_ext_reward.is_finite()));
}

#[test]
fn bad_fault_config_is_a_typed_env_error() {
    let dataset = presets::purdue(3);
    let mut cfg = base_cfg();
    cfg.faults.uv_failure_rate = 2.0;
    let err = AirGroundEnv::try_new(cfg, &dataset, 3).unwrap_err();
    assert!(err.to_string().contains("uv_failure_rate"), "{err}");
}
