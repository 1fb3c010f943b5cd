//! Robustness and failure-injection tests: degenerate fleets, exhausted
//! energy, drained worlds, extreme channel settings, and configuration
//! sweeps that the benchmark harness exercises implicitly.

use agsc::datasets::presets;
use agsc::env::{AirGroundEnv, EnvConfig, UvAction};
use agsc::madrl::{evaluate, HiMadrlTrainer, Maddpg, MaddpgConfig, TrainConfig};

fn base_cfg() -> EnvConfig {
    EnvConfig { horizon: 15, stochastic_fading: false, ..EnvConfig::default() }
}

fn small_train() -> TrainConfig {
    TrainConfig { hidden: vec![16], policy_epochs: 1, lcf_epochs: 1, ..TrainConfig::default() }
}

#[test]
fn minimal_fleet_one_uav_one_ugv() {
    let dataset = presets::purdue(3);
    let mut cfg = base_cfg();
    cfg.num_uavs = 1;
    cfg.num_ugvs = 1;
    let mut env = AirGroundEnv::new(cfg, &dataset, 3);
    let mut t = HiMadrlTrainer::new(&env, small_train(), 2, 3).unwrap();
    let stats = t.train(&mut env, 2);
    assert!(stats.iter().all(|s| s.mean_ext_reward.is_finite()));
}

#[test]
fn ugv_only_fleet_works() {
    let dataset = presets::purdue(3);
    let mut cfg = base_cfg();
    cfg.num_uavs = 0;
    cfg.num_ugvs = 3;
    let mut env = AirGroundEnv::new(cfg, &dataset, 3);
    assert_eq!(env.num_uvs(), 3);
    let mut t = HiMadrlTrainer::new(&env, small_train(), 2, 3).unwrap();
    let stats = t.train(&mut env, 2);
    assert!(stats.iter().all(|s| s.mean_ext_reward.is_finite()));
    // No UAVs → no relay pairs ever.
    assert!(env.relay_pairs().is_empty());
}

#[test]
fn large_fleet_scales() {
    let dataset = presets::purdue(3);
    let mut cfg = base_cfg();
    cfg.num_uavs = 7;
    cfg.num_ugvs = 7;
    cfg.horizon = 5;
    let mut env = AirGroundEnv::new(cfg, &dataset, 3);
    assert_eq!(env.num_uvs(), 14);
    let mut t = HiMadrlTrainer::new(&env, small_train(), 1, 3).unwrap();
    let s = t.train_iteration(&mut env);
    assert!(s.mean_ext_reward.is_finite());
    assert_eq!(s.lcf_degrees.len(), 14);
}

#[test]
fn fully_drained_world_yields_zero_collection() {
    let dataset = presets::purdue(3);
    let mut cfg = base_cfg();
    cfg.poi_initial_bits = 1.0; // practically nothing to collect
    let mut env = AirGroundEnv::new(cfg, &dataset, 3);
    let actions = vec![UvAction::stay(); env.num_uvs()];
    let mut total = 0.0;
    for _ in 0..15 {
        let r = env.step(&actions);
        total += r.collection.collected_per_uv.iter().sum::<f64>();
    }
    // 100 PoIs × 1 bit: the fleet can never net more than the world holds.
    assert!(total <= 100.0 + 1e-6, "cannot collect more than exists (got {total})");
    assert!(env.poi_remaining().iter().all(|&d| d >= 0.0));
    let m = env.metrics();
    assert!(m.data_collection_ratio <= 1.0);
}

#[test]
fn zero_speed_fleet_consumes_no_energy() {
    let dataset = presets::purdue(3);
    let mut env = AirGroundEnv::new(base_cfg(), &dataset, 3);
    let actions = vec![UvAction::stay(); env.num_uvs()];
    for _ in 0..15 {
        env.step(&actions);
    }
    let m = env.metrics();
    assert_eq!(m.energy_ratio, 0.0);
    assert_eq!(m.efficiency, 0.0, "zero energy short-circuits λ to 0, not ∞");
}

#[test]
fn extreme_sinr_threshold_blocks_everything() {
    let dataset = presets::purdue(3);
    let mut cfg = base_cfg();
    cfg.channel.sinr_threshold_db = 120.0;
    let mut env = AirGroundEnv::new(cfg, &dataset, 3);
    let actions = vec![UvAction { heading: 0.3, speed: 0.5 }; env.num_uvs()];
    for _ in 0..15 {
        env.step(&actions);
    }
    let m = env.metrics();
    assert_eq!(m.data_collection_ratio, 0.0);
    // Every attempted upload failed → σ reflects the attempts.
    assert!(m.data_loss_ratio > 0.0);
}

#[test]
fn negative_sinr_threshold_reduces_losses() {
    let dataset = presets::purdue(3);
    let run_with = |db: f64| {
        let mut cfg = base_cfg();
        cfg.horizon = 30;
        cfg.channel.sinr_threshold_db = db;
        let mut env = AirGroundEnv::new(cfg, &dataset, 3);
        let actions = vec![UvAction { heading: 0.1, speed: 0.6 }; env.num_uvs()];
        for _ in 0..30 {
            env.step(&actions);
        }
        env.metrics().data_loss_ratio
    };
    let lenient = run_with(-7.0);
    let strict = run_with(7.0);
    assert!(
        lenient <= strict,
        "a stricter QoS bar cannot reduce losses (lenient {lenient}, strict {strict})"
    );
}

#[test]
fn single_subchannel_forces_heavy_interference() {
    let dataset = presets::purdue(3);
    let run_with = |z: usize| {
        let mut cfg = base_cfg();
        cfg.horizon = 30;
        cfg.channel.subchannels = z;
        let mut env = AirGroundEnv::new(cfg, &dataset, 3);
        let actions = vec![UvAction { heading: 0.1, speed: 0.4 }; env.num_uvs()];
        let mut collected = 0.0;
        for _ in 0..30 {
            let r = env.step(&actions);
            collected += r.collection.collected_per_uv.iter().sum::<f64>();
        }
        collected
    };
    // More subchannels should never reduce total throughput for the same
    // trajectories (Figs 5-6 mechanism).
    assert!(run_with(5) >= run_with(1) * 0.99);
}

#[test]
fn maddpg_handles_fleet_variations() {
    let dataset = presets::purdue(3);
    for (u, g) in [(1usize, 1usize), (0, 2)] {
        let mut cfg = base_cfg();
        cfg.num_uavs = u;
        cfg.num_ugvs = g;
        cfg.horizon = 8;
        let mut env = AirGroundEnv::new(cfg, &dataset, 3);
        let mcfg = MaddpgConfig {
            batch_size: 8,
            updates_per_iteration: 2,
            hidden: vec![16],
            ..Default::default()
        };
        let mut m = Maddpg::new(&env, mcfg, 3);
        assert!(m.train_iteration(&mut env).is_finite(), "fleet ({u},{g}) diverged");
    }
}

#[test]
fn evaluation_never_mutates_training_state() {
    let dataset = presets::purdue(3);
    let mut env = AirGroundEnv::new(base_cfg(), &dataset, 3);
    let mut t = HiMadrlTrainer::new(&env, small_train(), 2, 3).unwrap();
    t.train(&mut env, 1);
    let before = t.checkpoint();
    let _ = evaluate(&t, &mut env, 2, 50);
    let after = t.checkpoint();
    // Policies untouched by evaluation.
    let obs = vec![0.5f32; t.obs_dim()];
    for k in 0..4 {
        let restored_b = agsc::madrl::HiMadrlTrainer::restore(&before, 1).unwrap();
        let restored_a = agsc::madrl::HiMadrlTrainer::restore(&after, 1).unwrap();
        assert_eq!(restored_b.policy_action(k, &obs), restored_a.policy_action(k, &obs));
    }
}

#[test]
fn ncsu_campus_trains_too() {
    let dataset = presets::ncsu(3);
    let mut env = AirGroundEnv::new(base_cfg(), &dataset, 3);
    let mut t = HiMadrlTrainer::new(&env, small_train(), 1, 3).unwrap();
    let s = t.train_iteration(&mut env);
    assert!(s.mean_ext_reward.is_finite());
}
