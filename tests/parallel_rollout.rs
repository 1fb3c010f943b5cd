//! Serial-equivalence golden tests for the parallel rollout engine.
//!
//! The contract under test: vectorized rollout collection is a pure
//! function of `(trainer parameters, batch seed)` —
//!
//! * with one replica it is **bit-identical** to the legacy serial path
//!   (same rollouts, same losses, same final network parameters), and
//! * with many replicas the result is independent of the worker count.
//!
//! The same worker budget runs the per-agent update on threads, so the
//! update is held to the same bar: for every parameter-sharing and
//! critic layout, and through a NaN-guard rollback.
//!
//! Everything is compared at the bit level (`f32::to_bits`), not with
//! tolerances: the parallel engine is only allowed to change wall-clock,
//! never arithmetic.

use agsc::datasets::presets;
use agsc::env::{AirGroundEnv, EnvConfig, VecEnv};
use agsc::madrl::Rollout;
use agsc::madrl::{Ablation, HiMadrlTrainer, IterationStats, TrainConfig};
use agsc::nn::{gemm, GemmKernel, Matrix};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::mpsc;
use std::time::Duration;

fn proto_env() -> AirGroundEnv {
    let dataset = presets::purdue(3);
    let cfg = EnvConfig { horizon: 20, stochastic_fading: false, ..EnvConfig::default() };
    AirGroundEnv::new(cfg, &dataset, 7)
}

fn train_cfg(num_envs: usize, rollout_workers: usize) -> TrainConfig {
    TrainConfig {
        hidden: vec![16],
        policy_epochs: 2,
        lcf_epochs: 1,
        num_envs,
        rollout_workers,
        ..TrainConfig::default()
    }
}

fn trainer(cfg: TrainConfig) -> HiMadrlTrainer {
    HiMadrlTrainer::new(&proto_env(), cfg, 3, 7).unwrap()
}

/// Bitwise equality over every numeric field of one iteration's stats.
fn assert_stats_bitwise(a: &IterationStats, b: &IterationStats, ctx: &str) {
    let bits = |xs: &[f32]| xs.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
    assert_eq!(a.mean_ext_reward.to_bits(), b.mean_ext_reward.to_bits(), "{ctx}: ext reward");
    assert_eq!(a.mean_intrinsic.to_bits(), b.mean_intrinsic.to_bits(), "{ctx}: intrinsic");
    assert_eq!(a.classifier_loss.to_bits(), b.classifier_loss.to_bits(), "{ctx}: clf loss");
    assert_eq!(a.classifier_accuracy.to_bits(), b.classifier_accuracy.to_bits(), "{ctx}: clf acc");
    assert_eq!(
        a.train_metrics.efficiency.to_bits(),
        b.train_metrics.efficiency.to_bits(),
        "{ctx}: lambda"
    );
    assert_eq!(
        a.train_metrics.data_collection_ratio.to_bits(),
        b.train_metrics.data_collection_ratio.to_bits(),
        "{ctx}: psi"
    );
    assert_eq!(a.ppo.mean_ratio.to_bits(), b.ppo.mean_ratio.to_bits(), "{ctx}: ppo ratio");
    assert_eq!(a.ppo.clip_fraction.to_bits(), b.ppo.clip_fraction.to_bits(), "{ctx}: clip");
    assert_eq!(a.ppo.entropy.to_bits(), b.ppo.entropy.to_bits(), "{ctx}: entropy");
    assert_eq!(a.ppo.approx_kl.to_bits(), b.ppo.approx_kl.to_bits(), "{ctx}: kl");
    assert_eq!(a.ppo.grad_norm.to_bits(), b.ppo.grad_norm.to_bits(), "{ctx}: policy grad");
    assert_eq!(a.value_loss.to_bits(), b.value_loss.to_bits(), "{ctx}: value loss");
    assert_eq!(
        a.explained_variance.to_bits(),
        b.explained_variance.to_bits(),
        "{ctx}: explained var"
    );
    assert_eq!(a.advantage_mean.to_bits(), b.advantage_mean.to_bits(), "{ctx}: adv mean");
    assert_eq!(a.advantage_std.to_bits(), b.advantage_std.to_bits(), "{ctx}: adv std");
    assert_eq!(a.critic_grad_norm.to_bits(), b.critic_grad_norm.to_bits(), "{ctx}: critic grad");
    assert_eq!(bits(&a.intrinsic_share), bits(&b.intrinsic_share), "{ctx}: intrinsic share");
    assert_eq!(bits(&a.collection_share), bits(&b.collection_share), "{ctx}: collection share");
    assert_eq!(a.lcf_degrees, b.lcf_degrees, "{ctx}: lcfs");
    assert_eq!(a.update_skipped, b.update_skipped, "{ctx}: skip flag");
    assert_eq!(a.nan_events, b.nan_events, "{ctx}: nan events");
}

/// Every learnable parameter of the trainer, serialized, with the config
/// removed (two runs may legitimately differ in `rollout_workers` — a knob
/// that must never affect the learned parameters).
fn params_without_config(t: &HiMadrlTrainer) -> serde_json::Value {
    let mut v = serde_json::to_value(t.checkpoint()).expect("checkpoint serializes");
    v.as_object_mut().unwrap().remove("config");
    v
}

#[test]
fn vec_collection_with_one_replica_is_bit_identical_to_serial() {
    let mut serial = trainer(train_cfg(1, 0));
    let mut vectored = trainer(train_cfg(1, 0));
    let mut env = proto_env();
    let mut venv = VecEnv::new(&proto_env(), 1);
    // Both trainers share the seed, so both draw the same batch seed.
    let r_serial = serial.collect_rollout(&mut env);
    let r_vec = vectored.collect_rollout_vec(&mut venv);
    assert_eq!(r_vec.len(), 1);
    assert_eq!(r_serial, r_vec[0], "one-replica vectorized rollout must equal the serial rollout");
    assert_eq!(r_serial.len(), 20, "full horizon collected");
}

#[test]
fn three_training_iterations_serial_vs_vec_one_replica() {
    let mut serial = trainer(train_cfg(1, 0));
    let mut vectored = trainer(train_cfg(1, 0));
    // The split iteration: collect, then update from the collected rollout.
    let mut split = trainer(train_cfg(1, 0));
    let mut env = proto_env();
    let mut split_env = proto_env();
    let mut venv = VecEnv::new(&proto_env(), 1);
    for i in 0..3 {
        let a = serial.train_iteration(&mut env);
        let b = vectored.train_iteration_vec(&mut venv);
        assert_stats_bitwise(&a, &b, &format!("iter {i}"));
        let r = split.collect_rollout(&mut split_env);
        let c = split.train_iteration_from_rollouts(vec![r], split_env.metrics());
        assert_stats_bitwise(&a, &c, &format!("split, iter {i}"));
    }
    assert_eq!(
        params_without_config(&serial),
        params_without_config(&vectored),
        "final network parameters must be bit-identical"
    );
    assert_eq!(
        params_without_config(&serial),
        params_without_config(&split),
        "the split iteration must learn the same parameters"
    );
}

#[test]
fn three_training_iterations_num_envs_four_one_vs_four_workers() {
    let mut one_worker = trainer(train_cfg(4, 1));
    let mut four_workers = trainer(train_cfg(4, 4));
    let mut venv1 = VecEnv::new(&proto_env(), 4);
    let mut venv4 = VecEnv::new(&proto_env(), 4);
    for i in 0..3 {
        let a = one_worker.train_iteration_vec(&mut venv1);
        let b = four_workers.train_iteration_vec(&mut venv4);
        assert_stats_bitwise(&a, &b, &format!("iter {i}"));
    }
    assert_eq!(
        params_without_config(&one_worker),
        params_without_config(&four_workers),
        "worker count must not change the learned parameters"
    );
}

#[test]
fn three_training_iterations_are_bit_identical_under_both_gemm_kernels() {
    // The dual-path GEMM contract, observed end to end: forcing every
    // matrix product through the naive reference loops or through the
    // tiled fast kernels must produce the same per-iteration stats and the
    // same checkpointed parameters, bit for bit. (The override is
    // process-wide, but that is safe here: the two kernels are
    // bit-identical, so concurrent tests cannot observe the toggle.)
    let run = |kernel: GemmKernel| {
        gemm::set_kernel_override(Some(kernel));
        let mut t = trainer(train_cfg(2, 0));
        let mut venv = VecEnv::new(&proto_env(), 2);
        let stats: Vec<IterationStats> = (0..3).map(|_| t.train_iteration_vec(&mut venv)).collect();
        let params = params_without_config(&t);
        gemm::set_kernel_override(None);
        (stats, params)
    };
    let (stats_ref, params_ref) = run(GemmKernel::Reference);
    let (stats_fast, params_fast) = run(GemmKernel::Fast);
    for (i, (a, b)) in stats_ref.iter().zip(&stats_fast).enumerate() {
        assert_stats_bitwise(a, b, &format!("ref vs fast, iter {i}"));
    }
    assert_eq!(
        params_ref, params_fast,
        "checkpointed parameters must be bit-identical across GEMM kernels"
    );
}

/// Three `num_envs = 1` iterations of `cfg` at 1, 2, 3 and 4 workers,
/// which run the per-agent update on that many threads (3 workers cut the
/// 4 agents into uneven shards), compared bit for bit.
fn assert_update_is_worker_count_invariant(cfg: &TrainConfig, what: &str) {
    let run = |workers: usize| {
        let mut t = trainer(TrainConfig { rollout_workers: workers, ..cfg.clone() });
        let mut env = proto_env();
        let stats: Vec<IterationStats> = (0..3).map(|_| t.train_iteration(&mut env)).collect();
        (stats, params_without_config(&t))
    };
    let (stats_one, params_one) = run(1);
    for workers in [2, 3, 4] {
        let (stats, params) = run(workers);
        for (i, (a, b)) in stats_one.iter().zip(&stats).enumerate() {
            assert_stats_bitwise(a, b, &format!("{what}: 1 vs {workers} workers, iter {i}"));
        }
        assert_eq!(params_one, params, "{what}: {workers} workers changed the learned parameters");
    }
}

#[test]
fn parallel_update_is_worker_count_invariant() {
    let base = train_cfg(1, 0);
    let ablation = base.ablation;
    for (what, cfg) in [
        ("default", base.clone()),
        ("shared params", TrainConfig { shared_params: true, ..base.clone() }),
        (
            "no heterogeneous split",
            TrainConfig { ablation: Ablation { heterogeneous: false, ..ablation }, ..base.clone() },
        ),
        (
            "no h-CoPO",
            TrainConfig { ablation: Ablation { use_copo: false, ..ablation }, ..base.clone() },
        ),
        ("centralized critic", TrainConfig { centralized_critic: true, ..base.clone() }),
    ] {
        assert_update_is_worker_count_invariant(&cfg, what);
    }
}

#[test]
fn nan_guard_rollback_is_worker_count_invariant() {
    // Poison V_all, as the trainer's own NaN-guard test does: the overall
    // advantage goes non-finite only after every agent's policy epochs ran
    // on the worker threads, so the rollback has to undo all of them.
    let run = |workers: usize| {
        let mut ckpt = trainer(train_cfg(1, workers)).checkpoint();
        for p in ckpt.v_all.params_mut() {
            p.value.as_mut_slice().fill(f32::NAN);
        }
        let mut t = HiMadrlTrainer::restore(&ckpt, 7).unwrap();
        let learnables = |t: &HiMadrlTrainer| {
            let mut v = params_without_config(t);
            v.as_object_mut().unwrap().remove("iterations_done");
            v
        };
        let before = learnables(&t);
        let stats = t.train_iteration(&mut proto_env());
        assert!(stats.update_skipped, "{workers} workers: the guard must skip the update");
        assert_eq!(stats.nan_events, 1, "{workers} workers");
        assert_eq!(learnables(&t), before, "{workers} workers: learnables must be restored");
        stats
    };
    assert_stats_bitwise(&run(1), &run(2), "NaN-guard rollback, 1 vs 2 workers");
}

#[test]
fn per_replica_rollouts_are_worker_count_invariant() {
    let one_worker = trainer(train_cfg(4, 1));
    let four_workers = trainer(train_cfg(4, 4));
    let mut venv1 = VecEnv::new(&proto_env(), 4);
    let mut venv4 = VecEnv::new(&proto_env(), 4);
    let r1 = one_worker.collect_rollout_vec_seeded(&mut venv1, 0xC0FFEE);
    let r4 = four_workers.collect_rollout_vec_seeded(&mut venv4, 0xC0FFEE);
    assert_eq!(r1.len(), 4);
    assert_eq!(r1, r4, "per-replica rollouts must match pairwise across worker counts");
    // Replicas are decorrelated: distinct derived seeds produce distinct
    // episodes (identical ones would mean the derivation collapsed).
    assert_ne!(r1[0].states, r1[1].states, "replicas must not replay the same episode");
}

#[test]
fn nan_actor_in_the_last_shard_rolls_back_identically_at_every_worker_count() {
    // The last agent sits in the last shard at every worker count, so its
    // poison meets the update on a worker thread whenever there is one.
    let run = |workers: usize| {
        let mut ckpt = trainer(train_cfg(1, workers)).checkpoint();
        let last = ckpt.agents.len() - 1;
        for p in ckpt.agents[last].actor_mut().params_mut() {
            p.value.as_mut_slice().fill(f32::NAN);
        }
        let mut t = HiMadrlTrainer::restore(&ckpt, 7).unwrap();
        let learnables = |t: &HiMadrlTrainer| {
            let mut v = params_without_config(t);
            v.as_object_mut().unwrap().remove("iterations_done");
            serde_json::to_string(&v).unwrap()
        };
        let before = learnables(&t);
        let stats = t.train_iteration(&mut proto_env());
        assert!(stats.update_skipped, "{workers} workers: the guard must skip the update");
        assert_eq!(stats.nan_events, 1, "{workers} workers");
        assert_eq!(learnables(&t), before, "{workers} workers: learnables must be restored");
        stats
    };
    let one = run(1);
    for workers in [2, 3] {
        assert_stats_bitwise(&one, &run(workers), &format!("NaN actor, 1 vs {workers} workers"));
    }
}

/// `rollout` with the last agent's observation matrix one column short.
fn last_obs_one_column_short(mut rollout: Rollout) -> Rollout {
    let obs = rollout.obs.last_mut().expect("agents");
    let (rows, cols) = obs.shape();
    let data = (0..rows).flat_map(|r| obs.row(r)[..cols - 1].to_vec()).collect();
    *obs = Matrix::from_vec(rows, cols - 1, data);
    rollout
}

#[test]
fn a_shape_panic_in_the_update_reaches_the_caller_at_every_worker_count() {
    for workers in [1, 2, 3] {
        for use_eoi in [true, false] {
            let (done, finished) = mpsc::channel();
            // The update runs on its own thread so a worker left waiting
            // on a phase-B turn fails this test instead of hanging it.
            std::thread::spawn(move || {
                let mut cfg = train_cfg(1, workers);
                cfg.ablation.use_eoi = use_eoi;
                let mut t = trainer(cfg);
                let mut env = proto_env();
                let rollout = last_obs_one_column_short(t.collect_rollout(&mut env));
                let metrics = env.metrics();
                let outcome = catch_unwind(AssertUnwindSafe(|| {
                    t.train_iteration_from_rollouts(vec![rollout], metrics)
                }));
                let message = outcome.err().map(|p| agsc::madrl::parallel::panic_message(&*p));
                done.send(message).unwrap();
            });
            let message = finished
                .recv_timeout(Duration::from_secs(60))
                .unwrap_or_else(|_| panic!("{workers} workers, i-EOI {use_eoi}: the update hung"));
            let message = message.expect("the shape check must panic");
            assert!(
                message.contains("mismatch"),
                "{workers} workers, i-EOI {use_eoi}: not the shape check's panic: {message}"
            );
        }
    }
}
