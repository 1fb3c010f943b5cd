//! Cross-process golden tests for the distributed actor–learner fleet.
//!
//! The contract under test: for a fixed `(total_shards, seed)`,
//! distributed training over the TCP wire reproduces single-process
//! `train_iteration_vec` with `num_envs = total_shards` **bit-for-bit** —
//! for any worker count, compression mix, or mid-generation fault
//! pattern. As in the parallel-rollout goldens, everything is compared at
//! the bit level, never with tolerances: distribution is only allowed to
//! change wall-clock, never arithmetic.
//!
//! Workers here are threads speaking real TCP to a real learner socket —
//! the same loop `dist_worker` runs as a separate process.

use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

use agsc::datasets::presets;
use agsc::env::{AirGroundEnv, EnvConfig, VecEnv};
use agsc::madrl::{IterationStats, Rollout};
use agsc_dist::proto::{read_learner_msg, write_worker_msg};
use agsc_dist::{
    encode_segment, run_worker, setup, Compression, DistError, Learner, LearnerConfig, LearnerMsg,
    WorkerConfig, WorkerExit, WorkerMsg, PROTOCOL_VERSION,
};
use agsc_serve::RetryPolicy;

const SEED: u64 = 42;
const SHARDS: usize = 4;
const GENS: usize = 3;

fn learner_cfg() -> LearnerConfig {
    LearnerConfig {
        total_shards: SHARDS,
        chunk: 1,
        generation_timeout: Duration::from_secs(120),
        max_frame_bytes: 64 << 20,
    }
}

/// Explicit worker config — tests must not read `AGSC_*` env knobs, which
/// other tests in the binary could never safely set in parallel.
fn worker_cfg(addr: SocketAddr, id: u64) -> WorkerConfig {
    WorkerConfig {
        addr,
        worker_id: id,
        compression: Compression::Rle,
        retry: RetryPolicy { max_attempts: 6, ..RetryPolicy::default() },
        max_frame_bytes: 64 << 20,
        max_segments: None,
    }
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

/// The single-process reference the fleet must reproduce: a fresh trainer
/// with the fleet's seed, driven through `train_iteration_vec` with
/// `num_envs = SHARDS`.
fn reference_run() -> (Vec<IterationStats>, String) {
    let env = setup::quickstart_env(SEED);
    let mut t = setup::quickstart_trainer(&env, GENS, SEED).unwrap();
    let mut venv = VecEnv::new(&env, SHARDS);
    let stats = (0..GENS).map(|_| t.train_iteration_vec(&mut venv)).collect();
    (stats, serde_json::to_string(&t.checkpoint()).unwrap())
}

/// Per-worker config customization hook for [`fleet_run`].
type Customize = Box<dyn FnOnce(WorkerConfig) -> WorkerConfig + Send>;

/// Run a whole fleet in-process: a learner on an OS-assigned port plus one
/// worker thread per config-customizing closure. Returns per-generation
/// stats, the final checkpoint JSON, and each worker's exit.
fn fleet_run(workers: Vec<Customize>) -> (Vec<IterationStats>, String, Vec<WorkerExit>) {
    let env = setup::quickstart_env(SEED);
    let trainer = setup::quickstart_trainer(&env, GENS, SEED).unwrap();
    let mut learner =
        Learner::start("127.0.0.1:0".parse().unwrap(), trainer, learner_cfg()).unwrap();
    let addr = learner.addr();
    let handles: Vec<_> = workers
        .into_iter()
        .enumerate()
        .map(|(id, customize)| {
            std::thread::spawn(move || {
                let env = setup::quickstart_env(SEED);
                run_worker(&env, &customize(worker_cfg(addr, id as u64)))
            })
        })
        .collect();
    let stats = learner.train(GENS).expect("distributed generations");
    let trainer = learner.shutdown();
    let exits =
        handles.into_iter().map(|h| h.join().expect("worker thread").expect("worker")).collect();
    (stats, serde_json::to_string(&trainer.checkpoint()).unwrap(), exits)
}

fn plain(n: usize) -> Vec<Customize> {
    (0..n).map(|_| Box::new(|c: WorkerConfig| c) as Customize).collect()
}

#[test]
fn two_worker_fleet_is_bit_identical_to_single_process() {
    let (ref_stats, ref_json) = reference_run();
    let (stats, json, exits) = fleet_run(plain(2));
    assert_eq!(exits, vec![WorkerExit::Finished; 2]);
    assert_eq!(stats.len(), GENS);
    for (i, (a, b)) in stats.iter().zip(&ref_stats).enumerate() {
        assert_stats_bitwise(a, b, &format!("gen {i}"));
    }
    assert_eq!(json, ref_json, "final checkpoint must be byte-identical to the reference");
}

#[test]
fn training_is_worker_count_invariant() {
    let (one_stats, one_json, _) = fleet_run(plain(1));
    let (two_stats, two_json, _) = fleet_run(plain(2));
    for (i, (a, b)) in one_stats.iter().zip(&two_stats).enumerate() {
        assert_stats_bitwise(a, b, &format!("1 vs 2 workers, gen {i}"));
    }
    assert_eq!(one_json, two_json, "worker count must not change the learned parameters");
}

#[test]
fn mixed_compression_fleets_interoperate() {
    // The compression mode travels per segment, so a fleet can mix raw and
    // RLE workers freely — and neither choice may touch the arithmetic.
    let (_, ref_json) = reference_run();
    let (_, json, exits) = fleet_run(vec![
        Box::new(|c: WorkerConfig| WorkerConfig { compression: Compression::None, ..c })
            as Customize,
        Box::new(|c: WorkerConfig| WorkerConfig { compression: Compression::Rle, ..c }),
    ]);
    assert_eq!(exits, vec![WorkerExit::Finished; 2]);
    assert_eq!(json, ref_json, "segment compression must be invisible to training");
}

#[test]
fn mid_generation_desertion_is_survived_bit_identically() {
    // Chaos case: a worker deserts (drops its connection) after its first
    // acked segment, mid-generation. Its claimed shards are requeued and a
    // late-joining healthy worker collects them; because every shard is a
    // pure function of (params, batch_seed, index), the fault pattern must
    // be invisible in the result.
    let (ref_stats, ref_json) = reference_run();
    let env = setup::quickstart_env(SEED);
    let trainer = setup::quickstart_trainer(&env, GENS, SEED).unwrap();
    let mut learner =
        Learner::start("127.0.0.1:0".parse().unwrap(), trainer, learner_cfg()).unwrap();
    let addr = learner.addr();
    let deserter = std::thread::spawn(move || {
        let env = setup::quickstart_env(SEED);
        run_worker(&env, &WorkerConfig { max_segments: Some(1), ..worker_cfg(addr, 0) })
    });
    // Let the deserter connect first so it owns the opening assignment,
    // then bring in the healthy worker that must finish the job.
    std::thread::sleep(Duration::from_millis(300));
    let healthy = std::thread::spawn(move || {
        std::thread::sleep(Duration::from_millis(300));
        let env = setup::quickstart_env(SEED);
        run_worker(&env, &worker_cfg(addr, 1))
    });
    let stats = learner.train(GENS).expect("fleet must survive the desertion");
    let trainer = learner.shutdown();
    assert_eq!(deserter.join().unwrap().unwrap(), WorkerExit::Deserted);
    assert_eq!(healthy.join().unwrap().unwrap(), WorkerExit::Finished);
    for (i, (a, b)) in stats.iter().zip(&ref_stats).enumerate() {
        assert_stats_bitwise(a, b, &format!("after desertion, gen {i}"));
    }
    let json = serde_json::to_string(&trainer.checkpoint()).unwrap();
    assert_eq!(json, ref_json, "a deserting worker must not change the learned parameters");
}

#[test]
fn workerless_generation_stalls_typed_not_hung() {
    let env = setup::quickstart_env(SEED);
    let trainer = setup::quickstart_trainer(&env, 1, SEED).unwrap();
    let cfg = LearnerConfig { generation_timeout: Duration::from_millis(200), ..learner_cfg() };
    let mut learner = Learner::start("127.0.0.1:0".parse().unwrap(), trainer, cfg).unwrap();
    match learner.train_generation() {
        Err(DistError::GenerationStalled { generation, mut missing }) => {
            assert_eq!(generation, 1);
            missing.sort_unstable();
            assert_eq!(missing, (0..SHARDS as u32).collect::<Vec<_>>(), "every shard named");
        }
        other => panic!("expected GenerationStalled, got {other:?}"),
    }
    learner.shutdown();
}

#[test]
fn fleet_size_mismatch_fails_the_worker_typed_not_panicked() {
    // obs_dim = 3·(UVs + PoIs), so 5 UVs over 99 PoIs and the quickstart's
    // 4 UVs over 100 share it: only the fleet size tells the worlds apart.
    let mut dataset = presets::purdue(SEED);
    dataset.pois.truncate(99);
    let cfg = EnvConfig {
        num_uavs: 3,
        num_ugvs: 2,
        horizon: 10,
        stochastic_fading: false,
        ..EnvConfig::default()
    };
    let five = AirGroundEnv::new(cfg, &dataset, SEED);
    let four = setup::quickstart_env(SEED);
    assert_eq!((five.obs_dim(), five.num_uvs(), four.num_uvs()), (four.obs_dim(), 5, 4));
    let trainer = setup::quickstart_trainer(&five, 1, SEED).unwrap();
    let cfg = LearnerConfig { generation_timeout: Duration::from_secs(1), ..learner_cfg() };
    let mut learner = Learner::start("127.0.0.1:0".parse().unwrap(), trainer, cfg).unwrap();
    let addr = learner.addr();
    let worker = std::thread::spawn(move || run_worker(&four, &worker_cfg(addr, 0)));
    let generation = learner.train_generation();
    match worker.join().expect("the worker must fail typed, not panic") {
        Err(DistError::ShapeMismatch(msg)) => {
            assert!(msg.contains("5 agents") && msg.contains("4 UVs"), "{msg}")
        }
        other => panic!("expected ShapeMismatch, got {other:?}"),
    }
    assert!(matches!(generation, Err(DistError::GenerationStalled { .. })), "{generation:?}");
    learner.shutdown();
}

/// A two-step segment for `k` agents with `obs_dim`-wide observations
/// and states, whose agent 0 names `neighbor` as a relay partner.
fn segment(k: usize, obs_dim: usize, neighbor: usize) -> Vec<u8> {
    let mut r = Rollout::new(k);
    for _ in 0..2 {
        let mut het = vec![vec![]; k];
        het[0].push(neighbor);
        r.push_step(
            &vec![vec![0.5; obs_dim]; k],
            vec![0.5; obs_dim],
            &vec![[0.0, 0.0]; k],
            &vec![-1.0; k],
            &vec![0.0; k],
            het,
            vec![vec![]; k],
        );
    }
    encode_segment(&r, Compression::Rle)
}

/// A hand-written worker that submits one malformed segment for the first
/// shard it is given, then checks that the learner hangs up without an Ack.
fn submit_malformed(addr: SocketAddr, malform: fn(usize, usize) -> Vec<u8>) {
    let cap = 64 << 20;
    let mut s = TcpStream::connect(addr).unwrap();
    write_worker_msg(&mut s, &WorkerMsg::Hello { version: PROTOCOL_VERSION, worker_id: 99 }, cap)
        .unwrap();
    assert!(matches!(read_learner_msg(&mut s, cap).unwrap(), Some(LearnerMsg::HelloOk { .. })));
    let Some(LearnerMsg::Params { generation, policy }) = read_learner_msg(&mut s, cap).unwrap()
    else {
        panic!("expected Params");
    };
    let Some(LearnerMsg::Work { indices, .. }) = read_learner_msg(&mut s, cap).unwrap() else {
        panic!("expected Work");
    };
    let metrics = setup::quickstart_env(SEED).metrics();
    let segment = malform(policy.num_agents(), policy.obs_dim());
    let submit = WorkerMsg::SubmitSegment { generation, env_index: indices[0], metrics, segment };
    write_worker_msg(&mut s, &submit, cap).unwrap();
    // Refused: the learner drops the connection instead of acking.
    assert!(!matches!(read_learner_msg(&mut s, cap), Ok(Some(LearnerMsg::Ack { .. }))));
}

#[test]
fn malformed_segments_are_refused_and_their_shards_reassigned() {
    let (ref_stats, ref_json) = reference_run();
    let env = setup::quickstart_env(SEED);
    let trainer = setup::quickstart_trainer(&env, GENS, SEED).unwrap();
    let mut learner =
        Learner::start("127.0.0.1:0".parse().unwrap(), trainer, learner_cfg()).unwrap();
    let addr = learner.addr();
    // One faulty worker at a time takes the opening assignment; only then
    // does an honest worker join to collect everything.
    let fleet = std::thread::spawn(move || {
        submit_malformed(addr, |k, obs_dim| segment(k - 1, obs_dim, 0)); // agent count
        submit_malformed(addr, |k, obs_dim| segment(k, obs_dim, k)); // neighbour id
        submit_malformed(addr, |k, obs_dim| segment(k, obs_dim + 1, 0)); // observation width
        run_worker(&setup::quickstart_env(SEED), &worker_cfg(addr, 1))
    });
    let stats = learner.train(GENS).expect("the learner must survive malformed segments");
    let trainer = learner.shutdown();
    assert_eq!(fleet.join().expect("no panic").unwrap(), WorkerExit::Finished);
    for (i, (a, b)) in stats.iter().zip(&ref_stats).enumerate() {
        assert_stats_bitwise(a, b, &format!("after malformed segments, gen {i}"));
    }
    let json = serde_json::to_string(&trainer.checkpoint()).unwrap();
    assert_eq!(json, ref_json, "refused segments must not change the learned parameters");
}
