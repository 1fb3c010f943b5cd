//! Distributed-training quickstart: one learner and two rollout workers
//! over localhost TCP, plus the bit-identity check against the
//! single-process reference — the whole determinism contract in one
//! binary.
//!
//! ```sh
//! cargo run --release --example dist_quickstart
//! ```
//!
//! Environment variables: `AGSC_ITERS` (default 3) sets the generation
//! count, `AGSC_SEED` (default 42) the fleet seed, `AGSC_DIST_SHARDS`
//! (default 4) the env replicas per generation, `AGSC_DIST_COMPRESS`
//! (`rle`/`none`) the segment codec. The workers here are threads for a
//! self-contained demo; `dist_learner` / `dist_worker` are the same loop
//! as separate processes.

use agsc::env::VecEnv;
use agsc::telemetry as tlm;
use agsc_dist::{run_worker, setup, Learner, LearnerConfig, WorkerConfig};

fn main() {
    tlm::init_run();
    let iters: usize = tlm::knobs::parse("AGSC_ITERS", 3);
    let seed: u64 = tlm::knobs::parse("AGSC_SEED", 42);
    let cfg = LearnerConfig::from_env();
    let shards = cfg.total_shards;

    // 1. The learner binds an OS-assigned localhost port and seeds the
    //    trainer exactly like the single-process reference would.
    let env = setup::quickstart_env(seed);
    let trainer = setup::quickstart_trainer(&env, iters, seed).expect("trainer construction");
    let mut learner =
        Learner::start("127.0.0.1:0".parse().unwrap(), trainer, cfg).expect("bind learner");
    let addr = learner.addr();
    println!("learner on {addr}: {iters} generations x {shards} shards, seed {seed}");

    // 2. Two workers join the fleet. Every process (thread, here) builds
    //    the same world from the same seed — parameters arrive over the
    //    wire, so workers never train.
    let workers: Vec<_> = (0..2u64)
        .map(|id| {
            std::thread::spawn(move || {
                let env = setup::quickstart_env(seed);
                run_worker(&env, &WorkerConfig::new(addr, id))
            })
        })
        .collect();

    // 3. Each generation: broadcast (params, batch_seed), collect all
    //    shards from whoever gets there first, update.
    let stats = learner.train(iters).expect("distributed generations");
    for (i, s) in stats.iter().enumerate() {
        println!(
            "gen {:>2}  ext_reward {:+.4}  value_loss {:.4}  collect {:.3}",
            i + 1,
            s.mean_ext_reward,
            s.value_loss,
            s.train_metrics.data_collection_ratio
        );
    }
    let trainer = learner.shutdown();
    for w in workers {
        w.join().expect("worker thread").expect("worker exit");
    }

    // 4. The contract: the distributed run reproduces the single-process
    //    vectorized reference bit-for-bit.
    let mut reference = setup::quickstart_trainer(&env, iters, seed).expect("reference trainer");
    let mut venv = VecEnv::new(&env, shards);
    for _ in 0..iters {
        reference.train_iteration_vec(&mut venv);
    }
    let dist_json = serde_json::to_string(&trainer.checkpoint()).expect("serialize");
    let ref_json = serde_json::to_string(&reference.checkpoint()).expect("serialize");
    assert_eq!(dist_json, ref_json, "distributed training must match the reference bit-for-bit");
    println!("bit-identity verified: {} checkpoint bytes identical", ref_json.len());

    // 5. Where the wall time went: the learner's `dist_params_encode`,
    //    the workers' `dist_params_decode` and `dist_collect_segment`
    //    spans, and the `dist.*` counters (empty when telemetry is off).
    tlm::emit_profile();
    if let Some(table) = tlm::profile_table() {
        println!("\nspan profile:\n{table}");
    }
    tlm::flush();
    println!("done; the same fleet as separate processes:");
    println!("  cargo run --release -p agsc-dist --bin dist_learner   # terminal 1");
    println!("  cargo run --release -p agsc-dist --bin dist_worker    # terminals 2..n");
}
