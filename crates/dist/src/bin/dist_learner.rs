//! The learner process of a distributed fleet.
//!
//! Binds `AGSC_DIST_ADDR` (default `127.0.0.1:7800`), trains `AGSC_ITERS`
//! generations over `AGSC_DIST_SHARDS` env shards with seed `AGSC_SEED`,
//! then shuts the fleet down. With the `AGSC_DIST_VERIFY` flag on it additionally
//! replays the same seed through the single-process `train_iteration_vec`
//! reference and exits nonzero unless the final checkpoints are
//! byte-identical — the CI smoke job's determinism gate.

use std::process::ExitCode;

use agsc_dist::{setup, Learner, LearnerConfig};
use agsc_env::VecEnv;
use agsc_telemetry::knobs;

fn main() -> ExitCode {
    agsc_telemetry::init_run();
    let Ok(addr) = setup::fleet_addr().inspect_err(|e| eprintln!("dist_learner: {e}")) else {
        return ExitCode::FAILURE;
    };
    let iters = knobs::parse("AGSC_ITERS", 3usize);
    let seed = knobs::parse("AGSC_SEED", 42u64);
    let cfg = LearnerConfig::from_env();
    let shards = cfg.total_shards;

    let env = setup::quickstart_env(seed);
    let trainer = setup::quickstart_trainer(&env, iters, seed).expect("trainer construction");
    let mut learner = Learner::start(addr, trainer, cfg).expect("bind learner");
    println!("learner on {} — {iters} generations x {shards} shards, seed {seed}", learner.addr());

    let stats = match learner.train(iters) {
        Ok(stats) => stats,
        Err(e) => {
            eprintln!("training failed: {e}");
            return ExitCode::FAILURE;
        }
    };
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

    if knobs::flag("AGSC_DIST_VERIFY", false) {
        let dist_json =
            serde_json::to_string(&trainer.checkpoint()).expect("serialize dist checkpoint");
        let mut reference =
            setup::quickstart_trainer(&env, iters, seed).expect("reference trainer");
        let mut venv = VecEnv::new(&env, shards);
        for _ in 0..iters {
            reference.train_iteration_vec(&mut venv);
        }
        let ref_json =
            serde_json::to_string(&reference.checkpoint()).expect("serialize reference checkpoint");
        if dist_json != ref_json {
            eprintln!(
                "VERIFY FAILED: distributed checkpoint differs from single-process reference"
            );
            return ExitCode::FAILURE;
        }
        println!("VERIFY OK: distributed == single-process reference ({} bytes)", ref_json.len());
    }

    agsc_telemetry::emit_profile();
    agsc_telemetry::flush();
    ExitCode::SUCCESS
}
