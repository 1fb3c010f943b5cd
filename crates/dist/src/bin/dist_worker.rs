//! A rollout-worker process: connects to `AGSC_DIST_ADDR`, collects
//! assigned env shards, and streams segments until the learner shuts the
//! fleet down. `AGSC_SEED` must match the learner's — every process in a
//! fleet builds the same world (see `agsc_dist::setup`).

use std::process::ExitCode;

use agsc_dist::{run_worker, setup, WorkerConfig, WorkerExit};
use agsc_telemetry::knobs;

fn main() -> ExitCode {
    agsc_telemetry::init_run();
    let Ok(addr) = setup::fleet_addr().inspect_err(|e| eprintln!("dist_worker: {e}")) else {
        return ExitCode::FAILURE;
    };
    let seed = knobs::parse("AGSC_SEED", 42u64);
    let worker_id = knobs::parse("AGSC_DIST_WORKER_ID", std::process::id() as u64);

    let env = setup::quickstart_env(seed);
    let cfg = WorkerConfig::new(addr, worker_id);
    println!("worker {worker_id} -> {addr}, seed {seed}, compression {:?}", cfg.compression);
    let exit = run_worker(&env, &cfg);
    agsc_telemetry::emit_profile();
    match exit {
        Ok(WorkerExit::Finished) => {
            println!("worker {worker_id}: fleet shut down cleanly");
            agsc_telemetry::flush();
            ExitCode::SUCCESS
        }
        Ok(WorkerExit::Deserted) => {
            println!("worker {worker_id}: deserted after AGSC_DIST_MAX_SEGMENTS segments");
            agsc_telemetry::flush();
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("worker {worker_id} failed: {e}");
            ExitCode::FAILURE
        }
    }
}
