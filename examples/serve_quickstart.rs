//! Serving quickstart: train briefly, checkpoint, serve the policy over
//! TCP, and query it — the full serving loop in one binary.
//!
//! ```sh
//! cargo run --release --example serve_quickstart
//! ```
//!
//! Environment variables: `AGSC_ITERS` (default 2) scales the training
//! budget; `AGSC_SERVE_ADDR` picks the bind address (default: an
//! OS-assigned localhost port); `AGSC_TELEMETRY_DIR` also decides where
//! the checkpoint lands (`<dir>/policy.json`, falling back to
//! `./policy.json`) so a CI job can chain this example into the load
//! generator via `AGSC_SERVE_CKPT`; `AGSC_METRICS_ADDR` (unset by
//! default) additionally binds the admin HTTP plane (`/metrics`,
//! `/healthz`) next to the TCP server; `AGSC_PROF=1` adds the per-thread
//! self-profiler table, `profile.folded`, and a GEMM FLOP summary.

use std::sync::Arc;

use agsc::datasets::presets;
use agsc::env::{AirGroundEnv, EnvConfig};
use agsc::madrl::{HiMadrlTrainer, InferencePolicy, TrainConfig};
use agsc::telemetry as tlm;
use agsc_serve::{checkpoint_loader, ActionOutcome, Client, ServeConfig, Server};

fn main() {
    let iters: usize = tlm::knobs::parse("AGSC_ITERS", 2);
    tlm::init_run();

    // 1. Train a small fleet briefly — enough to have real learned weights
    //    to serve, cheap enough for a smoke run.
    let dataset = presets::purdue(7);
    let env_cfg = EnvConfig { horizon: 20, ..EnvConfig::default() };
    let mut env = AirGroundEnv::new(env_cfg, &dataset, 7);
    let mut trainer = HiMadrlTrainer::new(&env, TrainConfig::default(), iters, 7)
        .expect("default training config must be valid");
    println!("training {iters} iterations...");
    trainer.train(&mut env, iters);

    // 2. Checkpoint to disk — the same artifact a long training run would
    //    leave behind, and the loadgen's `AGSC_SERVE_CKPT` input.
    let ckpt_path = tlm::run_dir().unwrap_or_else(|| ".".into()).join("policy.json");
    trainer.checkpoint().save_json(&ckpt_path).expect("checkpoint save");
    println!("checkpoint: {}", ckpt_path.display());

    // 3. Serve it. `Server::start` spawns its own threads; the handle is
    //    the shutdown lever.
    let policy = InferencePolicy::load(&ckpt_path).expect("checkpoint load");
    let (num_agents, obs_dim) = (policy.num_agents(), policy.obs_dim());
    let server = Server::start(ServeConfig::from_env(), Arc::new(policy), checkpoint_loader())
        .expect("server start");
    println!("serving {num_agents} agents (obs_dim {obs_dim}) on {}", server.addr());

    // 4. Query it like a deployment-side controller would: one action per
    //    agent for a fresh observation.
    let mut client = Client::connect(server.addr()).expect("client connect");
    let info = client.info().expect("info query");
    println!(
        "server info: agents={} obs_dim={} generation={}",
        info.num_agents, info.obs_dim, info.generation
    );
    for agent in 0..num_agents {
        let obs: Vec<f32> = (0..obs_dim).map(|j| (j as f32 * 0.01).sin()).collect();
        match client.action(agent as u32, &obs).expect("action query") {
            ActionOutcome::Action([heading, speed]) => {
                println!("  agent {agent}: heading {heading:+.4}, speed {speed:+.4}");
            }
            ActionOutcome::Overloaded => println!("  agent {agent}: server overloaded"),
        }
    }

    // 5. Hot reload from the same file: generation bumps, service continues.
    let reload = client.reload(ckpt_path.to_str().expect("utf-8 path")).expect("reload");
    println!(
        "reloaded: generation {} (trained {} iters)",
        reload.generation, reload.iterations_done
    );

    // 6. Peek at the live observability plane over the same wire: the
    //    `Stats` frame returns the telemetry registry (counters, rolling
    //    rates, latency quantiles, live queue gauges) as JSON. The same
    //    registry backs `/metrics` and `/healthz` when the server is
    //    started with `AGSC_METRICS_ADDR=127.0.0.1:9100`.
    let stats = client.stats().expect("stats query");
    println!("server stats: {stats}");

    server.shutdown();
    tlm::emit_profile();
    if let Some(table) = tlm::profile_table() {
        println!("\nspan profile:\n{table}");
    }

    // 7. With AGSC_PROF=1: per-thread exclusive-time attribution across the
    //    trainer and the server's batcher/connection threads, the folded
    //    stacks for flamegraph/speedscope, and total GEMM work.
    if tlm::prof::is_enabled() {
        if let Some(table) = tlm::prof::report_table() {
            println!("\nself-profile (exclusive time):\n{table}");
        }
        if let Some(path) = tlm::prof::write_folded_default() {
            println!("folded profile: {}", path.display());
        }
        agsc::nn::flops::flush_thread();
        let flops = agsc::nn::flops::total();
        if flops > 0 {
            println!("GEMM work: {:.3} GFLOP across the run", flops as f64 / 1e9);
        }
    }
    tlm::flush();
    println!("done; try the load generator next:");
    println!(
        "  AGSC_SERVE_CKPT={} cargo run --release -p agsc-serve --bin loadgen",
        ckpt_path.display()
    );
}
