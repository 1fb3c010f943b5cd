//! Chaos smoke: the whole operating-under-failure story in one binary.
//!
//! ```sh
//! cargo run --release --example chaos_smoke
//! ```
//!
//! 1. Train briefly and save **durable generations** through a
//!    [`CheckpointStore`] (CRC32 footers, fsync'd atomic renames, keep-K
//!    retention).
//! 2. Flip a byte in the newest generation and watch restore detect the
//!    corruption and **fall back** to the newest intact one.
//! 3. Serve the restored policy behind a **hardened server** (frame and
//!    idle deadlines, connection cap) fronted by a seeded **chaos proxy**
//!    (resets, truncation, black holes, delays), and complete a workload
//!    with a **retrying client** — then prove a clean client still gets
//!    bit-identical actions.
//!
//! Telemetry (counters like `checkpoint.fallback`, `serve.conn_timeout`,
//! `client.retries`) lands in the run's JSONL sink when
//! `AGSC_TELEMETRY_DIR` is set — the CI chaos-smoke job uploads it as an
//! artifact.

use std::sync::Arc;
use std::time::Duration;

use agsc::datasets::presets;
use agsc::env::{AirGroundEnv, EnvConfig};
use agsc::madrl::{CheckpointStore, HiMadrlTrainer, InferencePolicy, TrainConfig};
use agsc::telemetry as tlm;
use agsc_serve::{
    checkpoint_loader, ActionOutcome, ChaosConfig, ChaosPlan, ChaosProxy, Client, ClientConfig,
    RetryPolicy, RetryingClient, ServeConfig, Server,
};

fn main() {
    tlm::init_run();

    // 1. Train a small fleet and lay down durable checkpoint generations.
    let dataset = presets::purdue(7);
    let env_cfg = EnvConfig { horizon: 20, ..EnvConfig::default() };
    let mut env = AirGroundEnv::new(env_cfg, &dataset, 7);
    let mut trainer =
        HiMadrlTrainer::new(&env, TrainConfig::default(), 2, 7).expect("valid default config");
    let store_dir = tlm::run_dir().unwrap_or_else(|| ".".into()).join("chaos-smoke-ckpts");
    let store = CheckpointStore::new(&store_dir, 3);
    println!("training 2 iterations, one durable generation each...");
    let mut last_path = None;
    for _ in 0..2 {
        trainer.train(&mut env, 1);
        last_path = Some(store.save(&trainer.checkpoint()).expect("durable save"));
    }
    let newest = last_path.expect("two saves happened");
    println!("generations in {}: {:?}", store_dir.display(), store.generations().len());

    // 2. Bit-flip the newest generation; restore must detect it and fall
    //    back to the previous one.
    let mut bytes = std::fs::read(&newest).expect("read newest generation");
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0x01;
    std::fs::write(&newest, &bytes).expect("write the corrupted file back");
    println!("flipped one bit in {}", newest.display());
    let (restored, from) = store.restore_latest().expect("an intact generation remains");
    assert_ne!(from, newest, "restore must not trust a corrupt newest generation");
    println!("restore fell back to {}", from.display());

    // 3. Serve the fallback generation behind a chaos proxy.
    let policy = InferencePolicy::from_checkpoint(&restored).expect("fallback is servable");
    let reference = InferencePolicy::from_checkpoint(&restored).expect("reference copy");
    let (num_agents, obs_dim) = (policy.num_agents(), policy.obs_dim());
    let config = ServeConfig {
        read_timeout: Some(Duration::from_millis(100)),
        idle_timeout: Some(Duration::from_secs(2)),
        write_timeout: Some(Duration::from_secs(1)),
        ..ServeConfig::from_env()
    };
    let server =
        Server::start(config, Arc::new(policy), checkpoint_loader()).expect("server start");
    let chaos = ChaosConfig {
        seed: 0xC4A0_5110,
        blackhole_prob: 0.08,
        reset_prob: 0.15,
        truncate_prob: 0.15,
        corrupt_prob: 0.0,
        delay_prob: 0.12,
        delay: Duration::from_millis(2),
    };
    let proxy = ChaosProxy::start(server.addr(), ChaosPlan::new(chaos)).expect("proxy start");
    println!("serving {num_agents} agents on {} via chaos proxy {}", server.addr(), proxy.addr());

    // A retrying client pushes a workload through the fault storm.
    let deadlines = ClientConfig {
        connect_timeout: Some(Duration::from_millis(250)),
        read_timeout: Some(Duration::from_millis(250)),
        write_timeout: Some(Duration::from_millis(250)),
    };
    let retry = RetryPolicy {
        max_attempts: 25,
        base: Duration::from_millis(2),
        cap: Duration::from_millis(40),
        ..RetryPolicy::default()
    };
    let mut client = RetryingClient::new(proxy.addr(), deadlines, retry);
    let mut served = 0u32;
    for i in 0..30u32 {
        let agent = (i as usize) % num_agents;
        let obs: Vec<f32> = (0..obs_dim).map(|j| ((i as usize + j) as f32 * 0.03).sin()).collect();
        match client.action(agent as u32, &obs).expect("retries must absorb transport chaos") {
            ActionOutcome::Action(a) => {
                let want = reference.action(agent, &obs);
                assert_eq!(a[0].to_bits(), want[0].to_bits(), "req {i}: heading diverged");
                assert_eq!(a[1].to_bits(), want[1].to_bits(), "req {i}: speed diverged");
                served += 1;
            }
            ActionOutcome::Overloaded => panic!("nothing saturates this server"),
        }
    }
    let rstats = client.stats();
    let cstats = proxy.stats();
    println!(
        "workload done: {served}/30 served bit-identically \
         ({} retries, {} reconnects across {} proxied connections: \
         {} reset, {} truncated, {} blackholed, {} delayed)",
        rstats.retries,
        rstats.reconnects,
        cstats.connections,
        cstats.resets,
        cstats.truncations,
        cstats.blackholes,
        cstats.delayed,
    );

    // A clean, direct client was never at risk.
    let mut clean = Client::connect(server.addr()).expect("clean connect");
    clean.ping().expect("clean ping");
    println!("clean direct client: OK");

    proxy.shutdown();
    server.shutdown();
    tlm::flush();
    println!("chaos smoke: PASS");
}
