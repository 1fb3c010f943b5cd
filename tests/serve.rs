//! Acceptance tests for the policy-serving subsystem: real checkpoints
//! from a real `HiMadrlTrainer`, served over real sockets.
//!
//! The three contracts under test:
//! 1. batched serving is **bit-identical** to direct [`InferencePolicy`]
//!    inference, for many concurrent clients at once;
//! 2. queue overflow produces explicit `Overloaded` responses — every
//!    request is answered, nothing is dropped and nothing panics;
//! 3. hot reload swaps the policy without killing in-flight traffic.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

use agsc::datasets::presets;
use agsc::env::{AirGroundEnv, EnvConfig};
use agsc::madrl::{HiMadrlTrainer, InferencePolicy, TrainConfig};
use agsc::nn::{gemm, GemmKernel};
use agsc_serve::{
    checkpoint_loader, ActionOutcome, ChaosConfig, ChaosPlan, ChaosProxy, Client, ClientConfig,
    ServeConfig, Server, ServerHandle,
};

fn env() -> AirGroundEnv {
    let dataset = presets::purdue(1);
    let cfg = EnvConfig { horizon: 10, stochastic_fading: false, ..EnvConfig::default() };
    AirGroundEnv::new(cfg, &dataset, 5)
}

fn small_cfg() -> TrainConfig {
    TrainConfig { hidden: vec![16], policy_epochs: 1, lcf_epochs: 1, ..TrainConfig::default() }
}

/// Train for `iters` iterations and save the checkpoint under `name` in a
/// per-process temp dir. Returns the file path.
fn trained_checkpoint(iters: usize, name: &str) -> PathBuf {
    let mut e = env();
    let mut t = HiMadrlTrainer::new(&e, small_cfg(), 3, 9).unwrap();
    t.train(&mut e, iters);
    let dir = std::env::temp_dir().join(format!("agsc-serve-test-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join(name);
    t.checkpoint().save_json(&path).unwrap();
    path
}

fn start_server(ckpt: &Path, config: ServeConfig) -> ServerHandle {
    let policy = InferencePolicy::load(ckpt).unwrap();
    Server::start(config, Arc::new(policy), checkpoint_loader()).unwrap()
}

/// Deterministic observation for (client, request) — spread across the
/// whole observation space so the test isn't probing one point.
fn obs_for(obs_dim: usize, client: usize, i: u32) -> Vec<f32> {
    (0..obs_dim).map(|j| ((client * 31 + j) as f32 * 0.013 + i as f32 * 0.007).sin()).collect()
}

#[test]
fn concurrent_clients_get_bit_identical_actions() {
    let ckpt = trained_checkpoint(2, "serve_identity.json");
    let reference = InferencePolicy::load(&ckpt).unwrap();
    let server = start_server(&ckpt, ServeConfig::default());
    let addr = server.addr();
    let (num_agents, obs_dim) = (reference.num_agents(), reference.obs_dim());
    let reference = Arc::new(reference);

    let workers: Vec<_> = (0..6)
        .map(|c| {
            let reference = Arc::clone(&reference);
            std::thread::spawn(move || {
                let mut client = Client::connect(addr).unwrap();
                for i in 0..40u32 {
                    let agent = (c + i as usize) % num_agents;
                    let obs = obs_for(obs_dim, c, i);
                    let direct = reference.action(agent, &obs);
                    match client.action(agent as u32, &obs).unwrap() {
                        ActionOutcome::Action(served) => {
                            assert_eq!(
                                served[0].to_bits(),
                                direct[0].to_bits(),
                                "client {c} req {i}: heading diverged from direct inference"
                            );
                            assert_eq!(
                                served[1].to_bits(),
                                direct[1].to_bits(),
                                "client {c} req {i}: speed diverged from direct inference"
                            );
                        }
                        ActionOutcome::Overloaded => {
                            panic!("default queue_cap must not shed this load")
                        }
                    }
                }
            })
        })
        .collect();
    for w in workers {
        w.join().unwrap();
    }
    server.shutdown();
}

#[test]
fn queue_overflow_yields_overloaded_responses_not_drops() {
    let ckpt = trained_checkpoint(1, "serve_overflow.json");
    let reference = InferencePolicy::load(&ckpt).unwrap();
    let obs_dim = reference.obs_dim();
    // Tiny queue + artificially slow batcher: closed-loop clients outrun it.
    let config = ServeConfig {
        queue_cap: 2,
        max_batch: 1,
        batch_delay: Duration::from_millis(4),
        ..ServeConfig::default()
    };
    let server = start_server(&ckpt, config);
    let addr = server.addr();

    let workers: Vec<_> = (0..6)
        .map(|c| {
            std::thread::spawn(move || {
                let mut client = Client::connect(addr).unwrap();
                let (mut served, mut shed) = (0u32, 0u32);
                for i in 0..25u32 {
                    match client.action(0, &obs_for(obs_dim, c, i)).unwrap() {
                        ActionOutcome::Action(a) => {
                            assert!(a[0].is_finite() && a[1].is_finite());
                            served += 1;
                        }
                        ActionOutcome::Overloaded => shed += 1,
                    }
                }
                (served, shed)
            })
        })
        .collect();
    let (mut served, mut shed) = (0, 0);
    for w in workers {
        let (s, o) = w.join().unwrap();
        served += s;
        shed += o;
    }
    assert_eq!(served + shed, 150, "every request must get exactly one answer");
    assert!(shed > 0, "6 closed-loop clients against a cap-2 queue at 4ms/batch must shed");
    assert!(served > 0, "backpressure must shed load, not service");
    server.shutdown();
}

#[test]
fn hot_reload_swaps_policy_without_killing_inflight_requests() {
    let ckpt_v1 = trained_checkpoint(1, "serve_reload_v1.json");
    let ckpt_v2 = trained_checkpoint(3, "serve_reload_v2.json");
    let policy_v1 = InferencePolicy::load(&ckpt_v1).unwrap();
    let policy_v2 = InferencePolicy::load(&ckpt_v2).unwrap();
    let (num_agents, obs_dim) = (policy_v1.num_agents(), policy_v1.obs_dim());
    let server = start_server(&ckpt_v1, ServeConfig::default());
    let addr = server.addr();
    assert_eq!(server.generation(), 1);

    // Background traffic that must survive the swap: every response must
    // be bit-identical to ONE of the two generations (a request in flight
    // across the swap may legitimately be answered by either).
    let stop = Arc::new(AtomicBool::new(false));
    let refs = Arc::new((policy_v1, policy_v2));
    let workers: Vec<_> = (0..4)
        .map(|c| {
            let stop = Arc::clone(&stop);
            let refs = Arc::clone(&refs);
            std::thread::spawn(move || {
                let mut client = Client::connect(addr).unwrap();
                let mut answered = 0u64;
                let mut i = 0u32;
                while !stop.load(Ordering::Relaxed) {
                    let agent = (c + i as usize) % num_agents;
                    let obs = obs_for(obs_dim, c, i);
                    match client.action(agent as u32, &obs) {
                        Ok(ActionOutcome::Action(served)) => {
                            let v1 = refs.0.action(agent, &obs);
                            let v2 = refs.1.action(agent, &obs);
                            let bits = (served[0].to_bits(), served[1].to_bits());
                            assert!(
                                bits == (v1[0].to_bits(), v1[1].to_bits())
                                    || bits == (v2[0].to_bits(), v2[1].to_bits()),
                                "client {c} req {i}: action matches neither generation"
                            );
                            answered += 1;
                        }
                        Ok(ActionOutcome::Overloaded) => {}
                        Err(e) => panic!("client {c} died across the reload: {e}"),
                    }
                    i += 1;
                }
                answered
            })
        })
        .collect();

    // Let traffic flow, swap, let traffic flow against the new policy.
    std::thread::sleep(Duration::from_millis(50));
    let mut control = Client::connect(addr).unwrap();
    let info = control.reload(ckpt_v2.to_str().unwrap()).unwrap();
    assert_eq!(info.generation, 2);
    assert_eq!(info.iterations_done, 3, "reload must report the new checkpoint's provenance");
    assert_eq!(server.generation(), 2);
    std::thread::sleep(Duration::from_millis(50));
    stop.store(true, Ordering::Relaxed);
    for w in workers {
        assert!(w.join().unwrap() > 0, "every client must have been served across the swap");
    }

    // After the swap every new query must match generation 2 exactly.
    let obs = obs_for(obs_dim, 99, 0);
    match control.action(0, &obs).unwrap() {
        ActionOutcome::Action(served) => {
            let want = refs.1.action(0, &obs);
            assert_eq!(served[0].to_bits(), want[0].to_bits());
            assert_eq!(served[1].to_bits(), want[1].to_bits());
        }
        other => panic!("expected an action, got {other:?}"),
    }

    // A reload of a nonexistent file fails cleanly and keeps serving.
    let err = control.reload("/nonexistent/ckpt.json").unwrap_err();
    assert!(format!("{err}").contains("reload failed"), "{err}");
    assert_eq!(server.generation(), 2, "failed reload must not bump the generation");
    control.ping().unwrap();
    server.shutdown();
}

#[test]
fn misbehaving_connections_do_not_degrade_clean_clients() {
    let ckpt = trained_checkpoint(1, "serve_isolation.json");
    let reference = Arc::new(InferencePolicy::load(&ckpt).unwrap());
    let (num_agents, obs_dim) = (reference.num_agents(), reference.obs_dim());
    // Hardened server: stalled and garbled connections are reclaimed by
    // deadline, not allowed to pile up.
    let config = ServeConfig {
        read_timeout: Some(Duration::from_millis(100)),
        idle_timeout: Some(Duration::from_secs(2)),
        write_timeout: Some(Duration::from_secs(1)),
        ..ServeConfig::default()
    };
    let server = start_server(&ckpt, config);
    let addr = server.addr();

    // A fault proxy in front of the same server: these connections reset,
    // truncate, corrupt, black-hole, and stall.
    let chaos = ChaosConfig {
        seed: 0x150_1A7E,
        blackhole_prob: 0.15,
        reset_prob: 0.2,
        truncate_prob: 0.2,
        corrupt_prob: 0.2,
        delay_prob: 0.1,
        delay: Duration::from_millis(2),
    };
    let proxy = ChaosProxy::start(addr, ChaosPlan::new(chaos)).unwrap();
    let proxy_addr = proxy.addr();

    let stop = Arc::new(AtomicBool::new(false));
    let abusers: Vec<_> = (0..3)
        .map(|t| {
            let stop = Arc::clone(&stop);
            std::thread::spawn(move || {
                let deadlines = ClientConfig {
                    connect_timeout: Some(Duration::from_millis(150)),
                    read_timeout: Some(Duration::from_millis(150)),
                    write_timeout: Some(Duration::from_millis(150)),
                };
                let mut i = 0u32;
                while !stop.load(Ordering::Relaxed) {
                    // Fresh connection each round so every chaos fate gets
                    // drawn; every outcome is tolerated.
                    if let Ok(mut c) = Client::connect_with(proxy_addr, &deadlines) {
                        let _ = c.action((t % num_agents) as u32, &obs_for(obs_dim, t, i));
                    }
                    i += 1;
                }
            })
        })
        .collect();

    // The contract under test: clean clients connected directly see 100%
    // success, bit-identical to direct inference, while the abuse runs.
    let clean: Vec<_> = (0..4)
        .map(|c| {
            let reference = Arc::clone(&reference);
            std::thread::spawn(move || {
                let mut client = Client::connect(addr).unwrap();
                for i in 0..30u32 {
                    let agent = (c + i as usize) % num_agents;
                    let obs = obs_for(obs_dim, c, i);
                    let direct = reference.action(agent, &obs);
                    match client.action(agent as u32, &obs).unwrap() {
                        ActionOutcome::Action(served) => {
                            assert_eq!(
                                (served[0].to_bits(), served[1].to_bits()),
                                (direct[0].to_bits(), direct[1].to_bits()),
                                "clean client {c} req {i} diverged while chaos ran next door"
                            );
                        }
                        ActionOutcome::Overloaded => {
                            panic!("clean client {c} shed at default queue_cap")
                        }
                    }
                }
            })
        })
        .collect();
    for w in clean {
        w.join().expect("clean clients must be untouched by misbehaving neighbours");
    }
    stop.store(true, Ordering::Relaxed);
    for a in abusers {
        a.join().unwrap();
    }
    let stats = proxy.stats();
    assert!(
        stats.resets + stats.truncations + stats.corruptions + stats.blackholes > 0,
        "the abuse traffic must actually have misbehaved: {stats:?}"
    );
    proxy.shutdown();
    server.shutdown();
}

#[test]
fn served_actions_are_bit_identical_under_both_gemm_kernels() {
    // End-to-end kernel invariance over the wire: the same checkpoint
    // served with every GEMM forced through the reference loops must
    // answer every request with exactly the bits the tiled fast kernels
    // produce. (The override is process-wide but unobservable to the
    // other serve tests — the two kernels are bit-identical.)
    let ckpt = trained_checkpoint(2, "serve_kernel_invariance.json");
    let reference = InferencePolicy::load(&ckpt).unwrap();
    let (num_agents, obs_dim) = (reference.num_agents(), reference.obs_dim());
    let serve_all = |kernel: GemmKernel| {
        gemm::set_kernel_override(Some(kernel));
        let server = start_server(&ckpt, ServeConfig::default());
        let mut client = Client::connect(server.addr()).unwrap();
        let mut answers = Vec::new();
        for i in 0..40u32 {
            let agent = i as usize % num_agents;
            match client.action(agent as u32, &obs_for(obs_dim, 17, i)).unwrap() {
                ActionOutcome::Action(a) => answers.push((a[0].to_bits(), a[1].to_bits())),
                ActionOutcome::Overloaded => panic!("default queue_cap must not shed this load"),
            }
        }
        server.shutdown();
        gemm::set_kernel_override(None);
        answers
    };
    let served_ref = serve_all(GemmKernel::Reference);
    let served_fast = serve_all(GemmKernel::Fast);
    assert_eq!(served_ref, served_fast, "served actions must be bit-identical across GEMM kernels");
}

#[test]
fn server_info_reports_the_served_shape() {
    let ckpt = trained_checkpoint(1, "serve_info.json");
    let reference = InferencePolicy::load(&ckpt).unwrap();
    let server = start_server(&ckpt, ServeConfig::default());
    let mut client = Client::connect(server.addr()).unwrap();
    let info = client.info().unwrap();
    assert_eq!(info.num_agents as usize, reference.num_agents());
    assert_eq!(info.obs_dim as usize, reference.obs_dim());
    assert_eq!(info.generation, 1);
    server.shutdown();
}
