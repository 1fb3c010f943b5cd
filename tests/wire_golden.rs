//! Wire-bytes goldens for both TCP protocols.
//!
//! Each test frames every message variant of one direction (length prefix
//! included) and pins an FNV-1a digest of the exact bytes. A refactor of
//! the encoders, the framing or the segment codec must leave these digests
//! alone: a changed digest means deployed peers can no longer talk to the
//! new build.

use agsc::env::Metrics;
use agsc::madrl::{Actor, FleetShape, InferencePolicy, Rollout};
use agsc::nn::{Activation, Linear, Matrix, Mlp};
use agsc_dist::proto::{read_learner_msg, write_learner_msg, write_worker_msg};
use agsc_dist::{
    encode_segment, setup, Compression, Learner, LearnerConfig, LearnerMsg, WorkerMsg,
    PROTOCOL_VERSION,
};
use agsc_serve::protocol::{write_request, write_response};
use agsc_serve::{Request, Response, StageTimings, TraceContext};

const CAP: usize = 1 << 20;

/// 64-bit FNV-1a.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| (h ^ b as u64).wrapping_mul(0x0100_0000_01b3))
}

fn sample_rollout() -> Rollout {
    let mut r = Rollout::new(2);
    for t in 0..3 {
        let obs = vec![vec![t as f32, 0.0, -1.5], vec![0.0, t as f32, f32::NAN]];
        let state = vec![t as f32, 0.0, -0.0, 1.0];
        let actions = [[0.1, -0.2], [f32::MIN_POSITIVE, 4.0]];
        let (het, hom) = (vec![vec![1], vec![0]], vec![vec![], vec![1]]);
        r.push_step(&obs, state, &actions, &[-1.0, -2.5], &[0.0, 2.0], het, hom);
    }
    r.add_collected(&[3.25, 0.0]);
    r
}

/// A hand-built two-layer shared actor, so the digest pins the actor
/// frame's layout and not any weight initialisation.
fn sample_policy() -> InferencePolicy {
    let hidden = Linear::from_values(
        Matrix::from_vec(3, 2, vec![0.5, -0.0, f32::MIN_POSITIVE, 1.0, -2.25, f32::NAN]),
        Matrix::from_vec(1, 2, vec![0.125, -1.0]),
    );
    let out = Linear::from_values(
        Matrix::from_vec(2, 2, vec![1.0, 2.0, -3.0, 4.0]),
        Matrix::from_vec(1, 2, vec![0.0, f32::INFINITY]),
    );
    let actor = Actor {
        net: Mlp::from_layers(vec![hidden, out], Activation::Tanh, Activation::Linear),
        log_std: vec![-0.5, 0.25],
    };
    let shape = FleetShape { shared: true, obs_dim: 3, num_agents: 2, neighbor_range_m: 250.5 };
    InferencePolicy::new(vec![actor], shape, 1 << 33).unwrap()
}

#[test]
fn serving_requests_keep_their_bytes() {
    let obs = vec![0.25, -1.5, f32::MIN_POSITIVE];
    let mut wire = Vec::new();
    for req in [
        Request::Action { agent: 3, obs: obs.clone() },
        Request::Ping,
        Request::Reload { path: "/ckpt/é.json".into() },
        Request::Info,
        Request::Stats,
        Request::TracedAction {
            trace: TraceContext { trace_id: 0x0123_4567_89AB_CDEF, client_send_us: 42 },
            agent: 1,
            obs,
        },
    ] {
        write_request(&mut wire, &req).unwrap();
    }
    assert_eq!((wire.len(), fnv1a(&wire)), (104, 0xb1a9_f0ac_42f0_482d));
}

#[test]
fn serving_responses_keep_their_bytes() {
    let mut wire = Vec::new();
    for resp in [
        Response::Action { heading: 0.125, speed: -0.75 },
        Response::Pong,
        Response::ReloadOk { generation: 9, iterations_done: 1 << 40 },
        Response::Info { num_agents: 4, obs_dim: 30, generation: 2 },
        Response::Busy,
        Response::Overloaded,
        Response::Error { message: "bad request".into() },
        Response::Stats { json: "{\"counters\":{}}".into() },
        Response::TracedAction {
            heading: -0.5,
            speed: f32::NAN,
            stages: StageTimings { queue_wait_us: 7, batch_wait_us: 11, forward_us: u32::MAX },
        },
    ] {
        write_response(&mut wire, &resp).unwrap();
    }
    assert_eq!((wire.len(), fnv1a(&wire)), (139, 0xee11_3fc2_45f4_3ef0));
}

#[test]
fn dist_worker_messages_keep_their_bytes() {
    let metrics = Metrics {
        data_collection_ratio: 0.75,
        data_loss_ratio: 0.03,
        energy_ratio: 0.4,
        fairness: 0.9,
        efficiency: 1.64,
    };
    // A protocol-1 hello: the encoder is unchanged since version 1, and
    // these are the bytes a version-2 learner must recognise to refuse.
    let mut wire = Vec::new();
    for msg in [
        WorkerMsg::Hello { version: 1, worker_id: 42 },
        WorkerMsg::SubmitSegment { generation: 3, env_index: 7, metrics, segment: vec![1, 0, 9] },
    ] {
        write_worker_msg(&mut wire, &msg, CAP).unwrap();
    }
    assert_eq!((wire.len(), fnv1a(&wire)), (74, 0xf328_160c_213c_96c2));
}

#[test]
fn dist_learner_messages_keep_their_bytes() {
    let mut wire = Vec::new();
    for msg in [
        LearnerMsg::HelloOk { version: PROTOCOL_VERSION },
        LearnerMsg::Params { generation: 1, policy: sample_policy() },
        LearnerMsg::Work { generation: 1, batch_seed: 0xDEAD_BEEF, indices: vec![0, 2, 5] },
        LearnerMsg::Ack { generation: 1, env_index: 2 },
        LearnerMsg::Shutdown,
        LearnerMsg::Error { msg: "version mismatch".into() },
    ] {
        write_learner_msg(&mut wire, &msg, CAP).unwrap();
    }
    assert_eq!((wire.len(), fnv1a(&wire)), (215, 0x6a2c_cf6f_70c1_3688));
}

#[test]
fn a_protocol_1_worker_is_refused_at_handshake() {
    assert_eq!(PROTOCOL_VERSION, 2);
    let env = setup::quickstart_env(7);
    let trainer = setup::quickstart_trainer(&env, 1, 7).unwrap();
    let learner =
        Learner::start("127.0.0.1:0".parse().unwrap(), trainer, LearnerConfig::default()).unwrap();
    let mut old = std::net::TcpStream::connect(learner.addr()).unwrap();
    write_worker_msg(&mut old, &WorkerMsg::Hello { version: 1, worker_id: 9 }, CAP).unwrap();
    match read_learner_msg(&mut old, CAP).unwrap() {
        Some(LearnerMsg::Error { msg }) => {
            assert!(msg.contains("protocol version 1"), "refusal must name the version: {msg}")
        }
        other => panic!("a v1 worker must get a typed refusal, got {other:?}"),
    }
    assert_eq!(read_learner_msg(&mut old, CAP).unwrap(), None, "the learner hangs up");
    learner.shutdown();
}

#[test]
fn rollout_segments_keep_their_bytes_under_both_compressions() {
    let r = sample_rollout();
    let raw = encode_segment(&r, Compression::None);
    let rle = encode_segment(&r, Compression::Rle);
    assert_eq!(
        [(raw.len(), fnv1a(&raw)), (rle.len(), fnv1a(&rle))],
        [(338, 0x881c_942e_9937_b8b7), (205, 0xf64f_1e2c_8e4e_b939)]
    );
}
