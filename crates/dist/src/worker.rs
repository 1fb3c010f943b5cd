//! The rollout worker: connects to the learner, receives parameter
//! broadcasts and shard assignments, collects episodes with the one
//! rollout collector, and streams encoded segments back.
//!
//! The worker holds an actor set and nothing else: each `Params`
//! broadcast decodes into an actor-only [`InferencePolicy`], checked
//! against the worker's env before it replaces the previous one. Every
//! collected shard is a pure function of (broadcast actors, batch_seed,
//! env_index) — the worker holds no RNG state of its own across
//! assignments — which is what makes worker count, shard chunking, and
//! reassignment after faults invisible to training.
//!
//! Transport faults reconnect under the serve crate's decorrelated-jitter
//! [`Backoff`]; any session progress (params or an acked segment) resets
//! the attempt budget, so a long healthy run survives many transient
//! faults while a dead learner still fails typed after
//! `retry.max_attempts` consecutive failures.

use std::net::{SocketAddr, TcpStream};

use agsc_env::AirGroundEnv;
use agsc_madrl::InferencePolicy;
use agsc_serve::wire::setup_stream;
use agsc_serve::{Backoff, RetryPolicy};
use agsc_telemetry::{self as tlm, knobs};

use crate::codec::{encode_segment, Compression};
use crate::error::DistError;
use crate::proto::{
    max_frame_bytes, read_learner_msg, required, write_worker_msg, LearnerMsg, WorkerMsg,
    PROTOCOL_VERSION,
};

/// Worker-side tuning.
#[derive(Debug, Clone)]
pub struct WorkerConfig {
    /// Learner address.
    pub addr: SocketAddr,
    /// Identity reported in the hello handshake (telemetry/logs only).
    pub worker_id: u64,
    /// Segment compression mode.
    pub compression: Compression,
    /// Reconnect schedule for transport faults. `max_attempts` bounds
    /// *consecutive* failures without progress.
    pub retry: RetryPolicy,
    /// Frame-payload ceiling for reads and writes.
    pub max_frame_bytes: usize,
    /// Test hook: desert (drop the connection and exit) after this many
    /// acked segments — the chaos suite's mid-generation worker loss.
    pub max_segments: Option<u64>,
}

impl WorkerConfig {
    /// A default config for `addr`: `AGSC_DIST_COMPRESS` compression (RLE
    /// by default), env-derived retry policy, `AGSC_DIST_MAX_FRAME_MB`
    /// ceiling, no desertion hook (`AGSC_DIST_MAX_SEGMENTS` > 0 arms it).
    pub fn new(addr: SocketAddr, worker_id: u64) -> Self {
        Self {
            addr,
            worker_id,
            compression: knobs::parse("AGSC_DIST_COMPRESS", Compression::default()),
            retry: RetryPolicy::from_env(),
            max_frame_bytes: max_frame_bytes(),
            max_segments: Some(knobs::parse("AGSC_DIST_MAX_SEGMENTS", 0)).filter(|&n| n > 0),
        }
    }
}

/// Why [`run_worker`] returned successfully.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WorkerExit {
    /// The learner sent `Shutdown`: training is over.
    Finished,
    /// The `max_segments` desertion hook tripped (test-only path).
    Deserted,
}

enum SessionEnd {
    Finished,
    Deserted,
}

/// Run a rollout worker against `cfg.addr` until the learner shuts it
/// down (or the desertion hook trips). `env_proto` must be constructed
/// identically to the learner's reference environment — shard `i`'s
/// episode is collected on a clone of it.
pub fn run_worker(env_proto: &AirGroundEnv, cfg: &WorkerConfig) -> Result<WorkerExit, DistError> {
    let mut env = env_proto.clone();
    let mut policy: Option<InferencePolicy> = None;
    let mut submitted = 0u64;
    let mut params_seen = 0u64;
    let mut backoff = Backoff::new(&cfg.retry);
    let mut consecutive_failures = 0u32;
    let max_attempts = cfg.retry.max_attempts.max(1);
    loop {
        let before = (submitted, params_seen);
        let attempt = TcpStream::connect(cfg.addr).map_err(DistError::from).and_then(|mut s| {
            setup_stream(&s)?;
            run_session(&mut s, &mut env, &mut policy, &mut submitted, &mut params_seen, cfg)
        });
        match attempt {
            Ok(SessionEnd::Finished) => return Ok(WorkerExit::Finished),
            Ok(SessionEnd::Deserted) => return Ok(WorkerExit::Deserted),
            Err(DistError::Io(e)) => {
                // A session that installed params or acked a segment made
                // progress: earn a fresh failure budget and backoff
                // schedule, so long healthy runs survive many transients
                // while a dead learner still fails after `max_attempts`
                // consecutive strikes.
                if (submitted, params_seen) != before {
                    consecutive_failures = 0;
                    backoff = Backoff::new(&cfg.retry);
                }
                consecutive_failures += 1;
                if consecutive_failures >= max_attempts {
                    return Err(DistError::Io(e));
                }
                tlm::counter_add("dist.worker_reconnects", 1);
                tlm::warn("dist_worker_transport_fault", |ev| ev.msg(e.to_string()));
                std::thread::sleep(backoff.next_delay());
            }
            Err(fatal) => return Err(fatal),
        }
    }
}

/// One connected session; bumps `submitted` / `params_seen` as it makes
/// progress (the caller's failure budget watches both).
fn run_session(
    stream: &mut TcpStream,
    env: &mut AirGroundEnv,
    policy: &mut Option<InferencePolicy>,
    submitted: &mut u64,
    params_seen: &mut u64,
    cfg: &WorkerConfig,
) -> Result<SessionEnd, DistError> {
    let cap = cfg.max_frame_bytes;
    write_worker_msg(
        stream,
        &WorkerMsg::Hello { version: PROTOCOL_VERSION, worker_id: cfg.worker_id },
        cap,
    )?;
    match required(read_learner_msg(stream, cap)?, "learner closed during handshake")? {
        LearnerMsg::HelloOk { version: PROTOCOL_VERSION } => {}
        LearnerMsg::HelloOk { version } => {
            return Err(DistError::Protocol(format!(
                "learner protocol version {version}, worker speaks {PROTOCOL_VERSION}"
            )))
        }
        LearnerMsg::Error { msg } => return Err(DistError::Protocol(msg)),
        _ => return Err(DistError::Protocol("expected HelloOk".into())),
    }
    loop {
        let msg = required(read_learner_msg(stream, cap)?, "learner closed the session")?;
        match msg {
            LearnerMsg::Params { generation, policy: p } => {
                let (ours, theirs) =
                    ((env.num_uvs(), env.obs_dim()), (p.num_agents(), p.obs_dim()));
                if ours != theirs {
                    return Err(DistError::ShapeMismatch(format!(
                        "params for {} agents with obs_dim {}, env has {} UVs with obs_dim {}",
                        theirs.0, theirs.1, ours.0, ours.1
                    )));
                }
                *policy = Some(p);
                *params_seen += 1;
                tlm::counter_add("dist.params_rx", 1);
                tlm::gauge_set("dist.worker_generation", generation as f64);
            }
            LearnerMsg::Work { generation, batch_seed, indices } => {
                let actors = policy
                    .as_ref()
                    .ok_or_else(|| DistError::Protocol("Work before any Params".into()))?
                    .actor_set();
                for &idx in &indices {
                    let _span = tlm::span("dist_collect_segment");
                    let rollout = actors.collect_one(env, batch_seed, idx as usize);
                    let metrics = env.metrics();
                    let segment = encode_segment(&rollout, cfg.compression);
                    let bytes = segment.len() as u64;
                    write_worker_msg(
                        stream,
                        &WorkerMsg::SubmitSegment { generation, env_index: idx, metrics, segment },
                        cap,
                    )?;
                    match required(read_learner_msg(stream, cap)?, "learner closed awaiting ack")? {
                        LearnerMsg::Ack { generation: g, env_index }
                            if g == generation && env_index == idx => {}
                        other => {
                            return Err(DistError::Protocol(format!(
                                "expected Ack for ({generation}, {idx}), got {other:?}"
                            )))
                        }
                    }
                    *submitted += 1;
                    tlm::counter_add("dist.segments_tx", 1);
                    tlm::counter_add("dist.segment_bytes_tx", bytes);
                    if cfg.max_segments.is_some_and(|max| *submitted >= max) {
                        tlm::counter_add("dist.worker_deserted", 1);
                        return Ok(SessionEnd::Deserted);
                    }
                }
            }
            LearnerMsg::Shutdown => return Ok(SessionEnd::Finished),
            LearnerMsg::Error { msg } => return Err(DistError::Protocol(msg)),
            LearnerMsg::HelloOk { .. } | LearnerMsg::Ack { .. } => {
                return Err(DistError::Protocol("unexpected message outside assignment".into()))
            }
        }
    }
}
