//! The dist wire protocol: typed messages over the shared length-prefixed
//! framing ([`agsc_serve::wire`]).
//!
//! Frames carry one opcode byte followed by fixed-width little-endian
//! fields, read and written only through `agsc_serve::wire` (the codec the
//! serving protocol shares); variable payloads (the actor frame, rollout
//! segments) occupy the remainder of the frame. The serving protocol's
//! 1 MiB cap is too small for dist payloads — 20 actors of the default
//! width make a 2 MiB actor frame, and a segment grows with horizon ×
//! agents × obs_dim — so every dist read/write goes through the `_capped`
//! wire variants with the (configurable) [`max_frame_bytes`] ceiling.
//!
//! | dir | opcode | message | fields |
//! |-----|--------|---------|--------|
//! | W→L | `0x31` | `Hello` | version u8, worker_id u64 |
//! | W→L | `0x32` | `SubmitSegment` | generation u64, env_index u32, metrics 5×f64, segment bytes |
//! | L→W | `0xB1` | `HelloOk` | version u8 |
//! | L→W | `0xB2` | `Params` | generation u64, actor frame ([`crate::actor_frame`]) |
//! | L→W | `0xB3` | `Work` | generation u64, batch_seed u64, count u32, env indices u32× |
//! | L→W | `0xB4` | `Ack` | generation u64, env_index u32 |
//! | L→W | `0xB5` | `Shutdown` | — |
//! | L→W | `0xBF` | `Error` | UTF-8 message |

use std::io::{Read, Write};

use agsc_env::Metrics;
use agsc_madrl::{ActorSet, InferencePolicy};
use agsc_serve::wire::{read_frame_capped, write_frame_capped, DecodeError, Put, Reader};
use agsc_telemetry as tlm;

use crate::actor_frame::{put_actor_frame, read_actor_frame};
use crate::error::DistError;

/// Dist protocol version, checked during the hello handshake. Version 2
/// carries `Params` as the binary actor frame; version 1 carried the whole
/// checkpoint as JSON.
pub const PROTOCOL_VERSION: u8 = 2;

/// Default frame-payload ceiling: 64 MiB fits any realistic parameter
/// broadcast while still bounding a corrupt length prefix.
pub const DEFAULT_MAX_FRAME_BYTES: usize = 64 << 20;

/// The frame ceiling from `AGSC_DIST_MAX_FRAME_MB` (in MiB, minimum 1),
/// or [`DEFAULT_MAX_FRAME_BYTES`].
pub fn max_frame_bytes() -> usize {
    agsc_telemetry::knobs::parse("AGSC_DIST_MAX_FRAME_MB", DEFAULT_MAX_FRAME_BYTES >> 20).max(1)
        << 20
}

/// Messages a worker sends to the learner.
#[derive(Debug, Clone, PartialEq)]
pub enum WorkerMsg {
    /// Handshake: protocol version and a caller-chosen worker id (appears
    /// in learner telemetry and logs).
    Hello {
        /// Speaker's [`PROTOCOL_VERSION`].
        version: u8,
        /// Caller-chosen worker identity.
        worker_id: u64,
    },
    /// One collected shard: the rollout segment for `env_index` of
    /// `generation`, plus the episode's task metrics.
    SubmitSegment {
        /// Generation the segment belongs to.
        generation: u64,
        /// Global env index of the shard.
        env_index: u32,
        /// End-of-episode task metrics of the shard's env.
        metrics: Metrics,
        /// Compressed rollout bytes ([`crate::codec::encode_segment`]).
        segment: Vec<u8>,
    },
}

/// Messages the learner sends to a worker.
#[derive(Debug, Clone, PartialEq)]
pub enum LearnerMsg {
    /// Handshake accepted.
    HelloOk {
        /// Learner's [`PROTOCOL_VERSION`].
        version: u8,
    },
    /// Parameter broadcast: the actors the generation collects with, as a
    /// binary actor frame (raw `f32` bits, so bit-exact by construction).
    Params {
        /// Generation these parameters begin.
        generation: u64,
        /// The actor-only policy.
        policy: InferencePolicy,
    },
    /// A batch of shard assignments to collect under the already-broadcast
    /// parameters of `generation`.
    Work {
        /// Generation the assignment belongs to.
        generation: u64,
        /// The generation's single trainer-RNG draw; with the env index it
        /// fully determines the shard's env/sampler seed streams.
        batch_seed: u64,
        /// Global env indices assigned to this worker.
        indices: Vec<u32>,
    },
    /// Receipt for one submitted segment.
    Ack {
        /// Generation of the acknowledged segment.
        generation: u64,
        /// Env index of the acknowledged segment.
        env_index: u32,
    },
    /// Training is over; the worker exits cleanly.
    Shutdown,
    /// Typed refusal (version mismatch, protocol violation); the
    /// connection closes after this.
    Error {
        /// Human-readable reason.
        msg: String,
    },
}

/// A frame whose fields do not decode is a protocol violation.
impl From<DecodeError> for DistError {
    fn from(e: DecodeError) -> Self {
        DistError::Protocol(format!("frame {e}"))
    }
}

/// A message the protocol requires next: the peer closing cleanly instead
/// is an [`std::io::ErrorKind::UnexpectedEof`] transport error that says so
/// in `closed`.
pub(crate) fn required<T>(msg: Option<T>, closed: &'static str) -> Result<T, DistError> {
    msg.ok_or_else(|| DistError::Io(std::io::Error::new(std::io::ErrorKind::UnexpectedEof, closed)))
}

/// Serialize and frame one worker→learner message.
pub fn write_worker_msg(w: &mut impl Write, msg: &WorkerMsg, cap: usize) -> Result<(), DistError> {
    let mut p = Vec::new();
    match msg {
        WorkerMsg::Hello { version, worker_id } => {
            p.extend_from_slice(&[0x31, *version]);
            p.put_u64(*worker_id);
        }
        WorkerMsg::SubmitSegment { generation, env_index, metrics: m, segment } => {
            p.push(0x32);
            p.put_u64(*generation);
            p.put_u32(*env_index);
            for v in [
                m.data_collection_ratio,
                m.data_loss_ratio,
                m.energy_ratio,
                m.fairness,
                m.efficiency,
            ] {
                p.put_f64(v);
            }
            p.extend_from_slice(segment);
        }
    }
    Ok(write_frame_capped(w, &p, cap)?)
}

/// Read and parse one worker→learner message; `Ok(None)` is the peer's
/// clean close between frames.
pub fn read_worker_msg(r: &mut impl Read, cap: usize) -> Result<Option<WorkerMsg>, DistError> {
    let Some(frame) = read_frame_capped(r, cap)? else { return Ok(None) };
    let mut c = Reader::new(&frame);
    let msg = match c.u8()? {
        0x31 => WorkerMsg::Hello { version: c.u8()?, worker_id: c.u64()? },
        0x32 => WorkerMsg::SubmitSegment {
            generation: c.u64()?,
            env_index: c.u32()?,
            metrics: Metrics {
                data_collection_ratio: c.f64()?,
                data_loss_ratio: c.f64()?,
                energy_ratio: c.f64()?,
                fairness: c.f64()?,
                efficiency: c.f64()?,
            },
            segment: c.rest().to_vec(),
        },
        op => return Err(DistError::Protocol(format!("unknown worker opcode {op:#04x}"))),
    };
    Ok(Some(msg))
}

/// The whole `Params` frame payload for `actors`. The learner builds it
/// once per generation and sends the same bytes to every worker.
pub(crate) fn params_payload(
    generation: u64,
    actors: &ActorSet<'_>,
    iterations_done: usize,
) -> Vec<u8> {
    let mut p = vec![0xB2];
    p.put_u64(generation);
    put_actor_frame(&mut p, actors, iterations_done);
    p
}

/// Serialize and frame one learner→worker message.
pub fn write_learner_msg(
    w: &mut impl Write,
    msg: &LearnerMsg,
    cap: usize,
) -> Result<(), DistError> {
    let mut p = Vec::new();
    match msg {
        LearnerMsg::HelloOk { version } => p.extend_from_slice(&[0xB1, *version]),
        LearnerMsg::Params { generation, policy } => {
            p = params_payload(*generation, &policy.actor_set(), policy.iterations_done());
        }
        LearnerMsg::Work { generation, batch_seed, indices } => {
            p.push(0xB3);
            p.put_u64(*generation);
            p.put_u64(*batch_seed);
            p.put_u32(indices.len() as u32);
            for &i in indices {
                p.put_u32(i);
            }
        }
        LearnerMsg::Ack { generation, env_index } => {
            p.push(0xB4);
            p.put_u64(*generation);
            p.put_u32(*env_index);
        }
        LearnerMsg::Shutdown => p.push(0xB5),
        LearnerMsg::Error { msg } => {
            p.push(0xBF);
            p.extend_from_slice(msg.as_bytes());
        }
    }
    Ok(write_frame_capped(w, &p, cap)?)
}

/// Read and parse one learner→worker message; `Ok(None)` is the peer's
/// clean close between frames.
pub fn read_learner_msg(r: &mut impl Read, cap: usize) -> Result<Option<LearnerMsg>, DistError> {
    let Some(frame) = read_frame_capped(r, cap)? else { return Ok(None) };
    let mut c = Reader::new(&frame);
    let msg = match c.u8()? {
        0xB1 => LearnerMsg::HelloOk { version: c.u8()? },
        0xB2 => {
            let generation = c.u64()?;
            let _span = tlm::span("dist_params_decode");
            LearnerMsg::Params { generation, policy: read_actor_frame(c.rest())? }
        }
        0xB3 => {
            let (generation, batch_seed) = (c.u64()?, c.u64()?);
            let n = c.u32()?;
            let n = c.count(n, 4, cap)?;
            let indices = (0..n).map(|_| c.u32()).collect::<Result<_, _>>()?;
            LearnerMsg::Work { generation, batch_seed, indices }
        }
        0xB4 => LearnerMsg::Ack { generation: c.u64()?, env_index: c.u32()? },
        0xB5 => LearnerMsg::Shutdown,
        0xBF => LearnerMsg::Error { msg: String::from_utf8_lossy(c.rest()).into_owned() },
        op => return Err(DistError::Protocol(format!("unknown learner opcode {op:#04x}"))),
    };
    Ok(Some(msg))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn metrics() -> Metrics {
        Metrics {
            data_collection_ratio: 0.75,
            data_loss_ratio: 0.03,
            energy_ratio: 0.4,
            fairness: 0.9,
            efficiency: 1.64,
        }
    }

    #[test]
    fn worker_messages_round_trip() {
        let msgs = [
            WorkerMsg::Hello { version: PROTOCOL_VERSION, worker_id: 42 },
            WorkerMsg::SubmitSegment {
                generation: 3,
                env_index: 7,
                metrics: metrics(),
                segment: vec![1, 0, 0, 0, 9],
            },
        ];
        let mut wire = Vec::new();
        for m in &msgs {
            write_worker_msg(&mut wire, m, 1 << 20).unwrap();
        }
        let mut r = &wire[..];
        for m in &msgs {
            assert_eq!(read_worker_msg(&mut r, 1 << 20).unwrap().as_ref(), Some(m));
        }
        assert_eq!(read_worker_msg(&mut r, 1 << 20).unwrap(), None, "clean EOF");
    }

    fn policy() -> InferencePolicy {
        let env = crate::setup::quickstart_env(3);
        let trainer = crate::setup::quickstart_trainer(&env, 2, 3).unwrap();
        InferencePolicy::from_checkpoint(&trainer.checkpoint()).unwrap()
    }

    #[test]
    fn learner_messages_round_trip() {
        let msgs = [
            LearnerMsg::HelloOk { version: PROTOCOL_VERSION },
            LearnerMsg::Params { generation: 1, policy: policy() },
            LearnerMsg::Work { generation: 1, batch_seed: 0xDEAD_BEEF, indices: vec![0, 2, 5] },
            LearnerMsg::Ack { generation: 1, env_index: 2 },
            LearnerMsg::Shutdown,
            LearnerMsg::Error { msg: "version mismatch".into() },
        ];
        let mut wire = Vec::new();
        for m in &msgs {
            write_learner_msg(&mut wire, m, 1 << 20).unwrap();
        }
        let mut r = &wire[..];
        for m in &msgs {
            assert_eq!(read_learner_msg(&mut r, 1 << 20).unwrap().as_ref(), Some(m));
        }
        assert_eq!(read_learner_msg(&mut r, 1 << 20).unwrap(), None, "clean EOF");
    }

    #[test]
    fn metrics_round_trip_bit_exactly() {
        let m = metrics();
        let msg =
            WorkerMsg::SubmitSegment { generation: 0, env_index: 0, metrics: m, segment: vec![] };
        let mut wire = Vec::new();
        write_worker_msg(&mut wire, &msg, 1 << 20).unwrap();
        let Some(WorkerMsg::SubmitSegment { metrics: decoded, .. }) =
            read_worker_msg(&mut &wire[..], 1 << 20).unwrap()
        else {
            panic!("a SubmitSegment must read back as one");
        };
        assert_eq!(decoded.data_collection_ratio.to_bits(), m.data_collection_ratio.to_bits());
        assert_eq!(decoded.efficiency.to_bits(), m.efficiency.to_bits());
        assert_eq!(decoded, m);
    }

    #[test]
    fn unknown_opcodes_and_truncated_fields_fail_typed() {
        let mut wire = Vec::new();
        agsc_serve::wire::write_frame_capped(&mut wire, &[0x77, 1, 2], 1 << 20).unwrap();
        let err = read_worker_msg(&mut &wire[..], 1 << 20).unwrap_err();
        assert!(matches!(err, DistError::Protocol(_)), "{err}");

        let mut wire = Vec::new();
        agsc_serve::wire::write_frame_capped(&mut wire, &[0xB3, 1, 2], 1 << 20).unwrap();
        let err = read_learner_msg(&mut &wire[..], 1 << 20).unwrap_err();
        assert!(matches!(err, DistError::Protocol(_)), "{err}");
    }

    #[test]
    fn oversize_params_refused_by_the_cap_on_both_sides() {
        let big = LearnerMsg::Params { generation: 1, policy: policy() };
        let mut wire = Vec::new();
        let err = write_learner_msg(&mut wire, &big, 1024).unwrap_err();
        assert!(matches!(err, DistError::Io(_)), "{err}");
        assert!(wire.is_empty());
        // A frame legal under a big cap is refused by a small-cap reader.
        write_learner_msg(&mut wire, &big, 1 << 20).unwrap();
        let err = read_learner_msg(&mut &wire[..], 1024).unwrap_err();
        assert!(matches!(err, DistError::Io(_)), "{err}");
    }

    #[test]
    fn frame_cap_knob_floor_and_default() {
        assert_eq!(DEFAULT_MAX_FRAME_BYTES, 64 << 20);
    }
}
