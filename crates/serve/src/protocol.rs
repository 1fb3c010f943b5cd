//! The wire protocol: length-prefixed binary frames over TCP.
//!
//! A frame is a `u32` little-endian payload length followed by the payload;
//! every payload starts with a one-byte opcode. All multi-byte integers and
//! floats are little-endian. The format is deliberately trivial — a client
//! in any language is a few dozen lines — and versioned implicitly by the
//! opcode space: unknown opcodes yield a typed decode error, never a panic.
//! Frames and fields are read and written only through [`crate::wire`],
//! the codec the distributed-training protocol shares.
//!
//! ## Frame layout
//!
//! ```text
//! +----------------+---------------------------+
//! | len: u32 LE    | payload (len bytes)       |
//! +----------------+---------------------------+
//! payload = opcode: u8, then opcode-specific fields
//! ```
//!
//! Requests:
//!
//! | opcode | name   | fields                                            |
//! |--------|--------|---------------------------------------------------|
//! | `0x01` | Action | `agent: u32`, `obs_len: u32`, `obs: obs_len × f32`|
//! | `0x02` | Ping   | —                                                 |
//! | `0x03` | Reload | `path_len: u32`, `path: path_len × u8` (UTF-8)    |
//! | `0x04` | Info   | —                                                 |
//! | `0x05` | Stats  | —                                                 |
//! | `0x11` | TracedAction | `version: u8 (=1)`, `trace_id: u64`, `client_send_us: u64`, then the `Action` fields |
//!
//! Responses:
//!
//! | opcode | name       | fields                                        |
//! |--------|------------|-----------------------------------------------|
//! | `0x81` | Action     | `heading: f32`, `speed: f32`                  |
//! | `0x82` | Pong       | —                                             |
//! | `0x83` | ReloadOk   | `generation: u64`, `iterations_done: u64`     |
//! | `0x84` | Info       | `num_agents: u32`, `obs_dim: u32`, `generation: u64` |
//! | `0x85` | Stats      | `json_len: u32`, `json: json_len × u8` (UTF-8)|
//! | `0x91` | TracedAction | `heading: f32`, `speed: f32`, `queue_wait_us: u32`, `batch_wait_us: u32`, `forward_us: u32` |
//! | `0xED` | Busy       | —                                             |
//! | `0xEE` | Overloaded | —                                             |
//! | `0xEF` | Error      | `msg_len: u32`, `msg: msg_len × u8` (UTF-8)   |
//!
//! Trace context is **opt-in per request**: a client that never sends
//! `0x11` speaks the original wire format byte-for-byte, and a server
//! replies `0x91` only to `0x11`. The leading version byte lets the traced
//! envelope evolve without burning opcodes; the only version today is 1.

use std::fmt;
use std::io::{self, Write};

use crate::wire::{DecodeError, Put, Reader};

// Framing and the field codec live in [`crate::wire`], shared with the
// distributed-training protocol; the framing is re-exported here so
// existing callers keep their paths.
pub use crate::wire::{read_frame, write_frame, MAX_FRAME_BYTES};

/// The traced-envelope version this build understands.
pub const TRACE_VERSION: u8 = 1;

/// Client-supplied trace context carried by [`Request::TracedAction`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceContext {
    /// Client-chosen request id; the server echoes it into batch spans and
    /// stage events so one request's life is greppable end to end.
    pub trace_id: u64,
    /// Client send time in microseconds on the *client's* clock (opaque to
    /// the server — echoed into events so the client can compute true
    /// round-trip externality without clock sync).
    pub client_send_us: u64,
}

/// Server-side stage timings echoed by [`Response::TracedAction`].
///
/// The stages partition a request's life inside the server: time spent in
/// the admission queue, time waiting for its micro-batch to close, and the
/// batched forward pass. Response write time can only be measured by the
/// *next* observer, so it lives in the server's histograms rather than the
/// echo. `u32` microseconds saturate at ~71 minutes, far beyond any
/// configurable server timeout.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct StageTimings {
    /// Microseconds from enqueue to being popped by the batcher.
    pub queue_wait_us: u32,
    /// Microseconds from pop to the start of this request's group forward.
    pub batch_wait_us: u32,
    /// Microseconds of the batched forward pass that produced this action.
    pub forward_us: u32,
}

/// A client-to-server message.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Greedy-action query for one agent's observation.
    Action {
        /// Agent id in `0..num_agents`.
        agent: u32,
        /// Observation vector (must be exactly `obs_dim` long).
        obs: Vec<f32>,
    },
    /// Liveness check.
    Ping,
    /// Hot-reload the serving policy from a checkpoint file on the server's
    /// filesystem (the SIGHUP-style control message).
    Reload {
        /// Checkpoint path, as the server sees it.
        path: String,
    },
    /// Ask for the served policy's shape and generation.
    Info,
    /// Ask for a JSON snapshot of the server's telemetry registry.
    Stats,
    /// An [`Request::Action`] query carrying an optional trace envelope;
    /// answered with [`Response::TracedAction`].
    TracedAction {
        /// Client trace context, echoed through the server's telemetry.
        trace: TraceContext,
        /// Agent id in `0..num_agents`.
        agent: u32,
        /// Observation vector (must be exactly `obs_dim` long).
        obs: Vec<f32>,
    },
}

/// A server-to-client message.
#[derive(Debug, Clone, PartialEq)]
pub enum Response {
    /// The greedy action for an [`Request::Action`] query.
    Action {
        /// Heading in `[-1, 1]` (policy output, pre environment scaling).
        heading: f32,
        /// Speed in `[-1, 1]`.
        speed: f32,
    },
    /// Reply to [`Request::Ping`].
    Pong,
    /// The reload succeeded; the new policy is live.
    ReloadOk {
        /// Monotonic policy generation after the swap.
        generation: u64,
        /// Training iterations behind the newly loaded checkpoint.
        iterations_done: u64,
    },
    /// Reply to [`Request::Info`].
    Info {
        /// Fleet size: valid agent ids are `0..num_agents`.
        num_agents: u32,
        /// Observation length every query must match.
        obs_dim: u32,
        /// Monotonic policy generation (bumps on every reload).
        generation: u64,
    },
    /// Admission refusal: the server is at its connection cap. Sent once,
    /// immediately after accept, before the connection is closed — the
    /// client should back off and reconnect later.
    Busy,
    /// Explicit backpressure: the request queue was full. The request was
    /// **not** processed; the client should back off and retry.
    Overloaded,
    /// The request was understood but could not be served.
    Error {
        /// Human-readable reason.
        message: String,
    },
    /// Reply to [`Request::Stats`]: the registry snapshot as JSON.
    Stats {
        /// JSON object (see `agsc_telemetry::export::stats_json`).
        json: String,
    },
    /// The greedy action for a [`Request::TracedAction`] query, with the
    /// server-side stage breakdown. The action bytes are identical to what
    /// [`Response::Action`] would have carried.
    TracedAction {
        /// Heading in `[-1, 1]`.
        heading: f32,
        /// Speed in `[-1, 1]`.
        speed: f32,
        /// Where the request spent its time inside the server.
        stages: StageTimings,
    },
}

/// Why a payload failed to decode.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ProtocolError {
    /// The payload ended before the advertised fields did.
    Truncated,
    /// The payload had bytes left over after the last field.
    TrailingBytes,
    /// The leading opcode byte is not part of the protocol.
    UnknownOpcode(u8),
    /// A string field was not valid UTF-8.
    BadUtf8,
    /// An advertised length exceeds [`MAX_FRAME_BYTES`].
    Oversize,
    /// A traced envelope declared a version this build does not speak.
    BadTraceVersion(u8),
}

impl fmt::Display for ProtocolError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ProtocolError::Truncated => write!(f, "payload truncated"),
            ProtocolError::TrailingBytes => write!(f, "payload has trailing bytes"),
            ProtocolError::UnknownOpcode(op) => write!(f, "unknown opcode 0x{op:02x}"),
            ProtocolError::BadUtf8 => write!(f, "string field is not valid UTF-8"),
            ProtocolError::Oversize => {
                write!(f, "advertised length exceeds {MAX_FRAME_BYTES} bytes")
            }
            ProtocolError::BadTraceVersion(v) => {
                write!(f, "unsupported trace version {v} (this build speaks {TRACE_VERSION})")
            }
        }
    }
}

impl std::error::Error for ProtocolError {}

impl From<DecodeError> for ProtocolError {
    fn from(e: DecodeError) -> Self {
        match e {
            DecodeError::Truncated { .. } => ProtocolError::Truncated,
            DecodeError::Trailing(_) => ProtocolError::TrailingBytes,
            DecodeError::Oversize { .. } => ProtocolError::Oversize,
        }
    }
}

fn put_obs(buf: &mut Vec<u8>, agent: u32, obs: &[f32]) {
    buf.put_u32(agent);
    buf.put_u32(obs.len() as u32);
    for &v in obs {
        buf.put_f32(v);
    }
}

fn put_str(buf: &mut Vec<u8>, s: &str) {
    buf.put_u32(s.len() as u32);
    buf.extend_from_slice(s.as_bytes());
}

fn read_obs(c: &mut Reader<'_>) -> Result<Vec<f32>, ProtocolError> {
    let n = c.u32()?;
    let n = c.count(n, 4, MAX_FRAME_BYTES)?;
    Ok((0..n).map(|_| c.f32()).collect::<Result<_, DecodeError>>()?)
}

fn read_str(c: &mut Reader<'_>) -> Result<String, ProtocolError> {
    let n = c.u32()?;
    let n = c.count(n, 1, MAX_FRAME_BYTES)?;
    String::from_utf8(c.take(n)?.to_vec()).map_err(|_| ProtocolError::BadUtf8)
}

impl Request {
    /// Append this request's payload (opcode + fields) to `buf`.
    pub fn encode(&self, buf: &mut Vec<u8>) {
        match self {
            Request::Action { agent, obs } => {
                buf.push(0x01);
                put_obs(buf, *agent, obs);
            }
            Request::Ping => buf.push(0x02),
            Request::Reload { path } => {
                buf.push(0x03);
                put_str(buf, path);
            }
            Request::Info => buf.push(0x04),
            Request::Stats => buf.push(0x05),
            Request::TracedAction { trace, agent, obs } => {
                buf.extend_from_slice(&[0x11, TRACE_VERSION]);
                buf.put_u64(trace.trace_id);
                buf.put_u64(trace.client_send_us);
                put_obs(buf, *agent, obs);
            }
        }
    }

    /// Decode one request payload.
    pub fn decode(payload: &[u8]) -> Result<Self, ProtocolError> {
        let mut c = Reader::new(payload);
        let req = match c.u8()? {
            0x01 => Request::Action { agent: c.u32()?, obs: read_obs(&mut c)? },
            0x02 => Request::Ping,
            0x03 => Request::Reload { path: read_str(&mut c)? },
            0x04 => Request::Info,
            0x05 => Request::Stats,
            0x11 => {
                let version = c.u8()?;
                if version != TRACE_VERSION {
                    return Err(ProtocolError::BadTraceVersion(version));
                }
                let trace = TraceContext { trace_id: c.u64()?, client_send_us: c.u64()? };
                Request::TracedAction { trace, agent: c.u32()?, obs: read_obs(&mut c)? }
            }
            op => return Err(ProtocolError::UnknownOpcode(op)),
        };
        c.finish()?;
        Ok(req)
    }
}

impl Response {
    /// Append this response's payload (opcode + fields) to `buf`.
    pub fn encode(&self, buf: &mut Vec<u8>) {
        match self {
            Response::Action { heading, speed } => {
                buf.push(0x81);
                buf.put_f32(*heading);
                buf.put_f32(*speed);
            }
            Response::Pong => buf.push(0x82),
            Response::ReloadOk { generation, iterations_done } => {
                buf.push(0x83);
                buf.put_u64(*generation);
                buf.put_u64(*iterations_done);
            }
            Response::Info { num_agents, obs_dim, generation } => {
                buf.push(0x84);
                buf.put_u32(*num_agents);
                buf.put_u32(*obs_dim);
                buf.put_u64(*generation);
            }
            Response::Busy => buf.push(0xED),
            Response::Overloaded => buf.push(0xEE),
            Response::Error { message } => {
                buf.push(0xEF);
                put_str(buf, message);
            }
            Response::Stats { json } => {
                buf.push(0x85);
                put_str(buf, json);
            }
            Response::TracedAction { heading, speed, stages } => {
                buf.push(0x91);
                buf.put_f32(*heading);
                buf.put_f32(*speed);
                buf.put_u32(stages.queue_wait_us);
                buf.put_u32(stages.batch_wait_us);
                buf.put_u32(stages.forward_us);
            }
        }
    }

    /// Decode one response payload.
    pub fn decode(payload: &[u8]) -> Result<Self, ProtocolError> {
        let mut c = Reader::new(payload);
        let resp = match c.u8()? {
            0x81 => Response::Action { heading: c.f32()?, speed: c.f32()? },
            0x82 => Response::Pong,
            0x83 => Response::ReloadOk { generation: c.u64()?, iterations_done: c.u64()? },
            0x84 => {
                Response::Info { num_agents: c.u32()?, obs_dim: c.u32()?, generation: c.u64()? }
            }
            0xED => Response::Busy,
            0xEE => Response::Overloaded,
            0xEF => Response::Error { message: read_str(&mut c)? },
            0x85 => Response::Stats { json: read_str(&mut c)? },
            0x91 => Response::TracedAction {
                heading: c.f32()?,
                speed: c.f32()?,
                stages: StageTimings {
                    queue_wait_us: c.u32()?,
                    batch_wait_us: c.u32()?,
                    forward_us: c.u32()?,
                },
            },
            op => return Err(ProtocolError::UnknownOpcode(op)),
        };
        c.finish()?;
        Ok(resp)
    }
}

/// Encode `req` and write it as one frame.
pub fn write_request(w: &mut impl Write, req: &Request) -> io::Result<()> {
    let mut buf = Vec::with_capacity(64);
    req.encode(&mut buf);
    write_frame(w, &buf)
}

/// Encode `resp` and write it as one frame.
pub fn write_response(w: &mut impl Write, resp: &Response) -> io::Result<()> {
    let mut buf = Vec::with_capacity(32);
    resp.encode(&mut buf);
    write_frame(w, &buf)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn req_round_trip(req: Request) {
        let mut buf = Vec::new();
        req.encode(&mut buf);
        assert_eq!(Request::decode(&buf), Ok(req));
    }

    fn resp_round_trip(resp: Response) {
        let mut buf = Vec::new();
        resp.encode(&mut buf);
        assert_eq!(Response::decode(&buf), Ok(resp));
    }

    #[test]
    fn all_requests_round_trip() {
        req_round_trip(Request::Action { agent: 3, obs: vec![0.25, -1.5, f32::MIN_POSITIVE] });
        req_round_trip(Request::Action { agent: 0, obs: vec![] });
        req_round_trip(Request::Ping);
        req_round_trip(Request::Reload { path: "/tmp/ckpt — émoji.json".into() });
        req_round_trip(Request::Info);
        req_round_trip(Request::Stats);
        req_round_trip(Request::TracedAction {
            trace: TraceContext { trace_id: u64::MAX, client_send_us: 123_456_789 },
            agent: 2,
            obs: vec![0.5, -0.25],
        });
    }

    #[test]
    fn all_responses_round_trip() {
        resp_round_trip(Response::Action { heading: 0.125, speed: -0.75 });
        resp_round_trip(Response::Pong);
        resp_round_trip(Response::ReloadOk { generation: u64::MAX, iterations_done: 7 });
        resp_round_trip(Response::Info { num_agents: 4, obs_dim: 30, generation: 2 });
        resp_round_trip(Response::Busy);
        resp_round_trip(Response::Overloaded);
        resp_round_trip(Response::Error { message: "queue \"closed\"".into() });
        resp_round_trip(Response::Stats { json: "{\"counters\":{}}".into() });
        resp_round_trip(Response::TracedAction {
            heading: -0.5,
            speed: 0.75,
            stages: StageTimings { queue_wait_us: 7, batch_wait_us: 11, forward_us: u32::MAX },
        });
    }

    #[test]
    fn traced_action_rejects_unknown_versions() {
        let mut buf = Vec::new();
        Request::TracedAction {
            trace: TraceContext { trace_id: 1, client_send_us: 2 },
            agent: 0,
            obs: vec![],
        }
        .encode(&mut buf);
        buf[1] = TRACE_VERSION + 1;
        assert_eq!(Request::decode(&buf), Err(ProtocolError::BadTraceVersion(TRACE_VERSION + 1)));
    }

    #[test]
    fn traced_action_wire_embeds_the_plain_action_fields() {
        // The traced envelope is a strict prefix wrapper: opcode+version+
        // trace context, then the exact bytes of the untraced Action body.
        let mut plain = Vec::new();
        Request::Action { agent: 9, obs: vec![1.0, -2.0, 3.5] }.encode(&mut plain);
        let mut traced = Vec::new();
        Request::TracedAction {
            trace: TraceContext { trace_id: 42, client_send_us: 7 },
            agent: 9,
            obs: vec![1.0, -2.0, 3.5],
        }
        .encode(&mut traced);
        assert_eq!(&traced[18..], &plain[1..], "agent+obs bytes must be identical");
    }

    #[test]
    fn action_floats_round_trip_bitwise() {
        // The whole point of the serving layer is bit-identical actions;
        // the wire must not perturb them.
        for v in [0.1f32, -0.0, f32::MIN_POSITIVE, 1.0 - f32::EPSILON, f32::NAN] {
            let mut buf = Vec::new();
            Response::Action { heading: v, speed: -v }.encode(&mut buf);
            match Response::decode(&buf).unwrap() {
                Response::Action { heading, speed } => {
                    assert_eq!(heading.to_bits(), v.to_bits());
                    assert_eq!(speed.to_bits(), (-v).to_bits());
                }
                other => panic!("wrong variant {other:?}"),
            }
        }
    }

    #[test]
    fn truncated_payloads_are_typed_errors() {
        let mut buf = Vec::new();
        Request::Action { agent: 1, obs: vec![1.0, 2.0] }.encode(&mut buf);
        for cut in 1..buf.len() {
            let err = Request::decode(&buf[..cut]).unwrap_err();
            assert!(
                matches!(err, ProtocolError::Truncated),
                "cut at {cut}: expected Truncated, got {err:?}"
            );
        }
        assert!(matches!(Request::decode(&[]), Err(ProtocolError::Truncated)));
        assert!(matches!(Response::decode(&[]), Err(ProtocolError::Truncated)));
    }

    #[test]
    fn trailing_bytes_are_rejected() {
        let mut buf = Vec::new();
        Request::Ping.encode(&mut buf);
        buf.push(0x00);
        assert_eq!(Request::decode(&buf), Err(ProtocolError::TrailingBytes));
    }

    #[test]
    fn unknown_opcodes_are_rejected() {
        assert_eq!(Request::decode(&[0x7F]), Err(ProtocolError::UnknownOpcode(0x7F)));
        assert_eq!(Response::decode(&[0x01]), Err(ProtocolError::UnknownOpcode(0x01)));
    }

    #[test]
    fn oversize_declared_lengths_are_rejected_without_allocating() {
        // Action with an absurd obs count.
        let mut buf = vec![0x01];
        buf.extend_from_slice(&7u32.to_le_bytes());
        buf.extend_from_slice(&u32::MAX.to_le_bytes());
        assert_eq!(Request::decode(&buf), Err(ProtocolError::Oversize));
        // Error response with an absurd message length.
        let mut buf = vec![0xEF];
        buf.extend_from_slice(&u32::MAX.to_le_bytes());
        assert_eq!(Response::decode(&buf), Err(ProtocolError::Oversize));
    }

    #[test]
    fn bad_utf8_is_rejected() {
        let mut buf = vec![0x03];
        buf.extend_from_slice(&2u32.to_le_bytes());
        buf.extend_from_slice(&[0xFF, 0xFE]);
        assert_eq!(Request::decode(&buf), Err(ProtocolError::BadUtf8));
    }

    #[test]
    fn frames_round_trip_over_a_byte_stream() {
        let mut wire = Vec::new();
        write_request(&mut wire, &Request::Ping).unwrap();
        write_request(&mut wire, &Request::Action { agent: 2, obs: vec![0.5; 3] }).unwrap();
        let mut r = &wire[..];
        let p1 = read_frame(&mut r).unwrap().expect("first frame");
        assert_eq!(Request::decode(&p1), Ok(Request::Ping));
        let p2 = read_frame(&mut r).unwrap().expect("second frame");
        assert_eq!(Request::decode(&p2), Ok(Request::Action { agent: 2, obs: vec![0.5; 3] }));
        assert_eq!(read_frame(&mut r).unwrap(), None, "clean EOF between frames");
    }

    #[test]
    fn torn_frame_is_an_unexpected_eof() {
        let mut wire = Vec::new();
        write_request(&mut wire, &Request::Ping).unwrap();
        let mut r = &wire[..wire.len() - 1];
        // Length prefix arrives, payload does not: UnexpectedEof, not None.
        let err = read_frame(&mut r).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::UnexpectedEof);
    }

    #[test]
    fn oversize_frame_length_prefix_is_rejected() {
        let wire = ((MAX_FRAME_BYTES + 1) as u32).to_le_bytes();
        let mut r = &wire[..];
        let err = read_frame(&mut r).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
    }
}
