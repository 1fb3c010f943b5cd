//! A blocking client for the serving protocol.
//!
//! One [`Client`] wraps one TCP connection and issues one request at a
//! time (the protocol is strictly request/response per connection; open
//! more clients for parallelism — that is exactly what the load generator
//! does).

use std::fmt;
use std::io::{self, BufReader, BufWriter};
use std::net::{TcpStream, ToSocketAddrs};
use std::time::Duration;

use agsc_telemetry::knobs;

use crate::protocol::{
    read_frame, write_request, ProtocolError, Request, Response, StageTimings, TraceContext,
};
use crate::wire::{is_timeout, setup_stream};

/// Client-side deadlines. The default is fully blocking (every field
/// `None`) — the pre-hardening behavior — so deadlines are strictly
/// opt-in and the happy path is untouched.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ClientConfig {
    /// Bound on TCP connection establishment. Without it, a black-holed
    /// address (e.g. a dropped-packets firewall) blocks `connect` for the
    /// kernel's SYN-retry eternity.
    pub connect_timeout: Option<Duration>,
    /// Bound on waiting for a response frame.
    pub read_timeout: Option<Duration>,
    /// Bound on blocking request writes.
    pub write_timeout: Option<Duration>,
}

impl ClientConfig {
    /// Build from the environment: `AGSC_CLIENT_CONNECT_TIMEOUT_MS`,
    /// `AGSC_CLIENT_READ_TIMEOUT_MS`, `AGSC_CLIENT_WRITE_TIMEOUT_MS`.
    /// 0, unset, or malformed (with a warning) all mean "no deadline".
    pub fn from_env() -> Self {
        Self {
            connect_timeout: knobs::millis("AGSC_CLIENT_CONNECT_TIMEOUT_MS"),
            read_timeout: knobs::millis("AGSC_CLIENT_READ_TIMEOUT_MS"),
            write_timeout: knobs::millis("AGSC_CLIENT_WRITE_TIMEOUT_MS"),
        }
    }
}

/// What a well-formed action query can come back as: the server either
/// answers or tells the client to back off. Everything else is an error.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ActionOutcome {
    /// The greedy action `[heading, speed]`.
    Action([f32; 2]),
    /// Explicit backpressure — the request was not processed; retry later.
    Overloaded,
}

/// A traced action outcome: the action plus the server's echoed stage
/// breakdown, from [`Client::action_traced`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum TracedOutcome {
    /// The greedy action with the server-side stage timings.
    Action {
        /// `[heading, speed]`, bit-identical to an untraced query.
        action: [f32; 2],
        /// Where the request spent its time inside the server.
        stages: StageTimings,
    },
    /// Explicit backpressure — the request was not processed; retry later.
    Overloaded,
}

/// The served policy's shape and generation, from [`Client::info`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ServerInfo {
    /// Fleet size: valid agent ids are `0..num_agents`.
    pub num_agents: u32,
    /// Observation length every query must match.
    pub obs_dim: u32,
    /// Monotonic policy generation (bumps on every reload).
    pub generation: u64,
}

/// A successful hot reload, from [`Client::reload`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ReloadInfo {
    /// Policy generation after the swap.
    pub generation: u64,
    /// Training iterations behind the newly loaded checkpoint.
    pub iterations_done: u64,
}

/// Why a client call failed.
#[derive(Debug)]
pub enum ClientError {
    /// The connection broke (includes the server closing mid-request).
    Io(io::Error),
    /// A client-side deadline fired; the operand names the phase
    /// (`"connect"`, `"read"`, or `"write"`).
    Timeout(&'static str),
    /// The server refused admission at its connection cap. Back off and
    /// reconnect later.
    Busy,
    /// The server sent bytes that do not decode as a response.
    Protocol(ProtocolError),
    /// The server answered with an explicit `Error` response.
    Server(String),
    /// The server answered with the wrong response variant.
    Unexpected(&'static str),
    /// A retry loop ran out of attempts or deadline budget; `last` is the
    /// final attempt's failure.
    Exhausted {
        /// Attempts made before giving up.
        attempts: u32,
        /// The error that ended the final attempt.
        last: Box<ClientError>,
    },
}

impl ClientError {
    /// Whether a fresh connection and another attempt could plausibly
    /// succeed. Transport-level failures (broken or garbled streams,
    /// deadlines, admission refusals) are transient; semantic refusals
    /// (`Server`, `Unexpected`) and exhausted retry budgets are not.
    pub fn is_transient(&self) -> bool {
        matches!(
            self,
            ClientError::Io(_)
                | ClientError::Timeout(_)
                | ClientError::Busy
                | ClientError::Protocol(_)
        )
    }
}

impl fmt::Display for ClientError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ClientError::Io(e) => write!(f, "connection error: {e}"),
            ClientError::Timeout(phase) => write!(f, "client {phase} deadline exceeded"),
            ClientError::Busy => write!(f, "server busy: refused at connection cap"),
            ClientError::Protocol(e) => write!(f, "malformed response: {e}"),
            ClientError::Server(msg) => write!(f, "server error: {msg}"),
            ClientError::Unexpected(what) => write!(f, "unexpected response variant: {what}"),
            ClientError::Exhausted { attempts, last } => {
                write!(f, "gave up after {attempts} attempts; last error: {last}")
            }
        }
    }
}

impl std::error::Error for ClientError {}

/// Map a deadline-induced io error to the typed [`ClientError::Timeout`],
/// anything else to [`ClientError::Io`].
fn timeout_or_io(e: io::Error, phase: &'static str) -> ClientError {
    if is_timeout(&e) {
        ClientError::Timeout(phase)
    } else {
        ClientError::Io(e)
    }
}

impl From<io::Error> for ClientError {
    fn from(e: io::Error) -> Self {
        ClientError::Io(e)
    }
}

impl From<ProtocolError> for ClientError {
    fn from(e: ProtocolError) -> Self {
        ClientError::Protocol(e)
    }
}

/// One connection to a policy server.
pub struct Client {
    reader: BufReader<TcpStream>,
    writer: BufWriter<TcpStream>,
}

impl Client {
    /// Connect to a server. `TCP_NODELAY` is set: frames are tiny and the
    /// latency budget is microseconds, so Nagle buffering is pure harm here.
    pub fn connect(addr: impl ToSocketAddrs) -> io::Result<Self> {
        let stream = TcpStream::connect(addr)?;
        Self::from_stream(stream, &ClientConfig::default()).map_err(|e| match e {
            ClientError::Io(e) => e,
            other => io::Error::other(other.to_string()),
        })
    }

    /// Connect with client-side deadlines. With a `connect_timeout`, a
    /// black-holed address fails with a typed [`ClientError::Timeout`]
    /// instead of blocking through the kernel's SYN retries.
    pub fn connect_with(
        addr: impl ToSocketAddrs,
        config: &ClientConfig,
    ) -> Result<Self, ClientError> {
        let stream = match config.connect_timeout {
            None => TcpStream::connect(addr).map_err(|e| timeout_or_io(e, "connect"))?,
            Some(limit) => {
                let mut last: Option<io::Error> = None;
                let mut stream = None;
                for resolved in addr.to_socket_addrs().map_err(ClientError::Io)? {
                    match TcpStream::connect_timeout(&resolved, limit) {
                        Ok(s) => {
                            stream = Some(s);
                            break;
                        }
                        Err(e) => last = Some(e),
                    }
                }
                match (stream, last) {
                    (Some(s), _) => s,
                    (None, Some(e)) => return Err(timeout_or_io(e, "connect")),
                    (None, None) => {
                        return Err(ClientError::Io(io::Error::new(
                            io::ErrorKind::InvalidInput,
                            "address resolved to nothing",
                        )))
                    }
                }
            }
        };
        Self::from_stream(stream, config)
    }

    fn from_stream(stream: TcpStream, config: &ClientConfig) -> Result<Self, ClientError> {
        setup_stream(&stream).map_err(ClientError::Io)?;
        stream.set_read_timeout(config.read_timeout).map_err(ClientError::Io)?;
        stream.set_write_timeout(config.write_timeout).map_err(ClientError::Io)?;
        let reader = BufReader::new(stream.try_clone().map_err(ClientError::Io)?);
        Ok(Self { reader, writer: BufWriter::new(stream) })
    }

    fn round_trip(&mut self, req: &Request) -> Result<Response, ClientError> {
        write_request(&mut self.writer, req).map_err(|e| timeout_or_io(e, "write"))?;
        let payload = read_frame(&mut self.reader)
            .map_err(|e| timeout_or_io(e, "read"))?
            .ok_or_else(|| {
                ClientError::Io(io::Error::new(
                    io::ErrorKind::UnexpectedEof,
                    "server closed the connection before replying",
                ))
            })?;
        match Response::decode(&payload)? {
            Response::Error { message } => Err(ClientError::Server(message)),
            Response::Busy => Err(ClientError::Busy),
            resp => Ok(resp),
        }
    }

    /// Liveness check.
    pub fn ping(&mut self) -> Result<(), ClientError> {
        match self.round_trip(&Request::Ping)? {
            Response::Pong => Ok(()),
            _ => Err(ClientError::Unexpected("wanted Pong")),
        }
    }

    /// The served policy's shape and generation.
    pub fn info(&mut self) -> Result<ServerInfo, ClientError> {
        match self.round_trip(&Request::Info)? {
            Response::Info { num_agents, obs_dim, generation } => {
                Ok(ServerInfo { num_agents, obs_dim, generation })
            }
            _ => Err(ClientError::Unexpected("wanted Info")),
        }
    }

    /// Query the greedy action for `agent`'s observation. `Overloaded` is a
    /// normal outcome under load, not an error — callers decide whether to
    /// retry, and the request was *not* processed.
    pub fn action(&mut self, agent: u32, obs: &[f32]) -> Result<ActionOutcome, ClientError> {
        match self.round_trip(&Request::Action { agent, obs: obs.to_vec() })? {
            Response::Action { heading, speed } => Ok(ActionOutcome::Action([heading, speed])),
            Response::Overloaded => Ok(ActionOutcome::Overloaded),
            _ => Err(ClientError::Unexpected("wanted Action or Overloaded")),
        }
    }

    /// [`Client::action`] with a trace envelope: `trace_id` tags this
    /// request through the server's telemetry (batch membership, retries,
    /// shed events), and the response echoes the server-side stage
    /// timings. The action itself is bit-identical to an untraced query.
    pub fn action_traced(
        &mut self,
        trace: TraceContext,
        agent: u32,
        obs: &[f32],
    ) -> Result<TracedOutcome, ClientError> {
        match self.round_trip(&Request::TracedAction { trace, agent, obs: obs.to_vec() })? {
            Response::TracedAction { heading, speed, stages } => {
                Ok(TracedOutcome::Action { action: [heading, speed], stages })
            }
            Response::Overloaded => Ok(TracedOutcome::Overloaded),
            _ => Err(ClientError::Unexpected("wanted TracedAction or Overloaded")),
        }
    }

    /// Fetch the server's telemetry registry snapshot as a JSON string
    /// (the wire-level sibling of the admin plane's `/metrics`).
    pub fn stats(&mut self) -> Result<String, ClientError> {
        match self.round_trip(&Request::Stats)? {
            Response::Stats { json } => Ok(json),
            _ => Err(ClientError::Unexpected("wanted Stats")),
        }
    }

    /// Ask the server to hot-reload its policy from `path` (a checkpoint on
    /// the **server's** filesystem).
    pub fn reload(&mut self, path: &str) -> Result<ReloadInfo, ClientError> {
        match self.round_trip(&Request::Reload { path: path.to_string() })? {
            Response::ReloadOk { generation, iterations_done } => {
                Ok(ReloadInfo { generation, iterations_done })
            }
            _ => Err(ClientError::Unexpected("wanted ReloadOk")),
        }
    }
}
