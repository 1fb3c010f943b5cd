//! The TCP server: accept loop, per-connection protocol handling, the
//! batcher thread, hot reload, and graceful shutdown.
//!
//! ## Thread structure
//!
//! ```text
//! accept thread ──spawns──▶ connection threads (one per client)
//!                               │ validate, enqueue, await reply
//!                               ▼
//!                           SharedQueue (bounded)
//!                               │
//!                           batcher thread ── forward_batch per agent
//! ```
//!
//! ## Shutdown ordering
//!
//! [`ServerHandle::shutdown`] stops the accept loop first (no new
//! connections), then closes the queue — the batcher drains the backlog so
//! every enqueued request still gets its answer — then joins the batcher,
//! shuts down every connection socket to unblock blocking reads, and joins
//! the connection threads. Nothing is dropped on the floor.

use std::io::{self, BufWriter, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::mpsc::sync_channel;
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use agsc_telemetry::{self as tlm, knobs};

use crate::admin::{AdminServer, Health};
use crate::batcher::{run_batcher, BatcherOpts, Pending, PushError, SharedQueue};
use crate::policy::{PolicyLoader, PolicyStore, ServePolicy};
use crate::protocol::{write_response, Request, Response, TraceContext, MAX_FRAME_BYTES};
use crate::wire::{is_timeout, read_frame_phased, setup_stream};

/// Server tuning knobs. [`ServeConfig::from_env`] is the standard way to
/// build one; every field has a sensible default.
pub struct ServeConfig {
    /// Bind address. `port 0` asks the OS for a free port — the default, so
    /// tests and quickstarts never collide; read the real port back from
    /// [`ServerHandle::addr`].
    pub addr: String,
    /// Largest coalesced batch per forward pass.
    pub max_batch: usize,
    /// How long the batcher holds an under-full batch open for stragglers.
    pub max_wait: Duration,
    /// Bound on queued requests; beyond it clients get `Overloaded`.
    pub queue_cap: usize,
    /// Test hook: artificial per-batch delay so backpressure tests can
    /// fill the queue deterministically. Zero in production.
    pub batch_delay: Duration,
    /// Bound on how long a frame may take to finish arriving once its
    /// first byte has been read. `None` (the default) waits forever — the
    /// pre-hardening behavior. A partial frame that stalls past this is a
    /// dead or misbehaving peer; the connection is closed and
    /// `serve.conn_timeout` bumped.
    pub read_timeout: Option<Duration>,
    /// Bound on blocking response writes. `None` (the default) waits
    /// forever.
    pub write_timeout: Option<Duration>,
    /// How long a connection may sit idle *between* frames before the
    /// reaper closes it (`serve.idle_reaped`). `None` (the default) keeps
    /// idle connections forever.
    pub idle_timeout: Option<Duration>,
    /// Cap on simultaneously served connections; beyond it new arrivals
    /// get a typed [`Response::Busy`] and an immediate close
    /// (`serve.busy_refused`). `0` (the default) means unlimited.
    pub max_conns: usize,
    /// Bind address for the admin HTTP listener (`/metrics`, `/healthz`).
    /// `None` (the default) runs no admin plane.
    pub metrics_addr: Option<String>,
    /// `/healthz` queue threshold: the server reports unready once the
    /// queue backlog reaches this fraction of `queue_cap`. Default 0.9.
    pub health_queue_frac: f64,
}

impl Default for ServeConfig {
    fn default() -> Self {
        Self {
            addr: "127.0.0.1:0".to_string(),
            max_batch: 64,
            max_wait: Duration::from_micros(200),
            queue_cap: 1024,
            batch_delay: Duration::ZERO,
            read_timeout: None,
            write_timeout: None,
            idle_timeout: None,
            max_conns: 0,
            metrics_addr: None,
            health_queue_frac: 0.9,
        }
    }
}

impl ServeConfig {
    /// Build from the environment: `AGSC_SERVE_ADDR`,
    /// `AGSC_SERVE_MAX_BATCH`, `AGSC_SERVE_MAX_WAIT_US`,
    /// `AGSC_SERVE_QUEUE_CAP`, plus the hardening knobs
    /// `AGSC_SERVE_READ_TIMEOUT_MS`, `AGSC_SERVE_WRITE_TIMEOUT_MS`,
    /// `AGSC_SERVE_IDLE_TIMEOUT_MS` (0 or unset = no timeout) and
    /// `AGSC_SERVE_MAX_CONNS` (0 or unset = unlimited), plus the admin
    /// plane: `AGSC_METRICS_ADDR` (e.g. `127.0.0.1:9100`; unset = no admin
    /// listener) and `AGSC_METRICS_HEALTH_QUEUE_FRAC`. Unset or malformed
    /// values fall back to the defaults (with a warning for malformed ones).
    pub fn from_env() -> Self {
        let d = Self::default();
        Self {
            addr: knobs::text("AGSC_SERVE_ADDR").unwrap_or(d.addr),
            max_batch: knobs::parse("AGSC_SERVE_MAX_BATCH", d.max_batch).max(1),
            max_wait: Duration::from_micros(knobs::parse(
                "AGSC_SERVE_MAX_WAIT_US",
                d.max_wait.as_micros() as u64,
            )),
            queue_cap: knobs::parse("AGSC_SERVE_QUEUE_CAP", d.queue_cap).max(1),
            batch_delay: Duration::ZERO,
            read_timeout: knobs::millis("AGSC_SERVE_READ_TIMEOUT_MS"),
            write_timeout: knobs::millis("AGSC_SERVE_WRITE_TIMEOUT_MS"),
            idle_timeout: knobs::millis("AGSC_SERVE_IDLE_TIMEOUT_MS"),
            max_conns: knobs::parse("AGSC_SERVE_MAX_CONNS", d.max_conns),
            metrics_addr: knobs::text("AGSC_METRICS_ADDR"),
            health_queue_frac: knobs::parse("AGSC_METRICS_HEALTH_QUEUE_FRAC", d.health_queue_frac)
                .clamp(0.01, 1.0),
        }
    }
}

struct Shared {
    store: PolicyStore,
    queue: Arc<SharedQueue>,
    loader: PolicyLoader,
    accepting: AtomicBool,
    conns: Mutex<Vec<TcpStream>>,
    read_timeout: Option<Duration>,
    write_timeout: Option<Duration>,
    idle_timeout: Option<Duration>,
    max_conns: usize,
    active: AtomicUsize,
    queue_cap: usize,
    health_queue_frac: f64,
    started: Instant,
}

/// Live server gauges appended to every `/metrics` scrape and `Stats`
/// frame: instantaneous values the registry cannot know (queue depth right
/// now vs. at the last batch).
fn live_gauges(shared: &Shared) -> Vec<(String, f64)> {
    vec![
        ("serve.queue_depth_live".to_string(), shared.queue.len() as f64),
        ("serve.queue_cap".to_string(), shared.queue_cap as f64),
        ("serve.active_conns".to_string(), shared.active.load(Ordering::SeqCst) as f64),
        ("serve.generation".to_string(), shared.store.generation() as f64),
        ("serve.uptime_secs".to_string(), shared.started.elapsed().as_secs_f64()),
    ]
}

/// `/healthz` verdict: ready means a policy is loaded, the queue backlog
/// is under `health_queue_frac × queue_cap`, and nothing was shed
/// (`Overloaded` or `Busy`) inside the rolling telemetry window. With
/// telemetry disabled the shed signal is unavailable and health degrades
/// to the live queue-depth check.
fn health_check(shared: &Shared) -> Health {
    let depth = shared.queue.len();
    let threshold = (shared.health_queue_frac * shared.queue_cap as f64).max(1.0) as usize;
    let shed_in_window: u64 = tlm::window_counters_snapshot()
        .iter()
        .filter(|(name, _, _)| *name == "serve.overloaded" || *name == "serve.busy_refused")
        .map(|(_, total, _)| *total)
        .sum();
    let policy_loaded = shared.store.generation() >= 1;
    Health {
        ready: policy_loaded && depth < threshold && shed_in_window == 0,
        detail: format!(
            "{{\"policy_loaded\":{policy_loaded},\"queue_depth\":{depth},\
             \"queue_threshold\":{threshold},\"queue_cap\":{},\"shed_in_window\":{shed_in_window},\
             \"generation\":{}}}",
            shared.queue_cap,
            shared.store.generation()
        ),
    }
}

/// RAII decrement of the live-connection count, so a connection thread
/// that exits on any path (EOF, timeout, panic unwind) releases its slot.
struct ConnSlot<'a>(&'a AtomicUsize);

impl Drop for ConnSlot<'_> {
    fn drop(&mut self) {
        self.0.fetch_sub(1, Ordering::SeqCst);
    }
}

/// A running policy server. Factory: [`Server::start`].
pub struct ServerHandle {
    addr: SocketAddr,
    shared: Arc<Shared>,
    accept_thread: Option<JoinHandle<()>>,
    batcher_thread: Option<JoinHandle<()>>,
    conn_threads: Arc<Mutex<Vec<JoinHandle<()>>>>,
    admin: Option<AdminServer>,
}

/// Namespace for [`Server::start`].
pub struct Server;

impl Server {
    /// Bind, spawn the accept and batcher threads, and return a handle.
    /// `policy` is generation 1; `loader` services hot-reload requests.
    pub fn start(
        config: ServeConfig,
        policy: Arc<dyn ServePolicy>,
        loader: PolicyLoader,
    ) -> std::io::Result<ServerHandle> {
        let listener = TcpListener::bind(&config.addr)?;
        let addr = listener.local_addr()?;
        let shared = Arc::new(Shared {
            store: PolicyStore::new(policy),
            queue: SharedQueue::new(config.queue_cap),
            loader,
            accepting: AtomicBool::new(true),
            conns: Mutex::new(Vec::new()),
            read_timeout: config.read_timeout,
            write_timeout: config.write_timeout,
            idle_timeout: config.idle_timeout,
            max_conns: config.max_conns,
            active: AtomicUsize::new(0),
            queue_cap: config.queue_cap,
            health_queue_frac: config.health_queue_frac,
            started: Instant::now(),
        });
        tlm::emit_with(tlm::Level::Info, "serve_start", |e| {
            e.str("addr", addr.to_string())
                .u64("max_batch", config.max_batch as u64)
                .u64("queue_cap", config.queue_cap as u64)
        });

        let batcher_thread = {
            let shared = Arc::clone(&shared);
            let opts = BatcherOpts {
                max_batch: config.max_batch,
                max_wait: config.max_wait,
                batch_delay: config.batch_delay,
            };
            std::thread::Builder::new()
                .name("agsc-serve-batcher".into())
                .spawn(move || run_batcher(&shared.queue, &shared.store, &opts))?
        };

        let conn_threads = Arc::new(Mutex::new(Vec::new()));
        let accept_thread = {
            let shared = Arc::clone(&shared);
            let conn_threads = Arc::clone(&conn_threads);
            std::thread::Builder::new()
                .name("agsc-serve-accept".into())
                .spawn(move || accept_loop(listener, shared, conn_threads))?
        };

        let admin = match &config.metrics_addr {
            Some(metrics_addr) => {
                let gauges_shared = Arc::clone(&shared);
                let health_shared = Arc::clone(&shared);
                let admin = AdminServer::start(
                    metrics_addr,
                    Box::new(move || live_gauges(&gauges_shared)),
                    Box::new(move || health_check(&health_shared)),
                )?;
                tlm::emit_with(tlm::Level::Info, "serve_admin", |e| {
                    e.str("addr", admin.addr().to_string())
                });
                Some(admin)
            }
            None => None,
        };

        Ok(ServerHandle {
            addr,
            shared,
            accept_thread: Some(accept_thread),
            batcher_thread: Some(batcher_thread),
            conn_threads,
            admin,
        })
    }
}

impl ServerHandle {
    /// The bound address (with the OS-assigned port when the config asked
    /// for port 0).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Current policy generation (bumps on every successful hot reload).
    pub fn generation(&self) -> u64 {
        self.shared.store.generation()
    }

    /// The admin HTTP listener's address, when one was configured.
    pub fn metrics_addr(&self) -> Option<SocketAddr> {
        self.admin.as_ref().map(|a| a.addr())
    }

    /// Graceful shutdown: refuse new connections, drain and answer every
    /// queued request, then tear down the connection threads. Idempotent
    /// via `Drop` (dropping an already-shut-down handle is a no-op).
    pub fn shutdown(mut self) {
        self.shutdown_inner();
    }

    fn shutdown_inner(&mut self) {
        if self.accept_thread.is_none() {
            return;
        }
        // 1. Stop accepting. The accept loop sits in a blocking accept();
        //    poke it awake with a throwaway connection.
        self.shared.accepting.store(false, Ordering::SeqCst);
        let _ = TcpStream::connect(self.addr);
        if let Some(t) = self.accept_thread.take() {
            let _ = t.join();
        }
        // 2. Drain: close the queue, then join the batcher — it answers
        //    the whole backlog before exiting, so no queued request is
        //    ever dropped.
        self.shared.queue.close();
        if let Some(t) = self.batcher_thread.take() {
            let _ = t.join();
        }
        // 3. Unblock connection threads stuck in read_frame and join them.
        {
            let conns = self.shared.conns.lock().unwrap_or_else(|e| e.into_inner());
            for c in conns.iter() {
                let _ = c.shutdown(Shutdown::Both);
            }
        }
        let handles: Vec<_> = {
            let mut g = self.conn_threads.lock().unwrap_or_else(|e| e.into_inner());
            g.drain(..).collect()
        };
        for t in handles {
            let _ = t.join();
        }
        // 4. Stop the admin plane last, so a scrape can observe the drain.
        if let Some(admin) = self.admin.take() {
            admin.stop();
        }
        tlm::emit_with(tlm::Level::Info, "serve_stop", |e| e.str("addr", self.addr.to_string()));
    }
}

impl Drop for ServerHandle {
    fn drop(&mut self) {
        self.shutdown_inner();
    }
}

fn accept_loop(
    listener: TcpListener,
    shared: Arc<Shared>,
    conn_threads: Arc<Mutex<Vec<JoinHandle<()>>>>,
) {
    loop {
        let stream = match listener.accept() {
            Ok((s, _)) => s,
            Err(_) => {
                if !shared.accepting.load(Ordering::SeqCst) {
                    return;
                }
                continue;
            }
        };
        if !shared.accepting.load(Ordering::SeqCst) {
            // The shutdown poke (or a late client); close it and exit.
            let _ = stream.shutdown(Shutdown::Both);
            return;
        }
        let _ = setup_stream(&stream);
        if shared.max_conns > 0 && shared.active.load(Ordering::SeqCst) >= shared.max_conns {
            // Admission control: a typed refusal the client can tell apart
            // from a crash, then an immediate close. Never silently drop.
            tlm::counter_add("serve.busy_refused", 1);
            let _ = stream.set_write_timeout(shared.write_timeout);
            let mut w = BufWriter::new(&stream);
            let _ = write_response(&mut w, &Response::Busy);
            drop(w);
            let _ = stream.shutdown(Shutdown::Both);
            continue;
        }
        if let Ok(clone) = stream.try_clone() {
            shared.conns.lock().unwrap_or_else(|e| e.into_inner()).push(clone);
        }
        tlm::counter_add("serve.connections", 1);
        shared.active.fetch_add(1, Ordering::SeqCst);
        let shared2 = Arc::clone(&shared);
        let spawned = std::thread::Builder::new().name("agsc-serve-conn".into()).spawn(move || {
            let _slot = ConnSlot(&shared2.active);
            handle_connection(stream, &shared2)
        });
        match spawned {
            Ok(handle) => {
                conn_threads.lock().unwrap_or_else(|e| e.into_inner()).push(handle);
            }
            Err(_) => {
                shared.active.fetch_sub(1, Ordering::SeqCst);
                tlm::warn("serve_spawn_failed", |e| e.msg("could not spawn conn thread"));
            }
        }
    }
}

/// One connection: read frames, answer them, until EOF, socket shutdown,
/// or a hardening deadline fires. Validation happens here, at the protocol
/// boundary, so the batcher only ever sees well-formed work; a panic in a
/// handler is contained to a typed error on this connection, never a dead
/// thread mid-conversation.
fn handle_connection(stream: TcpStream, shared: &Shared) {
    let mut reader = match stream.try_clone() {
        Ok(s) => s,
        Err(_) => return,
    };
    if shared.write_timeout.is_some() {
        let _ = stream.set_write_timeout(shared.write_timeout);
    }
    let mut writer = BufWriter::new(stream);
    conn_loop(&mut reader, &mut writer, shared);
    // The shutdown registry keeps a clone of this socket alive, so merely
    // dropping our handles would never send FIN. Shut the socket down
    // explicitly so server-initiated closes (idle reap, stalled frames,
    // malformed traffic) are visible to the peer immediately.
    let _ = writer.flush();
    let _ = writer.get_ref().shutdown(Shutdown::Both);
}

fn conn_loop(reader: &mut TcpStream, writer: &mut BufWriter<TcpStream>, shared: &Shared) {
    loop {
        // Phase-split deadlines: while waiting for a frame only the idle
        // deadline applies; once its first byte lands, the frame deadline
        // bounds the rest. With both `None` this is a plain blocking read.
        let _ = reader.set_read_timeout(shared.idle_timeout);
        let mut started = false;
        let read = read_frame_phased(reader, MAX_FRAME_BYTES, |s| {
            started = true;
            let _ = s.set_read_timeout(shared.read_timeout);
        });
        let payload = match read {
            Ok(Some(p)) => p,
            Err(e) if is_timeout(&e) => {
                let reason = if started { "serve.conn_timeout" } else { "serve.idle_reaped" };
                tlm::counter_add(reason, 1);
                return;
            }
            Err(e) if e.kind() == io::ErrorKind::InvalidData => {
                // Malformed-frame policy: answer with a typed error,
                // then close — never read a stream we cannot reframe.
                tlm::counter_add("serve.protocol_errors", 1);
                let _ = write_response(writer, &Response::Error { message: e.to_string() });
                return;
            }
            // Clean EOF, torn stream, or our own shutdown poke.
            Ok(None) | Err(_) => return,
        };
        let _span = tlm::span("serve/request");
        let resp = match Request::decode(&payload) {
            Ok(req) => {
                match std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                    respond(req, shared)
                })) {
                    Ok(resp) => resp,
                    Err(_) => {
                        tlm::counter_add("serve.conn_panic", 1);
                        tlm::warn("serve_panic", |e| {
                            e.msg("request handler panicked; answered with a typed error")
                        });
                        // A panicking handler is exactly when buffered JSONL
                        // context matters most — push it to disk now rather
                        // than risk losing it with the process.
                        tlm::flush();
                        Response::Error { message: "internal error: handler panicked".to_string() }
                    }
                }
            }
            Err(e) => {
                tlm::counter_add("serve.protocol_errors", 1);
                Response::Error { message: format!("bad request: {e}") }
            }
        };
        // The response-write stage can only be observed from this side of
        // the wire, so it lives in the histograms rather than the traced
        // echo. Gated so the disabled path never reads the clock.
        let write_start = if tlm::is_enabled() { Some(Instant::now()) } else { None };
        if let Err(e) = write_response(writer, &resp) {
            if is_timeout(&e) {
                tlm::counter_add("serve.conn_timeout", 1);
            }
            return;
        }
        if let Some(t0) = write_start {
            tlm::histogram_record(
                "serve.stage.response_write_us",
                t0.elapsed().as_secs_f64() * 1e6,
            );
        }
    }
}

fn respond(req: Request, shared: &Shared) -> Response {
    match req {
        Request::Ping => Response::Pong,
        Request::Info => {
            let (policy, generation) = shared.store.current_with_generation();
            Response::Info {
                num_agents: policy.num_agents() as u32,
                obs_dim: policy.obs_dim() as u32,
                generation,
            }
        }
        Request::Action { agent, obs } => respond_action(agent, obs, None, shared),
        Request::TracedAction { trace, agent, obs } => {
            respond_action(agent, obs, Some(trace), shared)
        }
        Request::Stats => Response::Stats { json: tlm::export::stats_json(&live_gauges(shared)) },
        Request::Reload { path } => {
            let new_policy = match (shared.loader)(std::path::Path::new(&path)) {
                Ok(p) => p,
                Err(msg) => {
                    tlm::counter_add("serve.reload_failures", 1);
                    return Response::Error { message: format!("reload failed: {msg}") };
                }
            };
            let iterations_done = new_policy.iterations_done();
            match shared.store.swap(new_policy) {
                Ok(generation) => {
                    tlm::counter_add("serve.reloads", 1);
                    tlm::emit_with(tlm::Level::Info, "serve_reload", |e| {
                        e.str("path", path.clone()).u64("generation", generation)
                    });
                    Response::ReloadOk { generation, iterations_done }
                }
                Err(msg) => {
                    tlm::counter_add("serve.reload_failures", 1);
                    Response::Error { message: format!("reload failed: {msg}") }
                }
            }
        }
    }
}

fn respond_action(
    agent: u32,
    obs: Vec<f32>,
    trace: Option<TraceContext>,
    shared: &Shared,
) -> Response {
    let policy = shared.store.current();
    if agent as usize >= policy.num_agents() {
        return Response::Error {
            message: format!(
                "agent id {agent} out of range (serving {} agents)",
                policy.num_agents()
            ),
        };
    }
    if obs.len() != policy.obs_dim() {
        return Response::Error {
            message: format!(
                "observation length {} does not match obs_dim {}",
                obs.len(),
                policy.obs_dim()
            ),
        };
    }
    let (reply_tx, reply_rx) = sync_channel(1);
    let pending =
        Pending { agent, obs, enqueued: Instant::now(), popped: None, trace, reply: reply_tx };
    match shared.queue.try_push(pending) {
        Ok(()) => {}
        Err(PushError::Full(p)) => {
            tlm::counter_add("serve.overloaded", 1);
            if let Some(t) = p.trace {
                tlm::emit_with(tlm::Level::Debug, "serve.shed", |e| {
                    e.str("trace_id", format!("{:016x}", t.trace_id)).str("reason", "overloaded")
                });
            }
            return Response::Overloaded;
        }
        Err(PushError::Closed(_)) => {
            return Response::Error { message: "server is shutting down".to_string() };
        }
    }
    // The batcher answers every popped request, and the queue drains fully
    // on shutdown, so this recv can only fail if the batcher died — turn
    // that into a response rather than a hang or a panic.
    match reply_rx.recv() {
        Ok(resp) => resp,
        Err(_) => Response::Error { message: "server batcher unavailable".to_string() },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::client::{ActionOutcome, Client};
    use crate::testsupport::FakePolicy;

    fn fake(bias: f32) -> FakePolicy {
        FakePolicy { obs_dim: 4, num_agents: 3, bias, iterations: 9 }
    }

    fn refusing_loader() -> PolicyLoader {
        Box::new(|_| Err("no loader in this test".to_string()))
    }

    fn start(config: ServeConfig, bias: f32, loader: PolicyLoader) -> ServerHandle {
        Server::start(config, Arc::new(fake(bias)), loader).expect("server starts")
    }

    #[test]
    fn serves_actions_matching_direct_policy_calls_bitwise() {
        let server = start(ServeConfig::default(), 0.5, refusing_loader());
        let policy = fake(0.5);
        let mut client = Client::connect(server.addr()).unwrap();
        client.ping().unwrap();
        let info = client.info().unwrap();
        assert_eq!((info.num_agents, info.obs_dim, info.generation), (3, 4, 1));
        for i in 0..10u32 {
            let agent = i % 3;
            let obs: Vec<f32> = (0..4).map(|j| (i * 4 + j) as f32 * 0.125).collect();
            let direct = policy.expected(agent as usize, &obs);
            match client.action(agent, &obs).unwrap() {
                ActionOutcome::Action(got) => {
                    assert_eq!(got[0].to_bits(), direct[0].to_bits());
                    assert_eq!(got[1].to_bits(), direct[1].to_bits());
                }
                ActionOutcome::Overloaded => panic!("unloaded server must not shed"),
            }
        }
        server.shutdown();
    }

    #[test]
    fn many_concurrent_clients_all_get_correct_answers() {
        let server = start(ServeConfig::default(), 1.5, refusing_loader());
        let addr = server.addr();
        let threads: Vec<_> = (0..8)
            .map(|t| {
                std::thread::spawn(move || {
                    let policy = fake(1.5);
                    let mut client = Client::connect(addr).unwrap();
                    for i in 0..50u32 {
                        let agent = (t + i) % 3;
                        let obs = vec![t as f32, i as f32, 0.5, -0.25];
                        let want = policy.expected(agent as usize, &obs);
                        match client.action(agent, &obs).unwrap() {
                            ActionOutcome::Action(got) => assert_eq!(got, want),
                            ActionOutcome::Overloaded => panic!("queue_cap 1024 never fills here"),
                        }
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        server.shutdown();
    }

    #[test]
    fn invalid_queries_get_typed_errors_not_disconnects() {
        let server = start(ServeConfig::default(), 0.0, refusing_loader());
        let mut client = Client::connect(server.addr()).unwrap();
        let err = client.action(99, &[0.0; 4]).unwrap_err();
        assert!(format!("{err}").contains("out of range"), "{err}");
        let err = client.action(0, &[0.0; 3]).unwrap_err();
        assert!(format!("{err}").contains("obs_dim"), "{err}");
        // The connection must survive both rejections.
        client.ping().unwrap();
        server.shutdown();
    }

    #[test]
    fn queue_overflow_yields_overloaded_not_drops() {
        // A tiny queue plus an artificially slow batcher: the closed-loop
        // clients outpace it and must see explicit Overloaded responses.
        let config = ServeConfig {
            queue_cap: 2,
            max_batch: 1,
            batch_delay: Duration::from_millis(5),
            ..ServeConfig::default()
        };
        let server = start(config, 0.0, refusing_loader());
        let addr = server.addr();
        let threads: Vec<_> = (0..6)
            .map(|_| {
                std::thread::spawn(move || {
                    let mut client = Client::connect(addr).unwrap();
                    let mut served = 0u32;
                    let mut shed = 0u32;
                    for i in 0..30u32 {
                        match client.action(0, &[i as f32; 4]).unwrap() {
                            ActionOutcome::Action(_) => served += 1,
                            ActionOutcome::Overloaded => shed += 1,
                        }
                    }
                    (served, shed)
                })
            })
            .collect();
        let (mut served, mut shed) = (0, 0);
        for t in threads {
            let (s, o) = t.join().unwrap();
            served += s;
            shed += o;
        }
        assert_eq!(served + shed, 180, "every request gets exactly one answer");
        assert!(shed > 0, "6 clients against a cap-2 queue at 5ms/batch must shed");
        assert!(served > 0, "some requests must still be served");
        server.shutdown();
    }

    #[test]
    fn hot_reload_swaps_policy_and_bumps_generation() {
        let loader: PolicyLoader = Box::new(|path| {
            let bias: f32 = path
                .file_name()
                .and_then(|s| s.to_str())
                .and_then(|s| s.parse().ok())
                .ok_or("bad fake path")?;
            Ok(Arc::new(fake(bias)))
        });
        let server = start(ServeConfig::default(), 1.0, loader);
        let mut client = Client::connect(server.addr()).unwrap();
        let before = match client.action(0, &[1.0, 0.0, 0.0, 0.0]).unwrap() {
            ActionOutcome::Action(a) => a,
            other => panic!("{other:?}"),
        };
        assert_eq!(before, fake(1.0).expected(0, &[1.0, 0.0, 0.0, 0.0]));

        let reload = client.reload("2.5").unwrap();
        assert_eq!(reload.generation, 2);
        assert_eq!(reload.iterations_done, 9);
        assert_eq!(server.generation(), 2);

        let after = match client.action(0, &[1.0, 0.0, 0.0, 0.0]).unwrap() {
            ActionOutcome::Action(a) => a,
            other => panic!("{other:?}"),
        };
        assert_eq!(after, fake(2.5).expected(0, &[1.0, 0.0, 0.0, 0.0]));

        let err = client.reload("not-a-bias").unwrap_err();
        assert!(format!("{err}").contains("reload failed"), "{err}");
        assert_eq!(server.generation(), 2, "failed reload must not bump the generation");
        server.shutdown();
    }

    #[test]
    fn shutdown_answers_inflight_requests_then_refuses_new_connections() {
        // Slow batcher + burst of requests: shut down while they are
        // queued and verify every one is answered (drain, not drop).
        let config = ServeConfig {
            queue_cap: 64,
            max_batch: 1,
            batch_delay: Duration::from_millis(2),
            ..ServeConfig::default()
        };
        let server = start(config, 0.0, refusing_loader());
        let addr = server.addr();
        let workers: Vec<_> = (0..4)
            .map(|_| {
                std::thread::spawn(move || {
                    let mut client = Client::connect(addr).unwrap();
                    let mut answered = 0u32;
                    for i in 0..10u32 {
                        match client.action(0, &[i as f32; 4]) {
                            Ok(_) => answered += 1,
                            // Shutdown raced the request before it was
                            // enqueued; an explicit refusal is also fine.
                            Err(_) => break,
                        }
                    }
                    answered
                })
            })
            .collect();
        std::thread::sleep(Duration::from_millis(15));
        server.shutdown();
        for w in workers {
            // The guarantee under test: no worker hangs and none panics —
            // every request either got its action or an explicit refusal.
            w.join().unwrap();
        }
        match Client::connect(addr) {
            Err(_) => {} // connection refused: the listener is gone
            Ok(mut c) => assert!(c.ping().is_err(), "a stopped server must not answer pings"),
        }
    }

    #[test]
    fn config_from_env_falls_back_on_garbage() {
        // Not parallel-safe env mutation in general, but these vars are
        // owned by this test alone.
        std::env::set_var("AGSC_SERVE_MAX_BATCH", "not-a-number");
        let cfg = ServeConfig::from_env();
        assert_eq!(cfg.max_batch, ServeConfig::default().max_batch);
        std::env::remove_var("AGSC_SERVE_MAX_BATCH");
    }

    #[test]
    fn hardening_knobs_default_off() {
        let cfg = ServeConfig::default();
        assert_eq!(cfg.read_timeout, None);
        assert_eq!(cfg.write_timeout, None);
        assert_eq!(cfg.idle_timeout, None);
        assert_eq!(cfg.max_conns, 0);
    }

    #[test]
    fn connection_cap_refuses_with_typed_busy_then_frees_the_slot() {
        use crate::protocol::read_frame;

        let config = ServeConfig { max_conns: 1, ..ServeConfig::default() };
        let server = start(config, 0.0, refusing_loader());
        let addr = server.addr();
        let mut first = Client::connect(addr).unwrap();
        first.ping().unwrap();

        // Slot taken: a second arrival gets one Busy frame, then EOF.
        let mut raw = std::net::TcpStream::connect(addr).unwrap();
        raw.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
        let payload = read_frame(&mut raw).unwrap().expect("a refusal frame, not silence");
        assert_eq!(Response::decode(&payload), Ok(Response::Busy));
        assert_eq!(read_frame(&mut raw).unwrap(), None, "busy connection is closed after refusal");

        // Releasing the held connection frees the slot for new clients.
        drop(first);
        let deadline = Instant::now() + Duration::from_secs(5);
        loop {
            if let Ok(mut c) = Client::connect(addr) {
                if c.ping().is_ok() {
                    break;
                }
            }
            assert!(Instant::now() < deadline, "slot never freed after client disconnect");
            std::thread::sleep(Duration::from_millis(10));
        }
        server.shutdown();
    }

    #[test]
    fn idle_connections_are_reaped() {
        let config =
            ServeConfig { idle_timeout: Some(Duration::from_millis(50)), ..ServeConfig::default() };
        let server = start(config, 0.0, refusing_loader());
        let mut client = Client::connect(server.addr()).unwrap();
        client.ping().unwrap();
        std::thread::sleep(Duration::from_millis(300));
        assert!(client.ping().is_err(), "idle connection must be reaped, not kept");
        // Fresh connections are still welcome.
        let mut fresh = Client::connect(server.addr()).unwrap();
        fresh.ping().unwrap();
        server.shutdown();
    }

    #[test]
    fn stalled_mid_frame_connections_are_closed() {
        use std::io::{Read, Write};

        let config =
            ServeConfig { read_timeout: Some(Duration::from_millis(50)), ..ServeConfig::default() };
        let server = start(config, 0.0, refusing_loader());
        let mut raw = std::net::TcpStream::connect(server.addr()).unwrap();
        // Half a length prefix, then silence: the server must cut us off
        // rather than wait forever on the rest of the frame.
        raw.write_all(&[0x05, 0x00]).unwrap();
        raw.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
        let mut buf = [0u8; 16];
        match raw.read(&mut buf) {
            Ok(0) => {}
            other => panic!("expected the server to close the stalled connection, got {other:?}"),
        }
        server.shutdown();
    }

    #[test]
    fn oversize_length_prefix_gets_a_typed_error_then_close() {
        use crate::protocol::read_frame;
        use std::io::Write;

        let server = start(ServeConfig::default(), 0.0, refusing_loader());
        let mut raw = std::net::TcpStream::connect(server.addr()).unwrap();
        raw.write_all(&((MAX_FRAME_BYTES as u32) + 1).to_le_bytes()).unwrap();
        raw.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
        let payload = read_frame(&mut raw).unwrap().expect("a typed error frame");
        match Response::decode(&payload) {
            Ok(Response::Error { message }) => {
                assert!(message.contains("exceeds"), "{message}")
            }
            other => panic!("expected a typed protocol error, got {other:?}"),
        }
        assert_eq!(read_frame(&mut raw).unwrap(), None, "unreframeable stream must be closed");
        server.shutdown();
    }

    #[test]
    fn panicking_handler_is_contained_to_a_typed_error() {
        let loader: PolicyLoader = Box::new(|_| panic!("loader exploded"));
        let server = start(ServeConfig::default(), 0.0, loader);
        let mut client = Client::connect(server.addr()).unwrap();
        let err = client.reload("whatever").unwrap_err();
        assert!(format!("{err}").contains("panicked"), "{err}");
        // The connection — and the server — survive the panic.
        client.ping().unwrap();
        let mut fresh = Client::connect(server.addr()).unwrap();
        fresh.ping().unwrap();
        server.shutdown();
    }
}
