//! Test-support TCP fault proxy: a seeded man-in-the-middle for the
//! client↔server path.
//!
//! The chaos harness sits between a [`crate::Client`] and a
//! [`crate::Server`] and injects, from a deterministic per-connection plan
//! (the same seeded-plan idiom as `agsc_env::faults::FaultPlan`), the
//! network failures a fleet-scale deployment actually sees:
//!
//! * **delays** — every forwarded response chunk sleeps first;
//! * **abrupt resets** — both directions are torn down mid-stream after a
//!   sampled byte budget (the peer observes a dead connection mid-frame);
//! * **mid-frame truncation** — the write side is FIN-closed partway
//!   through a frame, so the peer reads a torn frame then EOF;
//! * **byte corruption** — one forwarded byte is flipped, exercising the
//!   decoder's typed-error path;
//! * **black holes** — the connection accepts and then never answers,
//!   exercising timeout paths.
//!
//! Every fate is a pure function of `(seed, connection index)`, so a chaos
//! test failure replays exactly from its seed. The proxy is plain
//! `std::net` — no async, no dependencies — and is shipped in the library
//! (not behind `cfg(test)`) so integration suites and the `chaos_smoke`
//! example can drive it.

use std::io::{self, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

use crate::retry::SplitMix;
use crate::wire::setup_stream;

/// Chaos knobs: per-connection fault probabilities. Probabilities are
/// evaluated in the order black-hole → reset → truncate → corrupt → delay;
/// whatever is left over is a clean pass-through connection.
#[derive(Debug, Clone)]
pub struct ChaosConfig {
    /// Seed every per-connection fate derives from.
    pub seed: u64,
    /// Probability a connection is black-holed (accepted, never answered).
    pub blackhole_prob: f64,
    /// Probability a connection is torn down abruptly mid-stream.
    pub reset_prob: f64,
    /// Probability a connection's stream is FIN-truncated mid-frame.
    pub truncate_prob: f64,
    /// Probability one forwarded byte is flipped.
    pub corrupt_prob: f64,
    /// Probability every response chunk is delayed by [`delay`](Self::delay).
    pub delay_prob: f64,
    /// The per-chunk delay applied to delayed connections.
    pub delay: Duration,
}

impl ChaosConfig {
    /// A no-fault configuration (pure pass-through proxy) with `seed`.
    pub fn none(seed: u64) -> Self {
        Self {
            seed,
            blackhole_prob: 0.0,
            reset_prob: 0.0,
            truncate_prob: 0.0,
            corrupt_prob: 0.0,
            delay_prob: 0.0,
            delay: Duration::from_millis(5),
        }
    }
}

/// Which direction of the proxied byte stream a fault applies to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Direction {
    /// Client → server bytes (requests).
    ToServer,
    /// Server → client bytes (responses).
    ToClient,
}

/// The sampled fate of one proxied connection.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ConnFate {
    /// Pass everything through untouched.
    Clean,
    /// Sleep this long before forwarding each response chunk.
    Delay(Duration),
    /// Tear down both directions after forwarding `after` bytes in `dir`.
    Reset {
        /// Byte budget before the teardown.
        after: usize,
        /// Direction whose byte count triggers the teardown.
        dir: Direction,
    },
    /// FIN-close the `dir` write side after forwarding `after` bytes —
    /// the receiving peer sees a torn frame then a clean EOF.
    Truncate {
        /// Byte budget before the FIN.
        after: usize,
        /// Direction being truncated.
        dir: Direction,
    },
    /// Flip one bit of byte `at` in `dir`.
    Corrupt {
        /// Offset of the corrupted byte in the direction's stream.
        at: usize,
        /// Direction being corrupted.
        dir: Direction,
    },
    /// Accept the connection and never forward anything in either
    /// direction.
    BlackHole,
}

/// Salt separating per-connection fate streams (FaultPlan idiom).
const CONN_FATE_SALT: u64 = 0xC4A0_5CA0_5FA7_E001;

/// A seeded chaos plan: a pure function from connection index to
/// [`ConnFate`].
#[derive(Debug, Clone)]
pub struct ChaosPlan {
    cfg: ChaosConfig,
}

impl ChaosPlan {
    /// A plan drawing fates from `cfg`.
    pub fn new(cfg: ChaosConfig) -> Self {
        Self { cfg }
    }

    /// The deterministic fate of the `conn_index`-th accepted connection.
    pub fn fate(&self, conn_index: u64) -> ConnFate {
        let mut rng =
            SplitMix::new(self.cfg.seed ^ conn_index.wrapping_mul(CONN_FATE_SALT).wrapping_add(1));
        let roll = rng.next_f64();
        // 1..=48 bytes: inside the first frame or two of a conversation, so
        // the fault lands mid-protocol rather than after the workload is done.
        let at = (rng.next_u64() % 48) as usize + 1;
        let dir = if rng.next_u64() & 1 == 0 { Direction::ToServer } else { Direction::ToClient };
        let mut acc = self.cfg.blackhole_prob;
        if roll < acc {
            return ConnFate::BlackHole;
        }
        acc += self.cfg.reset_prob;
        if roll < acc {
            return ConnFate::Reset { after: at, dir };
        }
        acc += self.cfg.truncate_prob;
        if roll < acc {
            return ConnFate::Truncate { after: at, dir };
        }
        acc += self.cfg.corrupt_prob;
        if roll < acc {
            return ConnFate::Corrupt { at, dir };
        }
        acc += self.cfg.delay_prob;
        if roll < acc {
            return ConnFate::Delay(self.cfg.delay);
        }
        ConnFate::Clean
    }
}

/// A point-in-time snapshot of the proxy's fault tallies, one per
/// [`ConnFate`] variant plus the total.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ChaosCounts {
    /// Connections accepted.
    pub connections: u64,
    /// Connections passed through untouched.
    pub clean: u64,
    /// Connections with per-chunk response delays.
    pub delayed: u64,
    /// Connections torn down abruptly.
    pub resets: u64,
    /// Connections FIN-truncated mid-frame.
    pub truncations: u64,
    /// Connections with a flipped byte.
    pub corruptions: u64,
    /// Connections black-holed.
    pub blackholes: u64,
}

#[derive(Default)]
struct ChaosStats {
    connections: AtomicU64,
    clean: AtomicU64,
    delayed: AtomicU64,
    resets: AtomicU64,
    truncations: AtomicU64,
    corruptions: AtomicU64,
    blackholes: AtomicU64,
}

impl ChaosStats {
    fn record_fate(&self, fate: &ConnFate) {
        self.connections.fetch_add(1, Ordering::Relaxed);
        let slot = match fate {
            ConnFate::Clean => &self.clean,
            ConnFate::Delay(_) => &self.delayed,
            ConnFate::Reset { .. } => &self.resets,
            ConnFate::Truncate { .. } => &self.truncations,
            ConnFate::Corrupt { .. } => &self.corruptions,
            ConnFate::BlackHole => &self.blackholes,
        };
        slot.fetch_add(1, Ordering::Relaxed);
    }

    fn snapshot(&self) -> ChaosCounts {
        ChaosCounts {
            connections: self.connections.load(Ordering::Relaxed),
            clean: self.clean.load(Ordering::Relaxed),
            delayed: self.delayed.load(Ordering::Relaxed),
            resets: self.resets.load(Ordering::Relaxed),
            truncations: self.truncations.load(Ordering::Relaxed),
            corruptions: self.corruptions.load(Ordering::Relaxed),
            blackholes: self.blackholes.load(Ordering::Relaxed),
        }
    }
}

/// What one pump (one direction of one connection) does to its bytes.
#[derive(Clone, Copy, Default)]
struct PumpMod {
    delay: Option<Duration>,
    reset_after: Option<usize>,
    truncate_after: Option<usize>,
    corrupt_at: Option<usize>,
}

fn direction_mods(fate: ConnFate) -> (PumpMod, PumpMod) {
    let mut to_server = PumpMod::default();
    let mut to_client = PumpMod::default();
    match fate {
        ConnFate::Clean | ConnFate::BlackHole => {}
        ConnFate::Delay(d) => to_client.delay = Some(d),
        ConnFate::Reset { after, dir } => match dir {
            Direction::ToServer => to_server.reset_after = Some(after),
            Direction::ToClient => to_client.reset_after = Some(after),
        },
        ConnFate::Truncate { after, dir } => match dir {
            Direction::ToServer => to_server.truncate_after = Some(after),
            Direction::ToClient => to_client.truncate_after = Some(after),
        },
        ConnFate::Corrupt { at, dir } => match dir {
            Direction::ToServer => to_server.corrupt_at = Some(at),
            Direction::ToClient => to_client.corrupt_at = Some(at),
        },
    }
    (to_server, to_client)
}

/// A running fault proxy. Factory: [`ChaosProxy::start`]; dropping the
/// handle shuts it down.
pub struct ChaosProxy {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    stats: Arc<ChaosStats>,
    conns: Arc<Mutex<Vec<TcpStream>>>,
    accept_thread: Option<JoinHandle<()>>,
    handler_threads: Arc<Mutex<Vec<JoinHandle<()>>>>,
}

impl ChaosProxy {
    /// Bind a localhost port and start proxying to `upstream` under `plan`.
    pub fn start(upstream: SocketAddr, plan: ChaosPlan) -> io::Result<Self> {
        let listener = TcpListener::bind("127.0.0.1:0")?;
        let addr = listener.local_addr()?;
        let stop = Arc::new(AtomicBool::new(false));
        let stats = Arc::new(ChaosStats::default());
        let conns = Arc::new(Mutex::new(Vec::new()));
        let handler_threads = Arc::new(Mutex::new(Vec::new()));
        let accept_thread = {
            let stop = Arc::clone(&stop);
            let stats = Arc::clone(&stats);
            let conns = Arc::clone(&conns);
            let handler_threads = Arc::clone(&handler_threads);
            std::thread::Builder::new().name("agsc-chaos-accept".into()).spawn(move || {
                accept_loop(listener, upstream, plan, stop, stats, conns, handler_threads)
            })?
        };
        Ok(Self { addr, stop, stats, conns, accept_thread: Some(accept_thread), handler_threads })
    }

    /// The proxy's listen address — point clients here instead of at the
    /// real server.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Current fault tallies.
    pub fn stats(&self) -> ChaosCounts {
        self.stats.snapshot()
    }

    /// Stop accepting, tear down every proxied connection, and join the
    /// worker threads.
    pub fn shutdown(mut self) {
        self.shutdown_inner();
    }

    fn shutdown_inner(&mut self) {
        if self.accept_thread.is_none() {
            return;
        }
        self.stop.store(true, Ordering::SeqCst);
        let _ = TcpStream::connect(self.addr);
        if let Some(t) = self.accept_thread.take() {
            let _ = t.join();
        }
        {
            let conns = self.conns.lock().unwrap_or_else(|e| e.into_inner());
            for c in conns.iter() {
                let _ = c.shutdown(Shutdown::Both);
            }
        }
        let handles: Vec<_> = {
            let mut g = self.handler_threads.lock().unwrap_or_else(|e| e.into_inner());
            g.drain(..).collect()
        };
        for t in handles {
            let _ = t.join();
        }
    }
}

impl Drop for ChaosProxy {
    fn drop(&mut self) {
        self.shutdown_inner();
    }
}

#[allow(clippy::too_many_arguments)]
fn accept_loop(
    listener: TcpListener,
    upstream: SocketAddr,
    plan: ChaosPlan,
    stop: Arc<AtomicBool>,
    stats: Arc<ChaosStats>,
    conns: Arc<Mutex<Vec<TcpStream>>>,
    handler_threads: Arc<Mutex<Vec<JoinHandle<()>>>>,
) {
    let mut index = 0u64;
    loop {
        let client = match listener.accept() {
            Ok((s, _)) => s,
            Err(_) => {
                if stop.load(Ordering::SeqCst) {
                    return;
                }
                continue;
            }
        };
        if stop.load(Ordering::SeqCst) {
            let _ = client.shutdown(Shutdown::Both);
            return;
        }
        let fate = plan.fate(index);
        index += 1;
        stats.record_fate(&fate);
        if let Ok(clone) = client.try_clone() {
            conns.lock().unwrap_or_else(|e| e.into_inner()).push(clone);
        }
        let conns2 = Arc::clone(&conns);
        let spawned = std::thread::Builder::new()
            .name("agsc-chaos-conn".into())
            .spawn(move || handle_connection(client, upstream, fate, conns2));
        if let Ok(handle) = spawned {
            handler_threads.lock().unwrap_or_else(|e| e.into_inner()).push(handle);
        }
    }
}

fn handle_connection(
    client: TcpStream,
    upstream_addr: SocketAddr,
    fate: ConnFate,
    conns: Arc<Mutex<Vec<TcpStream>>>,
) {
    let _ = setup_stream(&client);
    if fate == ConnFate::BlackHole {
        // Swallow everything, answer nothing, until the peer gives up or
        // the proxy shuts the socket down.
        let mut sink = client;
        let mut buf = [0u8; 512];
        loop {
            match sink.read(&mut buf) {
                Ok(0) | Err(_) => return,
                Ok(_) => {}
            }
        }
    }
    let upstream = match TcpStream::connect(upstream_addr) {
        Ok(s) => s,
        Err(_) => return,
    };
    let _ = setup_stream(&upstream);
    if let Ok(clone) = upstream.try_clone() {
        conns.lock().unwrap_or_else(|e| e.into_inner()).push(clone);
    }
    let (to_server, to_client) = direction_mods(fate);
    let pump_up = {
        let (from, to) = match (client.try_clone(), upstream.try_clone()) {
            (Ok(c), Ok(u)) => (c, u),
            _ => return,
        };
        std::thread::Builder::new()
            .name("agsc-chaos-pump".into())
            .spawn(move || pump(from, to, to_server))
    };
    // Responses flow on this thread; requests on the spawned pump.
    pump(upstream, client, to_client);
    if let Ok(handle) = pump_up {
        let _ = handle.join();
    }
}

/// Forward bytes from `from` to `to`, applying the direction's fault
/// modifiers. Exits when either side closes or a fault tears the stream.
fn pump(mut from: TcpStream, mut to: TcpStream, m: PumpMod) {
    let mut buf = [0u8; 512];
    let mut forwarded = 0usize;
    loop {
        let n = match from.read(&mut buf) {
            Ok(0) | Err(_) => break,
            Ok(n) => n,
        };
        if let Some(at) = m.corrupt_at {
            if forwarded <= at && at < forwarded + n {
                buf[at - forwarded] ^= 0x20;
            }
        }
        let mut emit = n;
        let mut tear: Option<Shutdown> = None;
        if let Some(after) = m.reset_after {
            if forwarded + n >= after {
                emit = after.saturating_sub(forwarded);
                tear = Some(Shutdown::Both);
            }
        }
        if tear.is_none() {
            if let Some(after) = m.truncate_after {
                if forwarded + n >= after {
                    emit = after.saturating_sub(forwarded);
                    tear = Some(Shutdown::Write);
                }
            }
        }
        if let Some(d) = m.delay {
            std::thread::sleep(d);
        }
        if emit > 0 {
            if to.write_all(&buf[..emit]).is_err() {
                break;
            }
            let _ = to.flush();
            forwarded += emit;
        }
        match tear {
            Some(Shutdown::Both) => {
                let _ = to.shutdown(Shutdown::Both);
                let _ = from.shutdown(Shutdown::Both);
                return;
            }
            Some(how) => {
                let _ = to.shutdown(how);
                return;
            }
            None => {}
        }
    }
    // Clean EOF: propagate the FIN so the peer's read completes.
    let _ = to.shutdown(Shutdown::Write);
}

#[cfg(test)]
mod tests {
    use super::*;

    fn chaotic_cfg(seed: u64) -> ChaosConfig {
        ChaosConfig {
            seed,
            blackhole_prob: 0.1,
            reset_prob: 0.2,
            truncate_prob: 0.2,
            corrupt_prob: 0.2,
            delay_prob: 0.2,
            delay: Duration::from_millis(1),
        }
    }

    #[test]
    fn fates_are_deterministic_in_the_seed() {
        let a = ChaosPlan::new(chaotic_cfg(7));
        let b = ChaosPlan::new(chaotic_cfg(7));
        for i in 0..64 {
            assert_eq!(a.fate(i), b.fate(i), "conn {i} fate must replay from the seed");
        }
    }

    #[test]
    fn different_seeds_draw_different_fate_sequences() {
        let a = ChaosPlan::new(chaotic_cfg(1));
        let b = ChaosPlan::new(chaotic_cfg(2));
        let diverges = (0..64).any(|i| a.fate(i) != b.fate(i));
        assert!(diverges, "64 draws from different seeds should not collide everywhere");
    }

    #[test]
    fn all_fault_kinds_appear_with_these_probabilities() {
        let plan = ChaosPlan::new(chaotic_cfg(42));
        let mut counts = ChaosCounts::default();
        for i in 0..512 {
            match plan.fate(i) {
                ConnFate::Clean => counts.clean += 1,
                ConnFate::Delay(_) => counts.delayed += 1,
                ConnFate::Reset { after, .. } => {
                    assert!((1..=48).contains(&after));
                    counts.resets += 1;
                }
                ConnFate::Truncate { after, .. } => {
                    assert!((1..=48).contains(&after));
                    counts.truncations += 1;
                }
                ConnFate::Corrupt { at, .. } => {
                    assert!((1..=48).contains(&at));
                    counts.corruptions += 1;
                }
                ConnFate::BlackHole => counts.blackholes += 1,
            }
        }
        for (name, n) in [
            ("clean", counts.clean),
            ("delayed", counts.delayed),
            ("resets", counts.resets),
            ("truncations", counts.truncations),
            ("corruptions", counts.corruptions),
            ("blackholes", counts.blackholes),
        ] {
            assert!(n > 0, "512 draws must include at least one {name} fate");
        }
    }

    #[test]
    fn clean_proxy_passes_bytes_through_unchanged() {
        // Echo server upstream; a clean plan must be invisible.
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let upstream_addr = listener.local_addr().unwrap();
        let echo = std::thread::spawn(move || {
            let (mut s, _) = listener.accept().unwrap();
            let mut buf = [0u8; 64];
            loop {
                match s.read(&mut buf) {
                    Ok(0) | Err(_) => return,
                    Ok(n) => {
                        if s.write_all(&buf[..n]).is_err() {
                            return;
                        }
                    }
                }
            }
        });
        let proxy = ChaosProxy::start(upstream_addr, ChaosPlan::new(ChaosConfig::none(3))).unwrap();
        let mut c = TcpStream::connect(proxy.addr()).unwrap();
        c.write_all(b"fault-free").unwrap();
        let mut back = [0u8; 10];
        c.read_exact(&mut back).unwrap();
        assert_eq!(&back, b"fault-free");
        assert_eq!(proxy.stats().clean, 1);
        drop(c);
        proxy.shutdown();
        echo.join().unwrap();
    }
}
