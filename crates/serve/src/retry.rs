//! Client-side retries: exponential backoff with decorrelated jitter,
//! capped per-try delays, and an overall deadline budget.
//!
//! [`RetryingClient`] wraps the plain [`Client`] with a reconnect-and-retry
//! loop for *transient* failures (broken or garbled streams, deadlines,
//! `Busy` admission refusals) and treats `Overloaded` backpressure as
//! retryable without tearing the connection down. Semantic failures
//! (`Server`, `Unexpected`) are never retried — repeating a request the
//! server understood and refused only repeats the refusal.
//!
//! Backoff is decorrelated jitter (`delay = min(cap, rand(base, 3·prev))`),
//! which spreads synchronized clients apart instead of letting them retry
//! in lockstep against a struggling server. The jitter stream is seeded,
//! so a failing run replays exactly.

use std::net::SocketAddr;
use std::time::{Duration, Instant};

use agsc_telemetry::{self as tlm, knobs};

use crate::client::{ActionOutcome, Client, ClientConfig, ClientError, ServerInfo, TracedOutcome};
use crate::protocol::TraceContext;

/// Retry tuning. [`Default`] is a modest 4-attempt policy; tests and the
/// load generator override per scenario.
#[derive(Debug, Clone, Copy)]
pub struct RetryPolicy {
    /// Total attempts, counting the first (minimum 1).
    pub max_attempts: u32,
    /// First backoff delay, and the floor of every jittered delay.
    pub base: Duration,
    /// Ceiling on any single backoff delay.
    pub cap: Duration,
    /// Overall wall-clock budget across all attempts and sleeps. `None`
    /// bounds the loop by `max_attempts` alone.
    pub budget: Option<Duration>,
    /// Seed of the jitter stream (replayable backoff sequences).
    pub seed: u64,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        Self {
            max_attempts: 4,
            base: Duration::from_millis(10),
            cap: Duration::from_millis(500),
            budget: None,
            seed: 0x5EED,
        }
    }
}

impl RetryPolicy {
    /// Build from the environment: `AGSC_RETRY_MAX_ATTEMPTS`,
    /// `AGSC_RETRY_BASE_MS`, `AGSC_RETRY_CAP_MS`, `AGSC_RETRY_BUDGET_MS`
    /// (0 or unset = unbounded), `AGSC_RETRY_SEED`. Unset or malformed
    /// values keep the defaults.
    pub fn from_env() -> Self {
        let d = Self::default();
        let ms = |name: &str, default: Duration| {
            Duration::from_millis(knobs::parse(name, default.as_millis() as u64))
        };
        Self {
            max_attempts: knobs::parse("AGSC_RETRY_MAX_ATTEMPTS", d.max_attempts).max(1),
            base: ms("AGSC_RETRY_BASE_MS", d.base),
            cap: ms("AGSC_RETRY_CAP_MS", d.cap),
            budget: knobs::millis("AGSC_RETRY_BUDGET_MS"),
            seed: knobs::parse("AGSC_RETRY_SEED", d.seed),
        }
    }
}

/// splitmix64 — the same tiny deterministic generator the rollout seed
/// derivation uses: seeded backoff jitter and chaos fates without a rand
/// dependency.
pub(crate) struct SplitMix {
    state: u64,
}

impl SplitMix {
    pub(crate) fn new(seed: u64) -> Self {
        Self { state: seed }
    }

    pub(crate) fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    pub(crate) fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// The decorrelated-jitter backoff sequence for one retry loop.
///
/// Public so other transports (the dist worker's reconnect loop) reuse the
/// exact schedule, and so the property suite can pin its bounds: every
/// delay lies in `[base, max(base, cap)]`, and equal seeds replay equal
/// schedules.
pub struct Backoff {
    base: Duration,
    cap: Duration,
    prev: Duration,
    rng: SplitMix,
}

impl Backoff {
    /// A fresh schedule drawn from `policy`'s base/cap/seed.
    pub fn new(policy: &RetryPolicy) -> Self {
        Self {
            base: policy.base,
            cap: policy.cap.max(policy.base),
            prev: policy.base,
            rng: SplitMix::new(policy.seed),
        }
    }

    /// Next delay: `min(cap, rand(base, 3·prev))`, never below `base`.
    pub fn next_delay(&mut self) -> Duration {
        let base = self.base.as_secs_f64();
        let hi = (self.prev.as_secs_f64() * 3.0).max(base);
        let jittered = base + (hi - base) * self.rng.next_f64();
        let delay = Duration::from_secs_f64(jittered).min(self.cap);
        self.prev = delay;
        delay
    }
}

/// The budget gate the retry loop applies before every sleep: sleeping
/// `delay` after `elapsed` of the operation's wall-clock must still land
/// strictly inside `budget` (a `None` budget always fits). Pure, so the
/// property suite can walk whole schedules against it and prove the total
/// sleep time never exceeds the budget.
pub fn delay_fits(elapsed: Duration, delay: Duration, budget: Option<Duration>) -> bool {
    budget.is_none_or(|b| elapsed + delay < b)
}

/// Cumulative tallies of one [`RetryingClient`]'s lifetime.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RetryStats {
    /// Operations requested by the caller.
    pub operations: u64,
    /// Extra attempts beyond each operation's first.
    pub retries: u64,
    /// Connections (re-)established after the first.
    pub reconnects: u64,
    /// Operations that exhausted attempts or budget.
    pub gave_up: u64,
    /// Attempts refused at admission with `Busy` (0xED) — the connection
    /// cap, not queue backpressure. Counted separately from `Overloaded`
    /// so a full accept plane and a full batch queue read differently.
    pub busy: u64,
}

/// A [`Client`] wrapped in connect-lazily, reconnect-on-failure retry
/// logic. One instance still serves one request at a time.
pub struct RetryingClient {
    addr: SocketAddr,
    config: ClientConfig,
    policy: RetryPolicy,
    conn: Option<Client>,
    ever_connected: bool,
    stats: RetryStats,
}

impl RetryingClient {
    /// Wrap `addr` with deadlines from `config` and retries from `policy`.
    /// No connection is made until the first operation.
    pub fn new(addr: SocketAddr, config: ClientConfig, policy: RetryPolicy) -> Self {
        let stats = RetryStats::default();
        Self { addr, config, policy, conn: None, ever_connected: false, stats }
    }

    /// Lifetime tallies (operations, retries, reconnects, give-ups).
    pub fn stats(&self) -> RetryStats {
        self.stats
    }

    /// Liveness check, with retries.
    pub fn ping(&mut self) -> Result<(), ClientError> {
        self.run(|c| c.ping().map(Some)).map(|_| ())
    }

    /// Server shape and generation, with retries.
    pub fn info(&mut self) -> Result<ServerInfo, ClientError> {
        self.run(|c| c.info().map(Some))
    }

    /// Greedy-action query, with retries. `Overloaded` answers are backed
    /// off and retried on the *same* connection (the server is healthy,
    /// just saturated); if attempts run out while still overloaded, the
    /// caller gets `Ok(Overloaded)` — shed load, not an error.
    pub fn action(&mut self, agent: u32, obs: &[f32]) -> Result<ActionOutcome, ClientError> {
        match self.run(|c| match c.action(agent, obs)? {
            ActionOutcome::Action(a) => Ok(Some(ActionOutcome::Action(a))),
            ActionOutcome::Overloaded => Ok(None),
        }) {
            Ok(outcome) => Ok(outcome),
            Err(ClientError::Exhausted { attempts, last }) => match *last {
                // Every attempt was answered, every answer was Overloaded:
                // that is backpressure doing its job, not a failure.
                ClientError::Unexpected("overloaded") => Ok(ActionOutcome::Overloaded),
                other => Err(ClientError::Exhausted { attempts, last: Box::new(other) }),
            },
            Err(e) => Err(e),
        }
    }

    /// [`Self::action`] over the traced envelope: same retry semantics,
    /// plus stage timings echoed back and retries tagged with the trace id.
    pub fn action_traced(
        &mut self,
        trace: TraceContext,
        agent: u32,
        obs: &[f32],
    ) -> Result<TracedOutcome, ClientError> {
        match self.run_traced(Some(trace.trace_id), |c| {
            match c.action_traced(trace, agent, obs)? {
                TracedOutcome::Action { action, stages } => {
                    Ok(Some(TracedOutcome::Action { action, stages }))
                }
                TracedOutcome::Overloaded => Ok(None),
            }
        }) {
            Ok(outcome) => Ok(outcome),
            Err(ClientError::Exhausted { attempts, last }) => match *last {
                ClientError::Unexpected("overloaded") => Ok(TracedOutcome::Overloaded),
                other => Err(ClientError::Exhausted { attempts, last: Box::new(other) }),
            },
            Err(e) => Err(e),
        }
    }

    /// The retry loop. `op` returns `Ok(Some(v))` on success, `Ok(None)`
    /// for retryable backpressure (connection kept), `Err(transient)` for
    /// failures that reconnect, and `Err(other)` to abort immediately.
    fn run<T>(
        &mut self,
        op: impl FnMut(&mut Client) -> Result<Option<T>, ClientError>,
    ) -> Result<T, ClientError> {
        self.run_traced(None, op)
    }

    /// [`Self::run`] with an optional trace id: retries of a traced
    /// operation emit `client.retry` events tagged with the id, so a retry
    /// storm in the logs is attributable to the requests driving it.
    fn run_traced<T>(
        &mut self,
        trace_id: Option<u64>,
        mut op: impl FnMut(&mut Client) -> Result<Option<T>, ClientError>,
    ) -> Result<T, ClientError> {
        self.stats.operations += 1;
        let started = Instant::now();
        let mut backoff = Backoff::new(&self.policy);
        let max_attempts = self.policy.max_attempts.max(1);
        let mut attempts = 0u32;
        let mut last: Option<ClientError> = None;
        while attempts < max_attempts {
            if attempts > 0 {
                let delay = backoff.next_delay();
                if !delay_fits(started.elapsed(), delay, self.policy.budget) {
                    break;
                }
                std::thread::sleep(delay);
                tlm::counter_add("client.retries", 1);
                self.stats.retries += 1;
                if let Some(id) = trace_id {
                    tlm::emit_with(tlm::Level::Debug, "client.retry", |e| {
                        e.str("trace_id", format!("{id:016x}"))
                            .u64("attempt", attempts as u64 + 1)
                            .u64("delay_us", delay.as_micros().min(u64::MAX as u128) as u64)
                    });
                }
            }
            attempts += 1;
            let conn = match self.ensure_connected() {
                Ok(c) => c,
                Err(e) if e.is_transient() => {
                    self.count_busy(&e);
                    last = Some(e);
                    continue;
                }
                Err(e) => return Err(e),
            };
            match op(conn) {
                Ok(Some(v)) => return Ok(v),
                Ok(None) => last = Some(ClientError::Unexpected("overloaded")),
                Err(e) if e.is_transient() => {
                    self.count_busy(&e);
                    self.conn = None;
                    last = Some(e);
                }
                Err(e) => return Err(e),
            }
        }
        tlm::counter_add("client.gave_up", 1);
        self.stats.gave_up += 1;
        let last = last.unwrap_or(ClientError::Unexpected("no attempt was made"));
        Err(ClientError::Exhausted { attempts, last: Box::new(last) })
    }

    /// `Busy` admission refusals get their own tally (and counter), distinct
    /// from the queue's `Overloaded` backpressure.
    fn count_busy(&mut self, e: &ClientError) {
        if matches!(e, ClientError::Busy) {
            tlm::counter_add("client.busy_refused", 1);
            self.stats.busy += 1;
        }
    }

    fn ensure_connected(&mut self) -> Result<&mut Client, ClientError> {
        if self.conn.is_none() {
            let client = Client::connect_with(self.addr, &self.config)?;
            if self.ever_connected {
                tlm::counter_add("client.reconnects", 1);
                self.stats.reconnects += 1;
            }
            self.ever_connected = true;
            self.conn = Some(client);
        }
        Ok(self.conn.as_mut().expect("just ensured"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn policy(seed: u64) -> RetryPolicy {
        RetryPolicy {
            max_attempts: 8,
            base: Duration::from_millis(10),
            cap: Duration::from_millis(80),
            budget: None,
            seed,
        }
    }

    #[test]
    fn backoff_stays_within_base_and_cap_and_replays_from_its_seed() {
        let mut a = Backoff::new(&policy(11));
        let mut b = Backoff::new(&policy(11));
        for _ in 0..32 {
            let d = a.next_delay();
            assert!(d >= Duration::from_millis(10), "{d:?} below base");
            assert!(d <= Duration::from_millis(80), "{d:?} above cap");
            assert_eq!(d, b.next_delay(), "same seed must give the same schedule");
        }
        // The schedule itself is pinned, not just its purity.
        let mut c = Backoff::new(&policy(11));
        let head: Vec<u64> = (0..4).map(|_| c.next_delay().as_nanos() as u64).collect();
        assert_eq!(head, [16_324_888, 20_225_594, 42_333_933, 69_040_749]);
    }

    #[test]
    fn backoff_jitter_decorrelates_different_seeds() {
        let mut a = Backoff::new(&policy(1));
        let mut b = Backoff::new(&policy(2));
        let diverges = (0..16).any(|_| a.next_delay() != b.next_delay());
        assert!(diverges, "distinct seeds should not produce identical schedules");
    }

    #[test]
    fn refused_connections_exhaust_into_a_typed_error() {
        // Bind-then-drop: the port exists but nothing listens, so connects
        // are refused instantly and the loop runs all its attempts fast.
        let addr = {
            let l = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
            l.local_addr().unwrap()
        };
        let p = RetryPolicy {
            max_attempts: 3,
            base: Duration::from_millis(1),
            cap: Duration::from_millis(2),
            budget: None,
            seed: 9,
        };
        let mut client = RetryingClient::new(addr, ClientConfig::default(), p);
        match client.ping() {
            Err(ClientError::Exhausted { attempts: 3, last }) => {
                assert!(last.is_transient(), "refusal is transport-level: {last}")
            }
            other => panic!("expected Exhausted after 3 attempts, got {other:?}"),
        }
        let stats = client.stats();
        assert_eq!((stats.operations, stats.retries, stats.gave_up), (1, 2, 1));
        assert_eq!(stats.busy, 0, "connection refusals are not Busy admission refusals");
    }

    #[test]
    fn busy_refusals_are_tallied_apart_from_other_transients() {
        use crate::protocol::{read_frame, write_response, Response};

        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let server = std::thread::spawn(move || {
            // Answer every request on three successive connections with a
            // Busy admission refusal, as a capped server would.
            for _ in 0..3 {
                let (mut conn, _) = listener.accept().unwrap();
                let _ = read_frame(&mut conn);
                let _ = write_response(&mut conn, &Response::Busy);
            }
        });
        let p = RetryPolicy {
            max_attempts: 3,
            base: Duration::from_millis(1),
            cap: Duration::from_millis(2),
            budget: None,
            seed: 5,
        };
        let mut client = RetryingClient::new(addr, ClientConfig::default(), p);
        match client.ping() {
            Err(ClientError::Exhausted { attempts: 3, last }) => {
                assert!(matches!(*last, ClientError::Busy), "expected Busy, got {last}")
            }
            other => panic!("expected Exhausted-on-Busy, got {other:?}"),
        }
        let stats = client.stats();
        assert_eq!(stats.busy, 3, "every Busy refusal must land in the distinct tally");
        assert_eq!((stats.operations, stats.retries, stats.gave_up), (1, 2, 1));
        server.join().unwrap();
    }

    #[test]
    fn budget_cuts_the_loop_before_max_attempts() {
        let addr = {
            let l = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
            l.local_addr().unwrap()
        };
        let p = RetryPolicy {
            max_attempts: 1000,
            base: Duration::from_millis(20),
            cap: Duration::from_millis(20),
            budget: Some(Duration::from_millis(60)),
            seed: 1,
        };
        let started = Instant::now();
        let mut client = RetryingClient::new(addr, ClientConfig::default(), p);
        let err = client.ping().unwrap_err();
        assert!(matches!(err, ClientError::Exhausted { .. }), "{err}");
        assert!(
            started.elapsed() < Duration::from_secs(5),
            "a 60ms budget must not run anywhere near 1000 attempts"
        );
    }

    #[test]
    fn semantic_errors_are_not_transient() {
        assert!(!ClientError::Server("nope".into()).is_transient());
        assert!(!ClientError::Unexpected("wanted Pong").is_transient());
        assert!(ClientError::Busy.is_transient());
        assert!(ClientError::Timeout("read").is_transient());
    }
}
