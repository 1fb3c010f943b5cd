//! The learner: accepts worker connections, farms out shard assignments,
//! reassembles rollout segments in env-index order, and updates through
//! `train_iteration_from_rollouts` — bit-identically to single-process
//! `train_vec`.
//!
//! ## Determinism contract
//!
//! A generation is one training iteration. The learner draws exactly one
//! `batch_seed` from the trainer RNG (the same single draw
//! `collect_rollout_vec` makes), broadcasts (parameters, batch_seed), and
//! waits for every shard `0..total_shards`. Because each worker's
//! `collect_rollout_indexed` is a pure function of (parameters,
//! batch_seed, env_index), and segments are reassembled in a
//! `BTreeMap<env_index, _>` (iteration order = env order), which worker
//! collected which shard — and how shards were chunked, reassigned after
//! faults, or delivered twice — cannot change the update. Generations are
//! lockstep barriers: no worker holds generation `g+1` parameters while
//! another still collects `g`.
//!
//! ## Fault handling
//!
//! Each connection gets a handler thread. When a worker dies mid-claim,
//! its handler requeues every index it had claimed but not yet received,
//! so surviving (or reconnecting) workers pick the shards up
//! (`dist.reassigned_shards`). If nothing delivers the missing shards
//! before the generation deadline, [`Learner::train_generation`] fails
//! with the typed [`DistError::GenerationStalled`] naming every missing
//! index — a stall is loud, never a hang, and lost samples are named,
//! never silent.

use std::collections::{BTreeMap, VecDeque};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

use agsc_env::Metrics;
use agsc_madrl::{HiMadrlTrainer, IterationStats, Rollout};
use agsc_serve::wire::{setup_stream, write_frame_capped};
use agsc_telemetry::{self as tlm, knobs};

use crate::codec::decode_segment;
use crate::error::DistError;
use crate::proto::{
    max_frame_bytes, params_payload, read_worker_msg, required, write_learner_msg, LearnerMsg,
    WorkerMsg, PROTOCOL_VERSION,
};

/// Learner-side tuning.
#[derive(Debug, Clone)]
pub struct LearnerConfig {
    /// Total env replicas per generation — the distributed analogue of
    /// `num_envs`, and the shard-index space `0..total_shards`.
    pub total_shards: usize,
    /// Max shard indices per `Work` assignment. Small chunks load-balance
    /// across unequal workers; `1` is finest-grained.
    pub chunk: usize,
    /// How long one generation may take before it fails typed with
    /// [`DistError::GenerationStalled`].
    pub generation_timeout: Duration,
    /// Frame-payload ceiling for reads and writes.
    pub max_frame_bytes: usize,
}

impl Default for LearnerConfig {
    fn default() -> Self {
        Self {
            total_shards: 4,
            chunk: 1,
            generation_timeout: Duration::from_secs(120),
            max_frame_bytes: max_frame_bytes(),
        }
    }
}

impl LearnerConfig {
    /// Read `AGSC_DIST_SHARDS`, `AGSC_DIST_CHUNK`,
    /// `AGSC_DIST_GEN_TIMEOUT_MS`, and `AGSC_DIST_MAX_FRAME_MB`; unset or
    /// malformed values keep the defaults.
    pub fn from_env() -> Self {
        let d = Self::default();
        Self {
            total_shards: knobs::parse("AGSC_DIST_SHARDS", d.total_shards).max(1),
            chunk: knobs::parse("AGSC_DIST_CHUNK", d.chunk).max(1),
            generation_timeout: Duration::from_millis(knobs::parse(
                "AGSC_DIST_GEN_TIMEOUT_MS",
                d.generation_timeout.as_millis() as u64,
            )),
            ..d
        }
    }
}

/// Shared state between the learner's driving thread and the per-worker
/// handler threads. One mutex + condvar: generations are infrequent and
/// segments are large, so contention is negligible next to the episode
/// work behind each message.
struct LearnerState {
    /// Current generation; `0` means idle (nothing broadcast yet).
    generation: u64,
    /// The generation's single trainer-RNG draw.
    batch_seed: u64,
    /// The generation's whole `Params` frame payload, encoded once and
    /// sent as-is to every worker.
    params: Arc<[u8]>,
    /// Unassigned shard indices of the current generation.
    pending: VecDeque<u32>,
    /// Reassembly buffer, keyed by env index — iteration order is env
    /// order, which is what makes reassembly deterministic.
    received: BTreeMap<u32, (Rollout, Metrics)>,
    /// Shards expected per generation.
    expected: usize,
    /// Set once by [`Learner::shutdown`]; handlers drain and exit.
    shutdown: bool,
    /// Connected handler threads (exported as the `dist.workers` gauge).
    workers: usize,
    /// Shards requeued after a worker fault.
    reassigned: u64,
}

struct Shared {
    state: Mutex<LearnerState>,
    cv: Condvar,
    cap: usize,
    chunk: usize,
    /// The trainer's `(num_agents, obs_dim)`, which every segment must fit.
    fleet: (usize, usize),
}

/// The learner half of distributed training. Owns the trainer; handler
/// threads own the sockets.
pub struct Learner {
    trainer: HiMadrlTrainer,
    shared: Arc<Shared>,
    addr: SocketAddr,
    cfg: LearnerConfig,
    accept_thread: Option<std::thread::JoinHandle<()>>,
    handlers: Arc<Mutex<Vec<std::thread::JoinHandle<()>>>>,
}

impl Learner {
    /// Bind `addr` and start accepting workers. `trainer` must be seeded
    /// exactly as the single-process reference run would be — the learner
    /// takes over its RNG stream from here.
    pub fn start(
        addr: SocketAddr,
        trainer: HiMadrlTrainer,
        cfg: LearnerConfig,
    ) -> Result<Self, DistError> {
        let listener = TcpListener::bind(addr)?;
        let addr = listener.local_addr()?;
        let shared = Arc::new(Shared {
            state: Mutex::new(LearnerState {
                generation: 0,
                batch_seed: 0,
                params: Arc::from(Vec::new()),
                pending: VecDeque::new(),
                received: BTreeMap::new(),
                expected: cfg.total_shards,
                shutdown: false,
                workers: 0,
                reassigned: 0,
            }),
            cv: Condvar::new(),
            cap: cfg.max_frame_bytes,
            chunk: cfg.chunk,
            fleet: (trainer.num_agents(), trainer.obs_dim()),
        });
        let handlers = Arc::new(Mutex::new(Vec::new()));
        let accept_shared = Arc::clone(&shared);
        let accept_handlers = Arc::clone(&handlers);
        let accept_thread = std::thread::Builder::new()
            .name("dist-accept".into())
            .spawn(move || {
                for conn in listener.incoming() {
                    if accept_shared.state.lock().expect("dist state poisoned").shutdown {
                        break;
                    }
                    let Ok(stream) = conn else { continue };
                    let conn_shared = Arc::clone(&accept_shared);
                    let handle = std::thread::Builder::new()
                        .name("dist-worker-conn".into())
                        .spawn(move || {
                            if let Err(e) = handle_worker(stream, &conn_shared) {
                                tlm::warn("dist_worker_conn_error", |ev| ev.msg(e.to_string()));
                            }
                        })
                        .expect("spawn dist handler");
                    accept_handlers.lock().expect("handler list poisoned").push(handle);
                }
            })
            .expect("spawn dist accept thread");
        Ok(Self { trainer, shared, addr, cfg, accept_thread: Some(accept_thread), handlers })
    }

    /// The bound address (useful with port 0).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Run one distributed generation: draw the batch seed, broadcast
    /// parameters, wait for all shards, update. Bit-identical to one
    /// `train_iteration_vec` on `num_envs = total_shards`.
    pub fn train_generation(&mut self) -> Result<IterationStats, DistError> {
        let _span = tlm::span("dist_generation");
        let started = Instant::now();
        let batch_seed = self.trainer.next_batch_seed();
        // Only this thread advances the generation, so it can encode the
        // next one's parameters outside the lock.
        let generation = self.shared.state.lock().expect("dist state poisoned").generation + 1;
        let params = {
            let _span = tlm::span("dist_params_encode");
            let t = &self.trainer;
            Arc::from(params_payload(generation, &t.actor_set(), t.iterations_done()))
        };
        {
            let mut st = self.shared.state.lock().expect("dist state poisoned");
            st.generation = generation;
            st.batch_seed = batch_seed;
            st.params = params;
            st.pending = (0..st.expected as u32).collect();
            st.received.clear();
            self.shared.cv.notify_all();
        }
        tlm::gauge_set("dist.generation", generation as f64);
        let deadline = started + self.cfg.generation_timeout;
        let mut st = self.shared.state.lock().expect("dist state poisoned");
        while st.received.len() < st.expected {
            let now = Instant::now();
            if now >= deadline {
                let missing: Vec<u32> =
                    (0..st.expected as u32).filter(|i| !st.received.contains_key(i)).collect();
                // Freeze assignment of the failed generation so stragglers
                // cannot be handed stale work after we return.
                st.pending.clear();
                return Err(DistError::GenerationStalled { generation, missing });
            }
            let (guard, _timeout) =
                self.shared.cv.wait_timeout(st, deadline - now).expect("dist state poisoned");
            st = guard;
        }
        let taken = std::mem::take(&mut st.received);
        drop(st);
        // BTreeMap iteration is ascending env-index order: rollouts and
        // metrics line up exactly with `VecEnv` replica order.
        let mut rollouts = Vec::with_capacity(taken.len());
        let mut metrics = Vec::with_capacity(taken.len());
        for (_, (rollout, m)) in taken {
            rollouts.push(rollout);
            metrics.push(m);
        }
        let train_metrics = Metrics::mean(&metrics);
        tlm::gauge_set("dist.generation_lag", 0.0);
        tlm::histogram_record("dist.generation_wall_ms", started.elapsed().as_secs_f64() * 1e3);
        Ok(self.trainer.train_iteration_from_rollouts(rollouts, train_metrics))
    }

    /// Run `iterations` generations back to back.
    pub fn train(&mut self, iterations: usize) -> Result<Vec<IterationStats>, DistError> {
        (0..iterations).map(|_| self.train_generation()).collect()
    }

    /// Read-only access to the trainer (checkpointing, inspection).
    pub fn trainer(&self) -> &HiMadrlTrainer {
        &self.trainer
    }

    /// Tell every worker to exit, stop accepting, join all threads, and
    /// hand the trainer back.
    pub fn shutdown(mut self) -> HiMadrlTrainer {
        {
            let mut st = self.shared.state.lock().expect("dist state poisoned");
            st.shutdown = true;
            self.shared.cv.notify_all();
        }
        // Poke the accept loop out of its blocking accept.
        let _ = TcpStream::connect(self.addr);
        if let Some(t) = self.accept_thread.take() {
            let _ = t.join();
        }
        let handles = std::mem::take(&mut *self.handlers.lock().expect("handler list poisoned"));
        for h in handles {
            let _ = h.join();
        }
        self.trainer
    }
}

/// Claimed-but-unreceived indices go back to `pending` when a worker
/// faults — but only if the generation they were claimed under is still
/// live; a stale requeue would poison the next generation's assignment.
fn requeue(shared: &Shared, generation: u64, indices: &[u32]) {
    if indices.is_empty() {
        return;
    }
    let mut st = shared.state.lock().expect("dist state poisoned");
    if st.generation == generation {
        for &i in indices {
            if !st.received.contains_key(&i) && !st.pending.contains(&i) {
                st.pending.push_back(i);
                st.reassigned += 1;
                tlm::counter_add("dist.reassigned_shards", 1);
            }
        }
        shared.cv.notify_all();
    }
}

/// What the handler's wait loop decided to do next.
enum Next {
    /// Broadcast this `Params` payload, then come back for work.
    Params { generation: u64, payload: Arc<[u8]> },
    /// Collect these indices under the already-sent generation.
    Work { generation: u64, batch_seed: u64, indices: Vec<u32> },
    /// Training is over.
    Shutdown,
}

fn handle_worker(mut stream: TcpStream, shared: &Shared) -> Result<(), DistError> {
    let _ = setup_stream(&stream);
    // Handshake first, before counting the worker as connected.
    let worker_id = match read_worker_msg(&mut stream, shared.cap)? {
        Some(WorkerMsg::Hello { version, worker_id }) if version == PROTOCOL_VERSION => worker_id,
        Some(WorkerMsg::Hello { version, .. }) => {
            let msg = format!("protocol version {version}, learner speaks {PROTOCOL_VERSION}");
            let _ =
                write_learner_msg(&mut stream, &LearnerMsg::Error { msg: msg.clone() }, shared.cap);
            return Err(DistError::Protocol(msg));
        }
        Some(_) => return Err(DistError::Protocol("expected Hello first".into())),
        None => return Ok(()), // probe connection (e.g. the shutdown poke)
    };
    write_learner_msg(&mut stream, &LearnerMsg::HelloOk { version: PROTOCOL_VERSION }, shared.cap)?;
    {
        let mut st = shared.state.lock().expect("dist state poisoned");
        st.workers += 1;
        tlm::gauge_set("dist.workers", st.workers as f64);
    }
    tlm::counter_add("dist.worker_connects", 1);
    tlm::emit_with(tlm::Level::Info, "dist_worker_connected", |e| e.u64("worker_id", worker_id));
    let result = worker_session(&mut stream, shared);
    {
        let mut st = shared.state.lock().expect("dist state poisoned");
        st.workers -= 1;
        tlm::gauge_set("dist.workers", st.workers as f64);
    }
    result
}

fn worker_session(stream: &mut TcpStream, shared: &Shared) -> Result<(), DistError> {
    let mut sent_gen = 0u64;
    loop {
        let next = {
            let mut st = shared.state.lock().expect("dist state poisoned");
            loop {
                if st.shutdown {
                    break Next::Shutdown;
                }
                if st.generation > 0 && st.generation != sent_gen {
                    let payload = Arc::clone(&st.params);
                    break Next::Params { generation: st.generation, payload };
                }
                if st.generation == sent_gen && !st.pending.is_empty() {
                    let n = shared.chunk.min(st.pending.len());
                    let indices: Vec<u32> = st.pending.drain(..n).collect();
                    break Next::Work { generation: sent_gen, batch_seed: st.batch_seed, indices };
                }
                st = shared.cv.wait(st).expect("dist state poisoned");
            }
        };
        match next {
            Next::Shutdown => {
                let _ = write_learner_msg(stream, &LearnerMsg::Shutdown, shared.cap);
                return Ok(());
            }
            Next::Params { generation, payload } => {
                write_frame_capped(stream, &payload, shared.cap)?;
                tlm::counter_add("dist.params_tx", 1);
                tlm::counter_add("dist.params_bytes_tx", payload.len() as u64);
                sent_gen = generation;
            }
            Next::Work { generation, batch_seed, indices } => {
                if let Err(e) = run_assignment(stream, shared, generation, batch_seed, &indices) {
                    // The worker is gone or confused: put everything it
                    // still owed back up for grabs and drop the connection.
                    requeue(shared, generation, &indices);
                    return Err(e);
                }
            }
        }
    }
}

/// Send one `Work` assignment and ingest its segments. On success every
/// index in `indices` has been received and acked. On error the caller
/// requeues `indices` (already-received ones are filtered there by the
/// reassembly buffer).
fn run_assignment(
    stream: &mut TcpStream,
    shared: &Shared,
    generation: u64,
    batch_seed: u64,
    indices: &[u32],
) -> Result<(), DistError> {
    write_learner_msg(
        stream,
        &LearnerMsg::Work { generation, batch_seed, indices: indices.to_vec() },
        shared.cap,
    )?;
    for _ in 0..indices.len() {
        let msg = required(read_worker_msg(stream, shared.cap)?, "worker closed mid-assignment")?;
        let WorkerMsg::SubmitSegment { generation: g, env_index, metrics, segment } = msg else {
            return Err(DistError::Protocol("expected SubmitSegment".into()));
        };
        if g != generation || !indices.contains(&env_index) {
            return Err(DistError::Protocol(format!(
                "segment ({g}, {env_index}) outside assignment (gen {generation}, {indices:?})"
            )));
        }
        let bytes = segment.len() as u64;
        let rollout = decode_segment(&segment)?;
        // A segment the update cannot take is refused before the Ack, so
        // the caller requeues its shard. States share the observation
        // layout (§IV-B1).
        let (num_agents, obs_dim) = shared.fleet;
        rollout.check_shape(num_agents, obs_dim, obs_dim).map_err(|e| {
            DistError::ShapeMismatch(format!("segment ({generation}, {env_index}): {e}"))
        })?;
        write_learner_msg(stream, &LearnerMsg::Ack { generation, env_index }, shared.cap)?;
        let mut st = shared.state.lock().expect("dist state poisoned");
        if st.generation == generation {
            // Duplicate deliveries (a reassigned shard whose original
            // submit raced the fault) are byte-identical by purity, so
            // last-write-wins is safe.
            if st.received.insert(env_index, (rollout, metrics)).is_some() {
                tlm::counter_add("dist.duplicate_segments", 1);
            }
            let lag = st.expected.saturating_sub(st.received.len());
            tlm::gauge_set("dist.generation_lag", lag as f64);
            shared.cv.notify_all();
        }
        drop(st);
        tlm::counter_add("dist.segments_rx", 1);
        tlm::counter_add("dist.segment_bytes_rx", bytes);
        tlm::gauge_set("dist.segment_bytes_last", bytes as f64);
    }
    Ok(())
}
