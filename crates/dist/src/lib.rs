//! # agsc-dist — distributed actor–learner training
//!
//! Rollout-worker **processes** collect seeded env shards and stream
//! length-prefixed, optionally RLE-compressed rollout segments to a
//! learner over TCP; the learner reassembles them in env-index order,
//! updates through `train_iteration_from_rollouts`, and broadcasts the next
//! generation's actors back as a binary actor frame. A worker holds an
//! actor set — an actor-only `InferencePolicy` — and nothing else: no
//! critics, `V_all`, LCFs, classifier or optimiser state, the paper's
//! decentralised execution (§V). The FD-MAPPO-style many-collector/one-
//! learner shape, composed from pieces the workspace already has: the
//! shared wire framing and retry backoff from `agsc-serve`, the seeded
//! shard derivation from `agsc-env`, and the trainer split from
//! `agsc-madrl`.
//!
//! ## The determinism contract
//!
//! For a fixed `(total_shards, seed)`, distributed training reproduces
//! single-process `train_vec` with `num_envs = total_shards`
//! **bit-for-bit**, for any worker count, chunking, fault pattern, or
//! delivery order. The contract rests on three legs:
//!
//! 1. **Same RNG stream** — the learner draws exactly one `batch_seed`
//!    per generation ([`HiMadrlTrainer::next_batch_seed`]), the same
//!    single draw `collect_rollout_vec` makes; shard seeds derive from it
//!    via `derive_env_seed`/`derive_sampler_seed`, pure in the env index.
//! 2. **Pure shards** — a worker's one-env collection
//!    (`ActorSet::collect_one`, the collector `collect_rollout_indexed`
//!    runs) is a pure function of (actors, batch_seed, env_index); the
//!    actors travel as raw little-endian `f32` bits ([`actor_frame`]), so
//!    they round-trip bit-exactly by construction.
//! 3. **Deterministic reassembly** — the learner buffers segments in a
//!    `BTreeMap<env_index, _>` and concatenates in key order; lockstep
//!    generation barriers mean no worker ever collects generation `g`
//!    with generation `g+1` parameters.
//!
//! [`HiMadrlTrainer::next_batch_seed`]: agsc_madrl::HiMadrlTrainer::next_batch_seed
//!
//! ## Anatomy
//!
//! * [`proto`] — the wire messages (`Hello`/`Params`/`Work`/
//!   `SubmitSegment`/`Ack`/`Shutdown`) over the shared framing.
//! * [`actor_frame`] — the versioned binary actor frame `Params` carries.
//! * [`codec`] — the versioned binary rollout-segment codec and its
//!   zero-run RLE compression envelope.
//! * [`learner`] — the accept loop, per-worker handler threads, shard
//!   assignment/reassignment, and the generation barrier.
//! * [`worker`] — the collect-and-submit loop over the worker's actor
//!   set, with backoff reconnects and the chaos suite's desertion hook.
//! * [`setup`] — one shared world construction for every process in a
//!   fleet (bins, example, CI smoke).
//!
//! ## Quickstart
//!
//! ```no_run
//! use agsc_dist::{Learner, LearnerConfig, WorkerConfig, run_worker, setup};
//!
//! let addr = "127.0.0.1:0".parse().unwrap();
//! let env = setup::quickstart_env(42);
//! let trainer = setup::quickstart_trainer(&env, 3, 42).unwrap();
//! let mut learner = Learner::start(addr, trainer, LearnerConfig::default()).unwrap();
//! let worker_addr = learner.addr();
//! let worker = std::thread::spawn(move || {
//!     let env = setup::quickstart_env(42);
//!     run_worker(&env, &WorkerConfig::new(worker_addr, 1))
//! });
//! let stats = learner.train(3).unwrap();
//! println!("{} generations trained", stats.len());
//! let trainer = learner.shutdown();
//! worker.join().unwrap().unwrap();
//! println!("final iteration count: {}", trainer.iterations_done());
//! ```

#![warn(missing_docs)]

pub mod actor_frame;
pub mod codec;
pub mod error;
pub mod learner;
pub mod proto;
pub mod setup;
pub mod worker;

pub use codec::{decode_segment, encode_segment, Compression};
pub use error::DistError;
pub use learner::{Learner, LearnerConfig};
pub use proto::{LearnerMsg, WorkerMsg, PROTOCOL_VERSION};
pub use worker::{run_worker, WorkerConfig, WorkerExit};
