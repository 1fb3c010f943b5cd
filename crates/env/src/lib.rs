//! # agsc-env — the air-ground spatial-crowdsourcing Dec-POMDP
//!
//! Implements §III-IV of the paper: UAV free flight / UGV roadmap-constrained
//! movement with speed-proportional energy (Eqn 1), AG-NOMA data collection
//! with subchannel pairing and co-channel interference (Definitions 1-2),
//! blind-range local observations (§IV-B1), the per-UV extrinsic reward
//! (Eqn 17), and the five task metrics ψ σ ξ κ λ (Eqns 12-16).

#![warn(missing_docs)]

pub mod collect;
pub mod config;
pub mod env;
pub mod error;
pub mod faults;
pub mod metrics;
pub mod obs;
pub mod render;
pub mod shard;
pub mod types;
pub mod vec_env;

pub use collect::{
    run_collection, run_collection_masked, CollectionMask, ScheduledEvent, SlotCollection,
};
pub use config::EnvConfig;
pub use env::{AirGroundEnv, StepResult};
pub use error::EnvError;
pub use faults::{FaultConfig, FaultInjector, FaultPlan};
pub use metrics::{MetricInputs, Metrics};
pub use obs::{global_state, local_observation, obs_dim};
pub use render::{render_ascii, trajectories_csv};
pub use shard::{shard_owner, shard_ranges, shard_size};
pub use types::{UvAction, UvKind, UvState};
pub use vec_env::{derive_env_seed, derive_sampler_seed, VecEnv};
