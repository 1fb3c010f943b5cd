//! # agsc-madrl — h/i-MADRL
//!
//! The paper's primary contribution (§V): a plug-in framework over any
//! multi-agent actor-critic base. [`trainer::HiMadrlTrainer`] implements
//! Algorithm 1 with IPPO as the exemplar base module (MAPPO is the
//! `centralized_critic` switch), plus the two plug-ins:
//!
//! * [`eoi::EoiClassifier`] — i-EOI intrinsic rewards from a self-supervised
//!   identity classifier (Eqns 19-21),
//! * [`copo::Lcf`] — h-CoPO cooperation-aware advantages over heterogeneous
//!   and homogeneous neighbour critics with meta-learned local coordination
//!   factors (Eqns 22-32).

#![warn(missing_docs)]

pub mod actors;
pub mod agent;
pub mod checkpoint;
pub mod config;
pub mod copo;
pub mod diagnostics;
pub mod eoi;
pub mod error;
pub mod eval;
pub mod gae;
pub mod maddpg;
pub mod parallel;
pub mod rollout;
pub mod trainer;

/// The network stack the actors and critics are built from.
pub use agsc_nn as nn;

pub use actors::{Actor, ActorRef, ActorSet, FleetShape, InferencePolicy, ACTION_DIM};
pub use agent::{
    BehaviourPolicy, CriticForward, CriticKind, CriticStats, LogProbGrads, PpoAgent, PpoStats,
};
pub use checkpoint::{remove_stale_tmp, Checkpoint, CheckpointStore, CHECKPOINT_VERSION};
pub use config::{Ablation, IntrinsicSchedule, TrainConfig};
pub use copo::Lcf;
pub use diagnostics::{
    Anomaly, AnomalyDetector, AnomalyKind, AnomalyThresholds, Diagnostics, DiagnosticsConfig,
};
pub use eoi::EoiClassifier;
pub use error::{CheckpointError, TrainError};
pub use eval::{evaluate, play_episode, Policy};
pub use gae::{gae, gae_segmented, normalize_advantages};
pub use maddpg::{Maddpg, MaddpgConfig};
pub use parallel::{parallel_map, parallel_try_map, resolve_workers, JobPanic};
pub use rollout::{NeighborKind, Rollout};
pub use trainer::{HiMadrlTrainer, IterationStats};
