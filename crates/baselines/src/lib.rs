//! # agsc-baselines — the five comparison methods of §VI-A
//!
//! * [`configs`] — `TrainConfig` presets for h/i-MADRL, h/i-MADRL(CoPO),
//!   MAPPO, and IPPO (all run on [`agsc_madrl::HiMadrlTrainer`]),
//! * [`e_divert::EDivert`] — CTDE actor-critic with prioritized replay and a
//!   GRU actor (the original's LSTM, substituted; DESIGN.md §5),
//! * [`shortest_path::ShortestPathPolicy`] — genetic-algorithm route
//!   planning over every PoI per UV, with roadmap-constrained UGV legs,
//! * [`random::RandomPolicy`] — uniform action sampling.

#![warn(missing_docs)]

pub mod configs;
pub mod e_divert;
pub mod random;
pub mod shortest_path;

pub use configs::{hi_madrl, hi_madrl_copo, ippo, mappo};
pub use e_divert::{EDivert, EDivertConfig};
pub use random::RandomPolicy;
pub use shortest_path::{evolve_order, GaConfig, ShortestPathPolicy};
