//! # agsc-nn — minimal CPU neural-network stack
//!
//! The training substrate for the h/i-MADRL reproduction (see the workspace
//! `DESIGN.md`). The paper trained small fully-connected networks with
//! PyTorch; this crate provides exactly the pieces those networks need, with
//! hand-derived backward passes and no external tensor dependency:
//!
//! * [`matrix::Matrix`] — dense row-major `f32` matrices,
//! * [`gemm`] — dual-path GEMM kernels (naive reference vs. blocked tiled
//!   fast path, bit-identical, selected by `AGSC_GEMM=ref|fast`),
//! * [`linear::Linear`] / [`mlp::Mlp`] — fully-connected layers and networks,
//! * [`gru::GruCell`] — gated recurrence for the e-Divert baseline,
//! * [`dist::DiagGaussian`] — the continuous-action policy head,
//! * [`optim::Adam`] / [`optim::Sgd`] — optimisers,
//! * [`flops`] — thread-local GEMM FLOP accounting (free when telemetry is off),
//! * [`loss`] — MSE, softmax cross-entropy, entropy regulariser,
//! * [`stats::RunningStat`] — Welford normalisation (MAPPO value-norm trick).
//!
//! Everything takes an explicit RNG so experiments are reproducible from a
//! single seed.

#![warn(missing_docs)]
#![allow(clippy::needless_range_loop)]

pub mod activation;
pub mod dist;
pub mod flops;
pub mod gemm;
pub mod gru;
pub mod init;
mod lanes;
pub mod linear;
pub mod loss;
pub mod matrix;
pub mod mlp;
pub mod optim;
pub mod param;
pub mod stats;

pub use activation::Activation;
pub use dist::DiagGaussian;
pub use gemm::GemmKernel;
pub use gru::GruCell;
pub use init::Init;
pub use linear::Linear;
pub use matrix::Matrix;
pub use mlp::Mlp;
pub use optim::{Adam, Sgd};
pub use param::Param;
pub use stats::RunningStat;
