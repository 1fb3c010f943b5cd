//! # agsc-bench — experiment harness for every table and figure
//!
//! Binaries under `src/bin/` regenerate each table/figure of the paper
//! (`cargo run --release -p agsc-bench --bin table6_ablation`); the bench
//! targets under `benches/` run the same functions through `cargo bench`.
//! Budgets come from `AGSC_ITERS` / `AGSC_EVAL_EPISODES` / `AGSC_SEED`.

#![warn(missing_docs)]

pub mod error;
pub mod experiments;
pub mod harness;
pub mod ledger;
pub mod output;
pub mod results;
pub mod table;

pub use error::BenchError;
pub use harness::{
    parallel_map, parallel_try_map, run_method, run_method_robust, HarnessConfig, JobPanic, Method,
};
pub use ledger::{HistoryEntry, TrendConfig, TrendRow, Verdict};
pub use output::ExperimentWriter;
pub use results::{bench_dir, BenchResults, ResultPoint};
