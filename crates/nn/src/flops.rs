//! Thread-local FLOP and time accounting for the GEMM hot path.
//!
//! Every matrix product in [`crate::matrix::Matrix`] (`matmul`, `t_matmul`,
//! `matmul_t`) credits `2·m·n·k` floating-point operations — the textbook
//! multiply-add count for an `m×k · k×n` product. The charge is taken in
//! the `Matrix` wrappers *before* dispatching into [`crate::gemm`], so both
//! kernel paths (reference and tiled fast) charge identically and tiling
//! remainders can never double-charge — `tests/perf_observability.rs` pins
//! this per product. [`crate::mlp::Mlp`] forward and backward passes are
//! covered transitively: every layer bottoms out in one of the three hooks.
//! The `gemm_microbench` experiment uses this count as the numerator of its
//! ref-vs-fast GFLOP/s comparison.
//!
//! ## Design
//!
//! The hot-path cost must be nothing when telemetry is off and one
//! uncontended thread-local add when it is on, so the counter is a
//! per-thread [`Cell`] gated on `agsc_telemetry::is_enabled()` (one relaxed
//! atomic load — the same gate every span takes). Because nothing is
//! recorded when telemetry is off, the disabled counter is *exactly* zero —
//! the bit-identity contract extends to this module and is enforced by the
//! workspace `perf_observability` tests.
//!
//! The trainer's scoped worker threads (rollout shards and per-agent update
//! jobs) call [`flush_thread`] before they return, so the process-wide
//! [`total`] converges even though increments are thread-local;
//! single-threaded consumers can use [`take_thread`] directly for an exact
//! per-section delta.
//!
//! ## GEMM time
//!
//! Next to the FLOP count, each thread tallies the nanoseconds spent
//! inside `gemm::*` dispatch ([`GemmTimer`], taken around the kernel call
//! only, after the output allocation). It shares the FLOP tally's gate and
//! lifecycle: no clock is read and nothing is recorded while telemetry is
//! off, [`flush_thread`] folds both tallies into their process-wide totals,
//! and [`reset`] zeroes both. The trainer reports the iteration's delta of
//! [`total_ns`] as the `nn.gemm_ms` gauge, so GEMM time can be told apart
//! from allocation, gathers and elementwise work.

use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

use agsc_telemetry as tlm;

thread_local! {
    static LOCAL: Cell<u64> = const { Cell::new(0) };
    static LOCAL_NS: Cell<u64> = const { Cell::new(0) };
}

/// Process-wide FLOPs flushed from finished thread sections.
static GLOBAL: AtomicU64 = AtomicU64::new(0);

/// Process-wide GEMM nanoseconds flushed from finished thread sections.
static GLOBAL_NS: AtomicU64 = AtomicU64::new(0);

/// The FLOP count of an `m×k · k×n` dense matrix product.
#[inline]
pub const fn matmul_flops(m: usize, n: usize, k: usize) -> u64 {
    2 * (m as u64) * (n as u64) * (k as u64)
}

/// Credit `n` floating-point operations to the calling thread. Free (one
/// relaxed load) and recording nothing while telemetry is disabled.
#[inline]
pub fn add(n: u64) {
    if !tlm::is_enabled() {
        return;
    }
    LOCAL.with(|c| c.set(c.get() + n));
}

/// Times one GEMM dispatch into the calling thread's nanosecond tally.
/// Reads no clock and records nothing while telemetry is disabled.
#[must_use = "a GemmTimer records only when stopped"]
pub struct GemmTimer(Option<Instant>);

impl GemmTimer {
    /// Start timing (one relaxed load when telemetry is off).
    #[inline]
    pub fn start() -> Self {
        Self(tlm::is_enabled().then(Instant::now))
    }

    /// Credit the time since [`start`](Self::start) to the calling thread.
    #[inline]
    pub fn stop(self) {
        if let Some(t0) = self.0 {
            let ns = t0.elapsed().as_nanos() as u64;
            LOCAL_NS.with(|c| c.set(c.get() + ns));
        }
    }
}

/// Take and reset the calling thread's FLOP count.
pub fn take_thread() -> u64 {
    LOCAL.with(|c| c.replace(0))
}

/// Take and reset the calling thread's GEMM nanoseconds.
pub fn take_thread_ns() -> u64 {
    LOCAL_NS.with(|c| c.replace(0))
}

/// Fold the calling thread's FLOP and GEMM-time tallies into the
/// process-wide totals (and reset them). Worker threads call this before
/// they return.
pub fn flush_thread() {
    let n = take_thread();
    if n > 0 {
        GLOBAL.fetch_add(n, Ordering::Relaxed);
    }
    let ns = take_thread_ns();
    if ns > 0 {
        GLOBAL_NS.fetch_add(ns, Ordering::Relaxed);
    }
}

/// The process-wide total of flushed FLOPs. Only counts what threads have
/// [`flush_thread`]ed — the caller's own unflushed tally is *not* included.
pub fn total() -> u64 {
    GLOBAL.load(Ordering::Relaxed)
}

/// The process-wide total of flushed GEMM nanoseconds; like [`total`], it
/// excludes the caller's unflushed tally.
pub fn total_ns() -> u64 {
    GLOBAL_NS.load(Ordering::Relaxed)
}

/// Reset the process-wide totals *and* the calling thread's tallies (a
/// fresh measurement section).
pub fn reset() {
    LOCAL.with(|c| c.set(0));
    LOCAL_NS.with(|c| c.set(0));
    GLOBAL.store(0, Ordering::Relaxed);
    GLOBAL_NS.store(0, Ordering::Relaxed);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matmul_flops_is_2mnk() {
        assert_eq!(matmul_flops(2, 3, 4), 48);
        assert_eq!(matmul_flops(0, 5, 5), 0);
        assert_eq!(matmul_flops(1, 1, 1), 2);
    }

    #[test]
    fn add_is_inert_when_telemetry_disabled() {
        // Telemetry is off by default in unit tests; the counter must not
        // move (the bit-identity contract).
        take_thread();
        add(123);
        assert_eq!(take_thread(), 0, "disabled telemetry must record zero flops");
        take_thread_ns();
        let timer = GemmTimer::start();
        assert!(timer.0.is_none(), "disabled telemetry must not read the clock");
        timer.stop();
        assert_eq!(take_thread_ns(), 0, "disabled telemetry must record zero GEMM time");
    }

    #[test]
    fn flush_accumulates_into_total() {
        // This test manipulates thread-local + global state only; it never
        // enables global telemetry, so it drives LOCAL directly.
        reset();
        LOCAL.with(|c| c.set(7));
        LOCAL_NS.with(|c| c.set(70));
        flush_thread();
        LOCAL.with(|c| c.set(5));
        LOCAL_NS.with(|c| c.set(50));
        flush_thread();
        assert_eq!((total(), total_ns()), (12, 120));
        assert_eq!(take_thread(), 0, "flush must reset the thread tally");
        assert_eq!(take_thread_ns(), 0, "flush must reset the thread's GEMM time");
        reset();
        assert_eq!((total(), total_ns()), (0, 0));
    }
}
