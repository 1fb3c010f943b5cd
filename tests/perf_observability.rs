//! Integration tests for the performance-observability layer: GEMM FLOP
//! and time accounting (exact when on, *exactly zero* when off — the
//! bit-identity contract), the per-thread self-profiler, build-info export, and the
//! bench trend ledger's regression verdicts.
//!
//! The telemetry handle (and the profiler and FLOP registries behind it)
//! is process-global, so every test serialises on one mutex and restores
//! the disabled state before releasing it.

mod common;

use std::sync::Mutex;

use agsc::datasets::presets;
use agsc::env::{AirGroundEnv, EnvConfig};
use agsc::madrl::{HiMadrlTrainer, TrainConfig};
use agsc::nn::flops;
use agsc::nn::{GemmKernel, Matrix};
use agsc::telemetry as tlm;
use common::{check, Rng};

static GLOBAL: Mutex<()> = Mutex::new(());

/// Shuts telemetry down, switches the profiler off, and zeroes the FLOP
/// registries when dropped, so even a test that panics leaves a clean
/// state for the next one.
struct ResetOnDrop;

impl Drop for ResetOnDrop {
    fn drop(&mut self) {
        tlm::shutdown();
        tlm::prof::set_enabled(false);
        flops::reset();
    }
}

/// Run `f` holding the global-telemetry lock, resetting the global state
/// afterwards (panic or not).
fn with_global<R>(f: impl FnOnce() -> R) -> R {
    let _lock = GLOBAL.lock().unwrap_or_else(|p| p.into_inner());
    let _reset = ResetOnDrop;
    f()
}

fn filled(rows: usize, cols: usize) -> Matrix {
    Matrix::from_vec(rows, cols, (0..rows * cols).map(|i| (i % 7 + 1) as f32 * 0.1).collect())
}

#[test]
fn flops_are_exactly_zero_when_telemetry_is_off() {
    with_global(|| {
        assert!(!tlm::is_enabled(), "tests start from the disabled state");
        flops::reset();
        let a = filled(8, 16);
        let b = filled(16, 4);
        let _ = a.matmul(&b);
        let _ = a.t_matmul(&a);
        let _ = a.matmul_t(&a);
        assert_eq!(flops::take_thread(), 0, "disabled runs must record zero flops");
        assert_eq!(flops::take_thread_ns(), 0, "disabled runs must record zero GEMM time");
        flops::flush_thread();
        assert_eq!(flops::total(), 0, "nothing may reach the process-wide total either");
        assert_eq!(flops::total_ns(), 0, "nor the process-wide GEMM time");
    });
}

#[test]
fn an_iteration_publishes_its_gemm_time_only_when_telemetry_is_on() {
    let train = || {
        let env_cfg = EnvConfig { horizon: 10, ..EnvConfig::default() };
        let mut env = AirGroundEnv::new(env_cfg, &presets::purdue(3), 7);
        let cfg = TrainConfig { hidden: vec![16], policy_epochs: 1, ..TrainConfig::default() };
        HiMadrlTrainer::new(&env, cfg, 3, 7).unwrap().train_iteration(&mut env);
    };
    with_global(|| {
        flops::reset();
        train();
        flops::flush_thread();
        assert_eq!(flops::total_ns(), 0, "disabled runs must record zero GEMM time");

        tlm::install(vec![], tlm::Level::Info);
        train();
        let gauges = tlm::gauges_snapshot();
        let gemm_ms = gauges.iter().find(|(name, _)| *name == "nn.gemm_ms").map(|&(_, v)| v);
        assert!(gemm_ms.is_some_and(|ms| ms > 0.0), "nn.gemm_ms gauge: {gemm_ms:?}");
    });
}

#[test]
fn matmul_charges_exactly_2mnk_for_all_three_products() {
    with_global(|| {
        tlm::install(vec![], tlm::Level::Info);
        flops::reset();
        flops::take_thread();

        let a = filled(3, 4);
        let b = filled(4, 5);
        let _ = a.matmul(&b); // (3×4)·(4×5): m=3 n=5 k=4
        assert_eq!(flops::take_thread(), 2 * 3 * 5 * 4);

        let _ = a.t_matmul(&a); // aᵀ·a = (4×3)·(3×4): m=4 n=4 k=3
        assert_eq!(flops::take_thread(), 2 * 4 * 4 * 3);

        let _ = a.matmul_t(&a); // a·aᵀ = (3×4)·(4×3): m=3 n=3 k=4
        assert_eq!(flops::take_thread(), 2 * 3 * 3 * 4);
    });
}

#[test]
fn tiled_kernels_charge_exactly_2mnk_per_product_with_remainders() {
    use agsc::nn::gemm::{KC, MR, NR};
    with_global(|| {
        tlm::install(vec![], tlm::Level::Info);
        flops::reset();
        flops::take_thread();

        // Non-divisible everywhere: m % MR, n % NR, and k % KC all
        // nonzero, so every tile path (full tiles, row/column remainders,
        // and the short final KC stripe) runs. The charge is taken in the
        // Matrix wrappers before dispatch, so remainder tiles cannot
        // double-charge — and both kernels must bill identically.
        let (m, n, k) = (2 * MR + 3, NR + 5, KC + 13);
        let want = flops::matmul_flops(m, n, k);
        for kernel in [GemmKernel::Reference, GemmKernel::Fast] {
            let a = filled(m, k);
            let b = filled(k, n);
            let _ = a.matmul_with(&b, kernel);
            assert_eq!(flops::take_thread(), want, "matmul under {kernel:?}");

            let at = filled(k, m); // atᵀ·b is m×n over depth k
            let _ = at.t_matmul_with(&b, kernel);
            assert_eq!(flops::take_thread(), want, "t_matmul under {kernel:?}");

            let bt = filled(n, k); // a·btᵀ is m×n over depth k
            let _ = a.matmul_t_with(&bt, kernel);
            assert_eq!(flops::take_thread(), want, "matmul_t under {kernel:?}");
        }
    });
}

#[test]
fn iteration_flops_do_not_depend_on_the_worker_count() {
    // The update runs agents on the trainer's worker threads. Unless each
    // worker flushes its GEMM tally before it returns, the iteration's
    // `nn.flops` delta comes up short with more than one worker.
    let iteration_flops = |workers: usize| {
        with_global(|| {
            tlm::install(vec![], tlm::Level::Info);
            flops::reset();
            let env_cfg = EnvConfig { horizon: 10, ..EnvConfig::default() };
            let mut env = AirGroundEnv::new(env_cfg, &presets::purdue(3), 7);
            let cfg = TrainConfig {
                hidden: vec![16],
                policy_epochs: 2,
                lcf_epochs: 1,
                rollout_workers: workers,
                ..TrainConfig::default()
            };
            let mut t = HiMadrlTrainer::new(&env, cfg, 3, 7).unwrap();
            t.train_iteration(&mut env);
            let counters = tlm::counters_snapshot();
            counters.iter().find(|(name, _)| *name == "nn.flops").map_or(0, |&(_, n)| n)
        })
    };
    let serial = iteration_flops(1);
    assert!(serial > 0, "an iteration does GEMM work");
    assert_eq!(iteration_flops(2), serial, "worker threads must flush their FLOP tallies");
}

/// Splitting a batch into two row blocks charges exactly the same
/// total FLOPs as the fused product: the accounting is additive, so
/// per-shard flushes sum to the same figure a monolithic pass reports.
#[test]
fn flop_accounting_is_additive_across_split_batches() {
    check(32, |rng| {
        let (m1, m2) = (rng.gen_range(1usize..12), rng.gen_range(1usize..12));
        let (k, n) = (rng.gen_range(1usize..16), rng.gen_range(1usize..12));
        with_global(|| {
            tlm::install(vec![], tlm::Level::Info);
            flops::reset();
            flops::take_thread();

            let w = filled(k, n);
            let _ = filled(m1 + m2, k).matmul(&w);
            let fused = flops::take_thread();

            let _ = filled(m1, k).matmul(&w);
            let _ = filled(m2, k).matmul(&w);
            let split = flops::take_thread();

            assert_eq!(fused, split, "row-split batches must charge identically");
            assert_eq!(fused, flops::matmul_flops(m1 + m2, n, k));
        });
    });
}

#[test]
fn profiler_splits_inclusive_and_exclusive_time_per_thread() {
    with_global(|| {
        tlm::install(vec![], tlm::Level::Info);
        tlm::prof::set_enabled(true);
        {
            let _outer = tlm::span("outer");
            std::thread::sleep(std::time::Duration::from_millis(2));
            {
                let _inner = tlm::span("inner");
                std::thread::sleep(std::time::Duration::from_millis(2));
            }
        }
        let rows = tlm::prof::snapshot();
        let outer = rows.iter().find(|r| r.path == "outer").expect("outer recorded");
        let inner = rows.iter().find(|r| r.path == "outer/inner").expect("inner nested");
        assert_eq!(outer.calls, 1);
        assert_eq!(inner.calls, 1);
        assert!(outer.inclusive >= inner.inclusive, "parent includes child");
        assert_eq!(
            outer.exclusive,
            outer.inclusive - inner.inclusive,
            "exclusive = inclusive − direct children"
        );
        assert_eq!(inner.exclusive, inner.inclusive, "leaves have no children");
        assert_eq!(outer.thread, inner.thread, "same thread, same label");

        let folded = tlm::prof::folded();
        assert!(folded.contains(";outer "), "top-level folded frame: {folded}");
        assert!(folded.contains(";outer;inner "), "nested folded frame: {folded}");
        assert_eq!(folded.lines().count(), rows.len());

        let table = tlm::prof::report_table().expect("something was profiled");
        assert!(table.contains("outer/inner"), "{table}");
        assert!(table.contains("thread(s) profiled"), "{table}");
    });
}

#[test]
fn profiler_records_nothing_when_off_and_resets_on_install() {
    with_global(|| {
        tlm::install(vec![], tlm::Level::Info);
        assert!(!tlm::prof::is_enabled(), "profiler defaults to off");
        {
            let _s = tlm::span("unprofiled");
        }
        assert!(tlm::prof::snapshot().is_empty(), "off → no per-thread rows");
        assert_eq!(tlm::prof::folded(), "");
        assert!(tlm::prof::report_table().is_none());

        // Now profile something, then reinstall: the registry must reset.
        tlm::prof::set_enabled(true);
        {
            let _s = tlm::span("profiled");
        }
        assert!(!tlm::prof::snapshot().is_empty());
        tlm::install(vec![], tlm::Level::Info);
        assert!(tlm::prof::snapshot().is_empty(), "install starts a fresh run");
    });
}

#[test]
fn build_info_is_exported_when_enabled_and_absent_when_disabled() {
    with_global(|| {
        assert_eq!(tlm::export::prometheus_text(&[]), "", "disabled scrape stays empty");

        tlm::install(vec![], tlm::Level::Info);
        let scrape = tlm::export::prometheus_text(&[]);
        assert!(scrape.contains("agsc_build_info{"), "{scrape}");
        assert!(scrape.contains("version=\""), "{scrape}");
        assert!(scrape.contains("git_sha=\""), "{scrape}");
        assert!(scrape.contains("profile=\""), "{scrape}");

        let stats = tlm::export::stats_json(&[]);
        let v: serde_json::Value = serde_json::from_str(&stats).expect("stats_json is JSON");
        let build = v.get("build").expect("stats carry a build object");
        assert_eq!(
            build.get("version").and_then(|s| s.as_str()),
            Some(env!("CARGO_PKG_VERSION")),
            "workspace version matches"
        );
        assert!(build.get("git_sha").is_some());
        assert!(build.get("profile").is_some());
    });
}

#[test]
fn trend_ledger_flags_an_injected_slowdown_but_not_noise() {
    // Pure data-path test (no global telemetry): drive the ledger exactly
    // the way `bench trend` does, through append → load → analyze.
    use agsc_bench::ledger;
    use agsc_bench::{HarnessConfig, ResultPoint, TrendConfig, Verdict};

    let dir = std::env::temp_dir().join(format!("agsc-perf-obs-{}", std::process::id()));
    let path = dir.join("BENCH_history.jsonl");
    let h = HarnessConfig { iters: 1, eval_episodes: 1, seed: 9 };
    let point = |sps: f64| {
        ResultPoint::new("rollout_throughput", "purdue", "serial", &h, &Default::default(), 1.0)
            .with_samples_per_sec(sps)
    };

    // Five healthy runs with ±2% jitter, then a 2× slowdown.
    for sps in [1000.0, 1020.0, 985.0, 1010.0, 995.0] {
        ledger::append_history(&[point(sps)], &path).unwrap();
    }
    let healthy = ledger::analyze(&ledger::load_history(&path).unwrap(), &TrendConfig::default());
    assert!(
        healthy.iter().all(|r| r.verdict == Verdict::Steady),
        "jitter inside the noise band must stay quiet: {healthy:?}"
    );

    ledger::append_history(&[point(500.0)], &path).unwrap();
    let rows = ledger::analyze(&ledger::load_history(&path).unwrap(), &TrendConfig::default());
    assert!(
        rows.iter().any(|r| r.metric == "samples_per_sec" && r.verdict == Verdict::Regressed),
        "a 2× slowdown must be flagged: {rows:?}"
    );
    assert!(ledger::has_regression(&rows));
    std::fs::remove_dir_all(&dir).ok();
}
