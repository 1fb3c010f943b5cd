//! # agsc-telemetry — structured telemetry for the h/i-MADRL stack
//!
//! Spans (RAII scoped timers with nesting), counters/gauges, structured
//! events with severity filtering, pluggable sinks (human-readable stderr,
//! JSONL files), run manifests, and an end-of-run span profile.
//!
//! ## Off by default, and free when off
//!
//! The global handle starts disabled. Every hot-path entry point
//! ([`span()`], [`emit_with`], [`counter_add`], [`gauge_set`]) gates on one
//! relaxed atomic load and returns before any locking, formatting, or
//! allocation. Instrumented code therefore runs bit-identically — and
//! unmeasurably slower — with telemetry unconfigured.
//!
//! ## Enabling
//!
//! * [`init_from_env`] — honours `AGSC_LOG` (severity: `off`, `error`,
//!   `warn`, `info`, `debug`) and `AGSC_TELEMETRY_DIR` (JSONL log
//!   directory); stays disabled when neither is set.
//! * [`init_run`] — the standard run setup for examples/binaries: a stderr
//!   sink plus a JSONL sink when `AGSC_TELEMETRY_DIR` is set.
//! * [`install`] — explicit sinks and severity, for tests and embedders.
//!
//! Every `AGSC_*` variable in the workspace, these included, is read
//! through [`knobs`].
//!
//! ```
//! use agsc_telemetry as tlm;
//! use std::sync::Arc;
//!
//! let mem = Arc::new(tlm::MemorySink::new());
//! tlm::install(vec![mem.clone()], tlm::Level::Info);
//! {
//!     let _outer = tlm::span("train_iteration");
//!     let _inner = tlm::span("ppo_epochs");
//! } // spans record on drop, keyed "train_iteration/ppo_epochs"
//! tlm::emit_with(tlm::Level::Info, "iteration", |e| e.u64("iter", 1).f64("lambda", 0.7));
//! assert_eq!(mem.events().len(), 1);
//! assert!(tlm::profile_table().unwrap().contains("train_iteration/ppo_epochs"));
//! tlm::shutdown();
//! ```
//!
//! ## Metric families
//!
//! Names are dot-separated, prefixed by subsystem: `train.*` (trainer
//! iteration stats, `train.samples_per_sec`), `serve.*` (request
//! counters, stage latencies, queue gauges — exported to Prometheus by
//! the admin plane), `checkpoint.*` (durable-store sweeps and
//! recoveries), `gemm.*` (FLOP accounting), and `dist.*` (the
//! distributed actor–learner fleet: `dist.segments_rx/tx` and byte
//! volumes, `dist.params_rx/tx`, `dist.workers`, `dist.generation` and
//! `dist.generation_lag`, `dist.generation_wall_ms`,
//! `dist.reassigned_shards` / `dist.duplicate_segments` /
//! `dist.worker_reconnects` / `dist.worker_deserted`, plus the
//! `dist_generation` and `dist_collect_segment` spans). Instrumented
//! crates own their family; this crate stays name-agnostic.

#![warn(missing_docs)]

pub mod buildinfo;
pub mod event;
pub mod export;
pub mod histogram;
pub mod knobs;
pub mod manifest;
pub mod prof;
pub mod sink;
pub mod span;
pub mod window;

pub use buildinfo::{build_info, BuildInfo};
pub use event::{Event, Level, Value};
pub use histogram::{quantile_sorted, Histogram, HistogramSummary};
pub use manifest::RunManifest;
pub use sink::{JsonlSink, MemorySink, Sink, StderrSink};
pub use span::{EnteredContext, Span, SpanContext, SpanStat};
pub use window::{WindowConfig, WindowSummary, WindowedCounter, WindowedHistogram};

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU8, Ordering};
use std::sync::{Arc, Mutex, RwLock};
use std::time::{Duration, Instant};

/// The one-load fast gate. Relaxed is enough: enabling/disabling telemetry
/// is not a synchronisation point for the data it observes.
static ENABLED: AtomicBool = AtomicBool::new(false);
static MIN_LEVEL: AtomicU8 = AtomicU8::new(Level::Info as u8);
static INNER: RwLock<Option<Inner>> = RwLock::new(None);

struct Inner {
    sinks: Vec<Arc<dyn Sink>>,
    spans: Mutex<BTreeMap<String, SpanStat>>,
    counters: Mutex<BTreeMap<&'static str, u64>>,
    gauges: Mutex<BTreeMap<&'static str, f64>>,
    histograms: Mutex<BTreeMap<&'static str, Histogram>>,
    /// Windowed mirrors of the counters/histograms above, keyed by the
    /// same names: rolling rates and rolling quantiles for the live
    /// observability plane. One extra mutex, touched only when enabled.
    window_counters: Mutex<BTreeMap<&'static str, WindowedCounter>>,
    window_histograms: Mutex<BTreeMap<&'static str, WindowedHistogram>>,
    window_cfg: WindowConfig,
    /// Time zero of the windowed registry; writes are bucketed by
    /// seconds elapsed since this instant.
    epoch: Instant,
}

impl Inner {
    fn new(sinks: Vec<Arc<dyn Sink>>, window_cfg: WindowConfig) -> Self {
        Self {
            sinks,
            spans: Mutex::new(BTreeMap::new()),
            counters: Mutex::new(BTreeMap::new()),
            gauges: Mutex::new(BTreeMap::new()),
            histograms: Mutex::new(BTreeMap::new()),
            window_counters: Mutex::new(BTreeMap::new()),
            window_histograms: Mutex::new(BTreeMap::new()),
            window_cfg,
            epoch: Instant::now(),
        }
    }

    fn now_secs(&self) -> u64 {
        self.epoch.elapsed().as_secs()
    }
}

fn read_inner() -> std::sync::RwLockReadGuard<'static, Option<Inner>> {
    INNER.read().unwrap_or_else(|p| p.into_inner())
}

/// Install `sinks` with severity filter `min_level` and enable telemetry.
/// Replaces any previous configuration and resets the span/counter/gauge
/// registries (a fresh run). The windowed registry takes its shape from
/// [`WindowConfig::from_env`]; use [`install_with_window`] to pin it.
pub fn install(sinks: Vec<Arc<dyn Sink>>, min_level: Level) {
    install_with_window(sinks, min_level, WindowConfig::from_env());
}

/// [`install`] with an explicit windowed-registry shape — for tests and
/// embedders that need deterministic window semantics.
pub fn install_with_window(sinks: Vec<Arc<dyn Sink>>, min_level: Level, window: WindowConfig) {
    let mut guard = INNER.write().unwrap_or_else(|p| p.into_inner());
    *guard = Some(Inner::new(sinks, window));
    prof::reset();
    MIN_LEVEL.store(min_level as u8, Ordering::Relaxed);
    ENABLED.store(true, Ordering::Relaxed);
}

/// Flush every sink, disable telemetry, and drop the configuration.
/// Subsequent instrumented calls are no-ops until the next [`install`].
pub fn shutdown() {
    ENABLED.store(false, Ordering::Relaxed);
    let mut guard = INNER.write().unwrap_or_else(|p| p.into_inner());
    if let Some(inner) = guard.as_ref() {
        for s in &inner.sinks {
            s.flush();
        }
    }
    *guard = None;
}

/// Whether telemetry is currently enabled.
pub fn is_enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// The current severity filter.
pub fn min_level() -> Level {
    Level::from_u8(MIN_LEVEL.load(Ordering::Relaxed))
}

/// Record `event` through every sink. No-op when disabled or below the
/// severity filter. Prefer [`emit_with`] on hot paths — it skips building
/// the event entirely when it would be dropped.
pub fn emit(event: Event) {
    if !is_enabled() || (event.level as u8) < MIN_LEVEL.load(Ordering::Relaxed) {
        return;
    }
    let guard = read_inner();
    if let Some(inner) = guard.as_ref() {
        for s in &inner.sinks {
            s.record(&event);
        }
    }
}

/// Build and record an event only when it would actually be kept: the
/// closure runs — and allocates — only past the enabled/severity gate.
pub fn emit_with(level: Level, kind: &'static str, build: impl FnOnce(Event) -> Event) {
    if !is_enabled() || (level as u8) < MIN_LEVEL.load(Ordering::Relaxed) {
        return;
    }
    emit(build(Event::new(level, kind)));
}

/// A warning that must reach a human even with telemetry disabled: routed
/// through the sinks when enabled, otherwise rendered to stderr directly.
/// (Warnings are rare by contract, so the fallback's allocation is fine.)
pub fn warn(kind: &'static str, build: impl FnOnce(Event) -> Event) {
    let event = build(Event::new(Level::Warn, kind));
    if is_enabled() {
        emit(event);
    } else {
        eprintln!("{}", event.to_line());
    }
}

/// Start a scoped timer named `name`. Returns an inert guard when disabled.
/// Nesting is tracked per thread: a span opened inside another records under
/// the path `outer/inner`.
#[must_use = "a span records when the guard drops; binding to _ drops immediately"]
pub fn span(name: &'static str) -> Span {
    if !is_enabled() {
        return Span::noop();
    }
    Span::enter(name)
}

/// The calling thread's open span path, for a worker thread it starts to
/// [`SpanContext::enter`] so the worker's spans nest where its work does.
/// Empty (and free) when disabled.
pub fn span_context() -> SpanContext {
    if !is_enabled() {
        return SpanContext::default();
    }
    SpanContext::capture()
}

/// Accumulate one completed span call (called from [`Span::drop`]).
pub(crate) fn record_span(path: String, elapsed: Duration) {
    prof::record(&path, elapsed);
    let guard = read_inner();
    if let Some(inner) = guard.as_ref() {
        let mut spans = inner.spans.lock().unwrap_or_else(|p| p.into_inner());
        let stat = spans.entry(path).or_default();
        stat.calls += 1;
        stat.total += elapsed;
    }
}

/// Add `delta` to the named monotonic counter (and its windowed mirror,
/// which turns it into a rolling rate). No-op when disabled.
pub fn counter_add(name: &'static str, delta: u64) {
    if !is_enabled() {
        return;
    }
    let guard = read_inner();
    if let Some(inner) = guard.as_ref() {
        {
            let mut counters = inner.counters.lock().unwrap_or_else(|p| p.into_inner());
            *counters.entry(name).or_insert(0) += delta;
        }
        let now = inner.now_secs();
        let mut windows = inner.window_counters.lock().unwrap_or_else(|p| p.into_inner());
        windows
            .entry(name)
            .or_insert_with(|| WindowedCounter::new(inner.window_cfg))
            .add(now, delta);
    }
}

/// Set the named gauge to `value`. No-op when disabled.
pub fn gauge_set(name: &'static str, value: f64) {
    if !is_enabled() {
        return;
    }
    let guard = read_inner();
    if let Some(inner) = guard.as_ref() {
        let mut gauges = inner.gauges.lock().unwrap_or_else(|p| p.into_inner());
        gauges.insert(name, value);
    }
}

/// Record `value` into the named bounded histogram (created on first use
/// with [`histogram::DEFAULT_CAPACITY`]) and its windowed mirror, which
/// yields rolling p50/p95/p99. No-op when disabled.
pub fn histogram_record(name: &'static str, value: f64) {
    if !is_enabled() {
        return;
    }
    let guard = read_inner();
    if let Some(inner) = guard.as_ref() {
        {
            let mut hists = inner.histograms.lock().unwrap_or_else(|p| p.into_inner());
            hists.entry(name).or_default().record(value);
        }
        let now = inner.now_secs();
        let mut windows = inner.window_histograms.lock().unwrap_or_else(|p| p.into_inner());
        windows
            .entry(name)
            .or_insert_with(|| WindowedHistogram::new(inner.window_cfg))
            .record(now, value);
    }
}

/// Snapshot of every span path and its accumulated statistics
/// (alphabetical; see [`profile_table`] for the ranked view).
pub fn spans_snapshot() -> Vec<(String, SpanStat)> {
    let guard = read_inner();
    match guard.as_ref() {
        Some(inner) => {
            let spans = inner.spans.lock().unwrap_or_else(|p| p.into_inner());
            spans.iter().map(|(k, v)| (k.clone(), *v)).collect()
        }
        None => Vec::new(),
    }
}

/// Snapshot of every counter.
pub fn counters_snapshot() -> Vec<(&'static str, u64)> {
    let guard = read_inner();
    match guard.as_ref() {
        Some(inner) => {
            let counters = inner.counters.lock().unwrap_or_else(|p| p.into_inner());
            counters.iter().map(|(&k, &v)| (k, v)).collect()
        }
        None => Vec::new(),
    }
}

/// Snapshot of every gauge.
pub fn gauges_snapshot() -> Vec<(&'static str, f64)> {
    let guard = read_inner();
    match guard.as_ref() {
        Some(inner) => {
            let gauges = inner.gauges.lock().unwrap_or_else(|p| p.into_inner());
            gauges.iter().map(|(&k, &v)| (k, v)).collect()
        }
        None => Vec::new(),
    }
}

/// Snapshot of every histogram as summary statistics.
pub fn histograms_snapshot() -> Vec<(&'static str, HistogramSummary)> {
    let guard = read_inner();
    match guard.as_ref() {
        Some(inner) => {
            let hists = inner.histograms.lock().unwrap_or_else(|p| p.into_inner());
            hists.iter().map(|(&k, v)| (k, v.summary())).collect()
        }
        None => Vec::new(),
    }
}

/// The shape of the windowed registry currently installed, or the default
/// shape when telemetry is disabled.
pub fn window_config() -> WindowConfig {
    let guard = read_inner();
    match guard.as_ref() {
        Some(inner) => inner.window_cfg,
        None => WindowConfig::default(),
    }
}

/// Snapshot of every windowed counter as `(name, window_total,
/// rate_per_sec)` — events inside the rolling window and the rolling rate.
pub fn window_counters_snapshot() -> Vec<(&'static str, u64, f64)> {
    let guard = read_inner();
    match guard.as_ref() {
        Some(inner) => {
            let now = inner.now_secs();
            let windows = inner.window_counters.lock().unwrap_or_else(|p| p.into_inner());
            windows.iter().map(|(&k, v)| (k, v.total(now), v.rate_per_sec(now))).collect()
        }
        None => Vec::new(),
    }
}

/// Snapshot of every windowed histogram as its rolling quantile summary.
pub fn window_histograms_snapshot() -> Vec<(&'static str, WindowSummary)> {
    let guard = read_inner();
    match guard.as_ref() {
        Some(inner) => {
            let now = inner.now_secs();
            let windows = inner.window_histograms.lock().unwrap_or_else(|p| p.into_inner());
            windows.iter().map(|(&k, v)| (k, v.summary(now))).collect()
        }
        None => Vec::new(),
    }
}

/// The end-of-run span profile as an aligned table ranked by total time,
/// or `None` when disabled or nothing was timed.
pub fn profile_table() -> Option<String> {
    prof::totals_table(&spans_snapshot())
}

/// Emit a `profile` record carrying every span statistic and counter as
/// JSON, so a JSONL log is self-contained. No-op when disabled or nothing
/// was timed.
pub fn emit_profile() {
    if !is_enabled() {
        return;
    }
    let spans = spans_snapshot();
    if spans.is_empty() {
        return;
    }
    let mut counters_json = String::from("{");
    for (i, (k, v)) in counters_snapshot().iter().enumerate() {
        if i > 0 {
            counters_json.push(',');
        }
        event::push_json_str(&mut counters_json, k);
        counters_json.push_str(&format!(":{v}"));
    }
    counters_json.push('}');
    let mut hists_json = String::from("{");
    for (i, (k, s)) in histograms_snapshot().iter().enumerate() {
        if i > 0 {
            hists_json.push(',');
        }
        event::push_json_str(&mut hists_json, k);
        hists_json.push(':');
        hists_json.push_str(&s.to_json());
    }
    hists_json.push('}');
    emit(
        Event::new(Level::Info, "profile")
            .raw_json("spans", spans_json(&spans))
            .raw_json("counters", counters_json)
            .raw_json("histograms", hists_json),
    );
}

/// Span statistics as a JSON object keyed by span path, ranked by total
/// time: `{"path":{"calls":N,"total_ms":T,"mean_us":M},...}`.
fn spans_json(spans: &[(String, SpanStat)]) -> String {
    let mut rows: Vec<&(String, SpanStat)> = spans.iter().collect();
    rows.sort_by(|a, b| b.1.total.cmp(&a.1.total).then_with(|| a.0.cmp(&b.0)));
    let mut out = String::from("{");
    for (i, (name, stat)) in rows.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        event::push_json_str(&mut out, name);
        let total_ms = stat.total.as_secs_f64() * 1e3;
        let mean_us = stat.mean().as_secs_f64() * 1e6;
        out.push_str(&format!(
            ":{{\"calls\":{},\"total_ms\":{total_ms},\"mean_us\":{mean_us}}}",
            stat.calls
        ));
    }
    out.push('}');
    out
}

/// The run output directory from `AGSC_TELEMETRY_DIR`, if set and non-empty.
///
/// This is the directory the JSONL event log goes to; diagnostics layers use
/// it to place their exports (`training_curves.csv`, experiment tables,
/// `BENCH_results.json`) next to the manifest-carrying log.
pub fn run_dir() -> Option<PathBuf> {
    knobs::text("AGSC_TELEMETRY_DIR").map(PathBuf::from)
}

/// Flush every sink (e.g. before reading a JSONL log back).
pub fn flush() {
    let guard = read_inner();
    if let Some(inner) = guard.as_ref() {
        for s in &inner.sinks {
            s.flush();
        }
    }
}

/// Enable telemetry from the environment; returns whether it is enabled.
///
/// * `AGSC_LOG` — severity filter (`off`, `error`, `warn`, `info`,
///   `debug`). Setting it installs a stderr sink. `off` forces telemetry
///   fully disabled regardless of other variables. Unrecognised values
///   warn and fall back to `info`.
/// * `AGSC_TELEMETRY_DIR` — directory for a JSONL log; setting it installs
///   a [`JsonlSink`] writing `run-<millis>-<pid>.jsonl` there.
/// * `AGSC_PROF` — `1`/`true`/`on` additionally enables the per-thread
///   self-profiler ([`prof`]); it only records while telemetry itself is
///   enabled.
///
/// With neither variable set this is a no-op returning `false`: the
/// default-off contract. Either way, every set `AGSC_*` variable that is
/// not in [`knobs::KNOBS`] gets one `unknown_knob` warning.
pub fn init_from_env() -> bool {
    let enabled = init_env_impl(false).is_some();
    knobs::warn_unknown();
    enabled
}

/// The standard setup for run entry points (examples, bench binaries):
/// always installs a stderr sink (progress lines for humans), plus a JSONL
/// sink when `AGSC_TELEMETRY_DIR` is set. `AGSC_LOG=off` still disables
/// everything. Returns the JSONL path when one was opened. Unknown
/// `AGSC_*` variables warn as in [`init_from_env`].
pub fn init_run() -> Option<PathBuf> {
    let path = init_env_impl(true).flatten();
    knobs::warn_unknown();
    path
}

/// Shared env-driven setup. `force_stderr` is the [`init_run`] behaviour.
/// Returns `None` when telemetry stays disabled, `Some(jsonl_path)` when
/// enabled.
fn init_env_impl(force_stderr: bool) -> Option<Option<PathBuf>> {
    let log_var = knobs::text("AGSC_LOG");
    let dir_var = knobs::text("AGSC_TELEMETRY_DIR");
    if log_var.as_deref().is_some_and(|raw| raw.eq_ignore_ascii_case("off")) {
        return None;
    }
    if !force_stderr && log_var.is_none() && dir_var.is_none() {
        return None;
    }
    let level = knobs::parse("AGSC_LOG", Level::Info);
    let mut sinks: Vec<Arc<dyn Sink>> = Vec::new();
    if force_stderr || log_var.is_some() {
        sinks.push(Arc::new(StderrSink));
    }
    let mut jsonl_path = None;
    if let Some(dir) = dir_var {
        match JsonlSink::in_dir(&dir) {
            Ok(sink) => {
                jsonl_path = Some(sink.path().to_path_buf());
                sinks.push(Arc::new(sink));
            }
            Err(e) => {
                eprintln!("warning: cannot open JSONL log in AGSC_TELEMETRY_DIR={dir:?}: {e}");
            }
        }
    }
    install(sinks, level);
    prof::init_from_env();
    Some(jsonl_path)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;

    /// The global handle is process-wide; tests that touch it serialise here.
    static GLOBAL_LOCK: Mutex<()> = Mutex::new(());

    pub(crate) fn with_global<R>(f: impl FnOnce() -> R) -> R {
        let _guard = GLOBAL_LOCK.lock().unwrap_or_else(|p| p.into_inner());
        shutdown();
        let out = f();
        shutdown();
        out
    }

    #[test]
    fn a_worker_that_enters_the_span_context_nests_under_its_spawner() {
        with_global(|| {
            install(vec![], Level::Info);
            let outer = span("outer");
            let ctx = span_context();
            std::thread::scope(|s| {
                s.spawn(|| {
                    let _inherited = ctx.enter();
                    drop(span("inner"));
                });
                s.spawn(|| drop(span("bare")));
            });
            drop(outer);
            let paths: Vec<String> = spans_snapshot().into_iter().map(|(p, _)| p).collect();
            assert!(paths.contains(&"outer/inner".to_string()), "{paths:?}");
            assert!(paths.contains(&"bare".to_string()), "a thread without the context: {paths:?}");
            assert!(paths.contains(&"outer".to_string()), "{paths:?}");
            assert_eq!(paths.len(), 3, "the adopted path is not recorded again: {paths:?}");
        });
    }

    #[test]
    fn disabled_by_default_and_emit_with_skips_closure() {
        with_global(|| {
            assert!(!is_enabled());
            let calls = AtomicUsize::new(0);
            emit_with(Level::Error, "x", |e| {
                calls.fetch_add(1, Ordering::SeqCst);
                e
            });
            assert_eq!(calls.load(Ordering::SeqCst), 0, "closure must not run when disabled");
            let s = span("anything");
            assert_eq!(s.path(), None, "span must be inert when disabled");
            drop(s);
            counter_add("c", 3);
            gauge_set("g", 1.0);
            assert!(spans_snapshot().is_empty());
            assert!(counters_snapshot().is_empty());
            assert!(profile_table().is_none());
        });
    }

    #[test]
    fn events_flow_to_installed_sinks() {
        with_global(|| {
            let mem = Arc::new(MemorySink::new());
            install(vec![mem.clone()], Level::Info);
            emit_with(Level::Info, "iteration", |e| e.u64("iter", 1).f64("lambda", 0.5));
            emit(Event::new(Level::Warn, "nan_rollback").u64("iter", 2));
            let events = mem.events();
            assert_eq!(events.len(), 2);
            assert_eq!(events[0].kind, "iteration");
            assert_eq!(events[1].kind, "nan_rollback");
        });
    }

    #[test]
    fn severity_filter_drops_low_levels() {
        with_global(|| {
            let mem = Arc::new(MemorySink::new());
            install(vec![mem.clone()], Level::Warn);
            let calls = AtomicUsize::new(0);
            emit_with(Level::Info, "dropped", |e| {
                calls.fetch_add(1, Ordering::SeqCst);
                e
            });
            emit_with(Level::Warn, "kept_warn", |e| e);
            emit_with(Level::Error, "kept_error", |e| e);
            assert_eq!(calls.load(Ordering::SeqCst), 0, "filtered closure must not run");
            let kinds: Vec<&str> = mem.events().iter().map(|e| e.kind).collect();
            assert_eq!(kinds, vec!["kept_warn", "kept_error"]);
        });
    }

    #[test]
    fn warn_routes_through_sinks_when_enabled() {
        with_global(|| {
            let mem = Arc::new(MemorySink::new());
            install(vec![mem.clone()], Level::Info);
            warn("config_warning", |e| e.msg("bad value"));
            assert_eq!(mem.events().len(), 1);
            assert_eq!(mem.events()[0].level, Level::Warn);
        });
    }

    #[test]
    fn warn_fallback_when_disabled_does_not_panic() {
        with_global(|| {
            warn("config_warning", |e| e.msg("still visible on stderr"));
        });
    }

    #[test]
    fn spans_nest_and_accumulate() {
        with_global(|| {
            install(vec![], Level::Info);
            for _ in 0..3 {
                let _outer = span("outer");
                {
                    let _inner = span("inner");
                }
                {
                    let _inner = span("inner");
                }
            }
            {
                let _bare = span("inner");
            }
            let snapshot = spans_snapshot();
            let get = |path: &str| {
                snapshot.iter().find(|(p, _)| p == path).map(|(_, s)| *s).unwrap_or_default()
            };
            assert_eq!(get("outer").calls, 3);
            assert_eq!(get("outer/inner").calls, 6, "nested calls key under the full path");
            assert_eq!(get("inner").calls, 1, "bare spans key separately from nested ones");
            assert!(get("outer").total >= get("outer/inner").total);
            let table = profile_table().unwrap();
            assert!(table.contains("outer/inner"), "{table}");
        });
    }

    #[test]
    fn counters_and_gauges_accumulate() {
        with_global(|| {
            install(vec![], Level::Info);
            counter_add("nan_events", 2);
            counter_add("nan_events", 3);
            gauge_set("lambda", 0.4);
            gauge_set("lambda", 0.6);
            assert_eq!(counters_snapshot(), vec![("nan_events", 5)]);
            assert_eq!(gauges_snapshot(), vec![("lambda", 0.6)]);
        });
    }

    #[test]
    fn install_resets_registries_and_shutdown_disables() {
        with_global(|| {
            install(vec![], Level::Info);
            counter_add("c", 1);
            {
                let _s = span("s");
            }
            install(vec![], Level::Info);
            assert!(counters_snapshot().is_empty(), "reinstall must reset registries");
            assert!(spans_snapshot().is_empty());
            shutdown();
            assert!(!is_enabled());
        });
    }

    #[test]
    fn histograms_record_when_enabled_and_are_inert_when_disabled() {
        with_global(|| {
            histogram_record("approx_kl", 1.0);
            assert!(histograms_snapshot().is_empty(), "must be a no-op while disabled");
            let mem = Arc::new(MemorySink::new());
            install(vec![mem.clone()], Level::Info);
            histogram_record("approx_kl", 0.01);
            histogram_record("approx_kl", 0.03);
            histogram_record("grad_norm", 2.0);
            {
                let _s = span("update");
            }
            let snap = histograms_snapshot();
            assert_eq!(snap.len(), 2);
            let (_, kl) = snap.iter().find(|(k, _)| *k == "approx_kl").unwrap();
            assert_eq!(kl.count, 2);
            assert!((kl.mean - 0.02).abs() < 1e-12);
            emit_profile();
            let events = mem.events();
            let profile = events.iter().find(|e| e.kind == "profile").expect("profile record");
            let json = profile.to_json();
            assert!(json.contains("\"approx_kl\":{\"count\":2"), "{json}");
        });
    }

    #[test]
    fn spans_json_contains_all_paths() {
        let spans = vec![
            ("train_iteration".into(), SpanStat { calls: 2, total: Duration::from_millis(500) }),
            (
                "train_iteration/ppo_epochs".into(),
                SpanStat { calls: 2, total: Duration::from_millis(900) },
            ),
        ];
        let j = spans_json(&spans);
        assert!(j.starts_with('{') && j.ends_with('}'), "{j}");
        assert!(j.contains("\"train_iteration/ppo_epochs\":{\"calls\":2"), "{j}");
        assert!(j.contains("\"train_iteration\":{\"calls\":2"), "{j}");
    }

    #[test]
    fn emit_profile_writes_span_and_counter_json() {
        with_global(|| {
            let mem = Arc::new(MemorySink::new());
            install(vec![mem.clone()], Level::Info);
            {
                let _s = span("env_step");
            }
            counter_add("uv_failures", 1);
            emit_profile();
            let events = mem.events();
            let profile = events.iter().find(|e| e.kind == "profile").expect("profile record");
            let json = profile.to_json();
            assert!(json.contains("\"env_step\":{\"calls\":1"), "{json}");
            assert!(json.contains("\"uv_failures\":1"), "{json}");
        });
    }

    #[test]
    fn windowed_mirrors_follow_counters_and_histograms() {
        with_global(|| {
            assert!(window_counters_snapshot().is_empty(), "disabled → empty");
            assert!(window_histograms_snapshot().is_empty());
            assert_eq!(window_config(), WindowConfig::default());
            let cfg = WindowConfig { bucket_secs: 1000, buckets: 2 };
            install_with_window(vec![], Level::Info, cfg);
            assert_eq!(window_config(), cfg);
            counter_add("req", 4);
            histogram_record("lat", 10.0);
            histogram_record("lat", 30.0);
            let counters = window_counters_snapshot();
            let (_, total, rate) = counters.iter().find(|(k, _, _)| *k == "req").unwrap();
            assert_eq!(*total, 4, "all adds land in the (huge) live window");
            assert!((rate - 4.0 / cfg.window_secs() as f64).abs() < 1e-12);
            let hists = window_histograms_snapshot();
            let (_, s) = hists.iter().find(|(k, _)| *k == "lat").unwrap();
            assert_eq!(s.count, 2);
            assert!((s.p50 - 20.0).abs() < 1e-9);
        });
    }

    #[test]
    fn min_level_reflects_install() {
        with_global(|| {
            install(vec![], Level::Debug);
            assert_eq!(min_level(), Level::Debug);
            install(vec![], Level::Error);
            assert_eq!(min_level(), Level::Error);
        });
    }
}
