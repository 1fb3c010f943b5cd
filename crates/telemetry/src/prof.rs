//! Self-profiler: per-thread wall-clock attribution over the span tree.
//!
//! The base span registry ([`crate::spans_snapshot`]) answers "how much
//! total time went to each span path, process-wide". Before optimising a
//! hot path (the SIMD GEMM work this measurement bed exists for) two more
//! views are needed:
//!
//! * **inclusive vs exclusive** — `train_iteration` includes everything
//!   under it; the time worth optimising is what's left after subtracting
//!   its children (*exclusive* / self time),
//! * **per-thread attribution** — rollout shards and the serve batcher run
//!   on their own threads; a process-wide total hides which thread is hot,
//! * **folded-stack export** — the `thread;outer;inner <micros>` collapsed
//!   format that `flamegraph.pl` / speedscope / `inferno` consume directly.
//!
//! ## Gating
//!
//! Off by default behind one relaxed atomic, exactly like the rest of the
//! telemetry layer: `record` is only reachable from span drops (which
//! already require telemetry to be enabled) and returns on a single load
//! when profiling is off, so uninstrumented and unprofiled runs stay
//! bit-identical. Enable with `AGSC_PROF=1` (read by
//! [`crate::init_from_env`] / [`crate::init_run`]) or [`set_enabled`].

use std::cell::RefCell;
use std::collections::{BTreeMap, BTreeSet};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Duration;

use crate::span::SpanStat;

static PROF_ENABLED: AtomicBool = AtomicBool::new(false);

/// Per-thread span statistics: `thread label → span path → stats`.
static REGISTRY: Mutex<BTreeMap<String, BTreeMap<String, SpanStat>>> = Mutex::new(BTreeMap::new());

/// Monotonic label counter for unnamed threads.
static ANON_THREADS: AtomicU64 = AtomicU64::new(0);

thread_local! {
    /// This thread's label, assigned on first profiled span.
    static THREAD_LABEL: RefCell<Option<String>> = const { RefCell::new(None) };
}

/// Whether per-thread profiling is currently enabled.
pub fn is_enabled() -> bool {
    PROF_ENABLED.load(Ordering::Relaxed)
}

/// Enable or disable the profiler. Profiling only has an effect while the
/// telemetry layer itself is enabled (spans do not record otherwise).
pub fn set_enabled(on: bool) {
    PROF_ENABLED.store(on, Ordering::Relaxed);
}

/// Read the `AGSC_PROF` flag (default off) and set the gate accordingly;
/// returns the resulting state.
pub fn init_from_env() -> bool {
    let on = crate::knobs::flag("AGSC_PROF", false);
    set_enabled(on);
    on
}

/// Drop all accumulated per-thread statistics (a fresh run). Called by
/// [`crate::install`] alongside the base registry reset.
pub(crate) fn reset() {
    REGISTRY.lock().unwrap_or_else(|p| p.into_inner()).clear();
}

fn thread_label() -> String {
    THREAD_LABEL.with(|l| {
        let mut l = l.borrow_mut();
        if let Some(ref s) = *l {
            return s.clone();
        }
        let label = match std::thread::current().name() {
            Some(name) if !name.is_empty() => name.to_string(),
            _ => format!("thread-{}", ANON_THREADS.fetch_add(1, Ordering::Relaxed)),
        };
        *l = Some(label.clone());
        label
    })
}

/// Accumulate one completed span call under the calling thread's label.
/// Reached from [`crate::record_span`] (telemetry already enabled there);
/// returns on one atomic load when profiling is off.
pub(crate) fn record(path: &str, elapsed: Duration) {
    if !is_enabled() {
        return;
    }
    let label = thread_label();
    let mut reg = REGISTRY.lock().unwrap_or_else(|p| p.into_inner());
    let stat = reg.entry(label).or_default().entry(path.to_string()).or_default();
    stat.calls += 1;
    stat.total += elapsed;
}

/// One profiled span path on one thread, with the inclusive/exclusive split.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ProfRow {
    /// Thread label (thread name, or `thread-N` for unnamed threads).
    pub thread: String,
    /// Span path (`outer/inner`).
    pub path: String,
    /// Completed calls.
    pub calls: u64,
    /// Inclusive wall time: the span's own total, children included.
    pub inclusive: Duration,
    /// Exclusive (self) wall time: inclusive minus direct children.
    pub exclusive: Duration,
}

/// Snapshot the per-thread registry with the inclusive/exclusive split
/// computed. Within one thread the nesting is strictly LIFO (guaranteed by
/// scope-based span guards), so a path's direct children are exactly the
/// paths one `/` deeper, and `exclusive = inclusive − Σ direct children`
/// (clamped at zero against clock skew).
pub fn snapshot() -> Vec<ProfRow> {
    let reg = REGISTRY.lock().unwrap_or_else(|p| p.into_inner());
    let mut rows = Vec::new();
    for (thread, spans) in reg.iter() {
        for (path, stat) in spans.iter() {
            let prefix = format!("{path}/");
            let children: Duration = spans
                .iter()
                .filter(|(p, _)| {
                    p.starts_with(&prefix)
                        && !p[prefix.len()..].contains('/')
                        && p.len() > prefix.len()
                })
                .map(|(_, s)| s.total)
                .sum();
            rows.push(ProfRow {
                thread: thread.clone(),
                path: path.clone(),
                calls: stat.calls,
                inclusive: stat.total,
                exclusive: stat.total.saturating_sub(children),
            });
        }
    }
    rows
}

/// Render the profiled rows as a folded-stack (collapsed) file: one line
/// per `(thread, path)` pair, `thread;outer;inner <exclusive_micros>`,
/// ready for `flamegraph.pl`, `inferno-flamegraph`, or speedscope. Lines
/// with zero exclusive microseconds are kept (calls still carry signal for
/// very fast spans rounded down). Empty string when nothing was profiled.
pub fn folded() -> String {
    let mut out = String::new();
    for row in snapshot() {
        let stack = row.path.replace('/', ";");
        out.push_str(&format!("{};{} {}\n", row.thread, stack, row.exclusive.as_micros()));
    }
    out
}

/// Write [`folded`] output to `path`. Errors surface to the caller; run
/// entry points treat them as warnings.
pub fn write_folded(path: &Path) -> std::io::Result<()> {
    if let Some(parent) = path.parent() {
        if !parent.as_os_str().is_empty() {
            std::fs::create_dir_all(parent)?;
        }
    }
    std::fs::write(path, folded())
}

/// Write the folded profile to its default location — `AGSC_PROF_FOLDED`
/// when set, else `<AGSC_TELEMETRY_DIR>/profile.folded`, else
/// `./profile.folded` — returning the path on success, `None` when nothing
/// was profiled or the write failed (reported via [`crate::warn`]).
pub fn write_folded_default() -> Option<PathBuf> {
    let text = folded();
    if text.is_empty() {
        return None;
    }
    let path = crate::knobs::text("AGSC_PROF_FOLDED").map(PathBuf::from).unwrap_or_else(|| {
        crate::run_dir().unwrap_or_else(|| PathBuf::from(".")).join("profile.folded")
    });
    match write_folded(&path) {
        Ok(()) => Some(path),
        Err(err) => {
            crate::warn("prof_folded_io", |e| {
                e.str("path", path.display().to_string()).str("error", err.to_string())
            });
            None
        }
    }
}

/// The end-of-run profiler table: span paths aggregated across threads,
/// ranked by exclusive time, with the exclusive time and its share of the
/// total next to the totals. `None` when nothing was profiled.
pub fn report_table() -> Option<String> {
    let rows = snapshot();
    // Aggregate across threads per path.
    let mut agg: BTreeMap<&str, (SpanStat, Duration)> = BTreeMap::new();
    for row in &rows {
        let (stat, exclusive) = agg.entry(&row.path).or_default();
        stat.calls += row.calls;
        stat.total += row.inclusive;
        *exclusive += row.exclusive;
    }
    let threads = rows.iter().map(|r| r.thread.as_str()).collect::<BTreeSet<_>>().len();
    let mut out =
        write_table(agg.into_iter().map(|(path, (stat, excl))| (path, stat, Some(excl))))?;
    out.push_str(&format!("({threads} thread(s) profiled)\n"));
    Some(out)
}

/// The base registry's span totals as the profiler's table without the
/// exclusive columns, ranked by total time (see [`crate::profile_table`]).
pub(crate) fn totals_table(spans: &[(String, SpanStat)]) -> Option<String> {
    write_table(spans.iter().map(|(path, stat)| (path.as_str(), *stat, None)))
}

/// Both span tables: `span calls total ms mean us`, plus `excl ms excl %`
/// when the rows carry exclusive time, ranked by exclusive time if present
/// and total time otherwise. `None` when there are no rows.
fn write_table<'a>(
    rows: impl Iterator<Item = (&'a str, SpanStat, Option<Duration>)>,
) -> Option<String> {
    let mut rows: Vec<_> = rows.collect();
    let with_excl = rows.first()?.2.is_some();
    let rank = |(_, stat, excl): &(&str, SpanStat, Option<Duration>)| excl.unwrap_or(stat.total);
    rows.sort_by(|a, b| rank(b).cmp(&rank(a)).then_with(|| a.0.cmp(b.0)));
    let grand_excl: Duration = rows.iter().filter_map(|r| r.2).sum();
    let name_w = rows.iter().map(|r| r.0.len()).max().unwrap_or(0).max("span".len());
    let mut out =
        format!("{:<name_w$}  {:>9}  {:>12}  {:>12}", "span", "calls", "total ms", "mean us");
    if with_excl {
        out.push_str(&format!("  {:>12}  {:>7}", "excl ms", "excl %"));
    }
    out.push('\n');
    for (name, stat, excl) in rows {
        let total_ms = stat.total.as_secs_f64() * 1e3;
        let mean_us = stat.mean().as_secs_f64() * 1e6;
        out.push_str(&format!(
            "{name:<name_w$}  {:>9}  {total_ms:>12.2}  {mean_us:>12.2}",
            stat.calls
        ));
        if let Some(excl) = excl {
            let pct = if grand_excl.is_zero() {
                0.0
            } else {
                100.0 * excl.as_secs_f64() / grand_excl.as_secs_f64()
            };
            out.push_str(&format!("  {:>12.2}  {pct:>6.1}%", excl.as_secs_f64() * 1e3));
        }
        out.push('\n');
    }
    Some(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Vec<(String, SpanStat)> {
        vec![
            ("train_iteration".into(), SpanStat { calls: 2, total: Duration::from_millis(500) }),
            (
                "train_iteration/ppo_epochs".into(),
                SpanStat { calls: 2, total: Duration::from_millis(900) },
            ),
        ]
    }

    #[test]
    fn empty_is_none() {
        assert!(totals_table(&[]).is_none());
    }

    #[test]
    fn table_ranks_by_total_descending() {
        let t = totals_table(&sample()).unwrap();
        let lines: Vec<&str> = t.lines().collect();
        assert!(lines[0].contains("span") && lines[0].contains("total ms"), "{t}");
        assert!(lines[1].starts_with("train_iteration/ppo_epochs"), "{t}");
        assert!(lines[2].starts_with("train_iteration "), "{t}");
        assert!(lines[1].contains("900.00"), "{t}");
    }
}
