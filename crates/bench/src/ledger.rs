//! The bench trend ledger: `BENCH_history.jsonl` and regression verdicts.
//!
//! `BENCH_results.json` converges to *one row per cell* — good for "what
//! are the numbers now", useless for "are the numbers getting worse".
//! This module adds the missing time axis: every [`crate::BenchResults::finish`]
//! appends its points to an **append-only** JSONL ledger, one
//! [`HistoryEntry`] per line, stamped with a wall-clock timestamp and the
//! binary's build metadata (git sha, version, profile — see
//! `agsc_telemetry::build_info`). Nothing ever rewrites the ledger, so its
//! growth *is* the bench trajectory of the repository.
//!
//! On top of the ledger sits the trend analysis the `bench trend`
//! subcommand exposes: for every (experiment, dataset, label, seed) series
//! the newest entry is compared against the **median of a rolling
//! baseline** (the previous [`TrendConfig::baseline_window`] entries), with
//! a noise band estimated from the baseline's own dispersion (relative
//! MAD), so a jittery series needs a proportionally bigger move to trip
//! the verdict. Throughput metrics (`samples_per_sec`, `gflops`) regress
//! on a drop, latency (`latency_p95_us`) regresses on a rise; both
//! thresholds are CI-gate friendly ([`has_regression`] → exit nonzero).

use std::io::Write;
use std::path::{Path, PathBuf};

use agsc_telemetry as tlm;
use serde::{Deserialize, Serialize};

use crate::results::{bench_dir, ResultPoint};

/// One appended ledger line: a [`ResultPoint`] plus run attribution.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct HistoryEntry {
    /// Milliseconds since the Unix epoch when the entry was appended.
    pub ts_ms: u64,
    /// Short git sha of the binary that produced the point (`"unknown"`
    /// when built outside a checkout).
    pub git_sha: String,
    /// Workspace version of that binary.
    pub version: String,
    /// Cargo build profile of that binary (`debug` runs are ledgered too —
    /// the sha+profile stamp is what keeps them from polluting release
    /// comparisons at analysis time, not a write-side filter).
    pub profile: String,
    /// The measured point itself, flattened into the same JSON object.
    #[serde(flatten)]
    pub point: ResultPoint,
}

/// Where the ledger lives: `BENCH_history.jsonl` in the
/// [`bench_dir`].
pub fn history_path() -> PathBuf {
    bench_dir().join("BENCH_history.jsonl")
}

/// Append `points` to the ledger at `path` (created, with parents, on
/// first use). Returns the number of lines written.
pub fn append_history(points: &[ResultPoint], path: &Path) -> std::io::Result<usize> {
    if points.is_empty() {
        return Ok(0);
    }
    if let Some(parent) = path.parent() {
        if !parent.as_os_str().is_empty() {
            std::fs::create_dir_all(parent)?;
        }
    }
    let ts_ms = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map(|d| d.as_millis() as u64)
        .unwrap_or(0);
    let build = tlm::build_info();
    let mut file = std::fs::OpenOptions::new().create(true).append(true).open(path)?;
    let mut written = 0;
    for point in points {
        let entry = HistoryEntry {
            ts_ms,
            git_sha: build.git_sha.to_string(),
            version: build.version.to_string(),
            profile: build.profile.to_string(),
            point: point.clone(),
        };
        let line = serde_json::to_string(&entry)?;
        file.write_all(line.as_bytes())?;
        file.write_all(b"\n")?;
        written += 1;
    }
    file.flush()?;
    Ok(written)
}

/// Load the ledger, skipping blank and malformed lines (a truncated tail
/// from a crashed run must not poison every later analysis).
pub fn load_history(path: &Path) -> std::io::Result<Vec<HistoryEntry>> {
    let text = std::fs::read_to_string(path)?;
    Ok(text
        .lines()
        .filter(|l| !l.trim().is_empty())
        .filter_map(|l| serde_json::from_str(l).ok())
        .collect())
}

/// Thresholds and baseline shape for trend analysis.
#[derive(Debug, Clone, Copy)]
pub struct TrendConfig {
    /// How many previous entries form the rolling baseline.
    pub baseline_window: usize,
    /// A throughput metric must drop by more than this (per cent, and more
    /// than the noise band) to regress.
    pub throughput_drop_pct: f64,
    /// A latency metric must rise by more than this (per cent, and more
    /// than the noise band) to regress.
    pub latency_rise_pct: f64,
    /// Floor of the noise band (per cent): a baseline of identical values
    /// still tolerates at least this much movement before a verdict flips.
    pub min_noise_pct: f64,
}

impl Default for TrendConfig {
    fn default() -> Self {
        Self {
            baseline_window: 5,
            throughput_drop_pct: 10.0,
            latency_rise_pct: 15.0,
            min_noise_pct: 3.0,
        }
    }
}

/// Typed verdict of one series/metric comparison.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// Moved in the good direction beyond threshold and noise.
    Improved,
    /// Within the tolerated band.
    Steady,
    /// Moved in the bad direction beyond threshold and noise.
    Regressed,
}

impl Verdict {
    /// Fixed-width label for the ASCII table.
    pub fn label(&self) -> &'static str {
        match self {
            Verdict::Improved => "IMPROVED",
            Verdict::Steady => "steady",
            Verdict::Regressed => "REGRESSED",
        }
    }
}

/// One row of the trend report: the newest value of one metric of one
/// series against its rolling baseline.
#[derive(Debug, Clone, PartialEq)]
pub struct TrendRow {
    /// Experiment name of the series.
    pub experiment: String,
    /// Dataset of the series (may be empty).
    pub dataset: String,
    /// Configuration label of the series.
    pub label: String,
    /// Which metric this row compares (`samples_per_sec`, `gflops`,
    /// `latency_p95_us`).
    pub metric: &'static str,
    /// The newest entry's value.
    pub current: f64,
    /// Median of the rolling baseline.
    pub baseline: f64,
    /// `(current − baseline) / baseline`, per cent.
    pub delta_pct: f64,
    /// The tolerated band, per cent: `max(threshold, baseline noise)`.
    pub band_pct: f64,
    /// How many baseline entries backed the comparison.
    pub baseline_n: usize,
    /// The comparison's verdict.
    pub verdict: Verdict,
}

/// Metrics the trend analysis watches: name, extractor, and whether
/// bigger is better.
type MetricSpec = (&'static str, fn(&ResultPoint) -> f64, bool);

const METRICS: [MetricSpec; 3] = [
    ("samples_per_sec", |p| p.samples_per_sec, true),
    ("gflops", |p| p.gflops, true),
    ("latency_p95_us", |p| p.latency_p95_us, false),
];

fn median(sorted: &[f64]) -> f64 {
    let n = sorted.len();
    if n == 0 {
        return 0.0;
    }
    if n % 2 == 1 {
        sorted[n / 2]
    } else {
        (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0
    }
}

/// Relative median absolute deviation of `values` around `center`,
/// per cent of `center`.
fn relative_mad_pct(values: &[f64], center: f64) -> f64 {
    if center.abs() < f64::EPSILON {
        return 0.0;
    }
    let mut devs: Vec<f64> = values.iter().map(|v| (v - center).abs()).collect();
    devs.sort_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal));
    100.0 * median(&devs) / center.abs()
}

/// Compare the newest entry of every (experiment, dataset, label, seed)
/// series against its rolling baseline, one [`TrendRow`] per watched
/// metric that is present (non-zero) in both. Series with no prior
/// entries produce no rows — a first run has nothing to regress against.
/// Entries are assumed appended in time order (the ledger is append-only);
/// `ts_ms` ties keep file order.
pub fn analyze(entries: &[HistoryEntry], cfg: &TrendConfig) -> Vec<TrendRow> {
    // Group preserving first-seen order so the report is stable.
    let mut order: Vec<(String, String, String, u64)> = Vec::new();
    let mut groups: std::collections::BTreeMap<(String, String, String, u64), Vec<&HistoryEntry>> =
        std::collections::BTreeMap::new();
    for e in entries {
        let key = (
            e.point.experiment.clone(),
            e.point.dataset.clone(),
            e.point.label.clone(),
            e.point.seed,
        );
        if !groups.contains_key(&key) {
            order.push(key.clone());
        }
        groups.entry(key).or_default().push(e);
    }
    let mut rows = Vec::new();
    for key in order {
        let series = &groups[&key];
        let (current, prior) = match series.split_last() {
            Some((c, rest)) if !rest.is_empty() => (c, rest),
            _ => continue,
        };
        let baseline_slice = &prior[prior.len().saturating_sub(cfg.baseline_window)..];
        for (metric, get, higher_is_better) in METRICS {
            let cur = get(&current.point);
            let base_vals: Vec<f64> =
                baseline_slice.iter().map(|e| get(&e.point)).filter(|v| *v > 0.0).collect();
            if cur <= 0.0 || base_vals.is_empty() {
                continue;
            }
            let mut sorted = base_vals.clone();
            sorted.sort_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal));
            let baseline = median(&sorted);
            if baseline <= 0.0 {
                continue;
            }
            let delta_pct = 100.0 * (cur - baseline) / baseline;
            let noise_pct = relative_mad_pct(&base_vals, baseline).max(cfg.min_noise_pct);
            let threshold =
                if higher_is_better { cfg.throughput_drop_pct } else { cfg.latency_rise_pct };
            let band_pct = threshold.max(noise_pct);
            let bad_move = if higher_is_better { -delta_pct } else { delta_pct };
            let verdict = if bad_move > band_pct {
                Verdict::Regressed
            } else if -bad_move > band_pct {
                Verdict::Improved
            } else {
                Verdict::Steady
            };
            rows.push(TrendRow {
                experiment: current.point.experiment.clone(),
                dataset: current.point.dataset.clone(),
                label: current.point.label.clone(),
                metric,
                current: cur,
                baseline,
                delta_pct,
                band_pct,
                baseline_n: base_vals.len(),
                verdict,
            });
        }
    }
    rows
}

/// Whether any row regressed — the CI gate.
pub fn has_regression(rows: &[TrendRow]) -> bool {
    rows.iter().any(|r| r.verdict == Verdict::Regressed)
}

/// Render the trend report as an aligned ASCII table (empty string for no
/// rows).
pub fn render_table(rows: &[TrendRow]) -> String {
    if rows.is_empty() {
        return String::new();
    }
    let series: Vec<String> = rows
        .iter()
        .map(|r| {
            if r.dataset.is_empty() {
                format!("{} / {}", r.experiment, r.label)
            } else {
                format!("{} / {} / {}", r.experiment, r.dataset, r.label)
            }
        })
        .collect();
    let sw = series.iter().map(String::len).max().unwrap_or(6).max("series".len());
    let mw = rows.iter().map(|r| r.metric.len()).max().unwrap_or(6).max("metric".len());
    let mut out = String::new();
    out.push_str(&format!(
        "{:<sw$}  {:<mw$}  {:>12}  {:>12}  {:>8}  {:>7}  {:>4}  {}\n",
        "series", "metric", "current", "baseline", "delta", "band", "n", "verdict"
    ));
    for (s, r) in series.iter().zip(rows) {
        out.push_str(&format!(
            "{s:<sw$}  {:<mw$}  {:>12.2}  {:>12.2}  {:>+7.1}%  {:>6.1}%  {:>4}  {}\n",
            r.metric,
            r.current,
            r.baseline,
            r.delta_pct,
            r.band_pct,
            r.baseline_n,
            r.verdict.label()
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::harness::HarnessConfig;
    use agsc_env::Metrics;

    fn point(label: &str, sps: f64, p95: f64) -> ResultPoint {
        let h = HarnessConfig { iters: 1, eval_episodes: 1, seed: 42 };
        ResultPoint::new("rollout_throughput", "purdue", label, &h, &Metrics::default(), 1.0)
            .with_samples_per_sec(sps)
            .with_latency_us(0.0, p95, 0.0)
    }

    fn entry(ts_ms: u64, p: ResultPoint) -> HistoryEntry {
        HistoryEntry {
            ts_ms,
            git_sha: "abc".into(),
            version: "0.1.0".into(),
            profile: "release".into(),
            point: p,
        }
    }

    fn series(values: &[f64]) -> Vec<HistoryEntry> {
        values.iter().enumerate().map(|(i, &v)| entry(i as u64, point("serial", v, 0.0))).collect()
    }

    #[test]
    fn injected_2x_slowdown_is_a_regression() {
        // Five steady runs at ~1000 samples/sec, then the new run at 500.
        let entries = series(&[1000.0, 1010.0, 990.0, 1005.0, 995.0, 500.0]);
        let rows = analyze(&entries, &TrendConfig::default());
        assert_eq!(rows.len(), 1);
        assert_eq!(rows[0].metric, "samples_per_sec");
        assert_eq!(rows[0].verdict, Verdict::Regressed, "{rows:?}");
        assert!(has_regression(&rows));
        let table = render_table(&rows);
        assert!(table.contains("REGRESSED"), "{table}");
        assert!(table.contains("rollout_throughput"), "{table}");
    }

    #[test]
    fn movement_inside_the_noise_band_stays_quiet() {
        // ±3% wobble around 1000 — well inside the 10% throughput band.
        let entries = series(&[1000.0, 1030.0, 970.0, 1010.0, 990.0, 975.0]);
        let rows = analyze(&entries, &TrendConfig::default());
        assert_eq!(rows.len(), 1);
        assert_eq!(rows[0].verdict, Verdict::Steady, "{rows:?}");
        assert!(!has_regression(&rows));
    }

    #[test]
    fn big_speedup_reports_improved() {
        let entries = series(&[1000.0, 1000.0, 1000.0, 1400.0]);
        let rows = analyze(&entries, &TrendConfig::default());
        assert_eq!(rows[0].verdict, Verdict::Improved, "{rows:?}");
    }

    #[test]
    fn latency_regresses_on_rise_not_drop() {
        let mk = |p95: f64, i: u64| entry(i, point("serve", 0.0, p95));
        let rising: Vec<_> = [100.0, 102.0, 98.0, 101.0, 140.0]
            .iter()
            .enumerate()
            .map(|(i, &v)| mk(v, i as u64))
            .collect();
        let rows = analyze(&rising, &TrendConfig::default());
        assert_eq!(rows.len(), 1);
        assert_eq!(rows[0].metric, "latency_p95_us");
        assert_eq!(rows[0].verdict, Verdict::Regressed, "{rows:?}");

        let falling: Vec<_> = [100.0, 102.0, 98.0, 101.0, 60.0]
            .iter()
            .enumerate()
            .map(|(i, &v)| mk(v, i as u64))
            .collect();
        let rows = analyze(&falling, &TrendConfig::default());
        assert_eq!(rows[0].verdict, Verdict::Improved, "a latency drop is a win: {rows:?}");
    }

    #[test]
    fn noisy_baseline_widens_the_band() {
        // A wildly noisy series (±30%) should not flag a 20% drop.
        let entries = series(&[1000.0, 1300.0, 700.0, 1250.0, 720.0, 800.0]);
        let rows = analyze(&entries, &TrendConfig::default());
        assert_eq!(rows[0].verdict, Verdict::Steady, "{rows:?}");
    }

    #[test]
    fn first_run_of_a_series_produces_no_rows() {
        let entries = series(&[1000.0]);
        assert!(analyze(&entries, &TrendConfig::default()).is_empty());
    }

    #[test]
    fn series_are_keyed_by_cell_identity() {
        // Two different labels never compare against each other.
        let entries = vec![
            entry(0, point("serial", 1000.0, 0.0)),
            entry(1, point("vec num_envs=4", 4000.0, 0.0)),
            entry(2, point("serial", 1000.0, 0.0)),
            entry(3, point("vec num_envs=4", 3990.0, 0.0)),
        ];
        let rows = analyze(&entries, &TrendConfig::default());
        assert_eq!(rows.len(), 2);
        assert!(rows.iter().all(|r| r.verdict == Verdict::Steady), "{rows:?}");
    }

    #[test]
    fn append_and_load_round_trip_skipping_malformed_lines() {
        let dir = std::env::temp_dir().join(format!("agsc-ledger-{}", std::process::id()));
        let path = dir.join("BENCH_history.jsonl");
        append_history(&[point("serial", 1000.0, 0.0)], &path).unwrap();
        append_history(&[point("serial", 990.0, 0.0)], &path).unwrap();
        // A crashed writer's truncated tail plus stray blank lines.
        {
            use std::io::Write;
            let mut f = std::fs::OpenOptions::new().append(true).open(&path).unwrap();
            writeln!(f, "{{\"ts_ms\": 12, \"truncat").unwrap();
            writeln!(f).unwrap();
        }
        append_history(&[point("serial", 1010.0, 0.0)], &path).unwrap();
        let loaded = load_history(&path).unwrap();
        assert_eq!(loaded.len(), 3, "malformed + blank lines must be skipped");
        assert_eq!(loaded[0].point.samples_per_sec, 1000.0);
        assert_eq!(loaded[2].point.samples_per_sec, 1010.0);
        assert!(!loaded[0].git_sha.is_empty());
        assert_eq!(loaded[0].point.experiment, "rollout_throughput");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn flattened_entry_json_shape() {
        let e = entry(5, point("serial", 123.0, 0.0));
        let json = serde_json::to_string(&e).unwrap();
        // Attribution and point fields share one flat object.
        assert!(json.contains("\"ts_ms\":5"), "{json}");
        assert!(json.contains("\"git_sha\":\"abc\""), "{json}");
        assert!(json.contains("\"experiment\":\"rollout_throughput\""), "{json}");
        let back: HistoryEntry = serde_json::from_str(&json).unwrap();
        assert_eq!(back, e);
    }

    #[test]
    fn empty_append_writes_nothing() {
        let dir = std::env::temp_dir().join(format!("agsc-ledger2-{}", std::process::id()));
        let path = dir.join("BENCH_history.jsonl");
        assert_eq!(append_history(&[], &path).unwrap(), 0);
        assert!(!path.exists(), "no points must not even create the file");
        std::fs::remove_dir_all(&dir).ok();
    }
}
