//! Learning-diagnostics layer: RL health metrics, streaming anomaly
//! detection, and exportable training curves.
//!
//! Everything here is observation-only and rides on `agsc-telemetry`'s
//! master switch: when telemetry is disabled (the default),
//! [`Diagnostics::from_env`] returns `None` and training output is
//! bit-identical to a build without this module. When enabled, every
//! iteration is
//!
//! 1. inspected by the streaming [`AnomalyDetector`] (entropy collapse,
//!    approx-KL spikes, value-loss blowups, pinned LCF angles, dead
//!    agents), with each hit emitted as a warn-level `anomaly` telemetry
//!    event and surfaced on [`IterationStats::anomalies`],
//! 2. appended to `training_curves.csv` / `.jsonl` in the telemetry run
//!    directory by the [`TimeSeriesRecorder`], and
//! 3. folded into a rolling [`HealthHistory`] that prints a sparkline
//!    health report to stderr every `report_every` iterations and at the
//!    end of training.
//!
//! Iterations the NaN guard rolled back are written to the curve files
//! (flagged `update_skipped`) but never reach the detector's baselines.
//!
//! [`IterationStats::anomalies`]: crate::trainer::IterationStats::anomalies

mod anomaly;
mod recorder;
mod report;

pub use anomaly::{Anomaly, AnomalyDetector, AnomalyKind, AnomalyThresholds};
pub use recorder::TimeSeriesRecorder;
pub use report::{sparkline, HealthHistory, HealthSample};

use std::path::Path;

use agsc_telemetry::{self as tlm, knobs};

use crate::trainer::IterationStats;

/// Behaviour knobs for the diagnostics layer.
#[derive(Debug, Clone)]
pub struct DiagnosticsConfig {
    /// Print a health report every this many iterations (0 = only at the
    /// end). Env override: `AGSC_DIAG_REPORT_EVERY`.
    pub report_every: usize,
    /// Sparkline window length.
    pub window: usize,
    /// Anomaly-detection thresholds.
    pub thresholds: AnomalyThresholds,
}

impl Default for DiagnosticsConfig {
    fn default() -> Self {
        Self { report_every: 10, window: 60, thresholds: AnomalyThresholds::default() }
    }
}

impl DiagnosticsConfig {
    /// Defaults with env overrides applied (`AGSC_DIAG_REPORT_EVERY`).
    pub fn from_env() -> Self {
        let d = Self::default();
        Self { report_every: knobs::parse("AGSC_DIAG_REPORT_EVERY", d.report_every), ..d }
    }
}

/// Per-training-run diagnostics driver owned by
/// [`HiMadrlTrainer::train`](crate::trainer::HiMadrlTrainer::train).
#[derive(Debug)]
pub struct Diagnostics {
    cfg: DiagnosticsConfig,
    detector: AnomalyDetector,
    recorder: Option<TimeSeriesRecorder>,
    history: HealthHistory,
    anomaly_total: usize,
    observed: usize,
}

impl Diagnostics {
    /// Build the diagnostics stack iff telemetry is enabled and the
    /// `AGSC_DIAG` flag is not off (it defaults on). The curve recorder
    /// additionally needs `AGSC_TELEMETRY_DIR` to point at a run directory;
    /// without it, detection and reports still run but nothing is exported.
    pub fn from_env(num_agents: usize, num_uavs: usize) -> Option<Self> {
        if !tlm::is_enabled() || !knobs::flag("AGSC_DIAG", true) {
            return None;
        }
        let cfg = DiagnosticsConfig::from_env();
        let dir = tlm::run_dir();
        Some(Self::new(num_agents, num_uavs, cfg, dir.as_deref()))
    }

    /// Explicit constructor (used by tests and custom harnesses): curve
    /// files go to `curve_dir` when given. Recorder-creation failures are
    /// reported as telemetry warnings, never as training failures.
    pub fn new(
        num_agents: usize,
        num_uavs: usize,
        cfg: DiagnosticsConfig,
        curve_dir: Option<&Path>,
    ) -> Self {
        let recorder =
            curve_dir.and_then(|dir| match TimeSeriesRecorder::create(dir, num_agents) {
                Ok(rec) => Some(rec),
                Err(err) => {
                    tlm::warn("diagnostics_io", |e| {
                        e.str("what", "create training_curves").str("error", err.to_string())
                    });
                    None
                }
            });
        Self {
            detector: AnomalyDetector::new(num_agents, cfg.thresholds.clone()),
            history: HealthHistory::new(cfg.window, num_uavs),
            cfg,
            recorder,
            anomaly_total: 0,
            observed: 0,
        }
    }

    /// Path of the CSV curve file, when one is being written.
    pub fn csv_path(&self) -> Option<&Path> {
        self.recorder.as_ref().map(TimeSeriesRecorder::csv_path)
    }

    /// Total anomalies raised so far.
    pub fn anomaly_total(&self) -> usize {
        self.anomaly_total
    }

    /// Inspect one finished iteration: run the detector, stamp the result
    /// onto `stats.anomalies`, export the row, and maybe print a report.
    pub fn observe(&mut self, iter: usize, stats: &mut IterationStats) {
        let anomalies = self.detector.observe(stats);
        if !anomalies.is_empty() {
            tlm::counter_add("train.anomalies", anomalies.len() as u64);
        }
        for a in &anomalies {
            self.anomaly_total += 1;
            tlm::warn("anomaly", |e| {
                let mut e = e
                    .str("anomaly_kind", a.kind.as_str())
                    .str("signal", a.signal)
                    .u64("iter", iter as u64)
                    .f64("value", a.value as f64)
                    .f64("threshold", a.threshold as f64)
                    .f64("zscore", a.zscore as f64);
                if let Some(k) = a.agent {
                    e = e.u64("agent", k as u64);
                }
                e.msg(format!("{} on {}", a.kind.as_str(), a.signal))
            });
        }
        stats.anomalies = anomalies;
        // A latch, not a rate: once any anomaly has fired this run, the
        // gauge stays 1 so a scrape can't miss a transient between windows.
        tlm::gauge_set("train.anomaly_latch", if self.anomaly_total > 0 { 1.0 } else { 0.0 });

        if let Some(rec) = self.recorder.as_mut() {
            if let Err(err) = rec.record(iter, stats, stats.anomalies.len()) {
                tlm::warn("diagnostics_io", |e| {
                    e.str("what", "append training_curves").str("error", err.to_string())
                });
                self.recorder = None;
            }
        }

        self.history.push(iter, stats);
        self.observed += 1;
        if self.cfg.report_every > 0 && self.observed.is_multiple_of(self.cfg.report_every) {
            eprint!("{}", self.history.render());
        }
    }

    /// Flush exports, print the final health report, and emit a summary
    /// event. Called once at the end of `train()`.
    pub fn finish(&mut self) {
        if let Some(rec) = self.recorder.as_mut() {
            if let Err(err) = rec.flush() {
                tlm::warn("diagnostics_io", |e| {
                    e.str("what", "flush training_curves").str("error", err.to_string())
                });
            }
        }
        if !self.history.is_empty() {
            eprint!("{}", self.history.render());
        }
        let rows = self.recorder.as_ref().map_or(0, TimeSeriesRecorder::rows);
        let total = self.anomaly_total;
        let observed = self.observed;
        tlm::emit_with(tlm::Level::Info, "diagnostics_summary", |e| {
            e.u64("iterations", observed as u64)
                .u64("anomalies", total as u64)
                .u64("curve_rows", rows as u64)
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn healthy_stats() -> IterationStats {
        IterationStats {
            ppo: crate::agent::PpoStats { entropy: 1.5, approx_kl: 0.01, ..Default::default() },
            value_loss: 1.0,
            lcf_degrees: vec![(10.0, 45.0); 2],
            collection_share: vec![0.5, 0.5],
            intrinsic_share: vec![0.5, 0.5],
            ..Default::default()
        }
    }

    #[test]
    fn observe_stamps_anomalies_and_counts_them() {
        let mut d = Diagnostics::new(2, 1, DiagnosticsConfig::default(), None);
        let mut s = healthy_stats();
        d.observe(0, &mut s);
        assert!(s.anomalies.is_empty());
        let mut collapsed = healthy_stats();
        collapsed.ppo.entropy = -3.5;
        d.observe(1, &mut collapsed);
        assert_eq!(collapsed.anomalies.len(), 1);
        assert_eq!(collapsed.anomalies[0].kind, AnomalyKind::EntropyCollapse);
        assert_eq!(d.anomaly_total(), 1);
        d.finish();
    }

    #[test]
    fn curve_files_are_written_when_a_dir_is_given() {
        let dir = std::env::temp_dir().join(format!("agsc-diag-{}", std::process::id()));
        let mut d = Diagnostics::new(2, 1, DiagnosticsConfig::default(), Some(&dir));
        for i in 0..3 {
            let mut s = healthy_stats();
            d.observe(i, &mut s);
        }
        d.finish();
        let csv_path = d.csv_path().expect("recorder active").to_path_buf();
        let csv = std::fs::read_to_string(csv_path).unwrap();
        assert_eq!(csv.lines().count(), 4, "header + 3 rows");
        std::fs::remove_dir_all(&dir).ok();
    }
}
