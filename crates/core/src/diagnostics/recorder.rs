//! Windowed time-series export of training curves.
//!
//! [`TimeSeriesRecorder`] appends one row per iteration to a CSV file
//! (spreadsheet/pandas-friendly) and a JSONL file (lossless, `null` for
//! non-finite values) inside the telemetry run directory. The first
//! recorder created in a process owns the canonical `training_curves.*`
//! names; concurrent trainers (e.g. bench sweeps running `train()` on
//! worker threads against one shared run directory) get `-<n>` suffixed
//! files instead of clobbering each other.

use std::fs::File;
use std::io::{self, BufWriter, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};

use crate::trainer::{json_number, IterationStats};

/// Process-wide count of recorders ever created; serialises file naming.
static RECORDER_SEQ: AtomicUsize = AtomicUsize::new(0);

/// Bookkeeping columns ahead of [`IterationStats::scalars`], in order.
const LEAD_COLUMNS: [&str; 3] = ["iter", "update_skipped", "nan_events"];

/// Streaming CSV + JSONL writer for per-iteration learning curves.
#[derive(Debug)]
pub struct TimeSeriesRecorder {
    csv: BufWriter<File>,
    jsonl: BufWriter<File>,
    csv_path: PathBuf,
    num_agents: usize,
    rows: usize,
}

impl TimeSeriesRecorder {
    /// Create curve files for a fleet of `num_agents` UVs inside `dir`
    /// (created if missing). The first recorder in the process gets
    /// `training_curves.csv` / `.jsonl`; later ones get `-<n>` suffixes.
    pub fn create(dir: &Path, num_agents: usize) -> io::Result<Self> {
        std::fs::create_dir_all(dir)?;
        let seq = RECORDER_SEQ.fetch_add(1, Ordering::Relaxed);
        let stem =
            if seq == 0 { "training_curves".to_string() } else { format!("training_curves-{seq}") };
        let csv_path = dir.join(format!("{stem}.csv"));
        let jsonl_path = dir.join(format!("{stem}.jsonl"));
        let mut csv = BufWriter::new(File::create(&csv_path)?);
        let jsonl = BufWriter::new(File::create(jsonl_path)?);

        let scalars = IterationStats::default().scalars().map(|(name, _)| name);
        let mut header: Vec<String> =
            LEAD_COLUMNS.into_iter().chain(scalars).map(str::to_string).collect();
        for k in 0..num_agents {
            header.push(format!("lcf_phi_deg_{k}"));
            header.push(format!("lcf_chi_deg_{k}"));
        }
        for group in ["intrinsic_share", "collection_share"] {
            header.extend((0..num_agents).map(|k| format!("{group}_{k}")));
        }
        header.push("anomalies".to_string());
        writeln!(csv, "{}", header.join(","))?;

        Ok(Self { csv, jsonl, csv_path, num_agents, rows: 0 })
    }

    /// Path of the CSV file (the JSONL sits next to it).
    pub fn csv_path(&self) -> &Path {
        &self.csv_path
    }

    /// Rows written so far.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Append one iteration. `anomaly_count` is the number of anomalies the
    /// detector raised for this row.
    pub fn record(
        &mut self,
        iter: usize,
        stats: &IterationStats,
        anomaly_count: usize,
    ) -> io::Result<()> {
        let scalars = stats.scalars();

        // CSV row. Non-finite values print as NaN, which both pandas and
        // the plotting helpers parse.
        let mut row = format!("{},{},{}", iter, stats.update_skipped as u8, stats.nan_events);
        for (_, v) in scalars {
            row.push(',');
            push_csv_f64(&mut row, v);
        }
        for k in 0..self.num_agents {
            let (phi, chi) = stats.lcf_degrees.get(k).copied().unwrap_or((f32::NAN, f32::NAN));
            row.push(',');
            push_csv_f64(&mut row, phi as f64);
            row.push(',');
            push_csv_f64(&mut row, chi as f64);
        }
        for shares in [&stats.intrinsic_share, &stats.collection_share] {
            for k in 0..self.num_agents {
                row.push(',');
                push_csv_f64(&mut row, shares.get(k).copied().unwrap_or(f32::NAN) as f64);
            }
        }
        row.push(',');
        row.push_str(&anomaly_count.to_string());
        writeln!(self.csv, "{row}")?;

        // JSONL row: same scalars keyed by column name, arrays for the
        // per-agent groups, null for non-finite.
        let mut js = format!(
            "{{\"iter\":{},\"update_skipped\":{},\"nan_events\":{}",
            iter, stats.update_skipped, stats.nan_events
        );
        for (name, v) in scalars {
            js.push_str(&format!(",\"{name}\":{}", json_number(v)));
        }
        for (name, json) in stats.per_agent_json() {
            js.push_str(&format!(",\"{name}\":{json}"));
        }
        js.push_str(&format!(",\"anomalies\":{anomaly_count}}}"));
        writeln!(self.jsonl, "{js}")?;

        self.rows += 1;
        Ok(())
    }

    /// Flush both files to disk.
    pub fn flush(&mut self) -> io::Result<()> {
        self.csv.flush()?;
        self.jsonl.flush()
    }
}

fn push_csv_f64(out: &mut String, v: f64) {
    if v.is_finite() {
        out.push_str(&format!("{v}"));
    } else {
        out.push_str("NaN");
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trainer::IterationStats;

    fn stats() -> IterationStats {
        IterationStats {
            mean_ext_reward: 1.25,
            value_loss: 0.5,
            explained_variance: 0.9,
            lcf_degrees: vec![(10.0, 45.0), (0.0, 90.0)],
            intrinsic_share: vec![0.75, 0.25],
            collection_share: vec![0.5, 0.5],
            ..Default::default()
        }
    }

    #[test]
    fn writes_header_and_rows_with_per_agent_columns() {
        let dir = std::env::temp_dir().join(format!("agsc-rec-{}", std::process::id()));
        let mut rec = TimeSeriesRecorder::create(&dir, 2).expect("create recorder");
        rec.record(0, &stats(), 0).unwrap();
        let mut bad = stats();
        bad.ppo.approx_kl = f32::NAN;
        bad.update_skipped = true;
        rec.record(1, &bad, 2).unwrap();
        rec.flush().unwrap();
        assert_eq!(rec.rows(), 2);

        let csv = std::fs::read_to_string(rec.csv_path()).unwrap();
        let lines: Vec<&str> = csv.lines().collect();
        assert_eq!(lines.len(), 3, "header + 2 rows");
        let header: Vec<&str> = lines[0].split(',').collect();
        for col in ["iter", "approx_kl", "entropy", "explained_variance", "policy_grad_norm"] {
            assert!(header.contains(&col), "missing column {col}");
        }
        assert!(header.contains(&"lcf_phi_deg_1"));
        assert!(header.contains(&"intrinsic_share_0"));
        assert!(header.contains(&"collection_share_1"));
        // Every row has exactly one cell per header column.
        for line in &lines[1..] {
            assert_eq!(line.split(',').count(), header.len());
        }
        // Skipped row flags itself and renders NaN for the poisoned cell.
        let kl_idx = header.iter().position(|&c| c == "approx_kl").unwrap();
        let row1: Vec<&str> = lines[2].split(',').collect();
        assert_eq!(row1[1], "1", "update_skipped flag");
        assert_eq!(row1[kl_idx], "NaN");

        let jsonl_path = rec.csv_path().with_extension("jsonl");
        let jsonl = std::fs::read_to_string(jsonl_path).unwrap();
        for line in jsonl.lines() {
            let v: serde_json::Value = serde_json::from_str(line).expect("valid JSONL row");
            assert!(v.get("iter").is_some());
        }
        let second: serde_json::Value =
            serde_json::from_str(jsonl.lines().nth(1).unwrap()).unwrap();
        assert!(second["approx_kl"].is_null(), "non-finite maps to null in JSONL");
        assert_eq!(second["anomalies"], 2);

        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn concurrent_recorders_get_distinct_files() {
        let dir = std::env::temp_dir().join(format!("agsc-rec2-{}", std::process::id()));
        let a = TimeSeriesRecorder::create(&dir, 1).unwrap();
        let b = TimeSeriesRecorder::create(&dir, 1).unwrap();
        assert_ne!(a.csv_path(), b.csv_path());
        std::fs::remove_dir_all(&dir).ok();
    }
}
