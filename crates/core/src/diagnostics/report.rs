//! Terminal health reports: a rolling window of key learning signals
//! rendered as unicode sparklines, printed periodically during training.

use crate::trainer::IterationStats;

/// One iteration condensed to the signals the health report plots.
#[derive(Debug, Clone, Copy)]
pub struct HealthSample {
    /// Global iteration index.
    pub iter: usize,
    /// Mean extrinsic reward.
    pub reward: f32,
    /// Policy entropy.
    pub entropy: f32,
    /// Approximate KL of the final update.
    pub approx_kl: f32,
    /// Critic loss.
    pub value_loss: f32,
    /// Explained variance of the value function.
    pub explained_variance: f32,
    /// Energy efficiency λ (the paper's headline metric).
    pub efficiency: f32,
    /// Mean φ across UAVs (degrees).
    pub uav_phi_deg: f32,
    /// Mean φ across UGVs (degrees).
    pub ugv_phi_deg: f32,
    /// Whether the NaN guard rolled this iteration back.
    pub skipped: bool,
    /// Anomalies raised this iteration.
    pub anomalies: usize,
}

impl HealthSample {
    /// Condense one iteration; `num_uavs` splits the fleet's LCF angles
    /// into the UAV and UGV means.
    pub fn from_stats(iter: usize, stats: &IterationStats, num_uavs: usize) -> Self {
        let phis: Vec<f32> = stats.lcf_degrees.iter().map(|&(phi, _)| phi).collect();
        let split = num_uavs.min(phis.len());
        Self {
            iter,
            reward: stats.mean_ext_reward,
            entropy: stats.ppo.entropy,
            approx_kl: stats.ppo.approx_kl,
            value_loss: stats.value_loss,
            explained_variance: stats.explained_variance,
            efficiency: stats.train_metrics.efficiency as f32,
            uav_phi_deg: mean(&phis[..split]),
            ugv_phi_deg: mean(&phis[split..]),
            skipped: stats.update_skipped,
            anomalies: stats.anomalies.len(),
        }
    }
}

/// One rendered metric: its label and how to read it off a sample.
type Column = (&'static str, fn(&HealthSample) -> f32);

fn mean(xs: &[f32]) -> f32 {
    if xs.is_empty() {
        f32::NAN
    } else {
        xs.iter().sum::<f32>() / xs.len() as f32
    }
}

/// Bounded window of [`HealthSample`]s with a sparkline renderer.
#[derive(Debug)]
pub struct HealthHistory {
    window: Vec<HealthSample>,
    cap: usize,
    num_uavs: usize,
    total_skipped: usize,
    total_anomalies: usize,
}

impl HealthHistory {
    /// History keeping the most recent `cap` samples.
    pub fn new(cap: usize, num_uavs: usize) -> Self {
        Self { window: Vec::new(), cap: cap.max(2), num_uavs, total_skipped: 0, total_anomalies: 0 }
    }

    /// Fold in one iteration.
    pub fn push(&mut self, iter: usize, stats: &IterationStats) {
        let s = HealthSample::from_stats(iter, stats, self.num_uavs);
        self.total_skipped += s.skipped as usize;
        self.total_anomalies += s.anomalies;
        if self.window.len() == self.cap {
            self.window.remove(0);
        }
        self.window.push(s);
    }

    /// Samples currently in the window.
    pub fn len(&self) -> usize {
        self.window.len()
    }

    /// True when nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.window.is_empty()
    }

    /// Render the multi-line health report for the current window.
    pub fn render(&self) -> String {
        if self.window.is_empty() {
            return String::from("health: no iterations recorded\n");
        }
        let first = self.window.first().unwrap().iter;
        let last = self.window.last().unwrap().iter;
        let mut out = format!(
            "── learning health · iters {first}..{last} · {} skipped · {} anomalies ──\n",
            self.total_skipped, self.total_anomalies,
        );
        let rows: [Column; 8] = [
            ("reward", |s| s.reward),
            ("entropy", |s| s.entropy),
            ("approx_kl", |s| s.approx_kl),
            ("value_loss", |s| s.value_loss),
            ("explained_var", |s| s.explained_variance),
            ("efficiency λ", |s| s.efficiency),
            ("uav φ (deg)", |s| s.uav_phi_deg),
            ("ugv φ (deg)", |s| s.ugv_phi_deg),
        ];
        for (label, get) in rows {
            let series: Vec<f32> = self.window.iter().map(get).collect();
            let latest = *series.last().unwrap();
            let latest =
                if latest.is_finite() { format!("{latest:>10.4}") } else { "       n/a".into() };
            out.push_str(&format!("  {label:<14} {} {latest}\n", sparkline(&series)));
        }
        out
    }
}

/// The eight-level unicode sparkline glyphs, plus `·` for non-finite.
const BARS: [char; 8] = ['▁', '▂', '▃', '▄', '▅', '▆', '▇', '█'];

/// Render a numeric series as a sparkline. Non-finite samples render as
/// `·`; a flat series renders at mid height.
pub fn sparkline(series: &[f32]) -> String {
    let finite: Vec<f32> = series.iter().copied().filter(|v| v.is_finite()).collect();
    if finite.is_empty() {
        return "·".repeat(series.len());
    }
    let lo = finite.iter().copied().fold(f32::INFINITY, f32::min);
    let hi = finite.iter().copied().fold(f32::NEG_INFINITY, f32::max);
    let span = hi - lo;
    series
        .iter()
        .map(|&v| {
            if !v.is_finite() {
                '·'
            } else if span <= f32::EPSILON * hi.abs().max(1.0) {
                BARS[3]
            } else {
                let t = ((v - lo) / span * 7.0).round() as usize;
                BARS[t.min(7)]
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sparkline_spans_the_range_and_marks_non_finite() {
        let s = sparkline(&[0.0, 1.0, f32::NAN, 0.5]);
        let chars: Vec<char> = s.chars().collect();
        assert_eq!(chars[0], '▁');
        assert_eq!(chars[1], '█');
        assert_eq!(chars[2], '·');
        assert_eq!(chars[3], '▅');
    }

    #[test]
    fn sparkline_flat_series_is_mid_height() {
        assert_eq!(sparkline(&[2.0, 2.0, 2.0]), "▄▄▄");
    }

    #[test]
    fn sparkline_all_nan() {
        assert_eq!(sparkline(&[f32::NAN, f32::NAN]), "··");
    }

    #[test]
    fn history_is_bounded_and_renders_every_signal() {
        let mut h = HealthHistory::new(4, 1);
        for i in 0..10 {
            let stats = IterationStats {
                mean_ext_reward: i as f32,
                lcf_degrees: vec![(5.0, 45.0), (10.0, 45.0)],
                update_skipped: i == 3,
                ..Default::default()
            };
            h.push(i, &stats);
        }
        assert_eq!(h.len(), 4);
        let r = h.render();
        assert!(r.contains("iters 6..9"), "window shows the last cap iters: {r}");
        assert!(r.contains("1 skipped"), "skip totals survive window eviction: {r}");
        for label in ["reward", "entropy", "approx_kl", "value_loss", "uav φ", "ugv φ"] {
            assert!(r.contains(label), "missing row {label} in {r}");
        }
    }

    #[test]
    fn sample_splits_fleet_phi_by_kind() {
        let stats = IterationStats {
            lcf_degrees: vec![(10.0, 45.0), (20.0, 45.0), (60.0, 45.0)],
            ..Default::default()
        };
        let s = HealthSample::from_stats(0, &stats, 2);
        assert!((s.uav_phi_deg - 15.0).abs() < 1e-5);
        assert!((s.ugv_phi_deg - 60.0).abs() < 1e-5);
    }
}
