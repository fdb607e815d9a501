//! The serializable insight artifact (`artifacts/BENCH_insight.json`).
//!
//! One [`InsightReport`] holds, per study, the critical-path breakdown,
//! the scaling table (speedup / efficiency / Karp–Flatt per worker
//! count), and the folded histogram percentiles. Floats are rounded to
//! four decimals at construction so the JSON is byte-deterministic
//! whenever the inputs are; CI compares it across double runs. It is
//! teaching output: no perf gate reads it.

use serde::{Deserialize, Serialize};

use crate::dag::CriticalPath;
use crate::histset::HistogramSet;

/// Schema tag stamped into the artifact.
pub const SCHEMA: &str = "pdc-insight/v1";

/// Round to four decimals — the artifact's fixed float precision.
pub fn round4(x: f64) -> f64 {
    (x * 10_000.0).round() / 10_000.0
}

/// Critical-path attribution of one study, nanoseconds per category.
/// The categories sum to `wall_ns` exactly — every nanosecond of the
/// wall interval is attributed.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct PathSummary {
    pub wall_ns: u64,
    pub compute_ns: u64,
    pub barrier_ns: u64,
    pub lock_ns: u64,
    pub wire_ns: u64,
    pub idle_ns: u64,
    /// Number of steps (lane intervals) on the path.
    pub steps: usize,
}

impl From<&CriticalPath> for PathSummary {
    fn from(cp: &CriticalPath) -> Self {
        PathSummary {
            wall_ns: cp.wall_ns,
            compute_ns: cp.breakdown.compute_ns,
            barrier_ns: cp.breakdown.barrier_ns,
            lock_ns: cp.breakdown.lock_ns,
            wire_ns: cp.breakdown.wire_ns,
            idle_ns: cp.breakdown.idle_ns,
            steps: cp.steps.len(),
        }
    }
}

impl PathSummary {
    /// Sum over all categories.
    pub fn total_ns(&self) -> u64 {
        self.compute_ns + self.barrier_ns + self.lock_ns + self.wire_ns + self.idle_ns
    }

    /// `(label, ns)` pairs in fixed display order.
    pub fn parts(&self) -> [(&'static str, u64); 5] {
        [
            ("compute", self.compute_ns),
            ("barrier", self.barrier_ns),
            ("lock", self.lock_ns),
            ("wire", self.wire_ns),
            ("idle", self.idle_ns),
        ]
    }
}

/// One row of a study's scaling table.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ScalingRow {
    /// Worker count.
    pub p: usize,
    /// Modeled/measured wall time at `p` workers, seconds.
    pub time_s: f64,
    /// `T(1) / T(p)`.
    pub speedup: f64,
    /// `speedup / p`.
    pub efficiency: f64,
    /// Karp–Flatt experimentally determined serial fraction
    /// (`NaN`-free: 0 for `p == 1`).
    pub karp_flatt: f64,
}

impl ScalingRow {
    /// Build a row with the artifact's fixed rounding applied.
    pub fn new(p: usize, time_s: f64, speedup: f64, efficiency: f64, karp_flatt: f64) -> Self {
        ScalingRow {
            p,
            time_s: round4(time_s),
            speedup: round4(speedup),
            efficiency: round4(efficiency),
            karp_flatt: round4(karp_flatt),
        }
    }
}

/// Folded percentile summary of one histogram metric.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct HistSummary {
    pub cat: String,
    pub name: String,
    pub count: u64,
    pub p50_ns: u64,
    pub p90_ns: u64,
    pub p99_ns: u64,
    pub max_ns: u64,
}

/// All histogram metrics of a set, in deterministic order.
pub fn hist_summaries(set: &HistogramSet) -> Vec<HistSummary> {
    set.iter()
        .map(|(cat, name, h)| {
            let (p50, p90, p99) = h.quantiles();
            HistSummary {
                cat: cat.to_owned(),
                name: name.to_owned(),
                count: h.count(),
                p50_ns: p50,
                p90_ns: p90,
                p99_ns: p99,
                max_ns: h.max(),
            }
        })
        .collect()
}

/// One study's insight: where its time went and how it scaled.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct StudyInsight {
    /// Study name (`"module A"`, `"module B"`, `"net"`).
    pub study: String,
    pub path: PathSummary,
    pub scaling: Vec<ScalingRow>,
    pub histograms: Vec<HistSummary>,
}

/// The full insight artifact.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct InsightReport {
    pub schema: String,
    pub studies: Vec<StudyInsight>,
}

impl InsightReport {
    /// A report over the given studies.
    pub fn new(studies: Vec<StudyInsight>) -> Self {
        InsightReport {
            schema: SCHEMA.to_owned(),
            studies,
        }
    }

    /// Internal consistency gate: every study's attribution must cover
    /// its wall interval exactly, scaling tables must be sane
    /// (positive times, `p=1` row present with speedup 1), and
    /// histogram percentiles must be ordered. `reproduce --insight`
    /// exits nonzero when this fails.
    pub fn passed(&self) -> bool {
        !self.studies.is_empty()
            && self.studies.iter().all(|s| {
                s.path.total_ns() == s.path.wall_ns
                    && s.path.wall_ns > 0
                    && s.scaling.iter().all(|r| r.time_s > 0.0 && r.speedup > 0.0)
                    && s.histograms
                        .iter()
                        .all(|h| h.p50_ns <= h.p90_ns && h.p90_ns <= h.p99_ns)
            })
    }

    /// Deterministic pretty JSON.
    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(self).expect("report serializes")
    }

    /// Parse an artifact previously written by [`InsightReport::to_json`].
    pub fn from_json(json: &str) -> Result<Self, String> {
        serde_json::from_str(json).map_err(|e| format!("bad insight artifact: {e:?}"))
    }

    /// Human-readable rendering for the terminal.
    pub fn render(&self) -> String {
        let mut out = String::from("Insight study:\n");
        for s in &self.studies {
            out.push_str(&format!(
                "  {} — critical path {:.3} ms over {} steps:\n",
                s.study,
                s.path.wall_ns as f64 / 1e6,
                s.path.steps
            ));
            for (label, ns) in s.path.parts() {
                if ns == 0 {
                    continue;
                }
                out.push_str(&format!(
                    "    {:<8} {:>10.3} ms  ({:>5.1}%)\n",
                    label,
                    ns as f64 / 1e6,
                    100.0 * ns as f64 / s.path.wall_ns as f64
                ));
            }
            if !s.scaling.is_empty() {
                out.push_str("    p   time(s)   speedup  efficiency  karp-flatt\n");
                for r in &s.scaling {
                    out.push_str(&format!(
                        "    {:<3} {:>8.4}  {:>7.3}  {:>9.3}  {:>9.4}\n",
                        r.p, r.time_s, r.speedup, r.efficiency, r.karp_flatt
                    ));
                }
            }
            for h in &s.histograms {
                out.push_str(&format!(
                    "    hist {}/{:<16} n={:<6} p50={} p90={} p99={} max={} (ns)\n",
                    h.cat, h.name, h.count, h.p50_ns, h.p90_ns, h.p99_ns, h.max_ns
                ));
            }
        }
        out.push_str(&format!(
            "  verdict: {}\n",
            if self.passed() {
                "attribution covers every wall nanosecond"
            } else {
                "INCONSISTENT REPORT"
            }
        ));
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> InsightReport {
        InsightReport::new(vec![StudyInsight {
            study: "module A".into(),
            path: PathSummary {
                wall_ns: 100,
                compute_ns: 60,
                barrier_ns: 30,
                lock_ns: 0,
                wire_ns: 0,
                idle_ns: 10,
                steps: 3,
            },
            scaling: vec![
                ScalingRow::new(1, 4.0, 1.0, 1.0, 0.0),
                ScalingRow::new(4, 1.25, 3.2, 0.8, 0.0833333),
            ],
            histograms: vec![HistSummary {
                cat: "shmem".into(),
                name: "barrier_wait".into(),
                count: 12,
                p50_ns: 10,
                p90_ns: 20,
                p99_ns: 30,
                max_ns: 31,
            }],
        }])
    }

    #[test]
    fn json_round_trips() {
        let r = sample();
        let back = InsightReport::from_json(&r.to_json()).unwrap();
        assert_eq!(back, r);
        assert!(back.passed());
    }

    #[test]
    fn rounding_is_fixed_precision() {
        let row = ScalingRow::new(2, 1.0 / 3.0, 2.999999, 1.4999999, 0.123456789);
        assert_eq!(row.time_s, 0.3333);
        assert_eq!(row.speedup, 3.0);
        assert_eq!(row.efficiency, 1.5);
        assert_eq!(row.karp_flatt, 0.1235);
    }

    #[test]
    fn gate_rejects_uncovered_wall() {
        let mut r = sample();
        r.studies[0].path.idle_ns = 0; // 90 != 100
        assert!(!r.passed());
    }
}
