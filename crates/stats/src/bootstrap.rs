//! Bootstrap confidence intervals (percentile method).
//!
//! The paper reports bare Likert means; a careful reanalysis attaches
//! uncertainty. With n = 22 and a bounded 1–5 scale, the nonparametric
//! bootstrap is the honest tool: resample with replacement, recompute
//! the mean, take percentiles. Deterministic (counter-based splitmix64
//! RNG), so results are reproducible without any RNG dependency.

use crate::describe::mean;
use crate::{Result, StatsError};

/// splitmix64, the same finalizer as `pdc_chaos::splitmix64`: pdc-stats
/// has no dependency that could supply it.
fn mix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E3779B97F4A7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
    z ^ (z >> 31)
}

/// A bootstrap percentile confidence interval.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BootstrapCi {
    /// Lower bound.
    pub lo: f64,
    /// Upper bound.
    pub hi: f64,
    /// The point estimate (sample mean).
    pub estimate: f64,
    /// Resamples drawn.
    pub resamples: usize,
}

impl BootstrapCi {
    /// Does the interval contain a value?
    pub fn contains(&self, v: f64) -> bool {
        (self.lo..=self.hi).contains(&v)
    }

    /// Interval width.
    pub fn width(&self) -> f64 {
        self.hi - self.lo
    }
}

/// Percentile-bootstrap CI for the mean at confidence `1 - alpha`.
///
/// `resamples` of 1000+ are typical; the tests use 2000. Deterministic
/// in `seed`.
pub fn bootstrap_mean_ci(
    xs: &[f64],
    resamples: usize,
    alpha: f64,
    seed: u64,
) -> Result<BootstrapCi> {
    if xs.len() < 2 {
        return Err(StatsError::TooFewSamples {
            needed: 2,
            got: xs.len(),
        });
    }
    if !(0.0 < alpha && alpha < 1.0) {
        return Err(StatsError::InvalidParameter("alpha must be in (0,1)"));
    }
    if resamples < 10 {
        return Err(StatsError::InvalidParameter("need at least 10 resamples"));
    }
    let n = xs.len();
    let mut means = Vec::with_capacity(resamples);
    for r in 0..resamples {
        let mut acc = 0.0;
        for i in 0..n {
            let idx = (mix(seed ^ mix(r as u64) ^ mix(i as u64 + 1)) % n as u64) as usize;
            acc += xs[idx];
        }
        means.push(acc / n as f64);
    }
    means.sort_by(|a, b| a.partial_cmp(b).expect("no NaN means"));
    let lo_idx = ((alpha / 2.0) * resamples as f64).floor() as usize;
    let hi_idx = (((1.0 - alpha / 2.0) * resamples as f64).ceil() as usize).min(resamples - 1);
    Ok(BootstrapCi {
        lo: means[lo_idx],
        hi: means[hi_idx],
        estimate: mean(xs)?,
        resamples,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn likert22() -> Vec<f64> {
        // A Table-II-like vector: 12 fives, 10 fours (mean 4.545).
        let mut v = vec![5.0; 12];
        v.extend(vec![4.0; 10]);
        v
    }

    #[test]
    fn ci_contains_the_sample_mean() {
        let ci = bootstrap_mean_ci(&likert22(), 2000, 0.05, 42).unwrap();
        assert!(ci.contains(ci.estimate), "{ci:?}");
        assert!(ci.lo >= 4.0 && ci.hi <= 5.0, "bounded scale: {ci:?}");
    }

    #[test]
    fn deterministic_in_seed() {
        let a = bootstrap_mean_ci(&likert22(), 500, 0.05, 1).unwrap();
        let b = bootstrap_mean_ci(&likert22(), 500, 0.05, 1).unwrap();
        assert_eq!(a, b);
        let c = bootstrap_mean_ci(&likert22(), 500, 0.05, 2).unwrap();
        assert_ne!(a, c);
    }

    #[test]
    fn wider_at_higher_confidence() {
        let ci95 = bootstrap_mean_ci(&likert22(), 2000, 0.05, 7).unwrap();
        let ci50 = bootstrap_mean_ci(&likert22(), 2000, 0.50, 7).unwrap();
        assert!(ci95.width() > ci50.width());
    }

    #[test]
    fn narrows_with_sample_size() {
        let small = likert22();
        let big: Vec<f64> = small.iter().cycle().take(220).cloned().collect();
        let ci_small = bootstrap_mean_ci(&small, 2000, 0.05, 3).unwrap();
        let ci_big = bootstrap_mean_ci(&big, 2000, 0.05, 3).unwrap();
        assert!(ci_big.width() < ci_small.width());
    }

    #[test]
    fn degenerate_constant_sample_has_zero_width() {
        let ci = bootstrap_mean_ci(&[4.0; 22], 200, 0.05, 0).unwrap();
        assert_eq!(ci.width(), 0.0);
        assert_eq!(ci.estimate, 4.0);
    }

    #[test]
    fn input_validation() {
        assert!(bootstrap_mean_ci(&[1.0], 100, 0.05, 0).is_err());
        assert!(bootstrap_mean_ci(&[1.0, 2.0], 100, 0.0, 0).is_err());
        assert!(bootstrap_mean_ci(&[1.0, 2.0], 5, 0.05, 0).is_err());
    }
}
