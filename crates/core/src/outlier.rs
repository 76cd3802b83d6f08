//! Overloading-PE detection (Algorithm 1, line 19).
//!
//! "A PE is considered overloading if the z-score of its WIR in the
//! distribution of the WIR created from the database exceeds 3.0."
//!
//! Besides the paper's z-score test this module provides a robust variant
//! (median / MAD), which stays reliable when the overloader fraction is
//! large enough to inflate the standard deviation — a failure mode the
//! z-score rule exhibits above ~15 % overloaders (see tests).

use serde::{Deserialize, Serialize};

/// The paper's outlier threshold (Algorithm 1).
pub const DEFAULT_Z_THRESHOLD: f64 = 3.0;

/// Arithmetic mean (0 for an empty slice).
pub fn mean(values: &[f64]) -> f64 {
    mean_iter(values.iter().copied(), values.len())
}

/// Population standard deviation (0 for fewer than two values).
pub fn std_dev(values: &[f64]) -> f64 {
    std_dev_iter(values.iter().copied(), values.len())
}

/// Streaming [`mean`] over a population of `n` values — the identical
/// left-to-right summation, so the result is bit-identical to the slice
/// version without materializing the slice.
pub fn mean_iter<I: Iterator<Item = f64>>(values: I, n: usize) -> f64 {
    if n == 0 {
        return 0.0;
    }
    values.sum::<f64>() / n as f64
}

/// Streaming [`std_dev`] over a population of `n` values; the iterator is
/// replayed (`Clone`) for the two passes, preserving the dense version's
/// exact evaluation order.
pub fn std_dev_iter<I: Iterator<Item = f64> + Clone>(values: I, n: usize) -> f64 {
    if n < 2 {
        return 0.0;
    }
    let m = mean_iter(values.clone(), n);
    (values.map(|v| (v - m) * (v - m)).sum::<f64>() / n as f64).sqrt()
}

/// The `(mean, population σ)` pair parameterizing [`z_scores`], computed
/// streaming. With these, `z_from(x, mean, sd)` reproduces `z_scores`'s
/// entry for any `x` of the population bit-for-bit. Over a sparse WIR
/// database, [`WirDatabase::z_params`](crate::db::WirDatabase::z_params)
/// gives the same pair without streaming the unknown ranks' fill.
pub fn z_params<I: Iterator<Item = f64> + Clone>(values: I, n: usize) -> (f64, f64) {
    (mean_iter(values.clone(), n), std_dev_iter(values, n))
}

/// `n` successive additions of `c` to `s`: bit for bit the value of
/// `(0..n).fold(s, |s, _| s + c)`, for every input, in `O(log n)` real
/// additions instead of `n`.
///
/// This is what lets statistics over a sparse population with one
/// repeated fill value skip the fill without changing a single bit (see
/// [`WirDatabase::dense_sum`](crate::db::WirDatabase::dense_sum)). Inside
/// one binade the grid spacing `u` is fixed, so from any grid point the
/// rounded sum `fl(s + c)` moves by the same whole number of `u` —
/// except on a tie (`c` exactly halfway between two steps), where the
/// step depends on the parity of the significand. The loop therefore
/// does one real add, reads the step off the bit patterns, and jumps by
/// integer arithmetic to the last grid point the same step reaches
/// inside the binade. It does a real add at every binade crossing, on a
/// tie from an odd significand, from zero and for non-finite values, and
/// it stops as soon as an add leaves `s` unchanged (every later add then
/// repeats it).
pub fn add_repeated(mut s: f64, c: f64, mut n: usize) -> f64 {
    const SIGN: u64 = 1 << 63;
    const EXP: u64 = 0x7ff << 52;
    const MANT: u64 = (1 << 52) - 1;
    while n > 0 {
        let next = s + c;
        n -= 1;
        let (sb, nb) = (s.to_bits(), next.to_bits());
        if n == 0 || nb == sb {
            return next;
        }
        let binade = sb & EXP;
        // Jump only between finite, non-zero, same-sign values of one
        // binade; there `next - s` and `c - (next - s)` are both exact.
        if (sb ^ nb) & (SIGN | EXP) != 0 || binade == EXP || s == 0.0 {
            s = next;
            continue;
        }
        let ulp = f64::from_bits(binade | 1) - f64::from_bits(binade);
        let tie = 2.0 * (c - (next - s)).abs() == ulp;
        // On a tie the step is constant only from an even significand
        // (ties go to even, so every step then lands on an even one).
        if tie && sb & 1 == 1 {
            s = next;
            continue;
        }
        // Magnitude bit patterns are the grid index within the binade.
        let (from, to) = ((sb & !SIGN) as i64, (nb & !SIGN) as i64);
        let step = to - from;
        // Every jumped landing point must stay in the binade's interior:
        // at most its largest value, and strictly above its power of two
        // (a landing point there would round on the finer grid below).
        let room = if step > 0 { (binade | MANT) as i64 - to } else { to - binade as i64 - 1 };
        let jumps = (room.max(0) / step.abs()).min(n as i64);
        s = f64::from_bits((sb & SIGN) | (to + jumps * step) as u64);
        n -= jumps as usize;
    }
    s
}

/// z-score of `value` given precomputed [`z_params`] (0 when the
/// population has zero spread: nobody is an outlier).
pub fn z_from(value: f64, mean: f64, sd: f64) -> f64 {
    if sd == 0.0 {
        0.0
    } else {
        (value - mean) / sd
    }
}

/// Median of a slice (0 for an empty slice). `O(n log n)`.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("finite values"));
    let n = sorted.len();
    if n % 2 == 1 {
        sorted[n / 2]
    } else {
        (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0
    }
}

/// z-score of `value` within the population described by `values`.
///
/// Returns 0 when the population has zero spread (all equal: nobody is an
/// outlier).
pub fn z_score(value: f64, values: &[f64]) -> f64 {
    let sd = std_dev(values);
    if sd == 0.0 {
        return 0.0;
    }
    (value - mean(values)) / sd
}

/// z-scores of every element of `values` within `values`.
pub fn z_scores(values: &[f64]) -> Vec<f64> {
    let (m, sd) = z_params(values.iter().copied(), values.len());
    values.iter().map(|&v| z_from(v, m, sd)).collect()
}

/// Robust z-scores: `0.6745·(x − median)/MAD` (the 0.6745 factor makes the
/// MAD consistent with the standard deviation under normality).
///
/// When the MAD degenerates to zero (more than half the values identical),
/// falls back to the mean absolute deviation with its consistency factor
/// 1.2533; if that is also zero every score is zero (no spread, no outliers).
pub fn robust_z_scores(values: &[f64]) -> Vec<f64> {
    let med = median(values);
    let deviations: Vec<f64> = values.iter().map(|v| (v - med).abs()).collect();
    let robust = RobustParams::new(med, median(&deviations), || mean(&deviations));
    values.iter().map(|&v| robust.score(v)).collect()
}

/// What parameterizes [`robust_z_scores`]: the median and the scale with
/// its consistency factor. With these, [`score`](Self::score) reproduces
/// `robust_z_scores`'s entry for any value of the population bit for bit
/// — the path for consumers that get the order statistics without a
/// dense copy (see `WirDatabase::robust_params`).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RobustParams {
    /// Population median.
    pub median: f64,
    /// The MAD, or the mean absolute deviation when the MAD is zero.
    pub scale: f64,
    /// The scale's consistency factor (0.6745 or 1.2533).
    pub factor: f64,
}

impl RobustParams {
    /// From the median and the MAD; `mean_deviation` (the mean absolute
    /// deviation, summed in population order) is only evaluated when the
    /// MAD is not positive.
    pub fn new(median: f64, mad: f64, mean_deviation: impl FnOnce() -> f64) -> Self {
        let (scale, factor) = if mad > 0.0 { (mad, 0.6745) } else { (mean_deviation(), 1.2533) };
        Self { median, scale, factor }
    }

    /// Robust z-score of `value` (0 when the population has no spread).
    pub fn score(&self, value: f64) -> f64 {
        if self.scale == 0.0 {
            0.0
        } else {
            self.factor * (value - self.median) / self.scale
        }
    }
}

/// Which detection statistic to use.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum DetectionStat {
    /// The paper's plain z-score (mean/σ).
    ZScore,
    /// Median/MAD robust z-score (our extension).
    RobustZScore,
}

/// Per-rank overloading verdicts: `flags[r]` is true when rank `r`'s WIR is
/// an upper outlier at `threshold`.
pub fn detect_overloading(wirs: &[f64], threshold: f64, stat: DetectionStat) -> Vec<bool> {
    let scores = match stat {
        DetectionStat::ZScore => z_scores(wirs),
        DetectionStat::RobustZScore => robust_z_scores(wirs),
    };
    scores.iter().map(|&z| z > threshold).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn basic_statistics() {
        let v = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(mean(&v), 2.5);
        assert!((std_dev(&v) - (1.25f64).sqrt()).abs() < 1e-12);
        assert_eq!(median(&v), 2.5);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
    }

    #[test]
    fn empty_and_singleton() {
        assert_eq!(mean(&[]), 0.0);
        assert_eq!(std_dev(&[]), 0.0);
        assert_eq!(std_dev(&[5.0]), 0.0);
        assert_eq!(median(&[]), 0.0);
        assert_eq!(z_score(1.0, &[1.0]), 0.0);
    }

    #[test]
    fn uniform_population_has_no_outliers() {
        let wirs = vec![2.0; 32];
        let flags = detect_overloading(&wirs, DEFAULT_Z_THRESHOLD, DetectionStat::ZScore);
        assert!(flags.iter().all(|&f| !f));
    }

    #[test]
    fn single_overloader_among_32_is_detected() {
        // The Fig. 4 scenario: one strongly erodible rock among 32 ranks.
        let mut wirs = vec![1.0; 32];
        wirs[7] = 50.0;
        let flags = detect_overloading(&wirs, DEFAULT_Z_THRESHOLD, DetectionStat::ZScore);
        assert_eq!(flags.iter().filter(|&&f| f).count(), 1);
        assert!(flags[7]);
    }

    #[test]
    fn three_overloaders_among_32_detected() {
        // k=3, n=32: z = sqrt((n−k)/k) ≈ 3.11 > 3, just above threshold.
        let mut wirs = vec![0.0; 32];
        for r in [1, 10, 20] {
            wirs[r] = 1.0;
        }
        let flags = detect_overloading(&wirs, DEFAULT_Z_THRESHOLD, DetectionStat::ZScore);
        assert_eq!(flags.iter().filter(|&&f| f).count(), 3);
    }

    #[test]
    fn zscore_misses_large_outlier_fractions_but_robust_does_not() {
        // k=8 of n=32 (25 %): z = sqrt(24/8) ≈ 1.73 < 3 — the paper's rule
        // goes blind; the MAD-based rule still flags them.
        let mut wirs = vec![0.0; 32];
        for w in wirs.iter_mut().take(8) {
            *w = 1.0;
        }
        let z = detect_overloading(&wirs, DEFAULT_Z_THRESHOLD, DetectionStat::ZScore);
        assert_eq!(z.iter().filter(|&&f| f).count(), 0, "plain z-score is blind here");
        let robust = detect_overloading(&wirs, DEFAULT_Z_THRESHOLD, DetectionStat::RobustZScore);
        assert_eq!(robust.iter().filter(|&&f| f).count(), 8);
    }

    #[test]
    fn negative_outliers_not_flagged() {
        // Detection is one-sided: an *underloading* PE is not "overloading".
        let mut wirs = vec![10.0; 32];
        wirs[0] = -100.0;
        let flags = detect_overloading(&wirs, DEFAULT_Z_THRESHOLD, DetectionStat::ZScore);
        assert!(!flags[0]);
    }

    #[test]
    fn streaming_statistics_are_bit_identical_to_dense() {
        let v = [3.25, -1.5, 0.0, 7.0, 7.0, -2.75, 1e9, 0.125];
        let it = || v.iter().copied();
        assert_eq!(mean_iter(it(), v.len()).to_bits(), mean(&v).to_bits());
        assert_eq!(std_dev_iter(it(), v.len()).to_bits(), std_dev(&v).to_bits());
        let (m, sd) = z_params(it(), v.len());
        for (x, z) in v.iter().zip(z_scores(&v)) {
            assert_eq!(z_from(*x, m, sd).to_bits(), z.to_bits());
        }
    }

    #[test]
    fn zscores_standardize() {
        let v = [0.0, 10.0];
        let z = z_scores(&v);
        assert!((z[0] + 1.0).abs() < 1e-12);
        assert!((z[1] - 1.0).abs() < 1e-12);
    }

    #[test]
    fn robust_zero_mad_falls_back_to_mean_deviation() {
        // Majority identical ⇒ MAD = 0; the mean-absolute-deviation fallback
        // still isolates the outlier.
        let v = [1.0, 1.0, 1.0, 9.0];
        let z = robust_z_scores(&v);
        assert!(z[3] > DEFAULT_Z_THRESHOLD, "outlier score {}", z[3]);
        assert!(z[0].abs() < 1.0);
    }

    #[test]
    fn robust_all_equal_is_silent() {
        let z = robust_z_scores(&[4.0; 16]);
        assert!(z.iter().all(|&s| s == 0.0));
    }
}
