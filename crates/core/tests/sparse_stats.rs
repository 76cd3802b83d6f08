//! Sparse statistics against their dense oracles, bit for bit.
//!
//! Every ULBA consumer of the WIR database standardizes over the dense
//! view in which unknown ranks read as a fill value. The sparse paths —
//! `add_repeated`, `WirDatabase::{dense_sum, z_params, robust_params}` and
//! the policy functions built on them — skip the fill instead of streaming
//! it, and must still produce the dense path's exact bits. "Equal" here
//! always means equal `to_bits` (a NaN result matches any NaN).

use proptest::prelude::*;
use ulba_core::db::{WirDatabase, WirEntry};
use ulba_core::outlier::{add_repeated, robust_z_scores, z_params, z_scores, DetectionStat};
use ulba_core::policy::{estimate_ulba_overhead, outlier_score, LbPolicy, UlbaConfig};

const EXP: u64 = 0x7ff << 52;
const MANT: u64 = (1 << 52) - 1;

/// The loop `add_repeated` replaces.
fn naive(s: f64, c: f64, n: usize) -> f64 {
    (0..n).fold(s, |s, _| s + c)
}

/// Grid spacing of `s`'s binade.
fn ulp(s: f64) -> f64 {
    let binade = s.to_bits() & EXP;
    f64::from_bits(binade | 1) - f64::from_bits(binade)
}

/// A value with the given biased exponent and random sign and significand.
fn with_exponent(bits: u64, exponent: u64) -> f64 {
    f64::from_bits((bits & (1 << 63)) | (exponent << 52) | (bits & MANT))
}

/// Like [`with_exponent`], but `edge` 1 and 2 put the significand within
/// 64 ulps of the binade's floor or ceiling, so short runs cross it.
fn near_edge(bits: u64, exponent: u64, edge: u8) -> f64 {
    let significand = match edge % 3 {
        0 => bits & MANT,
        1 => bits & 63,
        _ => MANT - (bits & 63),
    };
    f64::from_bits((bits & (1 << 63)) | (exponent << 52) | significand)
}

/// Equal bits — except that any NaN matches any NaN: Rust leaves the sign
/// and payload of a NaN produced by arithmetic unspecified, so even the
/// naive loop's NaN bits may differ between two compilations.
fn assert_same(s: f64, c: f64, n: usize) -> Result<(), TestCaseError> {
    let (want, got) = (naive(s, c, n), add_repeated(s, c, n));
    prop_assert!(
        got.to_bits() == want.to_bits() || got.is_nan() && want.is_nan(),
        "s={:e} c={:e} n={}: {:e} vs {:e}",
        s,
        c,
        n,
        got,
        want
    );
    Ok(())
}

#[test]
fn add_repeated_edge_cases() {
    let specials = [
        0.0,
        -0.0,
        f64::from_bits(1),
        -f64::from_bits(1),
        f64::from_bits(MANT),
        f64::MIN_POSITIVE,
        1.0,
        -1.5,
        f64::MAX,
        -f64::MAX,
        f64::INFINITY,
        f64::NEG_INFINITY,
        f64::NAN,
        -f64::NAN,
    ];
    for &s in &specials {
        for &c in &specials {
            for n in [0, 1, 2, 3, 17, 1000] {
                assert_same(s, c, n).unwrap();
            }
        }
    }
}

#[test]
fn add_repeated_lands_one_below_the_binade_floor() {
    // From 1 + 4u, adding −1.3u steps down by one ulp until it reaches 1.0;
    // the next add rounds on the finer grid below (to 1 − 1.5u, not
    // 1 − u), so a jump must never land on the binade's power of two.
    let u = ulp(1.0);
    for start in 2..12u64 {
        let s = f64::from_bits(1.0f64.to_bits() + start);
        for c in [-1.3 * u, -1.26 * u, -2.3 * u] {
            for n in 1..16 {
                assert_same(s, c, n).unwrap();
                assert_same(-s, -c, n).unwrap();
            }
        }
    }
}

#[test]
fn add_repeated_long_runs() {
    // A million adds: crossing ~20 binades upward, a tie-laden run and a
    // run that crosses zero into the negative range.
    let n = 1_000_000;
    assert_same(0.0, 0.1, n).unwrap();
    assert_same(1.0, 1.5 * ulp(1.0), n).unwrap();
    assert_same(f64::from_bits(1.0f64.to_bits() + 1), 2.5 * ulp(1.0), n).unwrap();
    assert_same(1e5, -0.3, n).unwrap();
    assert_same(-0.0, 0.0, n).unwrap();
    assert_same(1e-310, 3e-315, n).unwrap();
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// `c` an exact half-integer number of `s`'s ulps: every step inside
    /// the binade is a tie, from odd and even significands alike.
    #[test]
    fn add_repeated_ties(bits in any::<u64>(), exponent in 960u64..1100, k in 0u64..9, n in 0usize..3000) {
        let s = with_exponent(bits, exponent);
        let c = (k as f64 + 0.5) * ulp(s);
        assert_same(s, c, n)?;
        assert_same(s, -c, n)?;
    }

    /// `c` a random multiple of `s`'s ulp, below and above half of it, in
    /// either direction, from anywhere in the binade and from near its
    /// edges, so runs cross binade edges both ways.
    #[test]
    fn add_repeated_near_the_grid(
        bits in any::<u64>(),
        exponent in 1u64..2046,
        edge in any::<u8>(),
        factor in 0.0f64..6.0,
        n in 0usize..3000,
    ) {
        let s = near_edge(bits, exponent, edge);
        let c = factor * ulp(s);
        assert_same(s, c, n)?;
        assert_same(s, -c, n)?;
    }

    /// Arbitrary magnitudes on both sides, runs long enough to cross
    /// several binades and to go through zero.
    #[test]
    fn add_repeated_crosses_binades(s in any::<f64>(), c in any::<f64>(), n in 0usize..20_000) {
        assert_same(s, c, n)?;
        assert_same(s * 1e-6, c, n)?;
        assert_same(-c * (n as f64) * 0.5, c, n)?;
    }

    /// Raw bit patterns: subnormals, zeros, infinities and NaNs included.
    #[test]
    fn add_repeated_raw_bits(sb in any::<u64>(), cb in any::<u64>(), shift in 0u32..64, n in 0usize..500) {
        assert_same(f64::from_bits(sb), f64::from_bits(cb >> shift), n)?;
        assert_same(f64::from_bits(sb >> shift), f64::from_bits(cb), n)?;
        assert_same(f64::from_bits(sb >> shift), f64::from_bits(cb >> shift), n)?;
    }
}

/// A sparse database of `size` ranks from `raw` (rank seed, WIR) pairs.
/// `style` picks the WIR population: small integers (many ties, many
/// equal to the fill), mixed-sign reals, huge values, signed zeros, or
/// negative values only (a few unknown ranks then stand out as upper
/// outliers of the zero fill).
fn database(size: usize, raw: &[(usize, f64)], style: u8) -> WirDatabase {
    let mut db = WirDatabase::new(size);
    for (i, &(seed, x)) in raw.iter().enumerate() {
        let wir = match style % 5 {
            0 => (x * 4.0).round(),
            1 => x * 1e3,
            2 => x * 1e150,
            3 => [0.0, -0.0, 1.0, -1.0][seed % 4] * x.abs().ceil(),
            _ => -1.0 - x.abs(),
        };
        db.update(WirEntry { rank: seed % size, wir, iteration: i as u64 });
    }
    db
}

/// Dense-oracle ULBA overhead: score the materialized view, fold the α.
fn dense_overhead(cfg: &UlbaConfig, db: &WirDatabase, wtot: f64, omega: f64, p: usize) -> f64 {
    let wirs = db.wirs_or(0.0);
    let scores = match cfg.stat {
        DetectionStat::ZScore => z_scores(&wirs),
        DetectionStat::RobustZScore => robust_z_scores(&wirs),
    };
    let (mut n_hat, mut sum) = (0usize, 0.0f64);
    for z in scores {
        let a = cfg.alpha_for(z);
        if a > 0.0 {
            n_hat += 1;
            sum += a;
        }
    }
    if n_hat == 0 || n_hat >= p {
        return 0.0;
    }
    let alpha_bar = sum / n_hat as f64;
    alpha_bar * n_hat as f64 / (p - n_hat) as f64 * wtot / (omega * p as f64)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(300))]

    /// `dense_sum` and `z_params` against the streamed dense view, at the
    /// zero fill and at a nonzero one.
    #[test]
    fn dense_sum_matches_streamed_view(
        size in 1usize..20_000,
        raw in proptest::collection::vec((any::<usize>(), -1.0f64..1.0), 0..40),
        style in any::<u8>(),
        fill in -3.0f64..3.0,
    ) {
        let db = database(size, &raw, style);
        for fill in [0.0, -0.0, fill, fill * 1e100] {
            let dense = z_params(db.wirs_iter(fill), size);
            let sparse = db.z_params(fill);
            prop_assert_eq!(sparse.0.to_bits(), dense.0.to_bits(), "mean, fill {}", fill);
            prop_assert_eq!(sparse.1.to_bits(), dense.1.to_bits(), "sd, fill {}", fill);
            let m = dense.0;
            let sq = |w: f64| (w - m) * (w - m);
            let streamed: f64 = db.wirs_iter(fill).map(sq).sum();
            prop_assert_eq!(db.dense_sum(fill, sq).to_bits(), streamed.to_bits());
            let streamed: f64 = db.wirs_iter(fill).sum();
            prop_assert_eq!(db.dense_sum(fill, |w| w).to_bits(), streamed.to_bits());
        }
    }

    /// `outlier_score` for every rank and `estimate_ulba_overhead`, under
    /// both detection statistics and both α rules, against the dense
    /// scores of the materialized view. Half the databases are nearly
    /// complete, so the unknown ranks' fill can itself be an outlier.
    #[test]
    fn policy_scores_match_dense_oracle(
        size in 1usize..1500,
        nearly_complete in any::<bool>(),
        raw in proptest::collection::vec((any::<usize>(), -1.0f64..1.0), 0..60),
        style in any::<u8>(),
        wtot in 1.0f64..1e9,
    ) {
        let size = if nearly_complete { 1 + size % 64 } else { size };
        let db = database(size, &raw, style);
        let wirs = db.wirs_or(0.0);
        for stat in [DetectionStat::ZScore, DetectionStat::RobustZScore] {
            let dense = match stat {
                DetectionStat::ZScore => z_scores(&wirs),
                DetectionStat::RobustZScore => robust_z_scores(&wirs),
            };
            for cfg in [UlbaConfig::fixed(0.4), UlbaConfig::z_scaled(0.8)] {
                let cfg = UlbaConfig { stat, ..cfg };
                let policy = LbPolicy::Ulba(cfg);
                for (rank, z) in dense.iter().enumerate() {
                    let got = outlier_score(&policy, &db, rank);
                    prop_assert_eq!(got.to_bits(), z.to_bits(), "{:?} rank {}", stat, rank);
                }
                let got = estimate_ulba_overhead(&policy, &db, wtot, 2.5, size);
                let want = dense_overhead(&cfg, &db, wtot, 2.5, size);
                prop_assert_eq!(got.to_bits(), want.to_bits(), "{:?} overhead", cfg);
            }
        }
    }
}

#[test]
fn robust_params_see_signed_zero_order() {
    // The median falls inside the group of values equal to the fill
    // (±0.0), where the dense stable sort keeps rank order: which zero it
    // picks depends on where the −0.0 entries sit between unknown ranks.
    for size in 1..12 {
        for mask in 0u32..(1 << size.min(8)) {
            let mut db = WirDatabase::new(size);
            for rank in 0..size.min(8) {
                match (mask >> rank) & 1 {
                    1 => db.update(WirEntry { rank, wir: -0.0, iteration: 0 }),
                    _ if rank % 3 == 2 => db.update(WirEntry { rank, wir: 1.0, iteration: 0 }),
                    _ => {}
                }
            }
            let wirs = db.wirs_or(0.0);
            let dense = robust_z_scores(&wirs);
            let robust = db.robust_params(0.0);
            for (w, z) in wirs.iter().zip(&dense) {
                assert_eq!(robust.score(*w).to_bits(), z.to_bits(), "size {size} mask {mask:b}");
            }
            let mut sorted = wirs.clone();
            sorted.sort_by(|a, b| a.partial_cmp(b).unwrap());
            let n = sorted.len();
            let median =
                if n % 2 == 1 { sorted[n / 2] } else { (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0 };
            assert_eq!(robust.median.to_bits(), median.to_bits(), "size {size} mask {mask:b}");
        }
    }
}
