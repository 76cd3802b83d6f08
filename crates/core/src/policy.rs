//! Load-balancing policies: the standard method, ULBA with a fixed α
//! (the paper), and ULBA with a z-score-scaled per-PE α (the paper's
//! announced future work, provided here as an extension for the ablation
//! study E-A2).

use crate::db::WirDatabase;
use crate::outlier::{add_repeated, z_from, DetectionStat, RobustParams, DEFAULT_Z_THRESHOLD};
use serde::{Deserialize, Serialize};

/// How an overloading PE picks its α when calling the load balancer.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum AlphaRule {
    /// The paper's rule: a user-defined constant α for every overloading PE
    /// (§III-A: "we consider that α is constant and user defined").
    Fixed(f64),
    /// Extension: scale α with how much of an outlier the PE is —
    /// `α = α_max · min(1, (z − threshold)/threshold)` for `z > threshold`.
    /// Stronger overloaders are unloaded more aggressively, as §IV-B's
    /// discussion suggests α should be adapted at runtime.
    ZScoreScaled {
        /// Maximum α handed to an extreme outlier.
        alpha_max: f64,
    },
}

/// Full ULBA configuration.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct UlbaConfig {
    /// How α is chosen for overloading PEs.
    pub rule: AlphaRule,
    /// Outlier threshold on the WIR z-score (paper: 3.0).
    pub z_threshold: f64,
    /// Which detection statistic to use (paper: plain z-score).
    pub stat: DetectionStat,
}

impl UlbaConfig {
    /// The paper's configuration: fixed α, z-score threshold 3.0.
    pub fn fixed(alpha: f64) -> Self {
        assert!((0.0..=1.0).contains(&alpha), "alpha must be in [0, 1]");
        Self {
            rule: AlphaRule::Fixed(alpha),
            z_threshold: DEFAULT_Z_THRESHOLD,
            stat: DetectionStat::ZScore,
        }
    }

    /// The dynamic-α extension with the given cap.
    pub fn z_scaled(alpha_max: f64) -> Self {
        assert!((0.0..=1.0).contains(&alpha_max));
        Self {
            rule: AlphaRule::ZScoreScaled { alpha_max },
            z_threshold: DEFAULT_Z_THRESHOLD,
            stat: DetectionStat::ZScore,
        }
    }

    /// α this PE submits given its WIR z-score (0 when not overloading).
    pub fn alpha_for(&self, z: f64) -> f64 {
        if z <= self.z_threshold {
            return 0.0;
        }
        match self.rule {
            AlphaRule::Fixed(alpha) => alpha,
            AlphaRule::ZScoreScaled { alpha_max } => {
                alpha_max * ((z - self.z_threshold) / self.z_threshold).min(1.0)
            }
        }
    }
}

/// The top-level method selector.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum LbPolicy {
    /// The standard method: every PE submits α = 0 (perfect even split).
    Standard,
    /// ULBA: overloading PEs submit their α per the configuration.
    Ulba(UlbaConfig),
}

impl LbPolicy {
    /// The paper's ULBA with a fixed α.
    pub fn ulba_fixed(alpha: f64) -> Self {
        LbPolicy::Ulba(UlbaConfig::fixed(alpha))
    }

    /// α this PE submits at an LB step given its WIR z-score.
    pub fn alpha_for(&self, z: f64) -> f64 {
        match self {
            LbPolicy::Standard => 0.0,
            LbPolicy::Ulba(cfg) => cfg.alpha_for(z),
        }
    }

    /// Short name for reports.
    pub fn name(&self) -> &'static str {
        match self {
            LbPolicy::Standard => "standard",
            LbPolicy::Ulba(UlbaConfig { rule: AlphaRule::Fixed(_), .. }) => "ulba-fixed",
            LbPolicy::Ulba(UlbaConfig { rule: AlphaRule::ZScoreScaled { .. }, .. }) => {
                "ulba-zscaled"
            }
        }
    }
}

/// Renders the policy as its [`LbPolicy::name`] plus the α parameter:
/// `standard`, `ulba-fixed:0.4`, `ulba-zscaled:0.8`. The output parses
/// back with [`std::str::FromStr`] to an equal policy (at the default
/// z-threshold and detection statistic).
impl std::fmt::Display for LbPolicy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            LbPolicy::Standard => f.write_str("standard"),
            LbPolicy::Ulba(UlbaConfig { rule: AlphaRule::Fixed(alpha), .. }) => {
                write!(f, "ulba-fixed:{alpha}")
            }
            LbPolicy::Ulba(UlbaConfig { rule: AlphaRule::ZScoreScaled { alpha_max }, .. }) => {
                write!(f, "ulba-zscaled:{alpha_max}")
            }
        }
    }
}

/// Parses [`Display`](LbPolicy#impl-Display-for-LbPolicy)'s output plus
/// the bare shorthands `ulba` / `ulba-fixed` (the paper's α = 0.4) and
/// `ulba-zscaled` (α_max = 0.4). Unknown names and out-of-range α are
/// errors, not panics.
impl std::str::FromStr for LbPolicy {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let (name, alpha) = match s.split_once(':') {
            Some((name, raw)) => {
                let alpha: f64 =
                    raw.parse().map_err(|_| format!("bad α {raw:?} in LB policy {s:?}"))?;
                if !(0.0..=1.0).contains(&alpha) {
                    return Err(format!("α must be in [0, 1], got {alpha} in {s:?}"));
                }
                (name, Some(alpha))
            }
            None => (s, None),
        };
        match name {
            "standard" => match alpha {
                None => Ok(LbPolicy::Standard),
                Some(_) => Err(format!("the standard policy takes no α: {s:?}")),
            },
            "ulba" | "ulba-fixed" => Ok(LbPolicy::ulba_fixed(alpha.unwrap_or(0.4))),
            "ulba-zscaled" => Ok(LbPolicy::Ulba(UlbaConfig::z_scaled(alpha.unwrap_or(0.4)))),
            _ => Err(format!(
                "unknown LB policy {s:?} (expected standard, ulba-fixed[:α] or ulba-zscaled[:α])"
            )),
        }
    }
}

/// Outlier score of `rank` for the policy's configured detection statistic
/// in the dense WIR population implied by the database (unknown ranks
/// default to 0.0). Shared by every workload that consumes a policy
/// (erosion, synthetic scenarios).
///
/// The standard policy's α is 0 whatever the score, so it scores 0.0
/// without touching the database. Under ULBA the statistic comes from the
/// database's sparse parameters, bit for bit what the dense default-filled
/// view would give: the plain z-score's mean and variance are rank-order
/// sums in which every unknown rank adds the same term, and
/// [`add_repeated`](crate::outlier::add_repeated) rounds a run of those
/// exactly as the dense loop does, so the cost is `O(known · log P)`
/// instead of `O(P)`. The median/MAD variant takes its order statistics
/// from the sorted known entries plus one block of fills.
pub fn outlier_score(policy: &LbPolicy, db: &WirDatabase, rank: usize) -> f64 {
    match policy {
        LbPolicy::Standard => 0.0,
        LbPolicy::Ulba(cfg) => Scorer::new(cfg.stat, db).score(db.get(rank).map_or(0.0, |e| e.wir)),
    }
}

/// A detection statistic's parameters over the dense default-filled view.
enum Scorer {
    Z { mean: f64, sd: f64 },
    Robust(RobustParams),
}

impl Scorer {
    fn new(stat: DetectionStat, db: &WirDatabase) -> Self {
        match stat {
            DetectionStat::ZScore => {
                let (mean, sd) = db.z_params(0.0);
                Scorer::Z { mean, sd }
            }
            DetectionStat::RobustZScore => Scorer::Robust(db.robust_params(0.0)),
        }
    }

    fn score(&self, wir: f64) -> f64 {
        match self {
            Scorer::Z { mean, sd } => z_from(wir, *mean, *sd),
            Scorer::Robust(robust) => robust.score(wir),
        }
    }
}

/// Count and sum the positive α over the dense view (rank order). A gap of
/// unknown ranks shares one α, so it adds its length to the count and its
/// run of α to the sum at once.
fn fold_alphas(db: &WirDatabase, cfg: &UlbaConfig) -> (usize, f64) {
    let scorer = Scorer::new(cfg.stat, db);
    db.fold_runs(0.0, (0usize, 0.0f64), |(n, sum), wir, count| {
        let a = cfg.alpha_for(scorer.score(wir));
        if a > 0.0 {
            (n + count, add_repeated(sum, a, count))
        } else {
            (n, sum)
        }
    })
}

/// ULBA overhead anticipated for the next LB step (Eq. (11)), estimated on
/// rank 0 from its gossip database: `ᾱ·N̂/(P − N̂) · Wtot/(ω·P)`. Zero for
/// the standard policy and when no (or every) PE looks overloading.
pub fn estimate_ulba_overhead(
    policy: &LbPolicy,
    db: &WirDatabase,
    wtot_flops: f64,
    omega: f64,
    p: usize,
) -> f64 {
    let LbPolicy::Ulba(cfg) = policy else {
        return 0.0;
    };
    let (n_hat, alpha_sum) = fold_alphas(db, cfg);
    if n_hat == 0 || n_hat >= p {
        return 0.0;
    }
    let alpha_bar = alpha_sum / n_hat as f64;
    alpha_bar * n_hat as f64 / (p - n_hat) as f64 * wtot_flops / (omega * p as f64)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn standard_always_zero() {
        let p = LbPolicy::Standard;
        assert_eq!(p.alpha_for(100.0), 0.0);
        assert_eq!(p.name(), "standard");
        // Its α never depends on the score, so scoring skips the database.
        let mut db = WirDatabase::new(8);
        db.update(crate::db::WirEntry { rank: 3, wir: 1e6, iteration: 0 });
        assert_eq!(outlier_score(&p, &db, 3), 0.0);
        assert!(outlier_score(&LbPolicy::ulba_fixed(0.4), &db, 3) > 0.0);
    }

    #[test]
    fn fixed_alpha_gated_by_threshold() {
        let p = LbPolicy::ulba_fixed(0.4);
        assert_eq!(p.alpha_for(2.9), 0.0, "below threshold: not overloading");
        assert_eq!(p.alpha_for(3.1), 0.4);
        assert_eq!(p.alpha_for(50.0), 0.4, "fixed rule ignores magnitude");
    }

    #[test]
    fn z_scaled_grows_with_outlierness() {
        let cfg = UlbaConfig::z_scaled(0.8);
        assert_eq!(cfg.alpha_for(3.0), 0.0);
        let a4 = cfg.alpha_for(4.0);
        let a6 = cfg.alpha_for(6.0);
        assert!(a4 > 0.0 && a4 < a6);
        assert!((a6 - 0.8).abs() < 1e-12, "z = 2·threshold saturates at alpha_max");
        assert_eq!(cfg.alpha_for(100.0), 0.8, "capped");
    }

    #[test]
    #[should_panic(expected = "alpha must be in [0, 1]")]
    fn rejects_out_of_range_alpha() {
        UlbaConfig::fixed(1.5);
    }

    #[test]
    fn names() {
        assert_eq!(LbPolicy::ulba_fixed(0.4).name(), "ulba-fixed");
        assert_eq!(LbPolicy::Ulba(UlbaConfig::z_scaled(0.5)).name(), "ulba-zscaled");
    }

    #[test]
    fn display_round_trips_through_from_str() {
        for policy in [
            LbPolicy::Standard,
            LbPolicy::ulba_fixed(0.4),
            LbPolicy::ulba_fixed(0.25),
            LbPolicy::Ulba(UlbaConfig::z_scaled(0.8)),
        ] {
            let rendered = policy.to_string();
            let parsed: LbPolicy = rendered.parse().expect("round-trip");
            assert_eq!(parsed, policy, "{rendered}");
        }
    }

    #[test]
    fn from_str_accepts_shorthands_and_rejects_junk() {
        assert_eq!("ulba".parse::<LbPolicy>().unwrap(), LbPolicy::ulba_fixed(0.4));
        assert_eq!("ulba-fixed".parse::<LbPolicy>().unwrap(), LbPolicy::ulba_fixed(0.4));
        assert_eq!(
            "ulba-zscaled".parse::<LbPolicy>().unwrap(),
            LbPolicy::Ulba(UlbaConfig::z_scaled(0.4))
        );
        assert!("standard:0.4".parse::<LbPolicy>().is_err());
        assert!("ulba-fixed:1.5".parse::<LbPolicy>().is_err());
        assert!("ulba-fixed:x".parse::<LbPolicy>().is_err());
        assert!("greedy".parse::<LbPolicy>().is_err());
    }
}
