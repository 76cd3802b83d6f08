//! The interface every benchmark workload implements.

use crate::spans::Sink;
use std::sync::Arc;

/// What one benchmark operation did.
#[derive(Debug, Clone, Default)]
pub struct OpOutcome {
    /// Jobs (or instances) the op attempted.
    pub jobs: u64,
    /// Jobs that errored, panicked or failed a correctness check.
    pub failed: u64,
    /// Work done: simulated rank-iterations, or model instances.
    pub units: f64,
    /// Virtual makespans (or model times) as bits, one per job: the traced
    /// replay must reproduce the untraced run's values exactly.
    pub virt: Vec<u64>,
    /// Every exact output of the op, compared across repeats of one config.
    pub exact: Vec<u64>,
    /// Policy pairs whose physics the op compared.
    pub physics_checked: u64,
    /// Compared pairs whose physics differed between the LB policies.
    pub physics_diverged: u64,
}

impl OpOutcome {
    /// An op of `jobs` jobs that failed as a whole (panic or error).
    pub fn failed(jobs: u64) -> Self {
        Self { jobs, failed: jobs, ..Self::default() }
    }
}

/// One benchmark workload, set up and ready to run ops.
pub trait Workload {
    /// Number of distinct op configurations; op `k` runs configuration
    /// `k % cycle()`.
    fn cycle(&self) -> usize;

    /// Worker threads the workload's pool runs (1 when it has no pool).
    fn workers(&self) -> usize;

    /// `(key, value)` config facts for the report (P, iterations, …).
    fn describe(&self) -> Vec<(&'static str, String)>;

    /// Run op `k` through the program's own entry points, untraced.
    fn run(&mut self, k: usize) -> OpOutcome;

    /// Replay op `k` through the benchmark's traced rank body.
    fn replay(&mut self, k: usize, sink: &Arc<Sink>) -> OpOutcome;
}

/// A 64-bit mix (splitmix64 finaliser) deriving config seeds from the
/// benchmark seed.
pub fn mix(seed: u64, salt: u64) -> u64 {
    let mut z = seed ^ salt.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}
