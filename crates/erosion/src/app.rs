//! The full distributed erosion application (§IV-B): one stripe of columns
//! per rank, as a [`Workload`] of the ULBA rank loop in
//! [`ulba_core::driver`], which documents the per-iteration steps.
//!
//! The stripe's part of an iteration is the halo exchange with its
//! neighbours, the fluid compute (`fluid weight × FLOP/cell`) plus a small
//! frontier-scan term, and the probabilistic erosion step (real state
//! mutation). At an LB step rank 0 also pays the root's cell-granularity
//! repartitioning walk, the split may use anticipated column weights
//! ([`ErosionConfig::anticipatory_partitioning`]), and the columns migrate.
//!
//! [`run_erosion`] (blocking), [`submit_erosion`] (enqueue on a shared
//! [`JobServer`], join later) and [`run_erosion_batch`] (submit a sweep,
//! join in order) all execute one [`Experiment`] and are bit-identical for
//! the same config — batching only buys wall time.

use crate::config::ErosionConfig;
#[cfg(test)]
use crate::config::TriggerKind;
use crate::erode::erosion_step;
use crate::geometry::Geometry;
use crate::stripe::{exchange_halos_reusing, migrate, HaloScratch, Stripe};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};
use std::collections::HashMap;
use std::sync::Arc;
use ulba_core::driver::{run_batch, Experiment, Job, LoopConfig, Outcome, Workload};
use ulba_core::partition::{predicted_weights, Partition};
#[cfg(test)]
use ulba_core::policy::LbPolicy;
use ulba_runtime::{IterationStats, JobServer, MachineSpec, RankMetrics, RunConfig, SpmdCtx, Tag};

/// Message tag of gossip snapshots.
pub const GOSSIP_TAG: Tag = 0x474F;
/// FLOP charged per exposed frontier cell per iteration (neighbour scan +
/// probability sampling).
pub const FRONTIER_FLOP: f64 = 16.0;

/// Everything measured over one experiment run.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ExperimentResult {
    /// Virtual makespan in seconds (the paper's "Time [s]" axis).
    pub makespan: f64,
    /// Number of LB steps performed.
    pub lb_calls: usize,
    /// Iterations at which LB steps happened.
    pub lb_iterations: Vec<u64>,
    /// Per-iteration wall time / mean utilization series (Fig. 4b).
    pub iterations: Vec<IterationStats>,
    /// Average PE utilization over the whole run.
    pub mean_utilization: f64,
    /// Final total fluid weight (workload units) across ranks.
    pub final_total_weight: u64,
    /// Total rock cells eroded.
    pub total_eroded: u64,
    /// Final per-rank time accounting.
    pub rank_metrics: Vec<RankMetrics>,
    /// Leaf shard count the runtime's rendezvous hub actually ran with
    /// (the resolved value of [`ErosionConfig::hub_shards`]). Pure
    /// contention metadata: it never influences the measurements above.
    pub hub_shards: usize,
    /// Sum over ranks of WIR-database entries resident at run end — the
    /// sparse database's aggregate footprint in entries. Bounded by what
    /// gossip actually delivered (`O(P · min(P, fanout · iterations))`),
    /// where the dense layout always held `P²`. Pure memory metadata: it
    /// never influences the measurements above.
    pub db_entries_total: u64,
    /// Sum over ranks of delta-gossip peer watermarks resident at run end
    /// (0 under the full-snapshot wire). Memory metadata, like
    /// [`db_entries_total`](Self::db_entries_total).
    pub gossip_watermarks_total: u64,
}

/// Deterministically pick which rock discs are strongly erodible
/// ("It is not known in advance where the rocks with a high eroding
/// probability are located" — unknown to the PEs, fixed by the seed).
pub fn choose_strong_rocks(cfg: &ErosionConfig) -> Vec<usize> {
    let mut rng = StdRng::seed_from_u64(cfg.seed ^ 0x57F0_4C0C);
    let mut ids: Vec<usize> = (0..cfg.ranks).collect();
    // Partial Fisher–Yates: the first `strong_rocks` entries.
    for i in 0..cfg.strong_rocks.min(cfg.ranks) {
        let j = rng.random_range(i..ids.len());
        ids.swap(i, j);
    }
    let mut strong: Vec<usize> = ids[..cfg.strong_rocks.min(cfg.ranks)].to_vec();
    strong.sort_unstable();
    strong
}

/// One rank's stripe and the erosion state around it.
struct StripeRank {
    cfg: Arc<ErosionConfig>,
    strong: Arc<Vec<usize>>,
    stripe: Stripe,
    /// Every rank's stripe equals its range of this partition at all times
    /// (initially by construction, after every LB step by migration), so
    /// migration routing never needs the per-rank `O(P)` materialization of
    /// everyone's old ranges.
    partition: Partition,
    eroded: u64,
    /// Per-column weight history for anticipatory partitioning: weights by
    /// global column index as of `history_iter`.
    history: HashMap<usize, u64>,
    history_iter: u64,
    /// Scratch reused across iterations and LB steps so the steady-state
    /// loop allocates nothing: halo send buffers are refilled from the
    /// halos received the previous iteration, and the per-column weight
    /// vector is cleared and refilled in place at each LB step.
    halos: HaloScratch,
    weights: Vec<u64>,
}

impl StripeRank {
    /// Record the current column weights as the anticipation baseline.
    fn record_history(&mut self, iter: u64) {
        self.history.clear();
        self.stripe.col_weights_into(&mut self.weights);
        let first = self.stripe.first_col();
        self.history.extend(self.weights.iter().enumerate().map(|(i, &w)| (first + i, w)));
        self.history_iter = iter;
    }
}

impl Workload for StripeRank {
    /// `(final total fluid weight, total eroded cells)`.
    type Summary = (u64, u64);

    async fn iterate(&mut self, ctx: &mut SpmdCtx, iter: u64) -> f64 {
        let halos = exchange_halos_reusing(ctx, &self.stripe, &mut self.halos).await;
        self.stripe.refresh_boundary_exposure(halos.left.as_deref(), halos.right.as_deref());

        let workload_flops = self.stripe.fluid_weight() as f64 * self.cfg.flop_per_cell;
        ctx.compute(workload_flops + self.stripe.exposed_count() as f64 * FRONTIER_FLOP);

        // Disc membership is positional (one disc per initial stripe);
        // rock cells carry no id — see `cell.rs`.
        let (cfg, strong) = (&self.cfg, &self.strong);
        let prob_of = |col: usize| {
            if strong.binary_search(&(col / cfg.cols_per_pe)).is_ok() {
                cfg.p_strong
            } else {
                cfg.p_weak
            }
        };
        let first_col = self.stripe.first_col();
        let delta = erosion_step(
            self.stripe.cols_mut(),
            first_col,
            halos.left.as_deref(),
            halos.right.as_deref(),
            cfg.seed,
            iter,
            &prob_of,
        );
        self.eroded += delta.eroded as u64;
        // The halos are fully consumed: feed their buffers back into the
        // next iteration's sends.
        halos.recycle_into(&mut self.halos);
        workload_flops
    }

    fn lb_weights(&mut self, ctx: &mut SpmdCtx, iter: u64) -> (usize, &[u64]) {
        // The root's cell-granularity repartitioning walk (grows with P).
        if ctx.rank() == 0 {
            ctx.elapse_lb(self.cfg.lb_root_walk_secs());
        }
        self.stripe.col_weights_into(&mut self.weights);
        if self.cfg.anticipatory_partitioning {
            // Extrapolate column weights over the expected next interval
            // (persistence: ≈ the last interval length).
            let elapsed_iters = (iter - self.history_iter).max(1) as f64;
            let first = self.stripe.first_col();
            let rates: Vec<f64> = self
                .weights
                .iter()
                .enumerate()
                .map(|(i, &w)| match self.history.get(&(first + i)) {
                    Some(&old) => (w as f64 - old as f64) / elapsed_iters,
                    None => 0.0, // migrated in: no history yet
                })
                .collect();
            self.weights = predicted_weights(&self.weights, &rates, elapsed_iters);
        }
        (self.stripe.first_col(), &self.weights)
    }

    async fn migrate(&mut self, ctx: &mut SpmdCtx, partition: Partition, iter: u64) {
        // The range allgather stays for its virtual cost, but its payload
        // is redundant — every rank's range *is* its slot of the cached
        // previous partition — so nothing is gathered.
        ctx.allgather_fold((self.stripe.first_col(), self.stripe.len()), 16, |_| ()).await;
        let stripe = std::mem::take(&mut self.stripe);
        self.stripe = migrate(ctx, stripe, &self.partition, &partition).await;
        self.partition = partition;
        if self.cfg.anticipatory_partitioning {
            self.record_history(iter);
        }
    }

    async fn finish(self, ctx: &mut SpmdCtx) -> (u64, u64) {
        let final_weight = ctx.allreduce_sum(self.stripe.fluid_weight() as f64).await as u64;
        let eroded = ctx.allreduce_sum(self.eroded as f64).await as u64;
        (final_weight, eroded)
    }
}

/// Validate `cfg`, build the immutable shared inputs (geometry, strong-rock
/// set, initial partition) once, and package the experiment.
fn prepare(cfg: &ErosionConfig) -> Experiment<StripeRank, ExperimentResult> {
    cfg.validate().expect("invalid erosion config");
    let geometry = Geometry::new(cfg.ranks, cfg.cols_per_pe, cfg.height, cfg.rock_radius);
    let strong = Arc::new(choose_strong_rocks(cfg));
    // The initial (uniform) partition, built once and Arc-shared: every
    // rank's cached copy is a reference bump, never a per-rank `O(P)`
    // bounds copy.
    let initial_partition =
        Partition::from_bounds((0..=cfg.ranks).map(|r| r * cfg.cols_per_pe).collect(), cfg.width());

    let mut cfg = cfg.clone();
    // The server handle only routes the run; the ranks never need it, and
    // a handle captured inside the job's own futures would keep the pool
    // alive from within itself.
    let server = cfg.server.take();
    let mut run_cfg = RunConfig::new(cfg.ranks).with_spec(MachineSpec::homogeneous(cfg.omega));
    run_cfg.workers = cfg.workers.unwrap_or(run_cfg.workers);
    run_cfg.hub_shards = cfg.hub_shards.unwrap_or(run_cfg.hub_shards);
    run_cfg.server = server;
    let loop_cfg = LoopConfig {
        iterations: cfg.iterations,
        policy: cfg.policy,
        trigger: cfg.trigger,
        initial_lb_cost_factor: cfg.initial_lb_cost_factor,
        lb_fixed_secs: cfg.lb_fixed_cost_secs(),
        gossip: cfg.gossip,
        gossip_wire: cfg.gossip_wire,
        gossip_tag: GOSSIP_TAG,
        wir_window: cfg.wir_window,
        seed: cfg.seed,
    };
    let cfg = Arc::new(cfg);
    let make = move |ctx: &SpmdCtx| {
        let rank = ctx.rank();
        let stripe =
            Stripe::initial(&geometry, rank * cfg.cols_per_pe..(rank + 1) * cfg.cols_per_pe);
        let mut work = StripeRank {
            cfg: Arc::clone(&cfg),
            strong: Arc::clone(&strong),
            stripe,
            partition: initial_partition.clone(),
            eroded: 0,
            history: HashMap::new(),
            history_iter: 0,
            halos: HaloScratch::new(),
            weights: Vec::new(),
        };
        if cfg.anticipatory_partitioning {
            work.record_history(0);
        }
        work
    };
    Experiment::new(run_cfg, loop_cfg, make, assemble)
}

/// Combine the loop's outcome into the final measurements.
fn assemble(out: Outcome<(u64, u64)>) -> ExperimentResult {
    let (final_total_weight, total_eroded) = out.summary;
    let report = out.report;
    ExperimentResult {
        makespan: report.makespan().as_secs(),
        lb_calls: report.lb_call_count(),
        lb_iterations: report.lb_iterations.clone(),
        mean_utilization: report.mean_utilization(),
        iterations: report.iterations,
        final_total_weight,
        total_eroded,
        rank_metrics: report.rank_metrics,
        hub_shards: report.hub_shards,
        db_entries_total: out.db_entries_total,
        gossip_watermarks_total: out.gossip_watermarks_total,
    }
}

/// Run one erosion experiment and collect its measurements.
pub fn run_erosion(cfg: &ErosionConfig) -> ExperimentResult {
    prepare(cfg).run()
}

/// A submitted erosion experiment; see [`submit_erosion`].
pub type ErosionJob = Job<ExperimentResult>;

/// Submit one experiment to `server` without waiting for it. The
/// measurements are bit-identical to a serial [`run_erosion`] of the same
/// config; only wall time and concurrency differ.
pub fn submit_erosion(server: &JobServer, cfg: &ErosionConfig) -> ErosionJob {
    prepare(cfg).submit(server)
}

/// Run a whole sweep concurrently on a shared pool and return the results
/// in input order.
///
/// Each config routes to its own [`ErosionConfig::server`] when set, else
/// to the process-global [`JobServer::global`] pool. The runtime's
/// determinism guarantee makes every result bit-identical to a serial
/// [`run_erosion`] of the same config — batching only buys wall time.
pub fn run_erosion_batch(cfgs: &[ErosionConfig]) -> Vec<ExperimentResult> {
    run_batch(cfgs.iter().map(prepare))
}

/// Run the same configuration under several seeds and return the median
/// makespan result (the paper compares "the median running time among five
/// runs"). The seeds run concurrently through [`run_erosion_batch`].
pub fn run_erosion_median(cfg: &ErosionConfig, seeds: &[u64]) -> ExperimentResult {
    assert!(!seeds.is_empty());
    let cfgs: Vec<ErosionConfig> = seeds
        .iter()
        .map(|&s| {
            let mut c = cfg.clone();
            c.seed = s;
            c
        })
        .collect();
    median_result(run_erosion_batch(&cfgs))
}

/// Median-by-makespan reduction of a batch of results (upper median for
/// even counts) — the reduction step of [`run_erosion_median`], exposed so
/// batch clients that submit a whole sweep at once can reduce per-seed
/// chunks themselves.
pub fn median_result(mut results: Vec<ExperimentResult>) -> ExperimentResult {
    assert!(!results.is_empty());
    results.sort_by(|a, b| a.makespan.partial_cmp(&b.makespan).expect("finite"));
    results.swap_remove(results.len() / 2)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ulba_core::gossip::GossipMode;

    #[test]
    fn strong_rock_choice_is_deterministic_and_distinct() {
        let cfg = ErosionConfig::tiny(8, 3);
        let a = choose_strong_rocks(&cfg);
        let b = choose_strong_rocks(&cfg);
        assert_eq!(a, b);
        assert_eq!(a.len(), 3);
        let mut dedup = a.clone();
        dedup.dedup();
        assert_eq!(dedup.len(), 3);
        assert!(a.iter().all(|&id| id < 8));
    }

    #[test]
    fn different_seeds_choose_differently() {
        let mut cfg = ErosionConfig::tiny(8, 2);
        let a = choose_strong_rocks(&cfg);
        cfg.seed ^= 0xFFFF;
        let b = choose_strong_rocks(&cfg);
        // Not guaranteed different, but with 28 possible pairs it is for
        // these fixed seeds.
        assert_ne!(a, b);
    }

    #[test]
    fn tiny_run_completes_with_standard_policy() {
        let mut cfg = ErosionConfig::tiny(4, 1);
        cfg.policy = LbPolicy::Standard;
        let res = run_erosion(&cfg);
        assert!(res.makespan > 0.0);
        assert_eq!(res.iterations.len(), cfg.iterations as usize);
        assert!(res.total_eroded > 0, "the strong rock must erode");
        assert!(res.mean_utilization > 0.2 && res.mean_utilization <= 1.0);
    }

    #[test]
    fn tiny_run_completes_with_ulba_policy() {
        let cfg = ErosionConfig::tiny(4, 1); // default policy: ULBA α = 0.4
        let res = run_erosion(&cfg);
        assert!(res.makespan > 0.0);
        assert_eq!(res.iterations.len(), cfg.iterations as usize);
    }

    #[test]
    fn physics_identical_across_policies() {
        // Stateless erosion sampling: the eroded-cell count and final weight
        // must be identical regardless of the LB policy.
        let mut std_cfg = ErosionConfig::tiny(4, 1);
        std_cfg.policy = LbPolicy::Standard;
        let ulba_cfg = ErosionConfig::tiny(4, 1);
        let a = run_erosion(&std_cfg);
        let b = run_erosion(&ulba_cfg);
        assert_eq!(a.total_eroded, b.total_eroded);
        assert_eq!(a.final_total_weight, b.final_total_weight);
    }

    #[test]
    fn runs_are_deterministic() {
        let cfg = ErosionConfig::tiny(4, 1);
        let a = run_erosion(&cfg);
        let b = run_erosion(&cfg);
        assert_eq!(a.makespan, b.makespan);
        assert_eq!(a.lb_iterations, b.lb_iterations);
        assert_eq!(a.total_eroded, b.total_eroded);
    }

    #[test]
    fn never_trigger_never_balances() {
        let mut cfg = ErosionConfig::tiny(4, 1);
        cfg.trigger = TriggerKind::Never;
        let res = run_erosion(&cfg);
        assert_eq!(res.lb_calls, 0);
    }

    #[test]
    fn periodic_trigger_balances_on_schedule() {
        let mut cfg = ErosionConfig::tiny(4, 1);
        cfg.trigger = TriggerKind::Periodic(20);
        let res = run_erosion(&cfg);
        // Fires at iterations 19 and 39 (the 59 slot is suppressed as the
        // last iteration).
        assert_eq!(res.lb_iterations, vec![19, 39]);
    }

    #[test]
    fn zhai_triggers_at_least_once_under_imbalance() {
        let mut cfg = ErosionConfig::tiny(8, 1);
        cfg.iterations = 120;
        cfg.policy = LbPolicy::Standard;
        cfg.initial_lb_cost_factor = 0.05;
        let res = run_erosion(&cfg);
        assert!(res.lb_calls >= 1, "a strongly eroding rock must eventually trip the Zhai trigger");
    }

    #[test]
    fn gossip_mode_does_not_change_physics() {
        let mut ring = ErosionConfig::tiny(4, 1);
        ring.gossip = GossipMode::Ring;
        let mut push = ErosionConfig::tiny(4, 1);
        push.gossip = GossipMode::RandomPush { fanout: 2 };
        let a = run_erosion(&ring);
        let b = run_erosion(&push);
        assert_eq!(a.total_eroded, b.total_eroded);
    }

    #[test]
    fn gossip_wire_does_not_change_physics() {
        use ulba_core::gossip::GossipWire;
        // Erosion sampling is stateless in (seed, iteration): whatever the
        // wire format does to virtual timing, the physics cannot move.
        let full = run_erosion(&ErosionConfig::tiny(8, 2));
        for wire in [GossipWire::delta(), GossipWire::Delta { full_every: 3 }] {
            let mut cfg = ErosionConfig::tiny(8, 2);
            cfg.gossip_wire = wire;
            let delta = run_erosion(&cfg);
            assert_eq!(full.total_eroded, delta.total_eroded, "{wire}");
            assert_eq!(full.final_total_weight, delta.final_total_weight, "{wire}");
        }
    }

    #[test]
    fn delta_wire_is_lossless_and_never_slower_without_lb() {
        use ulba_core::gossip::GossipWire;
        // With LB disabled the two wire formats run the exact same
        // computation; delta payloads are subsets of the full snapshots, so
        // every database converges identically (same entry totals) and every
        // message arrives no later — the makespan can only shrink.
        let mut cfg = ErosionConfig::tiny(8, 2);
        cfg.trigger = TriggerKind::Never;
        // The default wire is delta — pin the full wire for the baseline.
        cfg.gossip_wire = GossipWire::Full;
        let full = run_erosion(&cfg);
        cfg.gossip_wire = GossipWire::delta();
        let delta = run_erosion(&cfg);
        assert_eq!(full.lb_calls, 0);
        assert_eq!(delta.lb_calls, 0);
        assert_eq!(full.db_entries_total, delta.db_entries_total, "delta gossip lost an entry");
        assert!(
            delta.makespan <= full.makespan,
            "delta payloads can only shrink the gossip bytes ({} vs {})",
            delta.makespan,
            full.makespan
        );
        assert_eq!(full.gossip_watermarks_total, 0, "full wire keeps no watermarks");
        assert!(delta.gossip_watermarks_total > 0);
    }

    #[test]
    fn database_footprint_is_reported_and_bounded() {
        let mut cfg = ErosionConfig::tiny(8, 1);
        cfg.gossip = GossipMode::Ring;
        cfg.gossip_wire = ulba_core::gossip::GossipWire::delta();
        let res = run_erosion(&cfg);
        let p = cfg.ranks as u64;
        assert!(res.db_entries_total > 0, "ranks heard about each other");
        assert!(res.db_entries_total <= p * p, "entries are at most one per (holder, subject)");
        assert_eq!(res.gossip_watermarks_total, p, "Ring tracks exactly one peer per rank");
    }

    #[test]
    fn median_of_runs() {
        let mut cfg = ErosionConfig::tiny(2, 1);
        cfg.iterations = 20;
        let res = run_erosion_median(&cfg, &[1, 2, 3]);
        assert!(res.makespan > 0.0);
    }

    #[test]
    fn submitted_jobs_match_serial_runs() {
        // One shared pool, several concurrent experiments: every result
        // must be bit-identical to the serial run of the same config.
        let server = JobServer::new(2);
        let cfgs: Vec<ErosionConfig> = (0..4)
            .map(|i| {
                let mut c = ErosionConfig::tiny(4, 1);
                c.iterations = 30;
                c.seed = 0xA5A5 + i;
                c
            })
            .collect();
        let jobs: Vec<ErosionJob> = cfgs.iter().map(|c| submit_erosion(&server, c)).collect();
        for (job, cfg) in jobs.into_iter().zip(&cfgs) {
            let batched = job.join();
            let serial = run_erosion(cfg);
            assert_eq!(batched.makespan.to_bits(), serial.makespan.to_bits());
            assert_eq!(batched.lb_iterations, serial.lb_iterations);
            assert_eq!(batched.total_eroded, serial.total_eroded);
            assert_eq!(batched.final_total_weight, serial.final_total_weight);
        }
    }
}
