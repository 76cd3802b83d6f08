//! The scenario application: one range of generated tasks per rank, as a
//! [`Workload`] of the ULBA rank loop in [`ulba_core::driver`], which
//! documents the per-iteration steps.
//!
//! The range's part of an iteration is the compute of the tasks it owns,
//! as the active phase of the generated [`WorkTable`] dictates, plus (for
//! the task-graph family) traffic pushed to pseudo-random partners and
//! drained after the iteration-end sync. Migration charges the modelled
//! cost of the tasks that changed owner.
//!
//! The entry points mirror the erosion app's: [`run_scenario`] (blocking),
//! [`submit_scenario`] (enqueue on a shared [`JobServer`]) and
//! [`run_scenario_batch`] (submit a sweep, join in order) — all
//! bit-identical for the same config.

use crate::config::ScenarioConfig;
use crate::generator::{ScenarioKind, WorkTable};
use serde::{Deserialize, Serialize};
use std::ops::Range;
use std::sync::Arc;
use ulba_core::driver::{run_batch, Experiment, Job, LoopConfig, Outcome, Workload};
use ulba_core::gossip::{select_peers, GossipMode};
use ulba_core::partition::Partition;
use ulba_runtime::{IterationStats, JobServer, MachineSpec, RankMetrics, RunConfig, SpmdCtx, Tag};

/// Message tag of gossip snapshots (distinct from the erosion app's).
pub const GOSSIP_TAG: Tag = 0x5C47;
/// Message tag of task-graph traffic payloads.
pub const TRAFFIC_TAG: Tag = 0x5C54;

/// Everything measured over one scenario run.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ScenarioResult {
    /// Virtual makespan in seconds.
    pub makespan: f64,
    /// Number of LB steps performed.
    pub lb_calls: usize,
    /// Iterations at which LB steps happened.
    pub lb_iterations: Vec<u64>,
    /// Per-iteration wall time / mean utilization series.
    pub iterations: Vec<IterationStats>,
    /// Average PE utilization over the whole run.
    pub mean_utilization: f64,
    /// Final per-rank time accounting.
    pub rank_metrics: Vec<RankMetrics>,
    /// Leaf shard count the rendezvous hub actually ran with. Pure
    /// contention metadata: it never influences the measurements above.
    pub hub_shards: usize,
    /// Sum over ranks of WIR-database entries resident at run end.
    pub db_entries_total: u64,
    /// Sum over ranks of delta-gossip peer watermarks resident at run end
    /// (0 under the full-snapshot wire).
    pub gossip_watermarks_total: u64,
    /// Work units executed across all ranks and iterations — must equal
    /// `iterations · ranks · avg_units_per_rank` whatever the balancer did
    /// (work conservation; asserted by the run).
    pub total_work_units: u64,
    /// Order-independent checksum over every delivered traffic payload
    /// word (0 for non-task-graph scenarios). Bit-identical across worker
    /// counts and hub-shard counts.
    pub traffic_checksum: u64,
    /// The λ = max/mean the generator was asked for.
    pub lambda_target: f64,
    /// The λ the generated table actually realizes (verified within 5% of
    /// the target at build time).
    pub lambda_achieved: f64,
}

/// Deterministic traffic payload pushed by `rank` at `iter` — a keyed
/// counter stream, cheap to generate and summing to an order-independent
/// checksum on the receiving side.
fn traffic_payload(rank: usize, iter: u64, words: usize, seed: u64) -> Vec<u64> {
    let key = seed
        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .wrapping_add((rank as u64) << 32)
        .wrapping_add(iter);
    (0..words as u64).map(|i| key.wrapping_mul(i.wrapping_add(1))).collect()
}

/// Tasks migrated when this rank's range changes from `old` to `new`:
/// everything it gave up plus everything it received (both directions
/// cost wire time on this rank's clock).
fn tasks_moved(old: &Range<usize>, new: &Range<usize>) -> usize {
    let overlap = old.end.min(new.end).saturating_sub(old.start.max(new.start));
    (old.len() - overlap) + (new.len() - overlap)
}

/// One rank's task range and its running totals.
struct TaskRange {
    cfg: Arc<ScenarioConfig>,
    table: Arc<WorkTable>,
    range: Range<usize>,
    weights: Vec<u64>,
    units_done: u64,
    traffic_checksum: u64,
}

/// Rank 0's end-of-run totals.
struct Totals {
    work_units: u64,
    traffic_checksum: u64,
    /// `(target, achieved)` λ of the work table.
    lambda: (f64, f64),
}

impl Workload for TaskRange {
    type Summary = Totals;

    async fn iterate(&mut self, ctx: &mut SpmdCtx, iter: u64) -> f64 {
        let cfg = &self.cfg;
        if cfg.kind == ScenarioKind::TaskGraph {
            // Decorrelate the traffic partner stream from the gossip stream.
            let partners = select_peers(
                GossipMode::RandomPush { fanout: cfg.traffic_fanout },
                ctx.rank(),
                ctx.size(),
                iter,
                cfg.seed ^ 0x7AF1_C0DE,
            );
            for peer in partners {
                let payload = traffic_payload(ctx.rank(), iter, cfg.traffic_payload_len, cfg.seed);
                let bytes = payload.len() * 8;
                ctx.send(peer, TRAFFIC_TAG, payload, bytes);
            }
        }
        let phase = self.table.phase_of(iter, cfg.phase_len);
        let units = self.table.range_units(phase, &self.range, cfg.tasks_per_rank);
        self.units_done += units;
        let workload_flops = units as f64 * cfg.flop_per_unit;
        ctx.compute(workload_flops);
        workload_flops
    }

    fn after_sync(&mut self, ctx: &mut SpmdCtx) {
        // Wrapping sums are commutative: the checksum is independent of
        // arrival order, hence bit-identical across worker counts.
        for (_, payload) in ctx.drain::<Vec<u64>>(TRAFFIC_TAG) {
            for word in payload {
                self.traffic_checksum = self.traffic_checksum.wrapping_add(word);
            }
        }
    }

    fn lb_weights(&mut self, _ctx: &mut SpmdCtx, iter: u64) -> (usize, &[u64]) {
        // Per-task weights of the *current* phase.
        let (cfg, table) = (&self.cfg, &self.table);
        let phase = table.phase_of(iter, cfg.phase_len);
        table.task_weights_into(phase, &self.range, cfg.tasks_per_rank, &mut self.weights);
        (self.range.start, &self.weights)
    }

    async fn migrate(&mut self, ctx: &mut SpmdCtx, partition: Partition, _iter: u64) {
        let new_range = partition.range(ctx.rank());
        // Migration cost: tasks that changed owner drag `task_bytes` each
        // over the wire (modelled — the tasks have no real payload state,
        // their weight lives in the table).
        let moved = tasks_moved(&self.range, &new_range);
        if moved > 0 {
            ctx.elapse_lb(ctx.machine().p2p_secs(moved * self.cfg.task_bytes));
        }
        self.range = new_range;
    }

    async fn finish(self, ctx: &mut SpmdCtx) -> Totals {
        // Work conservation across whatever partitions the balancer
        // produced, plus the order-independent traffic checksum.
        let work_units = ctx.allreduce(self.units_done, 8, |a, b| a.wrapping_add(*b)).await;
        assert_eq!(
            work_units,
            self.cfg.iterations * self.table.total_units,
            "work conservation: every unit is executed exactly once per iteration"
        );
        let traffic_checksum =
            ctx.allreduce(self.traffic_checksum, 8, |a, b| a.wrapping_add(*b)).await;
        let lambda = (self.table.lambda_target, self.table.lambda_achieved);
        Totals { work_units, traffic_checksum, lambda }
    }
}

/// Validate `cfg`, build the work table once, and package the experiment.
fn prepare(cfg: &ScenarioConfig) -> Experiment<TaskRange, ScenarioResult> {
    cfg.validate().expect("invalid scenario config");
    let table = Arc::new(
        WorkTable::build(
            cfg.kind,
            cfg.ranks,
            cfg.phases,
            cfg.lambda,
            cfg.avg_units_per_rank,
            cfg.seed,
        )
        .expect("config validation admits only feasible tables"),
    );
    let mut cfg = cfg.clone();
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
        let tpr = cfg.tasks_per_rank;
        TaskRange {
            cfg: Arc::clone(&cfg),
            table: Arc::clone(&table),
            range: ctx.rank() * tpr..(ctx.rank() + 1) * tpr,
            weights: Vec::new(),
            units_done: 0,
            traffic_checksum: 0,
        }
    };
    Experiment::new(run_cfg, loop_cfg, make, assemble)
}

/// Combine the loop's outcome into the final measurements.
fn assemble(out: Outcome<Totals>) -> ScenarioResult {
    let report = out.report;
    ScenarioResult {
        makespan: report.makespan().as_secs(),
        lb_calls: report.lb_call_count(),
        lb_iterations: report.lb_iterations.clone(),
        mean_utilization: report.mean_utilization(),
        iterations: report.iterations,
        rank_metrics: report.rank_metrics,
        hub_shards: report.hub_shards,
        db_entries_total: out.db_entries_total,
        gossip_watermarks_total: out.gossip_watermarks_total,
        total_work_units: out.summary.work_units,
        traffic_checksum: out.summary.traffic_checksum,
        lambda_target: out.summary.lambda.0,
        lambda_achieved: out.summary.lambda.1,
    }
}

/// Run one scenario experiment and collect its measurements.
pub fn run_scenario(cfg: &ScenarioConfig) -> ScenarioResult {
    prepare(cfg).run()
}

/// A submitted scenario experiment; see [`submit_scenario`].
pub type ScenarioJob = Job<ScenarioResult>;

/// Submit one experiment to `server` without waiting for it. The
/// measurements are bit-identical to a serial [`run_scenario`] of the same
/// config.
pub fn submit_scenario(server: &JobServer, cfg: &ScenarioConfig) -> ScenarioJob {
    prepare(cfg).submit(server)
}

/// Run a whole sweep concurrently on a shared pool and return the results
/// in input order. Each config routes to its own
/// [`ScenarioConfig::server`] when set, else to [`JobServer::global`].
pub fn run_scenario_batch(cfgs: &[ScenarioConfig]) -> Vec<ScenarioResult> {
    run_batch(cfgs.iter().map(prepare))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::TriggerKind;
    use ulba_core::policy::LbPolicy;

    #[test]
    fn tiny_run_completes_for_every_kind() {
        for kind in ScenarioKind::ALL {
            let cfg = ScenarioConfig::tiny(kind, 4);
            let res = run_scenario(&cfg);
            assert!(res.makespan > 0.0, "{kind}");
            assert_eq!(res.iterations.len(), cfg.iterations as usize, "{kind}");
            assert_eq!(
                res.total_work_units,
                cfg.iterations * 4 * cfg.avg_units_per_rank,
                "{kind}: work must be conserved"
            );
            assert!(
                (res.lambda_achieved - cfg.lambda).abs() <= 0.05 * cfg.lambda,
                "{kind}: λ {} vs target {}",
                res.lambda_achieved,
                cfg.lambda
            );
        }
    }

    #[test]
    fn runs_are_deterministic() {
        let cfg = ScenarioConfig::tiny(ScenarioKind::TaskGraph, 4);
        let a = run_scenario(&cfg);
        let b = run_scenario(&cfg);
        assert_eq!(a.makespan.to_bits(), b.makespan.to_bits());
        assert_eq!(a.lb_iterations, b.lb_iterations);
        assert_eq!(a.traffic_checksum, b.traffic_checksum);
    }

    #[test]
    fn task_graph_traffic_is_delivered() {
        let res = run_scenario(&ScenarioConfig::tiny(ScenarioKind::TaskGraph, 4));
        assert_ne!(res.traffic_checksum, 0, "payload words must arrive");
        let halo_free = run_scenario(&ScenarioConfig::tiny(ScenarioKind::Scatter, 4));
        assert_eq!(halo_free.traffic_checksum, 0, "only task-graph sends traffic");
    }

    #[test]
    fn ulba_beats_never_on_a_slow_node() {
        // A persistent slow node is the best case for any balancer: one
        // good LB step repairs it for the rest of the run.
        let mut never = ScenarioConfig::tiny(ScenarioKind::SlowNode, 8);
        never.trigger = TriggerKind::Never;
        never.iterations = 48;
        let mut ulba = never.clone();
        ulba.trigger = TriggerKind::Periodic(8);
        ulba.policy = LbPolicy::ulba_fixed(0.4);
        let a = run_scenario(&never);
        let b = run_scenario(&ulba);
        assert_eq!(a.lb_calls, 0);
        assert!(b.lb_calls > 0);
        assert!(
            b.makespan < a.makespan,
            "balancing a persistent slow node must pay off ({} vs {})",
            b.makespan,
            a.makespan
        );
    }

    #[test]
    fn never_trigger_never_balances() {
        let mut cfg = ScenarioConfig::tiny(ScenarioKind::Scatter, 4);
        cfg.trigger = TriggerKind::Never;
        let res = run_scenario(&cfg);
        assert_eq!(res.lb_calls, 0);
        assert_eq!(res.lb_iterations, Vec::<u64>::new());
    }

    #[test]
    fn submitted_jobs_match_serial_runs() {
        let server = JobServer::new(2);
        let cfgs: Vec<ScenarioConfig> = ScenarioKind::ALL
            .iter()
            .map(|&kind| {
                let mut c = ScenarioConfig::tiny(kind, 4);
                c.iterations = 24;
                c
            })
            .collect();
        let jobs: Vec<ScenarioJob> = cfgs.iter().map(|c| submit_scenario(&server, c)).collect();
        for (job, cfg) in jobs.into_iter().zip(&cfgs) {
            let batched = job.join();
            let serial = run_scenario(cfg);
            assert_eq!(batched.makespan.to_bits(), serial.makespan.to_bits(), "{}", cfg.kind);
            assert_eq!(batched.lb_iterations, serial.lb_iterations);
            assert_eq!(batched.traffic_checksum, serial.traffic_checksum);
        }
    }

    #[test]
    fn tasks_moved_counts_both_directions() {
        assert_eq!(tasks_moved(&(0..10), &(0..10)), 0);
        assert_eq!(tasks_moved(&(0..10), &(5..15)), 10, "5 given up + 5 received");
        assert_eq!(tasks_moved(&(0..10), &(20..30)), 20, "disjoint: full churn");
        assert_eq!(tasks_moved(&(0..10), &(0..4)), 6);
    }
}
