//! The ULBA rank loop of §III-C, written once for every application.
//!
//! An application implements [`Workload`] for the data one rank owns; the
//! loop does the rest. Per iteration a rank runs [`Workload::iterate`],
//! updates its WIR estimate, sends one gossip step, joins the
//! iteration-end `allgather_fold` of `(elapsed, workload)`, drains the
//! gossip and then [`Workload::after_sync`], and learns by broadcast from
//! rank 0's trigger whether to balance (never at the last iteration). An
//! LB step charges the fixed LB cost, takes [`Workload::lb_weights`],
//! derives α from the rank's WIR outlier score, runs the centralized
//! rebalancing (Algorithm 2) and [`Workload::migrate`], then feeds the
//! slowest rank's measured LB time back to the trigger and restarts the
//! WIR estimate. Every virtual-time charge happens in this fixed order.
//!
//! [`Experiment`] executes the loop: [`Experiment::run`] blocks,
//! [`Experiment::submit`] returns a [`Job`] on a shared [`JobServer`], and
//! [`run_batch`] submits a sweep and joins it in order — all bit-identical
//! for the same experiment. The loop is generic over the workload, so no
//! future is boxed and nothing is dispatched dynamically per iteration.

use crate::balancer::centralized_rebalance;
use crate::db::{wire_bytes, WirDatabase, WirEntry};
use crate::gossip::{select_peers, GossipMode, GossipOutbox, GossipWire};
use crate::partition::Partition;
use crate::policy::{estimate_ulba_overhead, outlier_score, LbPolicy};
use crate::trigger::{AnyTrigger, LbTrigger, TriggerKind};
use crate::wir::WirEstimator;
use std::future::Future;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use ulba_runtime::{run, JobHandle, JobServer, RunConfig, RunReport, SpmdCtx, Tag};

/// The data one rank owns, as the ULBA rank loop sees it.
pub trait Workload: Send + 'static {
    /// What [`Workload::finish`] reports; rank 0's copy reaches the caller.
    type Summary: Send + 'static;

    /// Run iteration `iter`'s application compute and communication and
    /// return its workload in FLOPs, the value the WIR estimator sees.
    fn iterate(&mut self, ctx: &mut SpmdCtx, iter: u64) -> impl Future<Output = f64> + Send;

    /// Drain the application's own messages of this iteration, after the
    /// iteration-end rendezvous and the gossip drain. Default: nothing.
    fn after_sync(&mut self, _ctx: &mut SpmdCtx) {}

    /// At an LB step of iteration `iter`, after the fixed LB cost: the
    /// global index of this rank's first item and its per-item weights.
    fn lb_weights(&mut self, ctx: &mut SpmdCtx, iter: u64) -> (usize, &[u64]);

    /// Move to the rebalanced `partition`, inside the LB section.
    fn migrate(
        &mut self,
        ctx: &mut SpmdCtx,
        partition: Partition,
        iter: u64,
    ) -> impl Future<Output = ()> + Send;

    /// Final accounting after the last iteration.
    fn finish(self, ctx: &mut SpmdCtx) -> impl Future<Output = Self::Summary> + Send;
}

/// The settings of the ULBA rank loop.
#[derive(Debug, Clone)]
pub struct LoopConfig {
    /// Application iterations.
    pub iterations: u64,
    /// Load-balancing policy (standard or ULBA).
    pub policy: LbPolicy,
    /// Adaptive trigger, built on rank 0 at iteration 0.
    pub trigger: TriggerKind,
    /// Initial LB-cost estimate as a fraction of the first iteration's
    /// wall time.
    pub initial_lb_cost_factor: f64,
    /// Fixed LB cost charged to every rank at each LB step, in seconds.
    pub lb_fixed_secs: f64,
    /// WIR dissemination mode.
    pub gossip: GossipMode,
    /// Gossip wire format.
    pub gossip_wire: GossipWire,
    /// Message tag of gossip payloads.
    pub gossip_tag: Tag,
    /// Sliding window of the per-rank WIR estimator.
    pub wir_window: usize,
    /// Seed of the gossip peer selection.
    pub seed: u64,
}

/// What a finished loop reports.
#[derive(Debug)]
pub struct Outcome<S> {
    /// The runtime's report.
    pub report: RunReport,
    /// Rank 0's [`Workload::finish`] summary.
    pub summary: S,
    /// Sum over ranks of WIR-database entries resident at run end.
    pub db_entries_total: u64,
    /// Sum over ranks of delta-gossip peer watermarks resident at run end
    /// (0 under the full-snapshot wire).
    pub gossip_watermarks_total: u64,
}

/// What every rank of one job shares. The summary and footprint slots are
/// a side channel, not a collective, so they cannot perturb virtual time.
struct Shared<W: Workload> {
    cfg: LoopConfig,
    /// Builds a rank's workload inside its own future, so construction runs
    /// on the pool's workers; called once per rank.
    make: Box<dyn Fn(&SpmdCtx) -> W + Send + Sync>,
    summary: Mutex<Option<W::Summary>>,
    db_entries: AtomicU64,
    watermarks: AtomicU64,
}

impl<W: Workload> Shared<W> {
    /// One rank's whole program.
    async fn rank(self: Arc<Self>, mut ctx: SpmdCtx) {
        let mut work = (self.make)(&ctx);
        let cfg = &self.cfg;
        let rank = ctx.rank();
        let p = ctx.size();
        let omega = ctx.machine().base_speed;
        let mut wir = WirEstimator::new(cfg.wir_window);
        let mut db = WirDatabase::new(p);
        let mut outbox = GossipOutbox::new();
        // The trigger lives on rank 0 (decisions are broadcast); it is
        // created at iteration 0 once the first wall time seeds the
        // LB-cost estimate.
        let mut trigger: Option<AnyTrigger> = None;

        for iter in 0..cfg.iterations {
            let iter_start = ctx.now();
            let workload_flops = work.iterate(&mut ctx, iter).await;

            wir.push(iter, workload_flops);
            if let Some(rate) = wir.rate() {
                db.update(WirEntry { rank, wir: rate, iteration: iter });
            }
            for peer in select_peers(cfg.gossip, rank, p, iter, cfg.seed) {
                let payload = outbox.message(&db, peer, iter, cfg.gossip_wire);
                let payload_bytes = wire_bytes(&payload);
                ctx.send(peer, cfg.gossip_tag, payload, payload_bytes);
            }

            let elapsed = ctx.now() - iter_start;
            let (t_iter, wtot_flops) = ctx
                .allgather_fold((elapsed, workload_flops), 16, |stats| {
                    let t_iter = stats.iter().map(|s| s.0).fold(0.0f64, f64::max);
                    let wtot_flops: f64 = stats.iter().map(|s| s.1).sum();
                    (t_iter, wtot_flops)
                })
                .await;

            // Drain *after* the rendezvous: every message posted this
            // iteration is now present, so the merged set (and with it
            // every LB decision) is deterministic.
            for (_, snap) in ctx.drain::<Vec<WirEntry>>(cfg.gossip_tag) {
                db.merge(&snap);
            }
            work.after_sync(&mut ctx);

            let my_flag = (rank == 0).then(|| {
                let trig = trigger
                    .get_or_insert_with(|| cfg.trigger.build(cfg.initial_lb_cost_factor * t_iter));
                let overhead = estimate_ulba_overhead(&cfg.policy, &db, wtot_flops, omega, p);
                trig.set_overhead_estimate(overhead);
                trig.observe(iter, t_iter)
            });
            let lb_now = ctx.broadcast(0, my_flag, 1).await;
            ctx.mark_iteration(iter);

            if lb_now && iter + 1 < cfg.iterations {
                ctx.begin_lb();
                let lb_started = ctx.now();
                ctx.elapse_lb(cfg.lb_fixed_secs);
                let (first, weights) = work.lb_weights(&mut ctx, iter);
                let my_alpha = cfg.policy.alpha_for(outlier_score(&cfg.policy, &db, rank));
                let outcome = centralized_rebalance(&mut ctx, my_alpha, first, weights).await;
                work.migrate(&mut ctx, outcome.partition, iter).await;
                let measured = ctx.now() - lb_started;
                let cost = ctx.allreduce_max(measured).await;
                ctx.end_lb();
                if rank == 0 {
                    if let Some(trig) = trigger.as_mut() {
                        trig.lb_completed(iter, cost);
                    }
                    ctx.mark_lb_event(iter);
                }
                // Workload jumped with the migration: restart the local
                // WIR estimate (persistence applies *between* LB steps).
                wir.reset();
            }
        }

        let summary = work.finish(&mut ctx).await;
        if rank == 0 {
            *self.summary.lock().expect("summary slot poisoned") = Some(summary);
        }
        self.db_entries.fetch_add(db.known_count() as u64, Ordering::Relaxed);
        self.watermarks.fetch_add(outbox.tracked_peers() as u64, Ordering::Relaxed);
    }

    fn outcome(&self, report: RunReport) -> Outcome<W::Summary> {
        let summary = self.summary.lock().expect("summary slot poisoned").take();
        Outcome {
            report,
            summary: summary.expect("rank 0 recorded its summary"),
            db_entries_total: self.db_entries.load(Ordering::Relaxed),
            gossip_watermarks_total: self.watermarks.load(Ordering::Relaxed),
        }
    }
}

/// A ULBA loop ready to execute: where it runs, how it balances, how each
/// rank's workload is built and how the outcome becomes the result `R`.
pub struct Experiment<W: Workload, R> {
    run_cfg: RunConfig,
    shared: Arc<Shared<W>>,
    assemble: fn(Outcome<W::Summary>) -> R,
}

impl<W: Workload, R: 'static> Experiment<W, R> {
    /// Package an experiment; `make` builds one rank's workload.
    pub fn new(
        run_cfg: RunConfig,
        cfg: LoopConfig,
        make: impl Fn(&SpmdCtx) -> W + Send + Sync + 'static,
        assemble: fn(Outcome<W::Summary>) -> R,
    ) -> Self {
        let shared = Arc::new(Shared {
            cfg,
            make: Box::new(make),
            summary: Mutex::new(None),
            db_entries: AtomicU64::new(0),
            watermarks: AtomicU64::new(0),
        });
        Self { run_cfg, shared, assemble }
    }

    /// Run and wait, routed as [`ulba_runtime::run`] routes: the explicit
    /// server, else the global pool, else a transient pool when a worker
    /// count is forced. Panics if the job deadlocks or a rank panics.
    pub fn run(self) -> R {
        let shared = Arc::clone(&self.shared);
        let report = run(self.run_cfg, move |ctx| Arc::clone(&shared).rank(ctx));
        (self.assemble)(self.shared.outcome(report))
    }

    /// Enqueue on `server` without waiting.
    pub fn submit(self, server: &JobServer) -> Job<R> {
        let shared = Arc::clone(&self.shared);
        let handle = server.submit(self.run_cfg, move |ctx| Arc::clone(&shared).rank(ctx));
        let (shared, assemble) = (self.shared, self.assemble);
        Job { handle, finish: Box::new(move |report| assemble(shared.outcome(report))) }
    }
}

/// A submitted [`Experiment`]; join it for the result.
pub struct Job<R> {
    handle: JobHandle,
    finish: Box<dyn FnOnce(RunReport) -> R + Send>,
}

impl<R> std::fmt::Debug for Job<R> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Job").field("job", &self.id()).finish()
    }
}

impl<R> Job<R> {
    /// The runtime job id.
    pub fn id(&self) -> u64 {
        self.handle.id()
    }

    /// Block until the job finishes and build its result. Panics if the
    /// job deadlocked or a rank panicked, as [`Experiment::run`] does.
    pub fn join(self) -> R {
        let report = self.handle.join().unwrap_or_else(|err| panic!("{err}"));
        (self.finish)(report)
    }
}

/// Submit a sweep concurrently and return the results in input order. Each
/// experiment goes to its `RunConfig::server`, else to
/// [`JobServer::global`].
pub fn run_batch<W: Workload, R: 'static>(
    experiments: impl IntoIterator<Item = Experiment<W, R>>,
) -> Vec<R> {
    let jobs: Vec<Job<R>> = experiments
        .into_iter()
        .map(|exp| match exp.run_cfg.server.clone() {
            Some(server) => exp.submit(&server),
            None => exp.submit(JobServer::global()),
        })
        .collect();
    jobs.into_iter().map(Job::join).collect()
}
