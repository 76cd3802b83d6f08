//! The two erosion workloads and the traced replay of the erosion rank body.
//!
//! * `erosion-weak` — the weak-scaling smoke configuration at P = 16384
//!   (ULBA arm, Ring gossip, 10 iterations). Its host time is dominated by
//!   the runtime's collectives. Even ops run the committed configuration,
//!   whose virtual makespan must equal the seed baseline exactly; odd ops
//!   run the same shape on a seed derived from the benchmark seed.
//! * `erosion-paper` — the erosion configuration of the repository's Fig. 4
//!   pipeline (`ErosionConfig::scaled`: 250 × 250 cells per PE with the
//!   paper's per-iteration FLOPs and erosion timescale, 400 iterations,
//!   Zhai trigger) at P = 64, a standard and a ULBA arm per op. Its host
//!   time is the erosion kernel, the halo exchange and migration. The
//!   1000 × 1000 paper domain stresses the same layers, but its host speed
//!   moved by up to 20% between runs of one seed on a shared 2-core
//!   machine, too wide for a regression bound.

use crate::spans::{span, Layer, Sink};
use crate::workload::{mix, OpOutcome, Workload};
use parking_lot::Mutex;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;
use ulba_core::balancer::centralized_rebalance;
use ulba_core::db::{wire_bytes, WirDatabase, WirEntry};
use ulba_core::gossip::{select_peers, GossipMode, GossipOutbox, GossipWire};
use ulba_core::partition::Partition;
use ulba_core::policy::{estimate_ulba_overhead, outlier_score, LbPolicy};
use ulba_core::trigger::{AnyTrigger, LbTrigger};
use ulba_core::wir::WirEstimator;
use ulba_erosion::app::{FRONTIER_FLOP, GOSSIP_TAG};
use ulba_erosion::erode::erosion_step;
use ulba_erosion::{
    choose_strong_rocks, exchange_halos_reusing, migrate, submit_erosion, ErosionConfig,
    ExperimentResult, Geometry, HaloScratch, Stripe,
};
use ulba_runtime::{JobHandle, JobServer, MachineSpec, RunConfig, SpmdCtx};

/// Rank count of `erosion-weak`.
pub const WEAK_RANKS: usize = 16384;
/// Virtual makespan of the committed `erosion-weak` configuration in
/// `results/BENCH_seed.json` (both policy arms, every backend).
pub const WEAK_REFERENCE_MAKESPAN: f64 = 0.12409854480000003;
/// Rank count of `erosion-paper`.
pub const PAPER_RANKS: usize = 64;
/// Strongly erodible rocks of `erosion-paper`.
pub const PAPER_STRONG_ROCKS: usize = 2;

/// The weak-scaling smoke configuration of the committed seed baseline
/// (`weak_scaling --smoke` at P = 16384, ULBA arm).
pub fn weak_config() -> ErosionConfig {
    let mut cfg = ErosionConfig::tiny(WEAK_RANKS, (WEAK_RANKS / 64).clamp(1, WEAK_RANKS));
    cfg.policy = LbPolicy::ulba_fixed(0.4);
    cfg.gossip_wire = GossipWire::delta();
    cfg.cols_per_pe = 32;
    cfg.height = 32;
    cfg.rock_radius = 7;
    cfg.iterations = 10;
    cfg.gossip = GossipMode::Ring;
    cfg
}

/// Everything exact an untraced erosion job produced.
fn fingerprint(res: &ExperimentResult) -> Vec<u64> {
    let mut v = vec![
        res.makespan.to_bits(),
        res.lb_calls as u64,
        res.total_eroded,
        res.final_total_weight,
        res.db_entries_total,
        res.gossip_watermarks_total,
    ];
    v.extend(&res.lb_iterations);
    v
}

/// The values the traced replay must reproduce bit for bit.
fn virtual_outputs(makespan: f64, lb_calls: u64, eroded: u64, weight: u64) -> [u64; 4] {
    [makespan.to_bits(), lb_calls, eroded, weight]
}

/// Run `cfgs` concurrently on `server` through the app's own entry point.
fn run_jobs(server: &JobServer, cfgs: &[ErosionConfig]) -> Option<Vec<ExperimentResult>> {
    catch_unwind(AssertUnwindSafe(|| {
        let jobs: Vec<_> = cfgs.iter().map(|cfg| submit_erosion(server, cfg)).collect();
        jobs.into_iter().map(|job| job.join()).collect()
    }))
    .ok()
}

/// `(final fluid weight, eroded cells)` recorded by rank 0 of a replayed job.
type Physics = Arc<Mutex<Option<(u64, u64)>>>;

/// Submit the traced replay of `cfg` as job `job` of the op `sink` collects.
fn submit_traced(
    server: &JobServer,
    cfg: &ErosionConfig,
    sink: &Arc<Sink>,
    job: usize,
) -> (JobHandle, Physics) {
    assert!(!cfg.anticipatory_partitioning, "the replay covers the non-anticipatory path");
    cfg.validate().expect("benchmark configs are valid");
    let geometry = Arc::new(Geometry::new(cfg.ranks, cfg.cols_per_pe, cfg.height, cfg.rock_radius));
    let strong = Arc::new(choose_strong_rocks(cfg));
    let initial =
        Partition::from_bounds((0..=cfg.ranks).map(|r| r * cfg.cols_per_pe).collect(), cfg.width());
    let run_cfg = RunConfig::new(cfg.ranks)
        .with_spec(MachineSpec::homogeneous(cfg.omega))
        .with_server(server.clone());
    let mut owned = cfg.clone();
    owned.server = None;
    let cfg = Arc::new(owned);
    let physics: Physics = Arc::default();
    let (sink, out) = (Arc::clone(sink), Arc::clone(&physics));
    let handle = server.submit(run_cfg, move |ctx| {
        traced_rank(
            ctx,
            Arc::clone(&cfg),
            Arc::clone(&geometry),
            Arc::clone(&strong),
            initial.clone(),
            Arc::clone(&sink),
            Arc::clone(&out),
            job,
        )
    });
    (handle, physics)
}

/// Replay `cfgs` concurrently, traced; returns the op outcome whose `virt`
/// lines up with [`untraced_outcome`]'s.
fn replay_jobs(server: &JobServer, cfgs: &[ErosionConfig], sink: &Arc<Sink>) -> OpOutcome {
    let jobs: Vec<_> =
        cfgs.iter().enumerate().map(|(job, cfg)| submit_traced(server, cfg, sink, job)).collect();
    let mut out = OpOutcome { jobs: cfgs.len() as u64, ..OpOutcome::default() };
    for ((handle, physics), cfg) in jobs.into_iter().zip(cfgs) {
        match handle.join() {
            Ok(report) => {
                let (weight, eroded) = physics.lock().take().expect("rank 0 recorded the physics");
                out.virt.extend(virtual_outputs(
                    report.makespan().as_secs(),
                    report.lb_call_count() as u64,
                    eroded,
                    weight,
                ));
                out.units += (cfg.ranks as u64 * cfg.iterations) as f64;
            }
            Err(err) => {
                eprintln!("traced erosion job failed: {err}");
                out.failed += 1;
            }
        }
    }
    out
}

/// The op outcome of untraced results (`None`: the op panicked).
fn untraced_outcome(cfgs: &[ErosionConfig], results: Option<Vec<ExperimentResult>>) -> OpOutcome {
    let Some(results) = results else {
        return OpOutcome::failed(cfgs.len() as u64);
    };
    let mut out = OpOutcome { jobs: cfgs.len() as u64, ..OpOutcome::default() };
    for (res, cfg) in results.iter().zip(cfgs) {
        out.units += (cfg.ranks as u64 * cfg.iterations) as f64;
        out.virt.extend(virtual_outputs(
            res.makespan,
            res.lb_calls as u64,
            res.total_eroded,
            res.final_total_weight,
        ));
        out.exact.extend(fingerprint(res));
    }
    out
}

/// One rank of the erosion app, step for step as `ulba_erosion::app` runs
/// it, with a span around each call into a layer.
#[allow(clippy::too_many_arguments)]
async fn traced_rank(
    mut ctx: SpmdCtx,
    cfg: Arc<ErosionConfig>,
    geometry: Arc<Geometry>,
    strong: Arc<Vec<usize>>,
    initial_partition: Partition,
    sink: Arc<Sink>,
    physics: Physics,
    job: usize,
) {
    let rank = ctx.rank();
    let p = ctx.size();
    let mut tr = sink.rank_trace(job, rank, p);
    let prob_of = |col: usize| {
        if strong.binary_search(&(col / cfg.cols_per_pe)).is_ok() {
            cfg.p_strong
        } else {
            cfg.p_weak
        }
    };
    let mut stripe = span!(
        tr,
        Layer::Init,
        Stripe::initial(&geometry, rank * cfg.cols_per_pe..(rank + 1) * cfg.cols_per_pe)
    );
    let mut prev_partition = initial_partition;
    let mut wir = WirEstimator::new(cfg.wir_window);
    let mut db = WirDatabase::new(p);
    let mut outbox = GossipOutbox::new();
    let mut trigger: Option<AnyTrigger> = None;
    let mut eroded_total = 0u64;
    let mut halo_scratch = HaloScratch::new();
    let mut weights_scratch: Vec<u64> = Vec::new();
    let (mut rounds, mut allgathers) = (0u64, 0u64);

    for iter in 0..cfg.iterations {
        tr.begin(Layer::Iteration);
        let iter_start = ctx.now();

        let halos = span!(tr, Layer::Halo, {
            let halos = exchange_halos_reusing(&mut ctx, &stripe, &mut halo_scratch).await;
            stripe.refresh_boundary_exposure(halos.left.as_deref(), halos.right.as_deref());
            halos
        });

        let workload_flops = stripe.fluid_weight() as f64 * cfg.flop_per_cell;
        let exposed = stripe.exposed_count();
        tr.counters.frontier_cells += exposed as u64;
        ctx.compute(workload_flops + exposed as f64 * FRONTIER_FLOP);

        let first_col = stripe.first_col();
        let delta = span!(
            tr,
            Layer::Step,
            erosion_step(
                stripe.cols_mut(),
                first_col,
                halos.left.as_deref(),
                halos.right.as_deref(),
                cfg.seed,
                iter,
                &prob_of,
            )
        );
        eroded_total += delta.eroded as u64;
        halos.recycle_into(&mut halo_scratch);

        wir.push(iter, workload_flops);
        if let Some(rate) = wir.rate() {
            db.update(WirEntry { rank, wir: rate, iteration: iter });
        }
        span!(tr, Layer::GossipSend, {
            for peer in select_peers(cfg.gossip, rank, p, iter, cfg.seed) {
                let payload = outbox.message(&db, peer, iter, cfg.gossip_wire);
                let payload_bytes = wire_bytes(&payload);
                tr.counters.gossip_bytes += payload_bytes as u64;
                ctx.send(peer, GOSSIP_TAG, payload, payload_bytes);
            }
        });

        // The span covers the call and the reduction of its result.
        let elapsed = ctx.now() - iter_start;
        let (t_iter, wtot_flops) = span!(tr, Layer::Allgather, {
            let stats = ctx.allgather((elapsed, workload_flops), 16).await;
            let t_iter = stats.iter().map(|s| s.0).fold(0.0f64, f64::max);
            let wtot_flops: f64 = stats.iter().map(|s| s.1).sum();
            (t_iter, wtot_flops)
        });
        (rounds, allgathers) = (rounds + 1, allgathers + 1);

        span!(tr, Layer::GossipMerge, {
            for (_, snap) in ctx.drain::<Vec<WirEntry>>(GOSSIP_TAG) {
                db.merge(&snap);
            }
        });

        let my_flag = if rank == 0 {
            span!(tr, Layer::Trigger, {
                let trig = trigger
                    .get_or_insert_with(|| cfg.trigger.build(cfg.initial_lb_cost_factor * t_iter));
                trig.set_overhead_estimate(estimate_ulba_overhead(
                    &cfg.policy,
                    &db,
                    wtot_flops,
                    cfg.omega,
                    p,
                ));
                Some(trig.observe(iter, t_iter))
            })
        } else {
            None
        };
        let lb_now = span!(tr, Layer::Broadcast, ctx.broadcast(0, my_flag, 1).await);
        rounds += 1;
        ctx.mark_iteration(iter);

        if lb_now && iter + 1 < cfg.iterations {
            tr.begin(Layer::LbStep);
            ctx.begin_lb();
            let lb_started = ctx.now();
            ctx.elapse_lb(cfg.lb_fixed_cost_secs());
            if rank == 0 {
                ctx.elapse_lb(cfg.lb_root_walk_secs());
            }
            let my_alpha = span!(tr, Layer::OutlierScore, {
                let my_z = outlier_score(&cfg.policy, &db, rank);
                cfg.policy.alpha_for(my_z)
            });
            stripe.col_weights_into(&mut weights_scratch);
            let outcome = span!(
                tr,
                Layer::Rebalance,
                centralized_rebalance(&mut ctx, my_alpha, stripe.first_col(), &weights_scratch)
                    .await
            );
            rounds += 3;
            let partition = outcome.partition.clone().ensure_nonempty();
            span!(tr, Layer::Allgather, {
                let _ = ctx.allgather((stripe.first_col(), stripe.len()), 16).await;
            });
            (rounds, allgathers) = (rounds + 1, allgathers + 1);
            stripe = span!(
                tr,
                Layer::Migrate,
                migrate(&mut ctx, stripe, &prev_partition, &partition).await
            );
            prev_partition = partition;
            let measured = ctx.now() - lb_started;
            let cost = span!(tr, Layer::Allreduce, ctx.allreduce_max(measured).await);
            rounds += 1;
            ctx.end_lb();
            if rank == 0 {
                if let Some(trig) = trigger.as_mut() {
                    trig.lb_completed(iter, cost);
                }
                ctx.mark_lb_event(iter);
                tr.counters.lb_calls += 1;
            }
            wir.reset();
            tr.end(Layer::LbStep);
        }
        tr.end(Layer::Iteration);
    }

    let (final_weight, eroded) = span!(tr, Layer::Allreduce, {
        let final_weight = ctx.allreduce_sum(stripe.fluid_weight() as f64).await as u64;
        let eroded = ctx.allreduce_sum(eroded_total as f64).await as u64;
        (final_weight, eroded)
    });
    rounds += 2;
    tr.counters.db_entries += db.known_count() as u64;
    if rank == 0 {
        tr.counters.rounds += rounds;
        tr.counters.allgather_bytes += allgathers * (p * p * 16) as u64;
        *physics.lock() = Some((final_weight, eroded));
    }
    sink.absorb(tr);
}

fn erosion_describe(cfg: &ErosionConfig, workers: usize) -> Vec<(&'static str, String)> {
    vec![
        ("workers", workers.to_string()),
        ("ranks", cfg.ranks.to_string()),
        ("iterations", cfg.iterations.to_string()),
        ("cells_per_pe", format!("{}x{}", cfg.cols_per_pe, cfg.height)),
        ("strong_rocks", cfg.strong_rocks.to_string()),
        ("trigger", format!("{:?}", cfg.trigger)),
        ("gossip", format!("{:?}", cfg.gossip)),
        ("gossip_wire", cfg.gossip_wire.to_string()),
    ]
}

/// `erosion-weak`: the P = 16384 weak-scaling smoke configuration.
pub struct ErosionWeak {
    server: JobServer,
    /// `[committed configuration, seeded configuration]`.
    cfgs: [ErosionConfig; 2],
}

impl ErosionWeak {
    /// Start the pool, validate both configurations and run one untimed
    /// single-iteration warmup job.
    pub fn setup(seed: u64, workers: usize) -> Self {
        let server = JobServer::new(workers);
        let reference = weak_config();
        let mut seeded = weak_config();
        seeded.seed = mix(seed, 0xE1);
        for cfg in [&reference, &seeded] {
            cfg.validate().expect("benchmark configs are valid");
        }
        let mut warm = reference.clone();
        warm.iterations = 1;
        run_jobs(&server, &[warm]).expect("warmup job runs");
        Self { server, cfgs: [reference, seeded] }
    }
}

impl Workload for ErosionWeak {
    fn cycle(&self) -> usize {
        2
    }

    fn workers(&self) -> usize {
        self.server.workers()
    }

    fn describe(&self) -> Vec<(&'static str, String)> {
        let mut d = erosion_describe(&self.cfgs[0], self.workers());
        d.push(("policy", self.cfgs[0].policy.name().to_string()));
        d.push(("config_seeds", format!("{:#x},{:#x}", self.cfgs[0].seed, self.cfgs[1].seed)));
        d
    }

    fn run(&mut self, k: usize) -> OpOutcome {
        let cfgs = std::slice::from_ref(&self.cfgs[k % 2]);
        let results = run_jobs(&self.server, cfgs);
        let mut out = untraced_outcome(cfgs, results);
        if k.is_multiple_of(2)
            && out.failed == 0
            && out.virt[0] != WEAK_REFERENCE_MAKESPAN.to_bits()
        {
            eprintln!(
                "erosion-weak: makespan {} differs from the seed baseline {WEAK_REFERENCE_MAKESPAN}",
                f64::from_bits(out.virt[0])
            );
            out.failed = out.jobs;
        }
        out
    }

    fn replay(&mut self, k: usize, sink: &Arc<Sink>) -> OpOutcome {
        replay_jobs(&self.server, std::slice::from_ref(&self.cfgs[k % 2]), sink)
    }
}

/// `erosion-paper`: the Fig. 4 domain at P = 64. Each op runs the
/// standard and the ULBA arm as two concurrent jobs on the pool.
pub struct ErosionPaper {
    server: JobServer,
    /// `[standard arm, ULBA arm]`.
    cfgs: [ErosionConfig; 2],
}

impl ErosionPaper {
    /// Start the pool, validate both arms and run one untimed
    /// single-iteration warmup pair.
    pub fn setup(seed: u64, workers: usize) -> Self {
        let server = JobServer::new(workers);
        let mut base = ErosionConfig::scaled(PAPER_RANKS, PAPER_STRONG_ROCKS);
        base.seed = mix(seed, 0xE2);
        let mut standard = base.clone();
        standard.policy = LbPolicy::Standard;
        let mut ulba = base;
        ulba.policy = LbPolicy::ulba_fixed(0.4);
        for cfg in [&standard, &ulba] {
            cfg.validate().expect("benchmark configs are valid");
        }
        let warm: Vec<ErosionConfig> = [&standard, &ulba]
            .iter()
            .map(|c| ErosionConfig { iterations: 1, ..(*c).clone() })
            .collect();
        run_jobs(&server, &warm).expect("warmup jobs run");
        Self { server, cfgs: [standard, ulba] }
    }
}

impl Workload for ErosionPaper {
    fn cycle(&self) -> usize {
        1
    }

    fn workers(&self) -> usize {
        self.server.workers()
    }

    fn describe(&self) -> Vec<(&'static str, String)> {
        let mut d = erosion_describe(&self.cfgs[0], self.workers());
        d.push(("policy", "standard+ulba-fixed:0.4".to_string()));
        d.push(("config_seeds", format!("{:#x}", self.cfgs[0].seed)));
        d
    }

    fn run(&mut self, _k: usize) -> OpOutcome {
        let results = run_jobs(&self.server, &self.cfgs);
        // The stateless erosion sampling makes the physics independent of
        // the LB policy by design: both arms must erode the same cells.
        let physics: Option<Vec<(u64, u64)>> = results
            .as_ref()
            .map(|r| r.iter().map(|res| (res.total_eroded, res.final_total_weight)).collect());
        let mut out = untraced_outcome(&self.cfgs, results);
        if let Some(p) = physics {
            out.physics_checked = 1;
            if p[0] != p[1] {
                eprintln!(
                    "erosion-paper: physics differs between policies: standard eroded {} \
                     (weight {}), ulba eroded {} (weight {})",
                    p[0].0, p[0].1, p[1].0, p[1].1
                );
                out.physics_diverged = 1;
            }
        }
        out
    }

    fn replay(&mut self, _k: usize, sink: &Arc<Sink>) -> OpOutcome {
        replay_jobs(&self.server, &self.cfgs, sink)
    }
}
