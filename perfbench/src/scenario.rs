//! `scenario-gossip`: all five scenario families × {standard,
//! ulba-fixed:0.4} at P = 256, batched as ten concurrent jobs on one shared
//! pool, with the paper's RandomPush gossip (fanout 2) and the periodic
//! trigger the committed sweep uses. Host time is gossip dissemination and
//! database merging, spread over many concurrent jobs.

use crate::spans::{span, Layer, Sink};
use crate::workload::{mix, OpOutcome, Workload};
use parking_lot::Mutex;
use std::ops::Range;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;
use ulba_core::balancer::centralized_rebalance;
use ulba_core::db::{wire_bytes, WirDatabase, WirEntry};
use ulba_core::gossip::{select_peers, GossipMode, GossipOutbox};
use ulba_core::policy::{estimate_ulba_overhead, outlier_score, LbPolicy};
use ulba_core::trigger::{AnyTrigger, LbTrigger, TriggerKind};
use ulba_core::wir::WirEstimator;
use ulba_runtime::{JobServer, MachineSpec, RunConfig, SpmdCtx};
use ulba_scenario::{
    run_scenario_batch, ScenarioConfig, ScenarioKind, ScenarioResult, WorkTable, GOSSIP_TAG,
    LAMBDA_TOLERANCE, TRAFFIC_TAG,
};

/// Rank count of every job.
pub const RANKS: usize = 256;

/// The ten jobs of one batch, all on the derived config seed.
fn batch_configs(seed: u64) -> Vec<ScenarioConfig> {
    let mut cfgs = Vec::new();
    for kind in ScenarioKind::ALL {
        for policy in [LbPolicy::Standard, LbPolicy::ulba_fixed(0.4)] {
            let mut cfg = ScenarioConfig::new(kind, RANKS);
            cfg.policy = policy;
            cfg.seed = seed;
            cfg.gossip = GossipMode::RandomPush { fanout: 2 };
            // Misaligned with the phase length, as in the committed sweep.
            cfg.trigger = TriggerKind::Periodic(cfg.phase_len + cfg.phase_len / 2);
            cfgs.push(cfg);
        }
    }
    cfgs
}

fn build_table(cfg: &ScenarioConfig) -> WorkTable {
    WorkTable::build(cfg.kind, cfg.ranks, cfg.phases, cfg.lambda, cfg.avg_units_per_rank, cfg.seed)
        .expect("benchmark configs admit feasible tables")
}

/// The scenario app's traffic payload (a keyed counter stream).
fn traffic_payload(rank: usize, iter: u64, words: usize, seed: u64) -> Vec<u64> {
    let key = seed
        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .wrapping_add((rank as u64) << 32)
        .wrapping_add(iter);
    (0..words as u64).map(|i| key.wrapping_mul(i.wrapping_add(1))).collect()
}

/// Tasks that change owner when a range moves from `old` to `new`.
fn tasks_moved(old: &Range<usize>, new: &Range<usize>) -> usize {
    let overlap = old.end.min(new.end).saturating_sub(old.start.max(new.start));
    (old.len() - overlap) + (new.len() - overlap)
}

/// `(total work units, traffic checksum)` recorded by rank 0.
type Extras = Arc<Mutex<Option<(u64, u64)>>>;

/// One rank of the scenario app, step for step as `ulba_scenario::app`
/// runs it, with a span around each call into a layer.
async fn traced_rank(
    mut ctx: SpmdCtx,
    cfg: Arc<ScenarioConfig>,
    table: Arc<WorkTable>,
    sink: Arc<Sink>,
    extras: Extras,
    job: usize,
) {
    let rank = ctx.rank();
    let p = ctx.size();
    let mut tr = sink.rank_trace(job, rank, p);
    let tpr = cfg.tasks_per_rank;
    let mut my_range = rank * tpr..(rank + 1) * tpr;
    let mut wir = WirEstimator::new(cfg.wir_window);
    let mut db = WirDatabase::new(p);
    let mut outbox = GossipOutbox::new();
    let mut trigger: Option<AnyTrigger> = None;
    let mut weights_scratch: Vec<u64> = Vec::new();
    let mut units_done = 0u64;
    let mut traffic_checksum = 0u64;
    let traffic_seed = cfg.seed ^ 0x7AF1_C0DE;
    let (mut rounds, mut allgathers) = (0u64, 0u64);

    for iter in 0..cfg.iterations {
        tr.begin(Layer::Iteration);
        let iter_start = ctx.now();
        let phase = table.phase_of(iter, cfg.phase_len);

        if cfg.kind == ScenarioKind::TaskGraph {
            let partners = select_peers(
                GossipMode::RandomPush { fanout: cfg.traffic_fanout },
                rank,
                p,
                iter,
                traffic_seed,
            );
            for peer in partners {
                let payload = traffic_payload(rank, iter, cfg.traffic_payload_len, cfg.seed);
                let bytes = payload.len() * 8;
                ctx.send(peer, TRAFFIC_TAG, payload, bytes);
            }
        }

        let workload_flops = span!(tr, Layer::Compute, {
            let units = table.range_units(phase, &my_range, tpr);
            units_done += units;
            let workload_flops = units as f64 * cfg.flop_per_unit;
            ctx.compute(workload_flops);
            workload_flops
        });

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
        for (_, payload) in ctx.drain::<Vec<u64>>(TRAFFIC_TAG) {
            for word in payload {
                traffic_checksum = traffic_checksum.wrapping_add(word);
            }
        }

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
            let my_alpha = span!(tr, Layer::OutlierScore, {
                let my_z = outlier_score(&cfg.policy, &db, rank);
                cfg.policy.alpha_for(my_z)
            });
            table.task_weights_into(phase, &my_range, tpr, &mut weights_scratch);
            let outcome = span!(
                tr,
                Layer::Rebalance,
                centralized_rebalance(&mut ctx, my_alpha, my_range.start, &weights_scratch).await
            );
            rounds += 3;
            let partition = outcome.partition.clone().ensure_nonempty();
            let bounds = partition.bounds();
            let new_range = bounds[rank]..bounds[rank + 1];
            let moved = tasks_moved(&my_range, &new_range);
            if moved > 0 {
                ctx.elapse_lb(ctx.machine().p2p_secs(moved * cfg.task_bytes));
            }
            my_range = new_range;
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

    let (total_units, checksum) = span!(tr, Layer::Allreduce, {
        let total_units = ctx.allreduce(units_done, 8, |a, b| a.wrapping_add(*b)).await;
        let checksum = ctx.allreduce(traffic_checksum, 8, |a, b| a.wrapping_add(*b)).await;
        (total_units, checksum)
    });
    rounds += 2;
    tr.counters.db_entries += db.known_count() as u64;
    if rank == 0 {
        tr.counters.rounds += rounds;
        tr.counters.allgather_bytes += allgathers * (p * p * 16) as u64;
        *extras.lock() = Some((total_units, checksum));
    }
    sink.absorb(tr);
}

/// `scenario-gossip`: ten concurrent scenario jobs on one pool.
pub struct ScenarioGossip {
    server: JobServer,
    cfgs: Vec<ScenarioConfig>,
    /// Work units per iteration of each job's table (work conservation).
    units_per_iter: Vec<u64>,
}

impl ScenarioGossip {
    /// Start the pool, validate every job and build its work table, and run
    /// one untimed single-iteration warmup job.
    pub fn setup(seed: u64, workers: usize) -> Self {
        let server = JobServer::new(workers);
        let cfgs: Vec<ScenarioConfig> = batch_configs(mix(seed, 0x5C))
            .into_iter()
            .map(|cfg| cfg.with_server(server.clone()))
            .collect();
        let mut units_per_iter = Vec::new();
        for cfg in &cfgs {
            cfg.validate().expect("benchmark configs are valid");
            units_per_iter.push(build_table(cfg).total_units);
        }
        let warm = ScenarioConfig { iterations: 1, ..cfgs[0].clone() };
        catch_unwind(AssertUnwindSafe(|| run_scenario_batch(&[warm]))).expect("warmup job runs");
        Self { server, cfgs, units_per_iter }
    }

    fn units(&self) -> f64 {
        self.cfgs.iter().map(|c| (c.ranks as u64 * c.iterations) as f64).sum()
    }
}

/// The values the traced replay must reproduce bit for bit.
fn virtual_outputs(makespan: f64, lb_calls: u64, units: u64, checksum: u64) -> [u64; 4] {
    [makespan.to_bits(), lb_calls, units, checksum]
}

impl Workload for ScenarioGossip {
    fn cycle(&self) -> usize {
        1
    }

    fn workers(&self) -> usize {
        self.server.workers()
    }

    fn describe(&self) -> Vec<(&'static str, String)> {
        let c = &self.cfgs[0];
        vec![
            ("workers", self.workers().to_string()),
            ("ranks", c.ranks.to_string()),
            ("iterations", c.iterations.to_string()),
            ("jobs", self.cfgs.len().to_string()),
            ("families", ScenarioKind::ALL.map(|k| k.name()).join(",")),
            ("policy", "standard+ulba-fixed:0.4".to_string()),
            ("trigger", format!("{:?}", c.trigger)),
            ("gossip", format!("{:?}", c.gossip)),
            ("gossip_wire", c.gossip_wire.to_string()),
            ("config_seeds", format!("{:#x}", c.seed)),
        ]
    }

    fn run(&mut self, _k: usize) -> OpOutcome {
        let jobs = self.cfgs.len() as u64;
        let Ok(results) = catch_unwind(AssertUnwindSafe(|| run_scenario_batch(&self.cfgs))) else {
            return OpOutcome::failed(jobs);
        };
        let mut out = OpOutcome { jobs, units: self.units(), ..OpOutcome::default() };
        for ((res, cfg), &per_iter) in results.iter().zip(&self.cfgs).zip(&self.units_per_iter) {
            let conserved = res.total_work_units == cfg.iterations * per_iter;
            let lambda_ok = (res.lambda_achieved - res.lambda_target).abs()
                <= LAMBDA_TOLERANCE * res.lambda_target;
            if !(conserved && lambda_ok) {
                eprintln!(
                    "scenario-gossip [{}/{}]: work conserved {conserved}, λ {} vs target {}",
                    cfg.kind.name(),
                    cfg.policy.name(),
                    res.lambda_achieved,
                    res.lambda_target
                );
                out.failed += 1;
            }
            out.virt.extend(virtual_outputs(
                res.makespan,
                res.lb_calls as u64,
                res.total_work_units,
                res.traffic_checksum,
            ));
            out.exact.extend(fingerprint(res));
        }
        out
    }

    fn replay(&mut self, _k: usize, sink: &Arc<Sink>) -> OpOutcome {
        let mut host = sink.host_trace(RANKS);
        let mut handles = Vec::new();
        for (job, cfg) in self.cfgs.iter().enumerate() {
            let table = Arc::new(span!(host, Layer::TableBuild, build_table(cfg)));
            let run_cfg = RunConfig::new(cfg.ranks)
                .with_spec(MachineSpec::homogeneous(cfg.omega))
                .with_server(self.server.clone());
            let mut owned = cfg.clone();
            owned.server = None;
            let cfg = Arc::new(owned);
            let extras: Extras = Arc::default();
            let (sink, out) = (Arc::clone(sink), Arc::clone(&extras));
            let handle = self.server.submit(run_cfg, move |ctx| {
                traced_rank(
                    ctx,
                    Arc::clone(&cfg),
                    Arc::clone(&table),
                    Arc::clone(&sink),
                    Arc::clone(&out),
                    job,
                )
            });
            handles.push((handle, extras));
        }
        sink.absorb(host);
        let mut out =
            OpOutcome { jobs: self.cfgs.len() as u64, units: self.units(), ..OpOutcome::default() };
        for (handle, extras) in handles {
            match handle.join() {
                Ok(report) => {
                    let (units, checksum) = extras.lock().take().expect("rank 0 recorded extras");
                    out.virt.extend(virtual_outputs(
                        report.makespan().as_secs(),
                        report.lb_call_count() as u64,
                        units,
                        checksum,
                    ));
                }
                Err(err) => {
                    eprintln!("traced scenario job failed: {err}");
                    out.failed += 1;
                }
            }
        }
        out
    }
}

/// Everything exact an untraced scenario job produced.
fn fingerprint(res: &ScenarioResult) -> Vec<u64> {
    let mut v = vec![
        res.makespan.to_bits(),
        res.lb_calls as u64,
        res.db_entries_total,
        res.gossip_watermarks_total,
        res.total_work_units,
        res.traffic_checksum,
        res.lambda_achieved.to_bits(),
    ];
    v.extend(&res.lb_iterations);
    v
}
