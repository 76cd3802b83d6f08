//! Plugging your own application into the ULBA rank loop — without the
//! erosion application — on a synthetic drifting-hotspot workload.
//!
//! An application implements [`Workload`] for the data one rank owns:
//! compute one iteration, report per-item weights at an LB step, migrate to
//! the new partition. [`Experiment`] runs the rest of §III-C around it: WIR
//! estimation → gossip → z-score detection → Zhai trigger → centralized
//! weighted rebalancing.
//!
//! Run with: `cargo run --release --example adaptive_runtime`
//!
//! The worker count is selectable per process: e.g.
//! `ULBA_WORKERS=1 cargo run --example adaptive_runtime` runs the same
//! program (with a bit-identical report) on a single worker thread instead
//! of one worker per core.

use ulba::core::driver::{Experiment, LoopConfig, Workload};
use ulba::core::prelude::*;
use ulba::runtime::{RunConfig, SpmdCtx};

/// Items each rank owns initially.
const ITEMS_PER_RANK: usize = 1_000;
/// The rank whose initial items keep gaining weight.
const HOTSPOT: usize = 12;

/// A contiguous range of weighted items (think: mesh cells).
struct Hotspot {
    /// Global index of the first owned item.
    start: usize,
    weights: Vec<u64>,
}

impl Workload for Hotspot {
    type Summary = ();

    async fn iterate(&mut self, ctx: &mut SpmdCtx, _iter: u64) -> f64 {
        // Hotspot dynamics: items in the hotspot's original range keep
        // getting heavier (think: refining mesh cells).
        for (i, w) in self.weights.iter_mut().enumerate() {
            let global = self.start + i;
            if global / ITEMS_PER_RANK == HOTSPOT && global.is_multiple_of(7) {
                *w += 4;
            }
        }
        let flops = self.weights.iter().sum::<u64>() as f64 * 1.0e4;
        ctx.compute(flops);
        flops
    }

    fn lb_weights(&mut self, _ctx: &mut SpmdCtx, _iter: u64) -> (usize, &[u64]) {
        (self.start, &self.weights)
    }

    async fn migrate(&mut self, ctx: &mut SpmdCtx, partition: Partition, _iter: u64) {
        // Migrate the plain weight vector (no cell payload here).
        let bytes = self.weights.len() * 8;
        let all: Vec<u64> = ctx
            .allgather_fold((self.start, self.weights.clone()), bytes, |chunks| {
                chunks.iter().flat_map(|(_, w)| w.iter().copied()).collect()
            })
            .await;
        let range = partition.range(ctx.rank());
        self.start = range.start;
        self.weights = all[range].to_vec();
    }

    async fn finish(self, _ctx: &mut SpmdCtx) {}
}

fn main() {
    let pes = 16usize;
    let config = RunConfig::new(pes);
    let workers = if config.workers == 0 { "all".to_string() } else { config.workers.to_string() };
    println!("workers: {workers} ({pes} PEs)\n");

    let ulba = LoopConfig {
        iterations: 200,
        policy: LbPolicy::ulba_fixed(0.3),
        trigger: TriggerKind::Zhai,
        // The first LB is expected to cost 5 % of an iteration.
        initial_lb_cost_factor: 0.05,
        // A synthetic fixed LB cost (repartitioning a real domain is never
        // free; without it the trigger would thrash).
        lb_fixed_secs: 0.05,
        gossip: GossipMode::RandomPush { fanout: 2 },
        // Delta gossip with a 16-iteration anti-entropy period: messages
        // carry only entries the peer has not plausibly seen, and the bytes
        // charged on the (virtual) wire reflect exactly that.
        gossip_wire: GossipWire::Delta { full_every: 16 },
        gossip_tag: 9,
        wir_window: 6,
        seed: 1,
    };
    let make = |ctx: &SpmdCtx| Hotspot {
        start: ctx.rank() * ITEMS_PER_RANK,
        weights: vec![100; ITEMS_PER_RANK],
    };
    let report = Experiment::new(config, ulba, make, |out| out.report).run();

    println!("makespan: {:.2} s over {pes} PEs", report.makespan().as_secs());
    println!("mean utilization: {:.1} %", report.mean_utilization() * 100.0);
    println!("LB steps: {:?}", report.lb_iterations);
    assert!(!report.lb_iterations.is_empty(), "the growing hotspot must trigger a rebalance");
}
