//! Contention of the collective rendezvous hub on the job server.
//!
//! A barrier-storm BSP program (two collectives per round, negligible
//! compute) makes the hub *the* hot path: every rank deposits and drains
//! every round, so with a single shard all of them serialize through one
//! mutex. The sweep compares the degenerate `S = 1` hub (the pre-shard
//! design) against per-worker sharding and heavy sharding at growing rank
//! counts — the curves are part of the tracked perf trajectory, read
//! against the halo-only (hub-free) stress baseline in
//! `tests/runtime_stress.rs`.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use ulba_runtime::{run, RunConfig};

const ROUNDS: u64 = 8;

/// Collective-dense BSP round: the hub round-trips twice per iteration and
/// the compute slice is tiny, so rendezvous locking dominates.
fn hub_storm(ranks: usize, hub_shards: usize) {
    let config = RunConfig::new(ranks).with_hub_shards(hub_shards);
    run(config, |mut ctx| async move {
        for iter in 0..ROUNDS {
            ctx.compute(1.0e4 * ((ctx.rank() % 3 + 1) as f64));
            let total = ctx.allreduce_sum(1.0).await;
            assert_eq!(total, ctx.size() as f64);
            ctx.barrier().await;
            ctx.mark_iteration(iter);
        }
    });
}

fn bench_hub_contention(c: &mut Criterion) {
    let mut g = c.benchmark_group("hub_storm_8_rounds");
    g.sample_size(10);
    for ranks in [256usize, 1024, 4096] {
        // S = 1 is the pre-shard hub; S = 0 resolves to the per-worker
        // default; the explicit counts chart the contention curve.
        for (label, shards) in
            [("shards_1", 1usize), ("shards_8", 8), ("shards_64", 64), ("shards_default", 0)]
        {
            g.bench_with_input(BenchmarkId::new(label, ranks), &ranks, |b, &ranks| {
                b.iter(|| hub_storm(ranks, shards))
            });
        }
    }
    g.finish();
}

criterion_group!(benches, bench_hub_contention);
criterion_main!(benches);
