//! Executor scaling: the same BSP program (compute + allreduce + barrier
//! per round) on the job server with one worker, two workers, and one
//! worker per core, at growing rank counts.
//!
//! The one-worker pool is the serial baseline: every rank future is polled
//! on one thread, so its cost is the queue + CAS churn per suspension.
//! More workers add work stealing and cross-thread wakes on top; this
//! bench tracks how much of that the parallelism buys back.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use ulba_runtime::{run, RunConfig};

const ROUNDS: u64 = 10;

fn bsp_run(ranks: usize, workers: usize) {
    run(RunConfig::new(ranks).with_workers(workers), |mut ctx| async move {
        for iter in 0..ROUNDS {
            ctx.compute(1.0e6 * ((ctx.rank() % 7 + 1) as f64));
            let total = ctx.allreduce_sum(1.0).await;
            assert_eq!(total, ctx.size() as f64);
            ctx.barrier().await;
            ctx.mark_iteration(iter);
        }
    });
}

fn bench_workers(c: &mut Criterion) {
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let mut g = c.benchmark_group("workers_bsp_10_rounds");
    g.sample_size(10);
    for ranks in [64usize, 256, 1024] {
        for (label, workers) in [("1", 1), ("2", 2), ("all", cores)] {
            g.bench_with_input(BenchmarkId::new(label, ranks), &ranks, |b, &ranks| {
                b.iter(|| bsp_run(ranks, workers))
            });
        }
    }
    g.finish();
}

criterion_group!(benches, bench_workers);
criterion_main!(benches);
