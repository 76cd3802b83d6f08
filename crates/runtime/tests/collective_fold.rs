//! Reduce-once collectives: `allreduce` and `allgather_fold` compute each
//! round's reduction once, in rank order, and hand every rank the same
//! result — for every worker count and every hub shard count.

use parking_lot::Mutex;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use ulba_runtime::{run, RunConfig};

const WORKERS: [usize; 3] = [1, 2, 3];

/// Hub shard counts: single, even split, ragged, and one rank per shard.
fn shards(ranks: usize) -> [usize; 4] {
    [1, 2, 7, ranks]
}

fn config(ranks: usize, workers: usize, shards: usize) -> RunConfig {
    RunConfig::new(ranks).with_workers(workers).with_hub_shards(shards)
}

/// Per-rank summands whose `f64` sum depends on the association order:
/// the `±1e16` terms swallow the small ones they meet.
const CANCELLING: [f64; 12] = [1e16, 1.0, -1e16, 1.0, 0.5, 1e16, -1e16, 3.0, 1.0, -1e16, 1e16, 7.0];

#[test]
fn allreduce_is_the_rank_order_left_fold_everywhere() {
    let left = CANCELLING.iter().copied().reduce(|a, b| a + b).unwrap();
    let reversed = CANCELLING.iter().rev().copied().reduce(|a, b| a + b).unwrap();
    let by_shard: f64 = CANCELLING.chunks(4).map(|c| c.iter().sum::<f64>()).sum();
    assert_ne!(left, reversed, "summands must discriminate association orders");
    assert_ne!(left, by_shard, "summands must discriminate per-shard partial sums");

    for workers in WORKERS {
        for shards in shards(CANCELLING.len()) {
            let seen = Arc::new(Mutex::new(Vec::new()));
            let sink = Arc::clone(&seen);
            run(config(CANCELLING.len(), workers, shards), move |mut ctx| {
                let sink = Arc::clone(&sink);
                async move {
                    let sum = ctx.allreduce_sum(CANCELLING[ctx.rank()]).await;
                    sink.lock().push(sum.to_bits());
                }
            });
            let seen = seen.lock();
            assert_eq!(seen.len(), CANCELLING.len());
            for &bits in seen.iter() {
                assert_eq!(bits, left.to_bits(), "workers = {workers}, S = {shards}");
            }
        }
    }
}

#[test]
fn allgather_fold_runs_once_per_round_and_shares_its_result() {
    const RANKS: usize = 13;
    const ROUNDS: u64 = 5;
    for workers in WORKERS {
        for shards in shards(RANKS) {
            let folds = Arc::new(AtomicUsize::new(0));
            let seen = Arc::new(Mutex::new(Vec::new()));
            let (fold_count, sink) = (Arc::clone(&folds), Arc::clone(&seen));
            run(config(RANKS, workers, shards), move |mut ctx| {
                let (folds, sink) = (Arc::clone(&fold_count), Arc::clone(&sink));
                async move {
                    for round in 0..ROUNDS {
                        let value = (ctx.rank() as u64 + 1) * (round + 1);
                        let got = ctx
                            .allgather_fold(value, 8, |values| {
                                folds.fetch_add(1, Ordering::SeqCst);
                                values.iter().copied().collect::<Vec<u64>>()
                            })
                            .await;
                        sink.lock().push((round, got));
                    }
                }
            });
            let label = format!("workers = {workers}, S = {shards}");
            assert_eq!(folds.load(Ordering::SeqCst), ROUNDS as usize, "{label}");
            let seen = seen.lock();
            assert_eq!(seen.len(), RANKS * ROUNDS as usize, "{label}");
            for (round, got) in seen.iter() {
                let want: Vec<u64> = (1..=RANKS as u64).map(|r| r * (round + 1)).collect();
                assert_eq!(got, &want, "{label}, round {round}");
            }
        }
    }
}

#[test]
fn result_type_mismatch_names_the_op_and_the_job() {
    for workers in WORKERS {
        let job = Arc::new(AtomicU64::new(0));
        let job_id = Arc::clone(&job);
        let outcome = catch_unwind(AssertUnwindSafe(|| {
            run(config(4, workers, 2), move |mut ctx| {
                let job_id = Arc::clone(&job_id);
                async move {
                    job_id.store(ctx.job(), Ordering::SeqCst);
                    // Rank 0 asks the round for a different result type.
                    if ctx.rank() == 0 {
                        let _: u32 = ctx.allgather_fold(1u8, 1, |v| v.len() as u32).await;
                    } else {
                        let _: u64 = ctx.allgather_fold(1u8, 1, |v| v.len() as u64).await;
                    }
                }
            })
        }));
        let payload = outcome.expect_err("mismatched result types must panic");
        let message = payload
            .downcast_ref::<String>()
            .cloned()
            .or_else(|| payload.downcast_ref::<&str>().map(|s| s.to_string()))
            .unwrap_or_default();
        let job = job.load(Ordering::SeqCst);
        assert!(message.contains("collective `allgather`"), "workers = {workers}: {message}");
        assert!(message.contains("result type mismatch"), "workers = {workers}: {message}");
        assert!(message.contains(&format!("[job #{job}]")), "workers = {workers}: {message}");
    }
}
