//! Shard-count equivalence of the reduction-tree rendezvous hub.
//!
//! The hub shard count is a pure contention knob: for **any** `S` —
//! degenerate (`S = 1`, the old single-mutex hub), even, ragged
//! (`S` not dividing `P`, so the last shard holds fewer ranks), or fully
//! sharded (`S = P`) — and **any** worker count, a program's
//! [`RunReport`] must be bit-identical. These tests are the proof the
//! sharded hub ships with: randomized programs and topologies across the
//! full `S × workers` matrix, plus deadlock reporting when the stuck ranks
//! span several shards.

use proptest::prelude::*;
use ulba_runtime::{run, try_run, RunConfig, RunError, RunReport, SpmdCtx};

/// Worker counts every equivalence case sweeps: the serial one-worker
/// pool and two multi-worker pools.
const WORKERS: [usize; 3] = [1, 2, 3];

/// Shard counts every equivalence case sweeps: degenerate, small, a prime
/// that leaves the last shard ragged for most `P`, and one-rank-per-shard.
fn shard_sweep(ranks: usize) -> Vec<usize> {
    let mut sweep = vec![1usize, 2, 7, ranks];
    sweep.retain(|&s| s >= 1);
    sweep.dedup();
    sweep
}

/// A BSP program exercising the full ctx surface: rank-skewed compute,
/// ring p2p, two collectives per round, and an LB section on one round —
/// every hub generation runs deposit → tree combine → assemble → drain.
async fn mixed_body(mut ctx: SpmdCtx, rounds: u64, flops_scale: f64) {
    for iter in 0..rounds {
        ctx.compute(flops_scale * ((ctx.rank() % 5 + 1) as f64));
        let next = (ctx.rank() + 1) % ctx.size();
        let prev = (ctx.rank() + ctx.size() - 1) % ctx.size();
        ctx.send(next, 11, (ctx.rank(), iter), 24);
        let (from, i) = ctx.recv::<(usize, u64)>(prev, 11).await;
        assert_eq!((from, i), (prev, iter));
        let total = ctx.allreduce_sum(ctx.rank() as f64 + iter as f64).await;
        assert!(total.is_finite());
        let gathered = ctx.allgather(ctx.rank() as u32, 4).await;
        assert_eq!(gathered[ctx.rank()], ctx.rank() as u32);
        if iter == 1 {
            ctx.begin_lb();
            ctx.compute(flops_scale * 0.5);
            let _ = ctx.allgather(ctx.rank(), 8).await;
            ctx.end_lb();
            if ctx.rank() == 0 {
                ctx.mark_lb_event(iter);
            }
        }
        ctx.barrier().await;
        ctx.mark_iteration(iter);
    }
}

fn report_for(
    ranks: usize,
    shards: usize,
    workers: usize,
    rounds: u64,
    flops_scale: f64,
) -> RunReport {
    let config = RunConfig::new(ranks).with_workers(workers).with_hub_shards(shards);
    run(config, move |ctx| mixed_body(ctx, rounds, flops_scale))
}

/// Bit-level comparison of two [`RunReport`]s.
fn assert_reports_identical(reference: &RunReport, other: &RunReport, label: &str) {
    assert_eq!(
        reference.makespan().as_secs().to_bits(),
        other.makespan().as_secs().to_bits(),
        "{label}: makespan"
    );
    assert_eq!(reference.rank_metrics, other.rank_metrics, "{label}: rank metrics");
    assert_eq!(reference.final_clocks, other.final_clocks, "{label}: final clocks");
    assert_eq!(reference.lb_iterations, other.lb_iterations, "{label}: LB iterations");
    assert_eq!(reference.iterations.len(), other.iterations.len(), "{label}: iteration count");
    for (a, b) in reference.iterations.iter().zip(&other.iterations) {
        assert_eq!(a.iter, b.iter, "{label}");
        assert_eq!(a.wall_time.to_bits(), b.wall_time.to_bits(), "{label}: iter {}", a.iter);
        assert_eq!(a.mean_utilization.to_bits(), b.mean_utilization.to_bits(), "{label}");
        assert_eq!(a.lb_active, b.lb_active, "{label}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// Randomized (P, S, program): the single-shard, single-worker report
    /// is the reference; every shard count of the sweep on every worker
    /// count must reproduce it bit-identically. `ranks` is drawn from a
    /// range full of non-powers-of-two, so the `S = 7` leg regularly
    /// leaves a ragged last shard.
    #[test]
    fn reports_identical_across_shards_and_backends(
        ranks in 2usize..20,
        rounds in 1u64..5,
        flops_scale in 1.0e5f64..1.0e8,
        extra_shards in 1usize..32,
    ) {
        let reference = report_for(ranks, 1, 1, rounds, flops_scale);
        let mut sweep = shard_sweep(ranks);
        sweep.push(extra_shards); // an arbitrary count on top of the fixed sweep
        for workers in WORKERS {
            for &shards in &sweep {
                let other = report_for(ranks, shards, workers, rounds, flops_scale);
                assert_reports_identical(
                    &reference,
                    &other,
                    &format!("P={ranks} S={shards} workers={workers}"),
                );
            }
        }
    }
}

/// Chunked-assembly payload correctness: every collective's *contents*
/// (not just the report's timing) checked against the exact expected
/// value, on every rank, every round. With `S = 1` the round's
/// [`RoundValues`] holds a single chunk — the monolithic layout the hub
/// used to build — while `S > 1` stitches per-shard chunks; running the
/// same program across the sweep proves chunked assembly is
/// bit-identical to monolithic. Repeating for several rounds drives the
/// hub's buffer-recycling path (graveyard chunk reclaim + deposit-slab
/// reuse), so a stale or mis-cleared recycled buffer fails the exact
/// equality immediately.
async fn payload_body(mut ctx: SpmdCtx, rounds: u64) {
    let (rank, size) = (ctx.rank(), ctx.size());
    for iter in 0..rounds {
        // allgather: the exact rank-indexed vector (catches chunk
        // stitching order and stale recycled slots).
        let gathered = ctx.allgather((rank as u64) << 32 | iter, 8).await;
        let expect: Vec<u64> = (0..size).map(|r| (r as u64) << 32 | iter).collect();
        assert_eq!(gathered, expect, "allgather payload, iter {iter}");
        // allreduce: the fold must walk ranks in order across chunk
        // boundaries — compare bit patterns of the same-order fold.
        let total = ctx.allreduce_sum(1.0 / (rank as f64 + 3.0 + iter as f64)).await;
        let mut reference = 1.0 / (3.0 + iter as f64);
        for r in 1..size {
            reference += 1.0 / (r as f64 + 3.0 + iter as f64);
        }
        assert_eq!(total.to_bits(), reference.to_bits(), "allreduce fold order, iter {iter}");
        // broadcast / gather / scatter from a rotating root: indexing
        // into a single chunk of the stitched round, with a different
        // payload type per collective so the recycled deposit slabs are
        // exercised across `TypeId`s.
        let root = (iter as usize + 1) % size;
        let word = ctx.broadcast(root, (rank == root).then(|| iter * 7 + 1), 8).await;
        assert_eq!(word, iter * 7 + 1, "broadcast payload, iter {iter}");
        let gathered = ctx.gather(root, (rank as u32, iter as u32), 8).await;
        assert_eq!(gathered.is_some(), rank == root);
        if let Some(values) = gathered {
            let expect: Vec<(u32, u32)> = (0..size as u32).map(|r| (r, iter as u32)).collect();
            assert_eq!(values, expect, "gather payload, iter {iter}");
        }
        let seed: Option<Vec<i64>> =
            (rank == root).then(|| (0..size as i64).map(|r| r * 100 - iter as i64).collect());
        let mine = ctx.scatter(root, seed, 8).await;
        assert_eq!(mine, rank as i64 * 100 - iter as i64, "scatter payload, iter {iter}");
        ctx.barrier().await;
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Randomized chunked-vs-monolithic payload equivalence: `ranks` drawn
    /// from a non-power-of-two-rich range (the `S = 7` leg regularly
    /// leaves a ragged last shard) on every worker count. The body
    /// asserts exact payloads internally; any failure panics the run.
    #[test]
    fn collective_payloads_survive_chunked_assembly(
        ranks in 2usize..24,
        rounds in 2u64..5,
        extra_shards in 1usize..32,
    ) {
        let mut sweep = shard_sweep(ranks);
        sweep.push(extra_shards);
        for workers in WORKERS {
            for &shards in &sweep {
                let config = RunConfig::new(ranks).with_workers(workers).with_hub_shards(shards);
                run(config, move |ctx| payload_body(ctx, rounds));
            }
        }
    }
}

/// The acceptance-criterion scale: `P = 128` across the full
/// `S ∈ {1, 2, 7, 128} × workers` matrix (7 leaves a ragged last shard:
/// 128 = 6·19 + 14).
#[test]
fn identical_at_128_ranks_all_shard_counts() {
    let reference = report_for(128, 1, 1, 3, 2.0e6);
    for workers in WORKERS {
        for shards in shard_sweep(128) {
            let other = report_for(128, shards, workers, 3, 2.0e6);
            let label = format!("P=128 workers={workers} S={shards}");
            assert_reports_identical(&reference, &other, &label);
        }
    }
}

/// Non-power-of-two `P` with every shard count: the ragged last shard
/// (e.g. 97 ranks over width-14 shards → 6×14 + 13) must behave exactly
/// like the full ones.
#[test]
fn identical_at_ragged_97_ranks() {
    let reference = report_for(97, 1, 1, 2, 5.0e5);
    for workers in WORKERS {
        for shards in [1usize, 2, 7, 13, 96, 97] {
            let other = report_for(97, shards, workers, 2, 5.0e5);
            let label = format!("P=97 workers={workers} S={shards}");
            assert_reports_identical(&reference, &other, &label);
        }
    }
}

/// Deadlock regression for the sharded hub: when the ranks stuck in a
/// mismatched collective span several leaf shards, the structured
/// [`RunError::Deadlock`] must still name exactly the blocked ranks — and
/// the shard list must cover every shard holding one.
#[test]
fn deadlock_report_spans_multiple_shards() {
    for workers in WORKERS {
        // P = 8 over 4 width-2 shards; every odd rank joins a barrier the
        // even ranks skip, so one rank per shard hangs.
        let config = RunConfig::new(8).with_workers(workers).with_hub_shards(4);
        let result = try_run(config, |mut ctx| async move {
            if ctx.rank() % 2 == 1 {
                ctx.barrier().await;
            }
        });
        match result {
            Err(RunError::Deadlock { job: _, blocked, ranks, shards }) => {
                assert_eq!(ranks, 8, "workers={workers}");
                assert_eq!(blocked, vec![1, 3, 5, 7], "workers={workers}");
                assert_eq!(shards, vec![0, 1, 2, 3], "workers={workers}: every shard is stuck");
            }
            other => panic!("workers={workers}: expected a deadlock, got {other:?}"),
        }
    }
}

/// A deadlock confined to a strict subset of the shards must name only
/// those shards (the whole point of carrying shard ids at large `P`).
#[test]
fn deadlock_report_names_only_affected_shards() {
    for workers in WORKERS {
        // P = 12 over 4 width-3 shards; only ranks 6..9 (shards 2 and 3)
        // wait on messages nobody sends.
        let config = RunConfig::new(12).with_workers(workers).with_hub_shards(4);
        let result = try_run(config, |mut ctx| async move {
            if (6..=9).contains(&ctx.rank()) {
                let _: u8 = ctx.recv((ctx.rank() + 1) % ctx.size(), 99).await;
            }
        });
        match result {
            Err(RunError::Deadlock { job: _, blocked, ranks, shards }) => {
                assert_eq!(ranks, 12, "workers={workers}");
                assert_eq!(blocked, vec![6, 7, 8, 9], "workers={workers}");
                assert_eq!(shards, vec![2, 3], "workers={workers}");
            }
            other => panic!("workers={workers}: expected a deadlock, got {other:?}"),
        }
    }
}

/// The satellite's `#[should_panic]`-free assertion on the [`run`] panic
/// path: [`run`] panics with exactly the [`RunError`] display, so checking
/// the formatted [`try_run`] error pins the panic message — which must
/// carry the hub shard ids alongside the blocked ranks.
#[test]
fn deadlock_panic_message_names_shard_ids() {
    let config = RunConfig::new(6).with_workers(1).with_hub_shards(3);
    let err = try_run(config, |mut ctx| async move {
        if ctx.rank() >= 4 {
            // Ranks 4 and 5 — both in shard 2 of the width-2 layout.
            ctx.barrier().await;
        }
    })
    .expect_err("two ranks hang in a barrier the others skip");
    let message = err.to_string();
    assert!(message.contains("permanently blocked"), "panic text changed: {message}");
    assert!(message.contains("blocked ranks [4, 5]"), "missing rank list: {message}");
    assert!(message.contains("hub shard [2]"), "missing shard id: {message}");
}
