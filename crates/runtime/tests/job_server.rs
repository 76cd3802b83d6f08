//! Concurrent-jobs equivalence suite for the shared [`JobServer`]: many
//! SPMD jobs on one worker pool must produce reports bit-identical to
//! running each job alone, and per-job failure isolation must hold — one
//! deadlocked job can neither poison another job's result nor take down
//! the pool.

use proptest::prelude::*;
use ulba_runtime::{run, JobServer, Priority, RunConfig, RunError, RunReport, SpmdCtx};

/// A BSP round mixing compute, ring p2p, and collectives, parameterized so
/// different jobs run genuinely different programs.
async fn bsp_body(mut ctx: SpmdCtx, rounds: u64, salt: u64) {
    for round in 0..rounds {
        let weight = ((ctx.rank() as u64 * 7919 + salt * 131 + round) % 17 + 1) as f64;
        ctx.compute(1.0e6 * weight);
        let next = (ctx.rank() + 1) % ctx.size();
        let prev = (ctx.rank() + ctx.size() - 1) % ctx.size();
        ctx.send(next, 7, ctx.rank() as u64 ^ salt, 16);
        let _: u64 = ctx.recv(prev, 7).await;
        let _ = ctx.allreduce_sum(weight).await;
        ctx.barrier().await;
        ctx.mark_iteration(round);
    }
}

/// The ground truth: the same program alone, on a one-worker pool.
fn serial_reference(ranks: usize, rounds: u64, salt: u64) -> RunReport {
    run(RunConfig::new(ranks).with_workers(1), move |ctx| bsp_body(ctx, rounds, salt))
}

fn assert_reports_identical(pooled: &RunReport, serial: &RunReport) {
    assert_eq!(pooled.rank_metrics, serial.rank_metrics);
    assert_eq!(pooled.final_clocks, serial.final_clocks);
    assert_eq!(pooled.makespan().as_secs().to_bits(), serial.makespan().as_secs().to_bits());
    assert_eq!(pooled.iterations.len(), serial.iterations.len());
    for (a, b) in pooled.iterations.iter().zip(&serial.iterations) {
        assert_eq!(a.wall_time.to_bits(), b.wall_time.to_bits());
        assert_eq!(a.mean_utilization.to_bits(), b.mean_utilization.to_bits());
    }
}

#[test]
fn eight_concurrent_jobs_match_serial_runs() {
    let server = JobServer::new(3);
    let params: Vec<(usize, u64, u64)> =
        (0..8u64).map(|i| (2 + (i as usize % 4), 3 + i % 3, 0xC0FFEE + i)).collect();
    let handles: Vec<_> = params
        .iter()
        .map(|&(ranks, rounds, salt)| {
            let config = RunConfig::new(ranks).with_hub_shards(1 + salt as usize % 4);
            server.submit(config, move |ctx| bsp_body(ctx, rounds, salt))
        })
        .collect();
    // Job ids are process-unique even while all jobs are in flight.
    let mut ids: Vec<u64> = handles.iter().map(|h| h.id()).collect();
    ids.sort_unstable();
    ids.dedup();
    assert_eq!(ids.len(), handles.len(), "job ids must be unique");
    for (handle, &(ranks, rounds, salt)) in handles.into_iter().zip(&params) {
        let pooled = handle.join().expect("healthy job");
        assert_reports_identical(&pooled, &serial_reference(ranks, rounds, salt));
    }
}

#[test]
fn deadlocked_jobs_fail_independently_without_cross_contamination() {
    let server = JobServer::new(2);
    // Job A: ranks 1 and 2 enter a barrier rank 0 never joins.
    let a = server.submit(RunConfig::new(3), |mut ctx| async move {
        if ctx.rank() != 0 {
            ctx.barrier().await;
        }
    });
    // Job B: ranks 0 and 1 wait for messages nobody sends.
    let b = server.submit(RunConfig::new(5), |mut ctx| async move {
        if ctx.rank() < 2 {
            let from = ctx.rank() + 1;
            let _: u64 = ctx.recv(from, 9).await;
        }
    });
    // Job C shares the pool and must be untouched by A's and B's demise.
    let c = server.submit(RunConfig::new(4), move |ctx| bsp_body(ctx, 4, 0xFEED));
    let (id_a, id_b) = (a.id(), b.id());
    assert_ne!(id_a, id_b);

    let err_a = a.join().expect_err("job A deadlocks");
    match &err_a {
        RunError::Deadlock { job, blocked, ranks, .. } => {
            assert_eq!(*job, id_a, "deadlock must be tagged with its own job id");
            assert_eq!(*ranks, 3);
            assert_eq!(blocked, &vec![1, 2]);
        }
        other => panic!("expected a deadlock, got {other}"),
    }
    assert!(
        err_a.to_string().contains(&format!("job #{id_a}")),
        "diagnostic must name the job: {err_a}"
    );

    let err_b = b.join().expect_err("job B deadlocks");
    match &err_b {
        RunError::Deadlock { job, blocked, ranks, .. } => {
            assert_eq!(*job, id_b);
            assert_eq!(*ranks, 5);
            assert_eq!(blocked, &vec![0, 1]);
        }
        other => panic!("expected a deadlock, got {other}"),
    }

    let pooled = c.join().expect("job C is healthy");
    assert_reports_identical(&pooled, &serial_reference(4, 4, 0xFEED));
}

#[test]
fn priority_lanes_admit_every_job() {
    let server = JobServer::new(2);
    let low: Vec<_> = (0..4u64)
        .map(|i| {
            let config = RunConfig::new(2).with_priority(Priority::Low);
            server.submit(config, move |ctx| bsp_body(ctx, 2, i))
        })
        .collect();
    let high = server
        .submit(RunConfig::new(4).with_priority(Priority::High), move |ctx| bsp_body(ctx, 3, 99));
    let pooled = high.join().expect("high-priority job");
    assert_reports_identical(&pooled, &serial_reference(4, 3, 99));
    for (i, job) in low.into_iter().enumerate() {
        let pooled = job.join().expect("low-priority job");
        assert_reports_identical(&pooled, &serial_reference(2, 2, i as u64));
    }
}

#[test]
fn nested_submission_help_drives_instead_of_blocking_the_pool() {
    // One worker: if the outer rank blocked on the inner join instead of
    // helping, the pool would deadlock.
    let server = JobServer::new(1);
    let inner_server = server.clone();
    let outer = server.submit(RunConfig::new(1), move |mut ctx| {
        let server = inner_server.clone();
        async move {
            ctx.compute(1.0e6);
            let inner = server.submit(RunConfig::new(2), move |ctx| bsp_body(ctx, 2, 0xAB));
            let report = inner.join().expect("inner job");
            assert_reports_identical(&report, &serial_reference(2, 2, 0xAB));
            ctx.compute(1.0e6);
        }
    });
    outer.join().expect("outer job");
}

#[test]
fn priority_round_trips_through_strings() {
    for priority in [Priority::High, Priority::Normal, Priority::Low] {
        let rendered = priority.to_string();
        let parsed: Priority = rendered.parse().expect("round-trip");
        assert_eq!(parsed, priority, "{rendered}");
    }
    assert!("urgent".parse::<Priority>().is_err());
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Random batches of jobs (random rank counts, program lengths, salts,
    /// hub shard counts, priorities) on one shared pool: every report is
    /// bit-identical to the job's serial reference run.
    #[test]
    fn concurrent_batches_match_serial(
        jobs in proptest::collection::vec(
            (2usize..6, 1u64..5, 0u64..1000, 1usize..6, 0usize..3),
            2..6,
        ),
        workers in 1usize..4,
    ) {
        let server = JobServer::new(workers);
        let handles: Vec<_> = jobs
            .iter()
            .map(|&(ranks, rounds, salt, hub_shards, prio)| {
                let priority =
                    [Priority::High, Priority::Normal, Priority::Low][prio];
                let config = RunConfig::new(ranks)
                    .with_hub_shards(hub_shards)
                    .with_priority(priority);
                server.submit(config, move |ctx| bsp_body(ctx, rounds, salt))
            })
            .collect();
        for (handle, &(ranks, rounds, salt, _, _)) in handles.into_iter().zip(&jobs) {
            let pooled = handle.join().expect("healthy job");
            assert_reports_identical(&pooled, &serial_reference(ranks, rounds, salt));
        }
    }
}
