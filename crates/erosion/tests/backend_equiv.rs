//! Worker-count equivalence: a one-worker pool (single-threaded, fully
//! serial execution) and multi-worker work-stealing pools must produce
//! **bit-identical** experiment results — same virtual makespan, same
//! per-rank clocks and time accounting, same iteration statistics, same LB
//! activations — for the full erosion application, not just micro-programs.
//! The rendezvous hub's shard count rides along as a second free
//! dimension: any `S` (degenerate 1, ragged, one-rank-per-shard) must be
//! invisible in the results.

use proptest::prelude::*;
use ulba_core::gossip::{GossipMode, GossipWire};
use ulba_core::policy::LbPolicy;
use ulba_erosion::{run_erosion, ErosionConfig, ExperimentResult};

/// Worker counts of the equivalence sweeps (explicit, so the multi-worker
/// legs are meaningful on a single-core machine too).
const WORKERS: [usize; 3] = [1, 2, 3];

/// Run `cfg` on a private pool of `workers` threads.
fn on_workers(cfg: &ErosionConfig, workers: usize) -> ExperimentResult {
    let mut cfg = cfg.clone();
    cfg.workers = Some(workers);
    run_erosion(&cfg)
}

/// Assert that two experiment results are identical down to the last f64
/// bit.
fn assert_bit_identical(reference: &ExperimentResult, other: &ExperimentResult, label: &str) {
    assert_eq!(
        reference.makespan.to_bits(),
        other.makespan.to_bits(),
        "{label}: makespan diverged: {} vs {}",
        reference.makespan,
        other.makespan
    );
    assert_eq!(reference.lb_calls, other.lb_calls, "{label}");
    assert_eq!(reference.lb_iterations, other.lb_iterations, "{label}");
    assert_eq!(reference.mean_utilization.to_bits(), other.mean_utilization.to_bits(), "{label}");
    assert_eq!(reference.final_total_weight, other.final_total_weight, "{label}");
    assert_eq!(reference.total_eroded, other.total_eroded, "{label}");
    assert_eq!(reference.db_entries_total, other.db_entries_total, "{label}");
    assert_eq!(reference.gossip_watermarks_total, other.gossip_watermarks_total, "{label}");
    assert_eq!(reference.rank_metrics.len(), other.rank_metrics.len(), "{label}");
    for (rank, (a, b)) in reference.rank_metrics.iter().zip(&other.rank_metrics).enumerate() {
        assert_eq!(a.busy.to_bits(), b.busy.to_bits(), "{label}: rank {rank} busy");
        assert_eq!(a.comm.to_bits(), b.comm.to_bits(), "{label}: rank {rank} comm");
        assert_eq!(a.lb.to_bits(), b.lb.to_bits(), "{label}: rank {rank} lb");
        assert_eq!(a.idle.to_bits(), b.idle.to_bits(), "{label}: rank {rank} idle");
    }
    assert_eq!(reference.iterations.len(), other.iterations.len(), "{label}");
    for (a, b) in reference.iterations.iter().zip(&other.iterations) {
        assert_eq!(a.iter, b.iter, "{label}");
        assert_eq!(a.wall_time.to_bits(), b.wall_time.to_bits(), "{label}: iteration {}", a.iter);
        assert_eq!(a.mean_utilization.to_bits(), b.mean_utilization.to_bits(), "{label}");
        assert_eq!(a.lb_active, b.lb_active, "{label}");
    }
}

/// Compare the multi-worker pools against the one-worker reference.
fn assert_worker_counts_equivalent(cfg: &ErosionConfig) {
    let reference = on_workers(cfg, 1);
    for workers in [2, 3] {
        let other = on_workers(cfg, workers);
        assert_bit_identical(&reference, &other, &format!("workers={workers}"));
    }
}

/// Compare the single-shard, one-worker reference against the hub shard
/// sweep of the acceptance criterion — `S ∈ {1, 2, 7, P}` — on every
/// worker count.
fn assert_shard_counts_equivalent(cfg: &ErosionConfig) {
    let mut reference_cfg = cfg.clone();
    reference_cfg.hub_shards = Some(1);
    let reference = on_workers(&reference_cfg, 1);
    assert_eq!(reference.hub_shards, 1);
    for workers in WORKERS {
        for shards in [1usize, 2, 7, cfg.ranks] {
            let label = format!("workers={workers} S={shards}");
            let mut sharded = cfg.clone();
            sharded.hub_shards = Some(shards);
            let other = on_workers(&sharded, workers);
            assert!(
                other.hub_shards >= 1 && other.hub_shards <= cfg.ranks,
                "{label}: resolved shard count {} out of range",
                other.hub_shards
            );
            assert_bit_identical(&reference, &other, &label);
        }
    }
}

/// The tentpole acceptance criterion at application scale: a 128-rank
/// erosion run (LB steps included) is bit-identical across
/// `S ∈ {1, 2, 7, 128}` × worker counts {1, 2, 3}. 128 ranks over `S = 7`
/// leaves a ragged last shard (6 × 19 + 14).
#[test]
fn shard_counts_equivalent_at_128_ranks() {
    let mut cfg = ErosionConfig::tiny(128, 4);
    cfg.iterations = 15;
    assert_shard_counts_equivalent(&cfg);
}

/// Non-power-of-two P: every shard width divides 90 unevenly somewhere in
/// the sweep, exercising the ragged-shard assembly path under real LB
/// migrations.
#[test]
fn shard_counts_equivalent_at_ragged_90_ranks() {
    let mut cfg = ErosionConfig::tiny(90, 2);
    cfg.iterations = 20;
    cfg.initial_lb_cost_factor = 0.05; // make the trigger actually fire
    assert_shard_counts_equivalent(&cfg);
}

/// The acceptance-criterion case: a 128-rank erosion run with LB activity
/// must be bit-identical on one, two and three workers.
#[test]
fn equivalent_at_128_ranks() {
    let mut cfg = ErosionConfig::tiny(128, 4);
    cfg.iterations = 30;
    assert_worker_counts_equivalent(&cfg);
}

/// The gossip wire format as a free dimension: for each format (full
/// snapshots, delta with a tight anti-entropy period, delta with the
/// default period) every worker count must agree bit-for-bit — at a ragged
/// P with LB activity, so delta payload construction runs under real
/// migrations. The wire format changes what the bytes on the wire *are*,
/// so reports differ *across* formats; determinism within one must hold
/// regardless.
#[test]
fn wire_formats_equivalent_across_backends_at_ragged_97_ranks() {
    for wire in [GossipWire::Full, GossipWire::Delta { full_every: 4 }, GossipWire::delta()] {
        let mut cfg = ErosionConfig::tiny(97, 3);
        cfg.iterations = 15;
        cfg.initial_lb_cost_factor = 0.05; // make the trigger actually fire
        cfg.gossip_wire = wire;
        assert_worker_counts_equivalent(&cfg);
    }
}

/// Both LB policies and a standard trigger config at a mid-size P.
#[test]
fn equivalent_under_both_policies() {
    for policy in [LbPolicy::Standard, LbPolicy::ulba_fixed(0.4)] {
        let mut cfg = ErosionConfig::tiny(8, 2);
        cfg.policy = policy;
        cfg.iterations = 80;
        cfg.initial_lb_cost_factor = 0.05; // make the trigger actually fire
        let serial = on_workers(&cfg, 1);
        assert!(serial.lb_calls > 0 || matches!(cfg.policy, LbPolicy::Standard));
        for workers in [2, 3] {
            let other = on_workers(&cfg, workers);
            assert_bit_identical(&serial, &other, &format!("workers={workers}"));
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Randomized erosion configurations: ranks, rocks, iterations, seed,
    /// policy, gossip mode, anticipation, hub shard count — always
    /// bit-identical on one, two and three workers.
    #[test]
    fn equivalent_on_random_configs(
        ranks in 2usize..12,
        strong in 1usize..3,
        iterations in 20u64..50,
        seed in any::<u64>(),
        ulba in any::<bool>(),
        anticipate in any::<bool>(),
        ring_gossip in any::<bool>(),
        hub_shards in 1usize..16,
        delta_wire in any::<bool>(),
        full_every in 1u64..20,
    ) {
        let mut cfg = ErosionConfig::tiny(ranks, strong.min(ranks));
        cfg.iterations = iterations;
        cfg.seed = seed;
        cfg.policy = if ulba { LbPolicy::ulba_fixed(0.4) } else { LbPolicy::Standard };
        cfg.anticipatory_partitioning = anticipate;
        cfg.gossip = if ring_gossip {
            GossipMode::Ring
        } else {
            GossipMode::RandomPush { fanout: 2 }
        };
        cfg.gossip_wire = if delta_wire {
            GossipWire::Delta { full_every }
        } else {
            GossipWire::Full
        };
        cfg.hub_shards = Some(hub_shards);
        assert_worker_counts_equivalent(&cfg);
    }

    /// Randomized shard sweeps on the full application: any two shard
    /// counts agree on any worker count.
    #[test]
    fn equivalent_on_random_shard_pairs(
        ranks in 3usize..24,
        iterations in 15u64..35,
        seed in any::<u64>(),
        s_a in 1usize..26,
        s_b in 1usize..26,
        workers in 1usize..4,
    ) {
        let mut cfg = ErosionConfig::tiny(ranks, 1);
        cfg.iterations = iterations;
        cfg.seed = seed;
        let mut a = cfg.clone();
        a.hub_shards = Some(s_a);
        let mut b = cfg;
        b.hub_shards = Some(s_b);
        let ra = on_workers(&a, workers);
        let rb = on_workers(&b, workers);
        assert_bit_identical(&ra, &rb, &format!("workers={workers} S={s_a} vs S={s_b}"));
    }
}
