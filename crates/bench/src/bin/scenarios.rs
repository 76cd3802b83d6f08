//! Adversarial-scenario policy sweep: every generator family (slow node,
//! scatter, drifting hotspot, bursty, task graph) × LB policy × gossip
//! wire, batched on one shared worker pool, with the achieved imbalance
//! factor λ verified against its target and every job re-checked
//! bit-identical on a one-worker pool (one leg per family also with a
//! different hub-shard count). Writes
//! `results/BENCH_scenarios.json`.
//!
//! `--workers N` sizes the pool (default: all cores); `--ranks 16384`
//! appends the weak-scaling drift-gate legs (standard + ULBA per PE count)
//! whose makespans CI compares against `results/BENCH_seed.json`;
//! `--gossip-wire full|delta[:N]` restricts the wire dimension; `--smoke`
//! (or `ULBA_QUICK=1`) shrinks the sweep; `--json <path>` overrides the
//! report location.
use ulba_bench::figures::scenarios;
use ulba_bench::output::{
    apply_cli_runtime, cli_gossip_wire, cli_ranks, enforce_cli_flags, env_usize, json_report_path,
    quick_mode, SMOKE_FLAGS, WIRE_STUDY_FLAGS,
};

fn main() {
    enforce_cli_flags(WIRE_STUDY_FLAGS, SMOKE_FLAGS);
    // Exports --workers as ULBA_WORKERS; the study reads it back below.
    apply_cli_runtime();
    let workers = env_usize("ULBA_WORKERS", 0);
    let gate_pes = cli_ranks().unwrap_or_default();
    let json = json_report_path("scenarios");
    scenarios::run(workers, &gate_pes, quick_mode(), cli_gossip_wire(), Some(&json));
}
