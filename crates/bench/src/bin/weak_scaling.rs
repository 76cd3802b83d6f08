//! Weak-scaling study: erosion at P ∈ {64, 256, 1024, 4096}, standard vs
//! ULBA, on the runtime's job server.
//!
//! `--workers N` runs every leg on a private pool of `N` threads (default:
//! the global pool, one worker per core); `--ranks 16384` (or `--ranks
//! 65536`, opened by the sparse WIR database) narrows the sweep to one PE
//! count; `--hub-shards N` pins the rendezvous-hub shard count (default:
//! `min(workers, 64)`; the CI perf-trajectory job sweeps `1` vs default);
//! `--gossip-wire full|delta` (or `delta:<N>` for an anti-entropy period of
//! `N` iterations) selects the gossip payload format — `full` matches the
//! committed seed baselines bit-for-bit, `delta` is what the `P = 65536` CI
//! leg runs; `--smoke` (or `ULBA_QUICK=1`) shrinks the domain for CI;
//! `--json <path>` additionally writes the machine-readable schema-3
//! perf-trajectory report (CI uploads `BENCH_weak_scaling.json` and
//! `BENCH_p65536.json`).
use ulba_bench::figures::weak_scaling::{self, WEAK_SCALING_PE_COUNTS};
use ulba_bench::output::{
    apply_cli_runtime, cli_gossip_wire, cli_json_path, cli_ranks, enforce_cli_flags, quick_mode,
    SMOKE_FLAGS, WIRE_STUDY_FLAGS,
};

fn main() {
    enforce_cli_flags(WIRE_STUDY_FLAGS, SMOKE_FLAGS);
    // Exports --workers as ULBA_WORKERS so every run picks it up.
    apply_cli_runtime();
    let pes = cli_ranks().unwrap_or_else(|| WEAK_SCALING_PE_COUNTS.to_vec());
    let wire = cli_gossip_wire().unwrap_or_default();
    let smoke = quick_mode();
    let rows = weak_scaling::run(&pes, wire, smoke);
    if let Some(path) = cli_json_path() {
        weak_scaling::write_json_report(&rows, smoke, &path);
    }
}
