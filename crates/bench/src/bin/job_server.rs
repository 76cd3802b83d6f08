//! Job-server batching study: a sweep of ≥ 8 erosion experiments run
//! serially (one worker pool per run) and again as a single batch on one
//! shared pool, with bit-identity asserted between the two passes and the
//! wall-time comparison recorded in `results/BENCH_job_server.json`.
//!
//! `--workers N` sizes both pools (default: all cores); `--ranks 16384`
//! appends the weak-scaling drift-gate legs (standard + ULBA per PE count)
//! whose makespans CI compares against `results/BENCH_seed.json`;
//! `--smoke` (or `ULBA_QUICK=1`) shrinks the base sweep; `--json <path>`
//! overrides the report location.
use ulba_bench::figures::job_server;
use ulba_bench::output::{
    apply_cli_runtime, cli_ranks, enforce_cli_flags, env_usize, json_report_path, quick_mode,
    EROSION_STUDY_FLAGS, SMOKE_FLAGS,
};

fn main() {
    enforce_cli_flags(EROSION_STUDY_FLAGS, SMOKE_FLAGS);
    // Exports --workers as ULBA_WORKERS; the study reads it back below.
    apply_cli_runtime();
    let workers = env_usize("ULBA_WORKERS", 0);
    let gate_pes = cli_ranks().unwrap_or_default();
    let json = json_report_path("job_server");
    job_server::run(workers, &gate_pes, quick_mode(), Some(&json));
}
