//! Regenerates Fig. 4b (average PE utilization timeline, 32 PEs, 1 rock).
//! `--workers N` sets the worker-pool size (default: one per core);
//! `--ranks <p>` overrides the PE count.
use ulba_bench::output::{
    apply_cli_runtime, cli_ranks, enforce_cli_flags, json_report_path, EROSION_STUDY_FLAGS,
    SMOKE_FLAGS,
};

fn main() {
    enforce_cli_flags(EROSION_STUDY_FLAGS, SMOKE_FLAGS);
    apply_cli_runtime();
    let pes = cli_ranks().map_or(32, |pes| pes[0]);
    ulba_bench::figures::fig4::run_4b(pes, 11, Some(&json_report_path("fig4b")));
}
