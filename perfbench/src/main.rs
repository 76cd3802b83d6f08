//! Host-cost benchmark of the ulba workspace.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <erosion-weak|erosion-paper|scenario-gossip|model-fig2|all> \
//!     --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! A run sets its workload up once in its own process and again in child
//! processes (`setup_s` is the median of the times from process start to
//! the end of set-up; see [`SETUP_REPS`]), then runs ops on a pool of one
//! worker per CPU until `--seconds` have passed and at least one full cycle
//! of the workload's configurations has run. Every op is checked: exact
//! reference values where the repository commits one, bit-identical
//! repeats of each configuration, and the workload's own invariants.
//!
//! With `--trace 0` the ops go through the program's own entry points and
//! the run reports the end-to-end metrics. With `--trace 1` every op is
//! followed by a replay of the same configuration through this crate's
//! traced rank bodies, which must reproduce the untraced virtual results
//! bit for bit; the run reports per-layer span times and exact counters,
//! and writes a Chrome trace (open it in Perfetto) and a per-layer
//! self-time table under `perfbench/out/`.
//!
//! The last line of standard output is one JSON object with the keys
//! `correct`, `attempted`, `failed` and `metrics`.

mod erosion;
mod fig2;
mod host;
mod scenario;
mod spans;
mod workload;

use spans::{Aggregate, Counters, Layer, Sink};
use std::fmt::Write as _;
use std::path::PathBuf;
use std::process::ExitCode;
use std::sync::Arc;
use std::time::Instant;
use workload::Workload;

/// Workload names, in report order.
const WORKLOADS: [&str; 4] = ["erosion-weak", "erosion-paper", "scenario-gossip", "model-fig2"];

/// Set-ups per run, `setup_s` being their median: at least
/// `SETUP_REPS.0`, and more while they total under [`SETUP_BUDGET_S`],
/// up to `SETUP_REPS.1` (short set-ups are the noisiest).
const SETUP_REPS: (usize, usize) = (5, 50);

/// Set-up time after which no further repetitions are added.
const SETUP_BUDGET_S: f64 = 1.0;

/// A tail percentile needs at least this many samples beyond it.
const TAIL_SAMPLES: usize = 10;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    /// Set the workload up, print the set-up time and exit (the extra
    /// set-up repetitions of a run).
    setup_only: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args =
        Args { workload: String::new(), seed: 1, seconds: 10.0, trace: false, setup_only: false };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => args.workload = value()?,
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(args.seconds.is_finite() && args.seconds >= 0.0) {
                    return Err("--seconds must be a non-negative number".into());
                }
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, got {other}")),
                }
            }
            "--setup-only" => args.setup_only = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if args.workload != "all" && !WORKLOADS.contains(&args.workload.as_str()) {
        return Err(format!("--workload must be one of {} or all", WORKLOADS.join(", ")));
    }
    Ok(args)
}

fn setup(name: &str, seed: u64) -> Box<dyn Workload> {
    let workers = host::nproc();
    match name {
        "erosion-weak" => Box::new(erosion::ErosionWeak::setup(seed, workers)),
        "erosion-paper" => Box::new(erosion::ErosionPaper::setup(seed, workers)),
        "scenario-gossip" => Box::new(scenario::ScenarioGossip::setup(seed, workers)),
        "model-fig2" => Box::new(fig2::ModelFig2::setup(seed)),
        _ => unreachable!("workload names are validated"),
    }
}

fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// Linear-interpolated quantile `q` of `values` (which must be non-empty).
fn quantile(values: &[f64], q: f64) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q * (v.len() - 1) as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// The highest whole percentile with at least [`TAIL_SAMPLES`] samples
/// beyond it, floored at the median.
fn tail_percentile(n: usize) -> u32 {
    let beyond = 1.0 - TAIL_SAMPLES as f64 / n as f64;
    ((beyond * 100.0).floor() as u32).max(50)
}

/// A metric value: finite, with all its digits.
fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_string()
    }
}

fn json_str(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Everything one run measured.
#[derive(Default)]
struct Tally {
    attempted: u64,
    failed: u64,
    physics_checked: u64,
    physics_diverged: u64,
    wall_s: f64,
    /// Work units per host second of each op.
    rates: Vec<f64>,
    latencies_ms: Vec<f64>,
    peak_rss_mib: Vec<f64>,
    cpu_s: f64,
    traced_ops: usize,
    traced_wall_s: f64,
    agg: Aggregate,
    counters: Counters,
}

fn run_one(args: &Args, origin: Instant) -> ExitCode {
    let name = args.workload.as_str();
    let mut w = setup(name, args.seed);
    let mut setups = vec![origin.elapsed().as_secs_f64()];
    while setups.len() < SETUP_REPS.0
        || (setups.iter().sum::<f64>() < SETUP_BUDGET_S && setups.len() < SETUP_REPS.1)
    {
        match setup_in_child(args) {
            Ok(secs) => setups.push(secs),
            Err(err) => {
                eprintln!("perfbench: set-up repetition failed: {err}");
                return ExitCode::FAILURE;
            }
        }
    }
    let cycle = w.cycle();

    let mut t = Tally::default();
    let mut first_exact: Vec<Option<Vec<u64>>> = vec![None; cycle];
    let mut first_counters: Vec<Option<Counters>> = vec![None; cycle];
    let timed = Instant::now();
    let mut k = 0usize;
    while k < cycle || timed.elapsed().as_secs_f64() < args.seconds {
        let slot = k % cycle;
        host::reset_peak_rss();
        let (cpu0, started) = (host::cpu_secs(), Instant::now());
        let out = w.run(k);
        let dt = started.elapsed().as_secs_f64();
        t.cpu_s += host::cpu_secs() - cpu0;
        t.peak_rss_mib.push(host::peak_rss_bytes().unwrap_or(0) as f64 / (1024.0 * 1024.0));
        t.wall_s += dt;
        t.latencies_ms.push(dt * 1e3);
        t.rates.push(out.units / dt);
        t.attempted += out.jobs;
        t.failed += out.failed;
        t.physics_checked += out.physics_checked;
        t.physics_diverged += out.physics_diverged;
        if out.failed == 0 {
            match &first_exact[slot] {
                None => first_exact[slot] = Some(out.exact.clone()),
                Some(first) if *first != out.exact => {
                    eprintln!("{name}: op {k} differs from an earlier run of the same config");
                    t.failed += out.jobs;
                }
                Some(_) => {}
            }
        }
        if args.trace {
            let sink = Arc::new(Sink::new(origin, k, k < cycle));
            let started = Instant::now();
            let rep = w.replay(k, &sink);
            t.traced_wall_s += started.elapsed().as_secs_f64();
            t.traced_ops += 1;
            t.attempted += rep.jobs;
            t.failed += rep.failed;
            let op = sink.take();
            if rep.failed == 0 && out.failed == 0 && rep.virt != out.virt {
                eprintln!("{name}: traced replay of op {k} differs from the untraced run");
                t.failed += rep.jobs;
            }
            match first_counters[slot] {
                _ if rep.failed > 0 => {}
                None => {
                    first_counters[slot] = Some(op.counters);
                    t.counters.add(&op.counters);
                }
                Some(first) if first != op.counters => {
                    eprintln!("{name}: exact counters of op {k} differ from an earlier replay");
                    t.failed += rep.jobs;
                }
                Some(_) => {}
            }
            t.agg.merge(op);
        }
        k += 1;
    }

    eprintln!("op latencies (ms) {:.1?}", t.latencies_ms);
    eprintln!("op peak RSS (MiB) {:.1?}", t.peak_rss_mib);
    report(args, w.as_ref(), &setups, &t)
}

fn report(args: &Args, w: &dyn Workload, setups: &[f64], t: &Tally) -> ExitCode {
    let name = args.workload.as_str();
    let tail_pct = tail_percentile(t.latencies_ms.len());
    let mut config: Vec<(&str, String)> = vec![
        ("workload", name.to_string()),
        ("seed", args.seed.to_string()),
        ("seconds", num(args.seconds)),
        ("trace", u8::from(args.trace).to_string()),
        ("nproc", host::nproc().to_string()),
        ("cpu", host::cpu_model()),
        ("rustc", env!("PERFBENCH_RUSTC").to_string()),
        ("commit", host::commit()),
        ("latency_samples", t.latencies_ms.len().to_string()),
        ("latency_tail_percentile", format!("p{tail_pct}")),
        ("setup_reps", setups.len().to_string()),
    ];
    config.extend(w.describe());
    if t.physics_checked > 0 {
        config.push(("physics_diverged", format!("{}/{}", t.physics_diverged, t.physics_checked)));
    }

    let mut metrics: Vec<(String, f64, &str)> = Vec::new();
    if args.trace {
        let ops = t.traced_ops.max(1) as f64;
        for layer in Layer::ALL {
            metrics.push((format!("{}_s", layer.name()), t.agg.total(layer) / ops, "s"));
        }
        for (metric, value) in t.counters.named() {
            let unit = if metric.ends_with("_bytes") { "B" } else { "count" };
            metrics.push((metric.to_string(), value as f64, unit));
        }
        let busy = t.cpu_s / (t.wall_s * w.workers() as f64).max(f64::MIN_POSITIVE);
        metrics.push(("runtime.cpu_busy_frac".into(), busy, "ratio"));
        let overhead = (t.traced_wall_s - t.wall_s) / t.wall_s.max(f64::MIN_POSITIVE);
        metrics.push(("trace.overhead_frac".into(), overhead, "ratio"));
        metrics.push(("failed_frac".into(), t.failed as f64 / t.attempted.max(1) as f64, "ratio"));
        let diverged = t.physics_diverged as f64 / t.physics_checked.max(1) as f64;
        metrics.push(("check.physics_diverged_frac".into(), diverged, "ratio"));
    } else {
        metrics.push(("throughput".into(), median(&t.rates), "1/s"));
        metrics.push(("setup_s".into(), median(setups), "s"));
        metrics.push(("peak_rss_mib".into(), median(&t.peak_rss_mib), "MiB"));
        metrics.push(("latency_p50_ms".into(), median(&t.latencies_ms), "ms"));
        let tail = quantile(&t.latencies_ms, f64::from(tail_pct) / 100.0);
        metrics.push(("latency_tail_ms".into(), tail, "ms"));
    }

    // Human-readable summary on stderr.
    eprintln!("== {name} ==");
    for (k, v) in &config {
        eprintln!("  {k:<24} {v}");
    }
    for (m, v, u) in &metrics {
        eprintln!("  {m:<32} {:>18} {u}", num(*v));
    }

    let config_json: Vec<String> =
        config.iter().map(|(k, v)| format!("{}: {}", json_str(k), json_str(v))).collect();
    println!("{{\"bench\": {{{}}}}}", config_json.join(", "));
    if args.trace {
        let counters: Vec<String> =
            t.counters.named().iter().map(|(m, v)| format!("\"{m}\": {v}")).collect();
        println!("{{\"exact_counters\": {{{}}}}}", counters.join(", "));
        write_trace_files(name, t);
    }
    let metrics_json: Vec<String> = metrics
        .iter()
        .map(|(m, v, u)| {
            format!("{}: {{\"value\": {}, \"unit\": {}}}", json_str(m), num(*v), json_str(u))
        })
        .collect();
    let correct = t.failed == 0;
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        t.attempted,
        t.failed,
        metrics_json.join(", ")
    );
    ExitCode::SUCCESS
}

/// Write the Chrome trace and the self-time table of a traced run.
fn write_trace_files(name: &str, t: &Tally) {
    let dir = PathBuf::from(concat!(env!("CARGO_MANIFEST_DIR"), "/out"));
    let table = spans::self_time_table(name, &t.agg, t.traced_ops);
    eprint!("{table}");
    let written = std::fs::create_dir_all(&dir).and_then(|()| {
        std::fs::write(
            dir.join(format!("{name}.trace.json")),
            spans::chrome_trace(name, &t.agg.events),
        )?;
        std::fs::write(dir.join(format!("{name}.layers.txt")), &table)
    });
    if let Err(err) = written {
        eprintln!("could not write trace files under {}: {err}", dir.display());
    }
}

/// Time one more set-up of the workload in a fresh process.
fn setup_in_child(args: &Args) -> Result<f64, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let out = std::process::Command::new(exe)
        .args(["--workload", &args.workload, "--seed", &args.seed.to_string(), "--setup-only"])
        .stderr(std::process::Stdio::inherit())
        .output()
        .map_err(|e| e.to_string())?;
    if !out.status.success() {
        return Err(format!("exited with {}", out.status));
    }
    let stdout = String::from_utf8_lossy(&out.stdout);
    stdout.trim().parse().map_err(|e| format!("unreadable set-up time {stdout:?}: {e}"))
}

/// Run every workload, each in its own process, one after another.
fn run_all(args: &Args) -> ExitCode {
    let exe = match std::env::current_exe() {
        Ok(exe) => exe,
        Err(err) => {
            eprintln!("cannot locate the benchmark executable: {err}");
            return ExitCode::FAILURE;
        }
    };
    let mut ok = true;
    for name in WORKLOADS {
        let status = std::process::Command::new(&exe)
            .args(["--workload", name, "--seed", &args.seed.to_string()])
            .args(["--seconds", &num(args.seconds), "--trace", if args.trace { "1" } else { "0" }])
            .status();
        ok &= matches!(status, Ok(s) if s.success());
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn main() -> ExitCode {
    let origin = Instant::now();
    let args = match parse_args() {
        Ok(args) => args,
        Err(err) => {
            eprintln!("perfbench: {err}");
            return ExitCode::from(2);
        }
    };
    if args.workload == "all" {
        run_all(&args)
    } else if args.setup_only {
        let w = setup(&args.workload, args.seed);
        println!("{}", origin.elapsed().as_secs_f64());
        drop(w);
        ExitCode::SUCCESS
    } else {
        run_one(&args, origin)
    }
}
