//! End-to-end and per-layer benchmark of the three gridmtd user paths;
//! see README.md.
//!
//! ```text
//! gridmtd-perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! gridmtd-perfbench --steady <runs> [--workload <name>] [--seconds <s>]
//! ```
//!
//! A run prints, as its last line, one JSON object with `correct`,
//! `attempted`, `failed` and `metrics`: the end-to-end metrics with
//! `--trace 0`, the per-layer metrics with `--trace 1`.

mod common;
mod oracle;
mod probes;
mod select;
mod serve;
mod steady;
mod timeline;
mod trace;

use std::fmt::Write as _;
use std::process::ExitCode;
use std::time::Instant;

use common::{median, now, percentile, Phase, Res};
use trace::Tracer;

pub const WORKLOADS: [&str; 3] = ["select-case118", "serve-evaluate-case57", "timeline-case14"];

/// Every per-layer metric, in the order the traced run prints them.
pub const PER_LAYER: [&str; 23] = [
    "serve.overhead_ms",
    "serve.response_bytes",
    "serve.parse_us",
    "serve.render_us",
    "serve.batches_per_request",
    "core.evaluate_ms",
    "core.select_evals",
    "core.warm_rebuilds",
    "linalg.gamma_ms",
    "linalg.smallest_angle_ms",
    "linalg.sin_sq_ms",
    "linalg.gamma_basis_ms",
    "powergrid.h_build_us",
    "opf.warm_grad_ms",
    "opf.cold_ms",
    "opf.warm_ratio",
    "estimation.residual_ms",
    "estimation.detector_ms",
    "stats.ncx2_sf_us",
    "attack.ensemble_ms",
    "parallel.cpu_per_wall",
    "trace.coverage",
    "trace.overhead",
];

/// How many times each run sets its workload up; `setup_s` is the
/// median, so one slow start does not move it.
const SETUPS: usize = 5;

/// One run's settings.
pub struct RunArgs {
    pub seed: u64,
    pub seconds: f64,
    pub traced: bool,
    /// Process start, as near as the program can take it.
    pub started: Instant,
}

/// What a run prints as its last line.
pub struct Report {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<(String, f64, String)>,
}

impl Report {
    fn json_line(&self) -> String {
        let mut out = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct, self.attempted, self.failed
        );
        for (i, (name, value, unit)) in self.metrics.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(
                out,
                "{sep}\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
            );
        }
        out.push_str("}}");
        out
    }
}

/// Builds a workload's state [`SETUPS`] times, dropping each before
/// the next, and returns the last with every set-up's duration. The
/// first is timed from process start, the others from their own start.
pub fn set_up<S>(run: &RunArgs, mut build: impl FnMut() -> Res<S>) -> Res<(S, Vec<f64>)> {
    let mut times = Vec::with_capacity(SETUPS);
    let mut state = None;
    for i in 0..SETUPS {
        drop(state.take());
        let t0 = if i == 0 { run.started } else { now() };
        state = Some(build()?);
        times.push(t0.elapsed().as_secs_f64());
    }
    Ok((state.ok_or("no set-up ran")?, times))
}

/// The end-to-end metrics of a timed phase. `tail_pct` is the
/// workload's fixed tail percentile; the phase always holds enough
/// operations for at least ten samples to lie beyond it.
pub fn end_to_end(phase: &Phase, tail_pct: f64, setups: &[f64], rss_mb: f64) -> Report {
    let ops_per_s = phase.latencies_ms.len() as f64 / phase.wall_s;
    let m = |name: &str, value: f64, unit: &str| (name.to_string(), value, unit.to_string());
    Report {
        correct: true,
        attempted: phase.attempted,
        failed: phase.failed,
        metrics: vec![
            m("op_p50_ms", median(&phase.latencies_ms), "ms"),
            m(
                "op_tail_ms",
                percentile(&phase.latencies_ms, tail_pct),
                "ms",
            ),
            m("ops_per_s", ops_per_s, "1/s"),
            m("setup_s", median(setups), "s"),
            m("rss_peak_mb", rss_mb, "MB"),
        ],
    }
}

/// The traced run's report: every per-layer metric, in [`PER_LAYER`]
/// order, plus a human-readable table on standard output.
pub fn per_layer(
    tr: &Tracer,
    workload: &str,
    seed: u64,
    attempted: u64,
    failed: u64,
) -> Res<Report> {
    let mut metrics = Vec::with_capacity(PER_LAYER.len());
    println!("layer metrics of {workload} (seed {seed}):");
    for name in PER_LAYER {
        let layer = tr
            .layers()
            .iter()
            .find(|l| l.name == name)
            .ok_or_else(|| format!("traced run did not measure {name}"))?;
        if !layer.value.is_finite() {
            return Err(format!("{name} is not finite"));
        }
        let source = match layer.source {
            trace::Source::Measured => "measured",
            trace::Source::Computed => "computed",
        };
        println!(
            "  {name:<28} {:>14.4} {:<6} {source}",
            layer.value, layer.unit
        );
        metrics.push((name.to_string(), layer.value, layer.unit.to_string()));
    }
    let path = std::path::Path::new(".bench_trace").join(format!("{workload}-seed{seed}.json"));
    tr.write(&path)?;
    println!("spans written to {}", path.display());
    Ok(Report {
        correct: true,
        attempted,
        failed,
        metrics,
    })
}

struct Cli {
    workload: Option<String>,
    seed: u64,
    seconds: Option<f64>,
    traced: bool,
    steady: Option<usize>,
}

fn parse_cli() -> Res<Cli> {
    let mut cli = Cli {
        workload: None,
        seed: 1,
        seconds: None,
        traced: false,
        steady: None,
    };
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag}: {what}, got {value:?}");
        match flag.as_str() {
            "--workload" => {
                if !WORKLOADS.contains(&value.as_str()) {
                    return Err(bad(&format!("expected one of {WORKLOADS:?}")));
                }
                cli.workload = Some(value);
            }
            "--seed" => cli.seed = value.parse().map_err(|_| bad("expected an integer"))?,
            "--seconds" => {
                let s: f64 = value.parse().map_err(|_| bad("expected a number"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(bad("expected 0 < seconds <= 600"));
                }
                cli.seconds = Some(s);
            }
            "--trace" => {
                cli.traced = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("expected 0 or 1")),
                }
            }
            "--steady" => {
                let n: usize = value.parse().map_err(|_| bad("expected an integer"))?;
                if !(2..=100).contains(&n) {
                    return Err(bad("expected 2 to 100 runs"));
                }
                cli.steady = Some(n);
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(cli)
}

fn main() -> ExitCode {
    let started = now();
    let cli = match parse_cli() {
        Ok(cli) => cli,
        Err(e) => {
            eprintln!("gridmtd-perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    // A figure from an instrumented or unoptimized build would be
    // compared against release figures; refuse to produce one.
    if gridmtd_faults::ENABLED || cfg!(debug_assertions) {
        eprintln!(
            "gridmtd-perfbench: refusing to measure a build with fault injection or debug \
             assertions; build with `cargo run --release` and default features"
        );
        return ExitCode::from(3);
    }
    if let Some(runs) = cli.steady {
        return steady::run(runs, cli.workload.as_deref(), cli.seconds, cli.seed);
    }
    let Some(workload) = cli.workload else {
        eprintln!("gridmtd-perfbench: --workload is required");
        return ExitCode::from(2);
    };
    let run = RunArgs {
        seed: cli.seed,
        seconds: cli.seconds.unwrap_or(10.0),
        traced: cli.traced,
        started,
    };
    let report = match workload.as_str() {
        "select-case118" => select::run(&run),
        "serve-evaluate-case57" => serve::run(&run),
        _ => timeline::run(&run),
    };
    match report {
        Ok(report) => {
            println!("{}", report.json_line());
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("gridmtd-perfbench: {workload}: {e}");
            ExitCode::FAILURE
        }
    }
}
