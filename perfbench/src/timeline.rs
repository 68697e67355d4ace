//! `timeline-case14`: the day of the `timeline_case14` scenario spec,
//! hour by hour through `MtdSession::begin_day` and `step_hour`.
//!
//! One operation is one hour. A run replays whole days, each armed
//! afresh by `begin_day`, so each day restarts from the same `x_pre`.
//!
//! The day is the spec's, seed included, so the benchmark seed changes
//! nothing here. Each hour climbs the γ-grid in chunks until η′ meets
//! its target, and an hour that needs a second chunk takes about twice
//! as long, so the median hour sits between two modes. Every seeded
//! variant tried moved the share of two-chunk hours, and with it the
//! median hour, by 25–60 % between seeds: a different attack-sampling
//! stream, or starting the day at another hour.

use gridmtd_core::{HourOutcome, MtdConfig, MtdSession, TimelineOptions};
use gridmtd_powergrid::cases;
use gridmtd_scenario::json::Json;
use gridmtd_traces::LoadTrace;

use crate::common::{at, median, ms_since, now, rss_peak_mb, same_bits, Phase, PhaseClock, Res};
use crate::trace::Tracer;
use crate::{end_to_end, per_layer, probes, set_up, Report, RunArgs};

const THREADS: usize = 2;
/// p75: a run holds at least two days, so ≥ 12 hours lie beyond it.
const TAIL_PCT: f64 = 75.0;
const MIN_OPS: usize = 48;

/// `scenarios/timeline_case14.toml`'s `[config]` section.
fn config() -> MtdConfig {
    MtdConfig {
        noise_sigma_mw: 0.1,
        n_attacks: 200,
        n_starts: 2,
        max_evals_per_start: 200,
        ..MtdConfig::default()
    }
}

/// The spec's `[sweep]` section.
fn options() -> TimelineOptions {
    TimelineOptions {
        target_delta: 0.9,
        target_eta: 0.9,
        gamma_grid: vec![0.1, 0.15, 0.2, 0.25, 0.3, 0.35, 0.4],
    }
}

/// The spec's trace.
fn day_trace() -> LoadTrace {
    gridmtd_traces::nyiso_winter_weekday()
}

fn build_session() -> Res<MtdSession> {
    at(
        "build case14 session",
        MtdSession::builder(cases::case14())
            .config(config())
            .threads(THREADS)
            .build(),
    )
}

fn same_hour(a: &HourOutcome, b: &HourOutcome) -> bool {
    let fields = |o: &HourOutcome| {
        [
            o.total_load_mw,
            o.cost_no_mtd,
            o.cost_with_mtd,
            o.cost_increase_percent,
            o.gamma_drift,
            o.gamma_defense,
            o.gamma_current,
            o.gamma_threshold,
            o.effectiveness,
        ]
    };
    a.hour == b.hour && a.target_met == b.target_met && same_bits(&fields(a), &fields(b))
}

/// The first day's outcomes, and per hour how many replays matched.
struct Days {
    first: Vec<Option<HourOutcome>>,
    matched: Vec<u64>,
    /// Wall time of each whole day, `begin_day` included, ms.
    walls_ms: Vec<f64>,
}

impl Days {
    fn new(hours: usize) -> Days {
        Days {
            first: vec![None; hours],
            matched: vec![0; hours],
            walls_ms: Vec::new(),
        }
    }

    fn record(&mut self, hour: usize, outcome: HourOutcome) -> bool {
        let same = match &self.first[hour] {
            None => {
                self.first[hour] = Some(outcome);
                true
            }
            Some(first) => same_hour(first, &outcome),
        };
        if same {
            self.matched[hour] += 1;
        }
        same
    }
}

fn run_days(
    session: &mut MtdSession,
    trace: &LoadTrace,
    seconds: f64,
    min_ops: usize,
    tr: &mut Tracer,
    days: &mut Days,
) -> Phase {
    let opts = options();
    let clock = PhaseClock::start();
    let mut phase = Phase::default();
    while clock.elapsed_s() < seconds || phase.attempted < min_ops as u64 {
        let day_start = now();
        let armed = tr.span("core.begin_day", || session.begin_day(trace, &opts));
        if let Err(e) = armed {
            eprintln!("begin_day failed: {e}");
            phase.attempted += trace.len() as u64;
            phase.failed += trace.len() as u64;
            continue;
        }
        for hour in 0..trace.len() {
            phase.attempted += 1;
            let t = now();
            let result = tr.span("core.step_hour", || session.step_hour());
            let ms = ms_since(t);
            match result {
                Ok(outcome) => {
                    phase.latencies_ms.push(ms);
                    if !days.record(hour, outcome) {
                        eprintln!("hour {hour} did not repeat the first day");
                        phase.failed += 1;
                    }
                }
                Err(e) => {
                    eprintln!("hour {hour} failed: {e}");
                    phase.failed += 1;
                }
            }
        }
        days.walls_ms.push(ms_since(day_start));
    }
    clock.finish(&mut phase);
    phase
}

fn check_hour(o: &HourOutcome, opts: &TimelineOptions) -> Res<()> {
    if !opts
        .gamma_grid
        .iter()
        .any(|g| g.to_bits() == o.gamma_threshold.to_bits())
    {
        return Err(format!("γ_th = {} is not on the grid", o.gamma_threshold));
    }
    if o.gamma_defense < o.gamma_threshold - 1e-3 {
        return Err(format!(
            "γ_defense = {} below γ_th = {}",
            o.gamma_defense, o.gamma_threshold
        ));
    }
    let percent = (100.0 * (o.cost_with_mtd - o.cost_no_mtd) / o.cost_no_mtd).max(0.0);
    if (percent - o.cost_increase_percent).abs() > 1e-9 * percent.abs().max(1.0) {
        return Err(format!(
            "cost increase {} % but the costs give {percent} %",
            o.cost_increase_percent
        ));
    }
    if o.target_met != (o.effectiveness >= opts.target_eta) {
        return Err(format!(
            "target_met = {} with η′ = {}",
            o.target_met, o.effectiveness
        ));
    }
    Ok(())
}

/// Returns (failed operations, correct).
fn check_outputs(days: &Days, warm: &HourOutcome) -> (u64, bool) {
    let opts = options();
    let (mut failed, mut correct) = (0, true);
    for (hour, first) in days.first.iter().enumerate() {
        let Some(o) = first else { continue };
        let mut verdict = check_hour(o, &opts);
        if hour == 0 && verdict.is_ok() && !same_hour(o, warm) {
            verdict = Err("the warm-up hour and the first timed hour differ".into());
        }
        if let Err(e) = verdict {
            eprintln!("hour {hour} is wrong: {e}");
            failed += days.matched[hour];
            correct = false;
        }
    }
    (failed, correct)
}

pub fn run(run: &RunArgs) -> Res<Report> {
    let trace = day_trace();
    let ((mut session, warm), setups) = set_up(run, || {
        let mut s = build_session()?;
        at("warm-up begin_day", s.begin_day(&trace, &options()))?;
        let warm = at("warm-up hour", s.step_hour())?;
        Ok((s, warm))
    })?;
    let hours = trace.len();
    let mut days = Days::new(hours);

    if !run.traced {
        let mut tr = Tracer::new(false);
        let mut phase = run_days(
            &mut session,
            &trace,
            run.seconds,
            MIN_OPS,
            &mut tr,
            &mut days,
        );
        let rss = rss_peak_mb()?;
        let (failed, correct) = check_outputs(&days, &warm);
        phase.failed += failed;
        let mut report = end_to_end(&phase, TAIL_PCT, &setups, rss);
        report.correct = correct;
        return Ok(report);
    }

    let mut off = Tracer::new(false);
    let plain = run_days(
        &mut session,
        &trace,
        run.seconds / 2.0,
        hours,
        &mut off,
        &mut days,
    );
    let plain_day_ms = median(&days.walls_ms);
    let mut tr = Tracer::new(true);
    let (h0, r0) = probes::counters();
    tr.enter("timeline-case14.traced_phase");
    let traced = run_days(
        &mut session,
        &trace,
        run.seconds / 2.0,
        hours,
        &mut tr,
        &mut days,
    );
    tr.exit();
    let (h1, r1) = probes::counters();
    let n = traced.latencies_ms.len().max(1) as f64;
    tr.measured("core.warm_rebuilds", (r1 - r0) as f64 / n, "count");

    // Perturbations on this grid, from selections at the first grid
    // thresholds; the first also counts H builds per selection.
    let opts = options();
    probes::select_evals(&mut tr, &session, opts.gamma_grid[0])?;
    let mut x_posts = Vec::new();
    for &g in &opts.gamma_grid[..3] {
        x_posts.push(at("probe select", session.select(g))?.x_post);
    }
    let units = probes::layers(&mut tr, &session, &x_posts, &build_session)?;

    let cfg = config();
    let spec = Json::obj(vec![
        ("case", Json::Str("case14".into())),
        (
            "config",
            Json::obj(vec![
                ("noise_sigma_mw", Json::Num(cfg.noise_sigma_mw)),
                ("n_attacks", Json::Int(200)),
                ("n_starts", Json::Int(2)),
                ("max_evals_per_start", Json::Int(200)),
            ]),
        ),
        ("threads", Json::Int(2)),
    ]);
    let params = Json::obj(vec![
        ("hours", Json::floats(trace.hourly())),
        ("target_delta", Json::Num(opts.target_delta)),
        ("target_eta", Json::Num(opts.target_eta)),
        ("gamma_grid", Json::floats(&opts.gamma_grid)),
    ]);
    let wire = probes::wire(&mut tr, &spec, &[], &[("timeline", params)])?;
    let per_hour = |day_ms: f64| day_ms / hours as f64;
    tr.measured(
        "serve.overhead_ms",
        per_hour(wire.latency_ms - plain_day_ms),
        "ms",
    );
    tr.measured("serve.response_bytes", wire.response_bytes, "bytes");
    tr.measured("serve.parse_us", wire.parse_us, "us");
    tr.measured("serve.render_us", wire.render_us, "us");
    tr.measured(
        "serve.batches_per_request",
        wire.batches_per_request,
        "ratio",
    );
    tr.measured("parallel.cpu_per_wall", plain.cpu_s / plain.wall_s, "ratio");

    // An hour runs inside `step_hour`, opaque to the benchmark. Model
    // it from exact counts: the γ-grid is evaluated in chunks of the
    // thread count up to the chosen threshold; every H build outside
    // those evaluations and the hour's three fixed builds is one
    // selection objective evaluation.
    let h_per_hour = (h1 - h0) as f64 / n;
    let chunks: Vec<f64> = days
        .first
        .iter()
        .flatten()
        .map(|o| {
            let idx = opts
                .gamma_grid
                .iter()
                .position(|g| g.to_bits() == o.gamma_threshold.to_bits())
                .unwrap_or(0);
            ((idx + 1).div_ceil(THREADS) * THREADS).min(opts.gamma_grid.len()) as f64
        })
        .collect();
    let cands = chunks.iter().sum::<f64>() / chunks.len().max(1) as f64;
    let evals = (h_per_hour - cands - 3.0).max(0.0);
    let hour_ms = evals * units.objective_eval_ms()
        + cands * units.evaluation_steps_ms()
        + units.gamma_basis_ms
        + units.ensemble_ms
        + 2.0 * units.opf_cold_ms;
    tr.computed(
        "trace.coverage",
        n * hour_ms / (traced.cpu_s * 1e3),
        "ratio",
    );
    tr.measured(
        "trace.overhead",
        median(&traced.latencies_ms) / median(&plain.latencies_ms),
        "ratio",
    );

    let (failed, correct) = check_outputs(&days, &warm);
    let mut report = per_layer(
        &tr,
        "timeline-case14",
        run.seed,
        plain.attempted + traced.attempted,
        plain.failed + traced.failed + failed,
    )?;
    report.correct = correct;
    Ok(report)
}
