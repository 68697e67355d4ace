//! `select-case118`: problem (4) selection on a warm case118 session.
//!
//! One operation is `MtdSession::select(γ_th)`, with every γ_th drawn
//! afresh from the seed, uniform in 0.07–0.17 rad (the ceiling is
//! ≈ 0.26 rad). Selection time moves by about 15 % from one threshold to
//! the next in no smooth way, so a run draws a new threshold for each of
//! its 42 or more selections: its median then reads the same whatever
//! the seed. The selection's own multistart seed stays at the
//! configuration default.

use gridmtd_core::{MtdConfig, MtdSelection, MtdSession};
use gridmtd_opf::solve_opf;
use gridmtd_powergrid::cases;
use gridmtd_scenario::json::Json;

use crate::common::{at, median, ms_since, now, rss_peak_mb, Phase, PhaseClock, Res, Rng};
use crate::trace::Tracer;
use crate::{end_to_end, oracle, per_layer, probes, set_up, Report, RunArgs};

const GAMMA_LO: f64 = 0.07;
const GAMMA_HI: f64 = 0.17;
/// Threshold of the untimed warm-up selection.
const WARM_GAMMA: f64 = 0.10;
/// Selections per round; a run attempts whole rounds.
const ROUND: usize = 6;
/// p75: a run holds at least 42 selections, so ≥ 10 lie beyond it.
const TAIL_PCT: f64 = 75.0;
const MIN_OPS: usize = 42;
const THREADS: usize = 2;

fn config() -> MtdConfig {
    MtdConfig {
        n_starts: 2,
        max_evals_per_start: 60,
        ..MtdConfig::default()
    }
}

fn build_session() -> Res<MtdSession> {
    at(
        "build case118 session",
        MtdSession::builder(cases::case118())
            .config(config())
            .threads(THREADS)
            .build(),
    )
}

/// Every selection a run made, with its threshold, for the checks
/// after the timed phase.
type Outputs = Vec<(f64, MtdSelection)>;

fn run_ops(
    session: &MtdSession,
    draws: &mut Rng,
    seconds: f64,
    min_ops: usize,
    tr: &mut Tracer,
    outputs: &mut Outputs,
) -> Phase {
    let clock = PhaseClock::start();
    let mut phase = Phase::default();
    while clock.elapsed_s() < seconds || phase.attempted < min_ops as u64 {
        for _ in 0..ROUND {
            let gamma_th = draws.uniform(GAMMA_LO, GAMMA_HI);
            phase.attempted += 1;
            let t = now();
            let result = tr.span("core.select", || session.select(gamma_th));
            let ms = ms_since(t);
            match result {
                Ok(sel) => {
                    phase.latencies_ms.push(ms);
                    outputs.push((gamma_th, sel));
                }
                Err(e) => {
                    eprintln!("select({gamma_th}) failed: {e}");
                    phase.failed += 1;
                }
            }
        }
    }
    clock.finish(&mut phase);
    phase
}

/// Checks one selection apart from the program's own γ and OPF paths.
fn check(session: &MtdSession, sel: &MtdSelection, gamma_th: f64) -> Res<()> {
    let net = session.network();
    let cfg = session.config();
    let x_pre = session.x_pre();
    let x = &sel.x_post;
    let (lo, hi) = net.reactance_bounds(cfg.eta_max);
    for l in 0..net.n_branches() {
        if !(x[l] >= lo[l] * (1.0 - 1e-12) && x[l] <= hi[l] * (1.0 + 1e-12)) {
            return Err(format!(
                "x_post[{l}] = {} outside [{}, {}]",
                x[l], lo[l], hi[l]
            ));
        }
        if !net.branch(l).dfacts && x[l].to_bits() != x_pre[l].to_bits() {
            return Err(format!("line {l} has no D-FACTS device but changed"));
        }
    }

    let h_pre = at("H(x_pre)", net.measurement_matrix(x_pre))?;
    let h_post = at("H(x_post)", net.measurement_matrix(x))?;
    let gamma = oracle::largest_principal_angle(&h_pre, &h_post)?;
    if gamma < gamma_th - 1e-3 {
        return Err(format!("γ = {gamma} below γ_th = {gamma_th}"));
    }
    if (gamma - sel.gamma).abs() > 1e-6 {
        return Err(format!("reported γ {} but the angle is {gamma}", sel.gamma));
    }

    let opf = &sel.opf;
    let load = net.total_load();
    let generated: f64 = opf.dispatch.iter().sum();
    if (generated - load).abs() > 1e-6 * load.max(1.0) {
        return Err(format!(
            "dispatch {generated} MW does not meet load {load} MW"
        ));
    }
    for (g, (&p, gen)) in opf.dispatch.iter().zip(net.gens()).enumerate() {
        if p < gen.pmin_mw - 1e-6 || p > gen.pmax_mw + 1e-6 {
            return Err(format!("generator {g} at {p} MW outside its limits"));
        }
    }
    for (l, br) in net.branches().iter().enumerate() {
        let flow = net.base_mva() / x[l] * (opf.theta[br.from] - opf.theta[br.to]);
        if (flow - opf.flows[l]).abs() > 1e-6 * flow.abs().max(1.0) {
            return Err(format!(
                "flow {l} is {} but the angles give {flow}",
                opf.flows[l]
            ));
        }
        if flow.abs() > br.flow_limit_mw + 1e-6 * br.flow_limit_mw.max(1.0) {
            return Err(format!(
                "flow {l} = {flow} MW over its limit {}",
                br.flow_limit_mw
            ));
        }
    }
    let cold = at("cold OPF at x_post", solve_opf(net, x, &cfg.opf_options()))?;
    if (cold.cost - opf.cost).abs() > 1e-9 * cold.cost.abs() {
        return Err(format!(
            "cost {} but a cold OPF gives {}",
            opf.cost, cold.cost
        ));
    }
    Ok(())
}

/// Checks every output on two threads; a failed check fails its
/// operation. Returns (failed operations, correct).
fn check_outputs(session: &MtdSession, outputs: &Outputs) -> (u64, bool) {
    let half = outputs.len().div_ceil(2);
    let failed: u64 = std::thread::scope(|scope| {
        let handles: Vec<_> = outputs
            .chunks(half.max(1))
            .map(|chunk| {
                scope.spawn(move || {
                    let mut failed = 0;
                    for (gamma_th, sel) in chunk {
                        if let Err(e) = check(session, sel, *gamma_th) {
                            eprintln!("select({gamma_th}) output is wrong: {e}");
                            failed += 1;
                        }
                    }
                    failed
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("a check thread panicked"))
            .sum()
    });
    (failed, failed == 0)
}

pub fn run(run: &RunArgs) -> Res<Report> {
    let (session, setups) = set_up(run, || {
        let s = build_session()?;
        at("warm-up select", s.select(WARM_GAMMA))?;
        Ok(s)
    })?;
    let draws = || Rng::new(run.seed, 0x118);
    let mut outputs = Outputs::new();

    if !run.traced {
        let mut tr = Tracer::new(false);
        let mut phase = run_ops(
            &session,
            &mut draws(),
            run.seconds,
            MIN_OPS,
            &mut tr,
            &mut outputs,
        );
        let rss = rss_peak_mb()?;
        let (failed, correct) = check_outputs(&session, &outputs);
        phase.failed += failed;
        let mut report = end_to_end(&phase, TAIL_PCT, &setups, rss);
        report.correct = correct;
        return Ok(report);
    }

    // Both phases draw the same thresholds, so their medians compare.
    let mut off = Tracer::new(false);
    let plain = run_ops(
        &session,
        &mut draws(),
        run.seconds / 2.0,
        6,
        &mut off,
        &mut outputs,
    );
    let mut tr = Tracer::new(true);
    let (h0, r0) = probes::counters();
    tr.enter("select-case118.traced_phase");
    let traced = run_ops(
        &session,
        &mut draws(),
        run.seconds / 2.0,
        6,
        &mut tr,
        &mut outputs,
    );
    tr.exit();
    let (h1, r1) = probes::counters();
    let n = traced.latencies_ms.len().max(1) as f64;
    let evals = (h1 - h0) as f64 / n;
    tr.measured("core.select_evals", evals, "count");
    tr.measured("core.warm_rebuilds", (r1 - r0) as f64 / n, "count");

    let x_posts: Vec<Vec<f64>> = outputs
        .iter()
        .take(3)
        .map(|(_, s)| s.x_post.clone())
        .collect();
    let units = probes::layers(&mut tr, &session, &x_posts, &build_session)?;

    let spec = Json::obj(vec![
        ("case", Json::Str("case118".into())),
        (
            "config",
            Json::obj(vec![
                ("n_starts", Json::Int(2)),
                ("max_evals_per_start", Json::Int(60)),
            ]),
        ),
        ("threads", Json::Int(2)),
    ]);
    let probe: Vec<f64> = outputs.iter().take(3).map(|(g, _)| *g).collect();
    let mut in_process = Vec::with_capacity(probe.len());
    for &g in &probe {
        let t = now();
        at("select", session.select(g))?;
        in_process.push(ms_since(t));
    }
    let call = |g: f64| ("select", Json::obj(vec![("gamma_threshold", Json::Num(g))]));
    let calls: Vec<_> = probe.iter().map(|&g| call(g)).collect();
    let wire = probes::wire(&mut tr, &spec, &[call(WARM_GAMMA)], &calls)?;
    tr.measured(
        "serve.overhead_ms",
        wire.latency_ms - median(&in_process),
        "ms",
    );
    let plain_p50 = median(&plain.latencies_ms);
    tr.measured("serve.response_bytes", wire.response_bytes, "bytes");
    tr.measured("serve.parse_us", wire.parse_us, "us");
    tr.measured("serve.render_us", wire.render_us, "us");
    tr.measured(
        "serve.batches_per_request",
        wire.batches_per_request,
        "ratio",
    );

    tr.measured("parallel.cpu_per_wall", plain.cpu_s / plain.wall_s, "ratio");
    // Each objective evaluation builds one H, so the H-build count is
    // the evaluation count; each selection audits its result with one
    // exact γ.
    let covered_ms = n * (evals * units.objective_eval_ms() + units.gamma_ms);
    tr.computed("trace.coverage", covered_ms / (traced.cpu_s * 1e3), "ratio");
    tr.measured(
        "trace.overhead",
        median(&traced.latencies_ms) / plain_p50,
        "ratio",
    );

    let (failed, correct) = check_outputs(&session, &outputs);
    let mut report = per_layer(
        &tr,
        "select-case118",
        run.seed,
        plain.attempted + traced.attempted,
        plain.failed + traced.failed + failed,
    )?;
    report.correct = correct;
    Ok(report)
}
