//! `serve-evaluate-case57`: the daemon in this process, two
//! closed-loop clients, `evaluate` on case57 against the paper's 1000
//! attacks.
//!
//! Each client sends its next request only after the reply to the
//! previous one. The inputs are seeded random perturbations of the
//! individual D-FACTS lines, so every input has γ > 0 and the whole
//! detection pipeline runs. (Scaling every reactance by one factor, as
//! `gridmtd loadtest` does, leaves `Col(H)` unchanged: γ = 0, η′ = 0.)

use gridmtd_core::{MtdConfig, MtdSession};
use gridmtd_powergrid::cases;
use gridmtd_scenario::json::Json;
use gridmtd_serve::client::Client;
use gridmtd_serve::server::{ServeOptions, Server};

use crate::common::{
    at, median, ms_since, now, rss_peak_mb, same_bits, Phase, PhaseClock, Res, Rng,
};
use crate::trace::Tracer;
use crate::{end_to_end, oracle, per_layer, probes, set_up, Report, RunArgs};

const CLIENTS: usize = 2;
const THREADS: usize = 2;
/// Distinct perturbations per run; client `c` sends inputs `c`,
/// `c + CLIENTS`, … in turn, one round at a time.
const INPUTS: usize = 32;
/// Each D-FACTS reactance is scaled by `1 + U(−FRACTION, FRACTION)`.
const FRACTION: f64 = 0.3;
/// p90: a run holds at least 160 requests, so ≥ 16 lie beyond it.
const TAIL_PCT: f64 = 90.0;
const MIN_OPS: usize = 160;
/// Attacks whose detection probability is rebuilt from first
/// principles for every input.
const ORACLE_ATTACKS: [usize; 8] = [0, 1, 99, 250, 499, 500, 777, 999];

fn session_spec() -> Json {
    Json::obj(vec![
        ("case", Json::Str("case57".into())),
        ("threads", Json::Int(2)),
    ])
}

/// The in-process twin of the daemon's session.
fn reference_session() -> Res<MtdSession> {
    at(
        "build case57 session",
        MtdSession::builder(cases::case57())
            .config(MtdConfig::default())
            .threads(THREADS)
            .build(),
    )
}

fn inputs(seed: u64) -> Vec<Vec<f64>> {
    let net = cases::case57();
    let x0 = net.nominal_reactances();
    let mut rng = Rng::new(seed, 0x5E_57);
    (0..INPUTS)
        .map(|_| {
            let mut x = x0.clone();
            for l in net.dfacts_branches() {
                x[l] *= 1.0 + rng.uniform(-FRACTION, FRACTION);
            }
            x
        })
        .collect()
}

fn params(x: &[f64]) -> Json {
    Json::obj(vec![("x_post", Json::floats(x))])
}

/// A started daemon and connected clients. Clients are declared first
/// so they close before the server drains and joins.
struct Rig {
    clients: Vec<Client>,
    server: Server,
}

fn rig(inputs: &[Vec<f64>]) -> Res<Rig> {
    let server = at("start server", Server::start(&ServeOptions::default()))?;
    let mut clients = Vec::with_capacity(CLIENTS);
    for input in &inputs[..CLIENTS] {
        let mut client = at("connect", Client::connect(server.local_addr()))?;
        // The first request builds the warm session in the daemon.
        let frame = client.request_frame("evaluate", &session_spec(), &params(input));
        let line = at("warm-up evaluate", client.call_raw(&frame))?;
        if line.contains("\"error\"") {
            return Err(format!("warm-up evaluate failed: {line}"));
        }
        clients.push(client);
    }
    Ok(Rig { clients, server })
}

/// The part of a response after its id: equal for equal inputs.
fn result_part(line: &str) -> Option<&str> {
    line.find("\"result\":").map(|i| &line[i..])
}

/// Per input: the first response line, and how many responses repeated
/// its result (the first included).
#[derive(Default, Clone)]
struct Seen {
    first: Option<String>,
    matched: u64,
}

struct ClientRun {
    phase: Phase,
    bytes: Vec<f64>,
    seen: Vec<(usize, Seen)>,
    tracer: Tracer,
}

fn client_loop(
    client: &mut Client,
    mine: &[(usize, Json)],
    seconds: f64,
    min_ops: usize,
    traced: bool,
    clock: &PhaseClock,
    seen: Vec<(usize, Seen)>,
) -> ClientRun {
    let spec = session_spec();
    let mut run = ClientRun {
        phase: Phase::default(),
        bytes: Vec::new(),
        seen,
        tracer: Tracer::new(traced),
    };
    while clock.elapsed_s() < seconds || run.phase.attempted < min_ops as u64 {
        for (k, (_, p)) in mine.iter().enumerate() {
            let frame = client.request_frame("evaluate", &spec, p);
            run.phase.attempted += 1;
            let t = now();
            let line = run.tracer.span("serve.request", || client.call_raw(&frame));
            let ms = ms_since(t);
            let ok = match &line {
                Ok(line) => {
                    run.phase.latencies_ms.push(ms);
                    run.bytes.push(line.len() as f64);
                    let seen = &mut run.seen[k].1;
                    match (&seen.first, result_part(line)) {
                        (_, None) => false,
                        (None, Some(_)) => {
                            seen.first = Some(line.clone());
                            true
                        }
                        (Some(first), Some(r)) => result_part(first) == Some(r),
                    }
                }
                Err(_) => false,
            };
            if ok {
                run.seen[k].1.matched += 1;
            } else {
                run.phase.failed += 1;
                eprintln!("evaluate request failed or changed its answer: {line:?}");
            }
        }
    }
    run
}

/// Runs both clients in a closed loop; returns the merged phase, the
/// response sizes and the per-input record.
fn run_phase(
    rig: &mut Rig,
    mine: &[Vec<(usize, Json)>],
    seen: &mut [Vec<(usize, Seen)>],
    seconds: f64,
    min_ops: usize,
    tr: &mut Tracer,
) -> (Phase, Vec<f64>) {
    let clock = PhaseClock::start();
    let per_client = min_ops.div_ceil(CLIENTS);
    let runs: Vec<ClientRun> = std::thread::scope(|scope| {
        let handles: Vec<_> = rig
            .clients
            .iter_mut()
            .zip(mine)
            .zip(seen.iter())
            .map(|((client, mine), seen)| {
                let seen = seen.clone();
                let clock = &clock;
                let traced = tr.enabled();
                scope.spawn(move || {
                    client_loop(client, mine, seconds, per_client, traced, clock, seen)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("a client thread panicked"))
            .collect()
    });
    let mut phase = Phase::default();
    clock.finish(&mut phase);
    let mut bytes = Vec::new();
    for (c, run) in runs.into_iter().enumerate() {
        phase.latencies_ms.extend(run.phase.latencies_ms);
        phase.attempted += run.phase.attempted;
        phase.failed += run.phase.failed;
        bytes.extend(run.bytes);
        seen[c] = run.seen;
        tr.absorb(run.tracer);
    }
    (phase, bytes)
}

/// Reads `"key":<number>` from a response line.
fn number(line: &str, key: &str) -> Option<f64> {
    let pat = format!("\"{key}\":");
    let rest = &line[line.find(&pat)? + pat.len()..];
    let end = rest.find([',', '}', ']']).unwrap_or(rest.len());
    rest[..end].trim().parse().ok()
}

/// Reads `"key":[<numbers>]` from a response line.
fn numbers(line: &str, key: &str) -> Option<Vec<f64>> {
    let pat = format!("\"{key}\":[");
    let rest = &line[line.find(&pat)? + pat.len()..];
    let body = &rest[..rest.find(']')?];
    body.split(',').map(|v| v.trim().parse().ok()).collect()
}

/// Checks every input's first response against the in-process session
/// and, for a fixed subsample of attacks, against detection
/// probabilities rebuilt from first principles.
fn check_input(session: &MtdSession, x: &[f64], line: &str) -> Res<()> {
    let eval = at("in-process evaluate", session.evaluate(x))?;
    let gamma = number(line, "gamma").ok_or("response has no gamma")?;
    let smallest = number(line, "smallest_angle").ok_or("response has no smallest_angle")?;
    let probs = numbers(line, "detection_probs").ok_or("response has no detection_probs")?;
    if !same_bits(&[gamma, smallest], &[eval.gamma, eval.smallest_angle])
        || !same_bits(&probs, &eval.detection_probs)
    {
        return Err("response differs from the in-process evaluation".into());
    }

    let cfg = session.config();
    let attacks = at("attack ensemble", session.attacks())?;
    let h = at("H(x_post)", session.network().measurement_matrix(x))?;
    let basis = oracle::orthonormal_basis(&h)?;
    let dof = (h.rows() - h.cols()) as f64;
    let tau = oracle::chi2_threshold(dof, cfg.alpha);
    for a in ORACLE_ATTACKS {
        let lambda = oracle::wls_noncentrality(&basis, &attacks[a].vector, cfg.noise_sigma_mw);
        let pd = oracle::ncx2_sf(dof, lambda, tau);
        if (pd - probs[a]).abs() > 1e-8 {
            return Err(format!(
                "attack {a}: detection probability {} but first principles give {pd}",
                probs[a]
            ));
        }
    }
    Ok(())
}

/// Returns (failed operations, correct).
fn check_outputs(inputs: &[Vec<f64>], seen: &[Vec<(usize, Seen)>]) -> Res<(u64, bool)> {
    let session = reference_session()?;
    let (mut failed, mut correct) = (0, true);
    for (i, s) in seen.iter().flatten() {
        let Some(line) = &s.first else { continue };
        if let Err(e) = check_input(&session, &inputs[*i], line) {
            eprintln!("evaluate on input {i} is wrong: {e}");
            failed += s.matched;
            correct = false;
        }
    }
    Ok((failed, correct))
}

pub fn run(run: &RunArgs) -> Res<Report> {
    let inputs = inputs(run.seed);
    let (mut rig, setups) = set_up(run, || rig(&inputs))?;
    let mine: Vec<Vec<(usize, Json)>> = (0..CLIENTS)
        .map(|c| {
            (c..INPUTS)
                .step_by(CLIENTS)
                .map(|i| (i, params(&inputs[i])))
                .collect()
        })
        .collect();
    let mut seen: Vec<Vec<(usize, Seen)>> = mine
        .iter()
        .map(|m| m.iter().map(|(i, _)| (*i, Seen::default())).collect())
        .collect();

    if !run.traced {
        let mut tr = Tracer::new(false);
        let (mut phase, _) = run_phase(&mut rig, &mine, &mut seen, run.seconds, MIN_OPS, &mut tr);
        let rss = rss_peak_mb()?;
        drop(rig);
        let (failed, correct) = check_outputs(&inputs, &seen)?;
        phase.failed += failed;
        let mut report = end_to_end(&phase, TAIL_PCT, &setups, rss);
        report.correct = correct;
        return Ok(report);
    }

    let mut off = Tracer::new(false);
    let before = rig.server.stats();
    let (plain, bytes) = run_phase(&mut rig, &mine, &mut seen, run.seconds / 2.0, 40, &mut off);
    let after = rig.server.stats();
    let mut tr = Tracer::new(true);
    let (_, r0) = probes::counters();
    tr.enter("serve-evaluate-case57.traced_phase");
    let (traced, _) = run_phase(&mut rig, &mine, &mut seen, run.seconds / 2.0, 40, &mut tr);
    tr.exit();
    let (_, r1) = probes::counters();
    drop(rig);
    let n = traced.latencies_ms.len().max(1) as f64;
    tr.measured("core.warm_rebuilds", (r1 - r0) as f64 / n, "count");
    tr.measured(
        "serve.batches_per_request",
        (after.batches - before.batches) as f64 / (after.requests - before.requests).max(1) as f64,
        "ratio",
    );
    tr.measured("serve.response_bytes", median(&bytes), "bytes");

    let session = reference_session()?;
    let units = probes::layers(&mut tr, &session, &inputs, &reference_session)?;
    let plain_p50 = median(&plain.latencies_ms);
    tr.measured("serve.overhead_ms", plain_p50 - units.evaluate_ms, "ms");
    // A threshold every input already reaches, so the probe selection
    // is feasible.
    let mut least = f64::INFINITY;
    for x in &inputs {
        let h = at("H(x_post)", session.network().measurement_matrix(x))?;
        least = least.min(at(
            "gamma",
            at("basis", session.gamma_basis())?.gamma_to(&h),
        )?);
    }
    probes::select_evals(&mut tr, &session, 0.5 * least)?;

    // The request frames as `Client::request_frame` renders them.
    let frames: Vec<String> = inputs
        .iter()
        .zip(1..)
        .map(|(x, id)| {
            Json::Obj(vec![
                ("id".into(), Json::Int(id)),
                ("method".into(), Json::Str("evaluate".into())),
                ("session".into(), session_spec()),
                ("params".into(), params(x)),
            ])
            .compact()
        })
        .collect();
    let responses: Vec<String> = seen
        .iter()
        .flatten()
        .filter_map(|(_, s)| s.first.clone())
        .collect();
    let (_, parse_us, render_us) = probes::codec(&mut tr, &frames, &responses)?;
    tr.measured("serve.parse_us", parse_us, "us");
    tr.measured("serve.render_us", render_us, "us");

    tr.measured("parallel.cpu_per_wall", plain.cpu_s / plain.wall_s, "ratio");
    let covered_ms = parse_us / 1e3 + units.evaluation_steps_ms() + render_us / 1e3;
    tr.measured(
        "trace.coverage",
        covered_ms / (traced.cpu_s * 1e3 / n),
        "ratio",
    );
    tr.measured(
        "trace.overhead",
        median(&traced.latencies_ms) / plain_p50,
        "ratio",
    );

    let (failed, correct) = check_outputs(&inputs, &seen)?;
    let mut report = per_layer(
        &tr,
        "serve-evaluate-case57",
        run.seed,
        plain.attempted + traced.attempted,
        plain.failed + traced.failed + failed,
    )?;
    report.correct = correct;
    Ok(report)
}
