//! The traced run's per-layer probes: direct calls into each layer's
//! public API on the workload's own inputs, each wrapped in a span.

use gridmtd_core::{spa, MtdSession};
use gridmtd_estimation::{BadDataDetector, EstimatorContext, NoiseModel, StateEstimator};
use gridmtd_opf::{solve_opf, solve_opf_grad_with, OpfContext};
use gridmtd_powergrid::stats as grid_stats;
use gridmtd_scenario::json::Json;
use gridmtd_serve::client::Client;
use gridmtd_serve::server::{ServeOptions, Server};
use gridmtd_serve::wire;
use gridmtd_stats::chi2::NoncentralChiSquared;

use crate::common::{at, median, ms_since, now, Res};
use crate::trace::Tracer;

/// Unit times of the steps one evaluation or one selection objective
/// evaluation is made of, ms; the traced run multiplies them by exact
/// counts where a layer runs inside an opaque call.
#[derive(Debug, Clone, Copy)]
pub struct Units {
    pub h_build_ms: f64,
    pub gamma_ms: f64,
    pub sin_sq_ms: f64,
    pub smallest_angle_ms: f64,
    pub gamma_basis_ms: f64,
    pub ensemble_ms: f64,
    pub opf_cold_ms: f64,
    pub warm_grad_ms: f64,
    pub detector_ms: f64,
    pub residual_ms: f64,
    pub ncx2_ms: f64,
    pub evaluate_ms: f64,
    pub n_attacks: usize,
}

impl Units {
    /// One selection objective evaluation: an `H` build, a `sin²γ`
    /// eigensolve and a warm OPF with dual recovery.
    pub fn objective_eval_ms(&self) -> f64 {
        self.h_build_ms + self.sin_sq_ms + self.warm_grad_ms
    }

    /// One effectiveness evaluation, step by step.
    pub fn evaluation_steps_ms(&self) -> f64 {
        let attacks = self.n_attacks as f64;
        self.h_build_ms
            + self.gamma_ms
            + self.smallest_angle_ms
            + self.detector_ms
            + self.residual_ms
            + self.ncx2_ms * attacks
    }
}

/// H builds, and symbolic re-analyses plus basis rebuilds, so far.
pub fn counters() -> (u64, u64) {
    let rebuilds = grid_stats::pf_symbolic_analyses()
        + gridmtd_estimation::gain_symbolic_analyses()
        + spa::gamma_basis_builds();
    (grid_stats::measurement_matrix_builds(), rebuilds)
}

/// Probes every layer under `session` on the perturbations `x_posts`,
/// records the per-layer values on `tr`, and returns the unit times.
/// `fresh` builds a cold session of the same grid and configuration.
pub fn layers(
    tr: &mut Tracer,
    session: &MtdSession,
    x_posts: &[Vec<f64>],
    fresh: &dyn Fn() -> Res<MtdSession>,
) -> Res<Units> {
    tr.enter("probes");
    let units = probe_layers(tr, session, x_posts, fresh);
    tr.exit();
    units
}

fn probe_layers(
    tr: &mut Tracer,
    session: &MtdSession,
    x_posts: &[Vec<f64>],
    fresh: &dyn Fn() -> Res<MtdSession>,
) -> Res<Units> {
    let net = session.network();
    let cfg = session.config();
    let opts = cfg.opf_options();

    let mut h_posts = Vec::with_capacity(x_posts.len());
    for x in x_posts {
        let h = tr.span("powergrid.measurement_matrix", || net.measurement_matrix(x));
        h_posts.push(at("measurement matrix", h)?);
    }

    let h_pre = at("h_pre", session.h_pre())?;
    let basis = at("gamma basis", session.gamma_basis())?;
    for h in &h_posts {
        at("gamma_to", tr.span("linalg.gamma_to", || basis.gamma_to(h)))?;
        at(
            "sin_sq_to",
            tr.span("linalg.sin_sq_to", || basis.sin_sq_to(h)),
        )?;
        at(
            "smallest_angle",
            tr.span("linalg.smallest_angle", || spa::smallest_angle(h_pre, h)),
        )?;
    }

    {
        let cold = fresh()?;
        at("h_pre", cold.h_pre())?;
        at(
            "gamma basis",
            tr.span("linalg.gamma_basis", || cold.gamma_basis()),
        )?;
    }
    {
        let cold = fresh()?;
        at("attacks", tr.span("attack.ensemble", || cold.attacks()))?;
    }

    for x in x_posts {
        at(
            "cold opf",
            tr.span("opf.solve_opf", || solve_opf(net, x, &opts)),
        )?;
    }
    // A warm context stepping from x_pre towards each perturbation, as
    // the selection's line searches do.
    const STEPS: usize = 4;
    let mut ctx = OpfContext::new();
    at(
        "opf at x_pre",
        solve_opf_grad_with(net, session.x_pre(), &opts, &mut ctx),
    )?;
    for x in x_posts {
        for k in 1..=STEPS {
            let t = k as f64 / STEPS as f64;
            let xk: Vec<f64> = session
                .x_pre()
                .iter()
                .zip(x)
                .map(|(a, b)| a + t * (b - a))
                .collect();
            at(
                "warm grad opf",
                tr.span("opf.solve_opf_grad_with", || {
                    solve_opf_grad_with(net, &xk, &opts, &mut ctx)
                }),
            )?;
        }
    }
    let warm_ratio =
        ctx.warm_solves() as f64 / (ctx.warm_solves() + ctx.cold_solves()).max(1) as f64;

    let attacks = at("attacks", session.attacks())?;
    let vectors: Vec<&[f64]> = attacks.iter().map(|a| a.vector.as_slice()).collect();
    // The session keeps its gain factorization's symbolic analysis
    // across detector builds; warm a context the same way.
    let mut est_ctx = EstimatorContext::new();
    at(
        "warm estimator context",
        StateEstimator::with_context(
            h_pre.clone(),
            &NoiseModel::uniform(h_pre.rows(), cfg.noise_sigma_mw),
            &mut est_ctx,
        ),
    )?;
    for h in &h_posts {
        let noise = NoiseModel::uniform(h.rows(), cfg.noise_sigma_mw);
        let h = h.clone();
        let bdd = tr.span("estimation.detector", || {
            StateEstimator::with_context(h, &noise, &mut est_ctx)
                .map(|est| BadDataDetector::new(est, cfg.alpha))
        });
        let bdd = at("detector", bdd)?;
        let lambdas = tr.span("estimation.residual_statistics", || {
            bdd.estimator().residual_statistics(&vectors)
        });
        let lambdas = at("residual statistics", lambdas)?;
        let dof = bdd.estimator().degrees_of_freedom() as f64;
        let threshold = bdd.threshold();
        let sum: f64 = tr.span("stats.ncx2_sf", || {
            lambdas
                .iter()
                .map(|&l| NoncentralChiSquared::new(dof, l).sf(threshold))
                .sum()
        });
        std::hint::black_box(sum);
    }

    for x in x_posts {
        at("evaluate", tr.span("core.evaluate", || session.evaluate(x)))?;
    }

    let per_attack = 1.0 / attacks.len().max(1) as f64;
    let units = Units {
        h_build_ms: tr.median_ms("powergrid.measurement_matrix")?,
        gamma_ms: tr.median_ms("linalg.gamma_to")?,
        sin_sq_ms: tr.median_ms("linalg.sin_sq_to")?,
        smallest_angle_ms: tr.median_ms("linalg.smallest_angle")?,
        gamma_basis_ms: tr.median_ms("linalg.gamma_basis")?,
        ensemble_ms: tr.median_ms("attack.ensemble")?,
        opf_cold_ms: tr.median_ms("opf.solve_opf")?,
        warm_grad_ms: tr.median_ms("opf.solve_opf_grad_with")?,
        detector_ms: tr.median_ms("estimation.detector")?,
        residual_ms: tr.median_ms("estimation.residual_statistics")?,
        ncx2_ms: tr.median_ms("stats.ncx2_sf")? * per_attack,
        evaluate_ms: tr.median_ms("core.evaluate")?,
        n_attacks: attacks.len(),
    };
    tr.measured("powergrid.h_build_us", units.h_build_ms * 1e3, "us");
    tr.measured("linalg.gamma_ms", units.gamma_ms, "ms");
    tr.measured("linalg.sin_sq_ms", units.sin_sq_ms, "ms");
    tr.measured("linalg.smallest_angle_ms", units.smallest_angle_ms, "ms");
    tr.measured("linalg.gamma_basis_ms", units.gamma_basis_ms, "ms");
    tr.measured("attack.ensemble_ms", units.ensemble_ms, "ms");
    tr.measured("opf.cold_ms", units.opf_cold_ms, "ms");
    tr.measured("opf.warm_grad_ms", units.warm_grad_ms, "ms");
    tr.measured("opf.warm_ratio", warm_ratio, "ratio");
    tr.measured("estimation.detector_ms", units.detector_ms, "ms");
    tr.measured("estimation.residual_ms", units.residual_ms, "ms");
    tr.measured("stats.ncx2_sf_us", units.ncx2_ms * 1e3, "us");
    tr.measured("core.evaluate_ms", units.evaluate_ms, "ms");
    Ok(units)
}

/// Records the H builds of one `select` on `session` at `gamma_th`.
pub fn select_evals(tr: &mut Tracer, session: &MtdSession, gamma_th: f64) -> Res<()> {
    let (before, _) = counters();
    at(
        "select",
        tr.span("core.select", || session.select(gamma_th)),
    )?;
    tr.measured("core.select_evals", (counters().0 - before) as f64, "count");
    Ok(())
}

/// What one workload's requests cost on the wire.
pub struct Wire {
    /// Median client-observed latency of the measured calls, ms.
    pub latency_ms: f64,
    pub response_bytes: f64,
    pub parse_us: f64,
    pub render_us: f64,
    pub batches_per_request: f64,
}

/// Sends `warm` (untimed) and then each of `calls` once through an
/// in-process daemon with default options over one connection, and
/// times the wire codec on the same frames.
pub fn wire(
    tr: &mut Tracer,
    session: &Json,
    warm: &[(&str, Json)],
    calls: &[(&str, Json)],
) -> Res<Wire> {
    let server = at("start server", Server::start(&ServeOptions::default()))?;
    let mut client = at("connect", Client::connect(server.local_addr()))?;
    for (method, params) in warm {
        let frame = client.request_frame(method, session, params);
        let line = at("warm-up call", client.call_raw(&frame))?;
        if line.contains("\"error\"") {
            return Err(format!("warm-up {method} failed: {line}"));
        }
    }
    let before = server.stats();
    let mut frames = Vec::new();
    let mut responses = Vec::new();
    for (method, params) in calls {
        let frame = client.request_frame(method, session, params);
        let t = now();
        let line = tr.span("serve.request", || client.call_raw(&frame));
        let latency = ms_since(t);
        let line = at("wire call", line)?;
        if line.contains("\"error\"") {
            return Err(format!("{method} failed on the wire: {line}"));
        }
        frames.push((frame, latency));
        responses.push(line);
    }
    let after = server.stats();
    drop(client);
    drop(server);
    let m = codec(
        tr,
        &frames.iter().map(|f| f.0.clone()).collect::<Vec<_>>(),
        &responses,
    )?;
    let batches_per_request =
        (after.batches - before.batches) as f64 / (after.requests - before.requests).max(1) as f64;
    Ok(Wire {
        latency_ms: median(&frames.iter().map(|f| f.1).collect::<Vec<_>>()),
        response_bytes: m.0,
        parse_us: m.1,
        render_us: m.2,
        batches_per_request,
    })
}

/// Median response length, and the median time of `wire::parse_frame`
/// on the request frames and of `wire::ok_frame` re-rendering each
/// response's result, µs.
pub fn codec(tr: &mut Tracer, frames: &[String], responses: &[String]) -> Res<(f64, f64, f64)> {
    const REPS: usize = 5;
    let bytes: Vec<f64> = responses.iter().map(|r| r.len() as f64).collect();
    for _ in 0..REPS {
        for f in frames {
            tr.span("serve.parse_frame", || wire::parse_frame(f))
                .map_err(|e| format!("parse_frame: {}", e.message))?;
        }
    }
    for r in responses {
        let doc = at("parse response", Json::parse(r))?;
        let id = doc.get("id").cloned().unwrap_or(Json::Null);
        let result = doc
            .get("result")
            .cloned()
            .ok_or("response without a result")?;
        for _ in 0..REPS {
            let result = result.clone();
            let line = tr.span("serve.ok_frame", || wire::ok_frame(&id, result));
            std::hint::black_box(line);
        }
    }
    Ok((
        median(&bytes),
        tr.median_ms("serve.parse_frame")? * 1e3,
        tr.median_ms("serve.ok_frame")? * 1e3,
    ))
}
