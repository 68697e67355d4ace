//! Steadiness mode: runs each workload several times as a child
//! process, each time with another seed, and prints for every
//! end-to-end metric the median, the quartiles and the spread
//! (interquartile distance over the median) against the metric's bound
//! in `BENCHMARK.json`. This is the evidence the bounds rest on.

use std::collections::BTreeMap;
use std::process::{Command, ExitCode, Stdio};

use gridmtd_scenario::json::Json;

use crate::common::{at, quartiles, Res};
use crate::WORKLOADS;

struct Bounds {
    run_seconds: f64,
    /// (metric, bound) in `BENCHMARK.json` order.
    end_to_end: Vec<(String, f64)>,
}

fn read_bounds() -> Res<Bounds> {
    let text = at(
        "read BENCHMARK.json",
        std::fs::read_to_string("BENCHMARK.json"),
    )?;
    let doc = at("parse BENCHMARK.json", Json::parse(&text))?;
    let run_seconds = doc
        .get("run_seconds")
        .and_then(Json::as_f64)
        .ok_or("BENCHMARK.json: run_seconds missing")?;
    let end_to_end = doc
        .get("end_to_end")
        .and_then(Json::as_arr)
        .ok_or("BENCHMARK.json: end_to_end missing")?
        .iter()
        .map(|m| {
            let name = m.get("name").and_then(Json::as_str);
            let bound = m.get("bound").and_then(Json::as_f64);
            name.zip(bound)
                .map(|(n, b)| (n.to_string(), b))
                .ok_or_else(|| "BENCHMARK.json: metric without name or bound".to_string())
        })
        .collect::<Res<Vec<_>>>()?;
    Ok(Bounds {
        run_seconds,
        end_to_end,
    })
}

/// One child run's result line: metric values and the failed share.
fn one_run(workload: &str, seed: u64, seconds: f64) -> Res<(BTreeMap<String, f64>, f64)> {
    let exe = at("locate the benchmark binary", std::env::current_exe())?;
    let out = at(
        "run the benchmark",
        Command::new(exe)
            .args(["--workload", workload, "--seed", &seed.to_string()])
            .args(["--seconds", &seconds.to_string(), "--trace", "0"])
            .stderr(Stdio::inherit())
            .output(),
    )?;
    if !out.status.success() {
        return Err(format!("{workload} seed {seed} exited with {}", out.status));
    }
    let stdout = String::from_utf8_lossy(&out.stdout);
    let last = stdout.lines().last().ok_or("no result line")?;
    let doc = at("parse the result line", Json::parse(last))?;
    if doc.get("correct") != Some(&Json::Bool(true)) {
        return Err(format!("{workload} seed {seed} reported incorrect outputs"));
    }
    let attempted = doc
        .get("attempted")
        .and_then(Json::as_f64)
        .ok_or("no attempted")?;
    let failed = doc
        .get("failed")
        .and_then(Json::as_f64)
        .ok_or("no failed")?;
    let mut values = BTreeMap::new();
    if let Some(Json::Obj(metrics)) = doc.get("metrics") {
        for (name, m) in metrics {
            let v = m
                .get("value")
                .and_then(Json::as_f64)
                .ok_or("metric without value")?;
            values.insert(name.clone(), v);
        }
    }
    Ok((values, failed / attempted))
}

pub fn run(runs: usize, workload: Option<&str>, seconds: Option<f64>, first_seed: u64) -> ExitCode {
    match steady(runs, workload, seconds, first_seed) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("gridmtd-perfbench --steady: {e}");
            ExitCode::FAILURE
        }
    }
}

fn steady(runs: usize, workload: Option<&str>, seconds: Option<f64>, first_seed: u64) -> Res<bool> {
    let bounds = read_bounds()?;
    let seconds = seconds.unwrap_or(bounds.run_seconds);
    let workloads: Vec<&str> = workload.map_or(WORKLOADS.to_vec(), |w| vec![w]);
    let mut steady = true;
    for w in workloads {
        let mut values: BTreeMap<String, Vec<f64>> = BTreeMap::new();
        let mut failed_shares = Vec::with_capacity(runs);
        for i in 0..runs as u64 {
            let (metrics, share) = one_run(w, first_seed + i, seconds)?;
            let line: Vec<String> = bounds
                .end_to_end
                .iter()
                .map(|(name, _)| {
                    format!("{name} {}", metrics.get(name).copied().unwrap_or(f64::NAN))
                })
                .collect();
            println!("{w} seed {}: {}", first_seed + i, line.join(", "));
            for (name, v) in metrics {
                values.entry(name).or_default().push(v);
            }
            failed_shares.push(share);
        }
        println!(
            "{w}: {runs} runs of {seconds} s, seeds {first_seed}..{}",
            first_seed + runs as u64 - 1
        );
        println!(
            "  {:<12} {:>12} {:>12} {:>12} {:>8} {:>6}  verdict",
            "metric", "q1", "median", "q3", "spread", "bound"
        );
        for (name, bound) in &bounds.end_to_end {
            let v = values
                .get(name)
                .ok_or_else(|| format!("{w} did not report {name}"))?;
            let (q1, med, q3) = quartiles(v);
            let spread = (q3 - q1) / med;
            // Set-up time is exempt from the spread rule; its bound
            // guards the median alone.
            let verdict = if name == "setup_s" {
                "median only"
            } else if spread <= bound / 3.0 {
                "steady"
            } else if spread <= *bound {
                steady = false;
                "within bound, not below a third"
            } else {
                steady = false;
                "too wide"
            };
            println!("  {name:<12} {q1:>12.4} {med:>12.4} {q3:>12.4} {spread:>8.4} {bound:>6}  {verdict}");
        }
        let share = failed_shares[0];
        let same = failed_shares.iter().all(|s| s.to_bits() == share.to_bits());
        steady &= same;
        println!(
            "  failed share {share} in every run: {}",
            if same { "yes" } else { "no" }
        );
    }
    Ok(steady)
}
