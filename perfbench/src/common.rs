//! Pieces every workload shares: the seeded input generator, the
//! operation phase record, order statistics and process readings.

use std::fmt::Display;
use std::time::Instant;

/// Errors are reported as text: a failed set-up ends the run without a
/// result line, so nothing downstream needs to match on them.
pub type Res<T> = Result<T, String>;

/// Converts any displayable error, naming the step that failed.
pub fn at<T, E: Display>(step: &str, r: Result<T, E>) -> Res<T> {
    r.map_err(|e| format!("{step}: {e}"))
}

/// splitmix64: the benchmark's own input generator, so the inputs a
/// seed makes do not depend on any generator inside the program.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64, stream: u64) -> Rng {
        // gridmtd-lint: allow(raw-seed-mix) -- one fixed stream constant per workload, not a family of adjacent streams; kept apart from seedstream so that program changes cannot change the inputs
        let mut rng = Rng(seed ^ stream.wrapping_mul(0xD1B5_4A32_D192_ED03));
        rng.next_u64();
        rng
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[lo, hi)`.
    pub fn uniform(&mut self, lo: f64, hi: f64) -> f64 {
        let unit = (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64;
        lo + (hi - lo) * unit
    }
}

/// What one phase of operations did.
#[derive(Debug, Default, Clone)]
pub struct Phase {
    /// Wall time of each completed operation, ms.
    pub latencies_ms: Vec<f64>,
    /// Wall time of the whole phase, s.
    pub wall_s: f64,
    /// Process CPU time spent during the phase, s.
    pub cpu_s: f64,
    pub attempted: u64,
    pub failed: u64,
}

/// Wall and CPU clocks read together at the start of a phase.
pub struct PhaseClock {
    wall: Instant,
    cpu: f64,
}

impl PhaseClock {
    pub fn start() -> PhaseClock {
        PhaseClock {
            wall: now(),
            cpu: cpu_seconds(),
        }
    }

    pub fn elapsed_s(&self) -> f64 {
        self.wall.elapsed().as_secs_f64()
    }

    /// Stamps the phase's wall and CPU time.
    pub fn finish(&self, phase: &mut Phase) {
        phase.wall_s = self.elapsed_s();
        phase.cpu_s = cpu_seconds() - self.cpu;
    }
}

/// The benchmark's one clock: every timing it reports starts here.
pub fn now() -> Instant {
    // gridmtd-lint: allow(wallclock) -- measuring is this package's job; no reading feeds the program's inputs or outputs
    Instant::now()
}

pub fn ms_since(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e3
}

/// Nearest-rank percentile of unsorted samples (`p` in percent): the
/// smallest sample with at least `p` % of the samples at or below it.
pub fn percentile(samples: &[f64], p: f64) -> f64 {
    assert!(!samples.is_empty(), "percentile of no samples");
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = ((p / 100.0) * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

/// Median (mean of the middle pair for an even count).
pub fn median(samples: &[f64]) -> f64 {
    assert!(!samples.is_empty(), "median of no samples");
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        0.5 * (v[n / 2 - 1] + v[n / 2])
    }
}

/// Quartiles by Python's `statistics.quantiles(values, n=4)` (the
/// default "exclusive" method), so the steadiness report reads the
/// same as any later check of the same numbers.
pub fn quartiles(samples: &[f64]) -> (f64, f64, f64) {
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n == 1 {
        return (v[0], v[0], v[0]);
    }
    let m = n + 1;
    let q = |i: usize| {
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    (q(1), q(2), q(3))
}

/// Bit-for-bit equality of two float slices.
pub fn same_bits(a: &[f64], b: &[f64]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
}

/// Peak resident set of this process (`VmHWM`), MB.
pub fn rss_peak_mb() -> Res<f64> {
    let status = at(
        "read /proc/self/status",
        std::fs::read_to_string("/proc/self/status"),
    )?;
    let kb = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .ok_or("VmHWM missing from /proc/self/status")?;
    Ok(kb / 1024.0)
}

/// User plus system CPU time of the whole process (every thread,
/// finished ones included), s. Linux reports it in clock ticks of
/// 1/100 s.
pub fn cpu_seconds() -> f64 {
    const TICKS_PER_S: f64 = 100.0;
    let Ok(stat) = std::fs::read_to_string("/proc/self/stat") else {
        return 0.0;
    };
    // Fields after the parenthesised command name; utime and stime are
    // fields 14 and 15 of the whole line.
    let rest = stat.rsplit_once(')').map_or("", |(_, r)| r);
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let tick = |i: usize| {
        fields
            .get(i)
            .and_then(|f| f.parse::<f64>().ok())
            .unwrap_or(0.0)
    };
    (tick(11) + tick(12)) / TICKS_PER_S
}
