//! Reference numerics written in the benchmark itself, so output
//! checks do not go through any of the program's own γ, WLS or χ²
//! code paths: Gram–Schmidt bases, a Jacobi eigensolver, the largest
//! principal angle, the dense WLS residual noncentrality and the
//! noncentral-χ² tail as a Poisson-weighted series.

use gridmtd_linalg::Matrix;

/// Columns of `h`.
fn columns(h: &Matrix) -> Vec<Vec<f64>> {
    (0..h.cols())
        .map(|j| (0..h.rows()).map(|i| h[(i, j)]).collect())
        .collect()
}

fn dot(a: &[f64], b: &[f64]) -> f64 {
    a.iter().zip(b).map(|(x, y)| x * y).sum()
}

/// `v -= (q·v) q` for every basis vector, twice (classical
/// Gram–Schmidt with one re-orthogonalization pass keeps the result
/// orthogonal to working precision).
fn project_out(basis: &[Vec<f64>], v: &mut [f64]) {
    for _ in 0..2 {
        for q in basis {
            let c = dot(q, v);
            for (vi, qi) in v.iter_mut().zip(q) {
                *vi -= c * qi;
            }
        }
    }
}

/// Orthonormal basis of the column space of a full-column-rank `h`.
pub fn orthonormal_basis(h: &Matrix) -> Result<Vec<Vec<f64>>, String> {
    let mut basis: Vec<Vec<f64>> = Vec::with_capacity(h.cols());
    for mut v in columns(h) {
        let scale = dot(&v, &v).sqrt();
        project_out(&basis, &mut v);
        let norm = dot(&v, &v).sqrt();
        if norm.is_nan() || norm <= 1e-10 * scale.max(f64::MIN_POSITIVE) {
            return Err("measurement matrix is rank deficient".to_string());
        }
        v.iter_mut().for_each(|x| *x /= norm);
        basis.push(v);
    }
    Ok(basis)
}

/// Largest eigenvalue of a symmetric matrix by cyclic Jacobi rotations.
fn largest_eigenvalue(mut a: Vec<Vec<f64>>) -> f64 {
    let n = a.len();
    for _sweep in 0..100 {
        let off: f64 = (0..n)
            .flat_map(|i| (0..n).filter(move |&j| j != i).map(move |j| (i, j)))
            .map(|(i, j)| a[i][j] * a[i][j])
            .sum();
        let diag: f64 = (0..n).map(|i| a[i][i] * a[i][i]).sum();
        if off <= 1e-26 * diag.max(f64::MIN_POSITIVE) {
            break;
        }
        for p in 0..n {
            for q in p + 1..n {
                if a[p][q] == 0.0 {
                    continue;
                }
                let theta = (a[q][q] - a[p][p]) / (2.0 * a[p][q]);
                let t = theta.signum() / (theta.abs() + (theta * theta + 1.0).sqrt());
                let c = 1.0 / (t * t + 1.0).sqrt();
                let s = t * c;
                for row in a.iter_mut() {
                    let (akp, akq) = (row[p], row[q]);
                    row[p] = c * akp - s * akq;
                    row[q] = s * akp + c * akq;
                }
                let (upper, lower) = a.split_at_mut(q);
                for (x, y) in upper[p].iter_mut().zip(lower[0].iter_mut()) {
                    let (apk, aqk) = (*x, *y);
                    *x = c * apk - s * aqk;
                    *y = s * apk + c * aqk;
                }
            }
        }
    }
    (0..n).map(|i| a[i][i]).fold(f64::NEG_INFINITY, f64::max)
}

/// The largest principal angle between `Col(h1)` and `Col(h2)`, rad:
/// `sin²θ_max` is the largest eigenvalue of `MᵀM`, where
/// `M = (I − Q₁Q₁ᵀ)Q₂`.
pub fn largest_principal_angle(h1: &Matrix, h2: &Matrix) -> Result<f64, String> {
    let q1 = orthonormal_basis(h1)?;
    let mut m = orthonormal_basis(h2)?;
    for v in &mut m {
        project_out(&q1, v);
    }
    let gram: Vec<Vec<f64>> = m
        .iter()
        .map(|a| m.iter().map(|b| dot(a, b)).collect())
        .collect();
    let sin_sq = largest_eigenvalue(gram).clamp(0.0, 1.0);
    Ok(sin_sq.sqrt().asin())
}

/// `‖a − Hθ̂‖²_W` for uniform weights `1/σ²`: the squared distance of
/// `a` from `Col(H)` (given as an orthonormal basis) over `σ²`.
pub fn wls_noncentrality(basis: &[Vec<f64>], a: &[f64], sigma: f64) -> f64 {
    let mut r = a.to_vec();
    project_out(basis, &mut r);
    dot(&r, &r) / (sigma * sigma)
}

/// `ln Γ(x)` for `x > 0` (Lanczos, g = 7, n = 9).
fn ln_gamma(x: f64) -> f64 {
    const G: f64 = 7.0;
    const C: [f64; 9] = [
        0.999_999_999_999_809_9,
        676.520_368_121_885_1,
        -1_259.139_216_722_402_8,
        771.323_428_777_653_1,
        -176.615_029_162_140_6,
        12.507_343_278_686_905,
        -0.138_571_095_265_720_12,
        9.984_369_578_019_572e-6,
        1.505_632_735_149_311_6e-7,
    ];
    if x < 0.5 {
        let pi = std::f64::consts::PI;
        return (pi / (pi * x).sin()).ln() - ln_gamma(1.0 - x);
    }
    let x = x - 1.0;
    let mut sum = C[0];
    for (i, c) in C.iter().enumerate().skip(1) {
        let k = i as f64;
        sum += c / (x + k);
    }
    let t = x + G + 0.5;
    0.5 * (2.0 * std::f64::consts::PI).ln() + (x + 0.5) * t.ln() - t + sum.ln()
}

/// Regularized upper incomplete gamma `Q(s, x)`: the power series for
/// `P` below `x < s + 1`, Lentz's continued fraction above.
fn reg_upper_gamma(s: f64, x: f64) -> f64 {
    if x <= 0.0 {
        return 1.0;
    }
    let log_front = s * x.ln() - x - ln_gamma(s);
    if x < s + 1.0 {
        let (mut term, mut sum, mut k) = (1.0 / s, 1.0 / s, s);
        for _ in 0..100_000 {
            k += 1.0;
            term *= x / k;
            sum += term;
            if term < sum * 1e-17 {
                break;
            }
        }
        (1.0 - sum * log_front.exp()).max(0.0)
    } else {
        let tiny = 1e-300;
        let mut b = x + 1.0 - s;
        let mut c = 1.0 / tiny;
        let mut d = 1.0 / b;
        let mut h = d;
        for i in 1..100_000 {
            let fi = i as f64;
            let an = -fi * (fi - s);
            b += 2.0;
            d = an * d + b;
            if d.abs() < tiny {
                d = tiny;
            }
            c = b + an / c;
            if c.abs() < tiny {
                c = tiny;
            }
            d = 1.0 / d;
            let delta = d * c;
            h *= delta;
            if (delta - 1.0).abs() < 1e-17 {
                break;
            }
        }
        (log_front.exp() * h).min(1.0)
    }
}

/// The detector threshold `τ²` with `P(χ²_k > τ²) = α`, by bisection.
pub fn chi2_threshold(k: f64, alpha: f64) -> f64 {
    let (mut lo, mut hi) = (0.0_f64, k + 10.0);
    while reg_upper_gamma(k / 2.0, hi / 2.0) > alpha {
        hi *= 2.0;
    }
    for _ in 0..200 {
        let mid = 0.5 * (lo + hi);
        if reg_upper_gamma(k / 2.0, mid / 2.0) > alpha {
            lo = mid;
        } else {
            hi = mid;
        }
        if hi - lo <= 1e-15 * hi {
            break;
        }
    }
    0.5 * (lo + hi)
}

/// `P(χ'²_k(λ) > x)` as the Poisson mixture
/// `Σ_j e^{−λ/2}(λ/2)^j / j! · Q(k/2 + j, x/2)`, summed over every
/// term whose weight can matter.
pub fn ncx2_sf(k: f64, lambda: f64, x: f64) -> f64 {
    let half = lambda / 2.0;
    if half == 0.0 {
        return reg_upper_gamma(k / 2.0, x / 2.0);
    }
    let j_max = (half + 40.0 * half.sqrt() + 100.0) as u64;
    let mut total = 0.0;
    for j in 0..=j_max {
        let jf = j as f64;
        let weight = (-half + jf * half.ln() - ln_gamma(jf + 1.0)).exp();
        if weight < 1e-300 {
            continue;
        }
        total += weight * reg_upper_gamma(k / 2.0 + jf, x / 2.0);
    }
    total.min(1.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chi2_tail_matches_known_quantiles() {
        // χ²_2 has Q = e^{−x/2}.
        assert!((reg_upper_gamma(1.0, 1.5) - (-1.5_f64).exp()).abs() < 1e-14);
        // χ²_10 at its 0.95 quantile 18.307038.
        assert!((chi2_threshold(10.0, 0.05) - 18.307_038).abs() < 1e-5);
    }

    #[test]
    fn jacobi_finds_the_largest_eigenvalue() {
        let a = vec![
            vec![2.0, 1.0, 0.0],
            vec![1.0, 2.0, 0.0],
            vec![0.0, 0.0, 1.0],
        ];
        assert!((largest_eigenvalue(a) - 3.0).abs() < 1e-12);
    }

    #[test]
    fn angle_of_a_rotated_plane() {
        let t: f64 = 0.3;
        let mut a = Matrix::zeros(3, 1);
        a[(0, 0)] = 1.0;
        let mut b = Matrix::zeros(3, 1);
        b[(0, 0)] = t.cos();
        b[(1, 0)] = t.sin();
        assert!((largest_principal_angle(&a, &b).unwrap() - t).abs() < 1e-12);
    }
}
