//! Extreme-eigenvalue estimation for symmetric operators.
//!
//! The parametrized preconditioner of §2.2 needs the interval `[λ₁, λₙ]`
//! containing the spectrum of `P⁻¹K`. For small problems the dense Jacobi
//! eigensolver suffices; for realistic plates we estimate the extremes with
//! the Lanczos three-term recurrence plus a safeguard expansion factor.
//!
//! The recurrence keeps five n-vectors whatever the step count and does
//! not reorthogonalize: the extreme Ritz values stay inside the spectrum's
//! hull (to rounding) after orthogonality is lost, and only the extremes
//! are used. Storing the basis and reorthogonalizing against it would cost
//! `O(k²·n)` memory traffic for `k` steps.
//!
//! The operator is supplied as a closure `apply(x, y)` computing `y = A x`,
//! so both explicit matrices and matrix-free operators can be analyzed.
//! A preconditioned operator `M⁻¹A` is analyzed in the `M` inner product
//! ([`lanczos_extremes_preconditioned`]), where it is self-adjoint.

use crate::dense::DenseMatrix;
use crate::error::SparseError;
use crate::vecops;

/// Result of a Lanczos spectral estimation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SpectralInterval {
    /// Estimated smallest eigenvalue.
    pub min: f64,
    /// Estimated largest eigenvalue.
    pub max: f64,
    /// Lanczos steps actually performed.
    pub steps: usize,
}

impl SpectralInterval {
    /// Widen the interval by relative `margin` on both sides (safeguard for
    /// the Ritz-value under-estimation of the extreme eigenvalues).
    ///
    /// The widening span never collapses: a degenerate interval
    /// (`λmin ≈ λmax`, e.g. a scaled identity, a 1×1 operator, or an early
    /// invariant-subspace break) falls back to a relative floor of `1e-3`
    /// of the largest eigenvalue magnitude, and an all-zero interval to an
    /// absolute floor — so for any `margin > 0` the result strictly
    /// brackets the input (`min < max`), which downstream consumers
    /// (Chebyshev-interval construction divides by `λmax − λmin`) rely on.
    pub fn widened(self, margin: f64) -> SpectralInterval {
        let scale = self.min.abs().max(self.max.abs());
        let span = (self.max - self.min).abs().max(scale * 1e-3).max(1e-12);
        SpectralInterval {
            min: self.min - margin * span,
            max: self.max + margin * span,
            steps: self.steps,
        }
    }

    /// Condition-number style ratio `max/min` (∞ when `min ≤ 0`).
    pub fn ratio(self) -> f64 {
        if self.min <= 0.0 {
            f64::INFINITY
        } else {
            self.max / self.min
        }
    }

    /// Whether the interval is numerically a single point: the half-span
    /// `δ = (max − min)/2` is negligible against the midpoint
    /// `θ = (max + min)/2`. This happens on a scaled identity, a 1×1
    /// operator, or an early invariant-subspace break — spectra on which
    /// a Chebyshev three-term recurrence is ill-defined (`δ → 0`), so
    /// interval consumers (polynomial schedules, the s-step basis, the
    /// Auto preconditioner heuristic) must take their degenerate path.
    /// Same test as the `PolySchedule` Richardson fallback.
    pub fn is_degenerate(self) -> bool {
        let theta = 0.5 * (self.max + self.min);
        let delta = 0.5 * (self.max - self.min);
        delta <= theta * 1e-12
    }
}

/// Deterministic pseudo-random unit starting vector (xorshift; avoids an
/// external RNG dependency in this substrate crate and keeps runs
/// reproducible).
fn seeded_unit_vector(n: usize, seed: u64) -> Vec<f64> {
    let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15).max(1);
    let mut v = Vec::with_capacity(n);
    for _ in 0..n {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        // Map to (-1, 1).
        v.push((state as f64 / u64::MAX as f64) * 2.0 - 1.0);
    }
    let nrm = vecops::norm2(&v);
    if nrm > 0.0 {
        vecops::scale(1.0 / nrm, &mut v);
    }
    v
}

/// Estimate the extreme eigenvalues of a symmetric operator of dimension
/// `n` with at most `max_steps` Lanczos steps — the three-term
/// recurrence of [`lanczos_extremes_preconditioned`] with `M = I`.
///
/// # Errors
/// [`SparseError::DidNotConverge`] only when the start vector has no
/// positive length (practically impossible with the seeded start).
pub fn lanczos_extremes<F>(
    n: usize,
    max_steps: usize,
    seed: u64,
    apply: F,
) -> Result<SpectralInterval, SparseError>
where
    F: FnMut(&[f64], &mut [f64]),
{
    lanczos_extremes_preconditioned(n, max_steps, seed, apply, vecops::copy)
}

/// Estimate the extreme eigenvalues of `M⁻¹A` with at most `max_steps`
/// Lanczos steps in the `M` inner product, where `apply(x, y)` computes
/// `y = A x` for a symmetric `A` and `precond(u, z)` computes `z = M⁻¹u`
/// for a symmetric positive definite `M`. `M⁻¹A` is self-adjoint in
/// `⟨x, y⟩_M = xᵀMy`, so its Lanczos process is the plain three-term
/// recurrence carried in two representations: the dual vectors
/// `v_j = M q_j` and the `M`-orthonormal basis vectors `q_j = M⁻¹v_j`.
/// Only `v_{j−1}, v_j, q_j` and the two work vectors `u = A q_j − α_j v_j
/// − β_j v_{j−1}`, `z = M⁻¹u` are stored; a step costs one `apply`, one
/// `precond`, two axpys (the first fused with `α_j = q_jᵀ(A q_j −
/// β_j v_{j−1})`), `β_{j+1} = √(uᵀz)` and one scaling of `q`.
///
/// The basis is not reorthogonalized. Once a Ritz value converges the
/// vectors lose orthogonality and copies ("ghosts") of converged
/// eigenvalues appear, but by Paige's analysis every Ritz value stays
/// within `O(ε‖M⁻¹A‖)` of the hull of the spectrum, so the two extremes
/// this routine reports are unaffected.
///
/// The run stops early when `β` falls below `1e-13` times the largest
/// `|α|` or `β` seen so far (an invariant subspace: the Ritz values are
/// exact), or when `uᵀz` turns non-positive or non-finite mid-run; the
/// steps taken so far give the estimate.
///
/// # Errors
/// [`SparseError::DidNotConverge`] when `M` is not positive on the start
/// vector (`v₀ᵀM⁻¹v₀ ≤ 0` or non-finite) or the first `α` is not finite.
pub fn lanczos_extremes_preconditioned<F, P>(
    n: usize,
    max_steps: usize,
    seed: u64,
    mut apply: F,
    mut precond: P,
) -> Result<SpectralInterval, SparseError>
where
    F: FnMut(&[f64], &mut [f64]),
    P: FnMut(&[f64], &mut [f64]),
{
    assert!(n > 0, "lanczos: empty operator");
    let m = max_steps.min(n).max(1);
    let mut alphas: Vec<f64> = Vec::with_capacity(m);
    let mut betas: Vec<f64> = Vec::with_capacity(m);
    // The dual vectors are kept unnormalized — `v_j = v / v_scale`,
    // `v_{j−1} = v_prev / prev_scale` — and their scales folded into the
    // axpy coefficients, which saves a pass per step; `q_j` is normalized
    // because `apply` consumes it.
    let mut v = seeded_unit_vector(n, seed);
    let mut q = vec![0.0; n];
    precond(&v, &mut q);
    let vq = vecops::dot(&v, &q);
    if !(vq.is_finite() && vq > 0.0) {
        return Err(SparseError::DidNotConverge {
            iterations: 0,
            residual: vq,
        });
    }
    let mut v_scale = vq.sqrt();
    vecops::scale(1.0 / v_scale, &mut q);
    let mut v_prev = vec![0.0; n];
    let mut prev_scale = 1.0;
    let mut u = vec![0.0; n];
    let mut z = vec![0.0; n];
    let mut beta = 0.0;
    let mut largest: f64 = 0.0;

    for j in 0..m {
        apply(&q, &mut u);
        // u ← A q_j − β_j v_{j−1}, α_j = q_jᵀu in the same pass (the
        // result lands in `v_prev`'s buffer, whose old content is dead).
        let alpha = vecops::fused_xpby_dot(&u, -beta / prev_scale, &mut v_prev, &q);
        std::mem::swap(&mut u, &mut v_prev);
        if !alpha.is_finite() {
            break;
        }
        alphas.push(alpha);
        if j + 1 == m {
            break;
        }
        vecops::axpy(-alpha / v_scale, &v, &mut u);
        precond(&u, &mut z);
        let uz = vecops::dot(&u, &z);
        largest = largest.max(alpha.abs()).max(beta);
        if !(uz.is_finite() && uz > 0.0) {
            break;
        }
        beta = uz.sqrt();
        if beta <= 1e-13 * largest {
            // Invariant subspace found: the Ritz values are exact.
            break;
        }
        betas.push(beta);
        // Roll the window: v_{j+1} = u/β (kept as u), q_{j+1} = z/β.
        std::mem::swap(&mut v_prev, &mut v);
        prev_scale = v_scale;
        std::mem::swap(&mut v, &mut u);
        v_scale = beta;
        std::mem::swap(&mut q, &mut z);
        vecops::scale(1.0 / beta, &mut q);
    }

    tridiagonal_extremes(&alphas, &betas)
}

/// Extreme eigenvalues of the Ritz matrix `T = tridiag(β, α, β)` built
/// from the `k = alphas.len()` Lanczos steps taken (`betas[i]` couples
/// steps `i` and `i + 1`; entries past `k − 1` are ignored).
fn tridiagonal_extremes(alphas: &[f64], betas: &[f64]) -> Result<SpectralInterval, SparseError> {
    let k = alphas.len();
    if k == 0 {
        return Err(SparseError::DidNotConverge {
            iterations: 0,
            residual: f64::NAN,
        });
    }
    let mut t = DenseMatrix::zeros(k, k);
    for i in 0..k {
        t[(i, i)] = alphas[i];
        if i + 1 < k {
            t[(i, i + 1)] = betas[i];
            t[(i + 1, i)] = betas[i];
        }
    }
    let eig = t.sym_eigenvalues()?;
    Ok(SpectralInterval {
        min: eig[0],
        max: eig[k - 1],
        steps: k,
    })
}

/// Spectral-radius estimate by power iteration (used for `ρ(G)` of the
/// splitting iteration matrix, §2.1). Returns the dominant `|λ|`.
///
/// # Errors
/// [`SparseError::DidNotConverge`] if the iterate collapses to zero.
pub fn power_spectral_radius<F>(
    n: usize,
    iterations: usize,
    seed: u64,
    mut apply: F,
) -> Result<f64, SparseError>
where
    F: FnMut(&[f64], &mut [f64]),
{
    assert!(n > 0, "power iteration: empty operator");
    let mut x = seeded_unit_vector(n, seed);
    let mut y = vec![0.0; n];
    let mut rho = 0.0;
    for it in 0..iterations {
        apply(&x, &mut y);
        let nrm = vecops::norm2(&y);
        if nrm == 0.0 {
            if it == 0 {
                return Err(SparseError::DidNotConverge {
                    iterations: it,
                    residual: 0.0,
                });
            }
            return Ok(0.0);
        }
        rho = nrm;
        for (xi, yi) in x.iter_mut().zip(&y) {
            *xi = yi / nrm;
        }
    }
    Ok(rho)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::coo::CooMatrix;
    use crate::csr::CsrMatrix;

    fn laplacian_1d(n: usize) -> CsrMatrix {
        let mut a = CooMatrix::new(n, n);
        for i in 0..n {
            a.push(i, i, 2.0).unwrap();
            if i + 1 < n {
                a.push_sym(i, i + 1, -1.0).unwrap();
            }
        }
        a.to_csr()
    }

    /// The stored-basis Lanczos loop with two classical Gram–Schmidt
    /// passes over every earlier vector at each step: the oracle the
    /// three-term recurrence is checked against.
    fn full_reorth_extremes<F>(
        n: usize,
        max_steps: usize,
        seed: u64,
        mut apply: F,
    ) -> Result<SpectralInterval, SparseError>
    where
        F: FnMut(&[f64], &mut [f64]),
    {
        let m = max_steps.min(n).max(1);
        let mut alphas: Vec<f64> = Vec::with_capacity(m);
        let mut betas: Vec<f64> = Vec::with_capacity(m);
        let mut basis: Vec<Vec<f64>> = Vec::with_capacity(m + 1);
        basis.push(seeded_unit_vector(n, seed));
        let mut w = vec![0.0; n];
        for j in 0..m {
            apply(&basis[j], &mut w);
            if j > 0 {
                vecops::axpy(-betas[j - 1], &basis[j - 1], &mut w);
            }
            let alpha = vecops::dot(&basis[j], &w);
            vecops::axpy(-alpha, &basis[j], &mut w);
            for _ in 0..2 {
                for q in &basis {
                    let c = vecops::dot(q, &w);
                    if c != 0.0 {
                        vecops::axpy(-c, q, &mut w);
                    }
                }
            }
            alphas.push(alpha);
            let beta = vecops::norm2(&w);
            if beta <= 1e-13 * alpha.abs().max(1.0) {
                break;
            }
            betas.push(beta);
            let mut next = w.clone();
            vecops::scale(1.0 / beta, &mut next);
            basis.push(next);
        }
        tridiagonal_extremes(&alphas, &betas)
    }

    /// 5-point Laplacian on a `g × g` grid (natural ordering).
    fn poisson_2d(g: usize) -> CsrMatrix {
        let n = g * g;
        let mut a = CooMatrix::new(n, n);
        for i in 0..g {
            for j in 0..g {
                let k = i * g + j;
                a.push(k, k, 4.0).unwrap();
                if j + 1 < g {
                    a.push_sym(k, k + 1, -1.0).unwrap();
                }
                if i + 1 < g {
                    a.push_sym(k, k + g, -1.0).unwrap();
                }
            }
        }
        a.to_csr()
    }

    /// `y = D^{-1/2} K D^{-1/2} x`, the Jacobi-scaled operator.
    fn jacobi_scaled(a: &CsrMatrix) -> impl FnMut(&[f64], &mut [f64]) + '_ {
        let n = a.rows();
        let dhalf: Vec<f64> = (0..n).map(|i| 1.0 / a.get(i, i).sqrt()).collect();
        let mut tmp = vec![0.0; n];
        move |x, y| {
            for i in 0..n {
                tmp[i] = dhalf[i] * x[i];
            }
            a.mul_vec_into(&tmp, y);
            for i in 0..n {
                y[i] *= dhalf[i];
            }
        }
    }

    fn rel(a: f64, b: f64) -> f64 {
        (a - b).abs() / b.abs()
    }

    #[test]
    fn three_term_matches_full_reorthogonalization_on_jacobi_poisson() {
        for g in [32usize, 64] {
            let a = poisson_2d(g);
            let n = a.rows();
            let fast = lanczos_extremes(n, 60, 0x5EED, jacobi_scaled(&a)).unwrap();
            let oracle = full_reorth_extremes(n, 60, 0x5EED, jacobi_scaled(&a)).unwrap();
            assert_eq!(fast.steps, oracle.steps, "g = {g}");
            assert!(
                rel(fast.min, oracle.min) < 1e-10,
                "g = {g}: {fast:?} vs {oracle:?}"
            );
            assert!(
                rel(fast.max, oracle.max) < 1e-10,
                "g = {g}: {fast:?} vs {oracle:?}"
            );
        }
    }

    #[test]
    fn ghost_regime_estimate_stays_inside_the_spectrum_hull() {
        // Without reorthogonalization, runs of n/2 steps or more on a
        // small operator produce ghost copies of converged eigenvalues;
        // the reported extremes must still lie in the hull up to rounding.
        let n = 40;
        let spectra: [Vec<f64>; 3] = [
            (0..n).map(|i| 1.0 + i as f64).collect(),
            (0..n).map(|i| 1e-3 * 1.25f64.powi(i as i32)).collect(),
            (0..n)
                .map(|i| {
                    if i < n / 2 {
                        -3.0 + 0.01 * i as f64
                    } else {
                        5.0 + i as f64
                    }
                })
                .collect(),
        ];
        for d in &spectra {
            let lo = d.iter().cloned().fold(f64::INFINITY, f64::min);
            let hi = d.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
            let tol = 1e-10 * lo.abs().max(hi.abs());
            for steps in [n / 2, 3 * n / 4, n] {
                for seed in [1u64, 7, 42] {
                    let est = lanczos_extremes(n, steps, seed, |x, y| {
                        for i in 0..n {
                            y[i] = d[i] * x[i];
                        }
                    })
                    .unwrap();
                    assert!(
                        est.min >= lo - tol && est.max <= hi + tol,
                        "steps {steps}, seed {seed}: {est:?} outside [{lo}, {hi}]"
                    );
                }
            }
        }
    }

    #[test]
    fn preconditioned_recovers_diagonal_ratio_extremes() {
        // K and M diagonal: the spectrum of M⁻¹K is {kᵢ/mᵢ}, spread over
        // about [1, 30] like a preconditioned operator's.
        let n = 30;
        let k: Vec<f64> = (0..n).map(|i| 2.0 + i as f64).collect();
        let m: Vec<f64> = (0..n).map(|i| 1.0 + 0.1 * ((i * 7) % 11) as f64).collect();
        let ratios: Vec<f64> = (0..n).map(|i| k[i] / m[i]).collect();
        let lo = ratios.iter().cloned().fold(f64::INFINITY, f64::min);
        let hi = ratios.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        let est = lanczos_extremes_preconditioned(
            n,
            n,
            3,
            |x, y| {
                for i in 0..n {
                    y[i] = k[i] * x[i];
                }
            },
            |u, z| {
                for i in 0..n {
                    z[i] = u[i] / m[i];
                }
            },
        )
        .unwrap();
        assert!(rel(est.min, lo) < 1e-10, "{est:?} vs [{lo}, {hi}]");
        assert!(rel(est.max, hi) < 1e-10, "{est:?} vs [{lo}, {hi}]");
    }

    #[test]
    fn non_positive_preconditioner_is_a_typed_error() {
        let a = laplacian_1d(16);
        for sign in [-1.0, 0.0] {
            let r = lanczos_extremes_preconditioned(
                16,
                8,
                5,
                |x, y| a.mul_vec_into(x, y),
                |u, z| {
                    for (zi, ui) in z.iter_mut().zip(u) {
                        *zi = sign * ui;
                    }
                },
            );
            assert!(
                matches!(r, Err(SparseError::DidNotConverge { iterations: 0, .. })),
                "M⁻¹ = {sign}·I: {r:?}"
            );
        }
    }

    #[test]
    fn breakdown_test_is_scale_invariant() {
        // The invariant-subspace test is relative to the operator's own
        // size, so a tiny operator runs the same steps as its unit-scale
        // twin instead of collapsing to a point after one step.
        let n = 64;
        let a = laplacian_1d(n);
        let unit = lanczos_extremes(n, 48, 7, |x, y| a.mul_vec_into(x, y)).unwrap();
        for scale in [1e-10, 1e-14, 1e-20] {
            let est = lanczos_extremes(n, 48, 7, |x, y| {
                a.mul_vec_into(x, y);
                vecops::scale(scale, y);
            })
            .unwrap();
            assert_eq!(est.steps, unit.steps, "scale {scale}: {est:?}");
            assert!(
                rel(est.min, unit.min * scale) < 1e-12,
                "scale {scale}: {est:?} vs {unit:?}"
            );
            assert!(
                rel(est.max, unit.max * scale) < 1e-12,
                "scale {scale}: {est:?} vs {unit:?}"
            );
        }
    }

    #[test]
    fn lanczos_recovers_1d_laplacian_extremes() {
        let n = 64;
        let a = laplacian_1d(n);
        let est = lanczos_extremes(n, 48, 7, |x, y| a.mul_vec_into(x, y)).unwrap();
        let h = std::f64::consts::PI / (n as f64 + 1.0);
        let exact_min = 2.0 - 2.0 * h.cos();
        let exact_max = 2.0 + 2.0 * (n as f64 * h).cos().abs();
        assert!((est.max - exact_max).abs() / exact_max < 1e-3, "{est:?}");
        // λmin is harder; allow 10% and the interval must bracket from inside.
        assert!(
            est.min >= exact_min * 0.5 && est.min <= exact_min * 1.5,
            "{est:?}"
        );
    }

    #[test]
    fn lanczos_exact_on_small_matrix() {
        // n = 3 runs to completion -> exact eigenvalues.
        let a = laplacian_1d(3);
        let est = lanczos_extremes(3, 3, 1, |x, y| a.mul_vec_into(x, y)).unwrap();
        assert!((est.min - (2.0 - 2f64.sqrt())).abs() < 1e-10);
        assert!((est.max - (2.0 + 2f64.sqrt())).abs() < 1e-10);
    }

    #[test]
    fn lanczos_diagonal_operator() {
        let d = [1.0, 5.0, 9.0, 13.0];
        let est = lanczos_extremes(4, 4, 3, |x, y| {
            for i in 0..4 {
                y[i] = d[i] * x[i];
            }
        })
        .unwrap();
        assert!((est.min - 1.0).abs() < 1e-9);
        assert!((est.max - 13.0).abs() < 1e-9);
    }

    #[test]
    fn power_iteration_dominant_eigenvalue() {
        let d = [0.3, -0.9, 0.5];
        let rho = power_spectral_radius(3, 200, 11, |x, y| {
            for i in 0..3 {
                y[i] = d[i] * x[i];
            }
        })
        .unwrap();
        assert!((rho - 0.9).abs() < 1e-6);
    }

    #[test]
    fn power_iteration_zero_operator() {
        let r = power_spectral_radius(3, 10, 5, |_x, y| y.fill(0.0));
        assert!(r.is_err() || r.unwrap() == 0.0);
    }

    #[test]
    fn widened_interval_brackets() {
        let s = SpectralInterval {
            min: 1.0,
            max: 2.0,
            steps: 5,
        };
        let w = s.widened(0.1);
        assert!(w.min < 1.0 && w.max > 2.0);
        assert!(w.ratio() > s.ratio() * 0.9);
    }

    #[test]
    fn lanczos_one_by_one_operator_is_exact() {
        // n = 1: the Krylov space is the whole space; both extremes equal
        // the single entry regardless of the requested step budget.
        let est = lanczos_extremes(1, 16, 9, |x, y| y[0] = 3.5 * x[0]).unwrap();
        assert_eq!(est.min, 3.5);
        assert_eq!(est.max, 3.5);
        assert_eq!(est.steps, 1);
    }

    #[test]
    fn lanczos_scaled_identity_breaks_early_with_degenerate_interval() {
        // A pure-diagonal operator with equal entries: the first Lanczos
        // step finds an invariant subspace, so the estimate is exact and
        // degenerate (λmin = λmax) after one step.
        let est = lanczos_extremes(8, 8, 2, |x, y| {
            for i in 0..8 {
                y[i] = 2.0 * x[i];
            }
        })
        .unwrap();
        assert!((est.min - 2.0).abs() < 1e-12, "{est:?}");
        assert!((est.max - 2.0).abs() < 1e-12, "{est:?}");
        assert_eq!(est.steps, 1);
    }

    #[test]
    fn widened_degenerate_interval_strictly_brackets() {
        // λmin == λmax: the relative floor keeps the widening span
        // nonzero, so the widened interval is a genuine interval.
        let s = SpectralInterval {
            min: 2.0,
            max: 2.0,
            steps: 1,
        };
        let w = s.widened(0.02);
        assert!(w.min < 2.0 && w.max > 2.0, "{w:?}");
        assert!(w.max - w.min >= 2.0 * 0.02 * 1e-3 * 2.0 * 0.999, "{w:?}");
        // Even the all-zero interval widens through the absolute floor.
        let z = SpectralInterval {
            min: 0.0,
            max: 0.0,
            steps: 1,
        }
        .widened(0.02);
        assert!(z.min < 0.0 && z.max > 0.0, "{z:?}");
    }

    #[test]
    fn ratio_of_nonpositive_interval_is_infinite() {
        let s = SpectralInterval {
            min: 0.0,
            max: 2.0,
            steps: 1,
        };
        assert!(s.ratio().is_infinite());
    }
}
