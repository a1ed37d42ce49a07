//! BLAS-1 style vector kernels.
//!
//! The conjugate gradient iteration (Algorithm 1 of the paper) is built
//! almost entirely from these operations. They are written as plain indexed
//! loops over equal-length slices, which LLVM auto-vectorizes; the explicit
//! `assert_eq!` length checks hoist the bounds checks out of the loops.
//!
//! The paper's central performance observation — that the two *inner
//! products* per CG iteration are the expensive part on both vector machines
//! and processor arrays — is modelled in `mspcg-machine`; here we provide
//! the numerically careful reference kernels *and* their data-parallel
//! forms.
//!
//! ## Determinism contract
//!
//! Every reduction (dot, norms) is computed over the fixed chunk layout of
//! [`crate::par::reduction_layout`]: one partial per chunk, partials
//! combined in ascending chunk order. Chunk boundaries depend only on the
//! vector length, so results are **bitwise identical** across thread counts
//! and between the serial and parallel code paths. Elementwise kernels
//! (axpy, xpby, …) write disjoint chunks and are trivially deterministic.
//! Large inputs run on the `mspcg-sparse` worker pool; small inputs take
//! the serial path (see
//! [`crate::tuning::PAR_MIN_ELEMS`]).

use crate::par;
use crate::tuning;

/// Serial dot kernel over one chunk: four independent partial accumulators,
/// which both enables vectorization and reduces the rounding error compared
/// to a single serial accumulator.
#[inline]
fn dot_chunk(x: &[f64], y: &[f64]) -> f64 {
    let mut acc = [0.0f64; 4];
    let chunks = x.len() / 4;
    for i in 0..chunks {
        let b = i * 4;
        acc[0] += x[b] * y[b];
        acc[1] += x[b + 1] * y[b + 1];
        acc[2] += x[b + 2] * y[b + 2];
        acc[3] += x[b + 3] * y[b + 3];
    }
    let mut tail = 0.0;
    for i in chunks * 4..x.len() {
        tail += x[i] * y[i];
    }
    (acc[0] + acc[2]) + (acc[1] + acc[3]) + tail
}

/// Dot product `xᵀy`, chunk-deterministic (see the module docs).
///
/// # Panics
/// Panics if `x.len() != y.len()`.
#[inline]
pub fn dot(x: &[f64], y: &[f64]) -> f64 {
    assert_eq!(x.len(), y.len(), "dot: length mismatch");
    let n = x.len();
    let (chunk, nchunks) = par::reduction_layout(n);
    let threads = par::threads_for(n, tuning::PAR_MIN_ELEMS);
    if threads <= 1 {
        let mut acc = 0.0;
        for c in 0..nchunks {
            let lo = c * chunk;
            let hi = (lo + chunk).min(n);
            acc += dot_chunk(&x[lo..hi], &y[lo..hi]);
        }
        return acc;
    }
    let mut partials = [0.0f64; par::MAX_PARTIALS];
    {
        let ps = par::ParSlice::new(&mut partials);
        par::for_each_chunk(nchunks, threads, &|c| {
            let lo = c * chunk;
            let hi = (lo + chunk).min(n);
            // SAFETY: each chunk index is claimed exactly once.
            unsafe { ps.set(c, dot_chunk(&x[lo..hi], &y[lo..hi])) };
        });
    }
    let mut acc = 0.0;
    for &p in &partials[..nchunks] {
        acc += p;
    }
    acc
}

/// Distribute an elementwise update over the fixed chunk layout.
#[inline]
fn elementwise(n: usize, y: &mut [f64], body: impl Fn(usize, usize, &mut [f64]) + Sync) {
    let threads = par::threads_for(n, tuning::PAR_MIN_ELEMS);
    let (chunk, nchunks) = par::reduction_layout(n);
    if threads <= 1 {
        for c in 0..nchunks {
            let lo = c * chunk;
            let hi = (lo + chunk).min(n);
            body(lo, hi, &mut y[lo..hi]);
        }
        return;
    }
    let ys = par::ParSlice::new(y);
    par::for_each_chunk(nchunks, threads, &|c| {
        let lo = c * chunk;
        let hi = (lo + chunk).min(n);
        // SAFETY: chunks are disjoint and each claimed exactly once.
        let yc = unsafe { ys.slice_mut(lo..hi) };
        body(lo, hi, yc);
    });
}

/// `y ← y + a·x` (the classic AXPY).
///
/// # Panics
/// Panics if `x.len() != y.len()`.
#[inline]
pub fn axpy(a: f64, x: &[f64], y: &mut [f64]) {
    assert_eq!(x.len(), y.len(), "axpy: length mismatch");
    elementwise(x.len(), y, |lo, hi, yc| {
        for (yi, xi) in yc.iter_mut().zip(&x[lo..hi]) {
            *yi += a * xi;
        }
    });
}

/// `y ← x + b·y` (scale-and-add used by the CG direction update
/// `p ← r̂ + β p`).
///
/// # Panics
/// Panics if `x.len() != y.len()`.
#[inline]
pub fn xpby(x: &[f64], b: f64, y: &mut [f64]) {
    assert_eq!(x.len(), y.len(), "xpby: length mismatch");
    elementwise(x.len(), y, |lo, hi, yc| {
        for (yi, xi) in yc.iter_mut().zip(&x[lo..hi]) {
            *yi = xi + b * *yi;
        }
    });
}

/// `x ← a·x`.
#[inline]
pub fn scale(a: f64, x: &mut [f64]) {
    elementwise(x.len(), x, |_, _, xc| {
        for xi in xc.iter_mut() {
            *xi *= a;
        }
    });
}

/// Copy `src` into `dst`.
///
/// # Panics
/// Panics if lengths differ.
#[inline]
pub fn copy(src: &[f64], dst: &mut [f64]) {
    dst.copy_from_slice(src);
}

/// Set every element to zero.
#[inline]
pub fn zero(x: &mut [f64]) {
    x.fill(0.0);
}

/// Max-style chunk-deterministic reduction shared by the ∞-norm kernels.
#[inline]
fn max_reduce(n: usize, chunk_max: impl Fn(usize, usize) -> f64 + Sync) -> f64 {
    let (chunk, nchunks) = par::reduction_layout(n);
    let threads = par::threads_for(n, tuning::PAR_MIN_ELEMS);
    if threads <= 1 {
        let mut m = 0.0f64;
        for c in 0..nchunks {
            let v = chunk_max(c * chunk, (c * chunk + chunk).min(n));
            if v > m {
                m = v;
            }
        }
        return m;
    }
    let mut partials = [0.0f64; par::MAX_PARTIALS];
    {
        let ps = par::ParSlice::new(&mut partials);
        par::for_each_chunk(nchunks, threads, &|c| {
            // SAFETY: each chunk index is claimed exactly once.
            unsafe { ps.set(c, chunk_max(c * chunk, (c * chunk + chunk).min(n))) };
        });
    }
    let mut m = 0.0f64;
    for &v in &partials[..nchunks] {
        if v > m {
            m = v;
        }
    }
    m
}

/// Euclidean norm `‖x‖₂`, computed with scaling to avoid overflow for very
/// large components.
#[inline]
pub fn norm2(x: &[f64]) -> f64 {
    norm2_with_max(x, norm_inf(x))
}

/// The scaled-sum pass of [`norm2`] with the `‖x‖∞` pass already done —
/// callers that obtained `maxabs` from a fused kernel (see
/// [`fused_axpy_axpy_norm`]) skip one full sweep over `x`. Bitwise
/// identical to `norm2(x)` whenever `maxabs == norm_inf(x)`.
#[inline]
pub fn norm2_with_max(x: &[f64], maxabs: f64) -> f64 {
    if maxabs == 0.0 || !maxabs.is_finite() {
        return maxabs;
    }
    let inv = 1.0 / maxabs;
    let n = x.len();
    let (chunk, nchunks) = par::reduction_layout(n);
    let sq_chunk = |lo: usize, hi: usize| -> f64 {
        let mut s = 0.0;
        for &xi in &x[lo..hi] {
            let t = xi * inv;
            s += t * t;
        }
        s
    };
    let threads = par::threads_for(n, tuning::PAR_MIN_ELEMS);
    let mut s = 0.0;
    if threads <= 1 {
        for c in 0..nchunks {
            s += sq_chunk(c * chunk, (c * chunk + chunk).min(n));
        }
    } else {
        let mut partials = [0.0f64; par::MAX_PARTIALS];
        {
            let ps = par::ParSlice::new(&mut partials);
            par::for_each_chunk(nchunks, threads, &|c| {
                // SAFETY: each chunk index is claimed exactly once.
                unsafe { ps.set(c, sq_chunk(c * chunk, (c * chunk + chunk).min(n))) };
            });
        }
        for &p in &partials[..nchunks] {
            s += p;
        }
    }
    maxabs * s.sqrt()
}

/// Max norm `‖x‖∞` — the norm the paper's convergence test uses
/// (`|u^{k+1} − u^k|_∞ < ε`, Algorithm 1 step (3)).
#[inline]
pub fn norm_inf(x: &[f64]) -> f64 {
    max_reduce(x.len(), |lo, hi| {
        let mut m = 0.0f64;
        for &xi in &x[lo..hi] {
            let a = xi.abs();
            if a > m {
                m = a;
            }
        }
        m
    })
}

/// `‖x − y‖∞` without forming the difference vector; used by the
/// displacement-change stopping test.
///
/// # Panics
/// Panics if lengths differ.
#[inline]
pub fn max_abs_diff(x: &[f64], y: &[f64]) -> f64 {
    assert_eq!(x.len(), y.len(), "max_abs_diff: length mismatch");
    max_reduce(x.len(), |lo, hi| {
        let mut m = 0.0f64;
        for (xi, yi) in x[lo..hi].iter().zip(&y[lo..hi]) {
            let a = (xi - yi).abs();
            if a > m {
                m = a;
            }
        }
        m
    })
}

/// Elementwise product `z ← x ⊙ y` (used by diagonal scaling).
///
/// # Panics
/// Panics if lengths differ.
#[inline]
pub fn hadamard(x: &[f64], y: &[f64], z: &mut [f64]) {
    assert_eq!(x.len(), y.len(), "hadamard: length mismatch");
    assert_eq!(x.len(), z.len(), "hadamard: output length mismatch");
    elementwise(x.len(), z, |lo, hi, zc| {
        for ((zi, xi), yi) in zc.iter_mut().zip(&x[lo..hi]).zip(&y[lo..hi]) {
            *zi = xi * yi;
        }
    });
}

/// `z ← x − y`.
///
/// # Panics
/// Panics if lengths differ.
#[inline]
pub fn sub(x: &[f64], y: &[f64], z: &mut [f64]) {
    assert_eq!(x.len(), y.len(), "sub: length mismatch");
    assert_eq!(x.len(), z.len(), "sub: output length mismatch");
    elementwise(x.len(), z, |lo, hi, zc| {
        for ((zi, xi), yi) in zc.iter_mut().zip(&x[lo..hi]).zip(&y[lo..hi]) {
            *zi = xi - yi;
        }
    });
}

/// Reduction partials of [`fused_axpy_axpy_norm`].
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct FusedUpdateNorms {
    /// `‖p‖∞` of the (unchanged) direction vector — multiply by `|α|` for
    /// the displacement-change stopping test.
    pub p_norm_inf: f64,
    /// `‖r‖∞` of the **updated** residual — feed [`norm2_with_max`] for
    /// the relative-residual test without another full sweep.
    pub r_norm_inf: f64,
}

impl FusedUpdateNorms {
    /// Both norms are finite. Note the caveat of [`norm_inf`]: `f64::max`
    /// ignores NaN operands, so a NaN element can hide behind a larger
    /// finite one — an `Inf` always surfaces, but NaN detection must rely
    /// on the dot-product scalars of the same iteration (where one NaN
    /// poisons the whole sum).
    pub fn all_finite(&self) -> bool {
        self.p_norm_inf.is_finite() && self.r_norm_inf.is_finite()
    }
}

/// One chunk of the fused CG update: `u ← u + α·p`, `r ← r + (−α)·kp`,
/// returning `(max|p|, max|r_new|)` for the chunk. The per-element
/// arithmetic and max logic replicate [`axpy`] and [`norm_inf`] exactly.
#[inline]
fn fused_update_chunk(
    alpha: f64,
    p: &[f64],
    kp: &[f64],
    u: &mut [f64],
    r: &mut [f64],
) -> (f64, f64) {
    let mut max_p = 0.0f64;
    for (ui, pi) in u.iter_mut().zip(p) {
        *ui += alpha * pi;
        let a = pi.abs();
        if a > max_p {
            max_p = a;
        }
    }
    let neg_alpha = -alpha;
    let mut max_r = 0.0f64;
    for (ri, ki) in r.iter_mut().zip(kp) {
        *ri += neg_alpha * ki;
        let a = ri.abs();
        if a > max_r {
            max_r = a;
        }
    }
    (max_p, max_r)
}

/// The fused CG iteration update: in **one pass** over the fixed chunk
/// layout, perform `u ← u + α·p` and `r ← r − α·kp` and accumulate the
/// `‖p‖∞` / `‖r_new‖∞` reduction partials. Replaces the three to four
/// separate sweeps (`axpy`, `norm_inf`, `axpy`, and the `norm_inf` half of
/// [`norm2`]) of the unfused loop — one memory traversal and, on the
/// worker pool, one kernel launch instead of three.
///
/// **Bitwise identical to the unfused path** for any thread count: chunk
/// boundaries come from the same [`crate::par::reduction_layout`], the
/// per-element update arithmetic matches [`axpy`], and the max reductions
/// combine per-chunk partials in ascending chunk order exactly like
/// [`norm_inf`] (`tests/par_determinism.rs` asserts this).
///
/// # Panics
/// Panics if the four slices differ in length.
pub fn fused_axpy_axpy_norm(
    alpha: f64,
    p: &[f64],
    kp: &[f64],
    u: &mut [f64],
    r: &mut [f64],
) -> FusedUpdateNorms {
    let n = p.len();
    assert_eq!(kp.len(), n, "fused_axpy_axpy_norm: kp length mismatch");
    assert_eq!(u.len(), n, "fused_axpy_axpy_norm: u length mismatch");
    assert_eq!(r.len(), n, "fused_axpy_axpy_norm: r length mismatch");
    let (chunk, nchunks) = par::reduction_layout(n);
    let threads = par::threads_for(n, tuning::PAR_MIN_ELEMS);
    if threads <= 1 {
        let mut out = FusedUpdateNorms::default();
        for c in 0..nchunks {
            let lo = c * chunk;
            let hi = (lo + chunk).min(n);
            let (mp, mr) = fused_update_chunk(
                alpha,
                &p[lo..hi],
                &kp[lo..hi],
                &mut u[lo..hi],
                &mut r[lo..hi],
            );
            if mp > out.p_norm_inf {
                out.p_norm_inf = mp;
            }
            if mr > out.r_norm_inf {
                out.r_norm_inf = mr;
            }
        }
        return out;
    }
    let mut p_partials = [0.0f64; par::MAX_PARTIALS];
    let mut r_partials = [0.0f64; par::MAX_PARTIALS];
    {
        let us = par::ParSlice::new(u);
        let rs = par::ParSlice::new(r);
        let pps = par::ParSlice::new(&mut p_partials);
        let rps = par::ParSlice::new(&mut r_partials);
        par::for_each_chunk(nchunks, threads, &|c| {
            let lo = c * chunk;
            let hi = (lo + chunk).min(n);
            // SAFETY: chunks are disjoint and each claimed exactly once;
            // partial slot `c` is written only by this chunk.
            unsafe {
                let uc = us.slice_mut(lo..hi);
                let rc = rs.slice_mut(lo..hi);
                let (mp, mr) = fused_update_chunk(alpha, &p[lo..hi], &kp[lo..hi], uc, rc);
                pps.set(c, mp);
                rps.set(c, mr);
            }
        });
    }
    let mut out = FusedUpdateNorms::default();
    for c in 0..nchunks {
        if p_partials[c] > out.p_norm_inf {
            out.p_norm_inf = p_partials[c];
        }
        if r_partials[c] > out.r_norm_inf {
            out.r_norm_inf = r_partials[c];
        }
    }
    out
}

/// Fused direction update + inner product: `y ← x + b·y`, returning
/// `yᵀw` of the **updated** `y` — one pass instead of an [`xpby`] sweep
/// followed by a [`dot`] sweep. With `b == 0.0` the update is an exact
/// copy (`y ← x`), so stale or non-finite values in `y` cannot leak
/// through a `0·y` product — this is the PCG initialization
/// `p⁰ ← r̂⁰, (r̂⁰, r⁰)` path.
///
/// Chunk deterministic and bitwise identical to the unfused
/// `xpby(x, b, y); dot(y, w)` sequence (same layout, same per-chunk dot
/// kernel, partials combined in ascending chunk order).
///
/// # Panics
/// Panics if the slices differ in length.
pub fn fused_xpby_dot(x: &[f64], b: f64, y: &mut [f64], w: &[f64]) -> f64 {
    let n = x.len();
    assert_eq!(y.len(), n, "fused_xpby_dot: y length mismatch");
    assert_eq!(w.len(), n, "fused_xpby_dot: w length mismatch");
    let (chunk, nchunks) = par::reduction_layout(n);
    let update = |lo: usize, hi: usize, yc: &mut [f64]| {
        if b == 0.0 {
            yc.copy_from_slice(&x[lo..hi]);
        } else {
            for (yi, xi) in yc.iter_mut().zip(&x[lo..hi]) {
                *yi = xi + b * *yi;
            }
        }
    };
    let threads = par::threads_for(n, tuning::PAR_MIN_ELEMS);
    if threads <= 1 {
        let mut acc = 0.0;
        for c in 0..nchunks {
            let lo = c * chunk;
            let hi = (lo + chunk).min(n);
            update(lo, hi, &mut y[lo..hi]);
            acc += dot_chunk(&y[lo..hi], &w[lo..hi]);
        }
        return acc;
    }
    let mut partials = [0.0f64; par::MAX_PARTIALS];
    {
        let ys = par::ParSlice::new(y);
        let ps = par::ParSlice::new(&mut partials);
        par::for_each_chunk(nchunks, threads, &|c| {
            let lo = c * chunk;
            let hi = (lo + chunk).min(n);
            // SAFETY: chunks are disjoint and each claimed exactly once.
            unsafe {
                let yc = ys.slice_mut(lo..hi);
                update(lo, hi, yc);
                ps.set(c, dot_chunk(yc, &w[lo..hi]));
            }
        });
    }
    let mut acc = 0.0;
    for &p in &partials[..nchunks] {
        acc += p;
    }
    acc
}

/// One chunk of the polynomial-preconditioner seed and step kernels —
/// shared by the serial entry points below and by the SPMD solver's
/// owned-row phases, so both paths run bitwise-identical per-element
/// arithmetic.
#[inline]
pub fn poly_seed_chunk(scale: f64, inv_diag: &[f64], r: &[f64], z: &mut [f64], d: &mut [f64]) {
    for i in 0..r.len() {
        let zi = scale * inv_diag[i] * r[i];
        z[i] = zi;
        d[i] = zi;
    }
}

/// Seed of the polynomial preconditioner recurrence: in one pass,
/// `z ← scale·D⁻¹·r` and `d ← z` — the degree-0 iterate and its first
/// difference. Chunk deterministic like every elementwise kernel here
/// (disjoint chunk writes, per-element arithmetic independent of the
/// layout).
///
/// # Panics
/// Panics if the four slices differ in length.
pub fn fused_poly_seed(scale: f64, inv_diag: &[f64], r: &[f64], z: &mut [f64], d: &mut [f64]) {
    let n = r.len();
    assert_eq!(inv_diag.len(), n, "fused_poly_seed: diag length mismatch");
    assert_eq!(z.len(), n, "fused_poly_seed: z length mismatch");
    assert_eq!(d.len(), n, "fused_poly_seed: d length mismatch");
    let (chunk, nchunks) = par::reduction_layout(n);
    let threads = par::threads_for(n, tuning::PAR_MIN_ELEMS);
    if threads <= 1 {
        for c in 0..nchunks {
            let lo = c * chunk;
            let hi = (lo + chunk).min(n);
            poly_seed_chunk(
                scale,
                &inv_diag[lo..hi],
                &r[lo..hi],
                &mut z[lo..hi],
                &mut d[lo..hi],
            );
        }
        return;
    }
    let zs = par::ParSlice::new(z);
    let ds = par::ParSlice::new(d);
    par::for_each_chunk(nchunks, threads, &|c| {
        let lo = c * chunk;
        let hi = (lo + chunk).min(n);
        // SAFETY: chunks are disjoint and each claimed exactly once.
        unsafe {
            poly_seed_chunk(
                scale,
                &inv_diag[lo..hi],
                &r[lo..hi],
                zs.slice_mut(lo..hi),
                ds.slice_mut(lo..hi),
            );
        }
    });
}

/// One chunk of the fused polynomial step — see [`fused_poly_step`].
#[inline]
pub fn poly_step_chunk(
    a: f64,
    b: f64,
    inv_diag: &[f64],
    r: &[f64],
    kz: &[f64],
    d: &mut [f64],
    z: &mut [f64],
) {
    for i in 0..r.len() {
        let resid = inv_diag[i] * (r[i] - kz[i]);
        let di = a * d[i] + b * resid;
        d[i] = di;
        z[i] += di;
    }
}

/// One degree of the polynomial preconditioner recurrence, fused into a
/// single pass: with `kz = K·z` already computed,
///
/// ```text
/// d ← a·d + b·D⁻¹(r − kz),    z ← z + d.
/// ```
///
/// Both the Newton (Richardson: `a = 0`) and Chebyshev (three-term)
/// recurrences are instances — the polynomial preconditioner application
/// is exactly `k` SpMVs interleaved with `k` of these sweeps, no other
/// vector traffic (the `fused_spmv_xpby`-shaped kernel the degree-k chain
/// needs). Chunk deterministic; disjoint chunk writes, no reductions.
///
/// # Panics
/// Panics if the six slices differ in length.
pub fn fused_poly_step(
    a: f64,
    b: f64,
    inv_diag: &[f64],
    r: &[f64],
    kz: &[f64],
    d: &mut [f64],
    z: &mut [f64],
) {
    let n = r.len();
    assert_eq!(inv_diag.len(), n, "fused_poly_step: diag length mismatch");
    assert_eq!(kz.len(), n, "fused_poly_step: kz length mismatch");
    assert_eq!(d.len(), n, "fused_poly_step: d length mismatch");
    assert_eq!(z.len(), n, "fused_poly_step: z length mismatch");
    let (chunk, nchunks) = par::reduction_layout(n);
    let threads = par::threads_for(n, tuning::PAR_MIN_ELEMS);
    if threads <= 1 {
        for c in 0..nchunks {
            let lo = c * chunk;
            let hi = (lo + chunk).min(n);
            poly_step_chunk(
                a,
                b,
                &inv_diag[lo..hi],
                &r[lo..hi],
                &kz[lo..hi],
                &mut d[lo..hi],
                &mut z[lo..hi],
            );
        }
        return;
    }
    let ds = par::ParSlice::new(d);
    let zs = par::ParSlice::new(z);
    par::for_each_chunk(nchunks, threads, &|c| {
        let lo = c * chunk;
        let hi = (lo + chunk).min(n);
        // SAFETY: chunks are disjoint and each claimed exactly once.
        unsafe {
            poly_step_chunk(
                a,
                b,
                &inv_diag[lo..hi],
                &r[lo..hi],
                &kz[lo..hi],
                ds.slice_mut(lo..hi),
                zs.slice_mut(lo..hi),
            );
        }
    });
}

/// One chunk of the s-step Chebyshev basis combine — shared by
/// [`fused_cheb_basis`] and the SPMD solver's owned-row basis phase, so
/// both paths run bitwise-identical per-element arithmetic.
#[inline]
pub fn cheb_basis_chunk(
    a: f64,
    theta: f64,
    b: f64,
    t: &[f64],
    v: &[f64],
    w: &[f64],
    out: &mut [f64],
) {
    for i in 0..t.len() {
        out[i] = a * (t[i] - theta * v[i]) - b * w[i];
    }
}

/// One step of the s-step Chebyshev *basis* three-term recurrence, fused
/// into a single pass: with `t = M⁻¹K·v` already computed,
///
/// ```text
/// out ← a·(t − θ·v) − b·w.
/// ```
///
/// The three shapes the recurrence needs are all instances:
/// the first step `v₂ = (1/δ)(t − θ v₁)` is `(a, b) = (1/δ, 0)`, the
/// general step `vⱼ₊₁ = (2/δ)(t − θ vⱼ) − vⱼ₋₁` is `(a, b) = (2/δ, 1)`,
/// and the degenerate-interval scaled-monomial fallback `vⱼ₊₁ = t/θ` is
/// `(a, θ, b) = (1/θ, 0, 0)`. The same pass shape as [`fused_poly_step`]:
/// chunk deterministic, disjoint chunk writes, no reductions. With
/// `b == 0.0` the `w` operand is multiplied by an exact zero, so stale
/// values cannot leak through.
///
/// # Panics
/// Panics if the four slices differ in length.
pub fn fused_cheb_basis(
    a: f64,
    theta: f64,
    b: f64,
    t: &[f64],
    v: &[f64],
    w: &[f64],
    out: &mut [f64],
) {
    let n = t.len();
    assert_eq!(v.len(), n, "fused_cheb_basis: v length mismatch");
    assert_eq!(w.len(), n, "fused_cheb_basis: w length mismatch");
    assert_eq!(out.len(), n, "fused_cheb_basis: out length mismatch");
    let (chunk, nchunks) = par::reduction_layout(n);
    let threads = par::threads_for(n, tuning::PAR_MIN_ELEMS);
    if threads <= 1 {
        for c in 0..nchunks {
            let lo = c * chunk;
            let hi = (lo + chunk).min(n);
            cheb_basis_chunk(
                a,
                theta,
                b,
                &t[lo..hi],
                &v[lo..hi],
                &w[lo..hi],
                &mut out[lo..hi],
            );
        }
        return;
    }
    let os = par::ParSlice::new(out);
    par::for_each_chunk(nchunks, threads, &|c| {
        let lo = c * chunk;
        let hi = (lo + chunk).min(n);
        // SAFETY: chunks are disjoint and each claimed exactly once.
        unsafe {
            cheb_basis_chunk(
                a,
                theta,
                b,
                &t[lo..hi],
                &v[lo..hi],
                &w[lo..hi],
                os.slice_mut(lo..hi),
            );
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dot_matches_naive() {
        let x: Vec<f64> = (0..37).map(|i| i as f64 * 0.5 - 3.0).collect();
        let y: Vec<f64> = (0..37).map(|i| (i as f64).sin()).collect();
        let naive: f64 = x.iter().zip(&y).map(|(a, b)| a * b).sum();
        assert!((dot(&x, &y) - naive).abs() < 1e-12 * naive.abs().max(1.0));
    }

    #[test]
    fn dot_empty_is_zero() {
        assert_eq!(dot(&[], &[]), 0.0);
    }

    #[test]
    fn dot_handles_short_vectors() {
        assert_eq!(dot(&[2.0], &[3.0]), 6.0);
        assert_eq!(dot(&[1.0, 2.0, 3.0], &[4.0, 5.0, 6.0]), 32.0);
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn dot_length_mismatch_panics() {
        dot(&[1.0], &[1.0, 2.0]);
    }

    #[test]
    fn dot_crossing_chunk_boundaries_matches_naive() {
        let n = crate::par::MIN_REDUCTION_CHUNK * 3 + 17;
        let x: Vec<f64> = (0..n)
            .map(|i| ((i * 37 + 11) % 101) as f64 - 50.0)
            .collect();
        let y: Vec<f64> = (0..n).map(|i| ((i * 53 + 5) % 97) as f64 * 0.01).collect();
        let naive: f64 = x.iter().zip(&y).map(|(a, b)| a * b).sum();
        let d = dot(&x, &y);
        assert!(
            (d - naive).abs() < 1e-9 * naive.abs().max(1.0),
            "{d} vs {naive}"
        );
    }

    #[test]
    fn axpy_basic() {
        let x = [1.0, 2.0, 3.0];
        let mut y = [10.0, 20.0, 30.0];
        axpy(2.0, &x, &mut y);
        assert_eq!(y, [12.0, 24.0, 36.0]);
    }

    #[test]
    fn xpby_is_direction_update() {
        let r = [1.0, 1.0];
        let mut p = [4.0, 8.0];
        xpby(&r, 0.5, &mut p);
        assert_eq!(p, [3.0, 5.0]);
    }

    #[test]
    fn norms_agree_on_simple_vector() {
        let x = [3.0, -4.0];
        assert!((norm2(&x) - 5.0).abs() < 1e-15);
        assert_eq!(norm_inf(&x), 4.0);
    }

    #[test]
    fn norm2_resists_overflow() {
        let big = 1e200;
        let x = [big, big];
        assert!((norm2(&x) - big * std::f64::consts::SQRT_2).abs() / norm2(&x) < 1e-14);
    }

    #[test]
    fn norm2_zero_vector() {
        assert_eq!(norm2(&[0.0; 8]), 0.0);
        assert_eq!(norm2(&[]), 0.0);
    }

    #[test]
    fn max_abs_diff_matches_sub_norm() {
        let x = [1.0, -2.0, 5.0];
        let y = [0.5, 2.0, 5.5];
        let mut z = [0.0; 3];
        sub(&x, &y, &mut z);
        assert_eq!(max_abs_diff(&x, &y), norm_inf(&z));
        assert_eq!(max_abs_diff(&x, &y), 4.0);
    }

    #[test]
    fn scale_and_zero() {
        let mut x = [1.0, 2.0];
        scale(3.0, &mut x);
        assert_eq!(x, [3.0, 6.0]);
        zero(&mut x);
        assert_eq!(x, [0.0, 0.0]);
    }

    #[test]
    fn hadamard_multiplies_elementwise() {
        let x = [1.0, 2.0, 3.0];
        let y = [2.0, 0.5, -1.0];
        let mut z = [0.0; 3];
        hadamard(&x, &y, &mut z);
        assert_eq!(z, [2.0, 1.0, -3.0]);
    }

    /// Fused CG update == unfused kernel sequence, bitwise, on a vector
    /// crossing several chunk boundaries.
    #[test]
    fn fused_axpy_axpy_norm_matches_unfused_sequence() {
        let n = crate::par::MIN_REDUCTION_CHUNK * 2 + 39;
        let alpha = 0.731;
        let p: Vec<f64> = (0..n)
            .map(|i| ((i * 13 + 5) % 211) as f64 * 0.01 - 1.0)
            .collect();
        let kp: Vec<f64> = (0..n)
            .map(|i| ((i * 29 + 1) % 173) as f64 * 0.02 - 1.5)
            .collect();
        let u0: Vec<f64> = (0..n).map(|i| ((i * 7 + 2) % 97) as f64 * 0.1).collect();
        let r0: Vec<f64> = (0..n)
            .map(|i| ((i * 11 + 3) % 89) as f64 * 0.05 - 2.0)
            .collect();

        let mut u_ref = u0.clone();
        let mut r_ref = r0.clone();
        axpy(alpha, &p, &mut u_ref);
        let p_norm = norm_inf(&p);
        axpy(-alpha, &kp, &mut r_ref);
        let r_norm = norm_inf(&r_ref);

        let mut u = u0;
        let mut r = r0;
        let norms = fused_axpy_axpy_norm(alpha, &p, &kp, &mut u, &mut r);
        assert_eq!(
            u.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
            u_ref.iter().map(|v| v.to_bits()).collect::<Vec<_>>()
        );
        assert_eq!(
            r.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
            r_ref.iter().map(|v| v.to_bits()).collect::<Vec<_>>()
        );
        assert_eq!(norms.p_norm_inf.to_bits(), p_norm.to_bits());
        assert_eq!(norms.r_norm_inf.to_bits(), r_norm.to_bits());
        // And norm2 can be finished from the fused max without a fresh
        // ∞-norm pass.
        assert_eq!(
            norm2_with_max(&r, norms.r_norm_inf).to_bits(),
            norm2(&r).to_bits()
        );
    }

    #[test]
    fn fused_xpby_dot_matches_unfused_sequence() {
        let n = crate::par::MIN_REDUCTION_CHUNK + 77;
        let x: Vec<f64> = (0..n).map(|i| ((i * 17 + 5) % 151) as f64 * 0.01).collect();
        let w: Vec<f64> = (0..n)
            .map(|i| ((i * 23 + 9) % 131) as f64 * 0.02 - 1.0)
            .collect();
        let y0: Vec<f64> = (0..n)
            .map(|i| ((i * 5 + 1) % 61) as f64 * 0.1 - 3.0)
            .collect();
        for b in [0.42, -1.3] {
            let mut y_ref = y0.clone();
            xpby(&x, b, &mut y_ref);
            let d_ref = dot(&y_ref, &w);
            let mut y = y0.clone();
            let d = fused_xpby_dot(&x, b, &mut y, &w);
            assert_eq!(d.to_bits(), d_ref.to_bits(), "b = {b}");
            assert!(y
                .iter()
                .zip(&y_ref)
                .all(|(a, c)| a.to_bits() == c.to_bits()));
        }
    }

    #[test]
    fn fused_xpby_dot_zero_b_is_exact_copy() {
        // Stale NaN in y must not survive b = 0 (copy semantics, not 0·y).
        let x = [1.0, 2.0, 3.0];
        let w = [1.0, 1.0, 1.0];
        let mut y = [f64::NAN, f64::INFINITY, -0.0];
        let d = fused_xpby_dot(&x, 0.0, &mut y, &w);
        assert_eq!(y, x);
        assert_eq!(d, 6.0);
    }

    #[test]
    fn fused_kernels_handle_empty_and_tiny() {
        let mut e: [f64; 0] = [];
        let mut e2: [f64; 0] = [];
        let norms = fused_axpy_axpy_norm(2.0, &[], &[], &mut e, &mut e2);
        assert_eq!(norms, FusedUpdateNorms::default());
        assert_eq!(fused_xpby_dot(&[], 1.0, &mut e, &[]), 0.0);
        let mut u = [1.0];
        let mut r = [4.0];
        let norms = fused_axpy_axpy_norm(0.5, &[2.0], &[6.0], &mut u, &mut r);
        assert_eq!(u, [2.0]);
        assert_eq!(r, [1.0]);
        assert_eq!(norms.p_norm_inf, 2.0);
        assert_eq!(norms.r_norm_inf, 1.0);
    }

    /// The determinism contract, at unit level: serial result == parallel
    /// result, bitwise, for every configured thread count.
    #[test]
    fn reductions_are_thread_count_insensitive() {
        let _guard = crate::par::thread_sweep_lock();
        let n = crate::tuning::PAR_MIN_ELEMS + 4321;
        let x: Vec<f64> = (0..n)
            .map(|i| ((i * 31 + 7) % 1013) as f64 * 1e-3 - 0.5)
            .collect();
        let y: Vec<f64> = (0..n)
            .map(|i| ((i * 17 + 3) % 911) as f64 * 1e-3 - 0.4)
            .collect();
        let before = crate::par::max_threads();
        crate::par::set_max_threads(1);
        let d1 = dot(&x, &y);
        let n1 = norm2(&x);
        for t in [2usize, 4, 8] {
            crate::par::set_max_threads(t);
            assert_eq!(d1.to_bits(), dot(&x, &y).to_bits(), "dot at t = {t}");
            assert_eq!(n1.to_bits(), norm2(&x).to_bits(), "norm2 at t = {t}");
        }
        crate::par::set_max_threads(before);
    }

    /// The reduction scalars are the solver's non-finite detectors: one
    /// poisoned element must surface in the dot product.
    #[test]
    fn fused_reduction_scalars_detect_non_finite_elements() {
        let n = 64usize;
        let mut r: Vec<f64> = (0..n).map(|i| (i as f64).sin()).collect();
        let z: Vec<f64> = (0..n).map(|i| (i as f64).cos()).collect();
        assert!(dot(&z, &r).is_finite());
        r[n / 2] = f64::NAN;
        assert!(!dot(&z, &r).is_finite(), "NaN in r must poison (r, z)");
        r[n / 2] = f64::INFINITY;
        assert!(!dot(&z, &r).is_finite(), "Inf in r must poison (r, z)");

        // The ∞-norm caveat the docs state: a NaN behind a larger finite
        // element is swallowed by max, so FusedUpdateNorms::all_finite is
        // a weaker (Inf-only) detector than the dot scalars.
        let alpha = 0.5;
        let mut u = vec![0.0; 4];
        let mut rr = vec![1.0, f64::INFINITY, 3.0, 4.0];
        let norms = fused_axpy_axpy_norm(alpha, &[1.0; 4], &[1.0; 4], &mut u, &mut rr);
        assert!(!norms.all_finite(), "Inf residual element must surface");
    }

    #[test]
    fn fused_poly_seed_matches_elementwise() {
        let n = 533;
        let inv_diag: Vec<f64> = (0..n).map(|i| 1.0 / (2.0 + (i % 5) as f64)).collect();
        let r: Vec<f64> = (0..n).map(|i| (i as f64 * 0.3).sin()).collect();
        let mut z = vec![f64::NAN; n]; // overwritten, stale values must not leak
        let mut d = vec![f64::NAN; n];
        fused_poly_seed(0.25, &inv_diag, &r, &mut z, &mut d);
        for i in 0..n {
            let want = 0.25 * inv_diag[i] * r[i];
            assert_eq!(z[i].to_bits(), want.to_bits());
            assert_eq!(d[i].to_bits(), want.to_bits());
        }
    }

    #[test]
    fn fused_poly_step_matches_unfused_sweeps() {
        let n = 321;
        let inv_diag: Vec<f64> = (0..n).map(|i| 1.0 / (3.0 + (i % 3) as f64)).collect();
        let r: Vec<f64> = (0..n).map(|i| (i as f64 * 0.7).cos()).collect();
        let kz: Vec<f64> = (0..n).map(|i| (i % 11) as f64 * 0.1 - 0.5).collect();
        let d0: Vec<f64> = (0..n).map(|i| (i as f64 * 0.2).sin()).collect();
        let z0: Vec<f64> = (0..n).map(|i| 1.0 - (i % 4) as f64 * 0.3).collect();
        let (a, b) = (0.375, 1.25);
        let mut d = d0.clone();
        let mut z = z0.clone();
        fused_poly_step(a, b, &inv_diag, &r, &kz, &mut d, &mut z);
        for i in 0..n {
            let resid = inv_diag[i] * (r[i] - kz[i]);
            let want_d = a * d0[i] + b * resid;
            let want_z = z0[i] + want_d;
            assert_eq!(d[i].to_bits(), want_d.to_bits());
            assert_eq!(z[i].to_bits(), want_z.to_bits());
        }
        // Newton instance: a = 0 drops the previous difference entirely.
        let mut dn = vec![f64::NAN; n];
        let mut zn = z0.clone();
        // NaN·0 would poison; the kernel must still multiply (a·d), so use
        // finite stale data to check the a = 0 arithmetic stays exact.
        dn.copy_from_slice(&d0);
        fused_poly_step(0.0, b, &inv_diag, &r, &kz, &mut dn, &mut zn);
        for i in 0..n {
            let want_d = 0.0 * d0[i] + b * (inv_diag[i] * (r[i] - kz[i]));
            assert_eq!(dn[i].to_bits(), want_d.to_bits());
        }
    }

    #[test]
    fn fused_cheb_basis_matches_elementwise() {
        let n = 417;
        let t: Vec<f64> = (0..n).map(|i| (i as f64 * 0.4).sin()).collect();
        let v: Vec<f64> = (0..n).map(|i| (i % 7) as f64 * 0.2 - 0.6).collect();
        let w: Vec<f64> = (0..n).map(|i| (i as f64 * 0.9).cos()).collect();
        let (a, theta, b) = (2.0 / 0.45, 0.55, 1.0);
        let mut out = vec![f64::NAN; n]; // overwritten, stale values must not leak
        fused_cheb_basis(a, theta, b, &t, &v, &w, &mut out);
        for i in 0..n {
            let want = a * (t[i] - theta * v[i]) - b * w[i];
            assert_eq!(out[i].to_bits(), want.to_bits());
        }
        // First-step instance: b = 0 must be an exact zero multiply so a
        // finite-but-stale `w` contributes nothing.
        let mut first = vec![f64::NAN; n];
        fused_cheb_basis(1.0 / 0.45, theta, 0.0, &t, &v, &w, &mut first);
        for i in 0..n {
            let want = (1.0 / 0.45) * (t[i] - theta * v[i]) - 0.0 * w[i];
            assert_eq!(first[i].to_bits(), want.to_bits());
        }
    }
}
