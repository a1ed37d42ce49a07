//! Multicolor block SSOR — paper Algorithm 2.
//!
//! After the multicolor renumbering, the matrix has the block form (3.1):
//! every diagonal color block `D_c` is *diagonal*, so the SOR sweeps of
//! SSOR reduce to, per color, an off-diagonal block multiply followed by a
//! pointwise diagonal solve — long vector operations / embarrassingly
//! parallel loops. The per-color row loops here run on the `mspcg-sparse`
//! worker pool for large blocks: rows within one color
//! update independently (the multicolor guarantee), so the parallel sweep
//! is bitwise identical to the serial one for any thread count.
//!
//! ## The Conrad–Wallach auxiliary vector
//!
//! A textbook SSOR step touches every off-diagonal entry twice (once in the
//! forward sweep, once in the backward sweep). Conrad & Wallach (1979)
//! observed that the half-sums can be cached: the forward update of row `i`
//! (color `c`) needs `lower_i = Σ_{color(j)<c} a_ij x_j` (which must be
//! computed fresh, those x just changed) and `upper_i = Σ_{color(j)>c} a_ij
//! x_j` (unchanged since the previous backward pass — read it from the cache
//! `y`). Symmetrically the backward pass computes `upper` fresh and reads
//! `lower` from `y`. Every off-diagonal entry is then touched **once per
//! SSOR step**, which is the paper's claim that the m-step SSOR
//! preconditioner costs only m multicolor SOR sweeps.
//!
//! The m-step `msolve` additionally *fuses* the `w_0 = 0` initialization
//! into the first forward sweep: since every lower half-sum of step 1 reads
//! only rows already updated in that same pass and every upper half-sum is
//! structurally zero, the first sweep writes every element of `z` and of
//! the cache without reading either — no `fill(0)` passes over the full
//! vectors, and each color block is swept exactly once per step.
//!
//! ## Schedule details (paper Algorithm 2/3 loop bounds)
//!
//! With `ω = 1` the backward re-update of the *last* color is the identity
//! (the forward update already used final values for every lower color and
//! there are no upper colors), so the backward sweep runs from the
//! next-to-last color — the paper's `c = 5 down to 2` plus its trailing
//! color-1 solve with `α₀`. We run the backward sweep down to color 1
//! (0-indexed color 0) *inside* the loop with the step's own coefficient:
//! algebraically identical (the intermediate color-1 value is overwritten
//! unread by the next forward pass — with `ω = 1` the update has no
//! self-term — and the final step's backward color-1 solve uses `α₀`, which
//! is exactly the paper's trailing step (3)), and it keeps the `y` cache for
//! color 1 fresh, which the paper's OCR-garbled loop bounds leave implicit.
//! With `ω ≠ 1` the last color's backward update has a genuine `(1−ω)x`
//! self-term, so the full backward sweep is performed.

use crate::splitting::Splitting;
use mspcg_sparse::lanczos::power_spectral_radius;
use mspcg_sparse::par::{self, ParSlice};
use mspcg_sparse::{tuning, CsrMatrix, Partition, SparseError, SparseOp};
use std::sync::{Arc, Mutex};

/// Multicolor SSOR(ω) splitting of a color-blocked SPD matrix.
///
/// Constructed from a matrix already permuted into contiguous color blocks
/// (see `mspcg-coloring`); validates that each diagonal block is diagonal.
/// The matrix and partition are held by [`Arc`], so building many
/// splittings over one system (the ω sweep, the condition studies, the
/// Table 2/3 m sweeps) shares the data instead of deep-cloning it.
#[derive(Debug)]
pub struct MulticolorSsor {
    a: Arc<CsrMatrix>,
    colors: Arc<Partition>,
    omega: f64,
    inv_diag: Vec<f64>,
    /// Per row: CSR index of the first entry with column ≥ own-block start.
    lo_split: Vec<usize>,
    /// Per row: CSR index of the first entry with column ≥ own-block end.
    hi_split: Vec<usize>,
    /// Conrad–Wallach half-sum cache (valid only inside one msolve call;
    /// a mutex rather than a `RefCell` so the splitting stays `Sync` and
    /// can be shared with the worker pool and across solver threads).
    y: Mutex<Vec<f64>>,
}

impl MulticolorSsor {
    /// Build from a color-blocked matrix. `ω = 1` is the paper's choice
    /// (§5: for multicolor orderings with few colors, `ω = 1` is good).
    ///
    /// Accepts anything convertible into shared handles: pass `Arc`s to
    /// share one system across many splittings (no copy), or owned values
    /// to move them in. Borrowing callers can clone explicitly — the old
    /// implicit deep copy of both matrix and partition is gone.
    ///
    /// # Errors
    /// * [`SparseError::NotSquare`] / shape mismatch with the partition,
    /// * [`SparseError::InvalidPartition`] if an off-diagonal entry lies
    ///   inside its own color block (the coloring failed to decouple),
    /// * [`SparseError::ZeroDiagonal`] for missing/nonpositive diagonals,
    /// * [`SparseError::InvalidPartition`] for ω outside `(0, 2)`.
    pub fn new(
        a: impl Into<Arc<CsrMatrix>>,
        colors: impl Into<Arc<Partition>>,
        omega: f64,
    ) -> Result<Self, SparseError> {
        let a: Arc<CsrMatrix> = a.into();
        let colors: Arc<Partition> = colors.into();
        if a.rows() != a.cols() {
            return Err(SparseError::NotSquare {
                rows: a.rows(),
                cols: a.cols(),
            });
        }
        if colors.total_len() != a.rows() {
            return Err(SparseError::ShapeMismatch {
                left: (a.rows(), a.cols()),
                right: (colors.total_len(), 1),
            });
        }
        if !(omega > 0.0 && omega < 2.0) {
            return Err(SparseError::InvalidPartition {
                reason: format!("SSOR omega {omega} outside (0, 2)"),
            });
        }
        let n = a.rows();
        let mut inv_diag = vec![0.0; n];
        let mut lo_split = vec![0usize; n];
        let mut hi_split = vec![0usize; n];
        for c in 0..colors.num_blocks() {
            let blk = colors.range(c);
            for i in blk.clone() {
                let row_lo = a.row_ptr()[i];
                let row_hi = a.row_ptr()[i + 1];
                let cols = &a.col_idx()[row_lo..row_hi];
                let lo = row_lo + cols.partition_point(|&j| (j as usize) < blk.start);
                let hi = row_lo + cols.partition_point(|&j| (j as usize) < blk.end);
                // Entries in [lo, hi) lie inside the block: must be the
                // diagonal alone.
                match hi - lo {
                    0 => return Err(SparseError::ZeroDiagonal { row: i }),
                    1 => {
                        let j = a.col_idx()[lo] as usize;
                        if j != i {
                            return Err(SparseError::InvalidPartition {
                                reason: format!(
                                    "off-diagonal entry ({i}, {j}) inside color block {c}"
                                ),
                            });
                        }
                        let d = a.values()[lo];
                        if d <= 0.0 || !d.is_finite() {
                            return Err(SparseError::ZeroDiagonal { row: i });
                        }
                        inv_diag[i] = 1.0 / d;
                    }
                    _ => {
                        return Err(SparseError::InvalidPartition {
                            reason: format!("multiple in-block entries in row {i} (block {c})"),
                        });
                    }
                }
                lo_split[i] = lo;
                hi_split[i] = hi;
            }
        }
        Ok(MulticolorSsor {
            a,
            colors,
            omega,
            inv_diag,
            lo_split,
            hi_split,
            y: Mutex::new(vec![0.0; n]),
        })
    }

    /// Build from a color-blocked operator in **any** [`SparseOp`]
    /// format: the splitting's sweep structure (split CSR arrays walked
    /// row-by-row in color order) is materialized once via
    /// [`SparseOp::csr_copy`]. Because `csr_copy` reproduces the stored
    /// entries in ascending-column order, the resulting splitting is
    /// bitwise identical to one built from the original CSR matrix —
    /// solving through SELL-C-σ replays the CSR preconditioner exactly.
    ///
    /// # Errors
    /// Same classes as [`MulticolorSsor::new`].
    pub fn from_op<A: SparseOp>(
        a: &A,
        colors: impl Into<Arc<Partition>>,
        omega: f64,
    ) -> Result<Self, SparseError> {
        Self::new(Arc::new(a.csr_copy()), colors, omega)
    }

    /// The relaxation parameter.
    pub fn omega(&self) -> f64 {
        self.omega
    }

    /// The color partition.
    pub fn colors(&self) -> &Partition {
        &self.colors
    }

    /// Shared handle to the color partition.
    pub fn colors_arc(&self) -> &Arc<Partition> {
        &self.colors
    }

    /// The (color-blocked) matrix.
    pub fn matrix(&self) -> &CsrMatrix {
        &self.a
    }

    /// Shared handle to the matrix.
    pub fn matrix_arc(&self) -> &Arc<CsrMatrix> {
        &self.a
    }

    #[inline]
    fn lower_sum(&self, i: usize, x: &[f64]) -> f64 {
        let cols = self.a.col_idx();
        let vals = self.a.values();
        let mut s = 0.0;
        for k in self.a.row_ptr()[i]..self.lo_split[i] {
            s += vals[k] * x[cols[k] as usize];
        }
        s
    }

    #[inline]
    fn upper_sum(&self, i: usize, x: &[f64]) -> f64 {
        let cols = self.a.col_idx();
        let vals = self.a.values();
        let mut s = 0.0;
        for k in self.hi_split[i]..self.a.row_ptr()[i + 1] {
            s += vals[k] * x[cols[k] as usize];
        }
        s
    }

    /// Lower half-sum reading through a shared slice (parallel sweep path).
    ///
    /// # Safety
    /// Every column index in the lower half of row `i` must not be
    /// concurrently written (guaranteed by the multicolor property: those
    /// columns lie in colors already finalized this pass).
    #[inline]
    unsafe fn lower_sum_shared(&self, i: usize, x: &ParSlice<'_>) -> f64 {
        let cols = self.a.col_idx();
        let vals = self.a.values();
        let mut s = 0.0;
        for k in self.a.row_ptr()[i]..self.lo_split[i] {
            // SAFETY: forwarded contract.
            s += vals[k] * unsafe { x.get(cols[k] as usize) };
        }
        s
    }

    /// Upper half-sum through a shared slice; same contract as
    /// [`MulticolorSsor::lower_sum_shared`] for the upper half.
    #[inline]
    unsafe fn upper_sum_shared(&self, i: usize, x: &ParSlice<'_>) -> f64 {
        let cols = self.a.col_idx();
        let vals = self.a.values();
        let mut s = 0.0;
        for k in self.hi_split[i]..self.a.row_ptr()[i + 1] {
            // SAFETY: forwarded contract.
            s += vals[k] * unsafe { x.get(cols[k] as usize) };
        }
        s
    }

    #[inline]
    fn relax(&self, i: usize, rhs_minus_sums: f64, x: &mut [f64]) {
        let xi = x[i];
        x[i] = (1.0 - self.omega) * xi + self.omega * rhs_minus_sums * self.inv_diag[i];
    }

    /// Stored entries in color block `c` — the work measure deciding
    /// whether its row loop is worth running on the pool.
    #[inline]
    fn block_nnz(&self, blk: &std::ops::Range<usize>) -> usize {
        self.a.row_ptr()[blk.end] - self.a.row_ptr()[blk.start]
    }

    /// Forward sweep with half-sum cache: fresh lower sums, cached upper
    /// sums; caches the fresh lower sums for the backward pass.
    ///
    /// The last color has no upper colors, so its upper sum is structurally
    /// zero — read it as such rather than from the cache (with ω = 1 the
    /// backward pass skips the last color, leaving a stale *lower* sum in
    /// `y` there).
    ///
    /// Each color's row loop is data parallel: row `i` writes only `x[i]`
    /// and `y[i]` and reads `x` only at columns of *other* colors.
    fn forward_cached(&self, scale: f64, b: &[f64], x: &mut [f64], y: &mut [f64]) {
        let nb = self.colors.num_blocks();
        for c in 0..nb {
            let blk = self.colors.range(c);
            let last = c == nb - 1;
            let threads = par::threads_for(self.block_nnz(&blk), tuning::PAR_MIN_NNZ);
            if threads <= 1 {
                for i in blk {
                    let lower = self.lower_sum(i, x);
                    let upper = if last { 0.0 } else { y[i] };
                    self.relax(i, scale * b[i] - lower - upper, x);
                    y[i] = lower;
                }
            } else {
                let xs = ParSlice::new(x);
                let ys = ParSlice::new(y);
                let (chunk_nnz, nchunks) = par::spmv_layout(self.block_nnz(&blk));
                par::for_each_chunk(nchunks, threads, &|ci| {
                    let rows =
                        par::spmv_chunk_rows_range(self.a.row_ptr(), blk.clone(), chunk_nnz, ci);
                    for i in rows {
                        // SAFETY: row i is owned by this chunk (disjoint
                        // chunks of one color block); reads touch other
                        // colors only — the multicolor property.
                        unsafe {
                            let lower = self.lower_sum_shared(i, &xs);
                            let upper = if last { 0.0 } else { ys.get(i) };
                            let xi = xs.get(i);
                            xs.set(
                                i,
                                (1.0 - self.omega) * xi
                                    + self.omega
                                        * (scale * b[i] - lower - upper)
                                        * self.inv_diag[i],
                            );
                            ys.set(i, lower);
                        }
                    }
                });
            }
        }
    }

    /// First forward sweep of an msolve, fused with the `w₀ = 0` start:
    /// identical to [`MulticolorSsor::forward_cached`] on zero-filled
    /// `x`/`y`, but never *reads* either — the `(1−ω)x` self-term and the
    /// cached upper sums are structurally zero — so the zero-fill passes
    /// are skipped entirely.
    fn forward_first(&self, scale: f64, b: &[f64], x: &mut [f64], y: &mut [f64]) {
        let nb = self.colors.num_blocks();
        for c in 0..nb {
            let blk = self.colors.range(c);
            let threads = par::threads_for(self.block_nnz(&blk), tuning::PAR_MIN_NNZ);
            if threads <= 1 {
                for i in blk {
                    let lower = self.lower_sum(i, x);
                    x[i] = self.omega * (scale * b[i] - lower) * self.inv_diag[i];
                    y[i] = lower;
                }
            } else {
                let xs = ParSlice::new(x);
                let ys = ParSlice::new(y);
                let (chunk_nnz, nchunks) = par::spmv_layout(self.block_nnz(&blk));
                par::for_each_chunk(nchunks, threads, &|ci| {
                    let rows =
                        par::spmv_chunk_rows_range(self.a.row_ptr(), blk.clone(), chunk_nnz, ci);
                    for i in rows {
                        // SAFETY: as in forward_cached; additionally, the
                        // lower sums of color 0 are empty and of color c>0
                        // read only rows written in earlier (barriered)
                        // color phases of this same pass.
                        unsafe {
                            let lower = self.lower_sum_shared(i, &xs);
                            xs.set(i, self.omega * (scale * b[i] - lower) * self.inv_diag[i]);
                            ys.set(i, lower);
                        }
                    }
                });
            }
        }
    }

    /// Backward sweep with half-sum cache, from block `from` (inclusive)
    /// down to block 0; per-color row loops data parallel like the forward
    /// sweep.
    fn backward_cached(&self, scale: f64, b: &[f64], x: &mut [f64], y: &mut [f64], from: usize) {
        for c in (0..=from).rev() {
            let blk = self.colors.range(c);
            let threads = par::threads_for(self.block_nnz(&blk), tuning::PAR_MIN_NNZ);
            if threads <= 1 {
                for i in blk {
                    let upper = self.upper_sum(i, x);
                    let lower = y[i];
                    self.relax(i, scale * b[i] - lower - upper, x);
                    y[i] = upper;
                }
            } else {
                let xs = ParSlice::new(x);
                let ys = ParSlice::new(y);
                let (chunk_nnz, nchunks) = par::spmv_layout(self.block_nnz(&blk));
                par::for_each_chunk(nchunks, threads, &|ci| {
                    let rows =
                        par::spmv_chunk_rows_range(self.a.row_ptr(), blk.clone(), chunk_nnz, ci);
                    for i in rows {
                        // SAFETY: as in forward_cached, mirrored.
                        unsafe {
                            let upper = self.upper_sum_shared(i, &xs);
                            let lower = ys.get(i);
                            let xi = xs.get(i);
                            xs.set(
                                i,
                                (1.0 - self.omega) * xi
                                    + self.omega
                                        * (scale * b[i] - lower - upper)
                                        * self.inv_diag[i],
                            );
                            ys.set(i, upper);
                        }
                    }
                });
            }
        }
    }

    /// Which block the backward sweep starts from: with ω = 1 the last
    /// color's backward update is the identity and is skipped (paper's
    /// `c = 5 down to 2` optimization); otherwise it is required.
    fn backward_start(&self) -> usize {
        let last = self.colors.num_blocks() - 1;
        if self.omega == 1.0 {
            last.saturating_sub(1)
        } else {
            last
        }
    }

    /// Count of off-diagonal multiply–adds per SSOR step (the Conrad–Wallach
    /// cost: each off-diagonal entry exactly once).
    pub fn offdiag_ops_per_step(&self) -> usize {
        self.a.nnz() - self.a.rows()
    }
}

impl Splitting for MulticolorSsor {
    fn dim(&self) -> usize {
        self.a.rows()
    }

    /// One full SSOR step from an *arbitrary* starting vector: both
    /// half-sums are computed fresh (no cache assumption). Used by generic
    /// spectrum estimation; `msolve` below uses the cached fast path.
    fn step(&self, scale: f64, b: &[f64], x: &mut [f64]) {
        assert_eq!(b.len(), self.dim(), "mc-ssor step: b length mismatch");
        assert_eq!(x.len(), self.dim(), "mc-ssor step: x length mismatch");
        let nb = self.colors.num_blocks();
        // Forward: fresh lower AND upper sums.
        for c in 0..nb {
            for i in self.colors.range(c) {
                let s = self.lower_sum(i, x) + self.upper_sum(i, x);
                self.relax(i, scale * b[i] - s, x);
            }
        }
        // Backward: skip the last color when ω = 1 (identity update).
        let from = self.backward_start();
        for c in (0..=from).rev() {
            for i in self.colors.range(c) {
                let s = self.lower_sum(i, x) + self.upper_sum(i, x);
                self.relax(i, scale * b[i] - s, x);
            }
        }
    }

    /// Algorithm 2: m-step multicolor SSOR solve of `M r̂ = r` with the
    /// Conrad–Wallach cache carried across steps. Step `s` uses coefficient
    /// `α_{m−s}` on the right-hand side (the final backward color-1 update
    /// runs with `α₀`, which is the paper's trailing step (3)). The
    /// `r̂ = 0`, `y = 0` start is fused into the first forward sweep — no
    /// zero-fill passes, each color block swept once per step. This entry
    /// point borrows the internal mutex-guarded cache; concurrent callers
    /// sharing one splitting should use [`Splitting::msolve_with`].
    fn msolve(&self, alphas: &[f64], r: &[f64], z: &mut [f64]) {
        let mut y = self.y.lock().unwrap_or_else(|e| e.into_inner());
        self.msolve_with(alphas, r, z, y.as_mut_slice());
    }

    /// The Conrad–Wallach half-sum cache: one `f64` per unknown.
    fn msolve_scratch_len(&self) -> usize {
        self.dim()
    }

    /// Algorithm 2 with a **caller-owned** half-sum cache instead of the
    /// internal mutex-guarded one, so concurrent solves sharing one
    /// splitting (the batched multi-RHS workload) never serialize on a
    /// lock. Numerically identical to [`Splitting::msolve`]; the cache
    /// contents on entry are irrelevant (the `w₀ = 0` start is fused into
    /// the first forward sweep, which writes the cache before reading it).
    fn msolve_with(&self, alphas: &[f64], r: &[f64], z: &mut [f64], scratch: &mut [f64]) {
        assert!(!alphas.is_empty(), "msolve needs at least one coefficient");
        assert_eq!(r.len(), self.dim(), "mc-ssor msolve: r length mismatch");
        assert_eq!(z.len(), self.dim(), "mc-ssor msolve: z length mismatch");
        assert_eq!(
            scratch.len(),
            self.dim(),
            "mc-ssor msolve: scratch length mismatch"
        );
        let m = alphas.len();
        let y = scratch;
        let from = self.backward_start();
        self.forward_first(alphas[m - 1], r, z, y);
        self.backward_cached(alphas[m - 1], r, z, y, from);
        for s in 2..=m {
            let alpha = alphas[m - s];
            self.forward_cached(alpha, r, z, y);
            self.backward_cached(alpha, r, z, y, from);
        }
    }

    fn spectrum_interval(&self, iters: usize) -> Result<(f64, f64), SparseError> {
        // σ(G_SSOR) ⊆ [0, ρ] for SPD K and ω ∈ (0, 2) ⇒ σ(P⁻¹K) ⊆ [1−ρ, 1].
        let n = self.dim();
        let rho = power_spectral_radius(n, iters, 0x5EED, |x, y| {
            y.copy_from_slice(x);
            self.step(0.0, x, y);
        })?;
        let rho = rho.min(0.999_999);
        Ok(((1.0 - rho).max(1e-12), 1.0))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::splitting::NaturalSsorSplitting;
    use mspcg_coloring::Coloring;
    use mspcg_sparse::CooMatrix;

    /// Red/black 1-D Laplacian, already permuted into two color blocks.
    fn rb_laplacian(n: usize) -> (CsrMatrix, Partition) {
        let mut a = CooMatrix::new(n, n);
        for i in 0..n {
            a.push(i, i, 2.0).unwrap();
            if i + 1 < n {
                a.push_sym(i, i + 1, -1.0).unwrap();
            }
        }
        let a = a.to_csr();
        let labels: Vec<usize> = (0..n).map(|i| i % 2).collect();
        let coloring = Coloring::from_labels(labels, 2).unwrap();
        let ord = coloring.ordering();
        let b = ord.permute_matrix(&a).unwrap();
        (b, ord.partition)
    }

    #[test]
    fn new_rejects_coupling_inside_block() {
        // Natural-ordered Laplacian with a single block: rows couple inside.
        let mut c = CooMatrix::new(4, 4);
        for i in 0..4 {
            c.push(i, i, 2.0).unwrap();
            if i + 1 < 4 {
                c.push_sym(i, i + 1, -1.0).unwrap();
            }
        }
        let a = c.to_csr();
        let p = Partition::single(4);
        assert!(matches!(
            MulticolorSsor::new(a, p, 1.0),
            Err(SparseError::InvalidPartition { .. })
        ));
    }

    #[test]
    fn new_rejects_missing_diagonal() {
        let mut c = CooMatrix::new(2, 2);
        c.push_sym(0, 1, -1.0).unwrap();
        c.push(0, 0, 2.0).unwrap(); // row 1 has no diagonal
        let a = c.to_csr();
        let p = Partition::from_sizes(&[1, 1]).unwrap();
        assert!(matches!(
            MulticolorSsor::new(a, p, 1.0),
            Err(SparseError::ZeroDiagonal { row: 1 })
        ));
    }

    #[test]
    fn shared_handles_are_not_cloned() {
        let (a, p) = rb_laplacian(8);
        let a = Arc::new(a);
        let p = Arc::new(p);
        let mc = MulticolorSsor::new(Arc::clone(&a), Arc::clone(&p), 1.0).unwrap();
        assert!(Arc::ptr_eq(mc.matrix_arc(), &a));
        assert!(Arc::ptr_eq(mc.colors_arc(), &p));
        // Two splittings over the same system share the same storage.
        let mc2 = MulticolorSsor::new(Arc::clone(&a), Arc::clone(&p), 1.5).unwrap();
        assert!(Arc::ptr_eq(mc.matrix_arc(), mc2.matrix_arc()));
    }

    #[test]
    fn step_matches_natural_ssor_on_same_matrix() {
        // On the *permuted* matrix, natural-order SSOR and multicolor SSOR
        // are the same iteration (colors are contiguous ascending blocks) —
        // up to the skipped idempotent last-color backward update at ω = 1.
        let (a, p) = rb_laplacian(8);
        let mc = MulticolorSsor::new(a.clone(), p, 1.0).unwrap();
        let nat = NaturalSsorSplitting::new(&a, 1.0).unwrap();
        let b: Vec<f64> = (0..8).map(|i| (i as f64).sin()).collect();
        let mut x1 = vec![0.25; 8];
        let mut x2 = x1.clone();
        mc.step(1.0, &b, &mut x1);
        nat.step(1.0, &b, &mut x2);
        for (u, v) in x1.iter().zip(&x2) {
            assert!((u - v).abs() < 1e-13, "{u} vs {v}");
        }
    }

    #[test]
    fn step_matches_natural_ssor_with_omega() {
        let (a, p) = rb_laplacian(9);
        let mc = MulticolorSsor::new(a.clone(), p, 1.4).unwrap();
        let nat = NaturalSsorSplitting::new(&a, 1.4).unwrap();
        let b: Vec<f64> = (0..9).map(|i| 1.0 + i as f64).collect();
        let mut x1 = vec![0.0; 9];
        let mut x2 = vec![0.0; 9];
        for _ in 0..3 {
            mc.step(1.0, &b, &mut x1);
            nat.step(1.0, &b, &mut x2);
        }
        for (u, v) in x1.iter().zip(&x2) {
            assert!((u - v).abs() < 1e-12, "{u} vs {v}");
        }
    }

    #[test]
    fn cached_msolve_equals_generic_msolve() {
        // Algorithm 2's auxiliary-vector path must agree with the naive
        // "m independent full steps" Horner evaluation.
        let (a, p) = rb_laplacian(10);
        for omega in [1.0, 0.8, 1.5] {
            let mc = MulticolorSsor::new(a.clone(), p.clone(), omega).unwrap();
            let r: Vec<f64> = (0..10).map(|i| ((i * 7) % 5) as f64 - 2.0).collect();
            for alphas in [vec![1.0], vec![1.0, 1.0, 1.0], vec![0.5, 2.0, -0.25, 1.25]] {
                let mut z_fast = vec![0.0; 10];
                mc.msolve(&alphas, &r, &mut z_fast);
                // Generic path: default trait implementation via step().
                let mut z_ref = vec![0.0; 10];
                let m = alphas.len();
                for s in 1..=m {
                    mc.step(alphas[m - s], &r, &mut z_ref);
                }
                for (u, v) in z_fast.iter().zip(&z_ref) {
                    assert!(
                        (u - v).abs() < 1e-12,
                        "omega {omega}, alphas {alphas:?}: {u} vs {v}"
                    );
                }
            }
        }
    }

    #[test]
    fn msolve_ignores_stale_output_buffer() {
        // The fused first sweep must not read z or the cache: poisoning
        // both beforehand may not change the result.
        let (a, p) = rb_laplacian(10);
        let mc = MulticolorSsor::new(a, p, 1.3).unwrap();
        let r: Vec<f64> = (0..10).map(|i| (i as f64 * 0.9).cos()).collect();
        let alphas = [1.0, -0.5, 2.0];
        let mut z1 = vec![0.0; 10];
        mc.msolve(&alphas, &r, &mut z1);
        let mut z2 = vec![f64::MAX; 10];
        mc.y.lock().unwrap().fill(f64::NAN);
        mc.msolve(&alphas, &r, &mut z2);
        assert_eq!(z1, z2);
    }

    #[test]
    fn msolve_is_linear_in_r() {
        let (a, p) = rb_laplacian(8);
        let mc = MulticolorSsor::new(a, p, 1.0).unwrap();
        let alphas = [1.0, 2.0, 0.5];
        let r1: Vec<f64> = (0..8).map(|i| (i as f64).cos()).collect();
        let r2: Vec<f64> = (0..8).map(|i| (i as f64 * 0.3).sin()).collect();
        let rsum: Vec<f64> = r1.iter().zip(&r2).map(|(a, b)| a + b).collect();
        let mut z1 = vec![0.0; 8];
        let mut z2 = vec![0.0; 8];
        let mut zs = vec![0.0; 8];
        mc.msolve(&alphas, &r1, &mut z1);
        mc.msolve(&alphas, &r2, &mut z2);
        mc.msolve(&alphas, &rsum, &mut zs);
        for i in 0..8 {
            assert!((zs[i] - z1[i] - z2[i]).abs() < 1e-12);
        }
    }

    #[test]
    fn preconditioner_matrix_is_symmetric() {
        // M⁻¹ = p(G) P⁻¹ must be symmetric: check e_iᵀ M⁻¹ e_j == e_jᵀ M⁻¹ e_i.
        let (a, p) = rb_laplacian(6);
        let mc = MulticolorSsor::new(a, p, 1.0).unwrap();
        let alphas = [1.0, 3.0, -0.5];
        let n = 6;
        let mut minv = vec![vec![0.0; n]; n];
        for j in 0..n {
            let mut e = vec![0.0; n];
            e[j] = 1.0;
            let mut z = vec![0.0; n];
            mc.msolve(&alphas, &e, &mut z);
            for i in 0..n {
                minv[i][j] = z[i];
            }
        }
        for i in 0..n {
            for j in 0..n {
                assert!(
                    (minv[i][j] - minv[j][i]).abs() < 1e-12,
                    "asymmetry at ({i},{j})"
                );
            }
        }
    }

    #[test]
    fn m_steps_reduce_stationary_error() {
        let (a, p) = rb_laplacian(12);
        let mc = MulticolorSsor::new(a.clone(), p, 1.0).unwrap();
        let x_true: Vec<f64> = (0..12).map(|i| (i as f64 * 0.4).cos()).collect();
        let r = a.mul_vec(&x_true);
        let err = |m: usize| -> f64 {
            let mut z = vec![0.0; 12];
            mc.msolve(&vec![1.0; m], &r, &mut z);
            z.iter()
                .zip(&x_true)
                .map(|(u, v)| (u - v).abs())
                .fold(0.0, f64::max)
        };
        let e1 = err(1);
        let e3 = err(3);
        let e6 = err(6);
        assert!(e3 < e1 && e6 < e3, "{e1} {e3} {e6}");
    }

    #[test]
    fn spectrum_interval_upper_is_one() {
        let (a, p) = rb_laplacian(16);
        let mc = MulticolorSsor::new(a, p, 1.0).unwrap();
        let (lo, hi) = mc.spectrum_interval(80).unwrap();
        assert_eq!(hi, 1.0);
        assert!(lo > 0.0 && lo < 1.0);
    }

    #[test]
    fn offdiag_ops_count() {
        let (a, p) = rb_laplacian(8);
        let nnz = a.nnz();
        let mc = MulticolorSsor::new(a, p, 1.0).unwrap();
        assert_eq!(mc.offdiag_ops_per_step(), nnz - 8);
    }

    /// Parallel sweeps must agree bitwise with the serial path across
    /// thread counts — the SSOR leg of the determinism contract. The
    /// problem is sized past the parallel threshold.
    #[test]
    fn msolve_is_thread_count_insensitive() {
        let (a, p) = rb_laplacian(40_000);
        let mc = MulticolorSsor::new(a, p, 1.0).unwrap();
        let r: Vec<f64> = (0..40_000)
            .map(|i| ((i * 29 + 13) % 89) as f64 * 0.02 - 0.9)
            .collect();
        let alphas = [1.0, 0.75, 1.25];
        let before = par::max_threads();
        par::set_max_threads(1);
        let mut z1 = vec![0.0; 40_000];
        mc.msolve(&alphas, &r, &mut z1);
        for t in [2usize, 4, 8] {
            par::set_max_threads(t);
            let mut zt = vec![0.0; 40_000];
            mc.msolve(&alphas, &r, &mut zt);
            assert!(
                z1.iter().zip(&zt).all(|(u, v)| u.to_bits() == v.to_bits()),
                "msolve differs at t = {t}"
            );
        }
        par::set_max_threads(before);
    }
}
