//! The operator abstraction the solver stack is generic over.
//!
//! Adams' m-step PCG spends essentially all of its time in two places: the
//! sparse matrix–vector product `K·p` and the multicolor splitting sweeps.
//! The paper's machine analysis (§3–4) assumes those kernels vectorize and
//! parallelize *regardless of the storage layout* — the CYBER runs them by
//! diagonals, the Finite Element Machine by rows. [`SparseOp`] is that
//! assumption as a trait: any format that can
//!
//! 1. report its shape and stored-entry count,
//! 2. run a **serial SpMV over a row range** in ascending-column order, and
//! 3. describe a **work-weighted chunk layout** for the parallel driver
//!
//! plugs into `pcg_solve_into`, `pcg_solve_multi`, the SPMD
//! `ParallelMStepPcg` and the preconditioner constructors without touching
//! any of them. [`crate::csr::CsrMatrix`], [`crate::dense::DenseMatrix`]
//! and [`crate::sellcs::SellCsMatrix`] implement it; future formats
//! (blocked CSR, NUMA-partitioned) drop in the same way. The diagonal
//! storage [`crate::dia::DiaMatrix`] deliberately does not: it serves the
//! CYBER simulator's diagonal-wise product and is 2–3× slower than CSR
//! as a solver operator.
//!
//! ## Determinism contract
//!
//! [`SparseOp::mul_vec_range_into`] / [`SparseOp::mul_vec_axpy_range`]
//! must accumulate each row into a single scalar in **ascending column
//! order** — the CSR row loop's order. Because every parallel entry point
//! computes each row independently of the chunk layout, two formats that
//! store the same matrix then produce **bitwise-identical** products, for
//! any thread count, and whole solver runs replay identically across
//! formats (`tests/par_determinism.rs` asserts this end to end).
//!
//! ## Scheduling hook
//!
//! The provided [`SparseOp::mul_vec_into`] / [`SparseOp::mul_vec_axpy`]
//! drivers reuse the nnz-weighted chunk machinery of [`crate::par`]: the
//! layout comes from [`par::spmv_layout`]`(self.nnz())` and
//! [`SparseOp::chunk_rows`] maps chunk indices to row ranges. The default
//! `chunk_rows` assumes uniform work per row (exact for dense storage);
//! formats with a row-length prefix sum (CSR) or slice table (SELL-C-σ)
//! override it — or override the whole driver — so dense-ish row runs
//! cannot serialize the pool.

use crate::csr::CsrMatrix;
use crate::par::{self, ParSlice};
use crate::sellcs::SellCsMatrix;
use crate::tuning::{self, MatrixFormat};
use std::ops::Range;

/// A sparse (or dense) linear operator with deterministic row-parallel
/// SpMV. See the [module docs](self) for the contract.
pub trait SparseOp: Sync {
    /// Number of rows.
    fn rows(&self) -> usize;

    /// Number of columns.
    fn cols(&self) -> usize;

    /// Stored scalars — the work measure the adaptive thresholds and the
    /// nnz-weighted schedules consume. Formats with structural padding
    /// (dense) count the padded storage they actually stream.
    fn nnz(&self) -> usize;

    /// `(rows, cols)`.
    fn dims(&self) -> (usize, usize) {
        (self.rows(), self.cols())
    }

    /// Serial SpMV over a row range: `y[k] ← (A·x)[rows.start + k]`, each
    /// row accumulated into one scalar in ascending column order (the
    /// cross-format determinism contract).
    ///
    /// # Panics
    /// Implementations panic if `y.len() != rows.len()`, the range is out
    /// of bounds, or `x.len() != cols()`.
    fn mul_vec_range_into(&self, x: &[f64], y: &mut [f64], rows: Range<usize>);

    /// Serial fused SpMV-accumulate over a row range:
    /// `y[k] += a·(A·x)[rows.start + k]`, same ordering contract as
    /// [`SparseOp::mul_vec_range_into`].
    ///
    /// # Panics
    /// Same conditions as [`SparseOp::mul_vec_range_into`].
    fn mul_vec_axpy_range(&self, a: f64, x: &[f64], y: &mut [f64], rows: Range<usize>);

    /// Visit the stored entries of row `i` as `(col, value)` pairs in
    /// ascending column order. This is the **structure hook** for
    /// format-generic consumers that need entries rather than products —
    /// splitting construction, diagonal extraction, format conversion —
    /// not a hot-loop API. Formats whose storage cannot distinguish a
    /// stored zero from padding (dense) skip zero values.
    fn visit_row(&self, i: usize, visit: &mut dyn FnMut(usize, f64));

    /// Row range owned by chunk `c` of the nnz-weighted parallel schedule,
    /// where `chunk_nnz` comes from [`par::spmv_layout`]`(self.nnz())`.
    /// Chunks must be contiguous, disjoint, ascending and exhaustive over
    /// `0..rows()`, and must depend only on the matrix structure (never
    /// the thread count). The default assumes uniform work per row.
    fn chunk_rows(&self, chunk_nnz: usize, c: usize) -> Range<usize> {
        let rows = self.rows();
        let (_, nchunks) = par::spmv_layout(self.nnz());
        debug_assert!(chunk_nnz > 0 && nchunks > 0);
        let per = rows.div_ceil(nchunks.max(1)).max(1);
        (c * per).min(rows)..((c + 1) * per).min(rows)
    }

    /// `y ← A·x`: the adaptive serial/parallel entry point. The provided
    /// driver runs serially below [`tuning::PAR_MIN_NNZ`] stored entries
    /// and otherwise distributes [`SparseOp::chunk_rows`] chunks over the
    /// worker pool, writing disjoint row ranges — bitwise identical to the
    /// serial path by the row-independence of the range kernel.
    ///
    /// # Panics
    /// Panics if `x.len() != cols()` or `y.len() != rows()`.
    fn mul_vec_into(&self, x: &[f64], y: &mut [f64]) {
        assert_eq!(x.len(), self.cols(), "mul_vec: x length mismatch");
        assert_eq!(y.len(), self.rows(), "mul_vec: y length mismatch");
        let threads = par::threads_for(self.nnz(), tuning::PAR_MIN_NNZ);
        if threads <= 1 {
            self.mul_vec_range_into(x, y, 0..self.rows());
            return;
        }
        let (chunk_nnz, nchunks) = par::spmv_layout(self.nnz());
        let ys = ParSlice::new(y);
        par::for_each_chunk(nchunks, threads, &|c| {
            let rows = self.chunk_rows(chunk_nnz, c);
            // SAFETY: chunk row ranges are disjoint and each claimed once.
            let out = unsafe { ys.slice_mut(rows.clone()) };
            self.mul_vec_range_into(x, out, rows);
        });
    }

    /// `y ← y + a·(A·x)`: fused accumulate twin of
    /// [`SparseOp::mul_vec_into`], same driver and determinism contract.
    ///
    /// # Panics
    /// Panics if `x.len() != cols()` or `y.len() != rows()`.
    fn mul_vec_axpy(&self, a: f64, x: &[f64], y: &mut [f64]) {
        assert_eq!(x.len(), self.cols(), "mul_vec_axpy: x length mismatch");
        assert_eq!(y.len(), self.rows(), "mul_vec_axpy: y length mismatch");
        let threads = par::threads_for(self.nnz(), tuning::PAR_MIN_NNZ);
        if threads <= 1 {
            self.mul_vec_axpy_range(a, x, y, 0..self.rows());
            return;
        }
        let (chunk_nnz, nchunks) = par::spmv_layout(self.nnz());
        let ys = ParSlice::new(y);
        par::for_each_chunk(nchunks, threads, &|c| {
            let rows = self.chunk_rows(chunk_nnz, c);
            // SAFETY: chunk row ranges are disjoint and each claimed once.
            let out = unsafe { ys.slice_mut(rows.clone()) };
            self.mul_vec_axpy_range(a, x, out, rows);
        });
    }

    /// Allocating `A·x`.
    ///
    /// # Panics
    /// Panics if `x.len() != cols()`.
    fn mul_vec(&self, x: &[f64]) -> Vec<f64> {
        let mut y = vec![0.0; self.rows()];
        self.mul_vec_into(x, &mut y);
        y
    }

    /// Write the main diagonal into `out` (`0.0` where unstored) — the
    /// hook Jacobi-type splittings build from.
    ///
    /// # Panics
    /// Panics if `out.len() != rows()`.
    fn diag_into(&self, out: &mut [f64]) {
        assert_eq!(out.len(), self.rows(), "diag_into: length mismatch");
        for (i, o) in out.iter_mut().enumerate() {
            let mut d = 0.0;
            self.visit_row(i, &mut |j, v| {
                if j == i {
                    d = v;
                }
            });
            *o = d;
        }
    }

    /// Materialize a CSR copy of the operator, row by row through
    /// [`SparseOp::visit_row`] — the bridge format-generic constructors
    /// (multicolor SSOR, the SPMD solver's sweep tables) use. Entries
    /// arrive in ascending column order, so the copy reproduces the exact
    /// stored values and ordering the SpMV kernels stream.
    fn csr_copy(&self) -> CsrMatrix {
        let rows = self.rows();
        let mut row_ptr = vec![0usize; rows + 1];
        let mut col_idx: Vec<u32> = Vec::new();
        let mut values: Vec<f64> = Vec::new();
        for i in 0..rows {
            self.visit_row(i, &mut |j, v| {
                col_idx.push(j as u32);
                values.push(v);
            });
            row_ptr[i + 1] = col_idx.len();
        }
        CsrMatrix::from_raw_parts(rows, self.cols(), row_ptr, col_idx, values)
            .expect("visit_row produced an invalid row structure")
    }
}

/// Forward every method — including the parallel drivers and scheduling
/// hooks a format may have specialized — through a pointer-like wrapper,
/// so `&A` and `Arc<A>` are operators wherever `A` is (the solver stack
/// holds systems behind `Arc`).
macro_rules! deref_sparse_op {
    ([$($g:tt)*] $ty:ty) => {
        impl<$($g)*> SparseOp for $ty {
            fn rows(&self) -> usize {
                (**self).rows()
            }
            fn cols(&self) -> usize {
                (**self).cols()
            }
            fn nnz(&self) -> usize {
                (**self).nnz()
            }
            fn dims(&self) -> (usize, usize) {
                (**self).dims()
            }
            fn mul_vec_range_into(&self, x: &[f64], y: &mut [f64], rows: Range<usize>) {
                (**self).mul_vec_range_into(x, y, rows)
            }
            fn mul_vec_axpy_range(&self, a: f64, x: &[f64], y: &mut [f64], rows: Range<usize>) {
                (**self).mul_vec_axpy_range(a, x, y, rows)
            }
            fn visit_row(&self, i: usize, visit: &mut dyn FnMut(usize, f64)) {
                (**self).visit_row(i, visit)
            }
            fn chunk_rows(&self, chunk_nnz: usize, c: usize) -> Range<usize> {
                (**self).chunk_rows(chunk_nnz, c)
            }
            fn mul_vec_into(&self, x: &[f64], y: &mut [f64]) {
                (**self).mul_vec_into(x, y)
            }
            fn mul_vec_axpy(&self, a: f64, x: &[f64], y: &mut [f64]) {
                (**self).mul_vec_axpy(a, x, y)
            }
            fn mul_vec(&self, x: &[f64]) -> Vec<f64> {
                (**self).mul_vec(x)
            }
            fn diag_into(&self, out: &mut [f64]) {
                (**self).diag_into(out)
            }
            fn csr_copy(&self) -> CsrMatrix {
                (**self).csr_copy()
            }
        }
    };
}

deref_sparse_op!(['a, T: SparseOp + ?Sized] &'a T);
deref_sparse_op!([T: SparseOp + Send + Sync + ?Sized] std::sync::Arc<T>);

impl SparseOp for CsrMatrix {
    fn rows(&self) -> usize {
        CsrMatrix::rows(self)
    }

    fn cols(&self) -> usize {
        CsrMatrix::cols(self)
    }

    fn nnz(&self) -> usize {
        CsrMatrix::nnz(self)
    }

    fn mul_vec_range_into(&self, x: &[f64], y: &mut [f64], rows: Range<usize>) {
        CsrMatrix::mul_vec_range_into(self, x, y, rows);
    }

    fn mul_vec_axpy_range(&self, a: f64, x: &[f64], y: &mut [f64], rows: Range<usize>) {
        CsrMatrix::mul_vec_axpy_range(self, a, x, y, rows);
    }

    fn visit_row(&self, i: usize, visit: &mut dyn FnMut(usize, f64)) {
        for (j, v) in self.row_entries(i) {
            visit(j, v);
        }
    }

    /// `row_ptr` prefix-sum bucketing ([`par::spmv_chunk_rows`]).
    fn chunk_rows(&self, chunk_nnz: usize, c: usize) -> Range<usize> {
        par::spmv_chunk_rows(self.row_ptr(), chunk_nnz, c)
    }

    fn mul_vec_into(&self, x: &[f64], y: &mut [f64]) {
        CsrMatrix::mul_vec_into(self, x, y);
    }

    fn mul_vec_axpy(&self, a: f64, x: &[f64], y: &mut [f64]) {
        CsrMatrix::mul_vec_axpy(self, a, x, y);
    }

    fn mul_vec(&self, x: &[f64]) -> Vec<f64> {
        CsrMatrix::mul_vec(self, x)
    }

    fn csr_copy(&self) -> CsrMatrix {
        self.clone()
    }
}

impl SparseOp for crate::dense::DenseMatrix {
    fn rows(&self) -> usize {
        crate::dense::DenseMatrix::rows(self)
    }

    fn cols(&self) -> usize {
        crate::dense::DenseMatrix::cols(self)
    }

    fn nnz(&self) -> usize {
        crate::dense::DenseMatrix::rows(self) * self.cols()
    }

    fn mul_vec_range_into(&self, x: &[f64], y: &mut [f64], rows: Range<usize>) {
        assert_eq!(x.len(), self.cols(), "dense range mul: x length mismatch");
        assert!(
            rows.end <= crate::dense::DenseMatrix::rows(self),
            "dense range mul: rows out of bounds"
        );
        assert_eq!(y.len(), rows.len(), "dense range mul: y length mismatch");
        for (k, i) in rows.enumerate() {
            let row = self.row(i);
            let mut acc = 0.0;
            for (j, &v) in row.iter().enumerate() {
                acc += v * x[j];
            }
            y[k] = acc;
        }
    }

    fn mul_vec_axpy_range(&self, a: f64, x: &[f64], y: &mut [f64], rows: Range<usize>) {
        assert_eq!(x.len(), self.cols(), "dense range axpy: x length mismatch");
        assert!(
            rows.end <= crate::dense::DenseMatrix::rows(self),
            "dense range axpy: rows out of bounds"
        );
        assert_eq!(y.len(), rows.len(), "dense range axpy: y length mismatch");
        for (k, i) in rows.enumerate() {
            let row = self.row(i);
            let mut acc = 0.0;
            for (j, &v) in row.iter().enumerate() {
                acc += v * x[j];
            }
            y[k] += a * acc;
        }
    }

    /// Skips exact zeros, so the CSR copy of a mostly-zero dense matrix is
    /// genuinely sparse.
    fn visit_row(&self, i: usize, visit: &mut dyn FnMut(usize, f64)) {
        for (j, &v) in self.row(i).iter().enumerate() {
            if v != 0.0 {
                visit(j, v);
            }
        }
    }
}

/// Row-shape irregularity at which [`AutoOp`] prefers SELL-C-σ: the
/// longest row carries at least this many times the mean row length.
pub const AUTO_WIDE_ROW_RATIO: usize = 4;

/// Padding budget for the automatic choice: a SELL-C-σ conversion whose
/// padded storage exceeds the stored entries by more than this fraction is
/// discarded in favor of CSR (the σ-sort failed to homogenize the slices,
/// so the padding would cost more than the layout wins).
pub const AUTO_MAX_PADDING: f64 = 0.5;

/// An operator whose storage format is chosen at construction: CSR for
/// regular row shapes, SELL-C-σ for wide/irregular rows. Consumers stay
/// generic over [`SparseOp`]; `AutoOp` is the convenience dispatcher for
/// callers that want the library to decide (callers that want one format
/// construct [`CsrMatrix`] or [`SellCsMatrix`] directly).
#[derive(Debug, Clone)]
pub enum AutoOp {
    /// Compressed sparse row.
    Csr(CsrMatrix),
    /// Sliced ELL with sorting.
    SellCs(SellCsMatrix),
}

impl AutoOp {
    /// Choose a format for `a`: SELL-C-σ is selected when the longest row
    /// is at least [`AUTO_WIDE_ROW_RATIO`] × the mean row length (the
    /// wide-row shapes whose chunk imbalance SELL-C-σ exists to fix)
    /// **and** the converted padding overhead stays within
    /// [`AUTO_MAX_PADDING`]; CSR otherwise.
    ///
    /// The SELL-C-σ conversion takes its `(C, σ)` from
    /// [`crate::sellcs::autotune_params`], which scans the row-length
    /// histogram instead of assuming the fixed defaults: uniform shapes
    /// get the widest slices with no sorting, heavy-tailed shapes whatever
    /// sliced layout measures the least padding.
    pub fn from_csr(a: CsrMatrix) -> AutoOp {
        let rows = CsrMatrix::rows(&a);
        if rows == 0 || CsrMatrix::nnz(&a) == 0 {
            return AutoOp::Csr(a);
        }
        let mean = CsrMatrix::nnz(&a).div_ceil(rows);
        if a.max_row_nnz() >= AUTO_WIDE_ROW_RATIO * mean.max(1) {
            let sell = SellCsMatrix::from_csr_autotuned(&a);
            if sell.padding_ratio() <= AUTO_MAX_PADDING {
                return AutoOp::SellCs(sell);
            }
        }
        AutoOp::Csr(a)
    }

    /// Which format was chosen.
    pub fn format(&self) -> MatrixFormat {
        match self {
            AutoOp::Csr(_) => MatrixFormat::Csr,
            AutoOp::SellCs(_) => MatrixFormat::SellCs,
        }
    }
}

macro_rules! auto_dispatch {
    ($self:ident, $m:ident ( $($arg:expr),* )) => {
        match $self {
            AutoOp::Csr(a) => SparseOp::$m(a, $($arg),*),
            AutoOp::SellCs(a) => SparseOp::$m(a, $($arg),*),
        }
    };
}

impl SparseOp for AutoOp {
    fn rows(&self) -> usize {
        auto_dispatch!(self, rows())
    }

    fn cols(&self) -> usize {
        auto_dispatch!(self, cols())
    }

    fn nnz(&self) -> usize {
        auto_dispatch!(self, nnz())
    }

    fn mul_vec_range_into(&self, x: &[f64], y: &mut [f64], rows: Range<usize>) {
        auto_dispatch!(self, mul_vec_range_into(x, y, rows))
    }

    fn mul_vec_axpy_range(&self, a: f64, x: &[f64], y: &mut [f64], rows: Range<usize>) {
        auto_dispatch!(self, mul_vec_axpy_range(a, x, y, rows))
    }

    fn visit_row(&self, i: usize, visit: &mut dyn FnMut(usize, f64)) {
        auto_dispatch!(self, visit_row(i, visit))
    }

    fn chunk_rows(&self, chunk_nnz: usize, c: usize) -> Range<usize> {
        auto_dispatch!(self, chunk_rows(chunk_nnz, c))
    }

    fn mul_vec_into(&self, x: &[f64], y: &mut [f64]) {
        auto_dispatch!(self, mul_vec_into(x, y))
    }

    fn mul_vec_axpy(&self, a: f64, x: &[f64], y: &mut [f64]) {
        auto_dispatch!(self, mul_vec_axpy(a, x, y))
    }

    fn diag_into(&self, out: &mut [f64]) {
        auto_dispatch!(self, diag_into(out))
    }

    fn csr_copy(&self) -> CsrMatrix {
        auto_dispatch!(self, csr_copy())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::coo::CooMatrix;

    fn sample() -> CsrMatrix {
        let mut a = CooMatrix::new(4, 4);
        for i in 0..4 {
            a.push(i, i, 4.0).unwrap();
            if i + 1 < 4 {
                a.push_sym(i, i + 1, -1.0).unwrap();
            }
        }
        a.to_csr()
    }

    /// SpMV through a generic `A: SparseOp` — the call shape the solver
    /// stack uses after the refactor.
    fn generic_spmv<A: SparseOp>(a: &A, x: &[f64]) -> Vec<f64> {
        a.mul_vec(x)
    }

    #[test]
    fn trait_dispatch_matches_inherent_for_csr() {
        let a = sample();
        let x = [1.0, -2.0, 0.5, 3.0];
        assert_eq!(generic_spmv(&a, &x), CsrMatrix::mul_vec(&a, &x));
        assert_eq!(SparseOp::nnz(&a), CsrMatrix::nnz(&a));
        assert_eq!(SparseOp::dims(&a), (4, 4));
    }

    #[test]
    fn dense_agrees_with_csr_through_the_trait() {
        let a = sample();
        let dense = a.to_dense();
        let x = [0.25, -1.0, 2.0, 0.125];
        let want = CsrMatrix::mul_vec(&a, &x);
        // Power-of-two data: the row-wise gathers agree exactly.
        assert_eq!(generic_spmv(&dense, &x), want);
        let mut acc1 = vec![1.0; 4];
        let mut acc2 = vec![1.0; 4];
        SparseOp::mul_vec_axpy(&a, -2.0, &x, &mut acc1);
        SparseOp::mul_vec_axpy(&dense, -2.0, &x, &mut acc2);
        assert_eq!(acc1, acc2);
    }

    #[test]
    fn default_chunk_rows_partition_all_rows() {
        let dense = crate::dense::DenseMatrix::identity(300);
        let (chunk_nnz, nchunks) = par::spmv_layout(SparseOp::nnz(&dense));
        let mut covered = Vec::new();
        for c in 0..nchunks {
            let r = SparseOp::chunk_rows(&dense, chunk_nnz, c);
            assert!(r.start <= r.end);
            covered.extend(r);
        }
        assert_eq!(covered, (0..300).collect::<Vec<_>>());
    }

    #[test]
    fn diag_into_and_csr_copy_round_trip() {
        let a = sample();
        let mut d = vec![0.0; 4];
        SparseOp::diag_into(&a, &mut d);
        assert_eq!(d, vec![4.0; 4]);
        assert_eq!(SparseOp::csr_copy(&a), a);
        assert_eq!(SparseOp::csr_copy(&a.to_dense()), a);
    }

    #[test]
    fn auto_op_keeps_csr_for_regular_rows() {
        let auto = AutoOp::from_csr(sample());
        assert_eq!(auto.format(), MatrixFormat::Csr);
        let x = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(generic_spmv(&auto, &x), CsrMatrix::mul_vec(&sample(), &x));
    }

    #[test]
    fn auto_op_picks_sellcs_for_arrow_matrix() {
        // Dense head rows over a sparse body: the wide-row family. A full
        // slice of dense rows keeps the padding budget honest (2 dense
        // rows sharing a slice with 6 short ones would be rejected by the
        // padding check, correctly).
        let n = 600usize;
        let head = 8usize;
        let mut coo = CooMatrix::new(n, n);
        for i in 0..n {
            coo.push(i, i, 8.0).unwrap();
        }
        for d in 0..head {
            for j in head..n {
                coo.push_sym(d, j, -1e-3 * (d + 1) as f64).unwrap();
            }
        }
        let a = coo.to_csr();
        let auto = AutoOp::from_csr(a.clone());
        assert_eq!(auto.format(), MatrixFormat::SellCs);
        let x: Vec<f64> = (0..n).map(|i| ((i * 7) % 13) as f64 * 0.25).collect();
        let want = CsrMatrix::mul_vec(&a, &x);
        let got = generic_spmv(&auto, &x);
        assert_eq!(
            want.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
            got.iter().map(|v| v.to_bits()).collect::<Vec<_>>()
        );
    }
}
