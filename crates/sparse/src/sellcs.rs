//! SELL-C-σ: sliced ELLPACK with sorting — the wide-row SpMV layout.
//!
//! CSR streams one row at a time; on irregular matrices (a few dense rows
//! in a sea of short ones — the "arrow" shapes FEM condensation and
//! multipoint constraints produce) the per-row loop bound defeats
//! vectorization and row-count chunking unbalances the pool. SELL-C-σ
//! (Kreutzer–Hager–Wellein–Fehske–Bishop 2014; the layout the
//! GPU-cluster CG variants of the related-work survey assume) fixes both:
//!
//! * rows are grouped into **slices of height C**; each slice is stored
//!   **column-major** (lane-contiguous), padded to its own widest row —
//!   C rows advance in lockstep, which is exactly the shape SIMD wants;
//! * within a **sort window of σ rows**, rows are ordered by descending
//!   stored length, so rows sharing a slice have similar lengths and the
//!   padding stays small; σ bounds how far a row may move from its
//!   original position (σ = C degenerates to plain sliced ELL).
//!
//! ## Determinism contract
//!
//! The kernels accumulate every row into a single scalar in ascending
//! column order — the same order as the CSR row loop — and padding lanes
//! are *skipped*, never multiplied. Products are therefore **bitwise
//! identical** to [`CsrMatrix`]'s, serially and for any thread count; the
//! parallel schedule feeds the per-slice stored-entry prefix sum through
//! the same nnz-weighted chunk machinery ([`par::spmv_layout`] /
//! [`par::spmv_chunk_rows`]) the CSR kernel uses, so slices are
//! distributed by the work they actually carry.
//!
//! ## Storage cost
//!
//! For row lengths `ℓ_i`, slice `s` stores `C · max_{i ∈ s} ℓ_i` scalars;
//! the padding overhead is `Σ_s C·w_s / Σ_i ℓ_i − 1`
//! ([`SellCsMatrix::padding_ratio`]). Sorting with window σ ≥ C drives
//! `w_s` toward the slice's mean length; the worst case (σ too small for
//! the row-length spread) is bounded by the widest row per slice.
//! [`crate::op::AutoOp`] converts only when the measured overhead stays
//! within [`crate::op::AUTO_MAX_PADDING`].

use crate::csr::CsrMatrix;
use crate::error::SparseError;
use crate::op::SparseOp;
use crate::par::{self, ParSlice};
use crate::tuning;
use std::ops::Range;

/// Upper bound on the slice height C: keeps the kernel's per-slice
/// accumulator bank on the stack.
pub const MAX_SLICE_HEIGHT: usize = 64;

/// Default slice height (8 f64 lanes = one AVX-512 register, two NEON/SSE
/// pairs): wide enough to amortize the slice loop, narrow enough to keep
/// padding low on moderately irregular matrices.
pub const DEFAULT_CHUNK: usize = 8;

/// Default sort window (8 slices): local enough that gather locality
/// survives, wide enough to homogenize FEM-style row-length spreads.
pub const DEFAULT_SIGMA: usize = 64;

/// Sparse matrix in SELL-C-σ format. Construct via
/// [`SellCsMatrix::from_csr`]; the conversion is lossless
/// ([`SellCsMatrix::to_csr`] reproduces the input exactly, including
/// explicitly stored zeros).
#[derive(Debug, Clone, PartialEq)]
pub struct SellCsMatrix {
    rows: usize,
    cols: usize,
    /// Real stored entries (excluding padding).
    nnz: usize,
    /// Slice height C.
    chunk: usize,
    /// Sort window σ (a multiple of C).
    sigma: usize,
    /// Storage position `p` → original row index (length `rows`); position
    /// `p` lives in slice `p / C`, lane `p % C`.
    perm: Vec<u32>,
    /// Original row index → storage position (inverse of `perm`).
    rank: Vec<u32>,
    /// Per storage position: real entries in that lane (≤ slice width).
    len: Vec<u32>,
    /// Per slice: offset of its (column-major) block in `values`/`col_idx`.
    slice_ptr: Vec<usize>,
    /// Per slice: prefix sum of *real* stored entries — the schedule the
    /// nnz-weighted chunking consumes.
    slice_nnz_ptr: Vec<usize>,
    /// Column indices, column-major per slice, padding slots zeroed.
    col_idx: Vec<u32>,
    /// Values, column-major per slice, padding slots zeroed.
    values: Vec<f64>,
}

impl SellCsMatrix {
    /// Convert from CSR with slice height `chunk` (C) and sort window
    /// `sigma` (σ). σ must be a multiple of C: sort windows then align
    /// with slice boundaries, which keeps row lengths non-increasing
    /// within every slice (the kernel's active-lane schedule relies on
    /// this).
    ///
    /// # Errors
    /// [`SparseError::InvalidPartition`] when `chunk` is zero or exceeds
    /// [`MAX_SLICE_HEIGHT`], or when `sigma` is not a positive multiple of
    /// `chunk`.
    pub fn from_csr(a: &CsrMatrix, chunk: usize, sigma: usize) -> Result<Self, SparseError> {
        if chunk == 0 || chunk > MAX_SLICE_HEIGHT {
            return Err(SparseError::InvalidPartition {
                reason: format!("SELL-C-σ slice height {chunk} outside 1..={MAX_SLICE_HEIGHT}"),
            });
        }
        if sigma == 0 || !sigma.is_multiple_of(chunk) {
            return Err(SparseError::InvalidPartition {
                reason: format!(
                    "SELL-C-σ sort window {sigma} is not a positive multiple of C = {chunk}"
                ),
            });
        }
        let rows = a.rows();
        // Sort each σ-window by descending row length; ties keep the
        // original order (stable), so the permutation is deterministic.
        let mut perm: Vec<u32> = (0..rows as u32).collect();
        for window in perm.chunks_mut(sigma) {
            window.sort_by_key(|&i| (std::cmp::Reverse(a.row_nnz(i as usize)), i));
        }
        let mut rank = vec![0u32; rows];
        for (p, &i) in perm.iter().enumerate() {
            rank[i as usize] = p as u32;
        }
        let nslices = rows.div_ceil(chunk);
        let mut len = vec![0u32; rows];
        let mut slice_ptr = vec![0usize; nslices + 1];
        let mut slice_nnz_ptr = vec![0usize; nslices + 1];
        for s in 0..nslices {
            let p0 = s * chunk;
            let lanes = chunk.min(rows - p0);
            let mut width = 0usize;
            let mut real = 0usize;
            for r in 0..lanes {
                let l = a.row_nnz(perm[p0 + r] as usize);
                len[p0 + r] = l as u32;
                width = width.max(l);
                real += l;
            }
            slice_ptr[s + 1] = slice_ptr[s] + width * lanes;
            slice_nnz_ptr[s + 1] = slice_nnz_ptr[s] + real;
        }
        let padded = slice_ptr[nslices];
        let mut col_idx = vec![0u32; padded];
        let mut values = vec![0.0f64; padded];
        for s in 0..nslices {
            let p0 = s * chunk;
            let lanes = chunk.min(rows - p0);
            let base = slice_ptr[s];
            for r in 0..lanes {
                let i = perm[p0 + r] as usize;
                let lo = a.row_ptr()[i];
                for j in 0..len[p0 + r] as usize {
                    col_idx[base + j * lanes + r] = a.col_idx()[lo + j];
                    values[base + j * lanes + r] = a.values()[lo + j];
                }
            }
        }
        Ok(SellCsMatrix {
            rows,
            cols: a.cols(),
            nnz: a.nnz(),
            chunk,
            sigma,
            perm,
            rank,
            len,
            slice_ptr,
            slice_nnz_ptr,
            col_idx,
            values,
        })
    }

    /// Convert with the default `C = `[`DEFAULT_CHUNK`],
    /// `σ = `[`DEFAULT_SIGMA`] layout.
    pub fn from_csr_default(a: &CsrMatrix) -> Self {
        Self::from_csr(a, DEFAULT_CHUNK, DEFAULT_SIGMA)
            .expect("default SELL-C-σ parameters are valid")
    }

    /// Convert with `(C, σ)` chosen by [`autotune_params`] from the
    /// row-length histogram — the entry point [`crate::op::AutoOp`] uses.
    pub fn from_csr_autotuned(a: &CsrMatrix) -> Self {
        let (chunk, sigma) = autotune_params(a);
        Self::from_csr(a, chunk, sigma).expect("autotuned SELL-C-σ parameters are valid")
    }

    /// Lossless round trip back to CSR: reproduces the original matrix
    /// exactly (structure, values, explicit zeros — padding is skipped by
    /// the per-lane lengths, never re-materialized).
    pub fn to_csr(&self) -> CsrMatrix {
        let mut row_ptr = vec![0usize; self.rows + 1];
        for i in 0..self.rows {
            row_ptr[i + 1] = row_ptr[i] + self.len[self.rank[i] as usize] as usize;
        }
        let mut col_idx = vec![0u32; self.nnz];
        let mut values = vec![0.0f64; self.nnz];
        for i in 0..self.rows {
            let p = self.rank[i] as usize;
            let s = p / self.chunk;
            let lanes = self.lanes(s);
            let r = p - s * self.chunk;
            let base = self.slice_ptr[s];
            let dst = row_ptr[i];
            for j in 0..self.len[p] as usize {
                col_idx[dst + j] = self.col_idx[base + j * lanes + r];
                values[dst + j] = self.values[base + j * lanes + r];
            }
        }
        CsrMatrix::from_raw_parts(self.rows, self.cols, row_ptr, col_idx, values)
            .expect("SELL-C-σ storage holds a valid CSR structure")
    }

    /// Number of rows.
    #[inline]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    #[inline]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Real stored entries (excluding padding).
    #[inline]
    pub fn nnz(&self) -> usize {
        self.nnz
    }

    /// Slice height C.
    #[inline]
    pub fn chunk_height(&self) -> usize {
        self.chunk
    }

    /// Sort window σ.
    #[inline]
    pub fn sigma(&self) -> usize {
        self.sigma
    }

    /// Number of slices.
    #[inline]
    pub fn num_slices(&self) -> usize {
        self.slice_ptr.len() - 1
    }

    /// Lanes (rows) in slice `s` — `C` except possibly the last slice.
    #[inline]
    fn lanes(&self, s: usize) -> usize {
        self.chunk.min(self.rows - s * self.chunk)
    }

    /// Width of slice `s`: the stored length of its longest row.
    pub fn slice_width(&self, s: usize) -> usize {
        (self.slice_ptr[s + 1] - self.slice_ptr[s])
            .checked_div(self.lanes(s))
            .unwrap_or(0)
    }

    /// Real stored entries in slice `s` (the weight its chunk carries in
    /// the parallel schedule).
    pub fn slice_nnz(&self, s: usize) -> usize {
        self.slice_nnz_ptr[s + 1] - self.slice_nnz_ptr[s]
    }

    /// Total stored scalars including padding.
    #[inline]
    pub fn padded_len(&self) -> usize {
        self.values.len()
    }

    /// Padding overhead `padded / nnz − 1` (0 for an empty matrix): the
    /// fraction of wasted storage the σ-sort failed to remove.
    pub fn padding_ratio(&self) -> f64 {
        if self.nnz == 0 {
            0.0
        } else {
            (self.padded_len() - self.nnz) as f64 / self.nnz as f64
        }
    }

    /// Serial SpMV over a slice range, accumulating each lane's row in
    /// ascending column order (bitwise the CSR row loop). `emit` receives
    /// `(original_row, product)` once per lane.
    ///
    /// Dispatches to a **width-specialized** kernel for the common slice
    /// heights: with `C` a compile-time constant the per-slice accumulator
    /// bank lives in registers and the lane loop fully unrolls — the whole
    /// point of the lane-contiguous layout. Other heights (and the ragged
    /// final slice) run the dynamic fallback, which performs the same
    /// arithmetic in the same order.
    #[inline]
    fn slices_product(&self, x: &[f64], slices: Range<usize>, emit: &mut impl FnMut(usize, f64)) {
        match self.chunk {
            2 => self.slices_product_c::<2>(x, slices, emit),
            4 => self.slices_product_c::<4>(x, slices, emit),
            8 => self.slices_product_c::<8>(x, slices, emit),
            16 => self.slices_product_c::<16>(x, slices, emit),
            32 => self.slices_product_c::<32>(x, slices, emit),
            _ => self.slices_product_dyn(x, slices, emit),
        }
    }

    /// Width-specialized slice kernel (`C == self.chunk`). Row lengths are
    /// non-increasing across the lanes of one slice (σ-window sorting is
    /// slice-aligned), so columns `0..lens[C−1]` are **uniform** — every
    /// lane is live, no per-lane guard — and the ragged remainder walks a
    /// shrinking live-lane prefix. Padding slots are never read.
    fn slices_product_c<const C: usize>(
        &self,
        x: &[f64],
        slices: Range<usize>,
        emit: &mut impl FnMut(usize, f64),
    ) {
        debug_assert_eq!(C, self.chunk);
        for s in slices {
            let p0 = s * C;
            if self.lanes(s) < C {
                // Ragged final slice: same arithmetic, dynamic lane count.
                self.slices_product_dyn(x, s..s + 1, emit);
                continue;
            }
            let base = self.slice_ptr[s];
            let width = (self.slice_ptr[s + 1] - base) / C;
            let lens = &self.len[p0..p0 + C];
            let uniform = lens[C - 1] as usize;
            let mut acc = [0.0f64; C];
            for j in 0..uniform {
                let off = base + j * C;
                let vals = &self.values[off..off + C];
                let cols = &self.col_idx[off..off + C];
                for r in 0..C {
                    // SAFETY: construction copies every column index from
                    // a validated CSR (`col < cols`), and the callers of
                    // `slices_product` assert `x.len() == self.cols`.
                    acc[r] += vals[r] * unsafe { *x.get_unchecked(cols[r] as usize) };
                }
            }
            let mut active = C;
            for j in uniform..width {
                while active > 0 && (lens[active - 1] as usize) <= j {
                    active -= 1;
                }
                let off = base + j * C;
                let vals = &self.values[off..off + active];
                let cols = &self.col_idx[off..off + active];
                for ((a, &v), &c) in acc[..active].iter_mut().zip(vals).zip(cols) {
                    // SAFETY: as above.
                    *a += v * unsafe { *x.get_unchecked(c as usize) };
                }
            }
            for (r, &a) in acc.iter().enumerate() {
                emit(self.perm[p0 + r] as usize, a);
            }
        }
    }

    /// Dynamic-height slice kernel: the fallback for uncommon `C` and for
    /// the ragged final slice. Identical arithmetic and ordering to the
    /// specialized kernel.
    fn slices_product_dyn(
        &self,
        x: &[f64],
        slices: Range<usize>,
        emit: &mut impl FnMut(usize, f64),
    ) {
        let mut acc = [0.0f64; MAX_SLICE_HEIGHT];
        for s in slices {
            let p0 = s * self.chunk;
            let lanes = self.lanes(s);
            let base = self.slice_ptr[s];
            let width = self.slice_width(s);
            let lens = &self.len[p0..p0 + lanes];
            acc[..lanes].fill(0.0);
            let mut active = lanes;
            for j in 0..width {
                while active > 0 && (lens[active - 1] as usize) <= j {
                    active -= 1;
                }
                // Lockstep iterators drop every per-element bounds check
                // in the lane loop; padding slots sit past `active` and
                // are never read.
                let off = base + j * lanes;
                let vals = &self.values[off..off + active];
                let cols = &self.col_idx[off..off + active];
                for ((a, &v), &c) in acc[..active].iter_mut().zip(vals).zip(cols) {
                    // SAFETY: construction copies every column index from
                    // a validated CSR (`col < cols`), and the callers of
                    // `slices_product` assert `x.len() == self.cols`.
                    *a += v * unsafe { *x.get_unchecked(c as usize) };
                }
            }
            for r in 0..lanes {
                emit(self.perm[p0 + r] as usize, acc[r]);
            }
        }
    }
}

impl SparseOp for SellCsMatrix {
    fn rows(&self) -> usize {
        self.rows
    }

    fn cols(&self) -> usize {
        self.cols
    }

    fn nnz(&self) -> usize {
        self.nnz
    }

    /// Per-row gather in storage order (ascending columns): the strip
    /// kernel the SPMD solver uses. Lane access is strided (stride =
    /// slice lanes); full-matrix products should go through
    /// [`SparseOp::mul_vec_into`], which streams whole slices instead.
    fn mul_vec_range_into(&self, x: &[f64], y: &mut [f64], rows: Range<usize>) {
        assert_eq!(x.len(), self.cols, "sellcs range mul: x length mismatch");
        assert!(
            rows.end <= self.rows,
            "sellcs range mul: rows out of bounds"
        );
        assert_eq!(y.len(), rows.len(), "sellcs range mul: y length mismatch");
        for (k, i) in rows.enumerate() {
            let p = self.rank[i] as usize;
            let s = p / self.chunk;
            let lanes = self.lanes(s);
            let r = p - s * self.chunk;
            let base = self.slice_ptr[s];
            let mut acc = 0.0;
            for j in 0..self.len[p] as usize {
                let k2 = base + j * lanes + r;
                acc += self.values[k2] * x[self.col_idx[k2] as usize];
            }
            y[k] = acc;
        }
    }

    fn mul_vec_axpy_range(&self, a: f64, x: &[f64], y: &mut [f64], rows: Range<usize>) {
        assert_eq!(x.len(), self.cols, "sellcs range axpy: x length mismatch");
        assert!(
            rows.end <= self.rows,
            "sellcs range axpy: rows out of bounds"
        );
        assert_eq!(y.len(), rows.len(), "sellcs range axpy: y length mismatch");
        for (k, i) in rows.enumerate() {
            let p = self.rank[i] as usize;
            let s = p / self.chunk;
            let lanes = self.lanes(s);
            let r = p - s * self.chunk;
            let base = self.slice_ptr[s];
            let mut acc = 0.0;
            for j in 0..self.len[p] as usize {
                let k2 = base + j * lanes + r;
                acc += self.values[k2] * x[self.col_idx[k2] as usize];
            }
            y[k] += a * acc;
        }
    }

    fn visit_row(&self, i: usize, visit: &mut dyn FnMut(usize, f64)) {
        let p = self.rank[i] as usize;
        let s = p / self.chunk;
        let lanes = self.lanes(s);
        let r = p - s * self.chunk;
        let base = self.slice_ptr[s];
        for j in 0..self.len[p] as usize {
            let k = base + j * lanes + r;
            visit(self.col_idx[k] as usize, self.values[k]);
        }
    }

    /// Slice-streaming SpMV: slices are scheduled by their *real* stored
    /// entries through the same nnz-weighted chunk machinery as CSR
    /// ([`par::spmv_layout`] over the per-slice prefix sum), and each
    /// chunk writes the disjoint set of original rows its slices own.
    fn mul_vec_into(&self, x: &[f64], y: &mut [f64]) {
        assert_eq!(x.len(), self.cols, "sellcs mul: x length mismatch");
        assert_eq!(y.len(), self.rows, "sellcs mul: y length mismatch");
        let threads = par::threads_for(self.nnz, tuning::PAR_MIN_NNZ);
        if threads <= 1 {
            self.slices_product(x, 0..self.num_slices(), &mut |i, v| y[i] = v);
            return;
        }
        let (chunk_nnz, nchunks) = par::spmv_layout(self.nnz);
        let ys = ParSlice::new(y);
        par::for_each_chunk(nchunks, threads, &|c| {
            let slices = par::spmv_chunk_rows(&self.slice_nnz_ptr, chunk_nnz, c);
            self.slices_product(x, slices, &mut |i, v| {
                // SAFETY: slice chunks are disjoint and a slice's lanes map
                // to distinct original rows, so row `i` has exactly one
                // writer in this region.
                unsafe { ys.set(i, v) };
            });
        });
    }

    fn mul_vec_axpy(&self, a: f64, x: &[f64], y: &mut [f64]) {
        assert_eq!(x.len(), self.cols, "sellcs axpy: x length mismatch");
        assert_eq!(y.len(), self.rows, "sellcs axpy: y length mismatch");
        let threads = par::threads_for(self.nnz, tuning::PAR_MIN_NNZ);
        if threads <= 1 {
            self.slices_product(x, 0..self.num_slices(), &mut |i, v| y[i] += a * v);
            return;
        }
        let (chunk_nnz, nchunks) = par::spmv_layout(self.nnz);
        let ys = ParSlice::new(y);
        par::for_each_chunk(nchunks, threads, &|c| {
            let slices = par::spmv_chunk_rows(&self.slice_nnz_ptr, chunk_nnz, c);
            self.slices_product(x, slices, &mut |i, v| {
                // SAFETY: as in mul_vec_into; the read-modify-write of row
                // `i` stays within its single writer.
                unsafe { ys.set(i, ys.get(i) + a * v) };
            });
        });
    }
}

/// Slice heights [`autotune_params`] considers: exactly the heights with
/// width-specialized kernels (plus small ones that keep padding tight on
/// very irregular shapes).
pub const AUTOTUNE_CHUNKS: &[usize] = &[4, 8, 16, 32];

/// Sort-window multiples (σ = factor·C) the autotuner considers: no
/// sorting, the default's window, and a wide window for heavy-tailed
/// row-length histograms.
pub const AUTOTUNE_SIGMA_FACTORS: &[usize] = &[1, 8, 32];

/// Padded storage a `(C, σ)` conversion *would* produce, computed from the
/// row-length histogram alone (no matrix is materialized): sort each
/// σ-window of lengths descending — the conversion's exact permutation
/// rule — then charge every slice `C × (its widest row)`.
fn padded_len_for(lens: &mut [usize], chunk: usize, sigma: usize) -> usize {
    for window in lens.chunks_mut(sigma) {
        window.sort_unstable_by(|a, b| b.cmp(a));
    }
    let mut padded = 0usize;
    for slice in lens.chunks(chunk) {
        // Descending within the window and windows are slice-aligned, so
        // the slice's first length is its width.
        padded += slice[0] * slice.len();
    }
    padded
}

/// Pick `(C, σ)` for a SELL-C-σ conversion of `a` from its **row-length
/// histogram**: among [`AUTOTUNE_CHUNKS`] × [`AUTOTUNE_SIGMA_FACTORS`],
/// choose the layout with the least padded storage, breaking ties toward
/// the **larger C** (longer SIMD lanes for the same memory) and then the
/// **smaller σ** (less reordering, better gather locality). Uniform
/// row-length matrices therefore get `C = 32, σ = C` — maximum lane width,
/// no permutation — while heavy-tailed shapes get small slices and wide
/// sort windows, whichever measures smallest.
///
/// Deterministic in the matrix structure (the choice must not vary between
/// two conversions of one matrix, or cross-run replay would break), and
/// `O(rows · log σ)`: cheap next to the conversion itself.
pub fn autotune_params(a: &CsrMatrix) -> (usize, usize) {
    let rows = a.rows();
    if rows == 0 || a.nnz() == 0 {
        return (DEFAULT_CHUNK, DEFAULT_SIGMA);
    }
    let lens: Vec<usize> = (0..rows).map(|i| a.row_nnz(i)).collect();
    let mut scratch = vec![0usize; rows];
    let mut best = (DEFAULT_CHUNK, DEFAULT_SIGMA);
    let mut best_padded = usize::MAX;
    for &chunk in AUTOTUNE_CHUNKS {
        for &factor in AUTOTUNE_SIGMA_FACTORS {
            let sigma = chunk * factor;
            scratch.copy_from_slice(&lens);
            let padded = padded_len_for(&mut scratch, chunk, sigma);
            let better = padded < best_padded
                || (padded == best_padded
                    && (chunk > best.0 || (chunk == best.0 && sigma < best.1)));
            if better {
                best = (chunk, sigma);
                best_padded = padded;
            }
        }
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::coo::CooMatrix;

    fn bits(v: &[f64]) -> Vec<u64> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    fn tridiag(n: usize) -> CsrMatrix {
        let mut a = CooMatrix::new(n, n);
        for i in 0..n {
            a.push(i, i, 2.0).unwrap();
            if i + 1 < n {
                a.push_sym(i, i + 1, -1.0).unwrap();
            }
        }
        a.to_csr()
    }

    /// Arrow matrix: `head` dense rows/columns over a sparse body — the
    /// wide-row family SELL-C-σ exists for.
    fn arrow(n: usize, head: usize) -> CsrMatrix {
        let mut coo = CooMatrix::new(n, n);
        for i in 0..n {
            coo.push(i, i, 8.0).unwrap();
        }
        for d in 0..head {
            for j in head..n {
                coo.push_sym(d, j, -1e-3 * (d + 1) as f64).unwrap();
            }
        }
        coo.to_csr()
    }

    #[test]
    fn rejects_bad_parameters() {
        let a = tridiag(8);
        assert!(SellCsMatrix::from_csr(&a, 0, 8).is_err());
        assert!(SellCsMatrix::from_csr(&a, MAX_SLICE_HEIGHT + 1, 128).is_err());
        assert!(SellCsMatrix::from_csr(&a, 4, 0).is_err());
        assert!(SellCsMatrix::from_csr(&a, 4, 6).is_err()); // σ not a multiple of C
        assert!(SellCsMatrix::from_csr(&a, 4, 4).is_ok());
    }

    #[test]
    fn round_trip_is_lossless() {
        for (a, c, sigma) in [
            (tridiag(17), 4, 8),
            (tridiag(16), 8, 16),
            (arrow(40, 3), 4, 16),
            (arrow(33, 5), 8, 8),
        ] {
            let sell = SellCsMatrix::from_csr(&a, c, sigma).unwrap();
            assert_eq!(sell.to_csr(), a, "C = {c}, σ = {sigma}");
            assert_eq!(sell.nnz(), a.nnz());
        }
    }

    #[test]
    fn round_trip_keeps_explicit_zeros() {
        // A stored zero must survive the conversion (losslessness is
        // structural, not value-based).
        let a = CsrMatrix::from_raw_parts(2, 2, vec![0, 2, 3], vec![0, 1, 1], vec![1.0, 0.0, 3.0])
            .unwrap();
        let sell = SellCsMatrix::from_csr(&a, 2, 2).unwrap();
        assert_eq!(sell.to_csr(), a);
    }

    #[test]
    fn empty_and_tiny_matrices() {
        let empty = CsrMatrix::from_raw_parts(0, 0, vec![0], vec![], vec![]).unwrap();
        let sell = SellCsMatrix::from_csr_default(&empty);
        assert_eq!(sell.num_slices(), 0);
        assert_eq!(SparseOp::mul_vec(&sell, &[]), Vec::<f64>::new());
        assert_eq!(sell.to_csr(), empty);

        let one = CsrMatrix::from_diag(&[3.0]);
        let sell = SellCsMatrix::from_csr_default(&one);
        assert_eq!(SparseOp::mul_vec(&sell, &[2.0]), vec![6.0]);
    }

    #[test]
    fn empty_rows_are_preserved() {
        // Rows with no entries sort to the back of their window and store
        // nothing; the round trip must keep them empty.
        let a = CsrMatrix::from_raw_parts(
            5,
            5,
            vec![0, 2, 2, 3, 3, 4],
            vec![0, 4, 2, 4],
            vec![1.0, 2.0, 3.0, 4.0],
        )
        .unwrap();
        let sell = SellCsMatrix::from_csr(&a, 2, 4).unwrap();
        assert_eq!(sell.to_csr(), a);
        let x = [1.0, 1.0, 1.0, 1.0, 1.0];
        assert_eq!(SparseOp::mul_vec(&sell, &x), CsrMatrix::mul_vec(&a, &x));
    }

    #[test]
    fn sigma_sorting_reduces_padding() {
        let a = arrow(256, 4);
        // σ = C: dense rows share slices with short rows → heavy padding.
        let unsorted = SellCsMatrix::from_csr(&a, 8, 8).unwrap();
        // Wide σ groups the dense rows together.
        let sorted = SellCsMatrix::from_csr(&a, 8, 64).unwrap();
        assert!(
            sorted.padded_len() <= unsorted.padded_len(),
            "sorted {} > unsorted {}",
            sorted.padded_len(),
            unsorted.padded_len()
        );
        // Padding accounting is consistent.
        let total: usize = (0..sorted.num_slices())
            .map(|s| sorted.slice_width(s) * 8.min(256 - s * 8))
            .sum();
        assert_eq!(total, sorted.padded_len());
        let real: usize = (0..sorted.num_slices()).map(|s| sorted.slice_nnz(s)).sum();
        assert_eq!(real, sorted.nnz());
        assert!(sorted.padding_ratio() >= 0.0);
    }

    #[test]
    fn spmv_is_bitwise_identical_to_csr() {
        for (a, c, sigma) in [
            (tridiag(101), 8, 64),
            (arrow(400, 5), 8, 64),
            (arrow(97, 2), 4, 12),
        ] {
            let sell = SellCsMatrix::from_csr(&a, c, sigma).unwrap();
            let n = a.rows();
            let x: Vec<f64> = (0..n)
                .map(|i| ((i * 13 + 5) % 97) as f64 * 0.03 - 1.0)
                .collect();
            let want = CsrMatrix::mul_vec(&a, &x);
            assert_eq!(bits(&want), bits(&SparseOp::mul_vec(&sell, &x)));
            // Range kernel and accumulate variant agree bitwise too.
            let mut part = vec![0.0; n - 1];
            SparseOp::mul_vec_range_into(&sell, &x, &mut part, 1..n);
            assert_eq!(bits(&part), bits(&want[1..n]));
            let mut acc_csr = vec![0.5; n];
            let mut acc_sell = vec![0.5; n];
            CsrMatrix::mul_vec_axpy(&a, -2.0, &x, &mut acc_csr);
            SparseOp::mul_vec_axpy(&sell, -2.0, &x, &mut acc_sell);
            assert_eq!(bits(&acc_csr), bits(&acc_sell));
        }
    }

    #[test]
    fn wide_row_spmv_is_thread_count_insensitive_and_matches_csr() {
        let _guard = crate::par::thread_sweep_lock();
        let a = arrow(8_000, 4);
        assert!(a.nnz() >= tuning::PAR_MIN_NNZ);
        let sell = SellCsMatrix::from_csr_default(&a);
        let n = a.rows();
        let x: Vec<f64> = (0..n).map(|i| ((i * 7 + 1) % 31) as f64 * 0.1).collect();
        let before = crate::par::max_threads();
        crate::par::set_max_threads(1);
        let want = CsrMatrix::mul_vec(&a, &x);
        assert_eq!(bits(&want), bits(&SparseOp::mul_vec(&sell, &x)));
        for t in [2usize, 4, 8] {
            crate::par::set_max_threads(t);
            assert_eq!(
                bits(&want),
                bits(&SparseOp::mul_vec(&sell, &x)),
                "sellcs spmv differs at t = {t}"
            );
            let mut acc = vec![0.5; n];
            SparseOp::mul_vec_axpy(&sell, -2.0, &x, &mut acc);
            let mut acc_ref = vec![0.5; n];
            CsrMatrix::mul_vec_axpy(&a, -2.0, &x, &mut acc_ref);
            assert_eq!(bits(&acc_ref), bits(&acc), "sellcs axpy differs at t = {t}");
        }
        crate::par::set_max_threads(before);
    }

    #[test]
    fn autotune_prefers_wide_unsorted_slices_on_uniform_rows() {
        // Every interior row of a tridiagonal matrix stores 3 entries:
        // any C pads (almost) nothing, so the tie-breaks must pick the
        // widest slice height with no sorting window.
        let a = tridiag(512);
        let (c, sigma) = autotune_params(&a);
        assert_eq!(c, 32);
        assert_eq!(sigma, c, "uniform rows need no sort window");
        let sell = SellCsMatrix::from_csr(&a, c, sigma).unwrap();
        assert!(sell.padding_ratio() < 0.01, "{}", sell.padding_ratio());
    }

    #[test]
    fn autotune_beats_or_matches_default_padding() {
        for a in [
            tridiag(301),
            arrow(512, 4),
            arrow(777, 13),
            CsrMatrix::from_diag(&vec![1.0; 97]),
        ] {
            let tuned = SellCsMatrix::from_csr_autotuned(&a);
            let default = SellCsMatrix::from_csr_default(&a);
            assert!(
                tuned.padded_len() <= default.padded_len(),
                "autotuned {} > default {} on {}×{}",
                tuned.padded_len(),
                default.padded_len(),
                a.rows(),
                a.cols()
            );
            // Whatever the parameters, the conversion stays lossless.
            assert_eq!(tuned.to_csr(), a);
        }
    }

    #[test]
    fn autotune_parameters_are_valid_and_deterministic() {
        for a in [tridiag(64), arrow(200, 3), arrow(33, 5)] {
            let (c, sigma) = autotune_params(&a);
            assert!(AUTOTUNE_CHUNKS.contains(&c));
            assert!(sigma >= c && sigma.is_multiple_of(c));
            assert_eq!((c, sigma), autotune_params(&a), "unstable choice");
        }
        // Degenerate inputs fall back to the defaults.
        let empty = CsrMatrix::from_raw_parts(0, 0, vec![0], vec![], vec![]).unwrap();
        assert_eq!(autotune_params(&empty), (DEFAULT_CHUNK, DEFAULT_SIGMA));
    }

    #[test]
    fn autotuned_spmv_is_bitwise_identical_to_csr() {
        let a = arrow(600, 6);
        let sell = SellCsMatrix::from_csr_autotuned(&a);
        let x: Vec<f64> = (0..600)
            .map(|i| ((i * 11 + 7) % 61) as f64 * 0.05)
            .collect();
        assert_eq!(
            bits(&CsrMatrix::mul_vec(&a, &x)),
            bits(&SparseOp::mul_vec(&sell, &x))
        );
    }

    #[test]
    fn csr_copy_through_the_trait_reproduces_the_input() {
        let a = arrow(60, 3);
        let sell = SellCsMatrix::from_csr(&a, 8, 16).unwrap();
        assert_eq!(SparseOp::csr_copy(&sell), a);
        let mut d = vec![0.0; 60];
        SparseOp::diag_into(&sell, &mut d);
        assert_eq!(d, vec![8.0; 60]);
    }
}
