//! Data-parallel execution engine for the numeric kernels.
//!
//! The multicolor machinery of the paper makes every hot loop of the m-step
//! SSOR PCG *embarrassingly parallel per color block* (rows within one color
//! update independently) and every BLAS-1 kernel embarrassingly parallel per
//! element. This module provides the shared substrate the kernels in
//! [`crate::vecops`], [`crate::csr`] and `mspcg-core`'s multicolor SSOR run
//! on:
//!
//! * a **persistent worker pool** built on `std` threads (no external
//!   runtime), woken per kernel launch and parked in between,
//! * **fixed chunking**: every kernel splits its index space into chunks
//!   whose boundaries depend only on the problem size — *never* on the
//!   thread count — and distributes whole chunks to workers,
//! * **deterministic reductions**: dot products and norms accumulate one
//!   partial per chunk and combine the partials in ascending chunk order,
//!   so the result is bitwise identical for 1, 2, 4 or 8 threads, and
//!   bitwise identical between the serial and parallel code paths,
//! * an **adaptive serial fallback**: kernels below a work threshold (or
//!   when one thread is configured) run inline with zero synchronization.
//!
//! ## Thread count
//!
//! The pool holds a fixed set of workers sized at first use. The *effective*
//! thread count defaults to the hardware parallelism, can be pinned with the
//! `MSPCG_THREADS` environment variable, and can be changed at runtime with
//! [`set_max_threads`] (the determinism tests sweep 1, 2, 4, 8 this way).

use crate::tuning;
use std::ops::Range;

/// Upper bound on reduction partials (and on chunks handed out per kernel
/// launch). Chosen so partial arrays fit on the stack while still giving
/// 16 threads a ≥ 16-way load-balancing margin.
pub const MAX_PARTIALS: usize = 256;

/// Minimum elements per reduction chunk: below this, splitting buys nothing
/// and the partial array would be dominated by loop overhead.
pub const MIN_REDUCTION_CHUNK: usize = 1024;

/// Chunk layout for a deterministic reduction over `n` elements: returns
/// `(chunk_size, num_chunks)` with `num_chunks <= MAX_PARTIALS`. Depends
/// only on `n`, which is what makes the reduction thread-count-insensitive.
#[inline]
pub fn reduction_layout(n: usize) -> (usize, usize) {
    if n == 0 {
        return (1, 0);
    }
    let chunk = n.div_ceil(MAX_PARTIALS).max(MIN_REDUCTION_CHUNK);
    (chunk, n.div_ceil(chunk))
}

/// Chunk layout for **nnz-weighted** sparse row kernels: returns
/// `(chunk_nnz, num_chunks)` so that each chunk covers roughly `chunk_nnz`
/// stored entries rather than a fixed row count. Row-count chunking lets a
/// run of dense-ish rows serialize the pool on irregular FEM matrices; the
/// nnz weighting balances actual work. Depends only on `nnz` (and the
/// compile-time [`tuning::MIN_SPMV_CHUNK_NNZ`] threshold), never on the
/// thread count, so layouts stay deterministic.
#[inline]
pub fn spmv_layout(nnz: usize) -> (usize, usize) {
    if nnz == 0 {
        return (1, 0);
    }
    let chunk = nnz.div_ceil(MAX_PARTIALS).max(tuning::MIN_SPMV_CHUNK_NNZ);
    (chunk, nnz.div_ceil(chunk))
}

/// Row range owned by nnz-weighted chunk `c` of a CSR matrix with row
/// pointer array `row_ptr`: row `r` belongs to chunk
/// `row_ptr[r] / chunk_nnz` (prefix-sum bucketing), so consecutive chunks
/// hold disjoint, exhaustive, ascending row ranges whose stored-entry
/// counts are within one row of `chunk_nnz`. The final chunk absorbs any
/// trailing empty rows.
#[inline]
pub fn spmv_chunk_rows(row_ptr: &[usize], chunk_nnz: usize, c: usize) -> Range<usize> {
    spmv_chunk_rows_range(row_ptr, 0..row_ptr.len() - 1, chunk_nnz, c)
}

/// [`spmv_chunk_rows`] restricted to the row block `rows` of a prefix-sum
/// array: stored-entry counts are measured relative to
/// `row_ptr[rows.start]`, and `chunk_nnz` must come from
/// `spmv_layout(row_ptr[rows.end] − row_ptr[rows.start])`. This is the
/// schedule the multicolor SSOR color sweeps use — each color block is
/// chunked by the work its rows actually carry, not by row count — and any
/// prefix-sum array works (the SELL-C-σ kernel feeds per-slice prefix
/// sums through the same machinery).
#[inline]
pub fn spmv_chunk_rows_range(
    row_ptr: &[usize],
    rows: Range<usize>,
    chunk_nnz: usize,
    c: usize,
) -> Range<usize> {
    let base = row_ptr[rows.start];
    let nnz = row_ptr[rows.end] - base;
    let (_, nchunks) = spmv_layout(nnz);
    let blk = &row_ptr[rows.start..rows.end];
    let lo = rows.start + blk.partition_point(|&x| x - base < c * chunk_nnz);
    let hi = if c + 1 >= nchunks {
        rows.end
    } else {
        rows.start + blk.partition_point(|&x| x - base < (c + 1) * chunk_nnz)
    };
    lo..hi
}

/// A shared mutable `f64` slice for disjoint-index parallel writes.
///
/// The multicolor contract ("each row inside a color block is written by
/// exactly one chunk, reads touch only other blocks") cannot be expressed
/// with `&mut` splitting, so — exactly like `mspcg-parallel`'s `SharedVec`
/// — writers go through raw-pointer accessors whose safety contracts
/// restate the discipline.
pub struct ParSlice<'a> {
    ptr: *mut f64,
    len: usize,
    _marker: std::marker::PhantomData<&'a mut [f64]>,
}

// SAFETY: all access goes through the `unsafe` accessors below, whose
// contracts require disjoint writes and no read/write overlap within one
// parallel region; regions are separated by the pool's completion barrier.
unsafe impl Sync for ParSlice<'_> {}
unsafe impl Send for ParSlice<'_> {}

impl<'a> ParSlice<'a> {
    /// Wrap a mutable slice for the duration of one parallel region.
    pub fn new(data: &'a mut [f64]) -> Self {
        ParSlice {
            ptr: data.as_mut_ptr(),
            len: data.len(),
            _marker: std::marker::PhantomData,
        }
    }

    /// Length of the underlying slice.
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when empty.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Read element `i`.
    ///
    /// # Safety
    /// No chunk may concurrently write index `i` in this parallel region.
    #[inline]
    pub unsafe fn get(&self, i: usize) -> f64 {
        debug_assert!(i < self.len);
        // SAFETY: in-bounds by the debug assert; no concurrent writer by
        // the forwarded contract.
        unsafe { *self.ptr.add(i) }
    }

    /// Write element `i`.
    ///
    /// # Safety
    /// Index `i` must be written by at most one chunk in this parallel
    /// region, and not read concurrently.
    #[inline]
    pub unsafe fn set(&self, i: usize, v: f64) {
        debug_assert!(i < self.len);
        // SAFETY: as above.
        unsafe { *self.ptr.add(i) = v }
    }

    /// Exclusive subslice for one chunk.
    ///
    /// # Safety
    /// `range` must be disjoint from every other chunk's write range and
    /// not read concurrently during this parallel region.
    #[inline]
    #[allow(clippy::mut_from_ref)]
    pub unsafe fn slice_mut(&self, range: Range<usize>) -> &mut [f64] {
        debug_assert!(range.end <= self.len);
        // SAFETY: disjointness by the forwarded contract.
        unsafe { std::slice::from_raw_parts_mut(self.ptr.add(range.start), range.len()) }
    }
}

/// Parse an `MSPCG_THREADS` value: `Some(n)` for a positive integer,
/// `None` for anything else (`0`, empty, non-numeric, overflow). A budget
/// of zero threads is meaningless — it would describe an empty pool — so
/// it is invalid rather than silently promoted. Uses the
/// [`tuning::parse_positive`] rules.
pub fn parse_thread_budget(raw: &str) -> Option<usize> {
    tuning::parse_positive(raw)
}

/// Effective thread count for a kernel touching `work` scalar items: 1 when
/// parallelism is disabled, unconfigured, or the kernel is too small to
/// amortize a pool launch.
#[inline]
pub fn threads_for(work: usize, min_work: usize) -> usize {
    let t = max_threads();
    if t <= 1 || work < min_work {
        1
    } else {
        t
    }
}

/// Run `body(chunk_index)` for every chunk in `0..nchunks`, distributing
/// whole chunks across `threads` participants (the calling thread plus
/// pool workers). With `threads <= 1` or a single chunk the loop runs
/// inline. Chunks are claimed through a shared counter, so *which thread*
/// runs a chunk varies — the kernels must only depend on chunk boundaries,
/// which are fixed by the layout functions.
pub fn for_each_chunk(nchunks: usize, threads: usize, body: &(dyn Fn(usize) + Sync)) {
    if threads <= 1 || nchunks <= 1 {
        for c in 0..nchunks {
            body(c);
        }
        return;
    }
    imp::run_chunked(nchunks, threads, body);
}

pub use imp::{max_threads, pool_capacity, serialized, set_max_threads};

mod imp {
    //! The persistent worker pool.

    use std::panic::AssertUnwindSafe;
    use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
    use std::sync::{Condvar, Mutex, MutexGuard, OnceLock};

    /// Erased job pointer handed to the workers. The lifetime is erased;
    /// soundness comes from `broadcast` blocking until every participant
    /// has finished before returning (so the borrow outlives all uses).
    #[derive(Clone, Copy)]
    struct JobPtr(*const (dyn Fn() + Sync + 'static));
    // SAFETY: the pointee is Sync and outlives the job (see above).
    unsafe impl Send for JobPtr {}

    struct JobState {
        /// Bumped once per broadcast; workers sleep until it changes.
        epoch: u64,
        /// Workers allowed to join the current job (worker index < limit).
        limit: usize,
        /// Participating workers that have not yet finished.
        active: usize,
        job: Option<JobPtr>,
    }

    struct Shared {
        state: Mutex<JobState>,
        work_cv: Condvar,
        done_cv: Condvar,
        panicked: AtomicBool,
    }

    struct Pool {
        shared: &'static Shared,
        /// Workers + the calling thread.
        capacity: usize,
        /// Serializes broadcasts from different calling threads.
        run_lock: Mutex<()>,
    }

    fn lock(m: &Mutex<JobState>) -> MutexGuard<'_, JobState> {
        m.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Execution slots the pool will have once spawned. Pure — consulting
    /// it must not construct the pool, so serial-only processes (small
    /// kernels, `MSPCG_THREADS=1`) never spawn idle workers.
    fn capacity() -> usize {
        let hw = std::thread::available_parallelism()
            .map(|p| p.get())
            .unwrap_or(1);
        // Keep at least 8 slots so the determinism tests can exercise
        // real multi-thread schedules even on small CI boxes.
        hw.clamp(8, 16)
    }

    fn pool() -> &'static Pool {
        static POOL: OnceLock<Pool> = OnceLock::new();
        POOL.get_or_init(|| {
            let capacity = capacity();
            let shared: &'static Shared = Box::leak(Box::new(Shared {
                state: Mutex::new(JobState {
                    epoch: 0,
                    limit: 0,
                    active: 0,
                    job: None,
                }),
                work_cv: Condvar::new(),
                done_cv: Condvar::new(),
                panicked: AtomicBool::new(false),
            }));
            for w in 1..capacity {
                std::thread::Builder::new()
                    .name(format!("mspcg-par-{w}"))
                    .spawn(move || worker_loop(shared, w))
                    .expect("failed to spawn pool worker");
            }
            Pool {
                shared,
                capacity,
                run_lock: Mutex::new(()),
            }
        })
    }

    fn worker_loop(shared: &'static Shared, index: usize) {
        let mut last_epoch = 0u64;
        loop {
            let job = {
                let mut st = lock(&shared.state);
                while st.epoch == last_epoch {
                    st = shared.work_cv.wait(st).unwrap_or_else(|e| e.into_inner());
                }
                last_epoch = st.epoch;
                if index < st.limit {
                    st.job
                } else {
                    None
                }
            };
            let Some(job) = job else { continue };
            // Mark this thread as inside a job so that kernels launched
            // *from* the job body run inline instead of re-entering the
            // pool (which would deadlock on the run lock).
            IN_JOB.with(|c| c.set(true));
            // SAFETY: `broadcast` keeps the closure alive until `active`
            // drains to zero, which happens only after this call returns.
            let result = std::panic::catch_unwind(AssertUnwindSafe(|| unsafe { (*job.0)() }));
            IN_JOB.with(|c| c.set(false));
            if result.is_err() {
                shared.panicked.store(true, Ordering::Release);
            }
            let mut st = lock(&shared.state);
            st.active -= 1;
            if st.active == 0 {
                shared.done_cv.notify_all();
            }
        }
    }

    thread_local! {
        /// Set while this thread executes inside a pool job — nested kernel
        /// launches then run inline instead of deadlocking on the run lock.
        static IN_JOB: std::cell::Cell<bool> = const { std::cell::Cell::new(false) };
    }

    /// Run `f` once on the calling thread and once on each of
    /// `participants - 1` workers, returning after all have finished.
    fn broadcast(participants: usize, f: &(dyn Fn() + Sync)) {
        let pool = pool();
        let workers = participants.min(pool.capacity).saturating_sub(1);
        if workers == 0 || IN_JOB.with(|c| c.get()) {
            f();
            return;
        }
        let _serial = pool.run_lock.lock().unwrap_or_else(|e| e.into_inner());
        // SAFETY: lifetime erasure is sound because this function does not
        // return until `active == 0`, i.e. until no worker can touch `f`.
        let job = unsafe {
            JobPtr(std::mem::transmute::<
                *const (dyn Fn() + Sync),
                *const (dyn Fn() + Sync + 'static),
            >(f as *const (dyn Fn() + Sync)))
        };
        {
            let mut st = lock(&pool.shared.state);
            st.job = Some(job);
            st.limit = workers + 1;
            st.active = workers;
            st.epoch = st.epoch.wrapping_add(1);
            pool.shared.work_cv.notify_all();
        }
        IN_JOB.with(|c| c.set(true));
        let main_result = std::panic::catch_unwind(AssertUnwindSafe(f));
        IN_JOB.with(|c| c.set(false));
        {
            let mut st = lock(&pool.shared.state);
            while st.active > 0 {
                st = pool
                    .shared
                    .done_cv
                    .wait(st)
                    .unwrap_or_else(|e| e.into_inner());
            }
            st.job = None;
        }
        // Consume the worker-panic flag *before* resuming a main-thread
        // panic: if both sides panicked (the common case — they ran the
        // same closure), a caught main panic must not leave the flag set
        // to poison the next unrelated kernel launch.
        let worker_panicked = pool.shared.panicked.swap(false, Ordering::AcqRel);
        if let Err(p) = main_result {
            std::panic::resume_unwind(p);
        }
        if worker_panicked {
            panic!("mspcg-par: a pool worker panicked inside a parallel kernel");
        }
    }

    pub(super) fn run_chunked(nchunks: usize, threads: usize, body: &(dyn Fn(usize) + Sync)) {
        let next = AtomicUsize::new(0);
        broadcast(threads.min(nchunks), &|| loop {
            let c = next.fetch_add(1, Ordering::Relaxed);
            if c >= nchunks {
                break;
            }
            body(c);
        });
    }

    fn default_threads() -> usize {
        // An empty value (`MSPCG_THREADS= cargo test`) counts as unset.
        if let Ok(v) = std::env::var("MSPCG_THREADS").map(|v| v.trim().to_owned()) {
            if !v.is_empty() {
                // Invalid values (`0`, non-numeric) used to be accepted
                // silently — `0` clamped up, garbage fell through to the
                // hardware default, both masking a misconfiguration. Fail
                // loudly in debug builds and pin the budget to a single
                // thread otherwise, which is the conservative reading of
                // "the user asked for almost no parallelism".
                return match super::parse_thread_budget(&v) {
                    Some(n) => n.min(pool_capacity()),
                    None => {
                        debug_assert!(false, "MSPCG_THREADS must be a positive integer, got {v:?}");
                        1
                    }
                };
            }
        }
        std::thread::available_parallelism()
            .map(|p| p.get())
            .unwrap_or(1)
            .min(pool_capacity())
    }

    fn threads_cell() -> &'static AtomicUsize {
        static THREADS: OnceLock<AtomicUsize> = OnceLock::new();
        THREADS.get_or_init(|| AtomicUsize::new(default_threads()))
    }

    /// Total execution slots (workers + the calling thread). Pure: does
    /// not spawn the pool — workers start at the first parallel launch.
    pub fn pool_capacity() -> usize {
        capacity()
    }

    /// Effective thread budget for parallel kernels.
    pub fn max_threads() -> usize {
        threads_cell().load(Ordering::Relaxed)
    }

    /// Set the thread budget (clamped to `1..=pool_capacity()`). Intended
    /// for experiments and the determinism test sweep; kernels pick it up
    /// on their next launch.
    pub fn set_max_threads(n: usize) {
        threads_cell().store(n.clamp(1, pool_capacity()), Ordering::Relaxed);
    }

    /// Run `f` with pool launches from this thread forced inline: any
    /// kernel `f` calls executes serially on the calling thread. For code
    /// that manages its own threads (e.g. the SPMD solver's workers) and
    /// wants the shared kernels without contending for the pool.
    pub fn serialized<R>(f: impl FnOnce() -> R) -> R {
        struct Restore(bool);
        impl Drop for Restore {
            fn drop(&mut self) {
                IN_JOB.with(|c| c.set(self.0));
            }
        }
        let _guard = Restore(IN_JOB.with(|c| c.replace(true)));
        f()
    }
}

/// Serializes tests that sweep the global thread budget, so concurrent
/// test threads cannot interleave `set_max_threads` calls with assertions
/// on `max_threads()` itself.
#[cfg(test)]
pub(crate) fn thread_sweep_lock() -> std::sync::MutexGuard<'static, ()> {
    static LOCK: std::sync::OnceLock<std::sync::Mutex<()>> = std::sync::OnceLock::new();
    LOCK.get_or_init(|| std::sync::Mutex::new(()))
        .lock()
        .unwrap_or_else(|e| e.into_inner())
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn reduction_layout_is_size_only() {
        let (c0, n0) = reduction_layout(0);
        assert_eq!((c0, n0), (1, 0));
        let (c, k) = reduction_layout(10);
        assert_eq!((c, k), (MIN_REDUCTION_CHUNK, 1));
        let (c, k) = reduction_layout(1 << 20);
        assert!(k <= MAX_PARTIALS);
        assert!(c * k >= 1 << 20);
        assert!(c * (k - 1) < 1 << 20);
    }

    #[test]
    fn spmv_layout_is_size_only() {
        assert_eq!(spmv_layout(0), (1, 0));
        let (c, k) = spmv_layout(100);
        assert_eq!((c, k), (tuning::MIN_SPMV_CHUNK_NNZ, 1));
        let (c, k) = spmv_layout(1 << 22);
        assert!(k <= MAX_PARTIALS);
        assert!(c * k >= 1 << 22);
        assert!(c * (k - 1) < 1 << 22);
    }

    #[test]
    fn spmv_chunk_rows_partition_by_nnz_not_row_count() {
        // 6 rows: one dense-ish row up front, then sparse rows. Row-count
        // chunking would pair the dense row with half the sparse ones;
        // nnz weighting must isolate it.
        let row_ptr = vec![0usize, 1000, 1002, 1004, 1006, 1008, 1010];
        let chunk = 512usize;
        let nchunks = 1010usize.div_ceil(chunk);
        let mut covered = Vec::new();
        let mut prev_end = 0usize;
        for c in 0..nchunks {
            let r = spmv_chunk_rows(&row_ptr, chunk, c);
            assert_eq!(r.start, prev_end, "chunks must be contiguous");
            prev_end = r.end;
            covered.extend(r);
        }
        assert_eq!(covered, (0..6).collect::<Vec<_>>());
        // The dense row sits alone in its first chunk(s): chunk 0 covers
        // only row 0 (its 1000 entries span targets 0 and 512).
        assert_eq!(spmv_chunk_rows(&row_ptr, chunk, 0), 0..1);
    }

    #[test]
    fn spmv_chunk_rows_range_covers_a_block_by_nnz() {
        // Rows 2..6 of this prefix sum form a "color block" whose first row
        // is dense; the block-relative chunks must be contiguous,
        // exhaustive within the block, and split by stored entries.
        let row_ptr = vec![0usize, 5, 10, 1010, 1014, 1018, 1022, 1030];
        let rows = 2usize..6;
        let blk_nnz = row_ptr[rows.end] - row_ptr[rows.start];
        let (chunk_nnz, nchunks) = spmv_layout(blk_nnz);
        let mut covered = Vec::new();
        let mut prev_end = rows.start;
        for c in 0..nchunks {
            let r = spmv_chunk_rows_range(&row_ptr, rows.clone(), chunk_nnz, c);
            assert_eq!(r.start, prev_end, "chunks must be contiguous");
            prev_end = r.end;
            covered.extend(r);
        }
        assert_eq!(covered, rows.clone().collect::<Vec<_>>());
        // Whole-matrix chunking is the rows = 0..n special case.
        let (full_chunk, full_chunks) = spmv_layout(row_ptr[7]);
        for c in 0..full_chunks {
            assert_eq!(
                spmv_chunk_rows(&row_ptr, full_chunk, c),
                spmv_chunk_rows_range(&row_ptr, 0..7, full_chunk, c)
            );
        }
    }

    #[test]
    fn spmv_chunk_rows_absorb_trailing_empty_rows() {
        // Trailing empty rows (row_ptr pinned at nnz) must land in the
        // last chunk, not be dropped.
        let row_ptr = vec![0usize, 600, 1200, 1200, 1200];
        let (chunk, nchunks) = spmv_layout(1200);
        let mut covered = Vec::new();
        for c in 0..nchunks {
            covered.extend(spmv_chunk_rows(&row_ptr, chunk, c));
        }
        assert_eq!(covered, (0..4).collect::<Vec<_>>());
    }

    #[test]
    fn thread_budget_parsing_rejects_invalid() {
        assert_eq!(parse_thread_budget("4"), Some(4));
        assert_eq!(parse_thread_budget(" 2 "), Some(2));
        assert_eq!(parse_thread_budget("0"), None);
        assert_eq!(parse_thread_budget(""), None);
        assert_eq!(parse_thread_budget("abc"), None);
        assert_eq!(parse_thread_budget("-3"), None);
        assert_eq!(parse_thread_budget("2.5"), None);
    }

    #[test]
    fn for_each_chunk_visits_every_chunk_once() {
        for threads in [1usize, 2, 4, 8] {
            let hits: Vec<AtomicUsize> = (0..97).map(|_| AtomicUsize::new(0)).collect();
            for_each_chunk(hits.len(), threads, &|c| {
                hits[c].fetch_add(1, Ordering::Relaxed);
            });
            assert!(
                hits.iter().all(|h| h.load(Ordering::Relaxed) == 1),
                "threads = {threads}"
            );
        }
    }

    #[test]
    fn par_slice_disjoint_writes() {
        let mut data = vec![0.0f64; 64];
        {
            let ps = ParSlice::new(&mut data);
            for_each_chunk(8, max_threads().max(2), &|c| {
                let range = c * 8..(c + 1) * 8;
                let chunk = unsafe { ps.slice_mut(range.clone()) };
                for (k, v) in chunk.iter_mut().enumerate() {
                    *v = (range.start + k) as f64;
                }
            });
        }
        for (i, v) in data.iter().enumerate() {
            assert_eq!(*v, i as f64);
        }
    }

    #[test]
    fn threads_for_respects_threshold() {
        assert_eq!(threads_for(10, 1000), 1);
        let t = threads_for(1_000_000, 1000);
        assert!(t >= 1);
        assert_eq!(t, max_threads());
    }

    #[test]
    fn set_max_threads_round_trips() {
        let _guard = thread_sweep_lock();
        let before = max_threads();
        set_max_threads(2);
        assert_eq!(max_threads(), 2);
        set_max_threads(10_000);
        assert_eq!(max_threads(), pool_capacity());
        set_max_threads(before.max(1));
    }

    #[test]
    fn nested_launch_runs_inline() {
        // A kernel body that itself launches a kernel must not deadlock.
        let outer = AtomicUsize::new(0);
        for_each_chunk(4, 4, &|_| {
            for_each_chunk(4, 4, &|_| {
                outer.fetch_add(1, Ordering::Relaxed);
            });
        });
        assert_eq!(outer.load(Ordering::Relaxed), 16);
    }
}
