//! The zero-allocation contract of the PCG hot loop, verified with a
//! counting global allocator: after a [`PcgWorkspace`] is constructed (and
//! warmed once), repeated `pcg_solve_into` calls — the ω-sweep pattern —
//! perform **no heap allocation at all**; and the Lanczos spectrum
//! estimate allocates the same at any step budget.

use mspcg::coloring::Coloring;
use mspcg::core::mstep::MStepSsorPreconditioner;
use mspcg::core::multi::{pcg_solve_multi, MultiRhsWorkspace};
use mspcg::core::pcg::{pcg_solve_into, PcgOptions, PcgWorkspace};
use mspcg::fem::plate::PlaneStressProblem;
use mspcg::fem::poisson::poisson5;
use mspcg::sparse::lanczos::lanczos_extremes;
use mspcg::sparse::{CooMatrix, CsrMatrix, Partition};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};

/// System allocator with an allocation-event counter.
struct CountingAlloc;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

fn allocation_count() -> u64 {
    ALLOCATIONS.load(Ordering::Relaxed)
}

/// The counter is process global and the test harness runs tests on
/// parallel threads: without this lock one test's set-up allocations land
/// inside the other's measured window. Every test holds it throughout.
fn counter_lock() -> MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

/// Red/black 1-D Laplacian in color-blocked form.
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
    let ord = Coloring::from_labels(labels, 2).unwrap().ordering();
    (ord.permute_matrix(&a).unwrap(), ord.partition)
}

#[test]
fn omega_sweep_solves_allocate_nothing_after_workspace_construction() {
    let _guard = counter_lock();
    let n = 256usize;
    let (a, p) = rb_laplacian(n);
    let matrix = Arc::new(a);
    let colors = Arc::new(p);
    let rhs: Vec<f64> = (0..n)
        .map(|i| ((i * 7 + 3) % 23) as f64 * 0.1 - 1.0)
        .collect();
    let opts = PcgOptions {
        tol: 1e-9,
        ..Default::default()
    };

    // Preconditioner construction allocates (splitting tables, coefficient
    // vectors) — that is setup, not the hot loop.
    let omegas = [0.6, 0.8, 1.0, 1.2, 1.4];
    let pres: Vec<_> = omegas
        .iter()
        .map(|&w| {
            MStepSsorPreconditioner::unparametrized_omega_shared(
                Arc::clone(&matrix),
                Arc::clone(&colors),
                2,
                w,
            )
            .unwrap()
        })
        .collect();

    let mut ws = PcgWorkspace::new(n);
    let mut u = vec![0.0; n];

    // Warm once (first call may fault in lazily initialized runtime state).
    let warm = pcg_solve_into(&matrix, &rhs, &mut u, &pres[0], &opts, &mut ws).unwrap();
    assert!(warm.converged);

    let mut iteration_total = 0usize;
    let before = allocation_count();
    for pre in &pres {
        u.fill(0.0);
        let rep = pcg_solve_into(&matrix, &rhs, &mut u, pre, &opts, &mut ws).unwrap();
        assert!(rep.converged);
        iteration_total += rep.iterations;
    }
    let after = allocation_count();
    assert!(iteration_total > 0);
    assert_eq!(
        after - before,
        0,
        "PCG hot loop allocated {} time(s) across {} ω-sweep solves",
        after - before,
        omegas.len()
    );
}

#[test]
fn multi_rhs_batch_solves_allocate_nothing_after_workspace_construction() {
    let _guard = counter_lock();
    // The batched solver's contract: 32 load cases against one plate
    // stiffness matrix, zero heap allocation per batch once the workspace
    // is warm.
    let nrhs = 32usize;
    let asm = PlaneStressProblem::unit_square(10).assemble().unwrap();
    let ord = asm.multicolor().unwrap();
    let n = ord.matrix.rows();
    let matrix = Arc::new(ord.matrix);
    let colors = Arc::new(ord.colors);
    let pre =
        MStepSsorPreconditioner::unparametrized_shared(Arc::clone(&matrix), Arc::clone(&colors), 2)
            .unwrap();
    // 32 load cases: the assembled edge load under per-case scale factors.
    let f: Vec<f64> = (0..nrhs)
        .flat_map(|j| {
            let scale = 1.0 + 0.1 * j as f64;
            ord.rhs.iter().map(move |v| v * scale)
        })
        .collect();
    let mut u = vec![0.0; nrhs * n];
    let opts = PcgOptions {
        tol: 1e-9,
        ..Default::default()
    };
    let mut ws = MultiRhsWorkspace::new(n, nrhs);

    // Warm once: sizes every lane workspace (including the per-lane
    // preconditioner scratch) and the outcome table.
    let warm = pcg_solve_multi(&matrix, &f, &mut u, &pre, &opts, &mut ws).unwrap();
    assert_eq!(warm.converged, nrhs);

    let before = allocation_count();
    u.fill(0.0);
    let sum = pcg_solve_multi(&matrix, &f, &mut u, &pre, &opts, &mut ws).unwrap();
    let after = allocation_count();
    assert_eq!(sum.converged, nrhs);
    assert!(sum.total_iterations > 0);
    assert_eq!(
        after - before,
        0,
        "multi-RHS batch allocated {} time(s) across {} solves",
        after - before,
        nrhs
    );
}

#[test]
fn lanczos_estimate_allocations_do_not_grow_with_the_step_count() {
    let _guard = counter_lock();
    // The spectrum estimate keeps a fixed set of n-vectors whatever its
    // step budget: a per-step basis vector must not come back.
    let a = poisson5(64).unwrap().matrix;
    let n = a.rows();
    let count = |steps: usize| {
        let before = allocation_count();
        let est = lanczos_extremes(n, steps, 0x5EED, |x, y| a.mul_vec_into(x, y)).unwrap();
        let after = allocation_count();
        assert_eq!(est.steps, steps);
        after - before
    };
    // Warm once so lazy pool start-up lands outside both windows.
    count(10);
    let short = count(10);
    let long = count(60);
    assert_eq!(
        short, long,
        "lanczos_extremes allocated {short} time(s) at 10 steps but {long} at 60"
    );
}
