//! PCG variant contracts of the serial entry points, end to end.
//!
//! The pipelined and s-step recurrences run only on the SPMD executor
//! (`tests/variant_conformance.rs` covers them there). The serial
//! contracts are:
//!
//! * every variant request runs the classic loop: serial and batched
//!   solves requested as pipelined or s-step return the classic solution
//!   bitwise, with identical counters,
//! * the classic loop drives the TRUE relative residual of the plate and
//!   Poisson families below a small multiple of the tolerance, bitwise
//!   reproducibly across thread counts (the xorshift property loop),
//! * the batched multi-RHS driver replays every lane's standalone solve
//!   bitwise.

use mspcg::core::mstep::MStepSsorPreconditioner;
use mspcg::core::multi::{pcg_solve_multi, MultiRhsWorkspace};
use mspcg::core::pcg::{
    pcg_solve, pcg_solve_into, PcgOptions, PcgVariant, PcgWorkspace, StoppingCriterion,
};
use mspcg::fem::plate::PlaneStressProblem;
use mspcg::fem::poisson::poisson5;
use mspcg::sparse::{par, vecops, CsrMatrix, Partition};
use std::sync::{Mutex, MutexGuard, OnceLock};

/// The thread budget is process global; sweep one test at a time.
fn sweep_lock() -> MutexGuard<'static, ()> {
    static LOCK: OnceLock<Mutex<()>> = OnceLock::new();
    LOCK.get_or_init(|| Mutex::new(()))
        .lock()
        .unwrap_or_else(|e| e.into_inner())
}

mod common;
use common::{Rng, ALL_VARIANTS};

fn ordered_plate(a: usize) -> (CsrMatrix, Partition) {
    let asm = PlaneStressProblem::unit_square(a)
        .assemble()
        .expect("plate");
    let ord = asm.multicolor().expect("multicolor");
    (ord.matrix, ord.colors)
}

fn ordered_poisson(n: usize) -> (CsrMatrix, Partition) {
    let p = poisson5(n).expect("poisson");
    let ord = p.coloring.ordering();
    let matrix = ord.permute_matrix(&p.matrix).expect("permute");
    (matrix, ord.partition)
}

fn opts(variant: PcgVariant, tol: f64) -> PcgOptions {
    PcgOptions {
        tol,
        criterion: StoppingCriterion::RelativeResidual,
        variant,
        ..Default::default()
    }
}

/// TRUE relative residual of an iterate (recomputed, not recursive).
fn true_residual(a: &CsrMatrix, b: &[f64], x: &[f64]) -> f64 {
    let mut r = b.to_vec();
    a.mul_vec_axpy(-1.0, x, &mut r);
    vecops::norm2(&r) / vecops::norm2(b).max(1e-300)
}

/// The xorshift property loop: random right-hand sides against the plate
/// and Poisson families at 1/2/4/8 kernel threads. The classic solve must
/// converge, bound its TRUE residual (recomputed, not recursive) by a
/// small multiple of the tolerance, and replay bitwise at every thread
/// count.
#[test]
fn property_loop_classic_across_thread_counts() {
    let _guard = sweep_lock();
    let systems: Vec<(CsrMatrix, Partition, usize)> = vec![
        {
            let (a, p) = ordered_plate(8);
            (a, p, 2)
        },
        {
            let (a, p) = ordered_plate(11);
            (a, p, 3)
        },
        {
            let (a, p) = ordered_poisson(16);
            (a, p, 1)
        },
        {
            let (a, p) = ordered_poisson(23);
            (a, p, 2)
        },
    ];
    let tol = 1e-10;
    let before = par::max_threads();
    let mut rng = Rng::new(0xC0FFEE);
    for (case, (a, colors, m)) in systems.iter().enumerate() {
        let n = a.rows();
        let b: Vec<f64> = (0..n).map(|_| rng.unit() * 2.0 - 1.0).collect();
        let pre = MStepSsorPreconditioner::unparametrized(a, colors, *m).expect("preconditioner");
        let mut reference: Option<Vec<f64>> = None;
        for threads in [1usize, 2, 4, 8] {
            par::set_max_threads(threads);
            let classic = pcg_solve(a, &b, &pre, &opts(PcgVariant::Classic, tol)).expect("classic");
            assert!(classic.converged, "case {case}, threads {threads}");
            // The solve bounds the TRUE residual it reports.
            let res_c = true_residual(a, &b, &classic.x);
            assert!(res_c < 50.0 * tol, "case {case}: classic residual {res_c}");
            // Bitwise thread-count insensitivity.
            match &reference {
                None => reference = Some(classic.x.clone()),
                Some(cx) => assert!(
                    classic
                        .x
                        .iter()
                        .zip(cx)
                        .all(|(u, v)| u.to_bits() == v.to_bits()),
                    "case {case}: classic not thread-count insensitive at {threads}"
                ),
            }
        }
    }
    par::set_max_threads(before);
}

/// Every variant request is served by the classic loop: a serial solve
/// requested as pipelined or s-step returns the classic iterate to the
/// bit with the same iteration count and counters, and so does every lane
/// of a batched solve.
#[test]
fn every_variant_request_runs_the_classic_loop_bitwise() {
    let (a, colors) = ordered_plate(7);
    let n = a.rows();
    let pre = MStepSsorPreconditioner::unparametrized(&a, &colors, 2).expect("preconditioner");
    let nrhs = 3usize;
    let mut rng = Rng::new(0x5EED);
    let f: Vec<f64> = (0..nrhs * n).map(|_| rng.unit() - 0.5).collect();
    let classic = opts(PcgVariant::Classic, 1e-9);
    let reference = pcg_solve(&a, &f[..n], &pre, &classic).expect("classic");
    let mut ref_batch = vec![0.0; nrhs * n];
    let mut ws = MultiRhsWorkspace::new(n, nrhs);
    pcg_solve_multi(&a, &f, &mut ref_batch, &pre, &classic, &mut ws).expect("classic batch");
    let ref_lanes: Vec<_> = ws.outcomes().iter().map(|o| o.report).collect();
    for variant in ALL_VARIANTS {
        let solve_opts = opts(variant, 1e-9);
        let sol = pcg_solve(&a, &f[..n], &pre, &solve_opts).expect("serial");
        assert!(
            sol.x
                .iter()
                .zip(&reference.x)
                .all(|(x, y)| x.to_bits() == y.to_bits()),
            "{variant:?}: serial iterate differs from classic"
        );
        assert_eq!(sol.iterations, reference.iterations, "{variant:?}");
        assert_eq!(sol.stats, reference.stats, "{variant:?}");

        let mut u = vec![0.0; nrhs * n];
        let mut ws = MultiRhsWorkspace::new(n, nrhs);
        pcg_solve_multi(&a, &f, &mut u, &pre, &solve_opts, &mut ws).expect("batch");
        assert!(
            u.iter()
                .zip(&ref_batch)
                .all(|(x, y)| x.to_bits() == y.to_bits()),
            "{variant:?}: batched iterates differ from classic"
        );
        for (i, (lane, want)) in ws.outcomes().iter().zip(&ref_lanes).enumerate() {
            assert_eq!(
                lane.report.iterations, want.iterations,
                "{variant:?}: RHS {i}"
            );
            assert_eq!(lane.report.stats, want.stats, "{variant:?}: RHS {i}");
        }
    }
}

/// The batched driver replays standalone solves: every lane of a batch
/// equals its standalone solve bitwise, and the batch stays
/// allocation-compatible with the shared workspace.
#[test]
fn multi_rhs_batch_replays_standalone_solves_bitwise() {
    let (a, colors) = ordered_plate(7);
    let n = a.rows();
    let pre = MStepSsorPreconditioner::unparametrized(&a, &colors, 2).expect("preconditioner");
    let nrhs = 5usize;
    let mut rng = Rng::new(42);
    let f: Vec<f64> = (0..nrhs * n).map(|_| rng.unit() - 0.5).collect();
    let solve_opts = opts(PcgVariant::Classic, 1e-9);
    let mut u = vec![0.0; nrhs * n];
    let mut ws = MultiRhsWorkspace::new(n, nrhs);
    let summary = pcg_solve_multi(&a, &f, &mut u, &pre, &solve_opts, &mut ws).expect("batch");
    assert_eq!(summary.converged, nrhs);
    let mut single_ws = PcgWorkspace::new(n);
    for i in 0..nrhs {
        let mut ui = vec![0.0; n];
        let rep = pcg_solve_into(
            &a,
            &f[i * n..(i + 1) * n],
            &mut ui,
            &pre,
            &solve_opts,
            &mut single_ws,
        )
        .expect("standalone");
        assert!(
            u[i * n..(i + 1) * n]
                .iter()
                .zip(&ui)
                .all(|(x, y)| x.to_bits() == y.to_bits()),
            "RHS {i} differs from its standalone solve"
        );
        let lane = &ws.outcomes()[i].report;
        assert_eq!(lane.iterations, rep.iterations, "RHS {i}");
        assert_eq!(lane.stats, rep.stats, "RHS {i}");
    }
}
