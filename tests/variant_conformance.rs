//! Cross-variant conformance harness.
//!
//! **One** parameterized property loop runs *every* [`PcgVariant`] ×
//! {serial, SPMD 1/2/4/8 threads} × {plate, Poisson, arrow} × formats
//! {CSR, SELL-C-σ} and asserts, for every cell of that matrix:
//!
//! * **(a) convergence to the same tolerance** — the solve reports
//!   converged and the TRUE recomputed residual `‖f − Ku‖/‖f‖` is below a
//!   common bound,
//! * **(b) bitwise within-variant replay** — the same configuration
//!   solved twice returns bit-identical iterates and identical iteration
//!   counts (the determinism contract; *across* variants only closeness
//!   is promised, the recurrences follow different rounding paths),
//! * **(c) iteration counts within a fixed slack across variants** —
//!   every cell stays within [`ITER_SLACK`] of the serial classic CSR
//!   baseline of its family.
//!
//! Every cell runs with the default recovery policy and again with
//! residual auditing + replacement forced on ([`RecoveryPolicy::on`] at a
//! short audit period): a clean solve must absorb the audit phases on
//! every variant and executor.
//!
//! A future variant inherits the whole matrix by adding one entry to
//! `common::ALL_VARIANTS`: the closed `match` in its exhaustiveness guard
//! refuses to compile until the new enum entry is listed, so the coverage
//! cannot silently lag the enum.

use mspcg::coloring::Coloring;
use mspcg::core::mstep::MStepSsorPreconditioner;
use mspcg::core::pcg::{pcg_solve, PcgOptions, PcgVariant, StoppingCriterion};
use mspcg::core::poly::PolynomialPreconditioner;
use mspcg::core::recovery::{RecoveryPolicy, Toggle};
use mspcg::fem::plate::PlaneStressProblem;
use mspcg::fem::poisson::poisson5;
use mspcg::parallel::{ParallelMStepPcg, ParallelSolverOptions};
use mspcg::sparse::{vecops, CooMatrix, CsrMatrix, Partition, PolyKind, SellCsMatrix};

/// The paper's displacement test, common to the serial and SPMD solvers.
const TOL: f64 = 1e-8;
/// Bound on the TRUE recomputed relative residual at convergence.
const RES_BOUND: f64 = 1e-6;
/// Fixed slack on iteration counts across variants and executors.
const ITER_SLACK: isize = 10;

mod common;
use common::{Rng, ALL_VARIANTS};

/// One test family: a color-blocked SPD system plus its preconditioner
/// depth.
struct Family {
    name: &'static str,
    matrix: CsrMatrix,
    colors: Partition,
    m: usize,
}

/// The wide-row arrow family (one dense condensation row over a
/// tridiagonal body) in a 3-color blocking: {row 0}, {odd}, {even ≥ 2} —
/// row 0 couples only outwards, body rows couple to the other parity and
/// to row 0, so no color block carries internal coupling.
fn arrow_family(n: usize) -> (CsrMatrix, Partition) {
    let mut coo = CooMatrix::new(n, n);
    for i in 0..n {
        coo.push(i, i, 8.0).unwrap();
        if i + 1 < n {
            coo.push_sym(i, i + 1, -1.0).unwrap();
        }
    }
    // The arrow head: small symmetric couplings from row 0 to the whole
    // body (skipping column 1, already a tridiagonal neighbour). Strict
    // diagonal dominance keeps the matrix SPD.
    for j in 2..n {
        coo.push_sym(0, j, -2e-3).unwrap();
    }
    let a = coo.to_csr();
    let labels: Vec<usize> = (0..n)
        .map(|i| {
            if i == 0 {
                0
            } else if i % 2 == 1 {
                1
            } else {
                2
            }
        })
        .collect();
    let ord = Coloring::from_labels(labels, 3).unwrap().ordering();
    (ord.permute_matrix(&a).unwrap(), ord.partition)
}

fn families() -> Vec<Family> {
    let plate = {
        let asm = PlaneStressProblem::unit_square(8).assemble().unwrap();
        let ord = asm.multicolor().unwrap();
        Family {
            name: "plate",
            matrix: ord.matrix,
            colors: ord.colors,
            m: 2,
        }
    };
    let poisson = {
        let p = poisson5(16).unwrap();
        let ord = p.coloring.ordering();
        Family {
            name: "poisson",
            matrix: ord.permute_matrix(&p.matrix).unwrap(),
            colors: ord.partition,
            m: 3,
        }
    };
    let arrow = {
        let (matrix, colors) = arrow_family(120);
        Family {
            name: "arrow",
            matrix,
            colors,
            m: 1,
        }
    };
    vec![plate, poisson, arrow]
}

/// Audit period of the recovery-on cells: short enough that every
/// family's solve crosses several audits.
const AUDIT_PERIOD: usize = 4;

/// Residual auditing + replacement forced on, at [`AUDIT_PERIOD`].
fn audited() -> RecoveryPolicy {
    RecoveryPolicy {
        audit_period: AUDIT_PERIOD,
        ..RecoveryPolicy::on()
    }
}

/// Every variant, under the default recovery policy and under [`audited`].
fn variant_policies() -> impl Iterator<Item = (PcgVariant, RecoveryPolicy)> {
    ALL_VARIANTS
        .into_iter()
        .flat_map(|v| [(v, RecoveryPolicy::default()), (v, audited())])
}

/// A recovery-on solve long enough to reach two audit points must have
/// audited at least once, so the axis cannot pass vacuously.
fn check_audits(recovery: &RecoveryPolicy, audits: usize, iterations: usize) {
    if recovery.replacement == Toggle::On && iterations > 2 * recovery.period() {
        assert!(audits > 0, "{iterations} iterations without an audit");
    }
}

/// TRUE relative residual of an iterate (recomputed, not recursive).
fn true_residual(a: &CsrMatrix, b: &[f64], x: &[f64]) -> f64 {
    let mut r = b.to_vec();
    a.mul_vec_axpy(-1.0, x, &mut r);
    vecops::norm2(&r) / vecops::norm2(b).max(1e-300)
}

/// One conformance cell: solve twice, assert convergence + bitwise
/// replay, return the (replay-checked) iterate and iteration count.
fn run_cell(
    label: &str,
    solve: &mut dyn FnMut() -> (Vec<f64>, usize),
    a: &CsrMatrix,
    b: &[f64],
) -> (Vec<f64>, usize) {
    let (x1, it1) = solve();
    let (x2, it2) = solve();
    // (b) bitwise within-variant replay.
    assert_eq!(it1, it2, "{label}: replay changed the iteration count");
    assert!(
        x1.iter().zip(&x2).all(|(u, v)| u.to_bits() == v.to_bits()),
        "{label}: replay is not bitwise identical"
    );
    // (a) convergence to the same tolerance, via the TRUE residual.
    let res = true_residual(a, b, &x1);
    assert!(res < RES_BOUND, "{label}: true residual {res}");
    (x1, it1)
}

/// The parameterized conformance loop of the issue: every variant ×
/// executor × family × format, in one place.
#[test]
fn every_variant_conforms_across_executors_families_and_formats() {
    let mut rng = Rng::new(0xD1CE);
    for family in families() {
        let a = &family.matrix;
        let n = a.rows();
        let sell = SellCsMatrix::from_csr_default(a);
        let b: Vec<f64> = (0..n).map(|_| rng.unit() * 2.0 - 1.0).collect();
        let pre = MStepSsorPreconditioner::unparametrized(a, &family.colors, family.m)
            .expect("preconditioner");
        let spmd_csr = ParallelMStepPcg::new(a, &family.colors, vec![1.0; family.m]).unwrap();
        let spmd_sell = ParallelMStepPcg::new(&sell, &family.colors, vec![1.0; family.m]).unwrap();

        // (c) baseline: serial classic on CSR.
        let baseline = {
            let opts = PcgOptions {
                tol: TOL,
                criterion: StoppingCriterion::DisplacementChange,
                variant: PcgVariant::Classic,
                ..Default::default()
            };
            pcg_solve(a, &b, &pre, &opts).expect("baseline").iterations as isize
        };

        let check_iters = |label: &str, iters: usize| {
            assert!(
                (iters as isize - baseline).abs() <= ITER_SLACK,
                "{label}: {iters} iterations vs baseline {baseline}"
            );
        };

        for (variant, recovery) in variant_policies() {
            let policy = recovery.replacement;
            let serial_opts = PcgOptions {
                tol: TOL,
                criterion: StoppingCriterion::DisplacementChange,
                variant,
                recovery,
                ..Default::default()
            };
            // Serial executor, both storage formats. The solvers are
            // generic over `SparseOp`; the preconditioner sees identical
            // structure either way.
            {
                let label = format!("{}/serial/csr/{variant:?}/{policy:?}", family.name);
                let (_, iters) = run_cell(
                    &label,
                    &mut || {
                        let s = pcg_solve(a, &b, &pre, &serial_opts).expect("serial csr");
                        assert!(s.converged);
                        check_audits(&recovery, s.stats.audits, s.iterations);
                        (s.x, s.iterations)
                    },
                    a,
                    &b,
                );
                check_iters(&label, iters);
            }
            {
                let label = format!("{}/serial/sellcs/{variant:?}/{policy:?}", family.name);
                let (_, iters) = run_cell(
                    &label,
                    &mut || {
                        let s = pcg_solve(&sell, &b, &pre, &serial_opts).expect("serial sell");
                        assert!(s.converged);
                        check_audits(&recovery, s.stats.audits, s.iterations);
                        (s.x, s.iterations)
                    },
                    a,
                    &b,
                );
                check_iters(&label, iters);
            }
            // SPMD executor at 1/2/4/8 workers, both formats. A
            // recurrence variant that falls back near convergence reports
            // the classic schedule — conformance only requires the
            // *solve* to conform, so the report's variant is not pinned
            // here (the schedule itself is pinned by the counter tests).
            for threads in [1usize, 2, 4, 8] {
                let spmd_opts = ParallelSolverOptions {
                    threads,
                    tol: TOL,
                    max_iterations: 50_000,
                    variant,
                    recovery,
                };
                for (fmt, solver) in [("csr", &spmd_csr), ("sellcs", &spmd_sell)] {
                    let label =
                        format!("{}/spmd{threads}/{fmt}/{variant:?}/{policy:?}", family.name);
                    let (_, iters) = run_cell(
                        &label,
                        &mut || {
                            let rep = solver.solve(&b, &spmd_opts).expect("spmd");
                            assert!(rep.converged);
                            check_audits(&recovery, rep.audits, rep.iterations);
                            (rep.x, rep.iterations)
                        },
                        a,
                        &b,
                    );
                    check_iters(&label, iters);
                }
            }
        }
    }
}

/// The **polynomial-preconditioner axis** of the same matrix: every
/// variant × executor × family × format again, with the barrier-free
/// Newton–Chebyshev msolve in place of the m-step SSOR sweeps. The degree
/// is `2m` — the flop-matched exchange rate (a degree-`2m` chain streams
/// the matrix as often as `m` forward+backward sweeps) — and the slack
/// baseline is the serial classic CSR *polynomial* solve of each family,
/// since the two preconditioners converge on different iteration counts.
#[test]
fn every_variant_conforms_with_polynomial_preconditioning() {
    let mut rng = Rng::new(0xCEB1);
    for family in families() {
        let a = &family.matrix;
        let n = a.rows();
        let sell = SellCsMatrix::from_csr_default(a);
        let b: Vec<f64> = (0..n).map(|_| rng.unit() * 2.0 - 1.0).collect();
        let degree = 2 * family.m;
        let pre =
            PolynomialPreconditioner::chebyshev(a.clone(), degree).expect("poly preconditioner");
        let spmd_csr =
            ParallelMStepPcg::poly(a, &family.colors, PolyKind::Chebyshev, degree).unwrap();
        let spmd_sell =
            ParallelMStepPcg::poly(&sell, &family.colors, PolyKind::Chebyshev, degree).unwrap();

        // (c) baseline: serial classic on CSR, polynomial msolve.
        let baseline = {
            let opts = PcgOptions {
                tol: TOL,
                criterion: StoppingCriterion::DisplacementChange,
                variant: PcgVariant::Classic,
                ..Default::default()
            };
            pcg_solve(a, &b, &pre, &opts).expect("baseline").iterations as isize
        };

        let check_iters = |label: &str, iters: usize| {
            assert!(
                (iters as isize - baseline).abs() <= ITER_SLACK,
                "{label}: {iters} iterations vs baseline {baseline}"
            );
        };

        for (variant, recovery) in variant_policies() {
            let policy = recovery.replacement;
            let serial_opts = PcgOptions {
                tol: TOL,
                criterion: StoppingCriterion::DisplacementChange,
                variant,
                recovery,
                ..Default::default()
            };
            for (fmt, op) in [("csr", None), ("sellcs", Some(&sell))] {
                let label = format!("{}/serial/{fmt}/{variant:?}/{policy:?}/poly", family.name);
                let (_, iters) = run_cell(
                    &label,
                    &mut || {
                        let s = match op {
                            None => pcg_solve(a, &b, &pre, &serial_opts),
                            Some(sell) => pcg_solve(sell, &b, &pre, &serial_opts),
                        }
                        .expect("serial poly");
                        assert!(s.converged);
                        check_audits(&recovery, s.stats.audits, s.iterations);
                        (s.x, s.iterations)
                    },
                    a,
                    &b,
                );
                check_iters(&label, iters);
            }
            for threads in [1usize, 2, 4, 8] {
                let spmd_opts = ParallelSolverOptions {
                    threads,
                    tol: TOL,
                    max_iterations: 50_000,
                    variant,
                    recovery,
                };
                for (fmt, solver) in [("csr", &spmd_csr), ("sellcs", &spmd_sell)] {
                    let label = format!(
                        "{}/spmd{threads}/{fmt}/{variant:?}/{policy:?}/poly",
                        family.name
                    );
                    let (_, iters) = run_cell(
                        &label,
                        &mut || {
                            let rep = solver.solve(&b, &spmd_opts).expect("spmd poly");
                            assert!(rep.converged);
                            check_audits(&recovery, rep.audits, rep.iterations);
                            (rep.x, rep.iterations)
                        },
                        a,
                        &b,
                    );
                    check_iters(&label, iters);
                }
            }
        }
    }
}
