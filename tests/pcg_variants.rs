//! PCG variant contracts, end to end.
//!
//! The pipelined and s-step recurrences follow different-but-bounded
//! rounding paths from the classic two-dot loop, so the contract is not
//! bitwise equality across variants — it is:
//!
//! * the classic loop drives the TRUE relative residual of the plate and
//!   Poisson families below a small multiple of the tolerance, bitwise
//!   reproducibly across thread counts (the xorshift property loop
//!   below; `tests/variant_conformance.rs` covers every variant),
//! * recurrence breakdown falls back to the classic loop from the
//!   current iterate instead of failing the solve,
//! * the batched multi-RHS driver threads every variant through
//!   unchanged: every lane replays its standalone solve bitwise.

use mspcg::core::mstep::MStepSsorPreconditioner;
use mspcg::core::multi::{pcg_solve_multi, MultiRhsWorkspace};
use mspcg::core::pcg::{
    pcg_solve, pcg_solve_into, PcgOptions, PcgVariant, PcgWorkspace, StoppingCriterion,
};
use mspcg::core::preconditioner::Preconditioner;
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

/// The batched driver threads the variant through untouched: every lane
/// of a batch replays its standalone solve bitwise under every variant,
/// and the batch stays allocation-compatible with the shared workspace.
#[test]
fn multi_rhs_batch_replays_standalone_solves_bitwise_for_every_variant() {
    let (a, colors) = ordered_plate(7);
    let n = a.rows();
    let pre = MStepSsorPreconditioner::unparametrized(&a, &colors, 2).expect("preconditioner");
    let nrhs = 5usize;
    let mut rng = Rng::new(42);
    let f: Vec<f64> = (0..nrhs * n).map(|_| rng.unit() - 0.5).collect();
    for variant in ALL_VARIANTS {
        let solve_opts = opts(variant, 1e-9);
        let mut u = vec![0.0; nrhs * n];
        let mut ws = MultiRhsWorkspace::new(n, nrhs);
        let summary = pcg_solve_multi(&a, &f, &mut u, &pre, &solve_opts, &mut ws).expect("batch");
        assert_eq!(summary.converged, nrhs, "{variant:?}");
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
                "{variant:?}: RHS {i} differs from its standalone solve"
            );
            let lane = &ws.outcomes()[i].report;
            assert_eq!(lane.iterations, rep.iterations, "{variant:?}: RHS {i}");
            assert_eq!(lane.stats, rep.stats, "{variant:?}: RHS {i}");
            // The pipelined counter survives the batch path: one
            // reduction phase per iteration (+1 init; converging
            // relative-residual iterations run theirs).
            if variant == PcgVariant::Pipelined {
                assert!(
                    lane.stats.reduction_phases <= rep.iterations + 1,
                    "RHS {i}: {} phases for {} iterations",
                    lane.stats.reduction_phases,
                    rep.iterations
                );
            }
        }
    }
}

/// The adversarial preconditioner of the breakdown tests: the identity on
/// every application except one, where it adds a huge constant component
/// — a low-curvature direction that sends the recurrence's reconstructed
/// denominator nonpositive while the matrix itself stays SPD.
struct AdversarialPreconditioner {
    n: usize,
    at_call: usize,
    calls: std::cell::Cell<usize>,
}

impl Preconditioner for AdversarialPreconditioner {
    fn dim(&self) -> usize {
        self.n
    }
    fn apply(&self, r: &[f64], z: &mut [f64]) {
        let call = self.calls.get();
        self.calls.set(call + 1);
        z.copy_from_slice(r);
        if call == self.at_call {
            // Signed by Σr so the carried γ′ stays positive — the guard
            // that must fire is the denominator/curvature one, the
            // fallback path, not the indefinite-M error.
            let s: f64 = r.iter().sum();
            let t = 1e8f64.copysign(s);
            for zi in z.iter_mut() {
                *zi += t;
            }
        }
    }
}

/// Pipelined-breakdown satellite: the sabotaged application lands on the
/// heavy phase `mv = M⁻¹w`, poisoning the `q`/`z` carries; a guard must
/// fire, the solve must CONTINUE from the current iterate on the classic
/// loop (not restart or error), and the report must say FALLBACK.
#[test]
fn pipelined_breakdown_falls_back_from_current_iterate_and_reports_fallback() {
    let (a, _) = ordered_plate(7);
    let n = a.rows();
    let mut rng = Rng::new(0xBAD5EED);
    let b: Vec<f64> = (0..n).map(|_| rng.unit() * 2.0 - 1.0).collect();
    let pre = AdversarialPreconditioner {
        n,
        at_call: 4,
        calls: std::cell::Cell::new(0),
    };
    let solve_opts = opts(PcgVariant::Pipelined, 1e-10);
    let sol = pcg_solve(&a, &b, &pre, &solve_opts).expect("fallback must rescue the solve");
    assert!(sol.converged);
    // The report says FALLBACK.
    assert_eq!(sol.stats.fallbacks, 1, "breakdown was not recorded");
    assert!(true_residual(&a, &b, &sol.x) < 50.0 * 1e-10);
    // Continuation, not restart: the classic suffix runs from the current
    // iterate, so its two serialized reduction phases per iteration stack
    // on top of the pipelined prefix's one per iteration…
    assert!(
        sol.stats.reduction_phases >= sol.iterations + 2,
        "{} phases over {} iterations — the classic suffix never ran",
        sol.stats.reduction_phases,
        sol.iterations
    );
    // …and the total stays near an uninterrupted identity-preconditioned
    // classic solve (a restart would roughly double it).
    let clean = pcg_solve(
        &a,
        &b,
        &mspcg::core::preconditioner::IdentityPreconditioner::new(n),
        &opts(PcgVariant::Classic, 1e-10),
    )
    .expect("clean classic");
    assert!(
        sol.iterations <= clean.iterations + clean.iterations / 2 + 8,
        "fallback {} vs clean {} iterations — looks like a restart",
        sol.iterations,
        clean.iterations
    );
}
