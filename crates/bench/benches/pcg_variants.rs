//! Classic vs pipelined (Ghysels–Vanroose) PCG on the Table-3 FEM
//! family (the paper's plane-stress plates) on the SPMD executor, with
//! the serial classic solver as the reference (the serial solver runs the
//! classic loop for every variant).
//!
//! On one or two cores the wall-clock gap between the variants is close
//! to the run-to-run spread — the win is *synchronization*, so every
//! record also carries the counters that prove the schedule:
//! `iterations`, `reductions_per_iter` (exactly 1 for pipelined, 2 for
//! classic), `barriers_per_iter` (SPMD; pipelined
//! `m·(2C−1)` vs classic `m·(2C−1)+3`) and `splits_per_iter` (one
//! reduction *in flight* per iteration — initiated before the
//! preconditioner + SpMV, consumed after). The counter claims are
//! *asserted* here, not just recorded — a schedule regression fails the
//! bench run.
//!
//! Record results: `cargo bench -p mspcg-bench --bench pcg_variants --
//! --json BENCH_pr5.json`.

use mspcg_bench::experiments::ordered_plate;
use mspcg_bench::timing::{bench, finish, BenchResult};
use mspcg_core::{
    pcg_try_solve_into, MStepSsorPreconditioner, PcgOptions, PcgVariant, PcgWorkspace,
};
use mspcg_parallel::{ParallelMStepPcg, ParallelSolverOptions};
use std::sync::Arc;

fn variant_name(variant: PcgVariant) -> &'static str {
    match variant {
        PcgVariant::Pipelined => "pipelined",
        _ => "classic",
    }
}

const VARIANTS: [PcgVariant; 2] = [PcgVariant::Classic, PcgVariant::Pipelined];

/// Serial solver on one Table-3 plate: time the full solve, then replay
/// once to harvest (and verify) the reduction-phase counters. The serial
/// solver runs the classic loop for every variant, so only classic is
/// recorded.
fn bench_serial(results: &mut Vec<BenchResult>, a: usize, m: usize) {
    let (_, ord) = ordered_plate(a).expect("plate");
    let n = ord.matrix.rows();
    let matrix = Arc::new(ord.matrix);
    let colors = Arc::new(ord.colors);
    let pre =
        MStepSsorPreconditioner::unparametrized_shared(Arc::clone(&matrix), Arc::clone(&colors), m)
            .expect("preconditioner");
    let mut ws = PcgWorkspace::new(n);
    let mut u = vec![0.0; n];
    let opts = PcgOptions {
        tol: 1e-8,
        ..Default::default()
    };
    let group = format!("pcg_variant_plate{a}_m{m}");
    let mut record = bench(&group, "classic", || {
        u.fill(0.0);
        pcg_try_solve_into(&matrix, &ord.rhs, &mut u, &pre, &opts, &mut ws).expect("solve");
    });
    u.fill(0.0);
    let rep = pcg_try_solve_into(&matrix, &ord.rhs, &mut u, &pre, &opts, &mut ws).expect("solve");
    assert!(rep.converged, "{group} did not converge");
    assert!(
        rep.stats.reduction_phases >= 2 * rep.iterations - 1,
        "{group}: classic lost a reduction phase"
    );
    let iters = rep.iterations as f64;
    record = record
        .with_extra("iterations", iters)
        .with_extra(
            "reductions_per_iter",
            rep.stats.reduction_phases as f64 / iters,
        )
        .with_extra(
            "inner_products_per_iter",
            rep.stats.inner_products as f64 / iters,
        );
    results.push(record);
}

/// SPMD solver on one Table-3 plate: the instrumented barrier and the
/// replicated-reduction counter expose the schedule even at 1 core.
fn bench_spmd(results: &mut Vec<BenchResult>, a: usize, m: usize, threads: usize) {
    let (_, ord) = ordered_plate(a).expect("plate");
    let c = ord.colors.num_blocks();
    let solver = ParallelMStepPcg::new(&ord.matrix, &ord.colors, vec![1.0; m]).expect("solver");
    let sweep = m * (2 * c - 1);
    for variant in VARIANTS {
        let opts = ParallelSolverOptions {
            threads,
            tol: 1e-8,
            max_iterations: 100_000,
            variant,
            // Pin the exact schedule: the counter assertions below must
            // not absorb audit phases.
            recovery: mspcg_core::RecoveryPolicy::off(),
        };
        let group = format!("spmd_variant_plate{a}_m{m}_t{threads}");
        let mut record = bench(&group, variant_name(variant), || {
            solver.solve(&ord.rhs, &opts).expect("spmd solve");
        });
        let rep = solver.solve(&ord.rhs, &opts).expect("spmd solve");
        let iters = rep.iterations as f64;
        let barriers_per_iter = rep.barrier_crossings as f64 / iters;
        let reductions_per_iter = rep.reduction_phases as f64 / iters;
        // Counter-verified schedules. (Plain CG, m = 0: the classic
        // schedule still pays a z ← r copy phase; the pipelined schedule
        // pays one full barrier for the cross-strip K·w read.)
        match variant {
            PcgVariant::Pipelined => {
                // The acceptance schedule, asserted in-run: m·(2C−1) full
                // barriers (m = 0: one) and ONE split crossing — the
                // reduction in flight across the preconditioner + SpMV —
                // per iteration, plus the two-msolve init.
                assert_eq!(rep.variant, PcgVariant::Pipelined, "{group}: fell back");
                let i = rep.iterations;
                let expected_spin = if m == 0 { i + 1 } else { (i + 2) * sweep };
                assert_eq!(
                    rep.barrier_crossings, expected_spin,
                    "{group}: pipelined full-barrier schedule changed"
                );
                assert_eq!(
                    rep.split_crossings,
                    i + 1,
                    "{group}: pipelined must keep ONE reduction in flight per iteration"
                );
                assert_eq!(
                    rep.reduction_phases,
                    i + 1,
                    "{group}: pipelined reduction phases changed"
                );
            }
            _ => {
                let msolve = if m == 0 { 1 } else { sweep };
                assert_eq!(
                    rep.barrier_crossings,
                    msolve + (rep.iterations - 1) * (msolve + 3) + 2,
                    "{group}: classic barrier schedule changed"
                );
            }
        }
        record = record
            .with_extra("iterations", iters)
            .with_extra("barriers_per_iter", barriers_per_iter)
            .with_extra("reductions_per_iter", reductions_per_iter)
            .with_extra("splits_per_iter", rep.split_crossings as f64 / iters)
            .with_extra("colors", c as f64);
        results.push(record);
    }
}

fn main() {
    let mut results = Vec::new();
    // Table-3 FEM family (plane-stress plates), serial solver.
    bench_serial(&mut results, 20, 1);
    bench_serial(&mut results, 20, 3);
    bench_serial(&mut results, 40, 2);
    // SPMD schedule: counters prove the barrier win independent of cores.
    bench_spmd(&mut results, 20, 2, 2);
    bench_spmd(&mut results, 20, 0, 2);
    finish(&results);
}
