//! s-step (communication-avoiding) PCG sweep on the Table-3 FEM family:
//! `s ∈ {2, 4}` against classic PCG on the SPMD executor, with the serial
//! classic solver as the reference (the serial solver runs the classic
//! loop for every variant).
//!
//! On one or two cores the wall-clock gap is close to the run-to-run
//! spread — the s-step win is *synchronization*, so every record also
//! carries the counters that prove the amortization:
//! `reductions_per_iter` (≈ 1/s for the s-step schedule — ONE fused
//! block-Gram phase per `s` iterations, no init phase — against 1 for
//! pipelined and 2 for classic) and `barriers_per_iter` (SPMD; `s·m(2C−1) + 2s`
//! crossings per outer step amortize to `m(2C−1) + 2` per iteration,
//! against classic's `m(2C−1) + 3`). The counter claims are *asserted*
//! in-run, not just recorded — a schedule regression fails the bench.
//!
//! Record results: `cargo bench -p mspcg-bench --bench sstep --
//! --json BENCH_pr10.json`.

use mspcg_bench::experiments::ordered_plate;
use mspcg_bench::timing::{bench, finish, BenchResult};
use mspcg_core::{
    pcg_try_solve_into, MStepSsorPreconditioner, PcgOptions, PcgVariant, PcgWorkspace,
};
use mspcg_parallel::{ParallelMStepPcg, ParallelSolverOptions};
use std::sync::Arc;

const SWEEP: [usize; 2] = [2, 4];

/// Serial classic baseline on one Table-3 plate for the reduction-economy
/// ratio (the serial solver runs the classic loop for every variant).
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
    let group = format!("sstep_serial_plate{a}_m{m}");
    let opts = PcgOptions {
        tol: 1e-8,
        ..Default::default()
    };
    let mut record = bench(&group, "classic", || {
        u.fill(0.0);
        pcg_try_solve_into(&matrix, &ord.rhs, &mut u, &pre, &opts, &mut ws).expect("solve");
    });
    u.fill(0.0);
    let rep = pcg_try_solve_into(&matrix, &ord.rhs, &mut u, &pre, &opts, &mut ws).expect("solve");
    assert!(rep.converged, "{group}/classic did not converge");
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

/// SPMD s-sweep: the instrumented barrier proves the
/// `s·m(2C−1) + 2s`-per-block schedule even at 1 core.
fn bench_spmd(results: &mut Vec<BenchResult>, a: usize, m: usize, threads: usize) {
    let (_, ord) = ordered_plate(a).expect("plate");
    let c = ord.colors.num_blocks();
    let solver = ParallelMStepPcg::new(&ord.matrix, &ord.colors, vec![1.0; m]).expect("solver");
    let sweep = m * (2 * c - 1);
    let group = format!("sstep_spmd_plate{a}_m{m}_t{threads}");
    let variants: Vec<(String, PcgVariant)> =
        std::iter::once(("classic".into(), PcgVariant::Classic))
            .chain(
                SWEEP
                    .iter()
                    .map(|&s| (format!("sstep{s}"), PcgVariant::SStep { s })),
            )
            .collect();
    for (name, variant) in variants {
        let opts = ParallelSolverOptions {
            threads,
            tol: 1e-8,
            max_iterations: 100_000,
            variant,
            // Pin the exact schedule: the counter assertions below must
            // not absorb audit phases.
            recovery: mspcg_core::RecoveryPolicy::off(),
        };
        let mut record = bench(&group, &name, || {
            solver.solve(&ord.rhs, &opts).expect("spmd solve");
        });
        let rep = solver.solve(&ord.rhs, &opts).expect("spmd solve");
        if let PcgVariant::SStep { s } = variant {
            // The acceptance schedule, asserted in-run: per outer step,
            // `s` basis msolves (`s·sweep` crossings), `s` SpMV/Chebyshev
            // phases and ONE fused block-Gram reduction + the update
            // mega-phase (`2s` crossings; for m = 0 the whole block runs
            // on `s + 1`).
            assert_eq!(rep.variant, variant, "{group}/{name}: fell back");
            let blocks = rep.iterations.div_ceil(s);
            assert_eq!(
                rep.reduction_phases, blocks,
                "{group}/{name}: s-step must run ONE reduction phase per {s} iterations"
            );
            let per_block = if m == 0 { s + 1 } else { s * sweep + 2 * s };
            assert_eq!(
                rep.barrier_crossings,
                blocks * per_block,
                "{group}/{name}: s-step barrier schedule changed"
            );
            assert_eq!(rep.split_crossings, 0, "{group}/{name}");
        }
        let iters = rep.iterations as f64;
        record = record
            .with_extra("iterations", iters)
            .with_extra("barriers_per_iter", rep.barrier_crossings as f64 / iters)
            .with_extra("reductions_per_iter", rep.reduction_phases as f64 / iters)
            .with_extra("colors", c as f64);
        results.push(record);
    }
}

fn main() {
    let mut results = Vec::new();
    bench_serial(&mut results, 40, 2);
    bench_spmd(&mut results, 40, 2, 2);
    bench_spmd(&mut results, 20, 0, 2);
    finish(&results);
}
