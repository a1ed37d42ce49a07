//! Cost of robustness: residual auditing, replacement, and the recovery
//! ladder on the Table-3 FEM family.
//!
//! Three measurements per SPMD variant, and the first two for the serial
//! classic solver (which runs the classic loop for every variant):
//!
//! * **clean/off** — the PR-5 baseline schedule with recovery pinned off,
//! * **clean/audited** — the same solve under `audit_period = 4`
//!   replacement auditing; the iterate must stay *bitwise identical* (a
//!   clean audit never replaces) and the extra cost must be exactly one
//!   fused `f − K·u` phase per audit (+1 barrier, no reduction phase, in
//!   the SPMD executor — asserted in-run),
//! * **faulted** — a NaN injected into the iteration-2 preconditioner
//!   application (SPMD); the ladder must absorb it (classic in place, the
//!   recurrence schedules by stepping down) with the exact detection /
//!   replacement / recovery counters pinned.
//!
//! The wall-clock numbers quantify the audit overhead; the counters prove
//! *why* it costs what it costs. Record results:
//! `cargo bench -p mspcg-bench --bench recovery -- --json BENCH_pr6.json`.

use mspcg_bench::experiments::ordered_plate;
use mspcg_bench::timing::{bench, finish, BenchResult};
use mspcg_core::{
    pcg_try_solve_into, FaultKind, FaultPlan, FaultTarget, IterationFault, MStepSsorPreconditioner,
    PcgOptions, PcgVariant, PcgWorkspace, RecoveryPolicy, Toggle,
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

const AUDIT_PERIOD: usize = 4;

fn audit_on() -> RecoveryPolicy {
    RecoveryPolicy {
        replacement: Toggle::On,
        audit_period: AUDIT_PERIOD,
        ..RecoveryPolicy::default()
    }
}

/// Serial audit overhead on one Table-3 plate: clean/off vs clean/audited
/// classic.
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
    let group = format!("recovery_serial_plate{a}_m{m}");
    let mut opts = PcgOptions {
        tol: 1e-8,
        recovery: RecoveryPolicy::off(),
        ..Default::default()
    };
    let record_off = bench(&group, "classic_off", || {
        u.fill(0.0);
        pcg_try_solve_into(&matrix, &ord.rhs, &mut u, &pre, &opts, &mut ws).expect("solve");
    });
    let off_iterate = u.clone();

    opts.recovery = audit_on();
    let record_aud = bench(&group, "classic_audited", || {
        u.fill(0.0);
        pcg_try_solve_into(&matrix, &ord.rhs, &mut u, &pre, &opts, &mut ws).expect("solve");
    });
    u.fill(0.0);
    let rep = pcg_try_solve_into(&matrix, &ord.rhs, &mut u, &pre, &opts, &mut ws).expect("solve");
    assert!(rep.converged, "{group}: audited solve did not converge");
    // A clean audit observes and never replaces: same trajectory, to
    // the bit, as the unaudited run.
    assert_eq!(rep.stats.replacements, 0, "{group}: clean audit replaced");
    assert!(rep.stats.audits >= 1, "{group}: no audit ran");
    assert!(
        u.iter()
            .zip(&off_iterate)
            .all(|(a, b)| a.to_bits() == b.to_bits()),
        "{group}: auditing changed the iterate"
    );
    let overhead = record_aud.mean_ns / record_off.mean_ns.max(1.0);
    results.push(record_off.with_extra("iterations", rep.iterations as f64));
    results.push(
        record_aud
            .with_extra("audits", rep.stats.audits as f64)
            .with_extra("audit_overhead_x", overhead),
    );
}

/// SPMD audit overhead + ladder cost on one Table-3 plate. The audit's
/// cost model is asserted in-run: +1 full barrier per audit, no extra
/// reduction phase.
fn bench_spmd(results: &mut Vec<BenchResult>, a: usize, m: usize, threads: usize) {
    let (_, ord) = ordered_plate(a).expect("plate");
    let solver = ParallelMStepPcg::new(&ord.matrix, &ord.colors, vec![1.0; m]).expect("solver");
    for variant in VARIANTS {
        let group = format!("recovery_spmd_plate{a}_m{m}_t{threads}");
        let mut opts = ParallelSolverOptions {
            threads,
            tol: 1e-8,
            max_iterations: 100_000,
            variant,
            recovery: RecoveryPolicy::off(),
        };
        let record_off = bench(&group, &format!("{}_off", variant_name(variant)), || {
            solver.solve(&ord.rhs, &opts).expect("spmd solve");
        });
        let rep_off = solver.solve(&ord.rhs, &opts).expect("spmd solve");
        let off_mean = record_off.mean_ns.max(1.0);

        opts.recovery = audit_on();
        let record_aud = bench(
            &group,
            &format!("{}_audited", variant_name(variant)),
            || {
                solver.solve(&ord.rhs, &opts).expect("spmd solve");
            },
        );
        let rep = solver.solve(&ord.rhs, &opts).expect("spmd solve");
        assert!(rep.converged, "{group}: audited solve did not converge");
        assert_eq!(rep.replacements, 0, "{group}: clean audit replaced");
        assert!(rep.audits >= 1, "{group}: no audit ran");
        // The audit cost model: each audit is ONE fused extra phase — one
        // more barrier crossing, zero additional reduction phases.
        assert_eq!(
            rep.barrier_crossings,
            rep_off.barrier_crossings + rep.audits,
            "{group}: audit phase cost model changed"
        );
        assert_eq!(
            rep.reduction_phases, rep_off.reduction_phases,
            "{group}: audits must not add reduction phases"
        );
        assert!(
            rep.x
                .iter()
                .zip(&rep_off.x)
                .all(|(a, b)| a.to_bits() == b.to_bits()),
            "{group}: auditing changed the iterate"
        );
        let overhead = record_aud.mean_ns / off_mean;
        results.push(
            record_off
                .with_extra("iterations", rep_off.iterations as f64)
                .with_extra("spmd_workers", rep_off.threads as f64),
        );
        results.push(
            record_aud
                .with_extra("audits", rep.audits as f64)
                .with_extra("audit_overhead_x", overhead)
                .with_extra("spmd_workers", rep.threads as f64),
        );

        // Ladder walk under a persistent NaN preconditioner fault at
        // iteration 2: classic absorbs in place, the recurrence schedules
        // re-detect per rung and step down to classic.
        opts.recovery = RecoveryPolicy::off();
        let plan = FaultPlan::new(vec![IterationFault {
            target: FaultTarget::Msolve,
            iteration: 2,
            index: 3,
            kind: FaultKind::NaN,
        }]);
        let record_fault = bench(
            &group,
            &format!("{}_faulted", variant_name(variant)),
            || {
                solver
                    .solve_with_faults(&ord.rhs, &opts, &plan)
                    .expect("faulted spmd solve");
            },
        );
        let frep = solver
            .solve_with_faults(&ord.rhs, &opts, &plan)
            .expect("faulted spmd solve");
        let faulted_mean = record_fault.mean_ns;
        assert!(frep.converged, "{group}: faulted solve did not converge");
        let expect = match variant {
            PcgVariant::Classic => (1, 1, 0),
            _ => (2, 1, 1),
        };
        assert_eq!(
            (frep.faults_detected, frep.replacements, frep.recoveries),
            expect,
            "{group}: {} ladder counters changed",
            variant_name(variant)
        );
        results.push(
            record_fault
                .with_extra("faults_detected", frep.faults_detected as f64)
                .with_extra("replacements", frep.replacements as f64)
                .with_extra("recoveries", frep.recoveries as f64)
                .with_extra("faulted_overhead_x", faulted_mean / off_mean)
                .with_extra("spmd_workers", frep.threads as f64),
        );
    }
}

fn main() {
    let mut results = Vec::new();
    bench_serial(&mut results, 20, 2);
    bench_spmd(&mut results, 20, 2, 2);
    bench_spmd(&mut results, 20, 1, 4);
    finish(&results);
}
