//! Batched multi-RHS PCG: many load cases against one stiffness matrix.
//!
//! The FEM workloads the paper targets rarely solve one system — a plate
//! is analysed under many load cases, all sharing the stiffness matrix
//! `K` and therefore the multicolor ordering, the SSOR splitting tables
//! and the preconditioner coefficients. [`pcg_solve_multi`] solves a
//! whole batch against one `K` and one shared preconditioner:
//!
//! * **Shared system, per-RHS scratch** — the matrix and preconditioner
//!   are borrowed immutably by every lane; each in-flight solve owns a
//!   [`PcgWorkspace`] (including the preconditioner scratch that replaces
//!   the multicolor SSOR's internal mutex-guarded half-sum cache, so
//!   concurrent applications never serialize on a lock).
//! * **Two parallel regimes** — a *large* matrix (at or above
//!   [`tuning::PAR_MIN_NNZ`] stored entries) keeps the right-hand sides
//!   sequential and lets every kernel inside the solve fan out across the
//!   worker pool (kernel-level parallelism); a *small* matrix runs whole
//!   right-hand sides on different workers (RHS-level parallelism), whose
//!   nested kernel launches automatically run inline.
//! * **Zero per-solve allocation** — after the workspace is warm, a batch
//!   call performs no heap allocation (`tests/alloc_free_hot_loop.rs`
//!   extends the counting-allocator proof to 32 right-hand sides).
//! * **Determinism** — every right-hand side is solved by the same
//!   chunk-deterministic kernels, so each solution is bitwise identical
//!   to its standalone [`crate::pcg::pcg_solve_into`] run, for any thread count and
//!   either parallel regime.
//!
//! Budget exhaustion on one right-hand side is recorded in that RHS's
//! [`RhsOutcome`] (with the *true* recomputed final residual) instead of
//! aborting the batch — see [`crate::pcg::pcg_try_solve_into`].

use crate::pcg::{pcg_try_solve_into, PcgOptions, PcgReport, PcgStats, PcgWorkspace};
use crate::preconditioner::Preconditioner;
use mspcg_sparse::{par, tuning, SparseError, SparseOp};

/// How one right-hand side of a batch ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SolveStatus {
    /// The stopping test fired within the iteration budget, with no
    /// recovery of any kind — a clean solve.
    Converged,
    /// Converged, but only after the recovery ladder stepped down at
    /// least once (`stats.fallbacks > 0`): the result is trustworthy, but
    /// the requested variant did not finish the job on its own.
    Recovered,
    /// Converged after one or more residual replacements or in-place
    /// non-finite recoveries (`stats.replacements > 0`) without any
    /// ladder step — drift or corruption was caught and repaired inside
    /// the requested variant.
    Replaced,
    /// The budget ran out; the report carries the true final residual.
    BudgetExhausted,
    /// Inner-product breakdown (indefinite matrix or preconditioner), or
    /// a non-finite value that exhausted the recovery budget.
    Breakdown,
}

impl SolveStatus {
    /// Whether this status means the returned iterate satisfies the
    /// stopping test (cleanly or rescued).
    pub fn is_converged(self) -> bool {
        matches!(
            self,
            SolveStatus::Converged | SolveStatus::Recovered | SolveStatus::Replaced
        )
    }
}

/// Per-RHS result of a [`pcg_solve_multi`] call.
#[derive(Debug, Clone, Copy)]
pub struct RhsOutcome {
    /// Outcome class.
    pub status: SolveStatus,
    /// Full per-solve report (for [`SolveStatus::Breakdown`] only the
    /// iteration count is meaningful).
    pub report: PcgReport,
}

impl RhsOutcome {
    fn placeholder() -> Self {
        RhsOutcome {
            status: SolveStatus::Breakdown,
            report: PcgReport {
                iterations: 0,
                converged: false,
                final_change: f64::INFINITY,
                final_relative_residual: f64::INFINITY,
                stats: PcgStats::default(),
            },
        }
    }
}

/// Batch-level roll-up returned by [`pcg_solve_multi`]; per-RHS detail
/// stays in [`MultiRhsWorkspace::outcomes`].
#[derive(Debug, Clone, Copy, Default)]
pub struct MultiRhsSummary {
    /// Right-hand sides processed.
    pub solved: usize,
    /// How many converged (cleanly, recovered, or replaced).
    pub converged: usize,
    /// How many of the converged needed a rescue
    /// ([`SolveStatus::Recovered`] or [`SolveStatus::Replaced`]).
    pub rescued: usize,
    /// Iterations summed over the batch.
    pub total_iterations: usize,
    /// Worst final relative residual across the batch.
    pub max_final_relative_residual: f64,
}

/// Reusable storage for batched solves: one [`PcgWorkspace`] per parallel
/// lane plus the per-RHS outcome table. Like `PcgWorkspace`, an undersized
/// instance is grown on entry (that path allocates once); after that,
/// batch calls are allocation free.
#[derive(Debug)]
pub struct MultiRhsWorkspace {
    lanes: Vec<PcgWorkspace>,
    outcomes: Vec<RhsOutcome>,
    n: usize,
}

impl MultiRhsWorkspace {
    /// Workspace for batches of up to `nrhs` right-hand sides of dimension
    /// `n`. Starts with a single lane — the kernel-level regime (large
    /// matrices) never needs more, so eagerly sizing for the pool's full
    /// capacity would hold dead workspaces for the lifetime of the batch.
    /// The first (warm-up) [`pcg_solve_multi`] call grows the lane set to
    /// whatever its regime requires; calls after it are allocation free.
    pub fn new(n: usize, nrhs: usize) -> Self {
        MultiRhsWorkspace {
            lanes: vec![PcgWorkspace::new(n)],
            outcomes: vec![RhsOutcome::placeholder(); nrhs],
            n,
        }
    }

    /// Dimension the lanes are sized for.
    pub fn dim(&self) -> usize {
        self.n
    }

    /// Per-RHS outcomes of the most recent [`pcg_solve_multi`] call, in
    /// right-hand-side order.
    pub fn outcomes(&self) -> &[RhsOutcome] {
        &self.outcomes
    }

    fn ensure(&mut self, n: usize, nrhs: usize, lanes: usize) {
        if self.n != n {
            self.n = n;
            for lane in &mut self.lanes {
                lane.resize(n);
            }
        }
        while self.lanes.len() < lanes {
            self.lanes.push(PcgWorkspace::new(n));
        }
        self.outcomes.resize(nrhs, RhsOutcome::placeholder());
    }
}

/// Shared-pointer bundle for the RHS-parallel path: lane `l` exclusively
/// owns `lanes[l]`, the outcome slots and solution columns of its RHS
/// range. Exactly the `SharedVec`/`ParSlice` discipline, generalized to
/// the batch tables.
struct BatchPtrs {
    lanes: *mut PcgWorkspace,
    outcomes: *mut RhsOutcome,
    u: *mut f64,
}

// SAFETY: all access goes through disjoint lane-indexed ranges inside one
// `for_each_chunk` region (each lane index is claimed exactly once), and
// the region's completion barrier separates it from subsequent reads.
unsafe impl Sync for BatchPtrs {}
unsafe impl Send for BatchPtrs {}

impl BatchPtrs {
    /// Exclusive access to lane workspace `l`.
    ///
    /// # Safety
    /// Lane `l` must be claimed by at most one chunk per parallel region.
    unsafe fn lane<'a>(&self, l: usize) -> &'a mut PcgWorkspace {
        unsafe { &mut *self.lanes.add(l) }
    }

    /// Exclusive access to solution column `i`.
    ///
    /// # Safety
    /// Column `i` must belong to the claiming lane's RHS range.
    unsafe fn u_col<'a>(&self, i: usize, n: usize) -> &'a mut [f64] {
        unsafe { std::slice::from_raw_parts_mut(self.u.add(i * n), n) }
    }

    /// Write outcome slot `i`.
    ///
    /// # Safety
    /// Slot `i` must belong to the claiming lane's RHS range.
    unsafe fn set_outcome(&self, i: usize, out: RhsOutcome) {
        unsafe { self.outcomes.add(i).write(out) }
    }
}

/// Solve `K·uᵢ = fᵢ` for a batch of right-hand sides sharing one matrix
/// and one preconditioner.
///
/// `f` and `u` hold the batch column-contiguously: right-hand side `i`
/// occupies `f[i·n..(i+1)·n]`, its initial guess and solution the same
/// range of `u`, with `n = k.rows()`. Returns the batch summary; per-RHS
/// reports are in [`MultiRhsWorkspace::outcomes`].
///
/// Non-convergence of an individual right-hand side is recorded in its
/// outcome, not returned as an error, so a batch always runs to
/// completion once shapes validate.
///
/// ```
/// use mspcg_core::multi::{pcg_solve_multi, MultiRhsWorkspace, SolveStatus};
/// use mspcg_core::pcg::PcgOptions;
/// use mspcg_core::preconditioner::DiagonalPreconditioner;
/// use mspcg_sparse::CooMatrix;
///
/// let mut coo = CooMatrix::new(4, 4);
/// for i in 0..4 {
///     coo.push(i, i, 2.0)?;
///     if i + 1 < 4 { coo.push_sym(i, i + 1, -1.0)?; }
/// }
/// let k = coo.to_csr();
/// let m = DiagonalPreconditioner::from_diag(&k.diag()?)?;
/// let f: Vec<f64> = (0..8).map(|i| 1.0 + (i / 4) as f64).collect(); // 2 RHS
/// let mut u = vec![0.0; 8];
/// let mut ws = MultiRhsWorkspace::new(4, 2);
/// let sum = pcg_solve_multi(&k, &f, &mut u, &m, &PcgOptions::default(), &mut ws)?;
/// assert_eq!(sum.converged, 2);
/// // Recovered/Replaced also satisfy the stopping test — check the
/// // status class, not the exact variant (a communication-avoiding
/// // schedule may rescue itself on a tiny system).
/// assert!(ws.outcomes().iter().all(|o| o.status.is_converged()));
/// # Ok::<(), mspcg_sparse::SparseError>(())
/// ```
///
/// # Errors
/// [`SparseError::NotSquare`] for a rectangular matrix,
/// [`SparseError::ShapeMismatch`] when `f.len()` is not a multiple of `n`,
/// `u.len() != f.len()`, or the preconditioner dimension differs.
/// [`SparseError::InvalidTolerance`] for a nonpositive or non-finite
/// tolerance, [`SparseError::InvalidPartition`] for an out-of-range
/// s-step block width, and [`SparseError::NonFinite`] when any
/// right-hand side or initial guess carries a NaN/Inf entry — all
/// rejected up front, before any lane starts iterating.
pub fn pcg_solve_multi<A: SparseOp>(
    k: &A,
    f: &[f64],
    u: &mut [f64],
    m: &(impl Preconditioner + Sync),
    opts: &PcgOptions,
    ws: &mut MultiRhsWorkspace,
) -> Result<MultiRhsSummary, SparseError> {
    let n = k.rows();
    if k.cols() != n {
        return Err(SparseError::NotSquare {
            rows: k.rows(),
            cols: k.cols(),
        });
    }
    if m.dim() != n || u.len() != f.len() || (n == 0 && !f.is_empty()) {
        return Err(SparseError::ShapeMismatch {
            left: (n, n),
            right: (f.len(), u.len().max(m.dim())),
        });
    }
    if n == 0 {
        ws.ensure(0, 0, 1);
        return Ok(MultiRhsSummary::default());
    }
    if !f.len().is_multiple_of(n) {
        return Err(SparseError::ShapeMismatch {
            left: (n, n),
            right: (f.len(), u.len()),
        });
    }
    let nrhs = f.len() / n;

    // Reject poisoned inputs before any lane starts: a NaN smuggled in
    // through one right-hand side would otherwise burn that lane's whole
    // iteration budget (or a recovery ladder walk) on garbage.
    if !(opts.tol.is_finite() && opts.tol > 0.0) {
        return Err(SparseError::InvalidTolerance { value: opts.tol });
    }
    opts.variant.resolve()?;
    if f.iter().any(|v| !v.is_finite()) {
        return Err(SparseError::NonFinite {
            phase: "rhs",
            iteration: 0,
        });
    }
    if u.iter().any(|v| !v.is_finite()) {
        return Err(SparseError::NonFinite {
            phase: "initial-guess",
            iteration: 0,
        });
    }

    // Regime selection: a matrix whose kernels would fan out across the
    // pool keeps the batch sequential (kernel-level parallelism); below
    // that threshold a whole solve is far cheaper than a pool launch per
    // kernel, so distinct right-hand sides become the unit of parallel
    // work instead.
    let rhs_threads = if k.nnz() >= tuning::PAR_MIN_NNZ {
        1
    } else {
        par::max_threads().min(nrhs)
    };
    let lanes = rhs_threads.max(1);
    ws.ensure(n, nrhs, lanes);

    if lanes <= 1 {
        let lane = &mut ws.lanes[0];
        for i in 0..nrhs {
            ws.outcomes[i] = solve_one(k, f, u, m, opts, lane, n, i);
        }
    } else {
        // Contiguous RHS ranges per lane (balanced to within one).
        let base = nrhs / lanes;
        let extra = nrhs % lanes;
        let lane_range = |l: usize| {
            let start = l * base + l.min(extra);
            let len = base + usize::from(l < extra);
            start..start + len
        };
        let ptrs = BatchPtrs {
            lanes: ws.lanes.as_mut_ptr(),
            outcomes: ws.outcomes.as_mut_ptr(),
            u: u.as_mut_ptr(),
        };
        par::for_each_chunk(lanes, lanes, &|l| {
            // SAFETY: lane index `l` is claimed exactly once per region;
            // `lane_range(l)` ranges are pairwise disjoint, so workspace
            // `l`, the outcome slots and the `u` columns of this range
            // have exactly one writer, and nothing reads them until the
            // region's completion barrier.
            let lane = unsafe { ptrs.lane(l) };
            for i in lane_range(l) {
                let ui = unsafe { ptrs.u_col(i, n) };
                let out = solve_one_into(k, &f[i * n..(i + 1) * n], ui, m, opts, lane);
                unsafe { ptrs.set_outcome(i, out) };
            }
        });
    }

    let mut summary = MultiRhsSummary {
        solved: nrhs,
        ..Default::default()
    };
    for o in &ws.outcomes {
        if o.status.is_converged() {
            summary.converged += 1;
            if o.status != SolveStatus::Converged {
                summary.rescued += 1;
            }
        }
        summary.total_iterations += o.report.iterations;
        let rel = o.report.final_relative_residual;
        if rel.is_finite() && rel > summary.max_final_relative_residual {
            summary.max_final_relative_residual = rel;
        }
    }
    Ok(summary)
}

#[allow(clippy::too_many_arguments)]
fn solve_one<A: SparseOp>(
    k: &A,
    f: &[f64],
    u: &mut [f64],
    m: &impl Preconditioner,
    opts: &PcgOptions,
    lane: &mut PcgWorkspace,
    n: usize,
    i: usize,
) -> RhsOutcome {
    solve_one_into(
        k,
        &f[i * n..(i + 1) * n],
        &mut u[i * n..(i + 1) * n],
        m,
        opts,
        lane,
    )
}

fn solve_one_into<A: SparseOp>(
    k: &A,
    fi: &[f64],
    ui: &mut [f64],
    m: &impl Preconditioner,
    opts: &PcgOptions,
    lane: &mut PcgWorkspace,
) -> RhsOutcome {
    match pcg_try_solve_into(k, fi, ui, m, opts, lane) {
        Ok(report) => RhsOutcome {
            status: if !report.converged {
                SolveStatus::BudgetExhausted
            } else if report.stats.fallbacks > 0 {
                SolveStatus::Recovered
            } else if report.stats.replacements > 0 {
                SolveStatus::Replaced
            } else {
                SolveStatus::Converged
            },
            report,
        },
        Err(e) => {
            let mut out = RhsOutcome::placeholder();
            match e {
                SparseError::NotPositiveDefinite { pivot, .. } => {
                    out.report.iterations = pivot;
                }
                // Budget-exhausted non-finite recovery: like an
                // indefiniteness breakdown, the iteration at which the
                // solve gave up is the only meaningful number.
                SparseError::NonFinite { iteration, .. } => {
                    out.report.iterations = iteration;
                }
                _ => {}
            }
            out
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mstep::MStepSsorPreconditioner;
    use crate::pcg::pcg_solve_into;
    use mspcg_coloring::Coloring;
    use mspcg_sparse::CsrMatrix;
    use mspcg_sparse::{CooMatrix, Partition};

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

    fn batch_rhs(n: usize, nrhs: usize) -> Vec<f64> {
        (0..nrhs * n)
            .map(|i| ((i * 13 + 7) % 29) as f64 * 0.1 - 1.2)
            .collect()
    }

    #[test]
    fn batch_matches_individual_solves_bitwise() {
        let (a, p) = rb_laplacian(96);
        let pre = MStepSsorPreconditioner::unparametrized(&a, &p, 2).unwrap();
        let opts = PcgOptions {
            tol: 1e-10,
            ..Default::default()
        };
        let nrhs = 7;
        let f = batch_rhs(96, nrhs);
        let mut u = vec![0.0; nrhs * 96];
        let mut ws = MultiRhsWorkspace::new(96, nrhs);
        let summary = pcg_solve_multi(&a, &f, &mut u, &pre, &opts, &mut ws).unwrap();
        assert_eq!(summary.solved, nrhs);
        assert_eq!(summary.converged, nrhs);

        let mut single_ws = PcgWorkspace::new(96);
        for i in 0..nrhs {
            let mut ui = vec![0.0; 96];
            let rep = pcg_solve_into(
                &a,
                &f[i * 96..(i + 1) * 96],
                &mut ui,
                &pre,
                &opts,
                &mut single_ws,
            )
            .unwrap();
            assert_eq!(
                u[i * 96..(i + 1) * 96]
                    .iter()
                    .map(|v| v.to_bits())
                    .collect::<Vec<_>>(),
                ui.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                "RHS {i} differs from standalone solve"
            );
            assert_eq!(ws.outcomes()[i].report.iterations, rep.iterations);
        }
    }

    #[test]
    fn warm_starts_are_honored_per_rhs() {
        let (a, p) = rb_laplacian(32);
        let pre = MStepSsorPreconditioner::unparametrized(&a, &p, 1).unwrap();
        let x_true: Vec<f64> = (0..32).map(|i| (i as f64 * 0.2).sin()).collect();
        let f0 = a.mul_vec(&x_true);
        let mut f = f0.clone();
        f.extend_from_slice(&f0);
        // RHS 0 starts at the solution, RHS 1 from zero.
        let mut u = x_true.clone();
        u.extend(std::iter::repeat_n(0.0, 32));
        let mut ws = MultiRhsWorkspace::new(32, 2);
        pcg_solve_multi(&a, &f, &mut u, &pre, &PcgOptions::default(), &mut ws).unwrap();
        assert!(ws.outcomes()[0].report.iterations <= 1);
        assert!(ws.outcomes()[1].report.iterations > 1);
    }

    #[test]
    fn budget_exhaustion_is_per_rhs_data_not_batch_error() {
        let (a, p) = rb_laplacian(64);
        let pre = MStepSsorPreconditioner::unparametrized(&a, &p, 1).unwrap();
        let opts = PcgOptions {
            tol: 1e-14,
            max_iterations: 1,
            ..Default::default()
        };
        let f = batch_rhs(64, 3);
        let mut u = vec![0.0; 3 * 64];
        let mut ws = MultiRhsWorkspace::new(64, 3);
        let summary = pcg_solve_multi(&a, &f, &mut u, &pre, &opts, &mut ws).unwrap();
        assert_eq!(summary.converged, 0);
        for o in ws.outcomes() {
            assert_eq!(o.status, SolveStatus::BudgetExhausted);
            assert!(o.report.final_relative_residual.is_finite());
            assert!(o.report.final_relative_residual > 0.0);
        }
    }

    #[test]
    fn empty_batch_and_empty_matrix() {
        let (a, p) = rb_laplacian(16);
        let pre = MStepSsorPreconditioner::unparametrized(&a, &p, 1).unwrap();
        let mut ws = MultiRhsWorkspace::new(16, 0);
        let sum = pcg_solve_multi(&a, &[], &mut [], &pre, &PcgOptions::default(), &mut ws).unwrap();
        assert_eq!(sum.solved, 0);
        assert!(ws.outcomes().is_empty());
    }

    #[test]
    fn shape_violations_are_rejected() {
        let (a, p) = rb_laplacian(16);
        let pre = MStepSsorPreconditioner::unparametrized(&a, &p, 1).unwrap();
        let mut ws = MultiRhsWorkspace::new(16, 2);
        // Not a multiple of n.
        let err = pcg_solve_multi(
            &a,
            &[1.0; 17],
            &mut [0.0; 17],
            &pre,
            &PcgOptions::default(),
            &mut ws,
        );
        assert!(matches!(err, Err(SparseError::ShapeMismatch { .. })));
        // u shorter than f.
        let err = pcg_solve_multi(
            &a,
            &vec![1.0; 32],
            &mut [0.0; 16],
            &pre,
            &PcgOptions::default(),
            &mut ws,
        );
        assert!(matches!(err, Err(SparseError::ShapeMismatch { .. })));
    }

    #[test]
    fn zero_rhs_columns_come_back_zero() {
        let (a, p) = rb_laplacian(16);
        let pre = MStepSsorPreconditioner::unparametrized(&a, &p, 1).unwrap();
        let mut f = batch_rhs(16, 3);
        f[16..32].fill(0.0); // middle RHS is b = 0
        let mut u = vec![0.7; 3 * 16]; // poisoned initial guesses
        let mut ws = MultiRhsWorkspace::new(16, 3);
        let sum = pcg_solve_multi(&a, &f, &mut u, &pre, &PcgOptions::default(), &mut ws).unwrap();
        assert_eq!(sum.converged, 3);
        assert!(u[16..32].iter().all(|&v| v == 0.0));
    }

    #[test]
    fn poisoned_batch_inputs_are_rejected_up_front() {
        let (a, p) = rb_laplacian(16);
        let pre = MStepSsorPreconditioner::unparametrized(&a, &p, 1).unwrap();
        let mut ws = MultiRhsWorkspace::new(16, 2);
        let f = batch_rhs(16, 2);
        let mut u = vec![0.0; 2 * 16];

        let mut bad_f = f.clone();
        bad_f[20] = f64::NAN;
        let err =
            pcg_solve_multi(&a, &bad_f, &mut u, &pre, &PcgOptions::default(), &mut ws).unwrap_err();
        assert!(matches!(
            err,
            SparseError::NonFinite {
                phase: "rhs",
                iteration: 0
            }
        ));

        let mut bad_u = vec![0.0; 2 * 16];
        bad_u[3] = f64::INFINITY;
        let err =
            pcg_solve_multi(&a, &f, &mut bad_u, &pre, &PcgOptions::default(), &mut ws).unwrap_err();
        assert!(matches!(
            err,
            SparseError::NonFinite {
                phase: "initial-guess",
                iteration: 0
            }
        ));

        for tol in [0.0, -1e-8, f64::NAN, f64::INFINITY] {
            let opts = PcgOptions {
                tol,
                ..Default::default()
            };
            let err = pcg_solve_multi(&a, &f, &mut u, &pre, &opts, &mut ws).unwrap_err();
            assert!(matches!(err, SparseError::InvalidTolerance { .. }));
        }
    }

    #[test]
    fn in_place_recovery_surfaces_as_replaced_status() {
        use crate::pcg::{PcgVariant, StoppingCriterion};
        use crate::preconditioner::IdentityPreconditioner;
        use crate::recovery::{ApplicationFault, FaultKind, FaultyPreconditioner};

        let (a, _p) = rb_laplacian(32);
        // One RHS so the shared application counter is deterministic.
        let f = batch_rhs(32, 1);
        let mut u = vec![0.0; 32];
        let pre = FaultyPreconditioner::new(
            IdentityPreconditioner::new(32),
            vec![ApplicationFault {
                application: 2,
                index: 5,
                kind: FaultKind::NaN,
            }],
        );
        let opts = PcgOptions {
            tol: 1e-10,
            criterion: StoppingCriterion::RelativeResidual,
            variant: PcgVariant::Classic,
            ..Default::default()
        };
        let mut ws = MultiRhsWorkspace::new(32, 1);
        let sum = pcg_solve_multi(&a, &f, &mut u, &pre, &opts, &mut ws).unwrap();
        assert_eq!(pre.injected(), 1);
        let out = &ws.outcomes()[0];
        // Classic recovers in place: a replacement, no ladder step.
        assert_eq!(out.status, SolveStatus::Replaced);
        assert!(out.status.is_converged());
        assert_eq!(out.report.stats.replacements, 1);
        assert_eq!(out.report.stats.fallbacks, 0);
        assert_eq!(out.report.stats.faults_detected, 1);
        assert_eq!(sum.converged, 1);
        assert_eq!(sum.rescued, 1);
    }

    #[test]
    fn ladder_step_surfaces_as_recovered_status() {
        use crate::pcg::{PcgVariant, StoppingCriterion};
        use crate::preconditioner::IdentityPreconditioner;
        use crate::recovery::{ApplicationFault, FaultKind, FaultyPreconditioner};

        let (a, _p) = rb_laplacian(32);
        let f = batch_rhs(32, 1);
        let mut u = vec![0.0; 32];
        let pre = FaultyPreconditioner::new(
            IdentityPreconditioner::new(32),
            vec![ApplicationFault {
                application: 2,
                index: 5,
                kind: FaultKind::NaN,
            }],
        );
        // Pipelined has no same-rung restart for a poisoned scalar: it
        // steps down the ladder to classic, which must finish the job.
        let opts = PcgOptions {
            tol: 1e-10,
            criterion: StoppingCriterion::RelativeResidual,
            variant: PcgVariant::Pipelined,
            ..Default::default()
        };
        let mut ws = MultiRhsWorkspace::new(32, 1);
        let sum = pcg_solve_multi(&a, &f, &mut u, &pre, &opts, &mut ws).unwrap();
        assert_eq!(pre.injected(), 1);
        let out = &ws.outcomes()[0];
        assert_eq!(out.status, SolveStatus::Recovered);
        assert!(out.status.is_converged());
        assert!(out.report.stats.fallbacks >= 1);
        assert_eq!(out.report.stats.faults_detected, 1);
        assert_eq!(sum.converged, 1);
        assert_eq!(sum.rescued, 1);
    }
}
