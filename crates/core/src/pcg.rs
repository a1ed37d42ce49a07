//! Algorithm 1: the preconditioned conjugate gradient loop.
//!
//! Direct transcription of the paper's Algorithm 1 (Chandra 1978 form):
//!
//! ```text
//! r⁰ = f − K u⁰;  M r̂⁰ = r⁰;  p⁰ = r̂⁰
//! for k = 0, 1, …:
//!   αₖ = (r̂ᵏ, rᵏ) / (pᵏ, K pᵏ)
//!   u^{k+1} = uᵏ + αₖ pᵏ
//!   stop when ‖u^{k+1} − uᵏ‖∞ < ε          (step (3) of the paper)
//!   r^{k+1} = rᵏ − αₖ K pᵏ
//!   M r̂^{k+1} = r^{k+1}
//!   βₖ = (r̂^{k+1}, r^{k+1}) / (r̂ᵏ, rᵏ)
//!   p^{k+1} = r̂^{k+1} + βₖ pᵏ
//! ```
//!
//! The two inner products per iteration are the paper's motivating cost on
//! vector and array machines; [`PcgStats`] counts them so the machine
//! models in `mspcg-machine` can charge them faithfully.
//!
//! ## Iteration variants
//!
//! The classic loop above serializes its two inner products: `(p, Kp)`
//! must finish before `α`, and `(r̂, r)` — available only after the
//! preconditioner — before `β`. On a parallel machine each is a global
//! synchronization point. [`PcgVariant::Pipelined`] (Ghysels–Vanroose)
//! carries `s = Kp`, `w = Kz`, `q = M⁻¹s` and `K·q` plus two recomputed
//! auxiliaries (`mv = M⁻¹w`, `nv = K·mv`) and obtains *both* scalars
//! from **one fused reduction phase** per iteration
//! ([`vecops::fused_dot3_norm`]: `γ′ = (r, z)`, `δ = (w, z)`, plus the
//! `(p, s)` breakdown guard and the stopping norm), with `β = γ′/γ` and
//! `α = γ′ / (δ − β·γ′/α_old)`. The reduction reads only vectors
//! finished *before* the preconditioner + SpMV — on the SPMD executor it
//! is initiated (split-barrier arrive) before that heavy phase and
//! consumed (wait) after it, hiding its latency entirely. The recurrence
//! has a different-but-bounded rounding path, so the contract is:
//! bitwise deterministic across thread counts *within* the variant, and
//! classic-vs-pipelined agreement to a relative-residual tolerance
//! (`tests/pcg_variants.rs`). When the recurrence breaks down (any
//! nonpositive carried scalar or reconstructed denominator — see
//! `pipelined_loop`) the solve **falls back to the classic loop from the
//! current iterate** instead of erroring (recorded in
//! [`PcgStats::fallbacks`]). Selection: [`PcgOptions::variant`]
//! ([`PcgVariant::Auto`] resolves to classic).
//!
//! [`PcgVariant::SStep`] is the endpoint of the synchronization-count
//! war: per *outer step* it builds an s-dimensional Krylov block with the
//! Chebyshev three-term basis recurrence (on cached eigenvalue bounds —
//! see [`sstep_loop`]), amortizes **all** inner products of those `s`
//! iterations into ONE fused Gram-matrix reduction phase, solves the
//! small `s×s` Gram system by a replicated dense Cholesky, and applies
//! `s` local update sub-steps — `1/s` reduction phases per iteration. In
//! exact arithmetic the block (conjugated against the previous direction
//! block, Chronopoulos–Gear style) reproduces `s` classic iterations;
//! in finite precision the basis can lose conditioning, so a breakdown
//! (nonpositive Cholesky pivot, non-finite Gram scalar) steps down warm
//! onto the Pipelined → Classic ladder.
//!
//! Breakdown guards double as SPD validation: a nonpositive `(p, Kp)`
//! reveals an indefinite `K`, a nonpositive `(r̂, r)` an indefinite `M`;
//! both return typed errors instead of silently diverging.

use crate::preconditioner::{IdentityPreconditioner, Preconditioner};
use crate::recovery::{audit_due, diverged, replacement_bound, RecoveryPolicy};
use mspcg_sparse::lanczos::{lanczos_extremes, SpectralInterval};
use mspcg_sparse::{vecops, SparseError, SparseOp};

pub use mspcg_sparse::PcgVariant;

/// Convergence test selection.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum StoppingCriterion {
    /// `‖u^{k+1} − uᵏ‖∞ < ε` — the paper's test (cheap on the Finite
    /// Element Machine's flag network: no global reduction needed).
    #[default]
    DisplacementChange,
    /// `‖r^{k+1}‖₂ ≤ ε · ‖f‖₂` — the conventional modern test; costs one
    /// extra inner product per iteration.
    RelativeResidual,
}

/// Options for [`pcg_solve`].
#[derive(Debug, Clone, Copy)]
pub struct PcgOptions {
    /// Tolerance ε.
    pub tol: f64,
    /// Iteration budget.
    pub max_iterations: usize,
    /// Which convergence test to run.
    pub criterion: StoppingCriterion,
    /// Record the per-iteration criterion value in
    /// [`PcgSolution::history`].
    pub record_history: bool,
    /// Which iteration variant to run. [`PcgVariant::Auto`] (the default)
    /// resolves to [`PcgVariant::Classic`]; an [`PcgVariant::SStep`] width
    /// outside `2 ..= MAX_SSTEP_S` is rejected with
    /// [`SparseError::InvalidPartition`] (see [`PcgVariant::resolve`]).
    pub variant: PcgVariant,
    /// Detection/recovery policy: residual auditing with replacement and
    /// the recovery-ladder budget. The default
    /// ([`crate::recovery::Toggle::Auto`]) audits only the drift-prone
    /// variants at tight tolerances; [`RecoveryPolicy::off`] pins the
    /// exact pre-recovery arithmetic and operation schedule.
    pub recovery: RecoveryPolicy,
}

impl Default for PcgOptions {
    fn default() -> Self {
        PcgOptions {
            tol: 1e-6,
            max_iterations: 50_000,
            criterion: StoppingCriterion::DisplacementChange,
            record_history: false,
            variant: PcgVariant::Auto,
            recovery: RecoveryPolicy::default(),
        }
    }
}

/// Operation counters (the quantities the machine cost models consume).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PcgStats {
    /// Sparse matrix–vector products with `K`.
    pub spmv: usize,
    /// Inner products (global reductions).
    pub inner_products: usize,
    /// Fused **reduction phases** feeding the `α`/`β` recurrence: a phase
    /// is one sweep (one synchronization point on a parallel machine)
    /// regardless of how many scalars it produces. The classic loop
    /// performs two serialized phases per iteration (`(p, Kp)`, then
    /// `(r̂, r)`); the pipelined variant performs **one**
    /// ([`vecops::fused_dot3_norm`]). Stopping-test norms are not counted:
    /// their partials ride the update kernels' existing phase (the paper's
    /// flag network).
    pub reduction_phases: usize,
    /// Preconditioner applications (`M r̂ = r` solves).
    pub precond_applications: usize,
    /// Total stationary steps inside the preconditioner
    /// (`applications × m`).
    pub precond_steps: usize,
    /// Recovery-ladder steps: an s-step or pipelined attempt whose
    /// guards fired (breakdown or detected corruption) handed the current
    /// iterate one rung down (SStep → Pipelined → Classic) and this
    /// counter records it — the report "says `FALLBACK`" instead of
    /// hiding the rescue.
    pub fallbacks: usize,
    /// Residual audits performed: true-residual recomputations `f − K·u`
    /// (one extra SpMV each) compared against the recurrence residual.
    pub audits: usize,
    /// Residual replacements plus non-finite recovery restarts: times the
    /// carried vectors were re-derived from the current iterate, bounded
    /// by [`RecoveryPolicy::max_replacements`].
    pub replacements: usize,
    /// Non-finite reduction scalars detected by the fused-kernel checks
    /// (injected faults or genuine data corruption).
    pub faults_detected: usize,
}

/// Result of a (P)CG solve.
#[derive(Debug, Clone)]
pub struct PcgSolution {
    /// The final iterate.
    pub x: Vec<f64>,
    /// Iterations performed (the paper's `I` column).
    pub iterations: usize,
    /// Whether the stopping test fired within the budget.
    pub converged: bool,
    /// Final `‖u^{k+1} − uᵏ‖∞`.
    pub final_change: f64,
    /// Final `‖r‖₂ / ‖f‖₂`.
    pub final_relative_residual: f64,
    /// Per-iteration criterion values (empty unless requested).
    pub history: Vec<f64>,
    /// Operation counts.
    pub stats: PcgStats,
}

/// Allocation-free view of a solve's outcome, returned by
/// [`pcg_solve_into`] (the solution lives in the caller's buffer, the
/// history — if recorded — in the [`PcgWorkspace`]).
#[derive(Debug, Clone, Copy)]
pub struct PcgReport {
    /// Iterations performed.
    pub iterations: usize,
    /// Whether the stopping test fired within the budget.
    pub converged: bool,
    /// Final `‖u^{k+1} − uᵏ‖∞`.
    pub final_change: f64,
    /// Final `‖r‖₂ / ‖f‖₂`.
    pub final_relative_residual: f64,
    /// Operation counts.
    pub stats: PcgStats,
}

/// Reusable scratch buffers for the PCG loop.
///
/// Algorithm 1 needs four working vectors (`r`, `r̂`, `p`, `Kp`); the
/// pipelined variant carries five more (`w = Kz`, `q`, `K·q`,
/// `mv = M⁻¹w`, `nv = K·mv`; its carried `s = Kp` reuses the `Kp` slot,
/// which that recurrence updates instead of recomputing). The one-shot
/// entry points ([`pcg_solve`],
/// [`pcg_solve_from`]) allocate them per call; repeated solves over
/// systems of one size — the ω sweep, the condition scans, the Table 2/3
/// m sweeps — should construct one `PcgWorkspace` and call
/// [`pcg_solve_into`], whose iteration performs **no heap allocation**
/// after workspace construction for *any variant* (when history
/// recording is off; with it on, [`PcgWorkspace::reserve_history`]
/// preallocates the record too). The pipelined carries are sized by the
/// first pipelined solve — one warm-up allocation, so non-pipelined
/// workspaces never pay for them.
#[derive(Debug, Clone)]
pub struct PcgWorkspace {
    r: Vec<f64>,
    rhat: Vec<f64>,
    p: Vec<f64>,
    kp: Vec<f64>,
    /// `w = Kz` carry of the pipelined variant. The five pipelined-only
    /// slots start **empty** (a classic workspace must not pay 5·n dead
    /// floats) and are sized by the first pipelined solve — a
    /// warm-up-once allocation, after which pipelined solves are as
    /// allocation free as the rest.
    w: Vec<f64>,
    /// `q = M⁻¹s` direction carry of the pipelined variant.
    q: Vec<f64>,
    /// `K·q` direction carry of the pipelined variant.
    zz: Vec<f64>,
    /// `mv = M⁻¹w` auxiliary of the pipelined variant (the heavy-phase
    /// product the overlapped reduction hides behind).
    mv: Vec<f64>,
    /// `nv = K·mv` auxiliary of the pipelined variant.
    nv: Vec<f64>,
    /// True-residual scratch of the audit pass (`aud = f − K·u`). Like
    /// the pipelined carries it starts empty and is sized by the first
    /// audited solve, so non-audited workspaces never pay for it.
    aud: Vec<f64>,
    /// s-step block storage: the basis block `V`, its image `A·V`, and
    /// the parity pair of direction blocks (`P`, `AP`, current and
    /// previous) — six flattened `s×n` column blocks. Starts empty and is
    /// sized by the first s-step solve, like the pipelined carries.
    sstep: Vec<f64>,
    /// Small dense s-step scratch: the Gram blocks `G1 = VᵀAV` and
    /// `G2 = AP_prevᵀV`, the coupling matrix `B`, the parity pair of
    /// Cholesky factors, and four `s`-long coefficient strips
    /// (`5s² + 4s` floats).
    sstep_small: Vec<f64>,
    /// Block width the s-step storage is sized for.
    sstep_s: usize,
    /// Basis-interval cache of the s-step rung: one spectral estimate per
    /// workspace × operator, reused by every subsequent s-step solve (and
    /// across basis degrees — the estimate is degree independent).
    /// Cleared on resize; bound accuracy affects only basis conditioning,
    /// so reuse across a parameter sweep on one system is always safe.
    pub(crate) sstep_interval: Option<SpectralInterval>,
    /// Preconditioner scratch (sized on first use from
    /// [`Preconditioner::scratch_len`]); lets the hot loop call
    /// [`Preconditioner::apply_with`], bypassing any internal lock.
    precond_scratch: Vec<f64>,
    history: Vec<f64>,
}

impl PcgWorkspace {
    /// Workspace for systems of dimension `n`.
    pub fn new(n: usize) -> Self {
        PcgWorkspace {
            r: vec![0.0; n],
            rhat: vec![0.0; n],
            p: vec![0.0; n],
            kp: vec![0.0; n],
            w: Vec::new(),
            q: Vec::new(),
            zz: Vec::new(),
            mv: Vec::new(),
            nv: Vec::new(),
            aud: Vec::new(),
            sstep: Vec::new(),
            sstep_small: Vec::new(),
            sstep_s: 0,
            sstep_interval: None,
            precond_scratch: Vec::new(),
            history: Vec::new(),
        }
    }

    /// Dimension the workspace is sized for.
    pub fn dim(&self) -> usize {
        self.r.len()
    }

    /// Resize for a different dimension (reallocates only when `n` grows
    /// past the current capacity).
    pub fn resize(&mut self, n: usize) {
        self.r.resize(n, 0.0);
        self.rhat.resize(n, 0.0);
        self.p.resize(n, 0.0);
        self.kp.resize(n, 0.0);
        // Pipelined-only and audit-only slots track the dimension only
        // once in use.
        if !self.q.is_empty() {
            self.ensure_pipelined(n);
        }
        if !self.aud.is_empty() {
            self.ensure_audit(n);
        }
        if !self.sstep.is_empty() {
            let s = self.sstep_s;
            self.sstep.resize(6 * s * n, 0.0);
        }
        // A different dimension means a different operator: the cached
        // basis interval no longer describes it.
        self.sstep_interval = None;
    }

    /// Size the five pipelined-only carries. Called by the first
    /// pipelined solve on this workspace (allocates once); afterwards a
    /// no-op, keeping the hot loop allocation free.
    fn ensure_pipelined(&mut self, n: usize) {
        self.w.resize(n, 0.0);
        self.q.resize(n, 0.0);
        self.zz.resize(n, 0.0);
        self.mv.resize(n, 0.0);
        self.nv.resize(n, 0.0);
    }

    /// Size the audit scratch vector. Called by the first audited solve
    /// on this workspace (allocates once); afterwards a no-op.
    fn ensure_audit(&mut self, n: usize) {
        self.aud.resize(n, 0.0);
    }

    /// Size the s-step block storage for width `s`. Called by the first
    /// s-step solve on this workspace (allocates once per `(n, s)`
    /// shape); afterwards a no-op, keeping the outer loop allocation
    /// free.
    fn ensure_sstep(&mut self, n: usize, s: usize) {
        if self.sstep_s != s || self.sstep.len() != 6 * s * n {
            self.sstep.resize(6 * s * n, 0.0);
            self.sstep_small.resize(5 * s * s + 4 * s, 0.0);
            self.sstep_s = s;
        }
    }

    /// Preallocate the history record so that solves with
    /// `record_history` stay allocation free up to `iters` iterations.
    pub fn reserve_history(&mut self, iters: usize) {
        self.history.reserve(iters);
    }

    /// Criterion history of the most recent [`pcg_solve_into`] call
    /// (empty unless `record_history` was set).
    pub fn history(&self) -> &[f64] {
        &self.history
    }
}

/// Solve `K u = f` by PCG from the zero initial guess.
///
/// ```
/// use mspcg_core::pcg::{pcg_solve, PcgOptions};
/// use mspcg_core::preconditioner::DiagonalPreconditioner;
/// use mspcg_sparse::CooMatrix;
///
/// // 1-D Laplacian, 5 unknowns.
/// let mut coo = CooMatrix::new(5, 5);
/// for i in 0..5 {
///     coo.push(i, i, 2.0)?;
///     if i + 1 < 5 { coo.push_sym(i, i + 1, -1.0)?; }
/// }
/// let k = coo.to_csr();
/// let m = DiagonalPreconditioner::from_diag(&k.diag()?)?;
/// let sol = pcg_solve(&k, &[1.0; 5], &m, &PcgOptions::default())?;
/// assert!(sol.converged && sol.iterations <= 5);
/// # Ok::<(), mspcg_sparse::SparseError>(())
/// ```
///
/// # Errors
/// * [`SparseError::NotSquare`] / [`SparseError::ShapeMismatch`] on shape
///   violations,
/// * [`SparseError::NotPositiveDefinite`] on inner-product breakdown
///   (indefinite `K` or preconditioner),
/// * [`SparseError::InvalidPartition`] for an out-of-range
///   [`PcgVariant::SStep`] block width,
/// * [`SparseError::DidNotConverge`] when the budget is exhausted.
pub fn pcg_solve<A: SparseOp>(
    k: &A,
    f: &[f64],
    m: &impl Preconditioner,
    opts: &PcgOptions,
) -> Result<PcgSolution, SparseError> {
    let x0 = vec![0.0; f.len()];
    pcg_solve_from(k, f, &x0, m, opts)
}

/// Solve `K u = f` by PCG from the initial guess `u0`.
///
/// Allocates a fresh [`PcgWorkspace`]; sweep-style callers should hold one
/// workspace and use [`pcg_solve_into`] directly.
///
/// # Errors
/// Same classes as [`pcg_solve`].
pub fn pcg_solve_from<A: SparseOp>(
    k: &A,
    f: &[f64],
    u0: &[f64],
    m: &impl Preconditioner,
    opts: &PcgOptions,
) -> Result<PcgSolution, SparseError> {
    let mut ws = PcgWorkspace::new(f.len());
    let mut u = u0.to_vec();
    let rep = pcg_solve_into(k, f, &mut u, m, opts, &mut ws)?;
    Ok(PcgSolution {
        x: u,
        iterations: rep.iterations,
        converged: rep.converged,
        final_change: rep.final_change,
        final_relative_residual: rep.final_relative_residual,
        history: std::mem::take(&mut ws.history),
        stats: rep.stats,
    })
}

/// Solve `K u = f` by PCG with caller-owned storage: `u` holds the initial
/// guess on entry and the solution on exit, and every scratch vector lives
/// in `ws`.
///
/// This is the zero-allocation entry point: after `ws` is constructed (and
/// sized for `k` and the preconditioner), the iteration loop performs
/// **no heap allocation** — the SpMV, the preconditioner application, both
/// inner products and all vector updates run in place. Reusing one
/// workspace across a parameter sweep (ω scans, m sweeps, repeated
/// right-hand sides) therefore costs zero allocator traffic per solve, and
/// two consecutive calls with the same inputs produce bitwise-identical
/// results.
///
/// The iteration body runs on **fused kernels**
/// ([`vecops::fused_axpy_axpy_norm`], [`vecops::fused_xpby_dot`],
/// [`vecops::norm2_with_max`]): the `u`/`r` updates and the stopping-test
/// reduction partials are computed in a single pass per iteration instead
/// of three to four, with bitwise-identical results to the unfused
/// kernel sequence (`tests/par_determinism.rs`). With
/// [`PcgOptions::variant`] set to [`PcgVariant::Pipelined`] or
/// [`PcgVariant::SStep`] a communication-avoiding recurrence runs
/// instead (see [`pcg_try_solve_into`]).
///
/// An undersized workspace is resized on entry (that path allocates once).
///
/// # Errors
/// Same classes as [`pcg_solve`].
pub fn pcg_solve_into<A: SparseOp>(
    k: &A,
    f: &[f64],
    u: &mut [f64],
    m: &impl Preconditioner,
    opts: &PcgOptions,
    ws: &mut PcgWorkspace,
) -> Result<PcgReport, SparseError> {
    let rep = pcg_try_solve_into(k, f, u, m, opts, ws)?;
    if rep.converged {
        Ok(rep)
    } else {
        Err(SparseError::DidNotConverge {
            iterations: rep.iterations,
            residual: rep.final_relative_residual,
        })
    }
}

/// [`pcg_solve_into`] with budget exhaustion reported as **data** instead
/// of an error: the returned report has `converged == false` and carries
/// the *true* final relative residual `‖f − K·u‖₂ / ‖f‖₂`, recomputed
/// from the exit iterate rather than read from the recursively updated
/// in-loop residual (which drifts from the true one). Batched callers
/// ([`crate::multi::pcg_solve_multi`]) use this so one stubborn
/// right-hand side cannot abort a whole batch.
///
/// [`PcgOptions::variant`] selects the iteration: the classic two-dot
/// loop, the pipelined recurrence (one overlappable reduction phase per
/// iteration), or the s-step block recurrence (one Gram reduction phase
/// per `s` iterations). A recurrence that breaks down or detects
/// corruption **steps down the ladder from the current iterate**
/// (SStep → Pipelined → Classic), counting the iterations already spent
/// against the same budget.
///
/// # Errors
/// Shape violations, invalid options and inner-product breakdowns only.
pub fn pcg_try_solve_into<A: SparseOp>(
    k: &A,
    f: &[f64],
    u: &mut [f64],
    m: &impl Preconditioner,
    opts: &PcgOptions,
    ws: &mut PcgWorkspace,
) -> Result<PcgReport, SparseError> {
    let n = k.rows();
    if k.cols() != n {
        return Err(SparseError::NotSquare {
            rows: k.rows(),
            cols: k.cols(),
        });
    }
    if f.len() != n || u.len() != n || m.dim() != n {
        return Err(SparseError::ShapeMismatch {
            left: (n, n),
            right: (f.len(), u.len().max(m.dim())),
        });
    }
    if !(opts.tol.is_finite() && opts.tol > 0.0) {
        return Err(SparseError::InvalidTolerance { value: opts.tol });
    }
    let resolved = opts.variant.resolve()?;
    // Reject non-finite inputs up front: a NaN anywhere in `f` or `u⁰`
    // poisons every subsequent reduction, so without this check the solve
    // would iterate on garbage until the budget runs out.
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
    if ws.dim() != n {
        ws.resize(n);
    }
    if ws.precond_scratch.len() != m.scratch_len() {
        ws.precond_scratch.resize(m.scratch_len(), 0.0);
    }
    ws.history.clear();

    let mut stats = PcgStats::default();

    let f_norm = vecops::norm2(f);
    if f_norm == 0.0 {
        // Trivial system: for SPD `K`, `K u = 0` has exactly the zero
        // solution. Write it — returning with `u` untouched would hand a
        // warm-started caller back its stale guess as "the solution".
        vecops::zero(u);
        return Ok(PcgReport {
            iterations: 0,
            converged: true,
            final_change: 0.0,
            final_relative_residual: 0.0,
            stats,
        });
    }

    // The audit decision is resolved ONCE from the *requested* (resolved)
    // variant and the tolerance, so ladder reruns — including the classic
    // bottom rung — inherit the same auditing the drift-prone variant
    // opted into.
    let audit = AuditPlan::resolve(&opts.recovery, resolved, opts.tol, f_norm);
    if audit.enabled {
        ws.ensure_audit(n);
    }

    // The recovery ladder. Each rung starts from the iterate currently in
    // `u` (re-deriving its carries), charging the iterations already
    // performed against the shared budget:
    // * `Done` — the rung produced a final report;
    // * `Fallback` — breakdown or detected corruption: step DOWN one rung
    //   (SStep → Pipelined → Classic; classic recovers in place);
    // * `Replace` — audit divergence: re-enter the SAME rung warm (the
    //   re-derivation from `u` *is* the residual replacement), bounded by
    //   the `max_replacements` budget checked at the emit site.
    // Termination: `Replace` strictly advances `start` (audit schedule),
    // `Fallback` strictly descends, and classic terminates on its own.
    let mut rung = resolved;
    let mut start = 0usize;
    let mut change = f64::INFINITY;
    loop {
        let flow = match rung {
            PcgVariant::Pipelined => {
                ws.ensure_pipelined(n);
                pipelined_loop(
                    k, f, u, m, opts, ws, &mut stats, f_norm, &audit, start, change,
                )?
            }
            PcgVariant::SStep { s } => {
                ws.ensure_sstep(n, s);
                // A failed spectral estimate (a poisoned or degenerate
                // operator breaking the setup Lanczos) is a detected
                // fault, not a solve-fatal error: step down warm like
                // any other basis breakdown.
                match sstep_basis_interval(k, m, ws) {
                    Ok(interval) => sstep_loop(
                        k, f, u, m, opts, ws, &mut stats, f_norm, &audit, start, change, s,
                        interval,
                    )?,
                    Err(_) => {
                        stats.faults_detected += 1;
                        RungFlow::Fallback {
                            completed: start,
                            change,
                        }
                    }
                }
            }
            _ => {
                return classic_loop(
                    k, f, u, m, opts, ws, &mut stats, f_norm, &audit, start, change,
                )
            }
        };
        match flow {
            RungFlow::Done(report) => return Ok(report),
            RungFlow::Fallback {
                completed,
                change: c,
            } => {
                stats.fallbacks += 1;
                rung = match rung {
                    PcgVariant::SStep { .. } => PcgVariant::Pipelined,
                    _ => PcgVariant::Classic,
                };
                start = completed;
                change = c;
            }
            RungFlow::Replace {
                completed,
                change: c,
            } => {
                stats.replacements += 1;
                start = completed;
                change = c;
            }
        }
    }
}

/// Resolved audit configuration for one solve (policy × variant ×
/// tolerance × ‖f‖₂), fixed before the ladder runs so every rung sees the
/// same decision.
struct AuditPlan {
    enabled: bool,
    period: usize,
    /// Squared replacement bound: comparing `‖r_true − r‖₂²` against it
    /// avoids a square root, and [`diverged`] reads a NaN deviation
    /// (poisoned residual) as divergent.
    bound2: f64,
    max_replacements: usize,
}

impl AuditPlan {
    fn resolve(policy: &RecoveryPolicy, variant: PcgVariant, tol: f64, f_norm: f64) -> Self {
        let bound = replacement_bound(tol, f_norm);
        AuditPlan {
            enabled: policy.audit_enabled(variant, tol),
            period: policy.period(),
            bound2: bound * bound,
            max_replacements: policy.max_replacements,
        }
    }
}

/// One audit: recompute the true residual `f − K·u` into `aud` and return
/// its squared deviation from the recurrence residual `r`. The sum of
/// squares propagates NaN (unlike a max-based norm, which swallows it),
/// so a poisoned recurrence residual always reads as divergent.
fn audit_deviation2<A: SparseOp>(
    k: &A,
    f: &[f64],
    u: &[f64],
    r: &[f64],
    aud: &mut [f64],
    stats: &mut PcgStats,
) -> f64 {
    stats.audits += 1;
    vecops::copy(f, aud);
    k.mul_vec_axpy(-1.0, u, aud);
    stats.spmv += 1;
    aud.iter()
        .zip(r.iter())
        .map(|(t, ri)| {
            let d = t - ri;
            d * d
        })
        .sum()
}

/// Shared no-stopping-test exit: recompute the TRUE residual `f − K·u`
/// from the exit iterate (the recursively updated in-loop `r` drifts from
/// it over many iterations, so reporting its norm would overstate — or
/// understate — how close the returned iterate actually is).
#[allow(clippy::too_many_arguments)]
fn exit_report<A: SparseOp>(
    k: &A,
    f: &[f64],
    u: &[f64],
    r: &mut [f64],
    stats: &mut PcgStats,
    f_norm: f64,
    iterations: usize,
    converged: bool,
    change: f64,
) -> PcgReport {
    vecops::copy(f, r);
    k.mul_vec_axpy(-1.0, u, r);
    stats.spmv += 1;
    let final_rel = vecops::norm2(r) / f_norm.max(1e-300);
    PcgReport {
        iterations,
        converged,
        final_change: change,
        final_relative_residual: final_rel,
        stats: *stats,
    }
}

/// The classic rung driver: run [`classic_pass`] until it produces a
/// final report, re-entering it on every in-place recovery restart (audit
/// replacement or budgeted non-finite recovery). The classic loop is the
/// ladder's bottom rung, so it recovers by restarting *itself* from the
/// current iterate — each pass re-derives `r`, `r̂`, `p` from `u`, which
/// is exactly the residual-replacement transformation. Termination: audit
/// restarts strictly advance `start` ([`audit_due`]) and non-finite
/// restarts spend the `max_replacements` budget.
#[allow(clippy::too_many_arguments)]
fn classic_loop<A: SparseOp>(
    k: &A,
    f: &[f64],
    u: &mut [f64],
    m: &impl Preconditioner,
    opts: &PcgOptions,
    ws: &mut PcgWorkspace,
    stats: &mut PcgStats,
    f_norm: f64,
    audit: &AuditPlan,
    start_iter: usize,
    initial_change: f64,
) -> Result<PcgReport, SparseError> {
    let mut start = start_iter;
    let mut change = initial_change;
    loop {
        match classic_pass(k, f, u, m, opts, ws, stats, f_norm, audit, start, change)? {
            ClassicFlow::Done(report) => return Ok(report),
            ClassicFlow::Restart {
                completed,
                change: c,
            } => {
                start = completed;
                change = c;
            }
        }
    }
}

/// Control flow of one classic pass.
enum ClassicFlow {
    /// The pass produced a final report.
    Done(PcgReport),
    /// In-place recovery after `completed` iterations: re-enter the pass
    /// from the iterate in `u` (already counted against the replacement
    /// budget at the emit site).
    Restart { completed: usize, change: f64 },
}

/// Shared non-finite handling of the classic pass: count the detection,
/// then recover in place while the replacement budget lasts, surfacing
/// the typed error once it is spent.
fn nonfinite_flow(
    stats: &mut PcgStats,
    audit: &AuditPlan,
    phase: &'static str,
    iteration: usize,
    completed: usize,
    change: f64,
) -> Result<ClassicFlow, SparseError> {
    stats.faults_detected += 1;
    if stats.replacements < audit.max_replacements {
        stats.replacements += 1;
        Ok(ClassicFlow::Restart { completed, change })
    } else {
        Err(SparseError::NonFinite { phase, iteration })
    }
}

/// The classic Algorithm 1 loop (two serialized inner products per
/// iteration), starting from the iterate already in `u`. `start_iter`
/// iterations have been charged against the budget by a preceding
/// ladder rung or restart (0 for a direct classic solve);
/// `initial_change` is that attempt's last measured ‖Δu‖∞ (infinity for a
/// direct solve), reported if the loop body never runs — a breakdown on
/// the final budgeted iteration must not erase the measured step size.
///
/// Non-finite reduction scalars (a NaN/Inf out of a corrupted SpMV or
/// preconditioner application) are detected on the scalars *before* they
/// feed `α`/`β` — the iterate is still finite at every detection point,
/// so the in-place restart recovers from it (see [`nonfinite_flow`]).
/// When auditing is enabled, every [`AuditPlan::period`] iterations the
/// true residual is compared against the recurrence residual and
/// divergence beyond the bound triggers the same restart (which *is* the
/// replacement: the pass re-derives `r` from `u`). With auditing off and
/// finite scalars, the arithmetic is bit-for-bit the pre-recovery loop.
#[allow(clippy::too_many_arguments)]
fn classic_pass<A: SparseOp>(
    k: &A,
    f: &[f64],
    u: &mut [f64],
    m: &impl Preconditioner,
    opts: &PcgOptions,
    ws: &mut PcgWorkspace,
    stats: &mut PcgStats,
    f_norm: f64,
    audit: &AuditPlan,
    start_iter: usize,
    initial_change: f64,
) -> Result<ClassicFlow, SparseError> {
    let PcgWorkspace {
        r,
        rhat,
        p,
        kp,
        aud,
        precond_scratch,
        history,
        ..
    } = ws;

    // r⁰ = f − K u⁰.
    vecops::copy(f, r);
    k.mul_vec_axpy(-1.0, u, r);
    stats.spmv += 1;

    m.apply_with(r, rhat, precond_scratch);
    stats.precond_applications += 1;
    stats.precond_steps += m.steps_per_apply();

    // p⁰ ← r̂⁰ and rz₀ = (r̂⁰, r⁰) in one fused pass (b = 0 is an exact
    // copy, so stale workspace contents in p cannot leak).
    let mut rz = vecops::fused_xpby_dot(rhat, 0.0, p, r);
    stats.inner_products += 1;
    stats.reduction_phases += 1;
    if !rz.is_finite() {
        // A corrupted initial msolve (possible on a restart whose own
        // re-derivation hits the fault): recover before iterating.
        return nonfinite_flow(
            stats,
            audit,
            "msolve-reduction",
            start_iter,
            start_iter,
            initial_change,
        );
    }
    if rz < 0.0 {
        return Err(SparseError::NotPositiveDefinite {
            pivot: start_iter,
            value: rz,
        });
    }

    let mut change = initial_change;
    let mut completed = start_iter;
    for iter in start_iter + 1..=opts.max_iterations {
        // Residual audit: compare the recurrence residual against the
        // freshly recomputed true residual (state after iteration
        // `iter − 1`). Skipped once the replacement budget is spent — an
        // audit that cannot act would only burn an SpMV.
        if audit.enabled
            && audit_due(iter, start_iter, audit.period)
            && stats.replacements < audit.max_replacements
        {
            let dev2 = audit_deviation2(k, f, u, r, aud, stats);
            if diverged(dev2, audit.bound2) {
                stats.replacements += 1;
                return Ok(ClassicFlow::Restart {
                    completed: iter - 1,
                    change,
                });
            }
        }

        k.mul_vec_into(p, kp);
        stats.spmv += 1;
        let denom = vecops::dot(p, kp);
        stats.inner_products += 1;
        stats.reduction_phases += 1;
        if !denom.is_finite() {
            // Checked before the sign guard: NaN fails `<= 0.0` and would
            // otherwise flow straight into α. `u` has not been touched
            // this iteration, so the restart recovers from a clean
            // iterate.
            return nonfinite_flow(stats, audit, "spmv-reduction", iter, iter - 1, change);
        }
        if denom <= 0.0 {
            if rz == 0.0 {
                // Exact convergence in fewer than n steps: residual is 0.
                break;
            }
            return Err(SparseError::NotPositiveDefinite {
                pivot: iter,
                value: denom,
            });
        }
        completed = iter;
        let alpha = rz / denom;
        // One fused pass: u += αp, r −= α·Kp, and the ‖p‖∞ / ‖r‖∞
        // partials for both stopping tests.
        let norms = vecops::fused_axpy_axpy_norm(alpha, p, kp, u, r);
        // ‖u^{k+1} − uᵏ‖∞ = |α|·‖p‖∞ — no extra vector needed.
        change = alpha.abs() * norms.p_norm_inf;
        if !norms.all_finite() {
            // An Inf slipped past the finite dot (cancelation in the
            // reduction): `r` is poisoned but `u` was updated with the
            // already-validated α and a finite `p`, so the restart's
            // `r = f − K·u` re-derivation recovers. (A NaN in `r` hides
            // from the max-based norm and is caught one step later by the
            // msolve-reduction scalar.)
            return nonfinite_flow(stats, audit, "update", iter, iter, change);
        }

        let crit_value = match opts.criterion {
            StoppingCriterion::DisplacementChange => change,
            StoppingCriterion::RelativeResidual => {
                stats.inner_products += 1;
                vecops::norm2_with_max(r, norms.r_norm_inf) / f_norm.max(1e-300)
            }
        };
        if opts.record_history {
            history.push(crit_value);
        }
        if crit_value < opts.tol {
            let final_rel = vecops::norm2_with_max(r, norms.r_norm_inf) / f_norm.max(1e-300);
            return Ok(ClassicFlow::Done(PcgReport {
                iterations: iter,
                converged: true,
                final_change: change,
                final_relative_residual: final_rel,
                stats: *stats,
            }));
        }

        m.apply_with(r, rhat, precond_scratch);
        stats.precond_applications += 1;
        stats.precond_steps += m.steps_per_apply();
        let rz_new = vecops::dot(rhat, r);
        stats.inner_products += 1;
        stats.reduction_phases += 1;
        if !rz_new.is_finite() {
            // NaN/Inf out of the preconditioner (or a NaN residual the
            // max-norm swallowed above): detected on the scalar before β
            // is formed, while `u` is still finite.
            return nonfinite_flow(stats, audit, "msolve-reduction", iter, iter, change);
        }
        if rz_new < 0.0 {
            return Err(SparseError::NotPositiveDefinite {
                pivot: iter,
                value: rz_new,
            });
        }
        let beta = rz_new / rz.max(1e-300);
        rz = rz_new;
        vecops::xpby(rhat, beta, p);
    }

    // rz == 0 exact-breakdown exit lands here with converged status. The
    // `change < tol` arm is meaningful only for the displacement test:
    // under RelativeResidual a sub-tolerance *step size* says nothing
    // about the residual the caller asked to bound (a stagnating solve
    // must not be reported as converged). A carried `initial_change`
    // cannot take the arm: the pipelined loop would have returned
    // converged itself before falling back with a sub-tolerance step.
    let converged =
        rz == 0.0 || (opts.criterion == StoppingCriterion::DisplacementChange && change < opts.tol);
    let iterations = if converged {
        completed
    } else {
        opts.max_iterations
    };
    Ok(ClassicFlow::Done(exit_report(
        k, f, u, r, stats, f_norm, iterations, converged, change,
    )))
}

/// Control flow of a pipelined or s-step attempt.
enum RungFlow {
    /// The attempt produced a final report (converged, exact breakdown,
    /// or budget exhaustion).
    Done(PcgReport),
    /// Recurrence breakdown or detected corruption after `completed`
    /// iterations: the ladder must step DOWN one rung from the iterate in
    /// `u`, carrying the last measured ‖Δu‖∞ for reporting.
    Fallback { completed: usize, change: f64 },
    /// Audit divergence after `completed` iterations: the ladder must
    /// re-enter the SAME rung warm — the rung's re-initialization from
    /// `u` recomputes `r = f − K·u` and re-derives every carry and CG
    /// scalar from it, which is precisely the residual replacement.
    Replace { completed: usize, change: f64 },
}

/// The pipelined (Ghysels–Vanroose) loop: the iteration carries
/// `s = Kp` (in the workspace's `Kp` slot), `w = Kz`, `q = M⁻¹s` and
/// `zz = K·q`, plus the recomputed auxiliaries `mv = M⁻¹w` and
/// `nv = K·mv`, and reconstructs the classic denominator `(p, Kp)` from
/// already-reduced scalars, so `α` and `β` come out of ONE fused
/// reduction phase that only consumes vectors finished *before* the
/// heavy phase of the iteration:
///
/// ```text
/// p ← z + βp;  s ← w + βs;  q ← mv + βq;  zz ← nv + βzz
/// u += αp;  r −= αs;  z −= αq;  w −= αzz   ⊕ stopping partials
/// γ′ = (r, z), δ = (w, z), guard (p, s)    ← reduction INITIATED here
/// mv = M⁻¹ w;  nv = K·mv                   ← overlapped heavy phase
/// β = γ′/γ;  α = γ′/(δ − β·γ′/α_old)       ← reduction CONSUMED here
/// ```
///
/// Nothing the heavy phase computes feeds the reduction, so the SPMD
/// executor *initiates* the reduction (split-barrier `arrive`) before
/// `M⁻¹w` / `K·mv` and *consumes* it (`wait`) after them — the reduction
/// latency hides behind the heaviest work of the iteration. This serial
/// analogue runs the same recurrences with the same stats; it consumes
/// the reduction (and runs its guards) *before* the heavy phase, which
/// changes no arithmetic — the scalars never feed `mv`/`nv` — but lets a
/// converging or breaking-down final iteration skip one preconditioner
/// application and SpMV.
///
/// Every iteration vector except `mv`/`nv` is a recurrence carry, so the
/// rounding drift is larger than the classic loop's; the guards are
/// correspondingly strict — the directly measured curvature `(p, s)`
/// and the reconstructed denominator are both checked, and a
/// nonpositive carried
/// `γ′ = (r, z)` routes to the classic **fallback**, not to an
/// indefiniteness error, because a drifted carry cannot certify the sign
/// of the true quadratic form (the classic continuation's fresh probes
/// produce the canonical error if the system really is indefinite).
#[allow(clippy::too_many_arguments)]
fn pipelined_loop<A: SparseOp>(
    k: &A,
    f: &[f64],
    u: &mut [f64],
    m: &impl Preconditioner,
    opts: &PcgOptions,
    ws: &mut PcgWorkspace,
    stats: &mut PcgStats,
    f_norm: f64,
    audit: &AuditPlan,
    start_iter: usize,
    initial_change: f64,
) -> Result<RungFlow, SparseError> {
    let PcgWorkspace {
        r,
        rhat: z,
        p,
        kp: s,
        w,
        q,
        zz,
        mv,
        nv,
        aud,
        precond_scratch,
        history,
        ..
    } = ws;

    // r⁰ = f − K u⁰;  z⁰ = M⁻¹ r⁰;  w⁰ = K z⁰.
    vecops::copy(f, r);
    k.mul_vec_axpy(-1.0, u, r);
    stats.spmv += 1;
    m.apply_with(r, z, precond_scratch);
    stats.precond_applications += 1;
    stats.precond_steps += m.steps_per_apply();
    k.mul_vec_into(z, w);
    stats.spmv += 1;
    // γ₀ = (r, z) and δ₀ = (w, z): one reduction phase, which the SPMD
    // schedule initiates before — and consumes after — the mv/nv phase.
    let mut gamma = vecops::dot(z, r);
    let delta = vecops::dot(w, z);
    stats.inner_products += 2;
    stats.reduction_phases += 1;
    if !(gamma.is_finite() && delta.is_finite()) {
        // Corrupted initialization: step down the ladder.
        stats.faults_detected += 1;
        return Ok(RungFlow::Fallback {
            completed: start_iter,
            change: initial_change,
        });
    }
    if gamma < 0.0 {
        // Freshly computed quadratic form (no drift yet): indefinite M.
        return Err(SparseError::NotPositiveDefinite {
            pivot: start_iter,
            value: gamma,
        });
    }
    if gamma == 0.0 {
        return Ok(RungFlow::Done(exit_report(
            k,
            f,
            u,
            r,
            stats,
            f_norm,
            start_iter,
            true,
            initial_change,
        )));
    }
    if delta <= 0.0 {
        // (z, Kz) ≤ 0 with z ≠ 0: hand the start iterate down the
        // ladder; the classic rung's probes produce the canonical typed
        // error if the system really is indefinite.
        return Ok(RungFlow::Fallback {
            completed: start_iter,
            change: initial_change,
        });
    }
    // mv⁰ = M⁻¹ w⁰;  nv⁰ = K mv⁰ — the first overlapped heavy phase.
    m.apply_with(w, mv, precond_scratch);
    stats.precond_applications += 1;
    stats.precond_steps += m.steps_per_apply();
    k.mul_vec_into(mv, nv);
    stats.spmv += 1;
    let mut alpha = gamma / delta;
    let mut beta = 0.0f64;
    let mut change = initial_change;

    for iter in start_iter + 1..=opts.max_iterations {
        // Residual audit (state after iteration `iter − 1`, before this
        // iteration's carries move): divergence re-enters this rung warm,
        // re-deriving all six carries from the true residual.
        if audit.enabled
            && audit_due(iter, start_iter, audit.period)
            && stats.replacements < audit.max_replacements
        {
            let dev2 = audit_deviation2(k, f, u, r, aud, stats);
            if diverged(dev2, audit.bound2) {
                return Ok(RungFlow::Replace {
                    completed: iter - 1,
                    change,
                });
            }
        }

        // The four direction carries, then the four iterate/carry updates,
        // in four fused sweeps (β = 0 makes the direction carries exact
        // copies: the initialization path).
        vecops::fused_xpby_xpby(z, w, beta, p, s);
        vecops::fused_xpby_xpby(mv, nv, beta, q, zz);
        let norms = vecops::fused_axpy_axpy_norm(alpha, p, s, u, r);
        vecops::fused_axpy2(-alpha, q, z, zz, w);
        change = alpha.abs() * norms.p_norm_inf;
        if opts.criterion == StoppingCriterion::DisplacementChange {
            if opts.record_history {
                history.push(change);
            }
            if change < opts.tol {
                let final_rel = vecops::norm2_with_max(r, norms.r_norm_inf) / f_norm.max(1e-300);
                return Ok(RungFlow::Done(PcgReport {
                    iterations: iter,
                    converged: true,
                    final_change: change,
                    final_relative_residual: final_rel,
                    stats: *stats,
                }));
            }
        }

        // THE fused reduction phase: γ′, δ, the (p, s) guard and ‖r‖₂ in
        // one sweep over the freshly updated carries.
        let d3 = vecops::fused_dot3_norm(r, z, w, p, s, norms.r_norm_inf);
        stats.inner_products += 3;
        stats.reduction_phases += 1;

        // Non-finite detection on the fused scalars before any is
        // consumed. A fault in the overlapped heavy phase (mv/nv) lands
        // here one iteration later — after it has flowed through q/zz
        // into z/w — but still before `u` is touched by a poisoned α, so
        // the next rung recovers from a finite iterate.
        if !d3.all_finite() {
            stats.faults_detected += 1;
            return Ok(RungFlow::Fallback {
                completed: iter,
                change,
            });
        }

        if opts.criterion == StoppingCriterion::RelativeResidual {
            let rel = d3.r_norm2 / f_norm.max(1e-300);
            if opts.record_history {
                history.push(rel);
            }
            if rel < opts.tol {
                return Ok(RungFlow::Done(PcgReport {
                    iterations: iter,
                    converged: true,
                    final_change: change,
                    final_relative_residual: rel,
                    stats: *stats,
                }));
            }
        }

        // Guards: γ′ is a product of two recurrence carries (see the
        // function docs), so every nonpositive scalar — carried γ′,
        // measured curvature (p, s), or the reconstructed denominator —
        // routes to the classic fallback.
        if d3.rz <= 0.0 || d3.ps <= 0.0 {
            return Ok(RungFlow::Fallback {
                completed: iter,
                change,
            });
        }
        let beta_new = d3.rz / gamma.max(1e-300);
        let denom = d3.wz - beta_new * d3.rz / alpha;
        if !(denom.is_finite() && denom > 0.0) {
            return Ok(RungFlow::Fallback {
                completed: iter,
                change,
            });
        }

        // Overlapped heavy phase: the scalars above never feed it — the
        // SPMD schedule runs it between the reduction's arrive and wait.
        m.apply_with(w, mv, precond_scratch);
        stats.precond_applications += 1;
        stats.precond_steps += m.steps_per_apply();
        k.mul_vec_into(mv, nv);
        stats.spmv += 1;

        beta = beta_new;
        alpha = d3.rz / denom;
        gamma = d3.rz;
    }

    Ok(RungFlow::Done(exit_report(
        k,
        f,
        u,
        r,
        stats,
        f_norm,
        opts.max_iterations,
        false,
        change,
    )))
}

/// Lanczos budget and starting seed of the s-step rung's fallback
/// spectral estimate — mirrors the polynomial preconditioner's
/// construction-time estimate so the two boundaries of the interval
/// cache behave alike. Public so the SPMD executor's estimate follows
/// the identical recipe (same budget, same seed, same safeguard).
pub const SSTEP_SPECTRUM_STEPS: usize = 60;
pub const SSTEP_SPECTRUM_SEED: u64 = 0x5EED;

/// Eigenvalue bounds for the s-step Chebyshev basis recurrence, sourced
/// in priority order:
///
/// 1. the preconditioner's own [`Preconditioner::spectral_hint`] — the
///    polynomial preconditioner already paid a Lanczos run for its
///    schedule, and this is the poly-precond ↔ s-step-basis half of the
///    one-estimate-per-operator cache;
/// 2. the interval already cached in the workspace by an earlier s-step
///    solve on this system;
/// 3. a fresh estimate, cached for every later solve: Lanczos on the
///    composite `x ↦ M⁻¹(K x)` — the operator the recurrence actually
///    iterates. That map is self-adjoint in the `M` inner product, not
///    the Euclidean one, so the Ritz values carry an orthogonality
///    error; but bound accuracy affects only the *conditioning* of the
///    basis (any increasing-degree recurrence spans the same Krylov
///    space), and a snug bracket on `M⁻¹K` keeps the Chebyshev basis
///    near-orthogonal where a loose surrogate (the Jacobi-scaled
///    spectrum of `K`, a superset interval for SSOR-class `M`) drives
///    the Gram condition number up like a monomial basis.
///
/// Estimation is setup cost — charged like polynomial-preconditioner
/// construction, i.e. not counted in [`PcgStats`].
fn sstep_basis_interval<A: SparseOp>(
    k: &A,
    m: &impl Preconditioner,
    ws: &mut PcgWorkspace,
) -> Result<SpectralInterval, SparseError> {
    if let Some(hint) = m.spectral_hint() {
        return Ok(hint);
    }
    if let Some(cached) = ws.sstep_interval {
        return Ok(cached);
    }
    let n = k.rows();
    let est = {
        let mut tmp = vec![0.0; n];
        let mut scratch = vec![0.0; m.scratch_len()];
        lanczos_extremes(n, SSTEP_SPECTRUM_STEPS, SSTEP_SPECTRUM_SEED, |x, y| {
            k.mul_vec_into(x, &mut tmp);
            m.apply_with(&tmp, y, &mut scratch);
        })?
    };
    let interval = crate::poly::safeguard_jacobi_interval(est);
    ws.sstep_interval = Some(interval);
    Ok(interval)
}

/// In-place rank-revealing Cholesky factorization `W = L·Lᵀ` of a
/// row-major `s×s` symmetric matrix; only the lower triangle is read,
/// and it is overwritten with `L`. Returns the number of columns
/// factored before a pivot collapsed — the factorization stops at the
/// first pivot that is non-finite, nonpositive, or below roundoff
/// relative to the largest original diagonal entry.
///
/// A return of `0` is the s-step Gram breakdown signal (an indefinite
/// or numerically collapsed basis), which the caller handles by
/// stepping down the recovery ladder. A return in `1..s` is the
/// *endgame* signal: the residual's remaining Krylov grade is smaller
/// than the block, so the trailing basis vectors are linearly dependent
/// to machine precision and only the leading sub-steps carry
/// information. Without the relative-pivot cutoff those trailing pivots
/// pass `> 0.0` at roundoff level, the triangular solves amplify the
/// noise, and the final block's "updates" destroy the superlinear
/// terminal convergence classic CG gets for free. Public so the SPMD
/// solver's replicated scalar phase runs bitwise-identical arithmetic.
pub fn small_cholesky_factor(w: &mut [f64], s: usize) -> usize {
    debug_assert!(w.len() >= s * s, "small_cholesky_factor: undersized");
    let mut max_diag: f64 = 0.0;
    for i in 0..s {
        max_diag = max_diag.max(w[i * s + i]);
    }
    if !(max_diag.is_finite() && max_diag > 0.0) {
        return 0;
    }
    // Pivots of an SPD Gram matrix decay with the basis conditioning;
    // anything this far under the largest diagonal is pure roundoff.
    let floor = max_diag * (s as f64) * f64::EPSILON;
    for i in 0..s {
        for j in 0..=i {
            let mut sum = w[i * s + j];
            for t in 0..j {
                sum -= w[i * s + t] * w[j * s + t];
            }
            if i == j {
                if !(sum.is_finite() && sum > floor) {
                    return i;
                }
                w[i * s + i] = sum.sqrt();
            } else {
                w[i * s + j] = sum / w[j * s + j];
            }
        }
    }
    s
}

/// Solve the leading `cols×cols` system `L·Lᵀ·x = b` in place given a
/// factor from [`small_cholesky_factor`] stored at row stride `s`
/// (`b[..cols]` holds `x` on exit; `b[cols..]` is untouched).
pub fn small_cholesky_solve(l: &[f64], s: usize, cols: usize, b: &mut [f64]) {
    debug_assert!(
        cols <= s && l.len() >= s * s && b.len() >= cols,
        "small_cholesky_solve: undersized"
    );
    for i in 0..cols {
        let mut x = b[i];
        for t in 0..i {
            x -= l[i * s + t] * b[t];
        }
        b[i] = x / l[i * s + i];
    }
    for i in (0..cols).rev() {
        let mut x = b[i];
        for t in i + 1..cols {
            x -= l[t * s + i] * b[t];
        }
        b[i] = x / l[i * s + i];
    }
}

/// The s-step (communication-avoiding) rung. Per outer step:
///
/// ```text
/// v₁ = M⁻¹r;   vⱼ₊₁ = (2/δ)(M⁻¹K·vⱼ − θ·vⱼ) − vⱼ₋₁     (Chebyshev basis)
/// G1 = VᵀAV, G2 = AP'ᵀV, gv = Vᵀr, gp = P'ᵀr, (r,r)    ← ONE reduction
/// B = −W'⁻¹G2;  P = V + P'B;  AP = AV + AP'B           (replicated s×s)
/// W = G1 + G2ᵀB = PᵀKP;  a = W⁻¹(gv + Bᵀgp)            (dense Cholesky)
/// u += aⱼpⱼ, r −= aⱼ·apⱼ, j = 1…s                      (s update sub-steps)
/// ```
///
/// where primes mark the previous outer step's direction block (parity
/// double-buffered; the first block has `B = 0`, `P = V`). Conjugating
/// the block against the previous block only is the Chronopoulos–Gear
/// s-step formulation: in exact arithmetic conjugacy against older
/// blocks is automatic from the Krylov structure, and the iterate after
/// each sub-step's update matches the classic iteration — so `s`
/// iterations cost ONE reduction phase (the fused Gram sweep; on the
/// SPMD executor, one barrier) instead of the classic 2s.
///
/// The displacement stopping test runs per sub-step on the classic
/// per-iteration quantity `|aⱼ|·‖pⱼ‖∞` (fused into the update sweep, not
/// a counted reduction); the relative-residual test reads the block's
/// entering `‖r‖₂` off the Gram phase, converging at block granularity.
/// History records one value per sub-step (displacement) or per outer
/// step (residual). A final partial block is not run: the loop exits
/// with budget-exhaustion when fewer than `s` budgeted iterations
/// remain.
///
/// Breakdown — non-finite Gram scalars (faults), a nonpositive Cholesky
/// pivot, or a non-finite update — emits [`RungFlow::Fallback`] and the
/// ladder steps down warm onto the Pipelined rung; audit divergence
/// emits [`RungFlow::Replace`] as usual. A negative fresh quadratic form
/// `(M⁻¹r, r)` is an indefinite preconditioner: typed error, exactly as
/// in the other rungs.
#[allow(clippy::too_many_arguments)]
fn sstep_loop<A: SparseOp>(
    k: &A,
    f: &[f64],
    u: &mut [f64],
    m: &impl Preconditioner,
    opts: &PcgOptions,
    ws: &mut PcgWorkspace,
    stats: &mut PcgStats,
    f_norm: f64,
    audit: &AuditPlan,
    start_iter: usize,
    initial_change: f64,
    s: usize,
    interval: SpectralInterval,
) -> Result<RungFlow, SparseError> {
    let n = u.len();
    let msteps = m.steps_per_apply();
    let PcgWorkspace {
        r,
        rhat: t,
        aud,
        precond_scratch,
        history,
        sstep,
        sstep_small,
        ..
    } = ws;

    // Six s×n column blocks; the (pa, apa)/(pb, apb) pairs alternate
    // between "current" and "previous" roles each outer step.
    let (v_blk, rest) = sstep.split_at_mut(s * n);
    let (av_blk, rest) = rest.split_at_mut(s * n);
    let (pa_blk, rest) = rest.split_at_mut(s * n);
    let (apa_blk, rest) = rest.split_at_mut(s * n);
    let (pb_blk, apb_blk) = rest.split_at_mut(s * n);
    let (g1, rest) = sstep_small.split_at_mut(s * s);
    let (g2, rest) = rest.split_at_mut(s * s);
    let (bmat, rest) = rest.split_at_mut(s * s);
    let (wfac_a, rest) = rest.split_at_mut(s * s);
    let (wfac_b, rest) = rest.split_at_mut(s * s);
    let (gv, rest) = rest.split_at_mut(s);
    let (gp, rest) = rest.split_at_mut(s);
    let (gcur, acoef) = rest.split_at_mut(s);

    // r = f − K·u (fresh on rung entry; a warm Replace re-entry makes
    // this re-derivation the residual replacement).
    vecops::copy(f, r);
    k.mul_vec_axpy(-1.0, u, r);
    stats.spmv += 1;

    // Zero the first "previous" parity so the unanimous-by-construction
    // Gram sweep over it reads deterministic zeros regardless of stale
    // workspace contents (its results are unused while B = 0).
    vecops::zero(pb_blk);
    vecops::zero(apb_blk);

    let theta = 0.5 * (interval.max + interval.min);
    let delta = 0.5 * (interval.max - interval.min);
    let degenerate = interval.is_degenerate();

    let mut completed = start_iter;
    let mut change = initial_change;
    let mut first_block = true;
    let mut parity = false;

    while completed + s <= opts.max_iterations {
        // Residual audit between outer steps (state after the previous
        // block), due when any of the block's sub-step indices hits the
        // audit schedule. Skipped once the replacement budget is spent.
        if audit.enabled
            && stats.replacements < audit.max_replacements
            && (completed + 1..=completed + s).any(|i| audit_due(i, start_iter, audit.period))
        {
            let dev2 = audit_deviation2(k, f, u, r, aud, stats);
            if diverged(dev2, audit.bound2) {
                return Ok(RungFlow::Replace { completed, change });
            }
        }

        let (p_cur, ap_cur, p_prev, ap_prev) = if parity {
            (&mut *pb_blk, &mut *apb_blk, &*pa_blk, &*apa_blk)
        } else {
            (&mut *pa_blk, &mut *apa_blk, &*pb_blk, &*apb_blk)
        };
        let (wfac_cur, wfac_prev) = if parity {
            (&mut *wfac_b, &*wfac_a)
        } else {
            (&mut *wfac_a, &*wfac_b)
        };

        // ---- Basis block: v₁ = M⁻¹r, then the three-term recurrence.
        m.apply_with(r, &mut v_blk[..n], precond_scratch);
        stats.precond_applications += 1;
        stats.precond_steps += msteps;
        for j in 1..s {
            k.mul_vec_into(&v_blk[(j - 1) * n..j * n], &mut av_blk[(j - 1) * n..j * n]);
            stats.spmv += 1;
            m.apply_with(&av_blk[(j - 1) * n..j * n], t, precond_scratch);
            stats.precond_applications += 1;
            stats.precond_steps += msteps;
            let (head, tail) = v_blk.split_at_mut(j * n);
            let vj = &mut tail[..n];
            let vp = &head[(j - 1) * n..];
            if degenerate {
                // Collapsed interval: scaled-monomial fallback vⱼ = t/θ
                // (θ > 0 for any safeguarded interval).
                vecops::fused_cheb_basis(1.0 / theta, 0.0, 0.0, t, vp, vp, vj);
            } else if j == 1 {
                vecops::fused_cheb_basis(1.0 / delta, theta, 0.0, t, vp, vp, vj);
            } else {
                let vpp = &head[(j - 2) * n..(j - 1) * n];
                vecops::fused_cheb_basis(2.0 / delta, theta, 1.0, t, vp, vpp, vj);
            }
        }
        // Final SpMV completes A·V (on the SPMD executor the Gram
        // partials below ride this phase's barrier).
        k.mul_vec_into(&v_blk[(s - 1) * n..], &mut av_blk[(s - 1) * n..]);
        stats.spmv += 1;

        // ---- ONE fused Gram reduction phase for the whole block.
        for i in 0..s {
            let avi = &av_blk[i * n..(i + 1) * n];
            for j in 0..=i {
                let d = vecops::dot(&v_blk[j * n..(j + 1) * n], avi);
                g1[i * s + j] = d;
                g1[j * s + i] = d;
            }
        }
        for i in 0..s {
            let api = &ap_prev[i * n..(i + 1) * n];
            for j in 0..s {
                g2[i * s + j] = vecops::dot(api, &v_blk[j * n..(j + 1) * n]);
            }
        }
        for j in 0..s {
            gv[j] = vecops::dot(&v_blk[j * n..(j + 1) * n], r);
            gp[j] = vecops::dot(&p_prev[j * n..(j + 1) * n], r);
        }
        let rr = vecops::dot(r, r);
        stats.inner_products += s * (s + 1) / 2 + s * s + 2 * s + 1;
        stats.reduction_phases += 1;

        // ---- Guards on the reduced scalars (the iterate is untouched).
        let finite = rr.is_finite()
            && g1.iter().all(|x| x.is_finite())
            && g2.iter().all(|x| x.is_finite())
            && gv.iter().all(|x| x.is_finite())
            && gp.iter().all(|x| x.is_finite());
        if !finite {
            stats.faults_detected += 1;
            return Ok(RungFlow::Fallback { completed, change });
        }
        // gv[0] = (M⁻¹r, r) is a fresh quadratic form every block.
        if gv[0] < 0.0 {
            return Err(SparseError::NotPositiveDefinite {
                pivot: completed,
                value: gv[0],
            });
        }
        if gv[0] == 0.0 {
            // Exact convergence: r = 0 under an SPD preconditioner.
            return Ok(RungFlow::Done(exit_report(
                k, f, u, r, stats, f_norm, completed, true, change,
            )));
        }
        if opts.criterion == StoppingCriterion::RelativeResidual {
            let rel = rr.sqrt() / f_norm.max(1e-300);
            if opts.record_history {
                history.push(rel);
            }
            if rel < opts.tol {
                return Ok(RungFlow::Done(exit_report(
                    k, f, u, r, stats, f_norm, completed, true, change,
                )));
            }
        }

        // ---- Replicated small dense work: coupling, Gram assembly,
        // Cholesky. (On the SPMD executor every worker runs this
        // identically on the reduced scalars — unanimous branching.)
        if first_block {
            // No previous block: B = 0, P = V, AP = AV, W = G1, g = gv.
            p_cur.copy_from_slice(v_blk);
            ap_cur.copy_from_slice(av_blk);
            wfac_cur.copy_from_slice(g1);
            gcur.copy_from_slice(gv);
        } else {
            // B = −W'⁻¹·G2, column by column via the carried factor.
            for j in 0..s {
                for i in 0..s {
                    acoef[i] = -g2[i * s + j];
                }
                small_cholesky_solve(wfac_prev, s, s, acoef);
                for i in 0..s {
                    bmat[i * s + j] = acoef[i];
                }
            }
            // P = V + P'·B and AP = AV + AP'·B (block A-conjugation).
            for j in 0..s {
                let pj = &mut p_cur[j * n..(j + 1) * n];
                pj.copy_from_slice(&v_blk[j * n..(j + 1) * n]);
                for i in 0..s {
                    vecops::axpy(bmat[i * s + j], &p_prev[i * n..(i + 1) * n], pj);
                }
            }
            for j in 0..s {
                let apj = &mut ap_cur[j * n..(j + 1) * n];
                apj.copy_from_slice(&av_blk[j * n..(j + 1) * n]);
                for i in 0..s {
                    vecops::axpy(bmat[i * s + j], &ap_prev[i * n..(i + 1) * n], apj);
                }
            }
            // W = PᵀKP = G1 + G2ᵀB (only the lower triangle feeds the
            // Cholesky, sidestepping the floating-point asymmetry of the
            // product), and g = gv + Bᵀgp.
            for i in 0..s {
                for j in 0..=i {
                    let mut sum = g1[i * s + j];
                    for q in 0..s {
                        sum += g2[q * s + i] * bmat[q * s + j];
                    }
                    wfac_cur[i * s + j] = sum;
                }
            }
            for j in 0..s {
                let mut sum = gv[j];
                for i in 0..s {
                    sum += bmat[i * s + j] * gp[i];
                }
                gcur[j] = sum;
            }
        }
        let cols = small_cholesky_factor(wfac_cur, s);
        if cols == 0 {
            // Ill-conditioned or indefinite Gram matrix: the basis has
            // numerically collapsed — step down the ladder warm.
            return Ok(RungFlow::Fallback { completed, change });
        }
        // cols < s is the endgame: the residual's Krylov grade ran out
        // mid-block. Take only the well-conditioned leading sub-steps
        // and restart the block recurrence from the updated residual —
        // the trailing "directions" are roundoff-level linear
        // dependencies whose coefficients would wreck the terminal
        // superlinear drop.
        acoef.copy_from_slice(gcur);
        small_cholesky_solve(wfac_cur, s, cols, acoef);
        if acoef[..cols].iter().any(|x| !x.is_finite()) {
            stats.faults_detected += 1;
            return Ok(RungFlow::Fallback { completed, change });
        }

        // ---- Local update sub-steps (all s of them, or the factored
        // leading `cols` in the endgame), each on the classic fused
        // update kernel with the classic per-iteration displacement.
        let mut converged_at = None;
        for j in 0..cols {
            let alpha = acoef[j];
            let norms = vecops::fused_axpy_axpy_norm(
                alpha,
                &p_cur[j * n..(j + 1) * n],
                &ap_cur[j * n..(j + 1) * n],
                u,
                r,
            );
            completed += 1;
            change = alpha.abs() * norms.p_norm_inf;
            if opts.record_history && opts.criterion == StoppingCriterion::DisplacementChange {
                history.push(change);
            }
            if !norms.all_finite() {
                // u took a finite update (α and p passed the Gram
                // guards); the next rung's r = f − K·u re-derivation
                // recovers the poisoned residual.
                stats.faults_detected += 1;
                return Ok(RungFlow::Fallback { completed, change });
            }
            if opts.criterion == StoppingCriterion::DisplacementChange && change < opts.tol {
                converged_at = Some(completed);
                break;
            }
        }
        if let Some(iterations) = converged_at {
            return Ok(RungFlow::Done(exit_report(
                k, f, u, r, stats, f_norm, iterations, true, change,
            )));
        }
        // An endgame-truncated block leaves no full-rank carried factor
        // to conjugate against — restart the recurrence from r.
        first_block = cols < s;
        parity = !parity;
    }

    // Budget exhausted (including a final sliver shorter than one block).
    Ok(RungFlow::Done(exit_report(
        k, f, u, r, stats, f_norm, completed, false, change,
    )))
}

/// Plain conjugate gradients (`M = I`) — the paper's `m = 0` baseline rows.
///
/// # Errors
/// Same classes as [`pcg_solve`].
pub fn cg_solve<A: SparseOp>(
    k: &A,
    f: &[f64],
    opts: &PcgOptions,
) -> Result<PcgSolution, SparseError> {
    pcg_solve(k, f, &IdentityPreconditioner::new(f.len()), opts)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mstep::MStepSsorPreconditioner;
    use crate::preconditioner::DiagonalPreconditioner;
    use mspcg_coloring::Coloring;
    use mspcg_sparse::CsrMatrix;
    use mspcg_sparse::{CooMatrix, Partition};

    fn laplacian(n: usize) -> CsrMatrix {
        let mut a = CooMatrix::new(n, n);
        for i in 0..n {
            a.push(i, i, 2.0).unwrap();
            if i + 1 < n {
                a.push_sym(i, i + 1, -1.0).unwrap();
            }
        }
        a.to_csr()
    }

    fn rb(n: usize) -> (CsrMatrix, Partition) {
        let a = laplacian(n);
        let labels: Vec<usize> = (0..n).map(|i| i % 2).collect();
        let ord = Coloring::from_labels(labels, 2).unwrap().ordering();
        (ord.permute_matrix(&a).unwrap(), ord.partition)
    }

    #[test]
    fn cg_solves_laplacian_to_direct_accuracy() {
        let n = 24;
        let a = laplacian(n);
        let x_true: Vec<f64> = (0..n).map(|i| ((i * i) % 7) as f64 - 3.0).collect();
        let b = a.mul_vec(&x_true);
        let opts = PcgOptions {
            tol: 1e-12,
            criterion: StoppingCriterion::RelativeResidual,
            ..Default::default()
        };
        let sol = cg_solve(&a, &b, &opts).unwrap();
        assert!(sol.converged);
        for (u, v) in sol.x.iter().zip(&x_true) {
            assert!((u - v).abs() < 1e-8);
        }
    }

    #[test]
    fn cg_on_zero_rhs_returns_zero() {
        let a = laplacian(5);
        let sol = cg_solve(&a, &[0.0; 5], &PcgOptions::default()).unwrap();
        assert!(sol.converged);
        assert_eq!(sol.iterations, 0);
        assert_eq!(sol.x, vec![0.0; 5]);
    }

    #[test]
    fn pcg_with_mstep_ssor_converges_in_fewer_iterations() {
        let (a, p) = rb(64);
        let x_true: Vec<f64> = (0..64).map(|i| (i as f64 * 0.1).sin()).collect();
        let b = a.mul_vec(&x_true);
        let opts = PcgOptions {
            tol: 1e-10,
            ..Default::default()
        };
        let plain = cg_solve(&a, &b, &opts).unwrap();
        let pre = MStepSsorPreconditioner::unparametrized(&a, &p, 1).unwrap();
        let pcg = pcg_solve(&a, &b, &pre, &opts).unwrap();
        assert!(pcg.converged && plain.converged);
        assert!(
            pcg.iterations < plain.iterations,
            "pcg {} !< cg {}",
            pcg.iterations,
            plain.iterations
        );
        // Both reach the true solution.
        for (u, v) in pcg.x.iter().zip(&x_true) {
            assert!((u - v).abs() < 1e-6);
        }
    }

    #[test]
    fn parametrized_beats_unparametrized_at_same_m() {
        let (a, p) = rb(128);
        let b: Vec<f64> = (0..128).map(|i| ((i % 13) as f64) - 6.0).collect();
        let opts = PcgOptions {
            tol: 1e-10,
            ..Default::default()
        };
        for m in [2usize, 3, 4] {
            let un = MStepSsorPreconditioner::unparametrized(&a, &p, m).unwrap();
            let pa = MStepSsorPreconditioner::parametrized(&a, &p, m).unwrap();
            let s_un = pcg_solve(&a, &b, &un, &opts).unwrap();
            let s_pa = pcg_solve(&a, &b, &pa, &opts).unwrap();
            assert!(
                s_pa.iterations <= s_un.iterations,
                "m = {m}: parametrized {} > unparametrized {}",
                s_pa.iterations,
                s_un.iterations
            );
        }
    }

    #[test]
    fn iterations_decrease_with_m() {
        let (a, p) = rb(128);
        let b: Vec<f64> = (0..128).map(|i| (i as f64 * 0.05).cos()).collect();
        let opts = PcgOptions {
            tol: 1e-10,
            ..Default::default()
        };
        let iters: Vec<usize> = [1usize, 2, 4, 8]
            .iter()
            .map(|&m| {
                let pre = MStepSsorPreconditioner::unparametrized(&a, &p, m).unwrap();
                pcg_solve(&a, &b, &pre, &opts).unwrap().iterations
            })
            .collect();
        assert!(
            iters.windows(2).all(|w| w[1] <= w[0]),
            "not monotone: {iters:?}"
        );
    }

    #[test]
    fn indefinite_matrix_is_reported() {
        let mut c = CooMatrix::new(2, 2);
        c.push(0, 0, 1.0).unwrap();
        c.push(1, 1, -1.0).unwrap();
        let a = c.to_csr();
        let err = cg_solve(&a, &[1.0, 1.0], &PcgOptions::default());
        assert!(matches!(err, Err(SparseError::NotPositiveDefinite { .. })));
    }

    #[test]
    fn tiny_step_does_not_fake_residual_convergence() {
        // A stiff system takes a sub-tolerance *step* in its first
        // iteration while the relative residual is still enormous; under
        // the RelativeResidual criterion the budget exit must not promote
        // that step size to "converged".
        let mut a = laplacian(50);
        for v in a.values_mut() {
            *v *= 1e6;
        }
        let b = vec![1.0; 50];
        let opts = PcgOptions {
            tol: 1e-3,
            max_iterations: 1,
            criterion: StoppingCriterion::RelativeResidual,
            // Pinned classic: the premise needs the first iteration to
            // actually run, and an s-step block cannot fit a 1-iteration
            // budget (the s-step budget exit has its own dedicated test).
            variant: PcgVariant::Classic,
            ..Default::default()
        };
        let mut ws = PcgWorkspace::new(50);
        let mut u = vec![0.0; 50];
        let rep = pcg_try_solve_into(
            &a,
            &b,
            &mut u,
            &IdentityPreconditioner::new(50),
            &opts,
            &mut ws,
        )
        .unwrap();
        assert!(
            rep.final_change < opts.tol,
            "test premise: step below tol, got {}",
            rep.final_change
        );
        assert!(rep.final_relative_residual > opts.tol);
        assert!(!rep.converged, "step size must not fake convergence");
    }

    #[test]
    fn budget_exhaustion_is_reported() {
        let a = laplacian(50);
        let b = vec![1.0; 50];
        // Exhaustion must surface under every variant. The count is
        // granular — the s-step schedule runs whole `s`-blocks, so
        // `SStep { s: 4 }` exhausts this budget at 0 iterations.
        for variant in [
            PcgVariant::Auto,
            PcgVariant::Classic,
            PcgVariant::Pipelined,
            PcgVariant::SStep { s: 2 },
            PcgVariant::SStep { s: 4 },
        ] {
            let opts = PcgOptions {
                tol: 1e-14,
                max_iterations: 2,
                variant,
                ..Default::default()
            };
            match cg_solve(&a, &b, &opts) {
                Err(SparseError::DidNotConverge { iterations, .. }) => {
                    assert!(iterations <= 2, "{variant:?}: budget overrun: {iterations}");
                }
                other => panic!("{variant:?}: expected DidNotConverge, got {other:?}"),
            }
        }
    }

    #[test]
    fn stats_count_two_inner_products_per_iteration() {
        let a = laplacian(16);
        let b = vec![1.0; 16];
        // Pinned classic: the count below is the classic loop's signature.
        let opts = PcgOptions {
            variant: PcgVariant::Classic,
            ..Default::default()
        };
        let sol = cg_solve(&a, &b, &opts).unwrap();
        // 1 initial + 2 per iteration, except the converging iteration (or
        // an exact-breakdown probe) skips the second one: ≈ 2·I total —
        // the paper's "two inner products per iteration".
        assert!(
            sol.stats.inner_products >= 2 * sol.iterations
                && sol.stats.inner_products <= 2 * sol.iterations + 2,
            "{} inner products for {} iterations",
            sol.stats.inner_products,
            sol.iterations
        );
        // + initial residual, + an exact-breakdown probe, + the true-residual
        // recompute on the breakdown exit path.
        assert!(sol.stats.spmv >= sol.iterations && sol.stats.spmv <= sol.iterations + 3);
    }

    #[test]
    fn history_is_recorded_and_decreasing_overall() {
        let a = laplacian(32);
        let b = vec![1.0; 32];
        let opts = PcgOptions {
            record_history: true,
            ..Default::default()
        };
        let sol = cg_solve(&a, &b, &opts).unwrap();
        assert_eq!(sol.history.len(), sol.iterations);
        let first = sol.history[0];
        let last = *sol.history.last().unwrap();
        assert!(last < first);
    }

    #[test]
    fn diagonal_preconditioner_equals_cg_on_constant_diagonal() {
        // With a constant diagonal, Jacobi scaling is a scalar multiple:
        // identical iterates, identical counts.
        let a = laplacian(20);
        let b: Vec<f64> = (0..20).map(|i| (i as f64).sin()).collect();
        let opts = PcgOptions {
            tol: 1e-9,
            ..Default::default()
        };
        let cg = cg_solve(&a, &b, &opts).unwrap();
        let dp = DiagonalPreconditioner::from_diag(&a.diag().unwrap()).unwrap();
        let pj = pcg_solve(&a, &b, &dp, &opts).unwrap();
        assert_eq!(cg.iterations, pj.iterations);
    }

    #[test]
    fn warm_start_converges_immediately_at_solution() {
        let a = laplacian(10);
        let x_true: Vec<f64> = (0..10).map(|i| i as f64).collect();
        let b = a.mul_vec(&x_true);
        let pre = IdentityPreconditioner::new(10);
        let sol = pcg_solve_from(&a, &b, &x_true, &pre, &PcgOptions::default()).unwrap();
        assert!(sol.converged);
        assert!(sol.iterations <= 1);
    }

    #[test]
    fn workspace_reuse_is_deterministic() {
        // Two consecutive solves on one PcgWorkspace must agree bitwise,
        // and both must agree with the allocating wrapper.
        let (a, p) = rb(64);
        let pre = MStepSsorPreconditioner::unparametrized(&a, &p, 2).unwrap();
        let b: Vec<f64> = (0..64).map(|i| ((i * 11 + 3) % 17) as f64 - 8.0).collect();
        let opts = PcgOptions {
            tol: 1e-10,
            ..Default::default()
        };
        let mut ws = PcgWorkspace::new(64);
        let mut u1 = vec![0.0; 64];
        let rep1 = pcg_solve_into(&a, &b, &mut u1, &pre, &opts, &mut ws).unwrap();
        let mut u2 = vec![0.0; 64];
        let rep2 = pcg_solve_into(&a, &b, &mut u2, &pre, &opts, &mut ws).unwrap();
        assert_eq!(u1, u2);
        assert_eq!(rep1.iterations, rep2.iterations);
        assert_eq!(rep1.final_change, rep2.final_change);
        let sol = pcg_solve(&a, &b, &pre, &opts).unwrap();
        assert_eq!(sol.x, u1);
        assert_eq!(sol.iterations, rep1.iterations);
    }

    #[test]
    fn workspace_records_history_and_resizes() {
        let a = laplacian(20);
        let b = vec![1.0; 20];
        let opts = PcgOptions {
            record_history: true,
            ..Default::default()
        };
        let mut ws = PcgWorkspace::new(4); // undersized: must self-resize
        ws.reserve_history(64);
        let mut u = vec![0.0; 20];
        let rep = pcg_solve_into(
            &a,
            &b,
            &mut u,
            &IdentityPreconditioner::new(20),
            &opts,
            &mut ws,
        )
        .unwrap();
        assert_eq!(ws.dim(), 20);
        assert_eq!(ws.history().len(), rep.iterations);
        let sol = cg_solve(&a, &b, &opts).unwrap();
        assert_eq!(sol.history, ws.history());
    }

    #[test]
    fn shape_mismatch_is_rejected() {
        let a = laplacian(4);
        let err = cg_solve(&a, &[1.0; 5], &PcgOptions::default());
        assert!(matches!(err, Err(SparseError::ShapeMismatch { .. })));
    }

    fn variant_opts(variant: PcgVariant, tol: f64) -> PcgOptions {
        PcgOptions {
            tol,
            variant,
            ..Default::default()
        }
    }

    /// A "preconditioner" that is the identity except on one application,
    /// where it returns a vector crafted to break the pipelined
    /// recurrence's carried scalars (`γ′`, `δ − β·γ′/α`) while `K` stays
    /// SPD — the classic loop's true `(p, Kp)` never goes nonpositive, so
    /// the fallback must rescue the solve rather than error.
    struct SabotagePreconditioner {
        n: usize,
        at_call: usize,
        calls: std::cell::Cell<usize>,
    }

    impl Preconditioner for SabotagePreconditioner {
        fn dim(&self) -> usize {
            self.n
        }
        fn apply(&self, r: &[f64], z: &mut [f64]) {
            let call = self.calls.get();
            self.calls.set(call + 1);
            z.copy_from_slice(r);
            if call == self.at_call {
                // Add a huge component along the constant vector — the
                // 1-D Laplacian's lowest-curvature direction, so (z, Kz)
                // grows far slower than (r, z)² and the reconstructed
                // denominator goes negative. Signed by Σr to keep
                // γ′ = (r, z) positive (a negative γ′ would be the
                // indefinite-M error path, not the fallback).
                let s: f64 = r.iter().sum();
                let t = 1e6f64.copysign(s);
                for zi in z.iter_mut() {
                    *zi += t;
                }
            }
        }
    }

    #[test]
    fn pipelined_matches_classic_solution() {
        let (a, p) = rb(128);
        let b: Vec<f64> = (0..128)
            .map(|i| ((i * 7 + 5) % 23) as f64 * 0.2 - 2.0)
            .collect();
        for m in [1usize, 2, 4] {
            let pre = MStepSsorPreconditioner::unparametrized(&a, &p, m).unwrap();
            let classic =
                pcg_solve(&a, &b, &pre, &variant_opts(PcgVariant::Classic, 1e-8)).unwrap();
            let pl = pcg_solve(&a, &b, &pre, &variant_opts(PcgVariant::Pipelined, 1e-8)).unwrap();
            assert!(classic.converged && pl.converged);
            // At essential convergence the carried γ′ can dip nonpositive
            // and trip the guard — the designed breakdown path. The
            // ladder steps Pipelined → Classic and the classic rung never
            // falls back, so at most one step is legitimate.
            assert!(pl.stats.fallbacks <= 1, "m = {m}: guards thrash");
            // The pipelined recurrences drift from the classic ones; the
            // Krylov space is still the same.
            assert!(
                (classic.iterations as isize - pl.iterations as isize).abs() <= 3,
                "m = {m}: classic {} vs pipelined {}",
                classic.iterations,
                pl.iterations
            );
            let scale = pl.x.iter().fold(1.0f64, |a, &v| a.max(v.abs()));
            for (x, y) in classic.x.iter().zip(&pl.x) {
                assert!((x - y).abs() < 1e-5 * scale, "m = {m}: {x} vs {y}");
            }
        }
    }

    #[test]
    fn pipelined_performs_one_reduction_phase_per_iteration() {
        let (a, p) = rb(96);
        let b: Vec<f64> = (0..96).map(|i| (i as f64 * 0.17).sin()).collect();
        let pre = MStepSsorPreconditioner::unparametrized(&a, &p, 2).unwrap();
        let pl = pcg_solve(&a, &b, &pre, &variant_opts(PcgVariant::Pipelined, 1e-10)).unwrap();
        // 1 init phase + 1 per iteration (the converging displacement-test
        // iteration exits before its reduction phase).
        assert!(
            pl.stats.reduction_phases >= pl.iterations
                && pl.stats.reduction_phases <= pl.iterations + 1,
            "{} reduction phases for {} iterations",
            pl.stats.reduction_phases,
            pl.iterations
        );
        // One SpMV per full iteration (nv = K·mv) + three at init.
        assert!(
            pl.stats.spmv <= pl.iterations + 3,
            "{} SpMVs for {} iterations",
            pl.stats.spmv,
            pl.iterations
        );
        // One preconditioner application per full iteration + two at init.
        assert!(
            pl.stats.precond_applications <= pl.iterations + 2,
            "{} preconditioner applications for {} iterations",
            pl.stats.precond_applications,
            pl.iterations
        );
    }

    #[test]
    fn pipelined_workspace_reuse_is_bitwise_deterministic() {
        let (a, p) = rb(64);
        let pre = MStepSsorPreconditioner::unparametrized(&a, &p, 2).unwrap();
        let b: Vec<f64> = (0..64).map(|i| ((i * 11 + 3) % 17) as f64 - 8.0).collect();
        let opts = variant_opts(PcgVariant::Pipelined, 1e-10);
        let mut ws = PcgWorkspace::new(64);
        let mut u1 = vec![0.0; 64];
        let rep1 = pcg_solve_into(&a, &b, &mut u1, &pre, &opts, &mut ws).unwrap();
        let mut u2 = vec![0.0; 64];
        let rep2 = pcg_solve_into(&a, &b, &mut u2, &pre, &opts, &mut ws).unwrap();
        assert_eq!(u1, u2);
        assert_eq!(rep1.iterations, rep2.iterations);
        assert_eq!(rep1.final_change.to_bits(), rep2.final_change.to_bits());
    }

    #[test]
    fn pipelined_rejects_indefinite_matrix_via_fallback() {
        // Indefinite K: the pipelined guards hand the iterate to the
        // classic loop, whose probes produce the canonical error.
        let mut c = CooMatrix::new(2, 2);
        c.push(0, 0, 1.0).unwrap();
        c.push(1, 1, -1.0).unwrap();
        let a = c.to_csr();
        let err = cg_solve(&a, &[1.0, 1.0], &variant_opts(PcgVariant::Pipelined, 1e-6));
        assert!(matches!(err, Err(SparseError::NotPositiveDefinite { .. })));
    }

    #[test]
    fn pipelined_budget_exhaustion_reports_true_residual() {
        let a = laplacian(50);
        let b = vec![1.0; 50];
        let opts = PcgOptions {
            tol: 1e-14,
            max_iterations: 3,
            variant: PcgVariant::Pipelined,
            ..Default::default()
        };
        let mut ws = PcgWorkspace::new(50);
        let mut u = vec![0.0; 50];
        let rep = pcg_try_solve_into(
            &a,
            &b,
            &mut u,
            &IdentityPreconditioner::new(50),
            &opts,
            &mut ws,
        )
        .unwrap();
        assert!(!rep.converged);
        assert_eq!(rep.iterations, 3);
        assert!(rep.final_relative_residual.is_finite() && rep.final_relative_residual > 0.0);
    }

    #[test]
    fn pipelined_zero_rhs_and_warm_start() {
        let a = laplacian(10);
        let opts = variant_opts(PcgVariant::Pipelined, 1e-8);
        let sol = cg_solve(&a, &[0.0; 10], &opts).unwrap();
        assert!(sol.converged);
        assert_eq!(sol.x, vec![0.0; 10]);
        // Warm start at the exact solution: γ = 0 at init.
        let x_true: Vec<f64> = (0..10).map(|i| i as f64).collect();
        let b = a.mul_vec(&x_true);
        let pre = IdentityPreconditioner::new(10);
        let sol = pcg_solve_from(&a, &b, &x_true, &pre, &opts).unwrap();
        assert!(sol.converged);
        assert!(sol.iterations <= 1);
    }

    #[test]
    fn sstep_matches_classic_solution() {
        let (a, p) = rb(128);
        let b: Vec<f64> = (0..128)
            .map(|i| ((i * 7 + 5) % 23) as f64 * 0.2 - 2.0)
            .collect();
        for s in [2usize, 4] {
            for m in [1usize, 2] {
                let pre = MStepSsorPreconditioner::unparametrized(&a, &p, m).unwrap();
                let classic =
                    pcg_solve(&a, &b, &pre, &variant_opts(PcgVariant::Classic, 1e-10)).unwrap();
                let ss =
                    pcg_solve(&a, &b, &pre, &variant_opts(PcgVariant::SStep { s }, 1e-10)).unwrap();
                assert!(classic.converged && ss.converged);
                // Exact-arithmetic equivalent iteration: counts agree to
                // within block-granularity slack.
                assert!(
                    (classic.iterations as isize - ss.iterations as isize).abs()
                        <= 2 * s as isize + 2,
                    "s = {s}, m = {m}: classic {} vs s-step {}",
                    classic.iterations,
                    ss.iterations
                );
                for (x, y) in classic.x.iter().zip(&ss.x) {
                    assert!((x - y).abs() < 1e-7, "s = {s}, m = {m}: {x} vs {y}");
                }
            }
        }
    }

    #[test]
    fn sstep_performs_one_reduction_phase_per_outer_step() {
        let (a, p) = rb(96);
        let b: Vec<f64> = (0..96).map(|i| (i as f64 * 0.17).sin()).collect();
        for s in [2usize, 4] {
            let pre = MStepSsorPreconditioner::unparametrized(&a, &p, 2).unwrap();
            let ss =
                pcg_solve(&a, &b, &pre, &variant_opts(PcgVariant::SStep { s }, 1e-10)).unwrap();
            assert!(ss.converged);
            assert_eq!(ss.stats.fallbacks, 0, "s = {s}: breakdown on a clean solve");
            // EXACTLY one fused Gram reduction phase per outer step — the
            // tentpole schedule (≈ 1/s phases per iteration).
            let outer = ss.iterations.div_ceil(s);
            assert_eq!(
                ss.stats.reduction_phases, outer,
                "s = {s}: {} phases for {} iterations",
                ss.stats.reduction_phases, ss.iterations
            );
            // …and the phase's exact scalar census: G1 (symmetric half),
            // G2, gv, gp, and the entering ‖r‖₂².
            let per_phase = s * (s + 1) / 2 + s * s + 2 * s + 1;
            assert_eq!(
                ss.stats.inner_products,
                outer * per_phase,
                "s = {s}: {} inner products over {} outer steps",
                ss.stats.inner_products,
                outer
            );
        }
    }

    #[test]
    fn sstep_workspace_reuse_is_bitwise_deterministic_and_caches_interval() {
        let (a, p) = rb(64);
        let pre = MStepSsorPreconditioner::unparametrized(&a, &p, 2).unwrap();
        let b: Vec<f64> = (0..64).map(|i| ((i * 11 + 3) % 17) as f64 - 8.0).collect();
        let opts = variant_opts(PcgVariant::SStep { s: 4 }, 1e-10);
        let mut ws = PcgWorkspace::new(64);
        let mut u1 = vec![0.0; 64];
        let rep1 = pcg_solve_into(&a, &b, &mut u1, &pre, &opts, &mut ws).unwrap();
        // The first s-step solve paid ONE spectral estimate and cached it…
        let cached = ws.sstep_interval.expect("interval must be cached");
        let mut u2 = vec![0.0; 64];
        let rep2 = pcg_solve_into(&a, &b, &mut u2, &pre, &opts, &mut ws).unwrap();
        // …which the second solve reused unchanged (Lanczos once per
        // workspace × operator), replaying bitwise.
        assert_eq!(ws.sstep_interval, Some(cached));
        assert_eq!(u1, u2);
        assert_eq!(rep1.iterations, rep2.iterations);
        assert_eq!(rep1.final_change.to_bits(), rep2.final_change.to_bits());
    }

    #[test]
    fn sstep_reuses_polynomial_precond_interval_across_the_boundary() {
        // The poly-precond ↔ s-step-basis half of the interval cache: a
        // solve preconditioned by the polynomial preconditioner must take
        // the basis bounds from its spectral hint and never run (or cache)
        // a second estimate.
        let a = laplacian(48);
        let pre = crate::poly::PolynomialPreconditioner::chebyshev(a.clone(), 4).unwrap();
        let b: Vec<f64> = (0..48).map(|i| (i as f64 * 0.3).cos()).collect();
        let opts = variant_opts(PcgVariant::SStep { s: 4 }, 1e-10);
        let mut ws = PcgWorkspace::new(48);
        let mut u = vec![0.0; 48];
        let rep = pcg_solve_into(&a, &b, &mut u, &pre, &opts, &mut ws).unwrap();
        assert!(rep.converged);
        assert_eq!(
            ws.sstep_interval, None,
            "hint path must not burn a workspace estimate"
        );
    }

    #[test]
    fn sstep_degenerate_hint_takes_the_monomial_fallback_and_converges() {
        // A collapsed spectral hint (λmin = λmax) must not poison the
        // basis: the recurrence degrades to a scaled monomial basis and
        // the solve still converges.
        struct DegenerateHint(IdentityPreconditioner);
        impl Preconditioner for DegenerateHint {
            fn dim(&self) -> usize {
                self.0.dim()
            }
            fn apply(&self, r: &[f64], z: &mut [f64]) {
                self.0.apply(r, z);
            }
            fn steps_per_apply(&self) -> usize {
                0
            }
            fn spectral_hint(&self) -> Option<SpectralInterval> {
                Some(SpectralInterval {
                    min: 2.0,
                    max: 2.0,
                    steps: 1,
                })
            }
        }
        let a = laplacian(32);
        let x_true: Vec<f64> = (0..32).map(|i| (i as f64 * 0.4).sin()).collect();
        let b = a.mul_vec(&x_true);
        let opts = variant_opts(PcgVariant::SStep { s: 2 }, 1e-10);
        let sol = pcg_solve(
            &a,
            &b,
            &DegenerateHint(IdentityPreconditioner::new(32)),
            &opts,
        )
        .unwrap();
        assert!(sol.converged);
        for (x, y) in sol.x.iter().zip(&x_true) {
            assert!((x - y).abs() < 1e-6);
        }
    }

    #[test]
    fn sstep_rejects_indefinite_matrix_via_fallback() {
        let mut c = CooMatrix::new(2, 2);
        c.push(0, 0, 1.0).unwrap();
        c.push(1, 1, -1.0).unwrap();
        let a = c.to_csr();
        let err = cg_solve(
            &a,
            &[1.0, 1.0],
            &variant_opts(PcgVariant::SStep { s: 2 }, 1e-6),
        );
        assert!(matches!(err, Err(SparseError::NotPositiveDefinite { .. })));
    }

    #[test]
    fn sstep_budget_exhaustion_reports_true_residual() {
        let a = laplacian(50);
        let b = vec![1.0; 50];
        let opts = PcgOptions {
            tol: 1e-14,
            max_iterations: 3,
            variant: PcgVariant::SStep { s: 2 },
            ..Default::default()
        };
        let mut ws = PcgWorkspace::new(50);
        let mut u = vec![0.0; 50];
        let rep = pcg_try_solve_into(
            &a,
            &b,
            &mut u,
            &IdentityPreconditioner::new(50),
            &opts,
            &mut ws,
        )
        .unwrap();
        assert!(!rep.converged);
        // A final sliver shorter than one block is not run: 3 budgeted
        // iterations fit one s = 2 block.
        assert_eq!(rep.iterations, 2);
        assert!(rep.final_relative_residual.is_finite() && rep.final_relative_residual > 0.0);
    }

    #[test]
    fn sstep_zero_rhs_and_warm_start() {
        let a = laplacian(10);
        let opts = variant_opts(PcgVariant::SStep { s: 2 }, 1e-8);
        let sol = cg_solve(&a, &[0.0; 10], &opts).unwrap();
        assert!(sol.converged);
        assert_eq!(sol.x, vec![0.0; 10]);
        // Warm start at the exact solution: γ = (M⁻¹r, r) = 0 at the
        // first Gram phase.
        let x_true: Vec<f64> = (0..10).map(|i| i as f64).collect();
        let b = a.mul_vec(&x_true);
        let pre = IdentityPreconditioner::new(10);
        let sol = pcg_solve_from(&a, &b, &x_true, &pre, &opts).unwrap();
        assert!(sol.converged);
        assert_eq!(sol.iterations, 0);
    }

    #[test]
    fn sstep_nan_mid_block_falls_back_down_the_ladder_and_converges() {
        // A NaN out of a basis msolve mid-block poisons the Gram scalars:
        // the finiteness guard fires (the iterate is untouched), the
        // ladder steps down warm onto the pipelined rung, and the rescue
        // must converge — with the detection and the single ladder step
        // visible in the counters.
        struct NanOnce {
            n: usize,
            at_call: usize,
            calls: std::cell::Cell<usize>,
        }
        impl Preconditioner for NanOnce {
            fn dim(&self) -> usize {
                self.n
            }
            fn apply(&self, r: &[f64], z: &mut [f64]) {
                let call = self.calls.get();
                self.calls.set(call + 1);
                z.copy_from_slice(r);
                if call == self.at_call {
                    z[0] = f64::NAN;
                }
            }
            // Pin the basis bounds (M ≈ I, so M⁻¹K is the laplacian)
            // so no setup Lanczos runs and the counted applies are
            // exactly the solve's own msolves.
            fn spectral_hint(&self) -> Option<SpectralInterval> {
                Some(SpectralInterval {
                    min: 0.009,
                    max: 3.992,
                    steps: 1,
                })
            }
        }
        let a = laplacian(32);
        let x_true: Vec<f64> = (0..32).map(|i| (i as f64 * 0.3).cos()).collect();
        let b = a.mul_vec(&x_true);
        let pre = NanOnce {
            n: 32,
            at_call: 2, // a basis msolve inside the first outer step
            calls: std::cell::Cell::new(0),
        };
        let opts = PcgOptions {
            tol: 1e-10,
            criterion: StoppingCriterion::RelativeResidual,
            variant: PcgVariant::SStep { s: 4 },
            recovery: RecoveryPolicy::off(),
            ..Default::default()
        };
        let sol = pcg_solve(&a, &b, &pre, &opts).unwrap();
        assert!(sol.converged, "fallback did not rescue the solve");
        assert!(sol.final_relative_residual < 1e-10);
        for (x, y) in sol.x.iter().zip(&x_true) {
            assert!((x - y).abs() < 1e-6);
        }
        assert_eq!(sol.stats.faults_detected, 1);
        assert_eq!(sol.stats.fallbacks, 1);
        assert_eq!(sol.stats.replacements, 0);
    }

    #[test]
    fn pipelined_breakdown_falls_back_to_classic_and_converges() {
        // The sabotaged application lands on mv = M⁻¹w (the pipelined
        // heavy phase), poisoning the q/z carries: the next iteration's
        // carried γ′/δ disagree with the true quadratic forms and a guard
        // fires. The fallback must continue from the current iterate —
        // visible in the counters — and the report must say FALLBACK.
        let a = laplacian(32);
        let x_true: Vec<f64> = (0..32).map(|i| (i as f64 * 0.3).cos()).collect();
        let b = a.mul_vec(&x_true);
        let pre = SabotagePreconditioner {
            n: 32,
            at_call: 3,
            calls: std::cell::Cell::new(0),
        };
        let opts = PcgOptions {
            tol: 1e-10,
            criterion: StoppingCriterion::RelativeResidual,
            variant: PcgVariant::Pipelined,
            ..Default::default()
        };
        let sol = pcg_solve(&a, &b, &pre, &opts).unwrap();
        assert!(sol.converged, "fallback did not rescue the solve");
        assert!(sol.final_relative_residual < 1e-10);
        for (x, y) in sol.x.iter().zip(&x_true) {
            assert!((x - y).abs() < 1e-6);
        }
        // The report says FALLBACK: exactly one ladder step, onto the
        // classic rung, which finishes the rescue.
        assert_eq!(sol.stats.fallbacks, 1);
        // …and the continuation ran from the current iterate: the classic
        // rung's two phases per iteration are visible in the counter.
        assert!(
            sol.stats.reduction_phases >= sol.iterations + 2,
            "{} phases for {} iterations — fallback never ran",
            sol.stats.reduction_phases,
            sol.iterations
        );
    }

    #[test]
    fn non_finite_inputs_and_tolerances_are_rejected_up_front() {
        let a = laplacian(8);
        let mut b = vec![1.0; 8];
        b[3] = f64::NAN;
        assert!(matches!(
            cg_solve(&a, &b, &PcgOptions::default()),
            Err(SparseError::NonFinite {
                phase: "rhs",
                iteration: 0
            })
        ));
        let b = vec![1.0; 8];
        let mut u0 = vec![0.0; 8];
        u0[0] = f64::INFINITY;
        let pre = IdentityPreconditioner::new(8);
        assert!(matches!(
            pcg_solve_from(&a, &b, &u0, &pre, &PcgOptions::default()),
            Err(SparseError::NonFinite {
                phase: "initial-guess",
                iteration: 0
            })
        ));
        for bad in [0.0, -1e-6, f64::NAN, f64::INFINITY] {
            let opts = PcgOptions {
                tol: bad,
                ..Default::default()
            };
            assert!(
                matches!(
                    cg_solve(&a, &b, &opts),
                    Err(SparseError::InvalidTolerance { .. })
                ),
                "tolerance {bad} accepted"
            );
        }
    }

    #[test]
    fn classic_recovers_in_place_from_injected_nan_in_msolve() {
        use crate::recovery::{ApplicationFault, FaultKind, FaultyPreconditioner};
        let a = laplacian(32);
        let x_true: Vec<f64> = (0..32).map(|i| (i as f64 * 0.2).sin()).collect();
        let b = a.mul_vec(&x_true);
        // NaN out of msolve application 2 (init is application 0, then
        // one per iteration): the classic loop must detect it on the
        // (r̂, r) scalar, restart in place, and still converge — no audit
        // and no opt-in needed (non-finite detection is always on).
        let pre = FaultyPreconditioner::new(
            IdentityPreconditioner::new(32),
            vec![ApplicationFault {
                application: 2,
                index: 7,
                kind: FaultKind::NaN,
            }],
        );
        let opts = PcgOptions {
            tol: 1e-10,
            criterion: StoppingCriterion::RelativeResidual,
            variant: PcgVariant::Classic,
            // Pin the exact counters below: no audits.
            recovery: crate::recovery::RecoveryPolicy::off(),
            ..Default::default()
        };
        let sol = pcg_solve(&a, &b, &pre, &opts).unwrap();
        assert!(sol.converged);
        assert!(sol.final_relative_residual < 1e-10);
        assert_eq!(pre.injected(), 1);
        // Exact counters: one detection, one in-place recovery, no ladder
        // step, no audits (auditing pinned off).
        assert_eq!(sol.stats.faults_detected, 1);
        assert_eq!(sol.stats.replacements, 1);
        assert_eq!(sol.stats.fallbacks, 0);
        assert_eq!(sol.stats.audits, 0);
        for (x, y) in sol.x.iter().zip(&x_true) {
            assert!((x - y).abs() < 1e-6);
        }
    }

    #[test]
    fn exhausted_replacement_budget_surfaces_typed_nonfinite_error() {
        use crate::recovery::{ApplicationFault, FaultKind, FaultyPreconditioner, RecoveryPolicy};
        let a = laplacian(16);
        let b = vec![1.0; 16];
        let pre = FaultyPreconditioner::new(
            IdentityPreconditioner::new(16),
            vec![ApplicationFault {
                application: 1,
                index: 0,
                kind: FaultKind::NaN,
            }],
        );
        let opts = PcgOptions {
            variant: PcgVariant::Classic,
            recovery: RecoveryPolicy {
                max_replacements: 0,
                ..RecoveryPolicy::off()
            },
            ..Default::default()
        };
        assert!(matches!(
            pcg_solve(&a, &b, &pre, &opts),
            Err(SparseError::NonFinite {
                phase: "msolve-reduction",
                ..
            })
        ));
    }

    #[test]
    fn audit_catches_silent_spmv_corruption_and_replaces() {
        use crate::recovery::{ApplicationFault, FaultKind, FaultyOp, RecoveryPolicy};
        let a = laplacian(64);
        let x_true: Vec<f64> = (0..64).map(|i| (i as f64 * 0.13).cos()).collect();
        let b = SparseOp::mul_vec(&a, &x_true);
        // A moderate, FINITE corruption of one SpMV output: in the
        // pipelined recurrence the poisoned `nv = K·mv` flows through the
        // `K·q` carry into `w` and then `s`, after which `r −= αs` and
        // `u += αp` use INCONSISTENT vectors — the recurrence residual
        // silently drifts from `f − K·u`. The perturbation is kept small
        // enough that every reduction scalar stays finite and plausible
        // (a huge one would trip the breakdown guards instead), so only
        // the audit can catch it.
        let op = FaultyOp::new(
            a.clone(),
            vec![ApplicationFault {
                application: 4,
                index: 20,
                kind: FaultKind::ScaledNoise(0.01),
            }],
        );
        let opts = PcgOptions {
            tol: 1e-10,
            criterion: StoppingCriterion::RelativeResidual,
            variant: PcgVariant::Pipelined,
            recovery: RecoveryPolicy {
                audit_period: 4,
                ..RecoveryPolicy::on()
            },
            ..Default::default()
        };
        let sol = pcg_solve(&op, &b, &IdentityPreconditioner::new(64), &opts).unwrap();
        assert!(sol.converged, "replacement did not rescue the solve");
        assert_eq!(op.injected(), 1);
        assert!(sol.stats.audits >= 1, "no audit ran");
        assert!(
            sol.stats.replacements >= 1,
            "drift was never replaced: iters = {}, stats = {:?}",
            sol.iterations,
            sol.stats
        );
        assert_eq!(sol.stats.faults_detected, 0, "corruption was finite");
        // Converged to the TRUE residual tolerance: verify from scratch
        // against the clean matrix.
        let mut rt = b.clone();
        SparseOp::mul_vec_axpy(&a, -1.0, &sol.x, &mut rt);
        let rel = vecops::norm2(&rt) / vecops::norm2(&b);
        assert!(rel < 1e-9, "true relative residual {rel:e}");
    }

    #[test]
    fn clean_audited_solve_replays_bitwise_and_counts_audits_exactly() {
        use crate::recovery::RecoveryPolicy;
        let (a, p) = rb(64);
        let pre = MStepSsorPreconditioner::unparametrized(&a, &p, 2).unwrap();
        let b: Vec<f64> = (0..64).map(|i| ((i * 5 + 1) % 19) as f64 - 9.0).collect();
        let opts = PcgOptions {
            tol: 1e-10,
            variant: PcgVariant::Pipelined,
            recovery: RecoveryPolicy {
                audit_period: 3,
                ..RecoveryPolicy::on()
            },
            ..Default::default()
        };
        let mut ws = PcgWorkspace::new(64);
        let mut u1 = vec![0.0; 64];
        let rep1 = pcg_solve_into(&a, &b, &mut u1, &pre, &opts, &mut ws).unwrap();
        let mut u2 = vec![0.0; 64];
        let rep2 = pcg_solve_into(&a, &b, &mut u2, &pre, &opts, &mut ws).unwrap();
        assert_eq!(u1, u2);
        assert_eq!(rep1.stats, rep2.stats);
        // Clean solve: audits fire on schedule (iterations 4, 7, 10, …)
        // but never replace.
        let expected_audits = if rep1.iterations > 3 {
            (rep1.iterations - 1) / 3
        } else {
            0
        };
        assert_eq!(rep1.stats.audits, expected_audits);
        assert_eq!(rep1.stats.replacements, 0);
        assert_eq!(rep1.stats.faults_detected, 0);
        // And the audited solution equals the unaudited one bitwise: a
        // non-replacing audit must not perturb the iteration.
        let plain = PcgOptions {
            recovery: RecoveryPolicy::off(),
            ..opts
        };
        let mut u3 = vec![0.0; 64];
        let rep3 = pcg_solve_into(&a, &b, &mut u3, &pre, &plain, &mut ws).unwrap();
        assert_eq!(u1, u3);
        assert_eq!(rep3.stats.audits, 0);
    }
}
