//! # mspcg — m-step preconditioned conjugate gradient for parallel computation
//!
//! Facade crate for the reproduction of **L. Adams, “An M-Step
//! Preconditioned Conjugate Gradient Method for Parallel Computation”,
//! ICPP 1983 / NASA CR-172150**. It re-exports the workspace crates so an
//! application needs a single dependency:
//!
//! * [`sparse`] — sparse/dense linear algebra substrate,
//! * [`coloring`] — multicolor orderings (Adams–Ortega),
//! * [`fem`] — plane-stress finite-element model problems,
//! * [`core`] — PCG, splittings and the m-step parametrized preconditioners,
//! * [`machine`] — CYBER 203/205 and Finite Element Machine simulators,
//! * [`parallel`] — real threaded executor for the multicolor method.
//!
//! ## Quickstart
//!
//! ```
//! use mspcg::fem::plate::PlaneStressProblem;
//! use mspcg::core::mstep::MStepSsorPreconditioner;
//! use mspcg::core::pcg::{pcg_solve, PcgOptions};
//!
//! // The paper's test problem: a unit-square plate, clamped on the left
//! // edge, loaded on the right, discretized with linear triangles.
//! let problem = PlaneStressProblem::unit_square(8).assemble().unwrap();
//! let ordered = problem.multicolor().unwrap();
//!
//! // 3-step parametrized SSOR preconditioner (least-squares coefficients).
//! let pre = MStepSsorPreconditioner::parametrized(&ordered.matrix, &ordered.colors, 3).unwrap();
//! let sol = pcg_solve(&ordered.matrix, &ordered.rhs, &pre, &PcgOptions::default()).unwrap();
//! assert!(sol.converged);
//! ```
//!
//! ## Performance
//!
//! The solver stack runs on a shared **data-parallel kernel layer** in
//! `mspcg-sparse`: CSR SpMV and the BLAS-1 reductions are row/chunk parallel, and the per-color row loops
//! of the multicolor SSOR sweeps — the loops the paper identifies as
//! embarrassingly parallel — run on a persistent `std::thread` worker
//! pool. The contracts:
//!
//! * **Determinism** — chunk boundaries depend only on problem size and
//!   reductions combine per-chunk partials in a fixed order, so results
//!   are bitwise identical across thread counts and between the serial
//!   and parallel paths (`tests/par_determinism.rs` asserts this for a
//!   full PCG solve). Thread budget: hardware default, `MSPCG_THREADS`
//!   env var (positive integers only — `0`/garbage pins the budget to one
//!   thread, with a debug assertion), or
//!   `mspcg::sparse::par::set_max_threads`.
//! * **Fused iteration kernels** — the CG hot loop computes `u += αp`,
//!   `r −= α·Kp` and the `‖p‖∞`/`‖r‖∞` stopping-test partials in **one
//!   pass** per iteration (`vecops::fused_axpy_axpy_norm`; the direction
//!   initialization uses `vecops::fused_xpby_dot`), bitwise identical to
//!   the unfused sweeps. The SPMD `ParallelMStepPcg` fuses every
//!   reduction into the phase producing its operands and replicates the
//!   scalar reductions across workers: `m·(2C−1) + 3` barriers per
//!   iteration (C colors, m steps), down from `m·(2C−1) + 9`.
//! * **Communication-avoiding variants** — classic PCG serializes two
//!   inner products per iteration: `(p, Kp)` before α, `(r̂, r)` before
//!   β. On the SPMD executor `PcgVariant::Pipelined` and
//!   `PcgVariant::SStep { s }` (below) reorganize the recurrence so fewer
//!   reduction phases block the iteration. Those synchronization points
//!   exist only there: the serial solvers and the multi-RHS driver run
//!   the classic loop for every variant and return its solution bitwise.
//!   Per-iteration SPMD cost model:
//!
//!   | schedule | reduction phases | SPMD barriers | reduction overlap window |
//!   |---|---|---|---|
//!   | classic | 2 (serialized) | `m·(2C−1) + 3` | — (both block) |
//!   | pipelined | **1, in flight** | **`m·(2C−1)`** + 1 split crossing | the whole `M⁻¹w` + `K·mv` phase |
//!   | classic, plain CG (`m = 0`) | 2 | 4 | — |
//!   | pipelined, plain CG | **1, in flight** | **1** + 1 split crossing | the `K·w` SpMV |
//!   | classic, polynomial degree `k` | 2 | **`k + 3`** | — |
//!   | pipelined, polynomial | **1, in flight** | **`k + 1`** + 1 split crossing | the `p(G)D⁻¹w` chain + `K·mv` |
//!   | s-step, block size `s` | **1 per `s` iterations** | `s·m(2C−1) + 2s` per block | — (fused block Gram) |
//!   | s-step, plain CG | **1 per `s` iterations** | **`s + 1`** per block (`v₁ ≡ r`) | — |
//!   | s-step, polynomial | **1 per `s` iterations** | **`s·(k + 2)`** per block | — |
//!
//!   Both counts are *measured*, not asserted: the SPMD report carries
//!   `barrier_crossings` / `reduction_phases` / `split_crossings` from
//!   instrumented barriers (`PcgStats::reduction_phases` counts the
//!   serial classic loop's two per iteration), and `BENCH_pr5.json`
//!   records them per variant on the Table-3 family. The recurrences
//!   have different-but-bounded rounding paths, so the contract is
//!   bitwise determinism across thread counts *within* each variant and
//!   cross-variant agreement to a residual tolerance
//!   (`tests/variant_conformance.rs`); on recurrence breakdown the SPMD
//!   solver steps down the ladder (SStep → Pipelined → Classic) and
//!   reruns the solve. Selection: `ParallelSolverOptions::variant`
//!   (classic by default; an s-step width outside `2..=16` is a typed
//!   error, on the serial `PcgOptions::variant` too).
//! * **Pipelined (Ghysels–Vanroose) variant** — `PcgVariant::Pipelined`
//!   carries `s = Kp`, `w = Kz`, `q = M⁻¹s` and `K·q`, recomputes
//!   `mv = M⁻¹w` / `nv = K·mv` each iteration, and reconstructs
//!   `α = γ′/(δ − β·γ′/α)`, so both scalars come out of **one** fused
//!   reduction phase (`(r, z)`, `(w, z)`, the `(p, s)` breakdown guard
//!   and the stopping norm, as partials of the update phase) that reads
//!   only vectors finished in the update phase: the SPMD executor
//!   **initiates** it there (`SplitBarrier::arrive`, a split-phase
//!   primitive in `mspcg-parallel`) and **consumes** it (`wait`) only
//!   after the preconditioner + SpMV — the reduction latency hides
//!   behind the heaviest phase, and the update mega-phase needs *no
//!   trailing barrier at all* (own-strip analysis + parity-rotated
//!   `mv`/partial banks), which is why the pipelined iteration runs on
//!   `m·(2C−1)` full barriers where classic needs `+ 3`. Costs: one
//!   speculative heavy phase on the converging iteration, five extra
//!   vectors, and recurrence drift, hence strict guards: `(p, s) ≤ 0`,
//!   a nonpositive reconstructed denominator or a nonpositive carried
//!   `γ′` hands the iterate to the classic rung. The exact schedule —
//!   full-barrier, split-crossing and reduction-phase formulas at
//!   `m ∈ {0..3}` — is pinned by counter tests, and `BENCH_pr5.json`
//!   records both the counters and the wall time.
//! * **s-step (communication-avoiding) variant** — the pipelined
//!   schedule still pays one reduction *per iteration*; it merely hides
//!   the latency. `PcgVariant::SStep { s }` amortizes the count itself:
//!   each outer step builds an `s`-dimensional Krylov block with the
//!   **Chebyshev three-term recurrence** on the cached Lanczos interval
//!   (well-conditioned where the naive monomial basis collapses —
//!   Chronopoulos–Gear blocked, Carson/Demmel-style basis), then fuses
//!   *every* inner product of the next `s` iterations — the `s(s+1)/2`
//!   block Gram entries, the `s×s` direction coupling, the projections
//!   and the stopping norm — into **ONE** reduction phase, solved
//!   replicated by a small dense Cholesky (with a rank-revealing pivot
//!   floor: an endgame-degenerate block truncates to its numerical rank
//!   and restarts the recurrence instead of dividing by noise). The
//!   block runs on `s·m(2C−1) + 2s` barriers (table above) with **zero**
//!   split crossings and no init phase. Breakdown
//!   steps down warm onto the pipelined rung. The exact block schedule
//!   is pinned by counter tests at `s ∈ {2, 4}` × 1/4 threads × CSR /
//!   SELL-C-σ, bitwise-deterministic across runs and formats;
//!   `BENCH_pr10.json` records the `s`-sweep against the ladder, with
//!   the formulas asserted in-run.
//! * **Barrier-free polynomial (Newton–Chebyshev) preconditioning** — the
//!   multicolor SSOR sweeps cost `2C−1` barriers per step: the
//!   *color structure itself* is the synchronization bill.
//!   `mspcg::core::poly::PolynomialPreconditioner` replaces the sweeps
//!   with `z = p(G)·D⁻¹r`, `G = D⁻¹K`, evaluated as a degree-`k` chain of
//!   fused SpMV + BLAS-1 kernels (`vecops::fused_poly_seed` /
//!   `fused_poly_step`): **`k` barriers per application, zero color
//!   sweeps**, allocation-free after setup (`scratch_len`/`apply_with`),
//!   generic over `SparseOp`, and bitwise identical across thread counts
//!   and storage formats. The coefficient schedule (Chebyshev min-max on
//!   the estimated interval, or Newton/scaled-Richardson) is built once
//!   from a Lanczos estimate of the Jacobi-scaled spectrum
//!   (`poly::jacobi_spectrum`, cached on the preconditioner for reuse at
//!   other degrees) and shared verbatim by the serial evaluator and the
//!   SPMD `ParallelMStepPcg::poly` msolve — `k` fused SpMV phases, whose
//!   exact barrier/split/reduction formulas (table above; the pipelined
//!   overlap window pays one input-finalization barrier) are pinned by
//!   counter tests at every variant. Selection:
//!   `PrecondKind::{Auto, MStepSsor, Poly}` on the auto constructors
//!   (`core::poly::auto_preconditioner`, `ParallelMStepPcg::auto`); the
//!   `Auto` heuristic picks the polynomial at matched flops (degree `2m`
//!   ≈ `m` sweeps) whenever `2C−1 > 2`, i.e. for every genuinely
//!   multicolor matrix. `BENCH_pr8.json` records iterations / barriers /
//!   wall time of degree-`k` vs m-step at matched flops.
//! * **Operator abstraction + SELL-C-σ** — every solver entry point
//!   (`pcg_solve_into`, `pcg_solve_multi`, the SPMD `ParallelMStepPcg`,
//!   the splitting/preconditioner constructors) is generic over
//!   `mspcg::sparse::SparseOp`, so the storage format is a pure
//!   performance decision: CSR by default, SELL-C-σ
//!   (`mspcg::sparse::SellCsMatrix`, sliced ELL with slice height C and
//!   sort window σ) for wide/irregular rows — ~1.3–1.6× CSR throughput on
//!   the arrow-matrix family (`BENCH_pr3.json`) with bitwise-identical
//!   products and solver runs. `AutoOp` picks the format from the row
//!   shape (longest row ≥ 4× mean, padding ≤ 50 %); constructing a
//!   `CsrMatrix` or `SellCsMatrix` directly pins it. Future formats
//!   (blocked CSR, NUMA-partitioned) implement one trait and drop in.
//! * **nnz-weighted SpMV chunking** — parallel SpMV splits rows at
//!   `row_ptr` prefix-sum boundaries (`par::spmv_layout`), so a run of
//!   dense-ish rows on an irregular FEM matrix cannot serialize the pool;
//!   layouts stay thread-count independent. The multicolor SSOR color
//!   sweeps chunk the same way (`par::spmv_chunk_rows_range` within each
//!   color block). All thresholds are compile-time constants in
//!   `mspcg::sparse::tuning`.
//! * **Adaptive fallback** — small kernels run serially with identical
//!   results; `MSPCG_THREADS=1` runs every kernel serially.
//! * **Zero-allocation hot loop** — `pcg_solve_into` with a reusable
//!   `PcgWorkspace` performs no heap allocation per solve (verified by a
//!   counting-allocator test over the ω sweep); `MulticolorSsor` shares
//!   the matrix/partition via `Arc` instead of deep-cloning.
//! * **Batched multi-RHS** — `mspcg::core::multi::pcg_solve_multi` solves
//!   many load cases against one matrix + preconditioner
//!   (`MultiRhsWorkspace` holds per-lane scratch, so the shared SSOR
//!   cache is never a lock point): right-hand sides become the unit of
//!   parallelism for small matrices, kernels for large ones, with zero
//!   per-solve allocation after warm-up and bitwise-standalone-identical
//!   solutions. See `examples/multi_load_cases.rs`.
//!
//! ## Robustness
//!
//! `mspcg::core::recovery` makes every solver entry point fault-tolerant,
//! with the same discipline as the performance work: every rescue is
//! *counted*, every cost is *pinned*.
//!
//! * **Input validation** — a NaN/Inf right-hand side or initial guess is
//!   rejected up front as `SparseError::NonFinite { phase, .. }`, a
//!   nonpositive or non-finite tolerance as
//!   `SparseError::InvalidTolerance`, before any kernel runs.
//! * **Residual audit + replacement** — every `audit_period` iterations
//!   the solver recomputes the TRUE residual `f − K·u` and compares it to
//!   the recurrence residual. Deviation beyond
//!   `max(10·tol, 10³·ε)·‖f‖` replaces the recurrence state from the
//!   recomputed residual (van der Vorst/Ye-style). Cost model, asserted
//!   by counter tests and recorded in `BENCH_pr6.json`: the SPMD audit is
//!   ONE fused extra phase — **+1 barrier crossing, zero extra reduction
//!   phases** — and a clean audited solve stays *bitwise identical* to
//!   the unaudited run (an audit that finds no drift only observes).
//!   Policy: `RecoveryPolicy` on `PcgOptions` / `ParallelSolverOptions`
//!   (`Auto` enables auditing for the drift-prone SPMD pipelined and
//!   s-step recurrences at tolerances ≤ 1e-11; `audit_period: 0`
//!   means every 32 iterations). `tests/variant_conformance.rs` runs
//!   the serial classic solver and every SPMD variant with
//!   `RecoveryPolicy::on()` as well as `off()`.
//! * **Recovery** — the classic loop *self-heals in place* from a
//!   non-finite reduction scalar (recompute `f − K·u`, re-derive the
//!   direction, counted as a `replacement`, budget `max_replacements`).
//!   On the SPMD executor a non-finite scalar (or an audit divergence in
//!   a recurrence schedule) walks SStep → Pipelined → Classic: the
//!   recurrence rungs are *detectors* (they rerun the solve one rung
//!   down, counted as a `recovery`) and the classic rung heals in place.
//!   An exhausted budget surfaces
//!   `SparseError::NonFinite { phase, iteration }` instead of silent
//!   garbage. All of it lands in `PcgStats` / `ParallelSolveReport`
//!   (`audits`, `replacements`, `recoveries`, `faults_detected`), and
//!   per-RHS in `multi::SolveStatus::Replaced`.
//! * **Fault injection, first-class** — `FaultyOp` /
//!   `FaultyPreconditioner` wrap any operator/preconditioner with
//!   application-indexed faults (bit-flips, NaN/Inf, scaled noise) for
//!   the serial stack; `ParallelMStepPcg::solve_with_faults` takes an
//!   iteration-indexed `FaultPlan` injected deterministically at every
//!   thread count. The two models differ on purpose: a wrapper fault is
//!   consumed once (the classic restart runs clean), a plan fault is
//!   *persistent*
//!   (it re-fires on every ladder rung, so the full walk is exercised —
//!   a pipelined start under a NaN preconditioner fault proves exactly 2
//!   detections, 1 step-down, 1 classic in-place replacement; an s-step
//!   start proves the full 3-rung walk: 3 detections, 2 step-downs, 1
//!   replacement).
//!   `tests/fault_injection.rs` runs the serial classic solver and every
//!   SPMD variant × family under both fault classes with bitwise replay
//!   and exact counters.
//!
//! Measure with
//! `cargo bench -p mspcg-bench --bench spmv -- --json BENCH_pr3.json`
//! (CSR vs DIA vs SELL-C-σ, serial and parallel),
//! `… --bench precond …`, and the fused-kernel / multi-RHS bench
//! `cargo bench -p mspcg-bench --bench multi_rhs -- --json
//! BENCH_pr2.json` (committed reference numbers in `BENCH_pr1.json` /
//! `BENCH_pr2.json` / `BENCH_pr3.json`). These component benches record
//! one machine's numbers; the end-to-end benchmark of the whole stack —
//! set-up, time to solution, 1-thread vs `nproc` speedup and a traced
//! per-layer breakdown — is the separate `perfbench` package
//! (`cargo run --release --manifest-path perfbench/Cargo.toml --
//! --workload plate-spmd --seed 1 --seconds 10 --trace 0`, see
//! `perfbench/README.md`).

pub use mspcg_coloring as coloring;
pub use mspcg_core as core;
pub use mspcg_fem as fem;
pub use mspcg_machine as machine;
pub use mspcg_parallel as parallel;
pub use mspcg_sparse as sparse;
