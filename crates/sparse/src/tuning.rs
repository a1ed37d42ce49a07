//! Central tuning constants of the kernel layer and the solver-selection
//! types shared by the serial and SPMD stacks.
//!
//! Every adaptive decision the kernels make — "is this loop big enough to
//! wake the pool?", "how many stored entries should one SpMV chunk carry?"
//! — reads its threshold from this module. The values are the constants
//! the benches were tuned with; they are fixed at compile time so chunk
//! layouts, and with them the determinism contract (bitwise thread-count
//! insensitivity), never depend on the process environment.
//!
//! The only environment variable the library reads is `MSPCG_THREADS`, the
//! pool size (a deployment setting, like `OMP_NUM_THREADS`). It lives in
//! [`crate::par`] and is validated by [`parse_positive`].
//!
//! | Variable | Default | Meaning |
//! |---|---|---|
//! | `MSPCG_THREADS` | hardware parallelism | worker budget of the kernel pool |

use crate::error::SparseError;

/// BLAS-1 parallelism threshold: kernels shorter than this many elements
/// always run serially (the launch cost of waking the pool exceeds the
/// loop cost).
pub const PAR_MIN_ELEMS: usize = 1 << 15;

/// Sparse-kernel parallelism threshold: kernels (SpMV, SSOR color sweeps)
/// with fewer stored entries than this run serially.
pub const PAR_MIN_NNZ: usize = 1 << 14;

/// Minimum stored entries per nnz-weighted SpMV chunk: below this, the
/// chunk-claim overhead dominates the row loop.
pub const MIN_SPMV_CHUNK_NNZ: usize = 1 << 9;

/// Iterations between true-residual audits when residual replacement is
/// active and the recovery policy leaves the period at `0`. One audit
/// costs one extra SpMV (and one extra barrier on the SPMD schedule), so
/// the default trades a few percent of overhead for bounded recurrence
/// drift.
pub const DEFAULT_AUDIT_PERIOD: usize = 32;

/// Parse an `MSPCG_THREADS` value: `Some(n)` for a positive integer,
/// `None` for anything else (`0`, empty, non-numeric, overflow). A zero
/// thread budget describes an empty pool, so it is rejected rather than
/// silently clamped.
pub fn parse_positive(raw: &str) -> Option<usize> {
    match raw.trim().parse::<usize>() {
        Ok(n) if n >= 1 => Some(n),
        _ => None,
    }
}

/// Storage formats [`crate::op::AutoOp`] can select between.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MatrixFormat {
    /// Compressed sparse row ([`crate::csr::CsrMatrix`]).
    Csr,
    /// Sliced ELL with sorting, SELL-C-σ ([`crate::sellcs::SellCsMatrix`]).
    SellCs,
}

/// PCG iteration variants of the SPMD `ParallelMStepPcg`. Lives here
/// (rather than in `mspcg-parallel`) so the serial solvers and the batched
/// multi-RHS driver accept the same selection type; they validate it and
/// run [`PcgVariant::Classic`] for every variant, because the
/// synchronization points the other two remove exist only on the SPMD
/// executor.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum PcgVariant {
    /// Algorithm 1 as transcribed from the paper: two serialized inner
    /// products per iteration (`(p, Kp)`, then `(r̂, r)` after the
    /// preconditioner).
    #[default]
    Classic,
    /// Ghysels–Vanroose pipelined recurrence: carry `s = Kp`, `w = Kz`,
    /// `q = M⁻¹s` and `K·q`, and recompute `mv = M⁻¹w` and `nv = K·mv`,
    /// so `α` and `β` both come out of **one** fused reduction phase per
    /// iteration that is **initiated before** the preconditioner + SpMV
    /// and **consumed after** them — the reduction latency hides behind
    /// the heaviest phase.
    Pipelined,
    /// s-step (communication-avoiding) CG: per outer step build an
    /// `s`-dimensional Krylov block with a Chebyshev-basis three-term
    /// recurrence on the cached Lanczos interval, amortize **all** inner
    /// products into **one** fused Gram-matrix reduction phase per `s`
    /// iterations, and advance the iterate through `s` local update
    /// sub-steps from a replicated small dense Cholesky solve.
    SStep {
        /// Iterations per outer step (block width); `2 ..= MAX_SSTEP_S`.
        s: usize,
    },
}

/// Largest block width [`PcgVariant::SStep`] accepts. The Chebyshev basis
/// keeps an s-dimensional block well conditioned for moderate `s`, but the
/// Gram system is solved in replicated O(s³) scalar work per outer step
/// and basis conditioning still degrades with `s` — an absurd width is a
/// misconfiguration, not a tuning choice, and is rejected like `0`.
pub const MAX_SSTEP_S: usize = 16;

impl PcgVariant {
    /// Validate the variant, which otherwise passes through unchanged.
    ///
    /// # Errors
    /// [`SparseError::InvalidPartition`] for an [`PcgVariant::SStep`] block
    /// width outside `2 ..= MAX_SSTEP_S`: `s = 0` is an empty block, `s = 1`
    /// pays one reduction phase per iteration — the pipelined variant's
    /// rate — plus the block overhead, and a width past [`MAX_SSTEP_S`] is
    /// a misconfiguration.
    pub fn resolve(self) -> Result<PcgVariant, SparseError> {
        match self {
            PcgVariant::SStep { s } if !(2..=MAX_SSTEP_S).contains(&s) => {
                Err(SparseError::InvalidPartition {
                    reason: format!("s-step block width must be in 2..={MAX_SSTEP_S}, got {s}"),
                })
            }
            valid => Ok(valid),
        }
    }
}

/// Polynomial recurrences the barrier-free preconditioner implements.
/// Lives here (next to [`PcgVariant`]) so the serial and SPMD stacks share
/// one selection type.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PolyKind {
    /// Scaled first-kind Newton (Richardson/truncated-Neumann) recurrence:
    /// every step applies the same optimal damping `ω = 2/(λ₁ + λₙ)`.
    Newton,
    /// Chebyshev recurrence on the estimated interval `[λ₁, λₙ]` — the
    /// min-max polynomial of the same degree, fewer PCG iterations per
    /// SpMV than Newton on ill-conditioned intervals.
    Chebyshev,
}

/// Preconditioner selection for the solver stack: the paper's m-step
/// multicolor SSOR, or the barrier-free polynomial alternative built from
/// SpMVs only.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum PrecondKind {
    /// Resolve at construction time by the barrier-cost heuristic of
    /// [`PrecondKind::resolve`].
    #[default]
    Auto,
    /// The paper's m-step multicolor SSOR preconditioner
    /// (`m·(2C−1)` color-sweep barriers per application on the SPMD
    /// schedule, `C` = number of colors).
    MStepSsor {
        /// Number of preconditioner steps.
        m: usize,
    },
    /// Degree-`degree` polynomial in the Jacobi-scaled operator
    /// (`degree` SpMV-phase barriers per application, zero color sweeps).
    Poly {
        /// Recurrence family.
        kind: PolyKind,
        /// Polynomial degree (= SpMVs per application); at least 1.
        degree: usize,
    },
}

impl PrecondKind {
    /// Resolve [`PrecondKind::Auto`] by the barrier-cost heuristic; pinned
    /// selections pass through unchanged. The result is never `Auto`.
    ///
    /// The heuristic compares estimated synchronization cost per
    /// application at matched flops (a degree-`2m` polynomial streams the
    /// matrix as often as `m` forward+backward sweeps): m-step SSOR costs
    /// `m·(2·colors − 1)` sweep barriers where the flop-equivalent
    /// polynomial costs `2m` SpMV barriers, so the polynomial wins
    /// whenever `2·colors − 1 > 2`, i.e. for every genuinely multicolor
    /// matrix (`colors ≥ 2`); a single-color (pure-diagonal) system keeps
    /// the cheaper SSOR sweeps.
    pub fn resolve(self, colors: usize, m_default: usize) -> PrecondKind {
        match self {
            PrecondKind::Auto => {
                let m = m_default.max(1);
                if 2 * colors > 3 {
                    PrecondKind::Poly {
                        kind: PolyKind::Chebyshev,
                        degree: 2 * m,
                    }
                } else {
                    PrecondKind::MStepSsor { m }
                }
            }
            pinned => pinned,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_positive_mirrors_thread_budget_rules() {
        assert_eq!(parse_positive("4"), Some(4));
        assert_eq!(parse_positive(" 512 "), Some(512));
        assert_eq!(parse_positive("0"), None);
        assert_eq!(parse_positive(""), None);
        assert_eq!(parse_positive("abc"), None);
        assert_eq!(parse_positive("-3"), None);
        assert_eq!(parse_positive("2.5"), None);
    }

    #[test]
    fn precond_resolution_never_returns_auto() {
        // Pinned selections pass through untouched.
        assert_eq!(
            PrecondKind::MStepSsor { m: 2 }.resolve(4, 3),
            PrecondKind::MStepSsor { m: 2 }
        );
        let poly = PrecondKind::Poly {
            kind: PolyKind::Newton,
            degree: 5,
        };
        assert_eq!(poly.resolve(1, 1), poly);
        // The barrier-cost heuristic picks the flop-equivalent Chebyshev
        // polynomial for multicolor matrices and m-step SSOR for
        // single-color ones.
        assert_eq!(
            PrecondKind::Auto.resolve(4, 3),
            PrecondKind::Poly {
                kind: PolyKind::Chebyshev,
                degree: 6
            }
        );
        assert_eq!(
            PrecondKind::Auto.resolve(1, 2),
            PrecondKind::MStepSsor { m: 2 }
        );
    }

    #[test]
    fn variant_resolution_never_returns_auto() {
        assert_eq!(PcgVariant::default(), PcgVariant::Classic);
        for v in [
            PcgVariant::Classic,
            PcgVariant::Pipelined,
            PcgVariant::SStep { s: 2 },
            PcgVariant::SStep { s: MAX_SSTEP_S },
        ] {
            assert_eq!(v.resolve(), Ok(v));
        }
    }
}
