//! The four workloads: their inputs, set-up and solves, each call into the
//! solver stack wrapped in a span named after the layer it enters.

use crate::trace::Tracer;
use mspcg::core::coeffs::Weight;
use mspcg::core::poly::PolynomialPreconditioner;
use mspcg::core::recovery::{Toggle, DEFAULT_MAX_REPLACEMENTS};
use mspcg::core::{
    pcg_solve_multi, pcg_try_solve_into, MStep, MStepSsorPreconditioner, MultiRhsWorkspace,
    MulticolorSsor, PcgOptions, PcgWorkspace, Preconditioner, RecoveryPolicy, StoppingCriterion,
};
use mspcg::fem::poisson::poisson5;
use mspcg::fem::PlaneStressProblem;
use mspcg::parallel::{ParallelMStepPcg, ParallelSolverOptions};
use mspcg::sparse::lanczos::SpectralInterval;
use mspcg::sparse::tuning::DEFAULT_AUDIT_PERIOD;
use mspcg::sparse::{par, CsrMatrix, Partition, PcgVariant, PolyKind, SparseError};
use std::sync::Arc;
use std::time::Instant;

/// Stopping tolerance on the paper's `‖u^{k+1} − uᵏ‖∞` test.
const TOL: f64 = 1e-8;
/// Steps of the parametrized multicolor SSOR preconditioner.
const SSOR_STEPS: usize = 2;
/// Degree of the Chebyshev preconditioner on `poisson-poly`.
const POLY_DEGREE: usize = 4;
/// Block size of the s-step recurrence on `poisson-poly`.
const SSTEP_S: usize = 4;
const MAX_ITERATIONS: usize = 50_000;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    PlateSsor,
    PoissonPoly,
    PlateMultiRhs,
    PlateSpmd,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::PlateSsor,
        Workload::PoissonPoly,
        Workload::PlateMultiRhs,
        Workload::PlateSpmd,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::PlateSsor => "plate-ssor",
            Workload::PoissonPoly => "poisson-poly",
            Workload::PlateMultiRhs => "plate-multirhs",
            Workload::PlateSpmd => "plate-spmd",
        }
    }

    pub fn parse(s: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == s)
    }

    pub fn variant(self) -> PcgVariant {
        match self {
            Workload::PlateSsor | Workload::PlateMultiRhs => PcgVariant::Classic,
            Workload::PoissonPoly => PcgVariant::SStep { s: SSTEP_S },
            Workload::PlateSpmd => PcgVariant::Pipelined,
        }
    }

    /// Which solver path the workload's own solves run through.
    pub fn path(self) -> Path {
        match self {
            Workload::PlateSsor => Path::Serial,
            Workload::PlateMultiRhs => Path::Multi,
            Workload::PoissonPoly | Workload::PlateSpmd => Path::Spmd,
        }
    }

    fn is_plate(self) -> bool {
        self != Workload::PoissonPoly
    }

    /// Bound on the true relative residual `‖f − K·u‖₂/‖f‖₂` of an
    /// accepted solution. The stopping test is on `‖Δu‖∞`, not on the
    /// residual, so the bound sits well above what converged solves reach
    /// and far below what an unconverged or wrong answer leaves.
    pub fn residual_bound(self) -> f64 {
        if self.is_plate() {
            1e-5
        } else {
            1e-3
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Path {
    Serial,
    Multi,
    Spmd,
}

/// Problem sizes. [`Sizes::FULL`] is what the benchmark measures;
/// [`Sizes::TINY`] only smoke-tests the code paths.
#[derive(Debug, Clone, Copy)]
pub struct Sizes {
    /// Nodes per side of the plate of `plate-ssor` and `plate-spmd`.
    pub plate_a: usize,
    /// Interior grid side of `poisson-poly`.
    pub poisson_n: usize,
    /// Nodes per side of the plate of `plate-multirhs`.
    pub multi_a: usize,
    /// Load cases per `plate-multirhs` batch.
    pub lanes: usize,
}

impl Sizes {
    /// Plates of 128 × 128 nodes keep the stiffness matrix (4.6 MB of CSR)
    /// and a 256² Poisson grid (3.9 MB) beyond the 4 MiB L2 cache while a
    /// solve stays short enough for a dozen of them per run.
    pub const FULL: Sizes = Sizes {
        plate_a: 128,
        poisson_n: 256,
        multi_a: 30,
        lanes: 64,
    };
    #[cfg(test)]
    pub const TINY: Sizes = Sizes {
        plate_a: 8,
        poisson_n: 12,
        multi_a: 6,
        lanes: 4,
    };
}

/// The recovery policy every solve passes explicitly: no residual audit,
/// which is what the default policy resolves to at [`TOL`] for every
/// variant, pinned so that no environment override can change it.
fn recovery() -> RecoveryPolicy {
    RecoveryPolicy {
        replacement: Toggle::Off,
        audit_period: DEFAULT_AUDIT_PERIOD,
        max_replacements: DEFAULT_MAX_REPLACEMENTS,
    }
}

fn pcg_options(variant: PcgVariant) -> PcgOptions {
    PcgOptions {
        tol: TOL,
        max_iterations: MAX_ITERATIONS,
        criterion: StoppingCriterion::DisplacementChange,
        record_history: false,
        variant,
        recovery: recovery(),
    }
}

fn spmd_options(variant: PcgVariant, threads: usize) -> ParallelSolverOptions {
    ParallelSolverOptions {
        threads,
        tol: TOL,
        max_iterations: MAX_ITERATIONS,
        variant,
        recovery: recovery(),
    }
}

/// xorshift64* generator: the only source of the benchmark's inputs.
struct XorShift(u64);

impl XorShift {
    fn new(seed: u64) -> Self {
        // Mix so that small seeds do not start from a near-zero state.
        XorShift(seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ 0xD1B5_4A32_D192_ED03 | 1)
    }

    fn next_u64(&mut self) -> u64 {
        self.0 ^= self.0 >> 12;
        self.0 ^= self.0 << 25;
        self.0 ^= self.0 >> 27;
        self.0.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }

    /// Uniform in `[-1, 1)`.
    fn symmetric(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 52) as f64 - 1.0
    }
}

/// Right-hand sides in the problem's natural numbering, one entry per
/// operation: a single load vector, or on `plate-multirhs` a whole batch
/// of load cases stored one after another.
pub struct Inputs {
    pub n: usize,
    pub lanes: usize,
    pub rhs: Vec<Vec<f64>>,
}

/// Distinct inputs a run cycles through.
pub const INPUTS: usize = 2;

pub fn inputs(w: Workload, sizes: &Sizes, seed: u64) -> Inputs {
    let plate_a = if w == Workload::PlateMultiRhs {
        sizes.multi_a
    } else {
        sizes.plate_a
    };
    let n = if w.is_plate() {
        2 * plate_a * (plate_a - 1)
    } else {
        sizes.poisson_n * sizes.poisson_n
    };
    let lanes = if w == Workload::PlateMultiRhs {
        sizes.lanes
    } else {
        1
    };
    let mut rng = XorShift::new(seed);
    let mut load = |i: usize| {
        if w.is_plate() {
            // Random nodal loads of the size a unit edge traction puts on
            // one node of the plate.
            rng.symmetric() / (plate_a - 1) as f64
        } else {
            // The smooth source of the manufactured solution, modulated by
            // noise so that the load excites the whole spectrum.
            let m = sizes.poisson_n;
            let h = 1.0 / (m as f64 + 1.0);
            let x = ((i % m) as f64 + 1.0) * h;
            let y = ((i / m) as f64 + 1.0) * h;
            2.0 * (y * (1.0 - y) + x * (1.0 - x)) * (1.0 + 0.5 * rng.symmetric())
        }
    };
    let rhs = (0..INPUTS)
        .map(|_| (0..n * lanes).map(|i| load(i % n)).collect())
        .collect();
    Inputs { n, lanes, rhs }
}

/// A color-ordered system with its right-hand sides in the same order.
pub struct System {
    pub matrix: Arc<CsrMatrix>,
    pub colors: Arc<Partition>,
    pub rhs: Vec<Vec<f64>>,
    pub lanes: usize,
}

impl System {
    pub fn n(&self) -> usize {
        self.matrix.rows()
    }
}

/// A ready solver on one of the three paths into the stack. `P` is the
/// preconditioner of the serial paths; the SPMD executor carries its own.
pub enum Solver<P> {
    Serial {
        pre: P,
        variant: PcgVariant,
        ws: PcgWorkspace,
        u: Vec<f64>,
    },
    Multi {
        pre: P,
        variant: PcgVariant,
        ws: MultiRhsWorkspace,
        u: Vec<f64>,
    },
    Spmd {
        exec: ParallelMStepPcg,
        variant: PcgVariant,
    },
}

/// Least-squares parametrized m-step multicolor SSOR on `sys`, the α fit
/// in its own span.
pub fn fit_ssor(sys: &System, tr: &mut Tracer) -> Result<MStepSsorPreconditioner, SparseError> {
    let ssor = tr.span("core.ssor", |_| {
        MulticolorSsor::new(Arc::clone(&sys.matrix), Arc::clone(&sys.colors), 1.0)
    })?;
    tr.span("core.coeffs", |_| {
        MStep::new_least_squares(ssor, SSOR_STEPS, Weight::Uniform)
    })
}

/// Inputs → solver ready: assembly, multicolor ordering, preconditioner
/// or executor construction.
pub fn setup(
    w: Workload,
    sizes: &Sizes,
    inp: &Inputs,
    tr: &mut Tracer,
) -> Result<(System, Solver<MStepSsorPreconditioner>), SparseError> {
    let sys = if w.is_plate() {
        let a = if w == Workload::PlateMultiRhs {
            sizes.multi_a
        } else {
            sizes.plate_a
        };
        let asm = tr.span("fem.assemble", |_| {
            PlaneStressProblem::unit_square(a).assemble()
        })?;
        tr.span("coloring.order", |_| {
            let ord = asm.multicolor()?;
            let rhs = gather_all(inp, |f| ord.permutation.gather(f));
            Ok::<_, SparseError>(System {
                matrix: Arc::new(ord.matrix),
                colors: Arc::new(ord.colors),
                rhs,
                lanes: inp.lanes,
            })
        })?
    } else {
        let prob = tr.span("fem.assemble", |_| poisson5(sizes.poisson_n))?;
        tr.span("coloring.order", |_| {
            let ord = prob.coloring.ordering();
            let matrix = ord.permute_matrix(&prob.matrix)?;
            let rhs = gather_all(inp, |f| ord.permutation.gather(f));
            Ok::<_, SparseError>(System {
                matrix: Arc::new(matrix),
                colors: Arc::new(ord.partition),
                rhs,
                lanes: inp.lanes,
            })
        })?
    };
    assert_eq!(sys.n(), inp.n, "input length does not match the system");
    let n = sys.n();
    let variant = w.variant();
    let solver = match w {
        Workload::PlateSsor => Solver::serial(fit_ssor(&sys, tr)?, variant, n),
        Workload::PlateMultiRhs => Solver::multi(fit_ssor(&sys, tr)?, variant, n, sys.lanes),
        Workload::PlateSpmd => {
            let pre = fit_ssor(&sys, tr)?;
            let exec = tr.span("parallel.build", |_| {
                ParallelMStepPcg::new(&*sys.matrix, &sys.colors, pre.alphas().to_vec())
            })?;
            Solver::Spmd { exec, variant }
        }
        Workload::PoissonPoly => {
            let exec = tr.span("parallel.build", |_| {
                ParallelMStepPcg::poly(&*sys.matrix, &sys.colors, PolyKind::Chebyshev, POLY_DEGREE)
            })?;
            Solver::Spmd { exec, variant }
        }
    };
    Ok((sys, solver))
}

fn gather_all(inp: &Inputs, gather: impl Fn(&[f64]) -> Vec<f64>) -> Vec<Vec<f64>> {
    inp.rhs
        .iter()
        .map(|batch| batch.chunks(inp.n).flat_map(&gather).collect())
        .collect()
}

/// What one solve reported about itself, beyond its solution.
#[derive(Debug, Clone, Copy, Default)]
pub struct Counters {
    pub iterations: usize,
    pub spmv: usize,
    pub precond_applications: usize,
    pub inner_products: usize,
    pub reduction_phases: usize,
    pub fallbacks: usize,
    pub replacements: usize,
    pub rescued: usize,
    pub recoveries: usize,
    pub barrier_crossings: usize,
    pub split_crossings: usize,
    pub workers: usize,
}

/// One solve: its wall time, the solution of every lane, and whether
/// each lane reported convergence.
pub struct SolveRun {
    pub secs: f64,
    pub result: Result<(Vec<f64>, Vec<bool>, Counters), SparseError>,
}

impl<P: Preconditioner + Sync> Solver<P> {
    pub fn serial(pre: P, variant: PcgVariant, n: usize) -> Self {
        Solver::Serial {
            pre,
            variant,
            ws: PcgWorkspace::new(n),
            u: vec![0.0; n],
        }
    }

    pub fn multi(pre: P, variant: PcgVariant, n: usize, lanes: usize) -> Self {
        Solver::Multi {
            pre,
            variant,
            ws: MultiRhsWorkspace::new(n, lanes),
            u: vec![0.0; n * lanes],
        }
    }

    /// Solve `K·u = f` from the zero initial guess with a thread budget of
    /// `threads`: the kernel pool on the serial paths, SPMD workers on the
    /// executor. On the batched path `f` holds the lanes one after another.
    pub fn solve(&mut self, k: &CsrMatrix, f: &[f64], threads: usize, tr: &mut Tracer) -> SolveRun {
        par::set_max_threads(threads);
        match self {
            Solver::Serial {
                pre,
                variant,
                ws,
                u,
            } => {
                let opts = pcg_options(*variant);
                u.fill(0.0);
                let (secs, rep) = timed(tr, "core.pcg", || {
                    pcg_try_solve_into(k, f, u, &*pre, &opts, ws)
                });
                SolveRun {
                    secs,
                    result: rep.map(|r| (u.clone(), vec![r.converged], serial_counters(&r))),
                }
            }
            Solver::Multi {
                pre,
                variant,
                ws,
                u,
            } => {
                let opts = pcg_options(*variant);
                u.clear();
                u.resize(f.len(), 0.0);
                let (secs, sum) = timed(tr, "core.multi", || {
                    pcg_solve_multi(k, f, u, &*pre, &opts, ws)
                });
                SolveRun {
                    secs,
                    result: sum.map(|s| {
                        let mut c = Counters {
                            iterations: s.total_iterations,
                            rescued: s.rescued,
                            ..Counters::default()
                        };
                        let mut conv = Vec::with_capacity(ws.outcomes().len());
                        for o in ws.outcomes() {
                            conv.push(o.status.is_converged());
                            let s = serial_counters(&o.report);
                            c.spmv += s.spmv;
                            c.precond_applications += s.precond_applications;
                            c.inner_products += s.inner_products;
                            c.reduction_phases += s.reduction_phases;
                            c.fallbacks += s.fallbacks;
                            c.replacements += s.replacements;
                        }
                        (u.clone(), conv, c)
                    }),
                }
            }
            Solver::Spmd { exec, variant } => {
                let opts = spmd_options(*variant, threads);
                let (secs, rep) = timed(tr, "parallel.solve", || exec.solve(f, &opts));
                SolveRun {
                    secs,
                    result: rep.map(|r| {
                        let c = Counters {
                            iterations: r.iterations,
                            reduction_phases: r.reduction_phases,
                            replacements: r.replacements,
                            recoveries: r.recoveries,
                            barrier_crossings: r.barrier_crossings,
                            split_crossings: r.split_crossings,
                            workers: r.threads,
                            ..Counters::default()
                        };
                        (r.x, vec![r.converged], c)
                    }),
                }
            }
        }
    }
}

/// Time `f` inside a span called `name`.
pub fn timed<R>(tr: &mut Tracer, name: &'static str, f: impl FnOnce() -> R) -> (f64, R) {
    tr.span(name, |_| {
        let t = Instant::now();
        let out = f();
        (t.elapsed().as_secs_f64(), out)
    })
}

fn serial_counters(r: &mspcg::core::PcgReport) -> Counters {
    Counters {
        iterations: r.iterations,
        spmv: r.stats.spmv,
        precond_applications: r.stats.precond_applications,
        inner_products: r.stats.inner_products,
        reduction_phases: r.stats.reduction_phases,
        fallbacks: r.stats.fallbacks,
        replacements: r.stats.replacements,
        ..Counters::default()
    }
}

/// `‖f − K·u‖₂ / ‖f‖₂`, computed here from the stored matrix entries
/// rather than by the solver's own kernels.
pub fn true_residual(k: &CsrMatrix, f: &[f64], u: &[f64]) -> f64 {
    let (rp, ci, v) = (k.row_ptr(), k.col_idx(), k.values());
    let mut rr = 0.0;
    let mut ff = 0.0;
    for i in 0..k.rows() {
        let mut ku = 0.0;
        for j in rp[i]..rp[i + 1] {
            ku += v[j] * u[ci[j] as usize];
        }
        let r = f[i] - ku;
        rr += r * r;
        ff += f[i] * f[i];
    }
    (rr / ff).sqrt()
}

/// The spectral interval of the Jacobi-scaled operator, which sets up the
/// Chebyshev preconditioner.
pub fn jacobi_interval(k: &CsrMatrix) -> Result<SpectralInterval, SparseError> {
    let inv_diag: Vec<f64> = k.diag()?.iter().map(|d| 1.0 / d).collect();
    mspcg::core::poly::jacobi_spectrum(k, &inv_diag)
}

/// The serial Chebyshev preconditioner of `poisson-poly` on a known interval.
pub fn chebyshev(
    sys: &System,
    interval: SpectralInterval,
) -> Result<PolynomialPreconditioner<Arc<CsrMatrix>>, SparseError> {
    PolynomialPreconditioner::with_interval(
        Arc::clone(&sys.matrix),
        PolyKind::Chebyshev,
        POLY_DEGREE,
        interval,
    )
}
