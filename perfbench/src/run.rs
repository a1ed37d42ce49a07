//! One benchmark run: set-up passes, warm closed-loop solves at `nproc`
//! and at one thread, the correctness gate, and (traced runs only) the
//! layer probes.

use crate::json::Json;
use crate::stats::{median, summarize, tail, Summary};
use crate::trace::{durations, self_times, Span, Tracer};
use crate::workload::{
    chebyshev, fit_ssor, inputs, jacobi_interval, setup, timed, true_residual, Counters, Path,
    Sizes, SolveRun, Solver, System, Workload, INPUTS,
};
use mspcg::core::{MStepSsorPreconditioner, Preconditioner};
use mspcg::parallel::ParallelMStepPcg;
use mspcg::sparse::{par, vecops, SparseError};
use std::hint::black_box;
use std::time::Instant;

/// Set-up passes and cold passes each run at least this often.
const MIN_PASSES: usize = 3;
/// Kernel-pool budget during set-up. The pool parks its workers between
/// launches, and the Lanczos estimate and the α fit make thousands of
/// small launches, so at two threads on a shared virtual machine their
/// time doubled from one run to the next with the machine's load; at one
/// thread it is steady (and no slower). The traced run still times the
/// Lanczos estimate at both budgets.
const SETUP_THREADS: usize = 1;
/// Share of the run's time spent repeating the set-up alone.
const SETUP_SHARE: f64 = 0.1;
/// Share of the run's time spent on cold passes.
const COLD_SHARE: f64 = 0.25;

pub struct Opts {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub sizes: Sizes,
    /// Time each isolated kernel is repeated for in the layer probes.
    pub kernel_secs: f64,
}

impl Opts {
    pub fn new(workload: Workload, seed: u64, seconds: f64, trace: bool) -> Self {
        Opts {
            workload,
            seed,
            seconds,
            trace,
            sizes: Sizes::FULL,
            kernel_secs: 0.25,
        }
    }
}

pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<Metric>,
    /// Provenance and sample statistics of the run.
    pub record: Vec<(String, Json)>,
    pub spans: Vec<Span>,
}

/// Largest relative ∞-norm difference allowed between the solutions of
/// one input at `nproc` and at one SPMD worker.
const WORKER_COUNT_TOL: f64 = 1e-8;

/// The correctness gate. Every lane of every solve must report
/// convergence and meet the true-residual bound, and every solve must
/// reproduce bit for bit the first solution of the same input at the same
/// thread budget. Across budgets the kernel-pool paths must also agree bit
/// for bit; the SPMD executor sums its reductions per worker, so its
/// results across worker counts need only agree to [`WORKER_COUNT_TOL`]
/// (bitwise mismatches are counted in the record). A violation or an
/// error counts as a failed operation.
struct Gate {
    bound: f64,
    bitwise_across_budgets: bool,
    /// Per input: the first solution at `nproc` and at one thread.
    reference: Vec<[Option<Vec<f64>>; 2]>,
    attempted: u64,
    failed: u64,
    worst_residual: f64,
    across_budget_mismatches: u64,
    worst_across_budget_diff: f64,
    errors: Vec<String>,
}

fn bitwise_eq(a: &[f64], b: &[f64]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
}

impl Gate {
    fn new(w: Workload) -> Self {
        Gate {
            bound: w.residual_bound(),
            bitwise_across_budgets: w.path() != Path::Spmd,
            reference: vec![[None, None]; INPUTS],
            attempted: 0,
            failed: 0,
            worst_residual: 0.0,
            across_budget_mismatches: 0,
            worst_across_budget_diff: 0.0,
            errors: Vec::new(),
        }
    }

    /// Check `run`, a solve of `f`. `slot` names the input solved and the
    /// thread budget (0: `nproc`, 1: one thread) when the solution must be
    /// compared with earlier solves of that input.
    fn check(&mut self, sys: &System, f: &[f64], slot: Option<(usize, usize)>, run: &SolveRun) {
        let n = sys.n();
        let lanes = f.len() / n;
        self.attempted += lanes as u64;
        let (x, converged) = match &run.result {
            Ok((x, converged, _)) => (x, converged),
            Err(e) => {
                self.failed += lanes as u64;
                self.errors.push(e.to_string());
                return;
            }
        };
        let mut same = true;
        if let Some((input, budget)) = slot {
            let refs = &mut self.reference[input];
            match &refs[budget] {
                Some(r) => same = bitwise_eq(r, x),
                None => refs[budget] = Some(x.clone()),
            }
            if !same {
                self.errors
                    .push("solution differs from an earlier solve at the same budget".into());
            }
            if let Some(other) = &refs[1 - budget] {
                if !bitwise_eq(other, x) {
                    self.across_budget_mismatches += 1;
                    let scale = other.iter().fold(0.0f64, |m, v| m.max(v.abs()));
                    let diff = other
                        .iter()
                        .zip(x)
                        .fold(0.0f64, |m, (a, b)| m.max((a - b).abs()));
                    let rel = diff / scale;
                    self.worst_across_budget_diff = self.worst_across_budget_diff.max(rel);
                    let close = rel <= WORKER_COUNT_TOL; // false for NaN
                    if self.bitwise_across_budgets || !close {
                        same = false;
                        self.errors.push(format!(
                            "solutions at nproc and one thread differ (relative {rel:e})"
                        ));
                    }
                }
            }
        }
        for (lane, &conv) in converged.iter().enumerate() {
            let span = lane * n..(lane + 1) * n;
            let res = true_residual(&sys.matrix, &f[span.clone()], &x[span]);
            self.worst_residual = self.worst_residual.max(res);
            let within = res <= self.bound; // false for NaN
            if !within {
                self.errors
                    .push(format!("lane {lane}: true residual {res:e}"));
            }
            if !(conv && within && same) {
                self.failed += 1;
            }
        }
    }
}

fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |p| p.get())
}

/// Peak resident set of this process, from `/proc/self/status`.
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .expect("VmHWM in /proc/self/status");
    kb / 1024.0
}

/// Steal and total CPU time of the machine so far, in clock ticks, from
/// the first line of `/proc/stat`: on a virtual machine, time the
/// hypervisor gave its CPUs to others shows as steal.
fn cpu_ticks() -> Option<(u64, u64)> {
    let stat = std::fs::read_to_string("/proc/stat").ok()?;
    let ticks: Vec<u64> = stat
        .lines()
        .next()?
        .split_whitespace()
        .skip(1)
        .take(8)
        .map(|t| t.parse().ok())
        .collect::<Option<_>>()?;
    Some((*ticks.get(7)?, ticks.iter().sum()))
}

/// The commit of the checkout when it is a git work tree, read from
/// `.git` without running git.
fn git_commit() -> String {
    let git = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../.git");
    let read = |p: &str| std::fs::read_to_string(git.join(p)).ok();
    let head = match read("HEAD") {
        Some(h) => h.trim().to_string(),
        None => return "unknown".into(),
    };
    let Some(name) = head.strip_prefix("ref: ") else {
        return head;
    };
    read(name)
        .map(|s| s.trim().to_string())
        .or_else(|| {
            read("packed-refs")?
                .lines()
                .find(|l| l.ends_with(name))
                .and_then(|l| Some(l[..l.find(' ')?].to_string()))
        })
        .unwrap_or_else(|| "unknown".into())
}

fn summary_json(s: &Summary) -> Json {
    Json::obj([
        ("median", Json::Num(s.median)),
        ("q1", Json::Num(s.q1)),
        ("q3", Json::Num(s.q3)),
        ("samples", Json::Int(s.n as u64)),
    ])
}

pub fn run(o: &Opts) -> Result<Outcome, SparseError> {
    let w = o.workload;
    let nproc = nproc();
    let inp = inputs(w, &o.sizes, o.seed);
    let mut tr = Tracer::new(o.trace);
    let mut gate = Gate::new(w);
    let ticks_at_start = cpu_ticks();
    let start = Instant::now();

    // Set-up alone, repeated; then cold passes, from the inputs to a
    // checked solution, which is what a one-shot user pays. Both repeat
    // for a share of the run's time, cheap set-ups many times.
    let (mut setup_s, mut tts) = (Vec::new(), Vec::new());
    let phase = |share: f64| o.seconds * share;
    while setup_s.len() < MIN_PASSES || start.elapsed().as_secs_f64() < phase(SETUP_SHARE) {
        tr.next_run();
        par::set_max_threads(SETUP_THREADS);
        let t0 = Instant::now();
        let ready = tr.span("setup", |tr| setup(w, &o.sizes, &inp, tr))?;
        setup_s.push(t0.elapsed().as_secs_f64());
        drop(ready);
    }
    let mut ready = None;
    while tts.len() < MIN_PASSES || start.elapsed().as_secs_f64() < phase(SETUP_SHARE + COLD_SHARE)
    {
        drop(ready.take());
        tr.next_run();
        let t0 = Instant::now();
        let pair = tr.span("pipeline", |tr| {
            par::set_max_threads(SETUP_THREADS);
            let (sys, mut solver) = tr.span("setup", |tr| setup(w, &o.sizes, &inp, tr))?;
            let run = solver.solve(&sys.matrix, &sys.rhs[0], nproc, tr);
            tr.span("check", |_| {
                gate.check(&sys, &sys.rhs[0], Some((0, 0)), &run)
            });
            Ok::<_, SparseError>((sys, solver))
        })?;
        tts.push(t0.elapsed().as_secs_f64());
        ready = Some(pair);
    }
    let (sys, mut solver) = ready.expect("at least one set-up pass");

    // Warm closed loop: one caller, back-to-back solves, alternating the
    // thread budget so that drift in the machine hits both alike. A traced
    // run adds an untraced `nproc` solve per round to price the tracing.
    let (mut np, mut np_counters, mut t1, mut untraced) = (vec![], vec![], vec![], vec![]);
    // Six untraced rounds give twelve warm `nproc` solves, so the tail
    // percentile always has ten samples beyond it.
    let min_rounds = if o.trace { 3 } else { 6 };
    let mut k = 0;
    let mut rounds = 0;
    while rounds < min_rounds || start.elapsed().as_secs_f64() < o.seconds {
        let mut solve = |threads: usize, traced: bool, tr: &mut Tracer| {
            let idx = k % INPUTS;
            k += 1;
            tr.set_enabled(traced && o.trace);
            tr.next_run();
            let run = solver.solve(&sys.matrix, &sys.rhs[idx], threads, tr);
            let budget = usize::from(threads < nproc);
            gate.check(&sys, &sys.rhs[idx], Some((idx, budget)), &run);
            tr.set_enabled(o.trace);
            run
        };
        // (one thread, traced) per solve of a round.
        let schedule: &[(bool, bool)] = if o.trace {
            &[(false, false), (false, true), (true, true)]
        } else {
            &[(false, false), (false, false), (true, false)]
        };
        for &(one, traced) in schedule {
            let run = solve(if one { 1 } else { nproc }, traced, &mut tr);
            if one {
                t1.push(run.secs);
            } else if traced || !o.trace {
                np.push(run.secs);
                if let Ok((_, _, c)) = run.result {
                    np_counters.push((run.secs, c));
                }
            } else {
                untraced.push(run.secs);
            }
        }
        rounds += 1;
    }
    let workers = np_counters.last().map(|(_, c)| c.workers);
    par::set_max_threads(nproc);
    let pool_budget = par::max_threads();

    let steal_share = match (ticks_at_start, cpu_ticks()) {
        (Some((s0, t0)), Some((s1, t1))) if t1 > t0 => {
            Json::Num((s1 - s0) as f64 / (t1 - t0) as f64)
        }
        _ => Json::Null,
    };
    let mut record: Vec<(String, Json)> = vec![
        ("workload".into(), Json::Str(w.name().into())),
        ("seed".into(), Json::Int(o.seed)),
        ("trace".into(), Json::Bool(o.trace)),
        ("git_commit".into(), Json::Str(git_commit())),
        ("available_parallelism".into(), Json::Int(nproc as u64)),
        ("host_steal_share".into(), steal_share),
        ("pool_budget".into(), Json::Int(pool_budget as u64)),
        (
            "pool_capacity".into(),
            Json::Int(par::pool_capacity() as u64),
        ),
        (
            "spmd_workers".into(),
            match (w.path(), workers) {
                (Path::Spmd, Some(t)) => Json::Int(t as u64),
                _ => Json::Null,
            },
        ),
        ("unknowns".into(), Json::Int(sys.n() as u64)),
        ("nonzeros".into(), Json::Int(sys.matrix.nnz() as u64)),
        ("colors".into(), Json::Int(sys.colors.num_blocks() as u64)),
        ("lanes_per_solve".into(), Json::Int(sys.lanes as u64)),
        (
            "iterations_per_solve".into(),
            Json::Arr(
                np_counters
                    .iter()
                    .map(|(_, c)| Json::Int(c.iterations as u64))
                    .collect(),
            ),
        ),
        ("setup_s".into(), summary_json(&summarize(&setup_s))),
        ("time_to_solution_s".into(), summary_json(&summarize(&tts))),
        ("solve_s".into(), summary_json(&summarize(&np))),
        ("solve_s_t1".into(), summary_json(&summarize(&t1))),
        (
            "solve_s_samples".into(),
            Json::Arr(np.iter().map(|&x| Json::Num(x)).collect()),
        ),
        (
            "solve_s_t1_samples".into(),
            Json::Arr(t1.iter().map(|&x| Json::Num(x)).collect()),
        ),
    ];
    let mut metrics = Vec::new();
    let mut put = |name: &'static str, value: f64, unit: &'static str| {
        metrics.push(Metric { name, value, unit });
    };
    if o.trace {
        let overhead = median(&np) - median(&untraced);
        record.push((
            "solve_s_untraced".into(),
            summary_json(&summarize(&untraced)),
        ));
        layer_metrics(
            w,
            &sys,
            &solver,
            &np_counters,
            nproc,
            o,
            &mut tr,
            &mut gate,
            &mut put,
        )?;
        put("trace.overhead_s", overhead, "s");
    } else {
        let (pct, tail_s) = tail(&np).expect("enough warm solves for the tail");
        record.push((
            "solve_s_tail".into(),
            Json::obj([
                ("percentile", Json::Num(pct)),
                ("value", Json::Num(tail_s)),
                ("samples", Json::Int(np.len() as u64)),
            ]),
        ));
        let solve_s = median(&np);
        let solve_s_t1 = median(&t1);
        put("setup_s", median(&setup_s), "s");
        put("solve_s", solve_s, "s");
        put("solve_s_tail", tail_s, "s");
        put("solve_s_t1", solve_s_t1, "s");
        put("parallel_speedup", solve_s_t1 / solve_s, "ratio");
        put("time_to_solution_s", median(&tts), "s");
        put("peak_rss_mb", peak_rss_mb(), "MB");
        put(
            "success_frac",
            1.0 - gate.failed as f64 / gate.attempted as f64,
            "ratio",
        );
    }
    record.push((
        "failed_frac".into(),
        Json::Num(gate.failed as f64 / gate.attempted as f64),
    ));
    record.push(("worst_true_residual".into(), Json::Num(gate.worst_residual)));
    record.push((
        "across_budget_bitwise_mismatches".into(),
        Json::Int(gate.across_budget_mismatches),
    ));
    record.push((
        "worst_across_budget_diff".into(),
        Json::Num(gate.worst_across_budget_diff),
    ));
    record.push(("residual_bound".into(), Json::Num(gate.bound)));
    record.push((
        "errors".into(),
        Json::Arr(
            gate.errors
                .iter()
                .take(8)
                .map(|e| Json::Str(e.clone()))
                .collect(),
        ),
    ));
    if o.trace {
        let st = self_times(tr.spans());
        record.push((
            "self_time_s".into(),
            Json::Obj(
                st.into_iter()
                    .map(|(k, v)| (k.to_string(), Json::Num(v)))
                    .collect(),
            ),
        ));
    }
    Ok(Outcome {
        attempted: gate.attempted,
        failed: gate.failed,
        metrics,
        record,
        spans: tr.spans().to_vec(),
    })
}

/// Median wall time of `f` at a thread budget, repeated for at least
/// `secs` and at least once, each call in a span.
fn repeat(
    tr: &mut Tracer,
    name: &'static str,
    threads: usize,
    secs: f64,
    mut f: impl FnMut(),
) -> f64 {
    par::set_max_threads(threads);
    let t = Instant::now();
    let mut xs = Vec::new();
    while xs.is_empty() || t.elapsed().as_secs_f64() < secs {
        xs.push(timed(tr, name, &mut f).0);
    }
    median(&xs)
}

/// Isolated kernel times at one thread budget.
struct Kernels {
    spmv: f64,
    update: f64,
    dot: f64,
    /// One application of the workload's own preconditioner family.
    apply: f64,
}

#[allow(clippy::too_many_arguments)]
fn layer_metrics(
    w: Workload,
    sys: &System,
    own: &Solver<MStepSsorPreconditioner>,
    own_samples: &[(f64, Counters)],
    nproc: usize,
    o: &Opts,
    tr: &mut Tracer,
    gate: &mut Gate,
    put: &mut impl FnMut(&'static str, f64, &'static str),
) -> Result<(), SparseError> {
    tr.next_run();
    let ks = o.kernel_secs;
    let n = sys.n();
    let k = &*sys.matrix;

    // sparse.lanczos: the spectrum estimate behind the Chebyshev set-up.
    let mut interval = None;
    let lanczos = repeat(tr, "sparse.lanczos", nproc, ks, || {
        interval = Some(jacobi_interval(k));
    });
    let lanczos_t1 = repeat(tr, "sparse.lanczos.t1", 1, ks, || {
        black_box(jacobi_interval(k).ok());
    });
    let interval = interval.expect("lanczos ran")?;
    put("sparse.lanczos_s", lanczos, "s");
    put("sparse.lanczos_s_t1", lanczos_t1, "s");

    // Kernels on the workload's own matrix and a first-lane input.
    let x = &sys.rhs[0][..n];
    let mut y = vec![0.0; n];
    let mut u = vec![0.0; n];
    let mut r = x.to_vec();
    let mut z = vec![0.0; n];
    let mut kern = |t: usize, tr: &mut Tracer, suffix: bool| {
        let name = |a: &'static str, b: &'static str| if suffix { b } else { a };
        let spmv = repeat(tr, name("sparse.spmv", "sparse.spmv.t1"), t, ks, || {
            k.mul_vec_into(x, &mut y)
        });
        let update = repeat(
            tr,
            name("sparse.vecops_update", "sparse.vecops_update.t1"),
            t,
            ks,
            || {
                black_box(vecops::fused_axpy_axpy_norm(1e-3, x, &y, &mut u, &mut r));
            },
        );
        let dot = repeat(
            tr,
            name("sparse.vecops_dot", "sparse.vecops_dot.t1"),
            t,
            ks,
            || {
                black_box(vecops::dot(x, &y));
            },
        );
        (spmv, update, dot)
    };
    let (spmv, update, dot) = kern(nproc, tr, false);
    let (spmv_t1, update_t1, dot_t1) = kern(1, tr, true);
    let bytes = 12.0 * k.nnz() as f64 + 8.0 * (n + 1) as f64 + 16.0 * n as f64;
    put("sparse.spmv_s", spmv, "s");
    put("sparse.spmv_s_t1", spmv_t1, "s");
    put("sparse.spmv_speedup", spmv_t1 / spmv, "ratio");
    put("sparse.spmv_gbs", bytes / spmv / 1e9, "GB/s");
    put("sparse.vecops_update_s", update, "s");
    put("sparse.vecops_update_s_t1", update_t1, "s");
    put("sparse.vecops_dot_s", dot, "s");
    put("sparse.vecops_dot_s_t1", dot_t1, "s");

    // core.msolve: the m-step SSOR apply (the own one on the serial plate
    // paths, a freshly fitted one elsewhere, which also times the α fit).
    let fitted;
    let ssor = match own {
        Solver::Serial { pre, .. } | Solver::Multi { pre, .. } => pre,
        Solver::Spmd { .. } => {
            fitted = fit_ssor(sys, tr)?;
            &fitted
        }
    };
    let mut apply_probe = |pre: &dyn Preconditioner, names: [&'static str; 2], tr: &mut Tracer| {
        let mut scratch = vec![0.0; pre.scratch_len()];
        let mut one = |t, name, tr: &mut Tracer| {
            repeat(tr, name, t, ks, || pre.apply_with(x, &mut z, &mut scratch))
        };
        (one(nproc, names[0], tr), one(1, names[1], tr))
    };
    let (msolve, msolve_t1) = apply_probe(ssor, ["core.msolve", "core.msolve.t1"], tr);
    put("core.msolve_s", msolve, "s");
    put("core.msolve_s_t1", msolve_t1, "s");
    put("core.msolve_speedup", msolve_t1 / msolve, "ratio");
    let cheb = chebyshev(sys, interval)?;
    let (poly, poly_t1) = apply_probe(&cheb, ["core.poly_apply", "core.poly_apply.t1"], tr);
    put("core.poly_apply_s", poly, "s");
    put("core.poly_apply_s_t1", poly_t1, "s");
    // One application of the workload's own preconditioner family.
    let own_apply = |poly, ssor| {
        if w == Workload::PoissonPoly {
            poly
        } else {
            ssor
        }
    };
    let pool = Kernels {
        spmv,
        update,
        dot,
        apply: own_apply(poly, msolve),
    };
    let serial_kernels = Kernels {
        spmv: spmv_t1,
        update: update_t1,
        dot: dot_t1,
        apply: own_apply(poly_t1, msolve_t1),
    };

    // The solver paths the workload does not run itself: one probe solve
    // each, same preconditioner family and variant, at `nproc`.
    let f1 = &sys.rhs[0][..n];
    let fbatch: Vec<f64> = (0..nproc)
        .flat_map(|l| sys.rhs[l % INPUTS][..n].iter().copied())
        .collect();
    // A failed probe is counted by the gate and leaves its metrics empty.
    let probe = |solver: &mut dyn FnMut(&[f64], &mut Tracer) -> SolveRun,
                 f: &[f64],
                 tr: &mut Tracer,
                 gate: &mut Gate| {
        tr.next_run();
        let run = solver(f, tr);
        gate.check(sys, f, None, &run);
        run.result
            .map(|(_, _, c)| (run.secs, c))
            .into_iter()
            .collect::<Vec<_>>()
    };
    let variant = w.variant();
    let path = w.path();
    let (serial, multi, spmd) = if w == Workload::PoissonPoly {
        let mut s = Solver::serial(cheb, variant, n);
        let serial = probe(&mut |f, tr| s.solve(k, f, nproc, tr), f1, tr, gate);
        let mut m = Solver::multi(chebyshev(sys, interval)?, variant, n, nproc);
        let multi = probe(&mut |f, tr| m.solve(k, f, nproc, tr), &fbatch, tr, gate);
        (serial, multi, own_samples.to_vec())
    } else {
        let serial = if path == Path::Serial {
            own_samples.to_vec()
        } else {
            let mut s = Solver::serial(fit_ssor(sys, tr)?, variant, n);
            probe(&mut |f, tr| s.solve(k, f, nproc, tr), f1, tr, gate)
        };
        let multi = if path == Path::Multi {
            own_samples.to_vec()
        } else {
            let mut m = Solver::multi(fit_ssor(sys, tr)?, variant, n, nproc);
            probe(&mut |f, tr| m.solve(k, f, nproc, tr), &fbatch, tr, gate)
        };
        let spmd = if path == Path::Spmd {
            own_samples.to_vec()
        } else {
            let alphas = ssor.alphas().to_vec();
            let exec = tr.span("parallel.build", |_| {
                ParallelMStepPcg::new(k, &sys.colors, alphas)
            })?;
            let mut e = Solver::<MStepSsorPreconditioner>::Spmd { exec, variant };
            probe(&mut |f, tr| e.solve(k, f, nproc, tr), f1, tr, gate)
        };
        (serial, multi, spmd)
    };

    let spans = tr.spans();
    let med = |name: &str| median(&durations(spans, name));
    put("fem.assemble_s", med("fem.assemble"), "s");
    put("coloring.order_s", med("coloring.order"), "s");
    put("core.coeffs_s", med("core.coeffs"), "s");
    put("parallel.build_s", med("parallel.build"), "s");

    let per = |xs: &[(f64, Counters)], f: &dyn Fn(f64, &Counters) -> f64| {
        let v: Vec<f64> = xs.iter().map(|(s, c)| f(*s, c)).collect();
        if v.is_empty() {
            f64::NAN
        } else {
            median(&v)
        }
    };
    let kn = &pool;
    put(
        "core.pcg.iter_s",
        per(&serial, &|s, c| s / c.iterations as f64),
        "s",
    );
    put(
        "core.pcg.iterations",
        per(&serial, &|_, c| c.iterations as f64),
        "count",
    );
    put(
        "core.pcg.spmv_count",
        per(&serial, &|_, c| c.spmv as f64),
        "count",
    );
    put(
        "core.pcg.precond_applications",
        per(&serial, &|_, c| c.precond_applications as f64),
        "count",
    );
    put(
        "core.pcg.reduction_phases",
        per(&serial, &|_, c| c.reduction_phases as f64),
        "count",
    );
    put(
        "core.pcg.overhead_share",
        per(&serial, &|s, c| {
            let kernels = c.spmv as f64 * kn.spmv
                + c.precond_applications as f64 * kn.apply
                + c.iterations as f64 * kn.update
                + c.inner_products as f64 * kn.dot;
            1.0 - kernels / s
        }),
        "ratio",
    );
    put(
        "core.pcg.fallbacks",
        per(&serial, &|_, c| c.fallbacks as f64),
        "count",
    );
    put(
        "core.pcg.replacements",
        per(&serial, &|_, c| c.replacements as f64),
        "count",
    );
    put(
        "core.multi.lane_iter_s",
        per(&multi, &|s, c| s / c.iterations as f64),
        "s",
    );
    put(
        "core.multi.total_iterations",
        per(&multi, &|_, c| c.iterations as f64),
        "count",
    );
    put(
        "core.multi.rescued",
        per(&multi, &|_, c| c.rescued as f64),
        "count",
    );
    let it = |c: &Counters| c.iterations as f64;
    put("parallel.iter_s", per(&spmd, &|s, c| s / it(c)), "s");
    put("parallel.iterations", per(&spmd, &|_, c| it(c)), "count");
    put(
        "parallel.barriers_per_iter",
        per(&spmd, &|_, c| c.barrier_crossings as f64 / it(c)),
        "count",
    );
    put(
        "parallel.reductions_per_iter",
        per(&spmd, &|_, c| c.reduction_phases as f64 / it(c)),
        "count",
    );
    put(
        "parallel.splits_per_iter",
        per(&spmd, &|_, c| c.split_crossings as f64 / it(c)),
        "count",
    );
    put(
        "parallel.workers",
        per(&spmd, &|_, c| c.workers as f64),
        "count",
    );
    put(
        "parallel.kernel_share",
        per(&spmd, &|s, c| {
            let k1 = &serial_kernels;
            let per_iter = k1.spmv + k1.apply + k1.update + 2.0 * k1.dot;
            it(c) * per_iter / c.workers as f64 / s
        }),
        "ratio",
    );
    put(
        "parallel.recoveries",
        per(&spmd, &|_, c| c.recoveries as f64),
        "count",
    );
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every `"name": "…"` in the repository's `BENCHMARK.json`.
    fn declared_names() -> Vec<String> {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("read BENCHMARK.json");
        text.split("\"name\": \"")
            .skip(1)
            .map(|s| s[..s.find('"').expect("closing quote")].to_string())
            .collect()
    }

    /// All four workloads at toy sizes, untraced and traced: no operation
    /// fails, and each run prints exactly the metrics the benchmark
    /// declares for its mode.
    #[test]
    fn tiny_smoke_pass_of_every_workload() {
        let names = declared_names();
        let mut counts = [0usize; 2];
        for w in Workload::ALL {
            for trace in [false, true] {
                let mut o = Opts::new(w, 7, 0.01, trace);
                o.sizes = Sizes::TINY;
                o.kernel_secs = 0.002;
                let out = run(&o).expect("set-up");
                assert!(out.attempted > 0, "{}: nothing attempted", w.name());
                assert_eq!(
                    out.failed,
                    0,
                    "{} trace={trace}: {:?}",
                    w.name(),
                    Json::Obj(out.record).to_string()
                );
                for m in &out.metrics {
                    assert!(
                        names.iter().any(|n| n == m.name),
                        "{} is not declared",
                        m.name
                    );
                    assert!(m.value.is_finite(), "{} = {}", m.name, m.value);
                }
                let c = &mut counts[usize::from(trace)];
                assert!(
                    *c == 0 || *c == out.metrics.len(),
                    "metric count differs between workloads"
                );
                *c = out.metrics.len();
                if trace {
                    assert!(!out.spans.is_empty());
                    assert!(out.spans.iter().all(|s| s.end >= s.start));
                }
            }
        }
        // Workload names are declared too; every other name is a metric.
        let declared = Workload::ALL
            .iter()
            .filter(|w| names.iter().any(|n| n == w.name()))
            .count();
        assert_eq!(counts[0] + counts[1] + declared, names.len());
    }

    #[test]
    fn inputs_follow_the_seed() {
        for w in Workload::ALL {
            let a = inputs(w, &Sizes::TINY, 3);
            let b = inputs(w, &Sizes::TINY, 3);
            let c = inputs(w, &Sizes::TINY, 4);
            assert_eq!(a.rhs, b.rhs);
            assert_ne!(a.rhs, c.rhs);
            assert!(a.rhs.iter().all(|f| f.len() == a.n * a.lanes));
        }
    }
}
