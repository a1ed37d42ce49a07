//! The operator abstraction layer, end to end: one solver stack, three
//! storage formats.
//!
//! Every solver entry point (`pcg_solve_into`, `pcg_solve_multi`, the SPMD
//! `ParallelMStepPcg`) is generic over `SparseOp`, so the storage format is
//! a pure performance decision — the iterates are **bitwise identical**
//! across formats. This example
//!
//! 1. solves a red/black Poisson system through CSR, SELL-C-σ and the
//!    automatic dispatcher (`AutoOp`) and verifies the runs replay
//!    bitwise,
//! 2. times CSR against SELL-C-σ on a wide-row "arrow" matrix — the
//!    row-length-irregular family the sliced, sorted layout exists for —
//!    and prints the padding the σ-sort left behind.
//!
//! ```sh
//! cargo run --release --example wide_row_formats [n]
//! ```

use mspcg::core::mstep::MStepSsorPreconditioner;
use mspcg::core::pcg::{pcg_solve_into, PcgOptions, PcgWorkspace};
use mspcg::fem::poisson::poisson5;
use mspcg::sparse::{AutoOp, CooMatrix, SellCsMatrix, SparseOp};
use std::time::Instant;

fn main() {
    let n = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(96usize);

    // --- 1. One solve, three formats, one answer --------------------------
    let p = poisson5(n).expect("poisson");
    let ord = p.coloring.ordering();
    let matrix = ord.permute_matrix(&p.matrix).expect("permute");
    let rhs = ord.permutation.gather(&p.rhs);
    let colors = ord.partition;
    let dim = matrix.rows();

    let sell = SellCsMatrix::from_csr_default(&matrix);
    let auto = AutoOp::from_csr(matrix.clone());
    println!(
        "red/black Poisson {n}×{n}: {dim} unknowns, {} stored entries",
        matrix.nnz()
    );
    println!(
        "  SELL-C-{}-σ{}: {} slices, padding {:.2}%  |  AutoOp chose {:?}",
        sell.chunk_height(),
        sell.sigma(),
        sell.num_slices(),
        sell.padding_ratio() * 100.0,
        auto.format()
    );

    let opts = PcgOptions {
        tol: 1e-8,
        ..Default::default()
    };
    let mut ws = PcgWorkspace::new(dim);
    let mut solve = |name: &str, op: &dyn Fn(&mut [f64], &mut PcgWorkspace) -> usize| {
        let mut u = vec![0.0; dim];
        let iters = op(&mut u, &mut ws);
        println!("  {name:<10} {iters:>4} iterations");
        u
    };
    let pre_csr = MStepSsorPreconditioner::unparametrized(&matrix, &colors, 2).expect("pre");
    let pre_sell = MStepSsorPreconditioner::unparametrized_op(&sell, &colors, 2).expect("pre");
    let pre_auto = MStepSsorPreconditioner::unparametrized_op(&auto, &colors, 2).expect("pre");
    let u_csr = solve("CSR", &|u, ws| {
        pcg_solve_into(&matrix, &rhs, u, &pre_csr, &opts, ws)
            .expect("solve")
            .iterations
    });
    let u_sell = solve("SELL-C-σ", &|u, ws| {
        pcg_solve_into(&sell, &rhs, u, &pre_sell, &opts, ws)
            .expect("solve")
            .iterations
    });
    let u_auto = solve("AutoOp", &|u, ws| {
        pcg_solve_into(&auto, &rhs, u, &pre_auto, &opts, ws)
            .expect("solve")
            .iterations
    });
    let bitwise = |a: &[f64], b: &[f64]| a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits());
    assert!(bitwise(&u_csr, &u_sell) && bitwise(&u_csr, &u_auto));
    println!("  all three runs are bitwise identical.\n");

    // --- 2. The wide-row family: where SELL-C-σ pays ----------------------
    let an = 60_000usize;
    let head = 8usize;
    let mut coo = CooMatrix::new(an, an);
    for i in 0..an {
        coo.push(i, i, 8.0).expect("push");
        if i + 1 < an {
            coo.push_sym(i, i + 1, -1.0).expect("push");
        }
    }
    for d in 0..head {
        for j in head..an {
            coo.push(d, j, -1e-3).expect("push");
        }
    }
    let arrow = coo.to_csr();
    let arrow_sell = SellCsMatrix::from_csr_default(&arrow);
    println!(
        "arrow matrix: {an} rows, {head} dense head rows, {} stored entries, SELL padding {:.2}%",
        arrow.nnz(),
        arrow_sell.padding_ratio() * 100.0
    );
    let x: Vec<f64> = (0..an)
        .map(|i| ((i * 31 + 7) % 1013) as f64 * 1e-3)
        .collect();
    let mut y = vec![0.0; an];
    let reps = 200;
    let time = |f: &mut dyn FnMut()| {
        let t0 = Instant::now();
        for _ in 0..reps {
            f();
        }
        t0.elapsed().as_secs_f64() / reps as f64
    };
    let t_csr = time(&mut || arrow.mul_vec_into(&x, &mut y));
    let t_sell = time(&mut || SparseOp::mul_vec_into(&arrow_sell, &x, &mut y));
    println!(
        "  SpMV mean: CSR {:.3} ms, SELL-C-σ {:.3} ms  ({:.2}x)",
        t_csr * 1e3,
        t_sell * 1e3,
        t_csr / t_sell
    );
}
