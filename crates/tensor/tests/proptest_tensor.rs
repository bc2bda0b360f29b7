//! Property-based tests for the tensor engine.

use intellitag_tensor::{Matrix, Param, Tape};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn finite_vec(len: usize) -> impl Strategy<Value = Vec<f32>> {
    proptest::collection::vec(-10.0f32..10.0, len)
}

#[test]
fn softmax_under_a_block_diagonal_mask_gives_exact_zeros() {
    // Masked attention feeds -inf scores; exp(-inf) must be exactly 0.0.
    let mut rng = StdRng::seed_from_u64(31);
    let mask = Matrix::block_diag_mask(&[3, 2, 4]);
    let x = Matrix::uniform(9, 9, 2.0, &mut rng).add(&mask).softmax_rows();
    for (r, c) in [(0, 4), (4, 0), (8, 2)] {
        assert_eq!(x.get(r, c), 0.0, "masked prob ({r},{c}) must be exactly zero");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn softmax_rows_are_distributions(data in finite_vec(12)) {
        let m = Matrix::from_vec(3, 4, data);
        let s = m.softmax_rows();
        for r in 0..3 {
            let row = s.row_slice(r);
            let sum: f32 = row.iter().sum();
            prop_assert!((sum - 1.0).abs() < 1e-4);
            prop_assert!(row.iter().all(|&v| (0.0..=1.0).contains(&v)));
        }
    }

    #[test]
    fn softmax_is_shift_invariant(data in finite_vec(5), shift in -5.0f32..5.0) {
        let a = Matrix::from_vec(1, 5, data.clone());
        let b = Matrix::from_vec(1, 5, data.iter().map(|v| v + shift).collect());
        let sa = a.softmax_rows();
        let sb = b.softmax_rows();
        for (x, y) in sa.data().iter().zip(sb.data()) {
            prop_assert!((x - y).abs() < 1e-4);
        }
    }

    #[test]
    fn matmul_distributes_over_add(a in finite_vec(6), b in finite_vec(6), c in finite_vec(6)) {
        let ma = Matrix::from_vec(2, 3, a);
        let mb = Matrix::from_vec(3, 2, b);
        let mc = Matrix::from_vec(3, 2, c);
        let lhs = ma.matmul(&mb.add(&mc));
        let rhs = ma.matmul(&mb).add(&ma.matmul(&mc));
        for (x, y) in lhs.data().iter().zip(rhs.data()) {
            prop_assert!((x - y).abs() < 1e-3);
        }
    }

    #[test]
    fn transpose_reverses_matmul(a in finite_vec(6), b in finite_vec(6)) {
        let ma = Matrix::from_vec(2, 3, a);
        let mb = Matrix::from_vec(3, 2, b);
        let lhs = ma.matmul(&mb).transpose();
        let rhs = mb.transpose().matmul(&ma.transpose());
        for (x, y) in lhs.data().iter().zip(rhs.data()) {
            prop_assert!((x - y).abs() < 1e-3);
        }
    }

    #[test]
    fn sum_all_grad_is_ones(data in finite_vec(8)) {
        let p = Param::new("x", Matrix::from_vec(2, 4, data));
        let tape = Tape::new();
        let loss = tape.param(&p).sum_all();
        loss.backward();
        prop_assert!(p.grad().data().iter().all(|&g| (g - 1.0).abs() < 1e-6));
    }

    #[test]
    fn linear_grad_matches_input(x in finite_vec(4), w in finite_vec(4)) {
        // loss = x . w  => dloss/dw = x, dloss/dx = w
        let px = Param::new("x", Matrix::row(x.clone()));
        let pw = Param::new("w", Matrix::from_vec(4, 1, w.clone()));
        let tape = Tape::new();
        let loss = tape.param(&px).matmul(&tape.param(&pw)).sum_all();
        loss.backward();
        for (g, v) in px.grad().data().iter().zip(&w) {
            prop_assert!((g - v).abs() < 1e-4);
        }
        for (g, v) in pw.grad().data().iter().zip(&x) {
            prop_assert!((g - v).abs() < 1e-4);
        }
    }

    #[test]
    fn cross_entropy_nonnegative(data in finite_vec(10), target in 0usize..5) {
        let p = Param::new("x", Matrix::from_vec(2, 5, data));
        let tape = Tape::new();
        let loss = tape.param(&p).cross_entropy_logits(&[target, 4 - target.min(4)]);
        prop_assert!(loss.scalar() >= 0.0);
    }

    #[test]
    fn layer_norm_rows_standardized(data in finite_vec(16)) {
        // Guard against degenerate all-equal rows (variance 0 is fine: eps guards it).
        let tape = Tape::new();
        let x = tape.constant(Matrix::from_vec(4, 4, data));
        let gamma = tape.constant(Matrix::full(1, 4, 1.0));
        let beta = tape.constant(Matrix::zeros(1, 4));
        let y = x.layer_norm(&gamma, &beta, 1e-5).value();
        for r in 0..4 {
            let row = y.row_slice(r);
            let mean: f32 = row.iter().sum::<f32>() / 4.0;
            prop_assert!(mean.abs() < 1e-3);
        }
    }

    #[test]
    fn gather_rows_match_table(idx in proptest::collection::vec(0usize..6, 1..8), data in finite_vec(18)) {
        let table = Param::new("emb", Matrix::from_vec(6, 3, data));
        let tape = Tape::new();
        let g = tape.gather(&table, &idx).value();
        let t = table.value();
        for (i, &row) in idx.iter().enumerate() {
            prop_assert_eq!(g.row_slice(i), t.row_slice(row));
        }
    }
}
