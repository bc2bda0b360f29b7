//! Numeric gradient checks for every differentiable op: the analytic
//! gradients from the tape must match central differences.

use intellitag_tensor::gradcheck::assert_grads_match;
use intellitag_tensor::{Matrix, Param, Tape, Tensor};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn p(name: &str, rows: usize, cols: usize, seed: u64) -> Param {
    let mut rng = StdRng::seed_from_u64(seed);
    Param::new(name, Matrix::uniform(rows, cols, 0.8, &mut rng))
}

#[test]
fn grad_add_sub_mul() {
    let a = p("a", 2, 3, 1);
    let b = p("b", 2, 3, 2);
    assert_grads_match(&[a.clone(), b.clone()], 1e-2, || {
        let tape = Tape::new();
        let x = tape.param(&a);
        let y = tape.param(&b);
        let loss = x.add(&y).mul(&x.sub(&y)).mean_all();
        loss.backward();
        loss.scalar()
    });
}

#[test]
fn grad_matmul_chain() {
    let a = p("a", 2, 3, 3);
    let b = p("b", 3, 4, 4);
    let c = p("c", 4, 1, 5);
    assert_grads_match(&[a.clone(), b.clone(), c.clone()], 1e-2, || {
        let tape = Tape::new();
        let loss = tape.param(&a).matmul(&tape.param(&b)).matmul(&tape.param(&c)).mean_all();
        loss.backward();
        loss.scalar()
    });
}

#[test]
fn grad_matmul_nt() {
    // C = A B^T: dA = g B, dB = g^T A.
    let a = p("a", 3, 4, 24);
    let b = p("b", 5, 4, 25);
    let w = p("w", 5, 1, 26);
    assert_grads_match(&[a.clone(), b.clone(), w.clone()], 1e-2, || {
        let tape = Tape::new();
        let loss = tape.param(&a).matmul_nt(&tape.param(&b)).matmul(&tape.param(&w)).mean_all();
        loss.backward();
        loss.scalar()
    });
}

#[test]
fn grad_matmul_layer_norm_softmax_chain() {
    // The whole matmul/matmul_nt/softmax/layer-norm chain, numeric-checked
    // end to end.
    let a = p("a", 5, 6, 27);
    let b = p("b", 6, 6, 28);
    let gamma = p("gamma", 1, 6, 29);
    let beta = p("beta", 1, 6, 30);
    assert_grads_match(&[a.clone(), b.clone(), gamma.clone(), beta.clone()], 2e-2, || {
        let tape = Tape::new();
        let x = tape.param(&a);
        let y = tape.param(&b);
        let h = x.matmul(&y).layer_norm(&tape.param(&gamma), &tape.param(&beta), 1e-5);
        let scores = h.matmul_nt(&h).softmax_rows();
        let loss = scores.matmul(&h).mul(&h).mean_all();
        loss.backward();
        loss.scalar()
    });
}

#[test]
fn grad_activations() {
    let a = p("a", 2, 4, 6);
    for act in ["relu", "leaky", "sigmoid", "tanh", "gelu"] {
        assert_grads_match(std::slice::from_ref(&a), 2e-2, || {
            let tape = Tape::new();
            let x = tape.param(&a);
            let y = match act {
                "relu" => x.relu(),
                "leaky" => x.leaky_relu(0.2),
                "sigmoid" => x.sigmoid(),
                "tanh" => x.tanh(),
                _ => x.gelu(),
            };
            // square to make the loss sensitive to sign flips
            let loss = y.mul(&y).mean_all();
            loss.backward();
            loss.scalar()
        });
    }
}

#[test]
fn grad_softmax_rows() {
    let a = p("a", 3, 5, 7);
    let w = p("w", 5, 1, 8);
    assert_grads_match(&[a.clone(), w.clone()], 1e-2, || {
        let tape = Tape::new();
        let s = tape.param(&a).softmax_rows();
        let loss = s.matmul(&tape.param(&w)).mean_all();
        loss.backward();
        loss.scalar()
    });
}

#[test]
fn grad_layer_norm() {
    let a = p("a", 3, 6, 9);
    let gamma = p("gamma", 1, 6, 10);
    let beta = p("beta", 1, 6, 11);
    assert_grads_match(&[a.clone(), gamma.clone(), beta.clone()], 2e-2, || {
        let tape = Tape::new();
        let x = tape.param(&a);
        let g = tape.param(&gamma);
        let b = tape.param(&beta);
        let y = x.layer_norm(&g, &b, 1e-5);
        let loss = y.mul(&y).mean_all();
        loss.backward();
        loss.scalar()
    });
}

#[test]
fn grad_cross_entropy() {
    let a = p("a", 4, 6, 12);
    assert_grads_match(std::slice::from_ref(&a), 1e-2, || {
        let tape = Tape::new();
        let loss = tape.param(&a).cross_entropy_logits(&[0, 3, 5, 2]);
        loss.backward();
        loss.scalar()
    });
}

#[test]
fn grad_bce_with_logits() {
    let a = p("a", 2, 5, 13);
    let mut targets = Matrix::zeros(2, 5);
    targets.set(0, 1, 1.0);
    targets.set(1, 4, 1.0);
    assert_grads_match(std::slice::from_ref(&a), 1e-2, || {
        let tape = Tape::new();
        let loss = tape.param(&a).bce_with_logits(&targets);
        loss.backward();
        loss.scalar()
    });
}

#[test]
fn grad_soft_cross_entropy() {
    let a = p("a", 2, 4, 14);
    let soft = Matrix::from_vec(2, 4, vec![0.1, 0.2, 0.3, 0.4, 0.25, 0.25, 0.25, 0.25]);
    assert_grads_match(std::slice::from_ref(&a), 1e-2, || {
        let tape = Tape::new();
        let loss = tape.param(&a).soft_cross_entropy(&soft);
        loss.backward();
        loss.scalar()
    });
}

#[test]
fn grad_shape_ops() {
    let a = p("a", 1, 4, 15);
    let b = p("b", 2, 4, 16);
    assert_grads_match(&[a.clone(), b.clone()], 1e-2, || {
        let tape = Tape::new();
        let x = tape.param(&a);
        let y = tape.param(&b);
        let stacked = Tensor::concat_rows(&[x.repeat_rows(2), y.clone()]); // 4 x 4
        let wide = Tensor::concat_cols(&[stacked.clone(), stacked.transpose()]); // 4 x 8
        let loss = wide.slice_cols(2, 7).slice_rows(1, 4).sum_rows().mean_all();
        loss.backward();
        loss.scalar()
    });
}

#[test]
fn grad_gather_embedding() {
    let table = p("emb", 5, 3, 17);
    let w = p("w", 3, 1, 18);
    assert_grads_match(&[table.clone(), w.clone()], 1e-2, || {
        let tape = Tape::new();
        let x = tape.gather(&table, &[0, 2, 2, 4]);
        let loss = x.matmul(&tape.param(&w)).mul(&x.matmul(&tape.param(&w))).mean_all();
        loss.backward();
        loss.scalar()
    });
}

#[test]
fn grad_gather_rows_scatter_adds() {
    // Duplicate indices must scatter-add into the source row's gradient.
    let a = p("a", 4, 3, 19);
    let w = p("w", 3, 1, 23);
    assert_grads_match(&[a.clone(), w.clone()], 1e-2, || {
        let tape = Tape::new();
        let x = tape.param(&a).gather_rows(&[3, 1, 1, 0]);
        let loss = x.matmul(&tape.param(&w)).mul(&x.matmul(&tape.param(&w))).mean_all();
        loss.backward();
        loss.scalar()
    });
}

#[test]
fn grad_mse_and_means() {
    let a = p("a", 3, 3, 19);
    let target = Matrix::full(3, 3, 0.5);
    assert_grads_match(std::slice::from_ref(&a), 1e-2, || {
        let tape = Tape::new();
        let x = tape.param(&a);
        let loss = x.mse(&target).add(&x.mean_rows().mean_all());
        loss.backward();
        loss.scalar()
    });
}

#[test]
fn grad_attention_like_composite() {
    // A miniature neighbor-attention block (paper Eq. 4-5): scores from a
    // concat + linear + leaky-relu, softmax over neighbors, weighted sum.
    let xt = p("xt", 1, 4, 20);
    let nbrs = p("nbrs", 3, 4, 21);
    let wn = p("wn", 8, 1, 22);
    assert_grads_match(&[xt.clone(), nbrs.clone(), wn.clone()], 2e-2, || {
        let tape = Tape::new();
        let x = tape.param(&xt);
        let nb = tape.param(&nbrs);
        let w = tape.param(&wn);
        let pairs = Tensor::concat_cols(&[x.repeat_rows(3), nb.clone()]); // 3 x 8
        let scores = pairs.matmul(&w).leaky_relu(0.2).transpose(); // 1 x 3
        let alpha = scores.softmax_rows(); // 1 x 3
        let h = alpha.matmul(&nb).sigmoid(); // 1 x 4
        let loss = h.mul(&h).mean_all();
        loss.backward();
        loss.scalar()
    });
}
