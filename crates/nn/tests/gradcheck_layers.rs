//! End-to-end numeric gradient checks through the composite layers.

use intellitag_nn::{Gru, Linear, MultiHeadAttention, TransformerEncoder};
use intellitag_tensor::gradcheck::assert_grads_match;
use intellitag_tensor::{Matrix, ParamSet, Tape};
use rand::rngs::StdRng;
use rand::SeedableRng;

#[test]
fn linear_grads_match_numeric() {
    let mut rng = StdRng::seed_from_u64(0);
    let mut ps = ParamSet::new(1e-3);
    let lin = Linear::new("l", 3, 2, true, &mut ps, &mut rng);
    let x = Matrix::uniform(4, 3, 1.0, &mut rng);
    let params: Vec<_> = ps.params().to_vec();
    assert_grads_match(&params, 1e-2, || {
        let tape = Tape::new();
        let xt = tape.constant(x.clone());
        let y = lin.forward(&tape, &xt);
        let loss = y.mul(&y).mean_all();
        loss.backward();
        loss.scalar()
    });
}

#[test]
fn attention_grads_match_numeric() {
    let mut rng = StdRng::seed_from_u64(1);
    let mut ps = ParamSet::new(1e-3);
    let mha = MultiHeadAttention::new("a", 4, 2, &mut ps, &mut rng);
    let x = Matrix::uniform(3, 4, 1.0, &mut rng);
    let params: Vec<_> = ps.params().to_vec();
    assert_grads_match(&params, 3e-2, || {
        let tape = Tape::new(); // inference tape: dropout off, deterministic
        let xt = tape.constant(x.clone());
        let y = mha.forward(&tape, &xt);
        let loss = y.mul(&y).mean_all();
        loss.backward();
        loss.scalar()
    });
}

#[test]
fn transformer_grads_match_numeric() {
    let mut rng = StdRng::seed_from_u64(2);
    let mut ps = ParamSet::new(1e-3);
    let enc = TransformerEncoder::new("t", 1, 4, 2, &mut ps, &mut rng);
    let x = Matrix::uniform(3, 4, 1.0, &mut rng);
    let params: Vec<_> = ps.params().to_vec();
    assert_grads_match(&params, 5e-2, || {
        let tape = Tape::new();
        let xt = tape.constant(x.clone());
        let y = enc.forward(&tape, &xt);
        let loss = y.mul(&y).mean_all();
        loss.backward();
        loss.scalar()
    });
}

#[test]
fn gru_grads_match_numeric() {
    let mut rng = StdRng::seed_from_u64(3);
    let mut ps = ParamSet::new(1e-3);
    let gru = Gru::new("g", 2, 3, &mut ps, &mut rng);
    let x = Matrix::uniform(4, 2, 1.0, &mut rng);
    let params: Vec<_> = ps.params().to_vec();
    assert_grads_match(&params, 3e-2, || {
        let tape = Tape::new();
        let xt = tape.constant(x.clone());
        let y = gru.forward_last(&tape, &xt);
        let loss = y.mul(&y).mean_all();
        loss.backward();
        loss.scalar()
    });
}

#[test]
fn masked_transformer_grads_match_numeric() {
    // `transformer_grads_match_numeric` through the block-diagonal masked
    // forward of two stacked sequences.
    let mut rng = StdRng::seed_from_u64(4);
    let mut ps = ParamSet::new(1e-3);
    let enc = TransformerEncoder::new("t", 1, 4, 2, &mut ps, &mut rng);
    let x = Matrix::uniform(5, 4, 1.0, &mut rng);
    let mask = Matrix::block_diag_mask(&[3, 2]);
    let params: Vec<_> = ps.params().to_vec();
    assert_grads_match(&params, 5e-2, || {
        let tape = Tape::new();
        let xt = tape.constant(x.clone());
        let mt = tape.constant(mask.clone());
        let y = enc.forward_masked(&tape, &xt, &mt);
        let loss = y.mul(&y).mean_all();
        loss.backward();
        loss.scalar()
    });
}
