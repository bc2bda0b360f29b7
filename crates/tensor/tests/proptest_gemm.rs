//! Property tests for the packed GEMM microkernel engine.
//!
//! Checked at arbitrary `(m, k, n)` — including 0-row, 0-column, `1x1` and
//! non-tile-divisible shapes — for all three variants:
//!
//! 1. **Accuracy**: the packed engine tracks the retained naive reference
//!    ([`intellitag_tensor::naive_gemm`]) within a relative tolerance (the
//!    engine may fuse multiply-adds; the reference never does).
//! 2. **Sparse route**: an NN product whose `A` is at least half exact zeros
//!    takes the zero-skipping kernel, and its bits equal the dense packed
//!    engine's ([`intellitag_tensor::gemm_serial`] skips the router).

use intellitag_tensor::{gemm, gemm_serial, naive_gemm, Matrix, Variant};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Splitmix-style deterministic stream over a seed.
struct Stream(u64);

impl Stream {
    fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        self.0 >> 1
    }

    /// Value in `[0, hi)`.
    fn below(&mut self, hi: u64) -> u64 {
        self.next_u64() % hi
    }

    /// Operand value: exact 0.0 one draw in five (reaches the sparse
    /// route), exact 1.0 one in five, otherwise uniform-ish in [-8, 8).
    fn operand(&mut self) -> f32 {
        match self.below(5) {
            0 => 0.0,
            1 => 1.0,
            _ => ((self.next_u64() >> 8) & 0xFFFF) as f32 / 4096.0 - 8.0,
        }
    }
}

fn lens(v: Variant, m: usize, k: usize, n: usize) -> (usize, usize) {
    match v {
        Variant::NN => (m * k, k * n),
        Variant::TN => (k * m, k * n),
        Variant::NT => (m * k, n * k),
    }
}

fn run_gemm(v: Variant, m: usize, k: usize, n: usize, a: &[f32], b: &[f32]) -> Vec<u32> {
    let mut out = vec![0.0f32; m * n];
    gemm(v, m, k, n, a, b, &mut out);
    out.iter().map(|x| x.to_bits()).collect()
}

/// Bits of the dense packed engine for an NN product (`gemm_serial` never
/// takes the sparse route).
fn dense_nn_bits(m: usize, k: usize, n: usize, a: &[f32], b: &[f32]) -> Vec<u32> {
    let mut out = vec![0.0f32; m * n];
    gemm_serial(Variant::NN, m, k, n, a, k, b, n, &mut out, n);
    out.iter().map(|x| x.to_bits()).collect()
}

#[test]
fn zero_skip_matmul_is_bitwise_the_dense_engine() {
    // A large mostly-zero left operand routes `matmul` to the sparse kernel.
    let mut rng = StdRng::seed_from_u64(13);
    let mut a = Matrix::uniform(64, 16, 1.0, &mut rng);
    for (i, v) in a.data_mut().iter_mut().enumerate() {
        if i % 2 == 0 {
            *v = 0.0;
        }
    }
    let b = Matrix::uniform(16, 24, 1.0, &mut rng);
    let got: Vec<u32> = a.matmul(&b).data().iter().map(|x| x.to_bits()).collect();
    assert_eq!(got, dense_nn_bits(64, 16, 24, a.data(), b.data()), "sparse matmul");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn engine_tracks_naive(seed in any::<u64>()) {
        let mut s = Stream(seed | 1);
        let v = match s.below(3) {
            0 => Variant::NN,
            1 => Variant::TN,
            _ => Variant::NT,
        };
        // Edges on purpose: 0-row, 0-col products, 1x1, and sizes that
        // straddle the 8-wide micro-tile boundary.
        let m = s.below(20) as usize;
        let k = s.below(20) as usize;
        let n = s.below(20) as usize;
        let (a_len, b_len) = lens(v, m, k, n);
        let a: Vec<f32> = (0..a_len).map(|_| s.operand()).collect();
        let b: Vec<f32> = (0..b_len).map(|_| s.operand()).collect();

        let want = naive_gemm(v, m, k, n, &a, &b);
        for (i, (&got_bits, &exp)) in run_gemm(v, m, k, n, &a, &b).iter().zip(&want).enumerate() {
            let got = f32::from_bits(got_bits);
            prop_assert!(
                (got - exp).abs() <= 1e-3 * (1.0 + exp.abs()),
                "{:?} {}x{}x{} idx {}: {} vs naive {}", v, m, k, n, i, got, exp
            );
        }
    }

    #[test]
    fn sparse_route_is_bitwise_the_dense_engine(seed in any::<u64>()) {
        let mut s = Stream(seed | 1);
        // `m * k >= 1024` and at least half of `A` zero: the router's floor.
        let m = 32 + s.below(33) as usize;
        let k = 32 + s.below(17) as usize;
        let n = 1 + s.below(40) as usize;
        let a: Vec<f32> = (0..m * k)
            .map(|i| if i % 2 == 0 || s.below(3) == 0 { 0.0 } else { s.operand() })
            .collect();
        let b: Vec<f32> = (0..k * n).map(|_| s.operand()).collect();
        prop_assert_eq!(
            run_gemm(Variant::NN, m, k, n, &a, &b),
            dense_nn_bits(m, k, n, &a, &b),
            "{}x{}x{}: sparse route drifted from the dense engine", m, k, n
        );
    }

    #[test]
    fn zero_left_operand_products_are_exact_zero(seed in any::<u64>()) {
        let mut s = Stream(seed | 1);
        let v = match s.below(3) {
            0 => Variant::NN,
            1 => Variant::TN,
            _ => Variant::NT,
        };
        let m = 1 + s.below(12) as usize;
        let k = 1 + s.below(12) as usize;
        let n = 1 + s.below(12) as usize;
        let (a_len, b_len) = lens(v, m, k, n);
        let a = vec![0.0f32; a_len];
        let b: Vec<f32> = (0..b_len).map(|_| s.operand()).collect();
        let mut out = vec![1.0f32; m * n];
        gemm(v, m, k, n, &a, &b, &mut out);
        prop_assert!(out.iter().all(|x| *x == 0.0), "all-zero A must yield zero C");
    }
}
