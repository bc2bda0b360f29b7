//! The one GELU every path shares: the autograd op's forward and backward
//! and the tape-free serving forward all go through [`gelu_gate`], so train
//! and serve agree bit for bit.
//!
//! The tanh form `0.5·x·(1 + tanh(u))`, `u = √(2/π)·(x + 0.044715·x³)`, is
//! rewritten as `x·σ(2u) = x / (1 + e^(−2u))`: one `exp`, one division, and
//! no cancellation where `tanh → −1`. The `exp` is branch-free — clamp,
//! round-to-nearest by the `1.5·2²³` magic-number add, Cody–Waite `ln 2`
//! split, the Cephes `expf` polynomial, and the exponent written straight
//! into the float's bits — so the loop over a buffer auto-vectorises, where
//! libm's scalar `tanh` cost ~16 ns an element. Only IEEE `+ − × ÷` are used
//! (no `mul_add`), so the bits are the same at every vector width and on
//! every machine.
//!
//! Accuracy: max |error| against the tanh form evaluated in `f64` is below
//! `2e-6` on `[−12, 12]` (pinned by a test; `ulp(12)/2` alone is `4.8e-7`),
//! `gelu(0) = 0` exactly, and for `x ≳ 5.2` the gate is exactly `1`.

/// `√(2/π)`, as the tape op has always rounded it.
const C: f32 = 0.797_884_6;
/// The cubic coefficient of the tanh-form GELU.
const A: f32 = 0.044715;

/// `σ(2u)`: the factor GELU multiplies `x` by, in `(0, 1]` (`0` once
/// `e^(−2u)` overflows, far in the negative tail).
#[inline(always)]
fn gelu_gate(x: f32) -> f32 {
    // e^t with t = −2u, clamped so the exponent field below stays in
    // [1, 255]: the low end is already `1 + e^t == 1`, the high end lands
    // on 2^128 = +inf and the gate on 0.
    let t = (-2.0 * C * (x + A * x * x * x)).clamp(-87.0, 89.0);
    const MAGIC: f32 = 12_582_912.0; // 1.5 * 2^23: adding it rounds to an integer
    const LN2_HI: f32 = 0.693_359_4;
    const LN2_LO: f32 = -2.121_944_4e-4;
    let shifted = t * std::f32::consts::LOG2_E + MAGIC;
    let n = shifted - MAGIC;
    let r = t - n * LN2_HI - n * LN2_LO;
    let mut p = 1.987_569_1e-4f32;
    p = p * r + 1.398_199_9e-3;
    p = p * r + 8.333_452e-3;
    p = p * r + 4.166_579_6e-2;
    p = p * r + 1.666_666_5e-1;
    p = p * r + 0.5;
    p = p * r * r + r + 1.0;
    // `shifted`'s mantissa holds n; move it (biased) into the exponent.
    let two_n =
        f32::from_bits(shifted.to_bits().wrapping_sub(MAGIC.to_bits()).wrapping_add(127) << 23);
    1.0 / (1.0 + p * two_n)
}

#[inline(always)]
fn gelu_slice(xs: &mut [f32]) {
    for x in xs {
        *x *= gelu_gate(*x);
    }
}

/// Same loop, compiled for 256-bit lanes.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn gelu_slice_avx2(xs: &mut [f32]) {
    gelu_slice(xs);
}

/// Replaces every `x` with `gelu(x)`.
pub fn gelu_in_place(xs: &mut [f32]) {
    #[cfg(target_arch = "x86_64")]
    if crate::kernel::fma_enabled() {
        // SAFETY: fma_enabled() verified avx2 at runtime.
        unsafe { gelu_slice_avx2(xs) };
        return;
    }
    gelu_slice(xs);
}

/// Multiplies each `grads[i]` by `gelu'(xs[i])`, the derivative of the same
/// function [`gelu_in_place`] computes:
/// `g + x·g·(1 − g)·2√(2/π)·(1 + 3·0.044715·x²)` with `g` the gate.
pub(crate) fn gelu_backward_in_place(grads: &mut [f32], xs: &[f32]) {
    assert_eq!(grads.len(), xs.len(), "gelu backward length mismatch");
    for (g, &x) in grads.iter_mut().zip(xs) {
        let gate = gelu_gate(x);
        let du = 2.0 * C * (1.0 + 3.0 * A * x * x);
        *g *= gate + x * gate * (1.0 - gate) * du;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn gelu(x: f32) -> f32 {
        let mut v = [x];
        gelu_in_place(&mut v);
        v[0]
    }

    fn reference(x: f32) -> f64 {
        let x = x as f64;
        let u = (2.0 / std::f64::consts::PI).sqrt() * (x + 0.044715 * x * x * x);
        0.5 * x * (1.0 + u.tanh())
    }

    #[test]
    fn tracks_the_f64_tanh_form_within_2e_6() {
        let mut worst = 0.0f64;
        let steps = 24 * 4096;
        for i in 0..=steps {
            let x = -12.0 + 24.0 * i as f32 / steps as f32;
            worst = worst.max((gelu(x) as f64 - reference(x)).abs());
        }
        assert!(worst <= 2e-6, "max abs error {worst:e}");
    }

    #[test]
    fn zero_is_exact_and_tails_are_monotone() {
        assert_eq!(gelu(0.0).to_bits(), 0.0f32.to_bits());
        assert_eq!(gelu(12.0), 12.0);
        assert_eq!(gelu(-12.0), 0.0);
        // Right of the minimum (x ~ -0.75) GELU rises; left of it it falls
        // towards -0 without ever turning back.
        let grid = |lo: f32, hi: f32| (0..=1024).map(move |i| lo + (hi - lo) * i as f32 / 1024.0);
        for (a, b) in grid(1.0, 12.0).zip(grid(1.0, 12.0).skip(1)) {
            assert!(gelu(a) <= gelu(b), "not rising at {a}");
        }
        for (a, b) in grid(-12.0, -1.0).zip(grid(-12.0, -1.0).skip(1)) {
            assert!(gelu(a) >= gelu(b), "not falling at {a}");
            assert!(gelu(a) <= 0.0);
        }
    }

    #[test]
    fn every_lane_width_gives_the_same_bits() {
        // 19 values: two full AVX2 lanes plus a scalar tail, against the
        // plain loop one element at a time.
        let xs: Vec<f32> = (0..19).map(|i| (i as f32 - 9.0) * 0.37).collect();
        let mut wide = xs.clone();
        gelu_in_place(&mut wide);
        for (x, w) in xs.iter().zip(&wide) {
            assert_eq!((x * gelu_gate(*x)).to_bits(), w.to_bits(), "x = {x}");
        }
    }

    #[test]
    fn backward_is_the_derivative_of_forward() {
        for i in -60..=60 {
            let x = i as f32 * 0.1;
            let h = 1e-3f64;
            let numeric = (reference(x + h as f32) - reference(x - h as f32))
                / ((x + h as f32) as f64 - (x - h as f32) as f64);
            let mut g = [1.0f32];
            gelu_backward_in_place(&mut g, &[x]);
            assert!((g[0] as f64 - numeric).abs() < 1e-4, "x = {x}: {} vs {numeric}", g[0]);
        }
    }
}
