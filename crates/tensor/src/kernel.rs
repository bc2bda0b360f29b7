//! The packed GEMM microkernel engine under every matmul variant.
//!
//! One cache-blocked, register-tiled engine serves all three matrix-product
//! shapes the model uses — `A·B` (NN), `Aᵀ·B` (TN, gradient contractions)
//! and `A·Bᵀ` (NT, attention `Q·Kᵀ`). The variants differ **only in packing
//! order**: both operands are repacked into contiguous `MR`-row / `NR`-column
//! micro-panels laid out k-major, after which a single micro-kernel walks
//! every variant identically. The inner loop is written so the
//! autovectorizer turns it into SIMD without any intrinsics crates
//! (std-only): fixed-size `[f32; MR]` / `[f32; NR]` panel slices, fully
//! unrolled `MR x NR` accumulator tile, and — on x86-64 hosts with AVX2+FMA
//! — a `#[target_feature]`-multiversioned copy whose `f32::mul_add` calls
//! compile to `vfmadd` (runtime-dispatched once per process, see
//! [`fma_enabled`]).
//!
//! ## Determinism
//!
//! There is deliberately **no k-blocking**: every output element is one
//! continuous ascending-`k` accumulation starting from `0.0`, fused into the
//! register tile. Consequences, all load-bearing:
//!
//! * The bits of `C[i, j]` depend only on the operand values and the
//!   process-wide FMA mode, so the strided [`gemm_serial`] and pre-packed
//!   [`gemm_packed`] entries give every element the bits [`gemm`] gives it.
//! * The row-sparse fallback (below) skips exact-zero `A` entries but keeps
//!   the same ascending-`k` fused accumulation, so dense and sparse paths
//!   agree bitwise on finite inputs; routing between them is a pure
//!   performance decision made from the operand values alone.
//! * Model shapes keep `k` at a few hundred, so the packed panels live in
//!   L1/L2 and k-blocking would buy nothing; if a future workload needs
//!   `k` in the tens of thousands, add `KC` blocking *and* re-pin the
//!   serving-forward property, which relies on the continuous order.
//!
//! Every entry runs on the calling thread. Serving scales by shards, one
//! forward per shard worker, and training runs single-threaded.
//!
//! ## Sparse fallback
//!
//! A forward that stacks sequences under a block-diagonal attention mask
//! (`TransformerEncoder::forward_masked`; serving attends per sequence
//! through [`gemm_serial`] instead) has a `probs · V` product whose `A`
//! operand is mostly exact zeros (`exp(-inf)`). A packed kernel would
//! happily multiply all of them, so [`gemm`] counts zeros in `A` (NN
//! variant only, one cheap scan) and routes ≥50%-zero operands to a
//! zero-skipping row kernel with the same fused accumulation order.

use std::cell::RefCell;

/// Micro-tile rows: each micro-kernel invocation produces an `MR x NR`
/// block of C held entirely in registers.
pub const MR: usize = 8;
/// Micro-tile columns. 8 f32 lanes = one AVX2 register per accumulator row.
pub const NR: usize = 8;

/// `A` zero-fraction (in halves: `zeros * 2 >= len`) above which the NN
/// variant routes to the zero-skipping row kernel.
const SPARSE_NUMER: usize = 1;
const SPARSE_DENOM: usize = 2;

/// Which matrix product the engine computes. The variant decides packing
/// order only; the micro-kernel is shared.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Variant {
    /// `C = A·B` with `A` stored `m x k`, `B` stored `k x n` (row-major).
    NN,
    /// `C = Aᵀ·B` with `A` stored `k x m` — the backward-pass contraction,
    /// computed without materializing the transpose.
    TN,
    /// `C = A·Bᵀ` with `B` stored `n x k` — the attention-score shape.
    NT,
}

/// The engine's former parallel axes. Every kernel runs on its calling
/// thread; kept for the frozen benchmark until ROADMAP item 2(a) re-points
/// its layer walk.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ParAxis {
    /// The default.
    Auto,
    /// On the calling thread, which is where every kernel runs.
    Serial,
}

/// A no-op: every kernel runs on its calling thread. Kept for the frozen
/// benchmark until ROADMAP item 2(a) re-points its layer walk.
pub fn set_gemm_axis(_axis: ParAxis) {}

/// True when this process's kernels fuse multiply-adds (`vfmadd` via the
/// AVX2+FMA multiversioned engine). Detected once; every kernel in the
/// process — packed or sparse — uses the same mode, so results
/// stay bit-identical within a machine (they legitimately differ across
/// machines with different feature sets, like any change of arithmetic).
#[cfg(target_arch = "x86_64")]
pub fn fma_enabled() -> bool {
    static ON: std::sync::OnceLock<bool> = std::sync::OnceLock::new();
    *ON.get_or_init(|| {
        std::is_x86_feature_detected!("avx2") && std::is_x86_feature_detected!("fma")
    })
}

/// Non-x86 hosts use the portable mul+add kernel.
#[cfg(not(target_arch = "x86_64"))]
pub fn fma_enabled() -> bool {
    false
}

thread_local! {
    /// Per-thread scratch for the packed `A` panels.
    static PACK_A: RefCell<Vec<f32>> = const { RefCell::new(Vec::new()) };
    /// Per-thread scratch for the packed `B` panels.
    static PACK_B: RefCell<Vec<f32>> = const { RefCell::new(Vec::new()) };
}

/// Logical dimensions and length checks for a variant.
fn check_shapes(v: Variant, m: usize, k: usize, n: usize, a: &[f32], b: &[f32], out: &[f32]) {
    let (a_len, b_len) = match v {
        Variant::NN => (m * k, k * n),
        Variant::TN => (k * m, k * n),
        Variant::NT => (m * k, n * k),
    };
    assert_eq!(a.len(), a_len, "gemm {v:?}: A length mismatch for {m}x{k}x{n}");
    assert_eq!(b.len(), b_len, "gemm {v:?}: B length mismatch for {m}x{k}x{n}");
    assert_eq!(out.len(), m * n, "gemm {v:?}: C length mismatch for {m}x{k}x{n}");
}

/// Computes `C = op(A)·op(B)` into `out` (overwriting it) for the logical
/// `m x k · k x n` product selected by `variant`. This is the single entry
/// every matmul in the crate funnels through.
pub fn gemm(variant: Variant, m: usize, k: usize, n: usize, a: &[f32], b: &[f32], out: &mut [f32]) {
    check_shapes(variant, m, k, n, a, b, out);
    if m == 0 || n == 0 {
        return;
    }
    if k == 0 {
        out.fill(0.0);
        return;
    }
    // Sparse route: only the NN variant sees block-diagonal-masked
    // attention probabilities, and only there does zero-skipping pay.
    if variant == Variant::NN && m * k >= 1024 {
        let zeros = a.iter().filter(|v| **v == 0.0).count();
        if zeros * SPARSE_DENOM >= m * k * SPARSE_NUMER {
            sparse_nn(k, n, a, b, out);
            return;
        }
    }
    let (lda, ldb) = dense_strides(variant, m, k, n);
    gemm_serial(variant, m, k, n, a, lda, b, ldb, out, n);
}

/// Row strides of densely stored operands: `(lda, ldb)` for a variant.
fn dense_strides(v: Variant, m: usize, k: usize, n: usize) -> (usize, usize) {
    match v {
        Variant::NN => (k, n),
        Variant::TN => (m, n),
        Variant::NT => (k, k),
    }
}

/// Elements a strided `rows x cols` view with row stride `ld` spans.
fn view_len(rows: usize, cols: usize, ld: usize) -> usize {
    assert!(ld >= cols, "gemm: row stride {ld} is narrower than {cols} columns");
    if rows == 0 {
        0
    } else {
        (rows - 1) * ld + cols
    }
}

/// [`gemm`] for strided views: operands and output are windows into wider
/// row-major buffers (`lda`/`ldb`/`ldc` are their row strides) and the
/// sparse router is skipped. Same packing, same micro-kernel, so every
/// output element carries the bits [`gemm`] would give it. This is the
/// entry the serving forward uses for per-sequence attention blocks.
#[allow(clippy::too_many_arguments)]
pub fn gemm_serial(
    variant: Variant,
    m: usize,
    k: usize,
    n: usize,
    a: &[f32],
    lda: usize,
    b: &[f32],
    ldb: usize,
    out: &mut [f32],
    ldc: usize,
) {
    let (a_need, b_need) = match variant {
        Variant::NN => (view_len(m, k, lda), view_len(k, n, ldb)),
        Variant::TN => (view_len(k, m, lda), view_len(k, n, ldb)),
        Variant::NT => (view_len(m, k, lda), view_len(n, k, ldb)),
    };
    assert!(a.len() >= a_need, "gemm_serial {variant:?}: A view too short for {m}x{k}x{n}");
    assert!(b.len() >= b_need, "gemm_serial {variant:?}: B view too short for {m}x{k}x{n}");
    PACK_B.with(|bbuf| {
        let mut bbuf = bbuf.borrow_mut();
        pack_b(variant, k, ldb, b, n, &mut bbuf);
        drive_packed_b(variant, m, k, n, a, lda, &bbuf, out, ldc);
    });
}

/// A `k x n` right-hand operand already in the micro-kernel's k-major `NR`
/// panels. Weights change once per model version, not once per request, so
/// the serving forward packs them when the version is installed and
/// [`gemm_packed`] skips the per-call `B` pack.
pub struct PackedB {
    k: usize,
    n: usize,
    panels: Vec<f32>,
}

impl PackedB {
    /// Packs a dense row-major `k x n` matrix.
    pub fn pack(k: usize, n: usize, b: &[f32]) -> Self {
        assert_eq!(b.len(), k * n, "PackedB::pack: data length does not match {k}x{n}");
        let mut panels = Vec::new();
        pack_b(Variant::NN, k, n, b, n, &mut panels);
        PackedB { k, n, panels }
    }

    /// Contraction length (rows of the packed matrix).
    pub fn k(&self) -> usize {
        self.k
    }

    /// Output width (columns of the packed matrix).
    pub fn n(&self) -> usize {
        self.n
    }
}

/// `C = A·B` against a pre-packed `B`: `a` is an `m x b.k()` view with row
/// stride `lda`, `out` an `m x b.n()` view with row stride `ldc`.
/// Bit-identical to [`gemm`] on the unpacked operands.
pub fn gemm_packed(m: usize, a: &[f32], lda: usize, b: &PackedB, out: &mut [f32], ldc: usize) {
    assert!(a.len() >= view_len(m, b.k, lda), "gemm_packed: A view too short");
    drive_packed_b(Variant::NN, m, b.k, b.n, a, lda, &b.panels, out, ldc);
}

/// Packs `A` into this thread's scratch and runs the micro-kernel grid over
/// an already packed `B`.
#[allow(clippy::too_many_arguments)]
fn drive_packed_b(
    variant: Variant,
    m: usize,
    k: usize,
    n: usize,
    a: &[f32],
    lda: usize,
    bpack: &[f32],
    out: &mut [f32],
    ldc: usize,
) {
    if m == 0 || n == 0 {
        return;
    }
    if k == 0 {
        for row in 0..m {
            out[row * ldc..row * ldc + n].fill(0.0);
        }
        return;
    }
    PACK_A.with(|abuf| {
        let mut abuf = abuf.borrow_mut();
        pack_a(variant, k, lda, a, m, &mut abuf);
        drive_dispatch(k, ldc, &abuf, bpack, out, m, n);
    });
}

/// Packs the first `rows` logical rows of `A` into k-major `MR`-row
/// micro-panels: `buf[(panel*k + p)*MR + r] = A[panel*MR + r, p]`,
/// zero-padding the tail panel's missing rows. `lda` is the distance
/// between stored rows of `a` (`k` or `m` when dense, larger for a view
/// into a wider buffer).
fn pack_a(v: Variant, k: usize, lda: usize, a: &[f32], rows: usize, buf: &mut Vec<f32>) {
    let panels = rows.div_ceil(MR);
    buf.resize(panels * k * MR, 0.0);
    match v {
        Variant::NN | Variant::NT => {
            // A stored m x k: one source row feeds one packed lane.
            for ip in 0..panels {
                let dst = &mut buf[ip * k * MR..(ip + 1) * k * MR];
                let live = (rows - ip * MR).min(MR);
                for r in 0..live {
                    let src = &a[(ip * MR + r) * lda..(ip * MR + r) * lda + k];
                    for (p, &v) in src.iter().enumerate() {
                        dst[p * MR + r] = v;
                    }
                }
                if live < MR {
                    for p in 0..k {
                        dst[p * MR + live..(p + 1) * MR].fill(0.0);
                    }
                }
            }
        }
        Variant::TN => {
            // A stored k x m: each k-row holds the panel's lane contiguously.
            for ip in 0..panels {
                let dst = &mut buf[ip * k * MR..(ip + 1) * k * MR];
                let live = (rows - ip * MR).min(MR);
                for p in 0..k {
                    let src = &a[p * lda + ip * MR..p * lda + ip * MR + live];
                    dst[p * MR..p * MR + live].copy_from_slice(src);
                    if live < MR {
                        dst[p * MR + live..(p + 1) * MR].fill(0.0);
                    }
                }
            }
        }
    }
}

/// Packs the first `cols` logical columns of `B` into k-major `NR`-column
/// micro-panels: `buf[(panel*k + p)*NR + c] = B[p, panel*NR + c]`,
/// zero-padding the tail panel's missing columns. `ldb` is the distance
/// between stored rows of `b` (`n` or `k` when dense).
fn pack_b(v: Variant, k: usize, ldb: usize, b: &[f32], cols: usize, buf: &mut Vec<f32>) {
    let panels = cols.div_ceil(NR);
    buf.resize(panels * k * NR, 0.0);
    match v {
        Variant::NN | Variant::TN => {
            // B stored k x n: contiguous NR-wide strips per k-row.
            for jp in 0..panels {
                let dst = &mut buf[jp * k * NR..(jp + 1) * k * NR];
                let live = (cols - jp * NR).min(NR);
                for p in 0..k {
                    let src = &b[p * ldb + jp * NR..p * ldb + jp * NR + live];
                    dst[p * NR..p * NR + live].copy_from_slice(src);
                    if live < NR {
                        dst[p * NR + live..(p + 1) * NR].fill(0.0);
                    }
                }
            }
        }
        Variant::NT => {
            // B stored n x k: each logical column is a contiguous source row.
            for jp in 0..panels {
                let dst = &mut buf[jp * k * NR..(jp + 1) * k * NR];
                let live = (cols - jp * NR).min(NR);
                for c in 0..live {
                    let src = &b[(jp * NR + c) * ldb..(jp * NR + c) * ldb + k];
                    for (p, &v) in src.iter().enumerate() {
                        dst[p * NR + c] = v;
                    }
                }
                if live < NR {
                    for p in 0..k {
                        for c in live..NR {
                            dst[p * NR + c] = 0.0;
                        }
                    }
                }
            }
        }
    }
}

/// Runs the micro-kernel grid over packed `A` (`rows` rows) and packed `B`
/// (`cols` columns) into `out` (row stride `ldc`), runtime-dispatching to
/// the FMA build once per call.
fn drive_dispatch(
    k: usize,
    ldc: usize,
    apack: &[f32],
    bpack: &[f32],
    out: &mut [f32],
    rows: usize,
    cols: usize,
) {
    // The micro-kernel stores through a raw pointer; this is the check that
    // keeps every store inside `out`.
    assert!(out.len() >= view_len(rows, cols, ldc), "gemm: C view too short for {rows}x{cols}");
    #[cfg(target_arch = "x86_64")]
    if fma_enabled() {
        // SAFETY: fma_enabled() verified avx2+fma at runtime.
        unsafe { drive_avx2(k, ldc, apack, bpack, out, rows, cols) };
        return;
    }
    drive_impl::<false>(k, ldc, apack, bpack, out, rows, cols);
}

/// AVX2+FMA instantiation of the engine: same source, `mul_add` lowers to
/// `vfmadd` and the autovectorizer gets 256-bit lanes.
///
/// # Safety
/// The CPU must support AVX2 and FMA.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2", enable = "fma")]
unsafe fn drive_avx2(
    k: usize,
    ldc: usize,
    apack: &[f32],
    bpack: &[f32],
    out: &mut [f32],
    rows: usize,
    cols: usize,
) {
    drive_impl::<true>(k, ldc, apack, bpack, out, rows, cols);
}

/// The shared engine body: walk every (row panel, column panel) pair and
/// run the register-tile micro-kernel. `out` holds `rows x cols` at row
/// stride `ldc` ([`drive_dispatch`] checks it).
#[inline(always)]
fn drive_impl<const FMA: bool>(
    k: usize,
    ldc: usize,
    apack: &[f32],
    bpack: &[f32],
    out: &mut [f32],
    rows: usize,
    cols: usize,
) {
    let out = out.as_mut_ptr();
    let row_panels = rows.div_ceil(MR);
    let col_panels = cols.div_ceil(NR);
    for ip in 0..row_panels {
        let live_r = (rows - ip * MR).min(MR);
        let ap = &apack[ip * k * MR..(ip + 1) * k * MR];
        for jp in 0..col_panels {
            let live_c = (cols - jp * NR).min(NR);
            let bp = &bpack[jp * k * NR..(jp + 1) * k * NR];
            // SAFETY: the tile's live rows/cols lie inside `out`, which
            // holds `rows x cols` at row stride `ldc`.
            unsafe {
                let ctile = out.add(ip * MR * ldc + jp * NR);
                micro_tile::<FMA>(k, ap, bp, ctile, ldc, live_r, live_c);
            }
        }
    }
}

/// One `MR x NR` register tile: continuous ascending-k accumulation from
/// zero, then a store of the live sub-tile. The `rows`/`cols` tails reuse
/// the same accumulation (packed lanes are zero-padded) and just store
/// less.
///
/// # Safety
/// `cptr` must point at element `(0, 0)` of a tile whose `rows x cols`
/// live region lies inside the output buffer with row stride `ldc`.
#[inline(always)]
unsafe fn micro_tile<const FMA: bool>(
    k: usize,
    ap: &[f32],
    bp: &[f32],
    cptr: *mut f32,
    ldc: usize,
    rows: usize,
    cols: usize,
) {
    let mut acc = [[0.0f32; NR]; MR];
    for p in 0..k {
        let av: &[f32; MR] = ap[p * MR..p * MR + MR].try_into().expect("MR lane");
        let bv: &[f32; NR] = bp[p * NR..p * NR + NR].try_into().expect("NR lane");
        for r in 0..MR {
            let ar = av[r];
            for c in 0..NR {
                acc[r][c] = if FMA { ar.mul_add(bv[c], acc[r][c]) } else { acc[r][c] + ar * bv[c] };
            }
        }
    }
    if rows == MR && cols == NR {
        for (r, arow) in acc.iter().enumerate() {
            // SAFETY: full tile lies in-bounds per the caller contract.
            unsafe { std::ptr::copy_nonoverlapping(arow.as_ptr(), cptr.add(r * ldc), NR) };
        }
    } else {
        for (r, arow) in acc.iter().enumerate().take(rows) {
            for (c, &v) in arow.iter().enumerate().take(cols) {
                // SAFETY: r < rows, c < cols, in-bounds per caller contract.
                unsafe { *cptr.add(r * ldc + c) = v };
            }
        }
    }
}

/// Zero-skipping NN kernel for mostly-zero `A` (stacked block-diagonal
/// attention probabilities). Same fused accumulation order as the packed
/// engine, so the two agree bitwise on finite inputs.
fn sparse_nn(k: usize, n: usize, a: &[f32], b: &[f32], out: &mut [f32]) {
    #[cfg(target_arch = "x86_64")]
    if fma_enabled() {
        // SAFETY: fma_enabled() verified avx2+fma at runtime.
        unsafe { sparse_rows_avx2(k, n, a, b, out) };
        return;
    }
    sparse_rows_impl::<false>(k, n, a, b, out);
}

/// AVX2+FMA instantiation of the sparse kernel.
///
/// # Safety
/// The CPU must support AVX2 and FMA.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2", enable = "fma")]
unsafe fn sparse_rows_avx2(k: usize, n: usize, a: &[f32], b: &[f32], out: &mut [f32]) {
    sparse_rows_impl::<true>(k, n, a, b, out);
}

#[inline(always)]
fn sparse_rows_impl<const FMA: bool>(k: usize, n: usize, a: &[f32], b: &[f32], out: &mut [f32]) {
    for (a_row, out_row) in a.chunks_exact(k).zip(out.chunks_exact_mut(n)) {
        out_row.fill(0.0);
        for (p, &av) in a_row.iter().enumerate() {
            if av == 0.0 {
                continue;
            }
            let b_row = &b[p * n..(p + 1) * n];
            for (o, &bv) in out_row.iter_mut().zip(b_row) {
                *o = if FMA { av.mul_add(bv, *o) } else { *o + av * bv };
            }
        }
    }
}

/// The retained naive reference: continuous ascending-k mul+add (never
/// fused), one scalar accumulator per element. Kept for the proptest and
/// bench suites to pin the packed engine against; tolerance-based because
/// the engine may fuse.
pub fn naive_gemm(v: Variant, m: usize, k: usize, n: usize, a: &[f32], b: &[f32]) -> Vec<f32> {
    let mut out = vec![0.0f32; m * n];
    check_shapes(v, m, k, n, a, b, &out);
    let at = |i: usize, p: usize| match v {
        Variant::NN | Variant::NT => a[i * k + p],
        Variant::TN => a[p * m + i],
    };
    let bt = |p: usize, j: usize| match v {
        Variant::NN | Variant::TN => b[p * n + j],
        Variant::NT => b[j * k + p],
    };
    for i in 0..m {
        for j in 0..n {
            let mut acc = 0.0f32;
            for p in 0..k {
                acc += at(i, p) * bt(p, j);
            }
            out[i * n + j] = acc;
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fill(len: usize, seed: u64) -> Vec<f32> {
        let mut state = seed | 1;
        (0..len)
            .map(|_| {
                state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                ((state >> 40) & 0xFFFF) as f32 / 65536.0 - 0.5
            })
            .collect()
    }

    fn close(x: f32, y: f32) -> bool {
        (x - y).abs() <= 1e-4 * (1.0 + y.abs())
    }

    #[test]
    fn all_variants_match_naive_at_awkward_shapes() {
        for &(m, k, n) in &[
            (1, 1, 1),
            (1, 7, 1),
            (3, 5, 7),
            (8, 8, 8),
            (9, 9, 9),
            (17, 64, 64),
            (23, 37, 12),
            (136, 16, 136),
        ] {
            for v in [Variant::NN, Variant::TN, Variant::NT] {
                let (a_len, b_len) = match v {
                    Variant::NN => (m * k, k * n),
                    Variant::TN => (k * m, k * n),
                    Variant::NT => (m * k, n * k),
                };
                let a = fill(a_len, 0x1234 ^ (m * 31 + k) as u64);
                let b = fill(b_len, 0x9876 ^ (n * 17 + k) as u64);
                let want = naive_gemm(v, m, k, n, &a, &b);
                let mut got = vec![0.0f32; m * n];
                gemm(v, m, k, n, &a, &b, &mut got);
                for (i, (&x, &y)) in got.iter().zip(&want).enumerate() {
                    assert!(close(x, y), "{v:?} {m}x{k}x{n} idx {i}: {x} vs {y}");
                }
            }
        }
    }

    #[test]
    fn zero_dimensions_are_clean() {
        let mut out = vec![0.0f32; 0];
        gemm(Variant::NN, 0, 4, 0, &[], &[0.0; 0], &mut out);
        let mut out = vec![1.0f32; 6];
        gemm(Variant::NN, 2, 0, 3, &[], &[], &mut out);
        assert_eq!(out, vec![0.0; 6], "k=0 must produce exact zeros");
        let mut out = vec![0.0f32; 0];
        gemm(Variant::NT, 0, 3, 5, &[], &fill(15, 9), &mut out);
    }

    #[test]
    fn sparse_route_is_bitwise_equal_to_packed() {
        // >=50% zeros routes sparse; compare against a packed run of the
        // same operands (`gemm_serial` bypasses the router).
        let (m, k, n) = (40, 32, 24);
        let mut a = fill(m * k, 77);
        for (i, v) in a.iter_mut().enumerate() {
            if i % 2 == 0 {
                *v = 0.0;
            }
        }
        let b = fill(k * n, 78);
        let mut routed = vec![0.0f32; m * n];
        gemm(Variant::NN, m, k, n, &a, &b, &mut routed);

        let mut packed = vec![0.0f32; m * n];
        gemm_serial(Variant::NN, m, k, n, &a, k, &b, n, &mut packed, n);
        let rb: Vec<u32> = routed.iter().map(|v| v.to_bits()).collect();
        let pb: Vec<u32> = packed.iter().map(|v| v.to_bits()).collect();
        assert_eq!(rb, pb, "sparse and packed paths must agree bitwise");
    }

    #[test]
    fn strided_and_prepacked_entries_match_gemm_bitwise() {
        // Windows into wider buffers (the serving forward's fused-QKV and
        // head-concat layouts) against `gemm` on dense copies.
        let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<u32>>();
        for &(m, k, n) in &[(1, 16, 1), (5, 16, 5), (16, 16, 16), (17, 64, 192), (9, 3, 20)] {
            let (lda, ldb, ldc) = (k + 7, n.max(k) + 5, n + 3);
            let a_wide = fill(m * lda, 0xA ^ (m * 7 + k) as u64);
            let a: Vec<f32> = (0..m).flat_map(|i| a_wide[i * lda..i * lda + k].to_vec()).collect();
            for v in [Variant::NN, Variant::NT] {
                let (b_rows, b_cols) = if v == Variant::NN { (k, n) } else { (n, k) };
                let b_wide = fill(b_rows * ldb, 0xB ^ (n * 5 + k) as u64);
                let b: Vec<f32> =
                    (0..b_rows).flat_map(|i| b_wide[i * ldb..i * ldb + b_cols].to_vec()).collect();
                let mut want = vec![0.0f32; m * n];
                gemm(v, m, k, n, &a, &b, &mut want);

                let mut got = vec![f32::NAN; m * ldc];
                gemm_serial(v, m, k, n, &a_wide, lda, &b_wide, ldb, &mut got, ldc);
                for i in 0..m {
                    assert_eq!(bits(&got[i * ldc..i * ldc + n]), bits(&want[i * n..(i + 1) * n]));
                    assert!(got[i * ldc + n..(i + 1) * ldc].iter().all(|x| x.is_nan()), "gap");
                }
                if v == Variant::NN {
                    let packed = PackedB::pack(k, n, &b);
                    assert_eq!((packed.k(), packed.n()), (k, n));
                    let mut got = vec![f32::NAN; m * ldc];
                    gemm_packed(m, &a_wide, lda, &packed, &mut got, ldc);
                    for i in 0..m {
                        assert_eq!(
                            bits(&got[i * ldc..i * ldc + n]),
                            bits(&want[i * n..(i + 1) * n])
                        );
                    }
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "C view too short")]
    fn strided_output_must_hold_every_row() {
        let mut out = vec![0.0f32; 2 * 4 - 1];
        gemm_serial(Variant::NN, 2, 3, 4, &[0.0; 6], 3, &[0.0; 12], 4, &mut out, 4);
    }
}
