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
//!   process-wide FMA mode — not on how rows or columns were partitioned.
//!   Both parallel axes (row panels via [`crate::pool::par_tiles`] over MR
//!   blocks, column panels over NR blocks) and every pool size produce
//!   byte-identical output *by construction*.
//! * The row-sparse fallback (below) skips exact-zero `A` entries but keeps
//!   the same ascending-`k` fused accumulation, so dense and sparse paths
//!   agree bitwise on finite inputs; routing between them is a pure
//!   performance decision made from the operand values alone.
//! * Model shapes keep `k` at a few hundred, so the packed panels live in
//!   L1/L2 and k-blocking would buy nothing; if a future workload needs
//!   `k` in the tens of thousands, add `KC` blocking *and* re-pin the
//!   stacked-attention parity suite, which relies on the continuous order.
//!
//! ## Sparse fallback
//!
//! A forward that stacks sequences under a block-diagonal attention mask
//! (`TransformerEncoder::forward_masked`; serving attends per sequence
//! through [`gemm_serial`] instead) has a `probs · V` product whose `A`
//! operand is mostly exact zeros (`exp(-inf)`). A packed kernel would
//! happily multiply all of them, so [`gemm`] counts zeros in `A` (NN
//! variant only, one cheap scan) and routes ≥50%-zero operands to a
//! row-parallel zero-skipping kernel with the same fused accumulation order.
//!
//! ## Shape-aware parallel threshold
//!
//! Small-`k` products (attention `Q·Kᵀ` at `k = d/heads`) are
//! bandwidth-bound: each output element costs only `k` multiply-adds but
//! still moves whole panel cache lines, so the fork/join overhead needs a
//! larger product to amortize. [`gemm_par_threshold`] scales the pool's
//! base [`crate::pool::par_threshold`] up for `k < 32`; the benchmark's
//! `tensor.gemm.gflops.attn_qkt` metric tracks that shape.

use std::cell::RefCell;

use crate::pool;

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

/// Test/bench override for the engine's parallel axis.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ParAxis {
    /// Shape-aware automatic choice (the default).
    Auto,
    /// Never dispatch to the pool.
    Serial,
    /// Force the row-panel axis (falls back to serial below 2 row panels).
    Rows,
    /// Force the column-panel axis (falls back to serial below 2 column
    /// panels; the sparse fallback has no column axis and runs serial).
    Cols,
}

use std::sync::atomic::{AtomicU8, Ordering};

static AXIS_OVERRIDE: AtomicU8 = AtomicU8::new(0);

/// Forces the engine's parallel axis — a test/bench knob. Results are
/// bit-identical across axes by construction, so this only changes speed.
pub fn set_gemm_axis(axis: ParAxis) {
    let v = match axis {
        ParAxis::Auto => 0,
        ParAxis::Serial => 1,
        ParAxis::Rows => 2,
        ParAxis::Cols => 3,
    };
    AXIS_OVERRIDE.store(v, Ordering::SeqCst);
}

/// The current axis override (default [`ParAxis::Auto`]).
pub fn gemm_axis() -> ParAxis {
    match AXIS_OVERRIDE.load(Ordering::SeqCst) {
        1 => ParAxis::Serial,
        2 => ParAxis::Rows,
        3 => ParAxis::Cols,
        _ => ParAxis::Auto,
    }
}

/// True when this process's kernels fuse multiply-adds (`vfmadd` via the
/// AVX2+FMA multiversioned engine). Detected once; every kernel in the
/// process — packed, sparse, either axis — uses the same mode, so results
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

/// The shape-aware work floor (in multiply-adds) a product must clear
/// before [`gemm`] dispatches to the pool. Small-`k` shapes are
/// bandwidth-bound, so their floor is three base thresholds.
pub fn gemm_par_threshold(_m: usize, k: usize, _n: usize) -> usize {
    let base = pool::par_threshold();
    if k < 32 {
        base.saturating_mul(3)
    } else {
        base
    }
}

/// The execution plan [`gemm`] chose for a shape — exposed so benches can
/// report which axis a shape exercises.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Plan {
    /// Entirely on the calling thread.
    Serial,
    /// Row-panel parallel (MR-row blocks across the pool).
    Rows,
    /// Column-panel parallel (NR-column blocks across the pool).
    Cols,
}

/// Plan selection. Deterministic in the shape and knobs; never depends on
/// which thread calls or on operand values (the sparse route is decided
/// separately and only narrows Cols to Serial).
pub fn gemm_plan(m: usize, k: usize, n: usize) -> Plan {
    let threads = pool::pool_threads();
    let row_units = m.div_ceil(MR);
    let col_units = n.div_ceil(NR);
    match gemm_axis() {
        ParAxis::Serial => Plan::Serial,
        ParAxis::Rows => {
            if threads > 1 && row_units >= 2 {
                Plan::Rows
            } else {
                Plan::Serial
            }
        }
        ParAxis::Cols => {
            if threads > 1 && col_units >= 2 {
                Plan::Cols
            } else {
                Plan::Serial
            }
        }
        ParAxis::Auto => {
            if threads <= 1 || m * k * n < gemm_par_threshold(m, k, n) {
                return Plan::Serial;
            }
            // Prefer rows when they give every thread at least two panels
            // (better balance and each worker streams the shared B pack
            // once); otherwise columns when they offer strictly more
            // granularity — the tall-skinny / short-wide rescue axis.
            if row_units >= 2 * threads {
                Plan::Rows
            } else if col_units >= 2 * threads && col_units > row_units {
                Plan::Cols
            } else if row_units >= col_units && row_units >= 2 {
                Plan::Rows
            } else if col_units >= 2 {
                Plan::Cols
            } else if row_units >= 2 {
                Plan::Rows
            } else {
                Plan::Serial
            }
        }
    }
}

thread_local! {
    /// Per-thread scratch for the pack each worker builds privately
    /// (A panels on the row axis, B panels on the column axis).
    static PACK_PRIVATE: RefCell<Vec<f32>> = const { RefCell::new(Vec::new()) };
    /// Per-thread scratch for the pack the caller builds once and shares
    /// read-only with every chunk.
    static PACK_SHARED: RefCell<Vec<f32>> = const { RefCell::new(Vec::new()) };
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
            sparse_nn(k, n, a, b, out, (m * k - zeros) * n);
            return;
        }
    }
    let (lda, ldb) = dense_strides(variant, m, k, n);
    let plan = gemm_plan(m, k, n);
    match plan {
        Plan::Serial => gemm_serial(variant, m, k, n, a, lda, b, ldb, out, n),
        Plan::Rows => PACK_SHARED.with(|shared| {
            let mut bbuf = shared.borrow_mut();
            pack_b(variant, k, ldb, b, 0, n, &mut bbuf);
            let bref: &[f32] = &bbuf;
            let out_base = out.as_mut_ptr() as usize;
            let row_units = m.div_ceil(MR);
            // Plan already gated on the shape-aware threshold; pass MAX so
            // the pool doesn't re-apply the base threshold (nested-job and
            // pool-size-1 fallbacks still hold).
            pool::par_tiles(row_units, usize::MAX, |plo, phi| {
                let i0 = plo * MR;
                let rows = (phi * MR).min(m) - i0;
                PACK_PRIVATE.with(|private| {
                    let mut abuf = private.borrow_mut();
                    pack_a(variant, k, lda, a, i0, rows, &mut abuf);
                    // SAFETY: chunks own disjoint row ranges of `out`;
                    // every element is written by exactly one thread (same
                    // argument as split_at_mut).
                    drive_dispatch(k, n, &abuf, bref, out_base, i0, rows, 0, n);
                });
            });
        }),
        Plan::Cols => PACK_SHARED.with(|shared| {
            let mut abuf = shared.borrow_mut();
            pack_a(variant, k, lda, a, 0, m, &mut abuf);
            let aref: &[f32] = &abuf;
            let out_base = out.as_mut_ptr() as usize;
            let col_units = n.div_ceil(NR);
            pool::par_tiles(col_units, usize::MAX, |plo, phi| {
                let j0 = plo * NR;
                let cols = (phi * NR).min(n) - j0;
                PACK_PRIVATE.with(|private| {
                    let mut bbuf = private.borrow_mut();
                    pack_b(variant, k, ldb, b, j0, cols, &mut bbuf);
                    // SAFETY: chunks own disjoint column ranges of `out`
                    // (interleaved in memory but element-disjoint).
                    drive_dispatch(k, n, aref, &bbuf, out_base, 0, m, j0, cols);
                });
            });
        }),
    }
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

/// [`gemm`] for strided views, entirely on the calling thread: operands and
/// output are windows into wider row-major buffers (`lda`/`ldb`/`ldc` are
/// their row strides), nothing is dispatched to the pool and the sparse
/// router is skipped. Same packing, same micro-kernel, so every output
/// element carries the bits [`gemm`] would give it. This is the entry the
/// serving forward uses: shards are serving's parallel axis, and a
/// per-sequence attention block is far below any fork/join break-even.
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
    PACK_SHARED.with(|shared| {
        let mut bbuf = shared.borrow_mut();
        pack_b(variant, k, ldb, b, 0, n, &mut bbuf);
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
        pack_b(Variant::NN, k, n, b, 0, n, &mut panels);
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

/// `C = A·B` against a pre-packed `B`, on the calling thread: `a` is an
/// `m x b.k()` view with row stride `lda`, `out` an `m x b.n()` view with
/// row stride `ldc`. Bit-identical to [`gemm`] on the unpacked operands.
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
    // The micro-kernel stores through a raw pointer; this is the check that
    // keeps every store inside `out`.
    assert!(out.len() >= view_len(m, n, ldc), "gemm: C view too short for {m}x{n}");
    if m == 0 || n == 0 {
        return;
    }
    if k == 0 {
        for row in 0..m {
            out[row * ldc..row * ldc + n].fill(0.0);
        }
        return;
    }
    PACK_PRIVATE.with(|private| {
        let mut abuf = private.borrow_mut();
        pack_a(variant, k, lda, a, 0, m, &mut abuf);
        drive_dispatch(k, ldc, &abuf, bpack, out.as_mut_ptr() as usize, 0, m, 0, n);
    });
}

/// Packs logical rows `[i0, i0+rows)` of `A` into k-major `MR`-row
/// micro-panels: `buf[(panel*k + p)*MR + r] = A[i0 + panel*MR + r, p]`,
/// zero-padding the tail panel's missing rows. `lda` is the distance
/// between stored rows of `a` (`k` or `m` when dense, larger for a view
/// into a wider buffer).
fn pack_a(v: Variant, k: usize, lda: usize, a: &[f32], i0: usize, rows: usize, buf: &mut Vec<f32>) {
    let panels = rows.div_ceil(MR);
    buf.resize(panels * k * MR, 0.0);
    match v {
        Variant::NN | Variant::NT => {
            // A stored m x k: one source row feeds one packed lane.
            for ip in 0..panels {
                let dst = &mut buf[ip * k * MR..(ip + 1) * k * MR];
                let live = (rows - ip * MR).min(MR);
                for r in 0..live {
                    let src = &a[(i0 + ip * MR + r) * lda..(i0 + ip * MR + r) * lda + k];
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
                    let src = &a[p * lda + i0 + ip * MR..p * lda + i0 + ip * MR + live];
                    dst[p * MR..p * MR + live].copy_from_slice(src);
                    if live < MR {
                        dst[p * MR + live..(p + 1) * MR].fill(0.0);
                    }
                }
            }
        }
    }
}

/// Packs logical columns `[j0, j0+cols)` of `B` into k-major `NR`-column
/// micro-panels: `buf[(panel*k + p)*NR + c] = B[p, j0 + panel*NR + c]`,
/// zero-padding the tail panel's missing columns. `ldb` is the distance
/// between stored rows of `b` (`n` or `k` when dense).
fn pack_b(v: Variant, k: usize, ldb: usize, b: &[f32], j0: usize, cols: usize, buf: &mut Vec<f32>) {
    let panels = cols.div_ceil(NR);
    buf.resize(panels * k * NR, 0.0);
    match v {
        Variant::NN | Variant::TN => {
            // B stored k x n: contiguous NR-wide strips per k-row.
            for jp in 0..panels {
                let dst = &mut buf[jp * k * NR..(jp + 1) * k * NR];
                let live = (cols - jp * NR).min(NR);
                for p in 0..k {
                    let src = &b[p * ldb + j0 + jp * NR..p * ldb + j0 + jp * NR + live];
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
                    let src = &b[(j0 + jp * NR + c) * ldb..(j0 + jp * NR + c) * ldb + k];
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

/// Runs the micro-kernel grid for one packed row range × packed column
/// range, runtime-dispatching to the FMA build once per chunk.
#[allow(clippy::too_many_arguments)]
fn drive_dispatch(
    k: usize,
    ldc: usize,
    apack: &[f32],
    bpack: &[f32],
    out_base: usize,
    i0: usize,
    rows: usize,
    j0: usize,
    cols: usize,
) {
    #[cfg(target_arch = "x86_64")]
    if fma_enabled() {
        // SAFETY: fma_enabled() verified avx2+fma at runtime.
        unsafe { drive_avx2(k, ldc, apack, bpack, out_base, i0, rows, j0, cols) };
        return;
    }
    drive_impl::<false>(k, ldc, apack, bpack, out_base, i0, rows, j0, cols);
}

/// AVX2+FMA instantiation of the engine: same source, `mul_add` lowers to
/// `vfmadd` and the autovectorizer gets 256-bit lanes.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2", enable = "fma")]
#[allow(clippy::too_many_arguments)]
unsafe fn drive_avx2(
    k: usize,
    ldc: usize,
    apack: &[f32],
    bpack: &[f32],
    out_base: usize,
    i0: usize,
    rows: usize,
    j0: usize,
    cols: usize,
) {
    drive_impl::<true>(k, ldc, apack, bpack, out_base, i0, rows, j0, cols);
}

/// The shared engine body: walk every (row panel, column panel) pair and
/// run the register-tile micro-kernel.
#[inline(always)]
#[allow(clippy::too_many_arguments)]
fn drive_impl<const FMA: bool>(
    k: usize,
    ldc: usize,
    apack: &[f32],
    bpack: &[f32],
    out_base: usize,
    i0: usize,
    rows: usize,
    j0: usize,
    cols: usize,
) {
    let out = out_base as *mut f32;
    let row_panels = rows.div_ceil(MR);
    let col_panels = cols.div_ceil(NR);
    for ip in 0..row_panels {
        let live_r = (rows - ip * MR).min(MR);
        let ap = &apack[ip * k * MR..(ip + 1) * k * MR];
        for jp in 0..col_panels {
            let live_c = (cols - jp * NR).min(NR);
            let bp = &bpack[jp * k * NR..(jp + 1) * k * NR];
            // SAFETY: the tile's rows/cols lie inside this chunk's disjoint
            // region of the output (row stride `ldc`).
            unsafe {
                let ctile = out.add((i0 + ip * MR) * ldc + j0 + jp * NR);
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

/// Row-parallel zero-skipping NN kernel for mostly-zero `A` (stacked
/// block-diagonal attention probabilities). Same fused accumulation order
/// as the packed engine, so the two agree bitwise on finite inputs.
fn sparse_nn(k: usize, n: usize, a: &[f32], b: &[f32], out: &mut [f32], work: usize) {
    // The sparse kernel has no column axis; forced-Cols runs serial (bits
    // are identical either way — that is the engine's whole guarantee).
    let work = match gemm_axis() {
        ParAxis::Serial | ParAxis::Cols => 0,
        ParAxis::Rows => usize::MAX,
        ParAxis::Auto => work,
    };
    pool::par_rows_mut(out, n, work, |i0, chunk| {
        #[cfg(target_arch = "x86_64")]
        if fma_enabled() {
            // SAFETY: fma_enabled() verified avx2+fma at runtime.
            unsafe { sparse_rows_avx2(i0, chunk, k, n, a, b) };
            return;
        }
        sparse_rows_impl::<false>(i0, chunk, k, n, a, b);
    });
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2", enable = "fma")]
unsafe fn sparse_rows_avx2(i0: usize, chunk: &mut [f32], k: usize, n: usize, a: &[f32], b: &[f32]) {
    sparse_rows_impl::<true>(i0, chunk, k, n, a, b);
}

#[inline(always)]
fn sparse_rows_impl<const FMA: bool>(
    i0: usize,
    chunk: &mut [f32],
    k: usize,
    n: usize,
    a: &[f32],
    b: &[f32],
) {
    for (d, out_row) in chunk.chunks_exact_mut(n).enumerate() {
        out_row.fill(0.0);
        let a_row = &a[(i0 + d) * k..(i0 + d) * k + k];
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
        // >=50% zeros routes sparse; compare against a direct packed run of
        // the same operands (internal call, bypassing the router).
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
        PACK_SHARED.with(|shared| {
            let mut bbuf = shared.borrow_mut();
            pack_b(Variant::NN, k, n, &b, 0, n, &mut bbuf);
            PACK_PRIVATE.with(|private| {
                let mut abuf = private.borrow_mut();
                pack_a(Variant::NN, k, k, &a, 0, m, &mut abuf);
                drive_dispatch(k, n, &abuf, &bbuf, packed.as_mut_ptr() as usize, 0, m, 0, n);
            });
        });
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

    #[test]
    fn small_k_threshold_is_raised() {
        let base = pool::par_threshold();
        assert_eq!(gemm_par_threshold(136, 16, 136), base * 3);
        assert_eq!(gemm_par_threshold(136, 64, 136), base);
    }

    #[test]
    fn axis_override_roundtrip() {
        for axis in [ParAxis::Rows, ParAxis::Cols, ParAxis::Serial, ParAxis::Auto] {
            set_gemm_axis(axis);
            assert_eq!(gemm_axis(), axis);
        }
        set_gemm_axis(ParAxis::Auto);
    }
}
