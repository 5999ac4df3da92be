//! Matrix multiplication kernels, in two tiers (DESIGN.md §10):
//!
//! - **Reference kernels** — the cache-friendly `i-k-j` loops the tape
//!   has used since the first training run ([`matmul_into_skip_zeros`]
//!   and the dot loop inside [`matmul_a_bt`]). The graph ops stay on
//!   these: the graph path is the *differential oracle* for the
//!   inference fast path, and an oracle is only worth having if it is
//!   an independent, obviously-correct implementation — if both paths
//!   ran the optimized kernels, a kernel bug would cancel out in the
//!   bitwise compare.
//! - **Optimized kernels** — [`matmul_into`] / [`matmul_a_bt_into`],
//!   the register-tiled, runtime-SIMD-dispatched kernels the inference
//!   fast path runs. Bit-identical to the reference fold by
//!   construction (rules below) and by test
//!   (`tiled_nest_is_bit_identical_to_naive_fold_over_the_edge_matrix`,
//!   plus the end-to-end differential suite in `vsan-core`).
//!
//! ## The blocking rule (DESIGN.md §10)
//!
//! The tiled kernels tile over the output dimensions `i`/`j` only,
//! **never** over the shared dimension `k`: every output element is one
//! scalar accumulator folded over `k` in ascending order, so they are
//! bit-identical to the naive triple loop. Splitting `k` would
//! reassociate the sum and break the bitwise-determinism invariant the
//! serve cache and golden fixtures rest on.
//!
//! One micro-kernel (`fold_tile`, an `R × C` block of accumulators kept
//! in registers for a whole `k` fold) sits in one loop nest, shared by
//! `A·B` and `Aᵀ·B` — they differ only in where `a[i][t]` is stored:
//!
//! - rows go in chunks of `ROW_CHUNK`: a chunk's rows of `a` (25 KB at
//!   `k = 100`) are re-read once per column strip, so they must stay in
//!   L1/L2 across all strips, which a tall `a` as a whole would not;
//! - inside a chunk the column strips are outermost: a strip's `k × C`
//!   panel of `b` (6.4 KB) is fetched once and reused, hot in L1, by all
//!   16 row tiles of the chunk — row tiles outermost would re-stream all
//!   of `b` (the `N`-wide head's `W_g`: megabytes) once per 4 rows;
//! - the `n % NR` remainder is a cascade of narrower strips (8, 4, 2, 1
//!   columns), each run like a full one: all `MR` rows of a tile at once,
//!   lanes across the strip's columns. A lane is still a *different
//!   output element*; a narrower strip just has fewer of them;
//! - the `m % MR` rows that fill no tile run as `1 × C` tiles.
//!
//! ## SIMD and bitwise determinism
//!
//! On x86-64 the optimized kernels are compiled twice — baseline and an
//! AVX2-enabled twin selected once at runtime. The twin is the *same
//! Rust body*: vectorization happens along `j`, where every SIMD lane
//! is a **different output element**, so each element's ascending-`k`
//! scalar fold is untouched. FMA is deliberately **not** enabled —
//! a fused multiply-add rounds once instead of twice and would change
//! the bits; Rust/LLVM never contract `a * b + c` on their own.

use crate::{Result, Shape, Tensor, TensorError};

/// Whether the running CPU supports AVX2, probed once.
#[cfg(target_arch = "x86_64")]
pub(crate) fn avx2_available() -> bool {
    use std::sync::OnceLock;
    static AVX2: OnceLock<bool> = OnceLock::new();
    *AVX2.get_or_init(|| std::arch::is_x86_feature_detected!("avx2"))
}

/// Dense `C = A · B` for rank-2 operands `(m, k) × (k, n) → (m, n)`.
///
/// This is the tape's op: it runs the *reference* kernel
/// ([`matmul_into_skip_zeros`], the original `i-k-j` loop), keeping the
/// graph path an implementation-independent oracle for the fast path's
/// optimized kernels (module header).
pub fn matmul(a: &Tensor, b: &Tensor) -> Result<Tensor> {
    let (m, k) = a.shape().as_2d()?;
    let (kb, n) = b.shape().as_2d()?;
    if k != kb {
        return Err(TensorError::ShapeMismatch {
            lhs: a.dims().to_vec(),
            rhs: b.dims().to_vec(),
            op: "matmul",
        });
    }
    let mut out = Tensor::zeros(&[m, n]);
    matmul_into_skip_zeros(a.data(), b.data(), out.data_mut(), m, k, n);
    Ok(out)
}

/// Fast-tier twin of [`matmul`]: same shapes, same bits, but the
/// register-tiled [`matmul_into`] kernel. The tape dispatches here when
/// its graph was built on [`crate::kernel::KernelTier::Fast`].
pub fn matmul_fast(a: &Tensor, b: &Tensor) -> Result<Tensor> {
    let (m, k) = a.shape().as_2d()?;
    let (kb, n) = b.shape().as_2d()?;
    if k != kb {
        return Err(TensorError::ShapeMismatch {
            lhs: a.dims().to_vec(),
            rhs: b.dims().to_vec(),
            op: "matmul",
        });
    }
    let mut out = Tensor::zeros(&[m, n]);
    matmul_into(a.data(), b.data(), out.data_mut(), m, k, n);
    Ok(out)
}

/// Rows of `A` per register tile: four output rows share each streamed
/// `B` vector, quartering `B` bandwidth.
pub(crate) const MR: usize = 4;
/// Columns per register tile: two 8-lane AVX2 vectors' worth of output
/// elements kept in accumulator registers across the whole `k` fold.
pub(crate) const NR: usize = 16;
/// Rows per cache chunk of the loop nest; a multiple of `MR`, so only a
/// product's last chunk can end in single-row tiles.
const ROW_CHUNK: usize = 64;

/// Raw kernel: `c += a · b` over flat row-major buffers — the inference
/// fast path's dense workhorse (projections, FFN, prediction head). `c`
/// must be zeroed (or hold a partial sum to accumulate into).
///
/// Register-tiled (module header): a tile's accumulators live in
/// registers for the whole `k` fold and are stored once; `k` is never
/// split, so each `c[i][j]` is accumulated in the reference loop's
/// ascending-`k` order. Branch-free on purpose: dense activations gain
/// nothing from a zero test per `a` element — use
/// [`matmul_into_skip_zeros`] where the left operand is genuinely
/// sparse (embedding-side padded rows).
pub fn matmul_into(a: &[f32], b: &[f32], c: &mut [f32], m: usize, k: usize, n: usize) {
    tiled_product::<false>(a, b, c, m, k, n)
}

/// [`tiled_nest`] behind the runtime dispatch: its AVX2 twin where the CPU has one.
fn tiled_product<const AT: bool>(a: &[f32], b: &[f32], c: &mut [f32], m: usize, k: usize, n: usize) {
    #[cfg(target_arch = "x86_64")]
    if avx2_available() {
        // SAFETY: AVX2 support was just verified at runtime.
        unsafe { return tiled_nest_avx2::<AT>(a, b, c, m, k, n) };
    }
    tiled_nest::<AT>(a, b, c, m, k, n)
}

/// [`tiled_nest`] under AVX2 codegen (module header: same source, same bits).
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn tiled_nest_avx2<const AT: bool>(a: &[f32], b: &[f32], c: &mut [f32], m: usize, k: usize, n: usize) {
    tiled_nest::<AT>(a, b, c, m, k, n)
}

/// The nest under the caller's codegen, for bodies themselves compiled twice (`ops::attention`).
#[inline(always)]
pub(crate) fn matmul_into_body(a: &[f32], b: &[f32], c: &mut [f32], m: usize, k: usize, n: usize) {
    tiled_nest::<false>(a, b, c, m, k, n)
}

#[inline(always)]
pub(crate) fn matmul_at_b_into_body(a: &[f32], b: &[f32], c: &mut [f32], m: usize, k: usize, n: usize) {
    tiled_nest::<true>(a, b, c, m, k, n)
}

/// Rows `i..i + R` of a row-major matrix with `lda` columns, walked along
/// columns `ts`: their `R` values at each `t`, ascending. Slicing the rows
/// once, up to `ts.end`, spares the walk a bounds check per element.
#[inline(always)]
pub(crate) fn row_walk<const R: usize>(
    a: &[f32],
    lda: usize,
    i: usize,
    ts: std::ops::Range<usize>,
) -> impl Iterator<Item = [f32; R]> + '_ {
    let mut rows = [a; R];
    for (r, row) in rows.iter_mut().enumerate() {
        *row = &a[(i + r) * lda..][..ts.end];
    }
    ts.map(move |t| rows.map(|row| row[t]))
}

/// The register-tile micro-kernel, the one fold every tiled product in
/// this crate runs: for each `t` that `a` yields, ascending, `acc[r][c]
/// += a(t)[r] · b[t · ldb + col + c]`. Every `acc[r][c]` is one scalar
/// accumulator; the lanes run across `c` only (the blocking rule).
#[inline(always)]
pub(crate) fn fold_tile<const R: usize, const C: usize>(
    acc: &mut [[f32; C]; R],
    a: impl Iterator<Item = [f32; R]>,
    b: &[f32],
    ldb: usize,
    col: usize,
) {
    for (a_t, b_row) in a.zip(b.chunks_exact(ldb)) {
        let b_vec = &b_row[col..col + C];
        for (acc_row, ar) in acc.iter_mut().zip(a_t) {
            for (av, &bv) in acc_row.iter_mut().zip(b_vec) {
                *av += ar * bv;
            }
        }
    }
}

/// One `R × C` tile of `c += a · b` at row `i`, column `j`: load the
/// accumulators, fold the whole of `k` in registers, store once.
#[inline(always)]
fn tile<const AT: bool, const R: usize, const C: usize>(
    a: &[f32],
    lda: usize,
    b: &[f32],
    c: &mut [f32],
    i: usize,
    j: usize,
    n: usize,
) {
    let mut acc = [[0.0f32; C]; R];
    for (r, acc_row) in acc.iter_mut().enumerate() {
        acc_row.copy_from_slice(&c[(i + r) * n + j..][..C]);
    }
    if AT {
        // The tile's `R` values at `t` sit side by side in stored row `t`.
        let a_t = |row: &[f32]| <[f32; R]>::try_from(&row[i..i + R]).expect("a slice of R values");
        fold_tile(&mut acc, a.chunks_exact(lda).map(a_t), b, n, j);
    } else {
        fold_tile(&mut acc, row_walk(a, lda, i, 0..lda), b, n, j);
    }
    for (r, acc_row) in acc.iter().enumerate() {
        c[(i + r) * n + j..][..C].copy_from_slice(acc_row);
    }
}

/// Column strips `from, from + C, …` of one row chunk while they fit in
/// `n`; returns the first column not covered.
#[inline(always)]
fn strips<const AT: bool, const C: usize>(
    a: &[f32],
    lda: usize,
    b: &[f32],
    c: &mut [f32],
    rows: std::ops::Range<usize>,
    from: usize,
    n: usize,
) -> usize {
    let tiled = rows.end - rows.len() % MR;
    let mut j = from;
    while j + C <= n {
        for i in (rows.start..tiled).step_by(MR) {
            tile::<AT, MR, C>(a, lda, b, c, i, j, n);
        }
        for i in tiled..rows.end {
            tile::<AT, 1, C>(a, lda, b, c, i, j, n);
        }
        j += C;
    }
    j
}

/// The loop nest of both tiled products (module header): `c += a · b`,
/// `a` stored `(m, k)` row-major with `lda = k`, or under `AT` `(k, m)`.
#[inline(always)]
fn tiled_nest<const AT: bool>(a: &[f32], b: &[f32], c: &mut [f32], m: usize, k: usize, n: usize) {
    // Checked in release too: `fold_tile` pairs the walk over `a` with the
    // rows of `b` and would quietly stop at the shorter of the two.
    assert_eq!((a.len(), b.len(), c.len()), (m * k, k * n, m * n));
    let lda = if AT { m } else { k };
    for i in (0..m).step_by(ROW_CHUNK) {
        let rows = i..m.min(i + ROW_CHUNK);
        let j = strips::<AT, NR>(a, lda, b, c, rows.clone(), 0, n);
        let j = strips::<AT, 8>(a, lda, b, c, rows.clone(), j, n);
        let j = strips::<AT, 4>(a, lda, b, c, rows.clone(), j, n);
        let j = strips::<AT, 2>(a, lda, b, c, rows.clone(), j, n);
        strips::<AT, 1>(a, lda, b, c, rows, j, n);
    }
}

/// The reference `i-k-j` kernel (and the tape's kernel — see the module
/// header): skips `a` elements that are exactly zero. The skip pays only
/// when the left operand has entire zero *rows or large zero runs* — the
/// embedding-side case (padded positions gather the pinned all-zero row
/// 0) and dropout-masked training activations. On dense data the
/// per-element branch costs more than the skipped work saves (measured
/// in `vsan-bench`'s `zero_skip` group), which is why the fast path's
/// [`matmul_into`] dropped it.
///
/// Skipping is bitwise-equivalent to adding the zero products: the
/// accumulator starts at `+0.0` and `+0.0 + (±0.0) == +0.0`, so a zero
/// contribution never changes any accumulator bit.
pub fn matmul_into_skip_zeros(a: &[f32], b: &[f32], c: &mut [f32], m: usize, k: usize, n: usize) {
    debug_assert_eq!(a.len(), m * k);
    debug_assert_eq!(b.len(), k * n);
    debug_assert_eq!(c.len(), m * n);
    for i in 0..m {
        let a_row = &a[i * k..(i + 1) * k];
        let c_row = &mut c[i * n..(i + 1) * n];
        for (kk, &aik) in a_row.iter().enumerate() {
            if aik == 0.0 {
                continue;
            }
            let b_row = &b[kk * n..(kk + 1) * n];
            for (cv, &bv) in c_row.iter_mut().zip(b_row) {
                *cv += aik * bv;
            }
        }
    }
}

/// `C = Aᵀ · B` for `(k, m) × (k, n) → (m, n)` without materializing `Aᵀ`.
///
/// This is the gradient-of-weights shape (`dW = Xᵀ · dY`), hit every step.
/// Deliberately keeps the zero-skip branch: `X` here is an activation
/// carrying dropout-masked entries and embedding-side padded rows, where
/// whole zero runs are common enough to pay for the test.
pub fn matmul_at_b(a: &Tensor, b: &Tensor) -> Result<Tensor> {
    let (k, m) = a.shape().as_2d()?;
    let (kb, n) = b.shape().as_2d()?;
    if k != kb {
        return Err(TensorError::ShapeMismatch {
            lhs: a.dims().to_vec(),
            rhs: b.dims().to_vec(),
            op: "matmul_at_b",
        });
    }
    let mut out = Tensor::zeros(&[m, n]);
    matmul_at_b_ref_into(a.data(), b.data(), out.data_mut(), m, k, n);
    Ok(out)
}

/// Raw reference kernel behind [`matmul_at_b`]: `c += aᵀ · b` over flat
/// buffers, `(k, m) × (k, n) → (m, n)`, zero-skip on `a`. `c` must be
/// zeroed (or hold a partial sum). The exact loop [`matmul_at_b`] has
/// always run, factored out for callers that own the output buffer.
pub fn matmul_at_b_ref_into(a: &[f32], b: &[f32], c: &mut [f32], m: usize, k: usize, n: usize) {
    debug_assert_eq!(a.len(), k * m);
    debug_assert_eq!(b.len(), k * n);
    debug_assert_eq!(c.len(), m * n);
    // Outer loop over the shared dim keeps both reads sequential.
    for kk in 0..k {
        let a_row = &a[kk * m..(kk + 1) * m];
        let b_row = &b[kk * n..(kk + 1) * n];
        for (i, &av) in a_row.iter().enumerate() {
            if av == 0.0 {
                continue;
            }
            let o_row = &mut c[i * n..(i + 1) * n];
            for (ov, &bv) in o_row.iter_mut().zip(b_row) {
                *ov += av * bv;
            }
        }
    }
}

/// Fast-tier twin of [`matmul_at_b`]: same shapes, same bits, but the
/// register-tiled [`matmul_at_b_into`] kernel.
pub fn matmul_at_b_fast(a: &Tensor, b: &Tensor) -> Result<Tensor> {
    let (k, m) = a.shape().as_2d()?;
    let (kb, n) = b.shape().as_2d()?;
    if k != kb {
        return Err(TensorError::ShapeMismatch {
            lhs: a.dims().to_vec(),
            rhs: b.dims().to_vec(),
            op: "matmul_at_b",
        });
    }
    let mut out = Tensor::zeros(&[m, n]);
    matmul_at_b_into(a.data(), b.data(), out.data_mut(), m, k, n);
    Ok(out)
}

/// `C = A · Bᵀ` for `(m, k) × (n, k) → (m, n)` without materializing `Bᵀ`.
///
/// This is the attention-score shape (`Q · Kᵀ`) and the gradient-of-input
/// shape (`dX = dY · Wᵀ`). A tape op, so it runs the reference dot loop
/// (module header); the fast path's register-blocked twin is
/// [`matmul_a_bt_into`].
pub fn matmul_a_bt(a: &Tensor, b: &Tensor) -> Result<Tensor> {
    let (m, k) = a.shape().as_2d()?;
    let (n, kb) = b.shape().as_2d()?;
    if k != kb {
        return Err(TensorError::ShapeMismatch {
            lhs: a.dims().to_vec(),
            rhs: b.dims().to_vec(),
            op: "matmul_a_bt",
        });
    }
    let mut out = Tensor::zeros(&[m, n]);
    matmul_a_bt_ref_into(a.data(), b.data(), out.data_mut(), m, k, n);
    Ok(out)
}

/// Raw reference kernel behind [`matmul_a_bt`]: `c = a · bᵀ` over flat
/// buffers, `(m, k) × (n, k) → (m, n)`, per-element ascending-`k` dots.
/// Overwrites `c`. The exact loop [`matmul_a_bt`] has always run,
/// factored out for callers that own the output buffer.
pub fn matmul_a_bt_ref_into(a: &[f32], b: &[f32], c: &mut [f32], m: usize, k: usize, n: usize) {
    debug_assert_eq!(a.len(), m * k);
    debug_assert_eq!(b.len(), n * k);
    debug_assert_eq!(c.len(), m * n);
    for i in 0..m {
        let a_row = &a[i * k..(i + 1) * k];
        for j in 0..n {
            let b_row = &b[j * k..(j + 1) * k];
            let mut acc = 0.0f32;
            for (&av, &bv) in a_row.iter().zip(b_row) {
                acc += av * bv;
            }
            c[i * n + j] = acc;
        }
    }
}

/// Fast-tier twin of [`matmul_a_bt`]: same shapes, same bits, but
/// computed as **transpose-then-tiled-matmul** instead of per-element
/// dots.
///
/// `A·Bᵀ` is the one dense shape a SIMD twin cannot accelerate in
/// place: each output is a single dot fold over `k`, and lanes within
/// one fold would reassociate the sum. Materializing `Bᵀ` first (pure
/// data movement — no arithmetic, no bits at risk) turns the product
/// into the plain `A·(Bᵀ)` shape, which [`matmul_into`] tiles and
/// vectorizes along `j`. Each `c[i][j]` is still one scalar accumulator
/// folded over the *same* products `a[i][t]·b[j][t]` in the *same*
/// ascending-`t` order as the reference dot, so the result is
/// bit-identical (enforced by `blocked_kernel_is_bit_identical_to_naive_fold`).
/// This shape is the `dX = dY·Wᵀ` half of every matmul backward, so the
/// transpose (one `(n, k)` copy) is paid once per op against an `m·k·n`
/// fold.
pub fn matmul_a_bt_fast(a: &Tensor, b: &Tensor) -> Result<Tensor> {
    let (m, k) = a.shape().as_2d()?;
    let (n, kb) = b.shape().as_2d()?;
    if k != kb {
        return Err(TensorError::ShapeMismatch {
            lhs: a.dims().to_vec(),
            rhs: b.dims().to_vec(),
            op: "matmul_a_bt",
        });
    }
    let mut bt = vec![0.0f32; k * n];
    transpose_into(b.data(), &mut bt, n, k);
    let mut out = Tensor::zeros(&[m, n]);
    matmul_into(a.data(), &bt, out.data_mut(), m, k, n);
    Ok(out)
}

/// Scratch-threaded twin of [`matmul_a_bt_fast`] over flat buffers:
/// `c = a · bᵀ` via transpose-then-tiled, with the `Bᵀ` scratch supplied
/// by the caller. `c` must be
/// zeroed ([`matmul_into`] accumulates); `bt_scratch` is fully
/// overwritten. Same fold, same bits as [`matmul_a_bt_fast`].
pub fn matmul_a_bt_fast_into(
    a: &[f32],
    b: &[f32],
    c: &mut [f32],
    bt_scratch: &mut [f32],
    m: usize,
    k: usize,
    n: usize,
) {
    debug_assert_eq!(bt_scratch.len(), k * n);
    transpose_into(b, bt_scratch, n, k);
    matmul_into(a, bt_scratch, c, m, k, n);
}

/// Scratch transpose `(r, c) → (c, r)` over flat row-major buffers —
/// the data-movement half of the fast tier's `A·Bᵀ` kernels. Pure
/// copies: it cannot change any result bit, so the twins that call it
/// under AVX2 codegen stay bit-identical by construction.
#[inline(always)]
pub fn transpose_into(src: &[f32], dst: &mut [f32], r: usize, c: usize) {
    debug_assert_eq!(src.len(), r * c);
    debug_assert_eq!(dst.len(), r * c);
    for i in 0..r {
        for (j, &v) in src[i * c..(i + 1) * c].iter().enumerate() {
            dst[j * r + i] = v;
        }
    }
}

/// Raw kernel behind [`matmul_a_bt`]: `c = a · bᵀ` over flat buffers,
/// `(m, k) × (n, k) → (m, n)`. Overwrites `c` (no accumulation).
///
/// Register-blocked over `j`: four `B` rows are dotted against one hot
/// `A` row per pass, with four independent accumulators. Each `c[i][j]`
/// is still a single scalar fold over `k` in ascending order, so the
/// result is bit-identical to the unblocked dot (module header).
pub fn matmul_a_bt_into(a: &[f32], b: &[f32], c: &mut [f32], m: usize, k: usize, n: usize) {
    #[cfg(target_arch = "x86_64")]
    if avx2_available() {
        // SAFETY: AVX2 support was just verified at runtime.
        unsafe { return matmul_a_bt_into_avx2(a, b, c, m, k, n) };
    }
    matmul_a_bt_into_body(a, b, c, m, k, n)
}

/// [`matmul_a_bt_into`]'s body compiled with AVX2 codegen (module
/// header: same source, same bits).
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn matmul_a_bt_into_avx2(a: &[f32], b: &[f32], c: &mut [f32], m: usize, k: usize, n: usize) {
    matmul_a_bt_into_body(a, b, c, m, k, n)
}

#[inline(always)]
pub(crate) fn matmul_a_bt_into_body(a: &[f32], b: &[f32], c: &mut [f32], m: usize, k: usize, n: usize) {
    debug_assert_eq!(a.len(), m * k);
    debug_assert_eq!(b.len(), n * k);
    debug_assert_eq!(c.len(), m * n);
    const NR: usize = 4;
    let blocks = n / NR;
    for i in 0..m {
        let a_row = &a[i * k..(i + 1) * k];
        let o_row = &mut c[i * n..(i + 1) * n];
        for bj in 0..blocks {
            let j = bj * NR;
            let b0 = &b[j * k..(j + 1) * k];
            let b1 = &b[(j + 1) * k..(j + 2) * k];
            let b2 = &b[(j + 2) * k..(j + 3) * k];
            let b3 = &b[(j + 3) * k..(j + 4) * k];
            let (mut s0, mut s1, mut s2, mut s3) = (0.0f32, 0.0f32, 0.0f32, 0.0f32);
            for (t, &av) in a_row.iter().enumerate() {
                s0 += av * b0[t];
                s1 += av * b1[t];
                s2 += av * b2[t];
                s3 += av * b3[t];
            }
            o_row[j] = s0;
            o_row[j + 1] = s1;
            o_row[j + 2] = s2;
            o_row[j + 3] = s3;
        }
        for (j, ov) in o_row.iter_mut().enumerate().skip(blocks * NR) {
            let b_row = &b[j * k..(j + 1) * k];
            let mut acc = 0.0f32;
            for (&av, &bv) in a_row.iter().zip(b_row) {
                acc += av * bv;
            }
            *ov = acc;
        }
    }
}

/// Raw kernel twin of [`matmul_at_b`]: `c += aᵀ · b` over flat buffers,
/// `(k, m) × (k, n) → (m, n)`, without materializing `aᵀ`. `c` must be
/// zeroed (or hold a partial sum to accumulate into).
///
/// This is the gradient-of-weights shape the fast training tier hits
/// every step (`dW = Xᵀ · dY`, plus `dK`/`dV` in the fused attention
/// backward). It runs [`matmul_into`]'s loop nest and tile — only the `a`
/// indexing differs (`a[kk * m + i]` instead of `a[i * k + kk]`) — so
/// each `c[i][j]` is one scalar accumulator folded over `kk` ascending,
/// the reference loop's fold in [`matmul_at_b`]. The reference's zero-skip branch
/// is dropped here, which is bitwise-equivalent: skipped products are
/// exact (±)zeros, and an accumulator that starts at `+0.0` is never
/// changed by adding one (see [`matmul_into_skip_zeros`]).
pub fn matmul_at_b_into(a: &[f32], b: &[f32], c: &mut [f32], m: usize, k: usize, n: usize) {
    tiled_product::<true>(a, b, c, m, k, n)
}

/// Matrix–vector product `(m, k) × (k,) → (m,)`.
pub fn matvec(a: &Tensor, x: &Tensor) -> Result<Tensor> {
    let (m, k) = a.shape().as_2d()?;
    if x.dims() != [k] {
        return Err(TensorError::ShapeMismatch {
            lhs: a.dims().to_vec(),
            rhs: x.dims().to_vec(),
            op: "matvec",
        });
    }
    let mut out = Tensor::zeros(&[m]);
    for i in 0..m {
        let row = &a.data()[i * k..(i + 1) * k];
        out.data_mut()[i] = row.iter().zip(x.data()).map(|(&a, &b)| a * b).sum();
    }
    Ok(out)
}

/// Outer product `(m,) × (n,) → (m, n)`.
pub fn outer(a: &Tensor, b: &Tensor) -> Result<Tensor> {
    if a.rank() != 1 || b.rank() != 1 {
        return Err(TensorError::RankMismatch { expected: 1, got: a.rank().max(b.rank()), op: "outer" });
    }
    let (m, n) = (a.numel(), b.numel());
    let mut data = Vec::with_capacity(m * n);
    for &av in a.data() {
        for &bv in b.data() {
            data.push(av * bv);
        }
    }
    Ok(Tensor::from_vec(data, &[m, n]).expect("sized above"))
}

/// Dot product of two equal-length rank-1 tensors.
pub fn dot(a: &Tensor, b: &Tensor) -> Result<f32> {
    if !Shape::new(a.dims()).same_as(&Shape::new(b.dims())) || a.rank() != 1 {
        return Err(TensorError::ShapeMismatch {
            lhs: a.dims().to_vec(),
            rhs: b.dims().to_vec(),
            op: "dot",
        });
    }
    Ok(a.data().iter().zip(b.data()).map(|(&x, &y)| x * y).sum())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn m(v: Vec<f32>, r: usize, c: usize) -> Tensor {
        Tensor::from_vec(v, &[r, c]).unwrap()
    }

    #[test]
    fn matmul_small_known_result() {
        let a = m(vec![1.0, 2.0, 3.0, 4.0], 2, 2);
        let b = m(vec![5.0, 6.0, 7.0, 8.0], 2, 2);
        let c = matmul(&a, &b).unwrap();
        assert_eq!(c.data(), &[19.0, 22.0, 43.0, 50.0]);
    }

    #[test]
    fn matmul_identity_is_noop() {
        let a = m(vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0], 2, 3);
        let c = matmul(&a, &Tensor::eye(3)).unwrap();
        assert_eq!(c, a);
        let c = matmul(&Tensor::eye(2), &a).unwrap();
        assert_eq!(c, a);
    }

    #[test]
    fn matmul_rejects_bad_inner_dim() {
        let a = m(vec![0.0; 6], 2, 3);
        let b = m(vec![0.0; 8], 2, 4);
        assert!(matmul(&a, &b).is_err());
    }

    #[test]
    fn transposed_variants_agree_with_explicit_transpose() {
        let a = m(vec![1.0, -2.0, 0.5, 3.0, 4.0, -1.0], 3, 2);
        let b = m(vec![2.0, 1.0, 0.0, -1.0, 1.5, 2.5], 3, 2);
        // Aᵀ·B
        let want = matmul(&a.transpose2().unwrap(), &b).unwrap();
        let got = matmul_at_b(&a, &b).unwrap();
        for (w, g) in want.data().iter().zip(got.data()) {
            assert!((w - g).abs() < 1e-6);
        }
        // A·Bᵀ
        let want = matmul(&a, &b.transpose2().unwrap()).unwrap();
        let got = matmul_a_bt(&a, &b).unwrap();
        for (w, g) in want.data().iter().zip(got.data()) {
            assert!((w - g).abs() < 1e-6);
        }
    }

    #[test]
    fn matvec_outer_dot() {
        let a = m(vec![1.0, 2.0, 3.0, 4.0], 2, 2);
        let x = Tensor::from_vec(vec![1.0, -1.0], &[2]).unwrap();
        assert_eq!(matvec(&a, &x).unwrap().data(), &[-1.0, -1.0]);
        let o = outer(&x, &x).unwrap();
        assert_eq!(o.data(), &[1.0, -1.0, -1.0, 1.0]);
        assert_eq!(dot(&x, &x).unwrap(), 2.0);
    }

    #[test]
    fn zero_skip_does_not_change_result() {
        // Rows of zeros (padding) must produce zero rows, same as the naive kernel.
        let a = m(vec![0.0, 0.0, 1.0, 2.0], 2, 2);
        let b = m(vec![3.0, 4.0, 5.0, 6.0], 2, 2);
        let c = matmul(&a, &b).unwrap();
        assert_eq!(c.row(0), &[0.0, 0.0]);
        assert_eq!(c.row(1), &[13.0, 16.0]);
    }

    /// Reference triple loop with the canonical per-element fold order.
    fn naive(a: &[f32], b: &[f32], m: usize, k: usize, n: usize) -> Vec<f32> {
        let mut c = vec![0.0f32; m * n];
        for i in 0..m {
            for j in 0..n {
                let mut acc = 0.0f32;
                for kk in 0..k {
                    acc += a[i * k + kk] * b[kk * n + j];
                }
                c[i * n + j] = acc;
            }
        }
        c
    }

    /// Both tiled products over the whole edge matrix of the loop nest —
    /// every `n % NR` (each cascade width and each combination, with and
    /// without a full strip before it), single-row tiles, both sides of
    /// the row-chunk edge, two chunks plus a remainder — against the naive
    /// ascending-`k` fold, bit for bit, accumulating into a non-zero `c`,
    /// with exact zeros planted in `a`. Each case runs through both
    /// codegen twins: the baseline body is inlined into this test, the
    /// dispatcher reaches the AVX2 twin where the host has one.
    #[test]
    fn tiled_nest_is_bit_identical_to_naive_fold_over_the_edge_matrix() {
        use crate::init;
        use rand::rngs::StdRng;
        use rand::SeedableRng;
        // scripts/verify.sh exports this on AVX2 hosts: the dispatcher
        // side of the comparison must not quietly be the baseline body.
        if std::env::var("VSAN_REQUIRE_AVX2").is_ok_and(|v| v == "1") {
            assert!(crate::kernel::avx2_supported(), "VSAN_REQUIRE_AVX2=1 but AVX2 dispatch is unavailable");
        }
        let mut rng = StdRng::seed_from_u64(29);
        let assert_bits = |tag: &str, want: &[f32], got: &[f32]| {
            for (idx, (w, g)) in want.iter().zip(got).enumerate() {
                assert_eq!(w.to_bits(), g.to_bits(), "{tag} element {idx}: want {w}, got {g}");
            }
        };
        for m_ in [1, 3, MR, 5, ROW_CHUNK - 1, ROW_CHUNK, ROW_CHUNK + 1, 2 * ROW_CHUNK + 2] {
            for k_ in [1, 7, 100] {
                for n_ in 1..=2 * NR {
                    let tag = format!("({m_},{k_},{n_})");
                    let mut a = init::randn(&mut rng, &[m_, k_], 0.0, 1.0);
                    for v in a.data_mut().iter_mut().step_by(3) {
                        *v = 0.0;
                    }
                    let at = a.transpose2().unwrap();
                    let b = init::randn(&mut rng, &[k_, n_], 0.0, 1.0);
                    let c0 = init::randn(&mut rng, &[m_, n_], 0.0, 1.0);
                    let mut want = c0.data().to_vec();
                    for i in 0..m_ {
                        for j in 0..n_ {
                            for kk in 0..k_ {
                                want[i * n_ + j] += a.data()[i * k_ + kk] * b.data()[kk * n_ + j];
                            }
                        }
                    }
                    type Kernel = fn(&[f32], &[f32], &mut [f32], usize, usize, usize);
                    let kernels: [(&str, Kernel, &Tensor); 4] = [
                        ("matmul_into baseline body", matmul_into_body, &a),
                        ("matmul_into dispatcher", matmul_into, &a),
                        ("matmul_at_b_into baseline body", matmul_at_b_into_body, &at),
                        ("matmul_at_b_into dispatcher", matmul_at_b_into, &at),
                    ];
                    for (name, kernel, lhs) in kernels {
                        let mut got = c0.data().to_vec();
                        kernel(lhs.data(), b.data(), &mut got, m_, k_, n_);
                        assert_bits(&format!("{tag} {name}"), &want, &got);
                    }
                    // The tensor twins start from zeros: the same fold
                    // without the initial `c`.
                    let want = naive(a.data(), b.data(), m_, k_, n_);
                    assert_bits(&format!("{tag} matmul_fast"), &want, matmul_fast(&a, &b).unwrap().data());
                    assert_bits(&format!("{tag} matmul_at_b_fast"), &want, matmul_at_b_fast(&at, &b).unwrap().data());
                    let bt = b.transpose2().unwrap();
                    assert_bits(&format!("{tag} matmul_a_bt_fast"), &want, matmul_a_bt_fast(&a, &bt).unwrap().data());
                }
            }
        }
    }

    #[test]
    fn blocked_kernel_is_bit_identical_to_naive_fold() {
        use crate::init;
        use rand::rngs::StdRng;
        use rand::SeedableRng;
        let mut rng = StdRng::seed_from_u64(11);
        // Remainder rows/cols on both sides of the MR/NR tile edges,
        // plus exact-zero entries (the skip-kernel equivalence).
        for (m_, k_, n_) in [
            (1, 3, 5),
            (4, 8, 4),
            (7, 5, 9),
            (13, 16, 6),
            (4, 8, 16),
            (5, 7, 17),
            (9, 4, 33),
            (8, 16, 48),
            (3, 96, 100),
        ] {
            let mut a = init::randn(&mut rng, &[m_, k_], 0.0, 1.0);
            for v in a.data_mut().iter_mut().step_by(3) {
                *v = 0.0;
            }
            let b = init::randn(&mut rng, &[k_, n_], 0.0, 1.0);
            let want = naive(a.data(), b.data(), m_, k_, n_);

            let mut dense = vec![0.0f32; m_ * n_];
            matmul_into(a.data(), b.data(), &mut dense, m_, k_, n_);
            let mut skip = vec![0.0f32; m_ * n_];
            matmul_into_skip_zeros(a.data(), b.data(), &mut skip, m_, k_, n_);
            for ((w, d), s) in want.iter().zip(&dense).zip(&skip) {
                assert_eq!(w.to_bits(), d.to_bits(), "blocked ({m_},{k_},{n_})");
                assert_eq!(w.to_bits(), s.to_bits(), "skip ({m_},{k_},{n_})");
            }

            // A·Bᵀ against the same fold: naive over b transposed.
            let bt = init::randn(&mut rng, &[n_, k_], 0.0, 1.0);
            let mut want_bt = vec![0.0f32; m_ * n_];
            for i in 0..m_ {
                for j in 0..n_ {
                    let mut acc = 0.0f32;
                    for t in 0..k_ {
                        acc += a.data()[i * k_ + t] * bt.data()[j * k_ + t];
                    }
                    want_bt[i * n_ + j] = acc;
                }
            }
            let mut got_bt = vec![0.0f32; m_ * n_];
            matmul_a_bt_into(a.data(), bt.data(), &mut got_bt, m_, k_, n_);
            for (w, g) in want_bt.iter().zip(&got_bt) {
                assert_eq!(w.to_bits(), g.to_bits(), "a_bt ({m_},{k_},{n_})");
            }

            // Aᵀ·B against the reference kernel's ascending-kk fold,
            // with zero entries exercising the skip-vs-dense equivalence
            // (a is (k_, m_) here: the shared dim leads).
            let mut at = init::randn(&mut rng, &[k_, m_], 0.0, 1.0);
            for v in at.data_mut().iter_mut().step_by(3) {
                *v = 0.0;
            }
            let b2 = init::randn(&mut rng, &[k_, n_], 0.0, 1.0);
            let want_at = matmul_at_b(&at, &b2).unwrap();
            let mut got_at = vec![0.0f32; m_ * n_];
            matmul_at_b_into(at.data(), b2.data(), &mut got_at, m_, k_, n_);
            for (w, g) in want_at.data().iter().zip(&got_at) {
                assert_eq!(w.to_bits(), g.to_bits(), "at_b ({m_},{k_},{n_})");
            }

            // The tensor-level fast twins run the tiled kernels through
            // the same shape checks as the tape ops: same bits.
            let fast = matmul_fast(&a, &b).unwrap();
            for (w, g) in want.iter().zip(fast.data()) {
                assert_eq!(w.to_bits(), g.to_bits(), "matmul_fast ({m_},{k_},{n_})");
            }
            let fast = matmul_a_bt_fast(&a, &bt).unwrap();
            for (w, g) in want_bt.iter().zip(fast.data()) {
                assert_eq!(w.to_bits(), g.to_bits(), "a_bt_fast ({m_},{k_},{n_})");
            }
            let fast = matmul_at_b_fast(&at, &b2).unwrap();
            for (w, g) in want_at.data().iter().zip(fast.data()) {
                assert_eq!(w.to_bits(), g.to_bits(), "at_b_fast ({m_},{k_},{n_})");
            }
        }
    }
}
