//! Matrix multiplication kernels, in two tiers (DESIGN.md §10):
//!
//! - **Reference kernels** — [`mod@reference`]: the cache-friendly `i-k-j`
//!   loops and the per-element dot the tape has used since the first
//!   training run. They stay unoptimized: the reference tier is the
//!   *differential oracle* for the tiled kernels, and an oracle is only
//!   worth having if it is an independent, obviously-correct
//!   implementation — if both tiers ran the optimized kernels, a kernel
//!   bug would cancel out in the bitwise compare.
//! - **Optimized kernels** — [`matmul_into`] / [`matmul_a_bt_into`] /
//!   [`matmul_at_b_into`], the register-tiled, runtime-SIMD-dispatched
//!   kernels the inference pass and the fast training tier run.
//!   Bit-identical to the reference fold by construction (rules below)
//!   and by test
//!   (`tiled_nest_is_bit_identical_to_naive_fold_over_the_edge_matrix`,
//!   plus the end-to-end differential suite in `vsan-core`).
//!
//! The `Tensor`-level products are [`crate::KernelTier`]'s three methods,
//! the one place a tier is picked; [`matmul`], [`matmul_a_bt`] and
//! [`matmul_at_b`] below are those methods on the reference tier.
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
//! AVX2-enabled twin selected once at runtime, both stamped from one body
//! by `crate::kernel`'s `simd_kernel!`. The twin is the *same
//! Rust body*: vectorization happens along `j`, where every SIMD lane
//! is a **different output element**, so each element's ascending-`k`
//! scalar fold is untouched. FMA is deliberately **not** enabled —
//! a fused multiply-add rounds once instead of twice and would change
//! the bits; Rust/LLVM never contract `a * b + c` on their own.

use crate::kernel::simd_kernel;
use crate::{KernelTier, Result, Tensor};

/// Dense `C = A · B` for rank-2 operands `(m, k) × (k, n) → (m, n)`, on
/// the reference tier ([`KernelTier::matmul`], serial).
pub fn matmul(a: &Tensor, b: &Tensor) -> Result<Tensor> {
    KernelTier::Reference.matmul(a, b, 1)
}

/// `C = Aᵀ · B` for `(k, m) × (k, n) → (m, n)` without materializing `Aᵀ`,
/// on the reference tier ([`KernelTier::matmul_at_b`]).
pub fn matmul_at_b(a: &Tensor, b: &Tensor) -> Result<Tensor> {
    KernelTier::Reference.matmul_at_b(a, b)
}

/// `C = A · Bᵀ` for `(m, k) × (n, k) → (m, n)` without materializing `Bᵀ`,
/// on the reference tier ([`KernelTier::matmul_a_bt`]).
pub fn matmul_a_bt(a: &Tensor, b: &Tensor) -> Result<Tensor> {
    KernelTier::Reference.matmul_a_bt(a, b)
}

/// The reference tier's three loops over flat row-major buffers: what the
/// oracle tape runs and what every tiled kernel is held to, bit for bit.
/// Unoptimized on purpose (module header).
pub mod reference {
    /// `c += a · b`, `(m, k) × (k, n) → (m, n)`: the `i-k-j` loop. `c` must
    /// be zeroed (or hold a partial sum to accumulate into).
    ///
    /// Skips `a` elements that are exactly zero. The skip pays only
    /// when the left operand has entire zero *rows or large zero runs* — the
    /// embedding-side case (padded positions gather the pinned all-zero row
    /// 0) and dropout-masked training activations. On dense data the
    /// per-element branch costs more than the skipped work saves (measured
    /// in `vsan-bench`'s `zero_skip` group), which is why the tiled
    /// [`super::matmul_into`] dropped it.
    ///
    /// Skipping is bitwise-equivalent to adding the zero products: the
    /// accumulator starts at `+0.0` and `+0.0 + (±0.0) == +0.0`, so a zero
    /// contribution never changes any accumulator bit.
    pub fn matmul_into(a: &[f32], b: &[f32], c: &mut [f32], m: usize, k: usize, n: usize) {
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

    /// `c += aᵀ · b`, `(k, m) × (k, n) → (m, n)`, zero-skip on `a`. `c` must
    /// be zeroed (or hold a partial sum). Deliberately keeps the zero-skip
    /// branch: `a` here is an activation carrying dropout-masked entries and
    /// embedding-side padded rows, where whole zero runs are common enough
    /// to pay for the test.
    pub fn matmul_at_b_into(a: &[f32], b: &[f32], c: &mut [f32], m: usize, k: usize, n: usize) {
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

    /// `c = a · bᵀ`, `(m, k) × (n, k) → (m, n)`: per-element ascending-`k`
    /// dots. Overwrites `c`.
    pub fn matmul_a_bt_into(a: &[f32], b: &[f32], c: &mut [f32], m: usize, k: usize, n: usize) {
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

simd_kernel! {
    /// Raw kernel: `c += a · b` over flat row-major buffers — the inference
    /// fast path's dense workhorse (projections, FFN, prediction head). `c`
    /// must be zeroed (or hold a partial sum to accumulate into).
    ///
    /// Register-tiled (module header): a tile's accumulators live in
    /// registers for the whole `k` fold and are stored once; `k` is never
    /// split, so each `c[i][j]` is accumulated in the reference loop's
    /// ascending-`k` order. Branch-free on purpose: dense activations gain
    /// nothing from a zero test per `a` element — [`reference::matmul_into`]
    /// has one, which pays only where the left operand is genuinely sparse
    /// (embedding-side padded rows).
    pub fn matmul_into(a: &[f32], b: &[f32], c: &mut [f32], m: usize, k: usize, n: usize) {
        tiled_nest::<false>(a, b, c, m, k, n)
    }
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
/// Compiled under its caller's codegen: [`matmul_into`] / [`matmul_at_b_into`]
/// are its stamped entry points, `ops::attention`'s stamped training pair
/// calls it directly.
#[inline(always)]
pub(crate) fn tiled_nest<const AT: bool>(a: &[f32], b: &[f32], c: &mut [f32], m: usize, k: usize, n: usize) {
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

/// Scratch transpose `(r, c) → (c, r)` over flat row-major buffers —
/// the data-movement half of the fast tier's `A·Bᵀ` products. Pure
/// copies: it cannot change any result bit, so the kernels that call it
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

simd_kernel! {
    /// Raw kernel: `c = a · bᵀ` over flat buffers, `(m, k) × (n, k) → (m, n)`,
    /// straight off `b`'s rows — the tied prediction head and the
    /// benchmark's kernel probe: few rows of `a` against a `b` read once
    /// per call, where a transposed copy of `b` would cost more than it
    /// saves. The clustered index stores its centroids and clusters
    /// k-major at build time and runs [`matmul_into`] instead.
    /// Overwrites `c` (no accumulation).
    ///
    /// Register-blocked over `j`: four `B` rows are dotted against one hot
    /// `A` row per pass, with four independent accumulators. Each `c[i][j]`
    /// is still a single scalar fold over `k` in ascending order, so the
    /// result is bit-identical to the unblocked dot (module header).
    pub fn matmul_a_bt_into(a: &[f32], b: &[f32], c: &mut [f32], m: usize, k: usize, n: usize) {
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
}

simd_kernel! {
    /// Raw kernel twin of [`matmul_at_b`]: `c += aᵀ · b` over flat buffers,
    /// `(k, m) × (k, n) → (m, n)`, without materializing `aᵀ`. `c` must be
    /// zeroed (or hold a partial sum to accumulate into).
    ///
    /// This is the gradient-of-weights shape the fast training tier hits
    /// every step (`dW = Xᵀ · dY`, plus `dK`/`dV` in the fused attention
    /// backward). It runs [`matmul_into`]'s loop nest and tile — only the `a`
    /// indexing differs (`a[kk * m + i]` instead of `a[i * k + kk]`) — so
    /// each `c[i][j]` is one scalar accumulator folded over `kk` ascending,
    /// the reference loop's fold in [`reference::matmul_at_b_into`]. The
    /// reference's zero-skip branch is dropped here, which is
    /// bitwise-equivalent: skipped products are exact (±)zeros, and an
    /// accumulator that starts at `+0.0` is never changed by adding one (see
    /// [`reference::matmul_into`]).
    pub fn matmul_at_b_into(a: &[f32], b: &[f32], c: &mut [f32], m: usize, k: usize, n: usize) {
        tiled_nest::<true>(a, b, c, m, k, n)
    }
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
        // The shared check reads `k` off the right axis of each operand:
        // (2,3)·(2,4)ᵀ disagrees on it, (2,3)ᵀ·(2,4) does not.
        for tier in [KernelTier::Reference, KernelTier::Fast] {
            assert!(tier.matmul(&a, &b, 2).is_err());
            assert!(tier.matmul_a_bt(&a, &b).is_err());
            assert_eq!(tier.matmul_at_b(&a, &b).unwrap().dims(), [3, 4]);
            assert!(tier.matmul_at_b(&a, &m(vec![0.0; 12], 3, 4)).is_err());
            assert!(tier.matmul(&a, &Tensor::zeros(&[3]), 1).is_err());
        }
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
    /// with exact zeros planted in `a`. Each case runs the nest under both
    /// codegens: `tiled_nest` itself is inlined into this test's baseline
    /// build, the stamped kernels reach the AVX2 twin where the host has one.
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
                        ("tiled_nest::<false> baseline", tiled_nest::<false>, &a),
                        ("matmul_into", matmul_into, &a),
                        ("tiled_nest::<true> baseline", tiled_nest::<true>, &at),
                        ("matmul_at_b_into", matmul_at_b_into, &at),
                    ];
                    for (name, kernel, lhs) in kernels {
                        let mut got = c0.data().to_vec();
                        kernel(lhs.data(), b.data(), &mut got, m_, k_, n_);
                        assert_bits(&format!("{tag} {name}"), &want, &got);
                    }
                    // The fast tier's tensor products start from zeros: the
                    // same fold without the initial `c`.
                    let fast = KernelTier::Fast;
                    let want = naive(a.data(), b.data(), m_, k_, n_);
                    assert_bits(&format!("{tag} Fast.matmul"), &want, fast.matmul(&a, &b, 1).unwrap().data());
                    assert_bits(&format!("{tag} Fast.matmul_at_b"), &want, fast.matmul_at_b(&at, &b).unwrap().data());
                    let bt = b.transpose2().unwrap();
                    assert_bits(&format!("{tag} Fast.matmul_a_bt"), &want, fast.matmul_a_bt(&a, &bt).unwrap().data());
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
            reference::matmul_into(a.data(), b.data(), &mut skip, m_, k_, n_);
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

            // The fast tier's tensor products run the tiled kernels
            // through the same shape check as the reference tier's: same bits.
            let fast = KernelTier::Fast.matmul(&a, &b, 1).unwrap();
            for (w, g) in want.iter().zip(fast.data()) {
                assert_eq!(w.to_bits(), g.to_bits(), "Fast.matmul ({m_},{k_},{n_})");
            }
            let fast = KernelTier::Fast.matmul_a_bt(&a, &bt).unwrap();
            for (w, g) in want_bt.iter().zip(fast.data()) {
                assert_eq!(w.to_bits(), g.to_bits(), "Fast.matmul_a_bt ({m_},{k_},{n_})");
            }
            let fast = KernelTier::Fast.matmul_at_b(&at, &b2).unwrap();
            for (w, g) in want_at.data().iter().zip(fast.data()) {
                assert_eq!(w.to_bits(), g.to_bits(), "Fast.matmul_at_b ({m_},{k_},{n_})");
            }
        }
    }
}
