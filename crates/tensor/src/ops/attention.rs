//! Fused causal attention (the inference pass's core kernel, DESIGN.md
//! §10), plus the training tier's fused forward/backward pair.
//!
//! The graph path computes attention as four tape ops — `Q·Kᵀ`, scale,
//! causal-masked softmax, `·V` — materializing two `(n, n)` tensors per
//! sample per block. [`causal_attention_rows_into`] produces the same
//! output with at most one block of score rows alive in caller scratch,
//! so nothing quadratic is ever allocated.
//!
//! One decision covers every inference caller: the key/value window is a
//! read-only **prefix** of already-valid rows followed by a **tail** of
//! rows projected now, and only the last **keep** tail rows are queried.
//! Full window = (0, n, n); last row only = (0, n, 1); session prepare =
//! (start, m − start, m − start), or keep = 0 where only K/V are cached;
//! session append = (m, 1, 1).
//!
//! ## Which rows take which form
//!
//! Query rows are worked in register tiles of `MR` rows, the matmul
//! kernels' tile height. The rows that fill tiles run the **tiled form**:
//! the key window is transposed once into a `(d, window)` scratch, and
//! per block of `BLOCK_ROWS` query rows the scores are `MR × NR` tiles of
//! `Q·(Kᵀ)` with the vector lanes across *keys*, the softmax runs row by
//! row over the block, and the output is `MR × NR` tiles of `P·V` with
//! the lanes across value columns. The leading `keep % MR` rows fill no
//! tile and run the **row form**: each score a scalar dot along one key
//! row, which no lane can help with, but which needs no transposed keys.
//! `keep < MR` — the session append, the trimmed last block — is all row
//! form and never pays the `window · d` moves of the transpose; that is
//! the whole selection, made from `keep` alone. (At `window = 200`, `d =
//! 100` a row-form row costs about what the transpose does and a tiled
//! row a quarter of that, so the forms cross where the first tile fills;
//! DESIGN.md §10 has the measurements.)
//!
//! ## Bit-compatibility contract
//!
//! Every arithmetic step reproduces the composed ops exactly, in both
//! forms, and each query row is an independent computation (so which rows
//! are kept, and which form a row lands in, never changes its bits) —
//! - a score is one accumulator that starts at `0.0` and adds `q[i][t] ·
//!   k[j][t]` over `t` ascending (= [`crate::ops::matmul::matmul_a_bt`]'s
//!   per-element fold). The row form walks `t` along key row `j`; the
//!   tiled form walks `t` down `NR` columns of `Kᵀ` at once, so the lanes
//!   hold `NR` *different* scores, each folded exactly as before — the
//!   shared dimension is never split, FMA is never enabled, and the
//!   transpose moves bits without computing any (the argument
//!   [`crate::KernelTier::matmul_a_bt`] makes);
//! - `softmax_scaled_row` is the tape's `scale · s + 0.0` affine and then
//!   [`crate::ops::softmax::softmax_rows_masked`]'s per-row sequence
//!   verbatim, over exactly the keys `j ≤ i`: max fold, exp + sum in
//!   ascending `j`, one `1.0 / sum` multiply. The training forward below
//!   runs the same helper;
//! - an output element is one accumulator that starts at `0.0` and adds
//!   `p[i][j] · v[j][c]` over `j` ascending — prefix rows then tail rows,
//!   key order over the concatenated window — matching `matmul(attn, v)`
//!   (the masked entries it skips are exact zeros, whose products never
//!   change an accumulator bit). The rows of a register tile see
//!   different key counts, so a tile folds the keys all its rows see and
//!   then each row's few further ones: still ascending `j` in every
//!   accumulator.
//!
//! `P·V` is range-limited per row rather than run over stored zeros (as
//! the training forward does) because the row form's guarantee is that a
//! masked key is never *read*: `0.0 · ∞` is NaN, so a non-finite value in
//! a later K/V row must not be multiplied into an earlier query's output.
//! The score tiles do compute a few above-diagonal lanes; those are
//! stored and never read.

use crate::kernel::simd_kernel;
use crate::ops::matmul::{fold_tile, row_walk, tiled_nest, transpose_into, MR, NR};

/// Query rows whose score rows are live at once in the tiled body: eight
/// register tiles share each `Kᵀ` / `V` column panel while it is hot in
/// L1, and the `(BLOCK_ROWS, window)` score block itself stays there.
const BLOCK_ROWS: usize = 32;

/// Floats of scratch [`causal_attention_rows_into`] needs for `keep`
/// queried rows over a `window`-row key window: one score row while no
/// register tile fills, else the transposed key window plus one block of
/// score rows.
pub fn attention_scratch_len(window: usize, keep: usize, d: usize) -> usize {
    if keep < MR {
        window
    } else {
        (d + BLOCK_ROWS) * window
    }
}

simd_kernel! {
    /// Causal attention for the last `keep` rows of a `(prefix + tail)`-row
    /// window: `out = softmax_causal(q·[k_prefix; k_tail]ᵀ·scale)·[v_prefix;
    /// v_tail]`, never materializing the concatenation.
    ///
    /// All buffers are flat row-major with `d` columns; the counts are their
    /// lengths: `prefix = k_prefix.len() / d`, `tail = k_tail.len() / d`,
    /// `keep = q.len() / d ≤ tail`. Query row `r` is window row `i = prefix +
    /// tail − keep + r` and attends to keys `0..=i`. `scratch` holds at least
    /// [`attention_scratch_len`] floats and comes back clobbered; `out`
    /// (`keep` rows) is overwritten, and `keep = 0` writes nothing.
    #[allow(clippy::too_many_arguments)]
    pub fn causal_attention_rows_into(
        q: &[f32],
        k_prefix: &[f32],
        k_tail: &[f32],
        v_prefix: &[f32],
        v_tail: &[f32],
        d: usize,
        scale: f32,
        scratch: &mut [f32],
        out: &mut [f32],
    ) {
        attention_rows(q, k_prefix, k_tail, v_prefix, v_tail, d, scale, scratch, out)
    }
}

/// [`causal_attention_rows_into`]'s body, inlined into whichever codegen
/// twin calls it (and, under the baseline build, into the shape-matrix
/// test).
#[inline(always)]
#[allow(clippy::too_many_arguments)]
fn attention_rows(
    q: &[f32],
    k_prefix: &[f32],
    k_tail: &[f32],
    v_prefix: &[f32],
    v_tail: &[f32],
    d: usize,
    scale: f32,
    scratch: &mut [f32],
    out: &mut [f32],
) {
    let window = (k_prefix.len() + k_tail.len()) / d;
    let keep = q.len() / d;
    debug_assert!(keep * d <= k_tail.len());
    debug_assert_eq!(k_prefix.len(), v_prefix.len());
    debug_assert_eq!(k_tail.len(), v_tail.len());
    debug_assert!(scratch.len() >= attention_scratch_len(window, keep, d));
    debug_assert_eq!(out.len(), q.len());

    // The leading `keep % MR` rows fill no register tile: each is one
    // scalar-dot score row, straight off the untransposed keys.
    let loose = keep % MR;
    let (q_loose, q_tiled) = q.split_at(loose * d);
    let (out_loose, out_tiled) = out.split_at_mut(loose * d);
    for (r, (q_row, o_row)) in q_loose.chunks_exact(d).zip(out_loose.chunks_exact_mut(d)).enumerate() {
        // Keys 0..=i for window row i = window − keep + r; the zips below
        // stop at the score row's length.
        let scores = &mut scratch[..=window - keep + r];
        for (s, k_row) in scores.iter_mut().zip(k_prefix.chunks_exact(d).chain(k_tail.chunks_exact(d))) {
            let mut acc = 0.0f32;
            for (&qv, &kv) in q_row.iter().zip(k_row) {
                acc += qv * kv;
            }
            *s = acc;
        }
        softmax_scaled_row(scores, scale);
        o_row.fill(0.0);
        for (&p, v_row) in scores.iter().zip(v_prefix.chunks_exact(d).chain(v_tail.chunks_exact(d))) {
            for (ov, &vv) in o_row.iter_mut().zip(v_row) {
                *ov += p * vv;
            }
        }
    }
    if q_tiled.is_empty() {
        return;
    }

    // Kᵀ once for the whole window — `kt[t][j] = k[j][t]`, pure data
    // movement — so a score tile's lanes run across keys.
    let (kt, scores) = scratch.split_at_mut(d * window);
    for (j, k_row) in k_prefix.chunks_exact(d).chain(k_tail.chunks_exact(d)).enumerate() {
        for (t, &kv) in k_row.iter().enumerate() {
            kt[t * window + j] = kv;
        }
    }
    let blocks = q_tiled.chunks(BLOCK_ROWS * d).zip(out_tiled.chunks_mut(BLOCK_ROWS * d));
    for (blk, (q_blk, o_blk)) in blocks.enumerate() {
        // Window row of the block's first query row, and one past its last.
        let first = window - keep + loose + blk * BLOCK_ROWS;
        let end = first + q_blk.len() / d;
        // Whole NR-wide key tiles while they fit the window (lanes past a
        // row's diagonal are stored and never read), single keys after.
        let keys = end.next_multiple_of(NR).min(window);
        let j = score_tiles::<NR>(q_blk, kt, d, window, first, 0, keys, scores);
        score_tiles::<1>(q_blk, kt, d, window, first, j, keys, scores);
        for (r, row) in scores.chunks_exact_mut(window).take(end - first).enumerate() {
            softmax_scaled_row(&mut row[..=first + r], scale);
        }
        let c = value_tiles::<NR>(scores, window, v_prefix, v_tail, d, first, 0, o_blk);
        value_tiles::<1>(scores, window, v_prefix, v_tail, d, first, c, o_blk);
    }
}

/// The masked-softmax row sequence, in place over exactly the scores a
/// query row may see: the tape's `scale · s + 0.0` affine, then
/// [`crate::ops::softmax::softmax_rows_masked`]'s max fold, exp + sum in
/// ascending `j`, and one `1.0 / sum` multiply.
#[inline(always)]
fn softmax_scaled_row(row: &mut [f32], scale: f32) {
    for s in row.iter_mut() {
        *s = scale * *s + 0.0;
    }
    let max = row.iter().fold(f32::NEG_INFINITY, |m, &x| m.max(x));
    let mut sum = 0.0f32;
    for s in row.iter_mut() {
        let e = (*s - max).exp();
        *s = e;
        sum += e;
    }
    let inv = 1.0 / sum;
    for s in row.iter_mut() {
        *s *= inv;
    }
}

/// Raw scores of one block of query rows (`first` = the block's first
/// window row) against key tiles `from, from + C, …` while they fit below
/// `upto`; returns the first key not covered. A register tile whose rows
/// all sit above a key tile skips it.
#[inline(always)]
#[allow(clippy::too_many_arguments)]
fn score_tiles<const C: usize>(
    q_blk: &[f32],
    kt: &[f32],
    d: usize,
    window: usize,
    first: usize,
    from: usize,
    upto: usize,
    scores: &mut [f32],
) -> usize {
    let mut j = from;
    while j + C <= upto {
        for (tile, q_tile) in q_blk.chunks_exact(MR * d).enumerate() {
            if j >= first + (tile + 1) * MR {
                continue;
            }
            let mut acc = [[0.0f32; C]; MR];
            fold_tile(&mut acc, row_walk(q_tile, d, 0, 0..d), kt, window, j);
            for (r, acc_row) in acc.iter().enumerate() {
                scores[(tile * MR + r) * window + j..][..C].copy_from_slice(acc_row);
            }
        }
        j += C;
    }
    j
}

/// `probs · [v_prefix; v_tail]` for one block of query rows, value
/// columns `from, from + C, …` while they fit in `d`; returns the first
/// column not covered. Each register tile folds the keys all its rows
/// see — prefix rows, then tail rows — and then the `r` keys only row `r`
/// and later see, so every output is one ascending-`j` accumulator and no
/// masked key is ever read.
#[inline(always)]
#[allow(clippy::too_many_arguments)]
fn value_tiles<const C: usize>(
    probs: &[f32],
    window: usize,
    v_prefix: &[f32],
    v_tail: &[f32],
    d: usize,
    first: usize,
    from: usize,
    o_blk: &mut [f32],
) -> usize {
    let prefix = v_prefix.len() / d;
    let mut c = from;
    while c + C <= d {
        for (tile, o_tile) in o_blk.chunks_exact_mut(MR * d).enumerate() {
            let p = &probs[tile * MR * window..];
            let shared = first + tile * MR + 1;
            let mut acc = [[0.0f32; C]; MR];
            fold_tile(&mut acc, row_walk(p, window, 0, 0..prefix), v_prefix, d, c);
            fold_tile(&mut acc, row_walk(p, window, 0, prefix..shared), v_tail, d, c);
            for (r, acc_row) in acc.iter_mut().enumerate() {
                for j in shared..shared + r {
                    let pj = p[r * window + j];
                    let v_vec = &v_tail[(j - prefix) * d + c..][..C];
                    for (av, &vv) in acc_row.iter_mut().zip(v_vec) {
                        *av += pj * vv;
                    }
                }
                o_tile[r * d + c..][..C].copy_from_slice(acc_row);
            }
        }
        c += C;
    }
    c
}

/// [`causal_attention_rows_into`] under the contract of the three
/// shape-named entry points below, which predates the tiled body:
/// `scores` need only hold one score row (`window` floats). A pass that
/// fills a register tile needs [`attention_scratch_len`]; when `scores`
/// is shorter than that, the scratch is allocated here, per call —
/// callers on a hot path size it up front and call the general form.
#[allow(clippy::too_many_arguments)]
fn rows_into_with_score_row(
    q: &[f32],
    k_prefix: &[f32],
    k_tail: &[f32],
    v_prefix: &[f32],
    v_tail: &[f32],
    d: usize,
    scale: f32,
    scores: &mut [f32],
    out: &mut [f32],
) {
    let need = attention_scratch_len((k_prefix.len() + k_tail.len()) / d, q.len() / d, d);
    if scores.len() >= need {
        causal_attention_rows_into(q, k_prefix, k_tail, v_prefix, v_tail, d, scale, scores, out)
    } else {
        let mut scratch = vec![0.0f32; need];
        causal_attention_rows_into(q, k_prefix, k_tail, v_prefix, v_tail, d, scale, &mut scratch, out)
    }
}

/// The full window, (prefix, tail, keep) = (0, n, n): every row of one
/// `(n, d)` sample queried over its own keys/values.
#[allow(clippy::too_many_arguments)]
pub fn causal_attention_into(
    q: &[f32],
    k: &[f32],
    v: &[f32],
    n: usize,
    d: usize,
    scale: f32,
    scores: &mut [f32],
    out: &mut [f32],
) {
    debug_assert_eq!(q.len(), n * d);
    rows_into_with_score_row(q, &[], k, &[], v, d, scale, scores, out)
}

/// One new row over `m` cached rows, (prefix, tail, keep) = (m, 1, 1) —
/// the session fold-in shape (DESIGN.md §10); `m = 0` is valid.
#[allow(clippy::too_many_arguments)]
pub fn causal_attention_append_into(
    q_row: &[f32],
    k_prefix: &[f32],
    k_last: &[f32],
    v_prefix: &[f32],
    v_last: &[f32],
    m: usize,
    d: usize,
    scale: f32,
    scores: &mut [f32],
    out_row: &mut [f32],
) {
    debug_assert_eq!((k_prefix.len(), k_last.len()), (m * d, d));
    rows_into_with_score_row(q_row, k_prefix, k_last, v_prefix, v_last, d, scale, scores, out_row)
}

/// Rows `start..m` of an `(m, d)` window, (prefix, tail, keep) = (0, m,
/// m − start) — the session prepare shape; `q`/`out` hold only the
/// `m − start` trailing rows.
#[allow(clippy::too_many_arguments)]
pub fn causal_attention_resume_into(
    q: &[f32],
    k: &[f32],
    v: &[f32],
    m: usize,
    d: usize,
    start: usize,
    scale: f32,
    scores: &mut [f32],
    out: &mut [f32],
) {
    debug_assert_eq!((q.len(), k.len()), ((m - start) * d, m * d));
    rows_into_with_score_row(q, &[], k, &[], v, d, scale, scores, out)
}

simd_kernel! {
    /// Fused causal-attention *training* forward: `out =
    /// softmax_causal(q·kᵀ·scale)·v` over flat `(n, d)` buffers, saving the
    /// full `(n, n)` softmax matrix into `probs` for the backward pass.
    ///
    /// This is the fast training tier's replacement for the tape's four-op
    /// composition (`matmul_a_bt` → affine → `softmax_causal` → `matmul`).
    /// Unlike [`causal_attention_rows_into`], which streams score rows through
    /// scratch a block at a time, training must keep the probabilities — they
    /// are the saved activation [`causal_attention_train_backward`] consumes —
    /// so `probs` is a persistent `(n, n)` buffer (row `i`: columns `..=i`
    /// hold the softmax row, columns `i+1..` are written to exact `0.0`, the
    /// same layout `softmax_rows_masked` produces).
    ///
    /// Bit-compatibility with the composed ops: the score matrix is the
    /// tiled [`crate::ops::matmul::matmul_into`] over a transposed key
    /// buffer (`Q·(Kᵀ)` — same products `q[i][t]·k[j][t]`, same ascending-`t`
    /// fold per element as the reference dot, the transpose itself being
    /// pure data movement; see [`crate::KernelTier::matmul_a_bt`]),
    /// mapped through `scale * s + 0.0` (the tape's affine); the masked
    /// softmax is `softmax_rows_masked`'s per-row sequence verbatim (the
    /// above-diagonal scores this computes eagerly are overwritten with the
    /// mask's exact zeros before anything reads them); and the output is
    /// the tiled `matmul_into` over the full probability matrix — whose
    /// masked entries are exact zeros, and adding a zero product never
    /// changes an accumulator bit (see
    /// [`crate::ops::matmul::reference::matmul_into`], which is what the
    /// reference tape runs).
    #[allow(clippy::too_many_arguments)]
    pub fn causal_attention_train_forward(
        q: &[f32],
        k: &[f32],
        v: &[f32],
        n: usize,
        d: usize,
        scale: f32,
        probs: &mut [f32],
        out: &mut [f32],
    ) {
        causal_attention_train_rows_forward(q, k, v, n, d, scale, probs, out);
    }
}

simd_kernel! {
    /// [`causal_attention_train_forward`] for the last `keep = q.len() / d`
    /// query rows of an `n`-row window: query row `r` is window row `i = n −
    /// keep + r` and attends to keys `0..=i`. `probs` is `(keep, n)` and
    /// `out` `(keep, d)`; `keep = n` is the square kernel.
    ///
    /// Bit-compatibility: each output row is the square kernel's row `i`
    /// (every fold is per row, ascending), so this equals the composed
    /// chain over the window with its first `n − keep` query rows zeroed,
    /// restricted to the last `keep` rows.
    #[allow(clippy::too_many_arguments)]
    pub fn causal_attention_train_rows_forward(
        q: &[f32],
        k: &[f32],
        v: &[f32],
        n: usize,
        d: usize,
        scale: f32,
        probs: &mut [f32],
        out: &mut [f32],
    ) {
        let keep = q.len() / d.max(1);
        debug_assert!(keep <= n);
        debug_assert_eq!(q.len(), keep * d);
        debug_assert_eq!(k.len(), n * d);
        debug_assert_eq!(v.len(), n * d);
        debug_assert_eq!(probs.len(), keep * n);
        debug_assert_eq!(out.len(), keep * d);
        // All keep·n scores in one tiled pass over a transposed key buffer
        // (header: same products, same ascending-k folds as the reference
        // dots). The above-diagonal part is computed eagerly but every one
        // of those entries is overwritten with the mask's exact 0.0 below
        // before anything reads it.
        let mut kt = vec![0.0f32; n * d];
        transpose_into(k, &mut kt, n, d);
        probs.fill(0.0);
        tiled_nest::<false>(q, &kt, probs, keep, d, n);
        for (r, row) in probs.chunks_exact_mut(n.max(1)).enumerate() {
            let i = n - keep + r;
            softmax_scaled_row(&mut row[..=i], scale);
            // Future positions carry exactly zero weight, matching the
            // softmax_rows_masked layout the backward pass relies on.
            row[i + 1..].fill(0.0);
        }
        out.fill(0.0);
        tiled_nest::<false>(probs, v, out, keep, n, d);
    }
}

simd_kernel! {
    /// Fused causal-attention *training* backward: given the saved softmax
    /// matrix from [`causal_attention_train_forward`] and the upstream
    /// gradient `d_out`, computes `dq`/`dk`/`dv` in one tiled pass.
    /// `dscores` is caller-provided `(n, n)` scratch; `dq`/`dk`/`dv` are
    /// overwritten.
    ///
    /// Bit-compatibility with the tape's composed backward chain
    /// (`Op::MatMul` → `Op::SoftmaxCausal` → `Op::Affine` → `Op::MatMulABt`
    /// in reverse):
    /// - `dV = probsᵀ · d_out` — [`crate::ops::matmul::matmul_at_b_into`]'s
    ///   ascending-`kk` fold, identical to the reference `matmul_at_b` with
    ///   its zero-skip (masked probabilities are exact zeros; zero products
    ///   never change an accumulator bit);
    /// - `dP = d_out · vᵀ` over the *full* `(n, n)` matrix — the tiled
    ///   [`crate::ops::matmul::matmul_into`] over a transposed value buffer
    ///   (same products, same ascending-`t` folds as the reference dots;
    ///   see [`crate::KernelTier::matmul_a_bt`]), exactly what the
    ///   tape's `matmul_a_bt(g, v)` computes (including the masked columns:
    ///   the softmax backward below multiplies them by an exact zero, just
    ///   as the tape does);
    /// - softmax + affine backward per row: `dot = Σ_j y[j]·dp[j]` folded
    ///   ascending over **all** `n` columns (the tape's fold; masked terms
    ///   contribute exact-zero products), then `ds[j] = scale · (y[j] ·
    ///   (dp[j] − dot))` — the same two multiplies, in the same order, as
    ///   the tape's softmax-backward elementwise pass followed by its
    ///   affine-backward `scale · x` pass;
    /// - `dQ = ds · k` (tiled [`crate::ops::matmul::matmul_into`]) and
    ///   `dK = dsᵀ · q` ([`crate::ops::matmul::matmul_at_b_into`]) — same
    ///   per-element folds as the tape's reference kernels; the masked `ds`
    ///   entries are exact (±)zeros, which the reference kernels skip and
    ///   these dense kernels add, a bitwise no-op either way.
    #[allow(clippy::too_many_arguments)]
    pub fn causal_attention_train_backward(
        q: &[f32],
        k: &[f32],
        v: &[f32],
        probs: &[f32],
        d_out: &[f32],
        n: usize,
        d: usize,
        scale: f32,
        dq: &mut [f32],
        dk: &mut [f32],
        dv: &mut [f32],
        dscores: &mut [f32],
    ) {
        causal_attention_train_rows_backward(q, k, v, probs, d_out, n, d, scale, dq, dk, dv, dscores);
    }
}

simd_kernel! {
    /// [`causal_attention_train_backward`] for the last `keep = q.len() /
    /// d` query rows of an `n`-row window, given the `(keep, n)` softmax
    /// rows [`causal_attention_train_rows_forward`] saved: `dq` and
    /// `d_out` are `(keep, d)`, `dk` / `dv` `(n, d)`, `dscores` at least
    /// `(keep, n)` scratch. `keep = n` is the square kernel.
    ///
    /// Bit-compatibility with the square kernel over the window with its
    /// first `n − keep` query rows zeroed and their upstream gradient
    /// zero: those rows' `dP`, `dS`, and every product they add to `dK` /
    /// `dV` are exact zeros, which leave an ascending fold's accumulator
    /// as it was; the folds over the kept rows are the same, in the same
    /// order.
    #[allow(clippy::too_many_arguments)]
    pub fn causal_attention_train_rows_backward(
        q: &[f32],
        k: &[f32],
        v: &[f32],
        probs: &[f32],
        d_out: &[f32],
        n: usize,
        d: usize,
        scale: f32,
        dq: &mut [f32],
        dk: &mut [f32],
        dv: &mut [f32],
        dscores: &mut [f32],
    ) {
        let keep = q.len() / d.max(1);
        debug_assert!(keep <= n);
        debug_assert_eq!(q.len(), keep * d);
        debug_assert_eq!(k.len(), n * d);
        debug_assert_eq!(v.len(), n * d);
        debug_assert_eq!(probs.len(), keep * n);
        debug_assert_eq!(d_out.len(), keep * d);
        debug_assert_eq!(dq.len(), keep * d);
        debug_assert_eq!(dk.len(), n * d);
        debug_assert_eq!(dv.len(), n * d);
        let dscores = &mut dscores[..keep * n];
        // dV = probsᵀ · d_out.
        dv.fill(0.0);
        tiled_nest::<true>(probs, d_out, dv, n, keep, d);
        // dP = d_out · vᵀ (all n columns, masked ones included — they meet
        // an exact-zero y below, exactly as on the tape), via the tiled
        // kernel over a transposed value buffer (header: same folds, same
        // bits).
        let mut vt = vec![0.0f32; n * d];
        transpose_into(v, &mut vt, n, d);
        dscores.fill(0.0);
        tiled_nest::<false>(d_out, &vt, dscores, keep, d, n);
        // Softmax backward + affine backward, in place: dscores becomes dS.
        for (y_row, ds_row) in probs.chunks_exact(n.max(1)).zip(dscores.chunks_exact_mut(n.max(1))) {
            let mut dot = 0.0f32;
            for (&yv, &dp) in y_row.iter().zip(ds_row.iter()) {
                dot += yv * dp;
            }
            for (dsv, &yv) in ds_row.iter_mut().zip(y_row) {
                *dsv = scale * (yv * (*dsv - dot));
            }
        }
        // dQ = dS · k, dK = dSᵀ · q.
        dq.fill(0.0);
        tiled_nest::<false>(dscores, k, dq, keep, n, d);
        dk.fill(0.0);
        tiled_nest::<true>(dscores, q, dk, n, keep, d);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ops::{matmul, matmul_a_bt, softmax_rows_masked};
    use crate::{init, Tensor};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// The composed-op reference: exactly what the autograd tape runs.
    fn composed(q: &Tensor, k: &Tensor, v: &Tensor, scale: f32) -> Tensor {
        let scores = matmul_a_bt(q, k).unwrap();
        let scaled = scores.map(|x| scale * x + 0.0);
        let attn = softmax_rows_masked(&scaled).unwrap();
        matmul(&attn, v).unwrap()
    }

    /// The row kernel against the composed-ops reference over the
    /// concatenated K/V, bit for bit, across the (prefix, tail, keep, d)
    /// shapes every caller uses and every edge of the tiled body — through
    /// both codegen twins (the baseline body is inlined into this test,
    /// the dispatcher reaches the AVX2 twin where the host has one), and
    /// through the three delegating names wherever their shape applies.
    #[test]
    fn row_kernel_matches_composed_ops_over_the_shape_matrix() {
        const SENTINEL: f32 = -7.5;
        // scripts/verify.sh exports this on AVX2 hosts: the kernel must not
        // quietly run its baseline build there.
        if std::env::var("VSAN_REQUIRE_AVX2").is_ok_and(|v| v == "1") {
            assert!(crate::kernel::avx2_supported(), "VSAN_REQUIRE_AVX2=1 but AVX2 dispatch is unavailable");
        }
        let mut rng = StdRng::seed_from_u64(42);
        for (prefix, tail, keep, d) in [
            (0, 1, 1, 4),    // the n = 1 window
            (0, 1, 1, 1),    // d = 1
            (0, 5, 5, 8),    // full window
            (0, 50, 50, 20), // full window, paper-sized
            (0, 16, 1, 12),  // terminal-block trimming
            (0, 9, 5, 6),    // keep < tail, no prefix
            (4, 5, 5, 6),    // session prepare behind donor rows
            (4, 5, 2, 17),   // keep < tail behind a prefix, off the 8-lane width
            (3, 4, 0, 6),    // K/V cached only: must write nothing
            (16, 0, 0, 12),  // nothing projected, nothing queried
            (0, 1, 1, 17),   // append onto an empty prefix
            (6, 1, 1, 10),   // session append
            (47, 1, 1, 96),  // session append, beauty-sized
            // The tiled body's edges: keep around one register tile and
            // around one row block, windows off the 16-key tile, prefixes
            // off the 4-row tile, d below / off / on the 16-column tile.
            (0, 40, MR - 1, 17),
            (0, 40, MR, 17),
            (0, 40, BLOCK_ROWS - 1, 64),
            (0, 40, BLOCK_ROWS, 64),
            (0, 40, BLOCK_ROWS + 1, 1),
            (1, 39, BLOCK_ROWS + 1, 17), // prefix = 1
            (7, 30, 30, 64),             // window 37, prefix off the row tile
            (50, 9, 8, 100),             // prefix > tail
            (13, 67, 66, 17),            // two loose rows, then two blocks
            (0, 70, 70, 1),              // d = 1 across three blocks
            // n = 200, d = 100: the session_append workload's passes.
            (0, 200, 200, 100), // full window
            (0, 200, 1, 100),   // terminal-block trimming
            (0, 199, 199, 100), // prepare without a donor
            (100, 99, 99, 100), // prepare behind donor rows
            (199, 1, 1, 100),   // append
        ] {
            let window = prefix + tail;
            let skip = window - keep;
            let tag = format!("(prefix={prefix}, tail={tail}, keep={keep}, d={d})");
            let q = init::randn(&mut rng, &[window, d], 0.0, 1.0);
            let k = init::randn(&mut rng, &[window, d], 0.0, 1.0);
            let v = init::randn(&mut rng, &[window, d], 0.0, 1.0);
            let scale = 1.0 / (d as f32).sqrt();
            let want = composed(&q, &k, &v, scale);
            let want = &want.data()[skip * d..];
            let q_kept = &q.data()[skip * d..];
            let (k_prefix, k_tail) = k.data().split_at(prefix * d);
            let (v_prefix, v_tail) = v.data().split_at(prefix * d);
            let assert_bits = |name: &str, got: &[f32]| {
                assert_eq!(got.len(), want.len(), "{tag} {name}");
                for (idx, (w, g)) in want.iter().zip(got).enumerate() {
                    assert_eq!(w.to_bits(), g.to_bits(), "{tag} {name} element {idx}: want {w}, got {g}");
                }
            };

            let mut scratch = vec![SENTINEL; attention_scratch_len(window, keep, d)];
            let mut out = vec![f32::NAN; keep * d];
            attention_rows(q_kept, k_prefix, k_tail, v_prefix, v_tail, d, scale, &mut scratch, &mut out);
            assert_bits("baseline body", &out);
            scratch.fill(SENTINEL);
            out.fill(f32::NAN);
            causal_attention_rows_into(
                q_kept, k_prefix, k_tail, v_prefix, v_tail, d, scale, &mut scratch, &mut out,
            );
            assert_bits("dispatcher", &out);
            if keep == 0 {
                assert!(scratch.iter().all(|&s| s == SENTINEL), "{tag} keep = 0 touched the scratch");
            }

            // The shape-named entry points promise only one score row of
            // scratch. The contiguous-window one covers every shape:
            // where the prefix/tail boundary falls never changes a bit.
            let mut scores = vec![SENTINEL; window];
            out.fill(f32::NAN);
            causal_attention_resume_into(
                q_kept, k.data(), v.data(), window, d, skip, scale, &mut scores, &mut out,
            );
            assert_bits("resume", &out);
            if keep == window {
                out.fill(f32::NAN);
                causal_attention_into(q.data(), k.data(), v.data(), window, d, scale, &mut scores, &mut out);
                assert_bits("full", &out);
            }
            if (tail, keep) == (1, 1) {
                out.fill(f32::NAN);
                causal_attention_append_into(
                    q_kept, k_prefix, k_tail, v_prefix, v_tail, prefix, d, scale, &mut scores, &mut out,
                );
                assert_bits("append", &out);
            }
        }
    }

    /// Causality holds for non-finite values too: a NaN key row and an
    /// infinite value row planted at window row `j` reach every query row
    /// `i ≥ j` and no query row `i < j` — on the row shape (no register
    /// tile fills) and on the tiled shape, where the poisoned key's scores
    /// are computed for earlier rows of its tile but never read.
    #[test]
    fn non_finite_future_rows_never_reach_earlier_queries() {
        let mut rng = StdRng::seed_from_u64(97);
        for (prefix, tail, keep, d) in [(2, 3, MR - 1, 5), (5, 75, 70, 17)] {
            let window = prefix + tail;
            let skip = window - keep;
            let q = init::randn(&mut rng, &[keep, d], 0.0, 1.0);
            let k = init::randn(&mut rng, &[window, d], 0.0, 1.0);
            let v = init::randn(&mut rng, &[window, d], 0.0, 1.0);
            let scale = 1.0 / (d as f32).sqrt();
            let run = |k: &[f32], v: &[f32]| {
                let mut scratch = vec![0.0f32; attention_scratch_len(window, keep, d)];
                let mut out = vec![0.0f32; keep * d];
                let (k_prefix, k_tail) = k.split_at(prefix * d);
                let (v_prefix, v_tail) = v.split_at(prefix * d);
                causal_attention_rows_into(
                    q.data(), k_prefix, k_tail, v_prefix, v_tail, d, scale, &mut scratch, &mut out,
                );
                out
            };
            let clean = run(k.data(), v.data());
            assert!(clean.iter().all(|x| x.is_finite()));
            // Every queried row but the first: each offset within a
            // register tile, both sides of a block edge, the last row.
            for j in skip + 1..window {
                let (mut k, mut v) = (k.data().to_vec(), v.data().to_vec());
                k[j * d..(j + 1) * d].fill(f32::NAN);
                v[j * d..(j + 1) * d].fill(f32::INFINITY);
                let got = run(&k, &v);
                let (before, after) = got.split_at((j - skip) * d);
                for (idx, (w, g)) in clean.iter().zip(before).enumerate() {
                    assert_eq!(w.to_bits(), g.to_bits(), "keep={keep}, poisoned row {j}: element {idx} changed");
                }
                assert!(after.iter().all(|x| !x.is_finite()), "keep={keep}: row {j} and later see the poison");
            }
        }
    }

    #[test]
    fn train_forward_matches_composed_ops_bit_for_bit() {
        let mut rng = StdRng::seed_from_u64(311);
        for (n, d) in [(1, 1), (1, 4), (3, 5), (5, 8), (16, 12), (17, 16), (50, 20)] {
            let q = init::randn(&mut rng, &[n, d], 0.0, 1.0);
            let k = init::randn(&mut rng, &[n, d], 0.0, 1.0);
            let v = init::randn(&mut rng, &[n, d], 0.0, 1.0);
            let scale = 1.0 / (d as f32).sqrt();
            let scores = matmul_a_bt(&q, &k).unwrap();
            let scaled = scores.map(|x| scale * x + 0.0);
            let want_probs = softmax_rows_masked(&scaled).unwrap();
            let want_out = matmul(&want_probs, &v).unwrap();
            let mut probs = vec![f32::NAN; n * n];
            let mut out = vec![f32::NAN; n * d];
            causal_attention_train_forward(q.data(), k.data(), v.data(), n, d, scale, &mut probs, &mut out);
            for (idx, (w, g)) in want_probs.data().iter().zip(&probs).enumerate() {
                assert_eq!(w.to_bits(), g.to_bits(), "(n={n}, d={d}) probs element {idx}");
            }
            for (idx, (w, g)) in want_out.data().iter().zip(&out).enumerate() {
                assert_eq!(w.to_bits(), g.to_bits(), "(n={n}, d={d}) out element {idx}");
            }
        }
    }

    /// The tape's composed backward chain, run on the reference kernels:
    /// exactly what `Graph::backward` does for `matmul_a_bt` → affine →
    /// `softmax_causal` → `matmul`, in reverse.
    fn composed_backward(
        q: &Tensor,
        k: &Tensor,
        v: &Tensor,
        probs: &Tensor,
        g_out: &Tensor,
        scale: f32,
    ) -> (Tensor, Tensor, Tensor) {
        use crate::ops::matmul_at_b;
        // out = matmul(probs, v): dProbs = g·vᵀ, dV = probsᵀ·g.
        let d_probs = matmul_a_bt(g_out, v).unwrap();
        let dv = matmul_at_b(probs, g_out).unwrap();
        // softmax backward (over all columns, as the tape does).
        let n = probs.dims()[0];
        let mut d_scaled = Tensor::zeros(&[n, n]);
        for i in 0..n {
            let y_row = &probs.data()[i * n..(i + 1) * n];
            let g_row = &d_probs.data()[i * n..(i + 1) * n];
            let dot: f32 = y_row.iter().zip(g_row).map(|(&a, &b)| a * b).sum();
            let d_row = &mut d_scaled.data_mut()[i * n..(i + 1) * n];
            for j in 0..n {
                d_row[j] = y_row[j] * (g_row[j] - dot);
            }
        }
        // affine backward: d_scores = scale · d_scaled.
        let d_scores = d_scaled.map(|x| scale * x);
        // scores = matmul_a_bt(q, k): dQ = dS·k, dK = dSᵀ·q.
        let dq = matmul(&d_scores, k).unwrap();
        let dk = matmul_at_b(&d_scores, q).unwrap();
        (dq, dk, dv)
    }

    #[test]
    fn train_backward_matches_composed_chain_bit_for_bit() {
        let mut rng = StdRng::seed_from_u64(409);
        for (n, d) in [(1, 1), (1, 4), (3, 5), (5, 8), (16, 12), (17, 16), (50, 20)] {
            let q = init::randn(&mut rng, &[n, d], 0.0, 1.0);
            let k = init::randn(&mut rng, &[n, d], 0.0, 1.0);
            let v = init::randn(&mut rng, &[n, d], 0.0, 1.0);
            let g_out = init::randn(&mut rng, &[n, d], 0.0, 1.0);
            let scale = 1.0 / (d as f32).sqrt();
            let mut probs = vec![0.0f32; n * n];
            let mut out = vec![0.0f32; n * d];
            causal_attention_train_forward(q.data(), k.data(), v.data(), n, d, scale, &mut probs, &mut out);
            let probs_t = Tensor::from_vec(probs.clone(), &[n, n]).unwrap();
            let (want_dq, want_dk, want_dv) = composed_backward(&q, &k, &v, &probs_t, &g_out, scale);
            let mut dq = vec![f32::NAN; n * d];
            let mut dk = vec![f32::NAN; n * d];
            let mut dv = vec![f32::NAN; n * d];
            let mut dscores = vec![0.0f32; n * n];
            causal_attention_train_backward(
                q.data(),
                k.data(),
                v.data(),
                &probs,
                g_out.data(),
                n,
                d,
                scale,
                &mut dq,
                &mut dk,
                &mut dv,
                &mut dscores,
            );
            for (name, want, got) in
                [("dq", &want_dq, &dq), ("dk", &want_dk, &dk), ("dv", &want_dv, &dv)]
            {
                for (idx, (w, g)) in want.data().iter().zip(got.iter()).enumerate() {
                    assert_eq!(w.to_bits(), g.to_bits(), "(n={n}, d={d}) {name} element {idx}");
                }
            }
        }
    }

    /// The row kernels for the last `keep` query rows against the square
    /// kernels over the window with its first `n − keep` query rows zeroed
    /// and their upstream gradient zero (what the reference tape runs):
    /// the kept rows' probs and outputs, `dq` for them, and `dk` / `dv`,
    /// bit for bit.
    #[test]
    fn train_row_kernels_match_the_square_kernels_with_zeroed_queries() {
        let mut rng = StdRng::seed_from_u64(523);
        for (n, d) in [(1usize, 1), (4, 5), (5, 8), (17, 16), (50, 100)] {
            for keep in [0, 1, n / 2, n - 1, n] {
                let q = init::randn(&mut rng, &[keep, d], 0.0, 1.0);
                let k = init::randn(&mut rng, &[n, d], 0.0, 1.0);
                let v = init::randn(&mut rng, &[n, d], 0.0, 1.0);
                let g_out = init::randn(&mut rng, &[keep, d], 0.0, 1.0);
                let scale = 1.0 / (d as f32).sqrt();
                let skip = (n - keep) * d;
                let mut q_full = vec![0.0f32; skip];
                q_full.extend_from_slice(q.data());
                let mut g_full = vec![0.0f32; skip];
                g_full.extend_from_slice(g_out.data());

                let (k, v) = (k.data(), v.data());
                let (mut sq_probs, mut sq_out) = (vec![0.0f32; n * n], vec![0.0f32; n * d]);
                causal_attention_train_forward(&q_full, k, v, n, d, scale, &mut sq_probs, &mut sq_out);
                let (mut probs, mut out) = (vec![f32::NAN; keep * n], vec![f32::NAN; keep * d]);
                causal_attention_train_rows_forward(q.data(), k, v, n, d, scale, &mut probs, &mut out);
                let what = format!("n={n}, keep={keep}, d={d}");
                assert_eq!(bits(&probs), bits(&sq_probs[(n - keep) * n..]), "{what}: probs");
                assert_eq!(bits(&out), bits(&sq_out[skip..]), "{what}: out");

                let mut sq = [vec![0.0f32; n * d], vec![0.0f32; n * d], vec![0.0f32; n * d]];
                let [sq_dq, sq_dk, sq_dv] = &mut sq;
                let mut scratch = vec![0.0f32; n * n];
                let (sq_p, g) = (&sq_probs, g_out.data());
                causal_attention_train_backward(
                    &q_full, k, v, sq_p, &g_full, n, d, scale, sq_dq, sq_dk, sq_dv, &mut scratch,
                );
                let mut dq = vec![f32::NAN; keep * d];
                let (mut dk, mut dv) = (vec![f32::NAN; n * d], vec![f32::NAN; n * d]);
                causal_attention_train_rows_backward(
                    q.data(), k, v, &probs, g, n, d, scale, &mut dq, &mut dk, &mut dv, &mut scratch,
                );
                assert_eq!(bits(&dq), bits(&sq_dq[skip..]), "{what}: dq");
                assert_eq!(bits(&dk), bits(sq_dk), "{what}: dk");
                assert_eq!(bits(&dv), bits(sq_dv), "{what}: dv");
            }
        }
    }

    fn bits(data: &[f32]) -> Vec<u32> {
        data.iter().map(|v| v.to_bits()).collect()
    }

    #[test]
    fn first_row_attends_only_to_itself() {
        // Row 0's output must be exactly v[0] (softmax over one score = 1).
        let mut rng = StdRng::seed_from_u64(7);
        let (n, d) = (4, 6);
        let q = init::randn(&mut rng, &[n, d], 0.0, 1.0);
        let k = init::randn(&mut rng, &[n, d], 0.0, 1.0);
        let v = init::randn(&mut rng, &[n, d], 0.0, 1.0);
        let mut scores = vec![0.0f32; n];
        let mut out = vec![0.0f32; n * d];
        causal_attention_into(q.data(), k.data(), v.data(), n, d, 0.5, &mut scores, &mut out);
        for (o, &vv) in out[..d].iter().zip(&v.data()[..d]) {
            assert_eq!(o.to_bits(), (1.0f32 * vv).to_bits());
        }
    }
}
