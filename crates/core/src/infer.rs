//! Graph-free inference (DESIGN.md §10): one pass, one oracle.
//!
//! The autograd [`Graph`](vsan_autograd::Graph) exists to record a tape
//! for the backward pass; at serve time that is pure overhead — every op
//! allocates a fresh `Tensor`, pushes a node, and clones parameters into
//! the tape. This module executes the same eval forward (embedding
//! gather → h₁ inference blocks → μ head → h₂ generative blocks →
//! last-position logits, `z = μ_λ` per §IV-E of the paper) directly on
//! `vsan-tensor` kernels:
//!
//! - [`InferencePlan`] pre-resolves the parameter ids the forward needs,
//!   in execution order, so the hot loop is just slice lookups;
//! - [`Workspace`] owns every intermediate buffer, sized once from the
//!   config and reused across batches (a serve worker holds one for its
//!   whole life — steady-state batches allocate only the output rows);
//! - the kernels ([`causal_attention_rows_into`], `matmul_into_parallel`,
//!   `layer_norm_rows_into`) fold every output element in the exact
//!   per-row order the graph ops use, so the logits are **bit-identical**
//!   to the graph path — the determinism invariant the serve cache, the
//!   chaos suite, and `tests/golden_logits.rs` rest on.
//!
//! There is one implementation: `InferencePlan::run` over one `block`.
//! A block's K/V window is a read-only *prefix* of already-valid rows
//! followed by a *tail* of rows projected now, and only the last *keep*
//! tail rows of the last block are queried. Each entry point is a
//! `(prefix, tail, keep)` triple per sample, not a code path:
//!
//! | entry point | triple | K/V tail lands in |
//! |---|---|---|
//! | `execute_hidden` / `execute` | `(start, n-start, 1)`; earlier blocks keep all | workspace scratch |
//! | `prepare_session` | `(start, m-start, 0)`; earlier blocks keep all | the `SessionState` |
//! | `append_session` | `(m, 1, 1)` | workspace scratch; the state is only read |
//!
//! (`n` is the window width, `m = n-1`, `start` the leading padding slots
//! the all-padding state already covers — for a batch, the padding its
//! longest history leaves.)
//!
//! The only other forward is the one that trains, on the autograd tape:
//! `Vsan::score_items_batch_graph` runs it in evaluation mode (dropout
//! off, `z = μ_λ`, the last rows read out) on the reference tier as the
//! oracle, which tests call by name and no serving entry point routes to.

use std::cell::RefCell;

use vsan_data::sequence::pad_left;
use vsan_nn::{Linear, ParamId, ParamStore, SelfAttentionBlock};
use vsan_tensor::ops::attention::{attention_scratch_len, causal_attention_rows_into};
use vsan_tensor::ops::norm::{layer_norm_rows_into, LN_EPS};
use vsan_tensor::parallel::matmul_into_parallel;

/// One attention block's pre-resolved parameters.
struct BlockPlan {
    wq: ParamId,
    wk: ParamId,
    wv: ParamId,
    ln1_gamma: ParamId,
    ln1_beta: ParamId,
    ffn: Option<FfnPlan>,
}

/// The point-wise FFN sublayer's parameters (always biased).
struct FfnPlan {
    w1: ParamId,
    b1: ParamId,
    w2: ParamId,
    b2: ParamId,
    ln2_gamma: ParamId,
    ln2_beta: ParamId,
}

impl BlockPlan {
    fn from_block(block: &SelfAttentionBlock) -> Self {
        let ffn = block.ffn_parts().map(|(w1, w2, ln2)| FfnPlan {
            w1: w1.w,
            b1: w1.b.expect("FFN w1 is biased"),
            w2: w2.w,
            b2: w2.b.expect("FFN w2 is biased"),
            ln2_gamma: ln2.gamma,
            ln2_beta: ln2.beta,
        });
        BlockPlan {
            wq: block.wq().w,
            wk: block.wk().w,
            wv: block.wv().w,
            ln1_gamma: block.ln1().gamma,
            ln1_beta: block.ln1().beta,
            ffn,
        }
    }
}

/// Where one block's key/value window lives — the one decision every
/// entry point makes (DESIGN.md §10): a read-only **prefix** of rows that
/// are already valid, then the **tail** rows this pass projects, cached
/// in place when the caller keeps them and left in workspace scratch
/// otherwise.
struct KvWindow<'a> {
    k_prefix: &'a [f32],
    v_prefix: &'a [f32],
    tail: Option<(&'a mut [f32], &'a mut [f32])>,
}

/// The eval forward, compiled to a flat parameter-id schedule.
///
/// Built once per model (ids stay valid across checkpoint restores —
/// `load_values` replaces tensor contents, never ids) and executed
/// against a [`Workspace`].
pub struct InferencePlan {
    item_table: ParamId,
    pos_table: ParamId,
    infer_blocks: Vec<BlockPlan>,
    /// `None` for VSAN-z (`use_latent = false`): h feeds the generative
    /// stack directly.
    mu: Option<(ParamId, ParamId)>,
    gene_blocks: Vec<BlockPlan>,
    /// `None` in tied mode (scores against the item table instead).
    prediction: Option<(ParamId, ParamId)>,
    n: usize,
    d: usize,
    vocab: usize,
    threads: usize,
}

impl InferencePlan {
    /// Resolve the schedule from the model's layers.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn new(
        item_table: ParamId,
        pos_table: ParamId,
        infer_blocks: &[SelfAttentionBlock],
        mu_head: &Linear,
        gene_blocks: &[SelfAttentionBlock],
        prediction: &Linear,
        cfg: &crate::VsanConfig,
        vocab: usize,
    ) -> Self {
        InferencePlan {
            item_table,
            pos_table,
            infer_blocks: infer_blocks.iter().map(BlockPlan::from_block).collect(),
            mu: cfg
                .use_latent
                .then(|| (mu_head.w, mu_head.b.expect("mu head is biased"))),
            gene_blocks: gene_blocks.iter().map(BlockPlan::from_block).collect(),
            prediction: (!cfg.tie_prediction)
                .then(|| (prediction.w, prediction.b.expect("prediction layer is biased"))),
            n: cfg.base.max_seq_len,
            d: cfg.base.dim,
            vocab,
            threads: cfg.base.threads,
        }
    }

    /// Run the forward for `fold_ins` into `ws`, returning one logit row
    /// per history. Errors on out-of-vocabulary item ids (the same
    /// condition the graph path's `gather_rows` rejects).
    pub(crate) fn execute(
        &self,
        store: &ParamStore,
        fold_ins: &[&[u32]],
        pad: &SessionState,
        ws: &mut Workspace,
    ) -> Result<Vec<Vec<f32>>, String> {
        let b = self.execute_hidden(store, fold_ins, pad, ws)?;
        if b == 0 {
            return Ok(Vec::new());
        }
        self.project_logits(store, b, ws);
        Ok(ws.logits[..b * self.vocab].chunks(self.vocab).map(<[f32]>::to_vec).collect())
    }

    /// The forward up to (and including) each history's final hidden row:
    /// the pass `(start, n − start, 1)` per history, leaving one `(d,)`
    /// row each in [`Workspace::last_rows`]. Returns the batch size. This
    /// is the shared prefix of the dense projection
    /// ([`Self::project_logits`]) and the clustered retrieval path, which
    /// scores the same rows against a centroid index instead of the full
    /// vocabulary.
    ///
    /// `start` is the leading padding every history of the batch shares.
    /// Those rows attend only to other padding rows, so their K/V are read
    /// from `pad` — this model's all-padding state, the donor of
    /// [`Self::prepare_session`] — instead of recomputed: a short history
    /// costs its own length, not the window's.
    pub(crate) fn execute_hidden(
        &self,
        store: &ParamStore,
        fold_ins: &[&[u32]],
        pad: &SessionState,
        ws: &mut Workspace,
    ) -> Result<usize, String> {
        let b = fold_ins.len();
        if b == 0 {
            return Ok(0);
        }
        let (n, d) = (self.n, self.d);
        let total = self.infer_blocks.len() + self.gene_blocks.len();
        if !pad.prepared || pad.m != n.saturating_sub(1) || pad.blocks.len() != total {
            return Err("pad state is not prepared for this model".into());
        }
        let longest = fold_ins.iter().map(|f| f.len()).max().unwrap_or(0);
        let start = (n - longest.min(n)).min(pad.m);
        let tail = n - start;
        ws.ensure(b * tail, d, n, b * self.vocab);
        for (fold_in, rows) in fold_ins.iter().zip(ws.h.chunks_exact_mut(tail * d)) {
            self.embed(store, &pad_left(fold_in, n)[start..], start, rows)?;
        }
        let windows = pad.blocks.iter().map(|kv| KvWindow {
            k_prefix: &kv.k[..start * d],
            v_prefix: &kv.v[..start * d],
            tail: None,
        });
        self.run(store, b, tail, 1, windows, ws);
        Ok(b)
    }

    /// Project the `b` hidden rows a pass left in [`Workspace::last_rows`]
    /// to full-vocabulary logits (Eq. 19) in `ws.logits[..b·vocab]`.
    pub(crate) fn project_logits(&self, store: &ParamStore, b: usize, ws: &mut Workspace) {
        let (d, vocab) = (self.d, self.vocab);
        let (last, logits) = (&ws.h[..b * d], &mut ws.logits[..b * vocab]);
        match self.prediction {
            Some((w, bias)) => self.linear(store, last, w, Some(bias), logits),
            // Tied mode: score against the item-embedding table, exactly
            // the graph's `matmul_a_bt(last, table)`.
            None => vsan_tensor::ops::matmul_a_bt_into(
                last,
                store.get(self.item_table).data(),
                logits,
                b,
                d,
                vocab,
            ),
        }
    }

    /// Embedding layer (Eq. 4): row `r` of `dst` = the item row of
    /// `window[r]` + the position row of slot `first_slot + r`.
    fn embed(
        &self,
        store: &ParamStore,
        window: &[u32],
        first_slot: usize,
        dst: &mut [f32],
    ) -> Result<(), String> {
        let d = self.d;
        let table = store.get(self.item_table).data();
        let pos = &store.get(self.pos_table).data()[first_slot * d..];
        let rows = dst.chunks_exact_mut(d).zip(pos.chunks_exact(d));
        for (&item, (h_row, p_row)) in window.iter().zip(rows) {
            let item = item as usize;
            if item >= self.vocab {
                return Err(format!("item id {item} out of vocabulary ({})", self.vocab));
            }
            h_row.copy_from_slice(&table[item * d..(item + 1) * d]);
            for (hv, &pv) in h_row.iter_mut().zip(p_row) {
                *hv += pv;
            }
        }
        Ok(())
    }

    /// `dst = x · store[w] (+ bias)` over the flat `(rows, d)` input — the
    /// graph's `Linear::forward` without the tape, batched over every row
    /// in one `matmul_into_parallel`.
    fn linear(&self, store: &ParamStore, x: &[f32], w: ParamId, bias: Option<ParamId>, dst: &mut [f32]) {
        let rows = x.len() / self.d;
        if rows == 0 {
            return;
        }
        dst.fill(0.0);
        matmul_into_parallel(x, store.get(w).data(), dst, rows, self.d, dst.len() / rows, self.threads);
        if let Some(bias) = bias {
            let bias = store.get(bias).data();
            for row in dst.chunks_exact_mut(bias.len()) {
                for (xv, &bv) in row.iter_mut().zip(bias) {
                    *xv += bv;
                }
            }
        }
    }

    /// Residual + LayerNorm (Eqs. 7, 9): `x = LN(sub + x)`, clobbering
    /// the sublayer output `sub`.
    fn residual_norm(
        &self,
        store: &ParamStore,
        sub: &mut [f32],
        gamma: ParamId,
        beta: ParamId,
        x: &mut [f32],
    ) {
        for (sv, &xv) in sub.iter_mut().zip(x.iter()) {
            *sv += xv;
        }
        let (gamma, beta) = (store.get(gamma).data(), store.get(beta).data());
        layer_norm_rows_into(sub, gamma, beta, LN_EPS, x.len() / self.d, self.d, x);
    }

    /// The one pass behind every entry point: everything after the
    /// embedding, over the `b · tail` rows in `ws.h` (`tail` consecutive
    /// window slots per sample). Each block takes its K/V window from
    /// `windows`; every block but the last in inference → generative
    /// order keeps all `tail` rows — they are the next block's keys and
    /// values — and the last keeps only `keep`, because its other rows
    /// feed nothing (DESIGN.md §10). `z = μ_λ` (§IV-E, no sampling) sits
    /// between the stacks and is row-local, so it runs on whatever rows
    /// are still live. Leaves the `b · keep` final rows packed at the
    /// front of `ws.h`.
    fn run<'a>(
        &self,
        store: &ParamStore,
        b: usize,
        tail: usize,
        keep: usize,
        mut windows: impl Iterator<Item = KvWindow<'a>>,
        ws: &mut Workspace,
    ) {
        let last = self.infer_blocks.len() + self.gene_blocks.len();
        let mut done = 0;
        let mut stack = |blocks: &[BlockPlan], mut live: usize, ws: &mut Workspace| {
            for plan in blocks {
                done += 1;
                live = if done == last { keep } else { tail };
                let kv = windows.next().expect("one K/V window per block");
                self.block(store, plan, (b, tail, live), kv, ws);
            }
            live
        };
        // Inference self-attention layer (Eqs. 5–11), dropout off.
        let mut live = stack(&self.infer_blocks, tail, ws);
        if self.gene_blocks.is_empty() {
            // Nothing downstream reads the other rows. The last inference
            // block already dropped them; this only moves data for a
            // model with no block at all.
            compact_rows(&mut ws.h, b, live, keep, self.d);
            live = keep;
        }
        // Latent variable layer at eval: z = μ_λ, no sampling (§IV-E).
        if let Some((w, bias)) = self.mu {
            let len = b * live * self.d;
            self.linear(store, &ws.h[..len], w, Some(bias), &mut ws.q[..len]);
            std::mem::swap(&mut ws.h, &mut ws.q);
        }
        // Generative self-attention layer (Eqs. 15–17).
        stack(&self.gene_blocks, live, ws);
    }

    /// One self-attention block over `ws.h` in place, mirroring
    /// [`SelfAttentionBlock::forward`] op for op (eval mode: the dropout
    /// between attention and residual is the identity) for the rows the
    /// `(b, tail, keep)` shape asks for: K/V are projected for all
    /// `b · tail` input rows, then only each sample's last `keep` rows are
    /// packed to the front, queried against `prefix + tail` keys, and
    /// carried through residual+LN and the FFN. Every kernel involved
    /// folds each row independently, so a kept row's bits do not depend
    /// on which other rows were kept.
    fn block(
        &self,
        store: &ParamStore,
        plan: &BlockPlan,
        (b, tail, keep): (usize, usize, usize),
        kv: KvWindow<'_>,
        ws: &mut Workspace,
    ) {
        let d = self.d;
        let Workspace { h, q, k, v, tmp, score, .. } = ws;
        let x_all = &h[..b * tail * d];
        let (k_tail, v_tail) = match kv.tail {
            Some(cached) => cached,
            None => (&mut k[..x_all.len()], &mut v[..x_all.len()]),
        };
        self.linear(store, x_all, plan.wk, None, k_tail);
        self.linear(store, x_all, plan.wv, None, v_tail);
        compact_rows(h, b, tail, keep, d);
        let kept = b * keep * d;
        if kept == 0 {
            return;
        }
        let (x, q, tmp) = (&mut h[..kept], &mut q[..kept], &mut tmp[..kept]);
        self.linear(store, x, plan.wq, None, q);
        let scale = 1.0 / (d as f32).sqrt();
        let samples = q.chunks_exact(keep * d).zip(tmp.chunks_exact_mut(keep * d));
        let tails = k_tail.chunks_exact(tail * d).zip(v_tail.chunks_exact(tail * d));
        for ((q_s, out_s), (k_s, v_s)) in samples.zip(tails) {
            causal_attention_rows_into(q_s, kv.k_prefix, k_s, kv.v_prefix, v_s, d, scale, score, out_s);
        }
        self.residual_norm(store, tmp, plan.ln1_gamma, plan.ln1_beta, x);
        // Point-wise FFN + residual + LayerNorm (Eqs. 8–9), if enabled.
        if let Some(ffn) = &plan.ffn {
            self.linear(store, x, ffn.w1, Some(ffn.b1), q);
            for a in q.iter_mut() {
                *a = a.max(0.0);
            }
            self.linear(store, q, ffn.w2, Some(ffn.b2), tmp);
            self.residual_norm(store, tmp, ffn.ln2_gamma, ffn.ln2_beta, x);
        }
    }

    /// Prepare `state` for incremental appends onto `history`: the pass
    /// `(start, m − start, 0)` over the `(n-1)`-slot window
    /// `pad_left(history, n-1)`, caching every block's K/V projections.
    ///
    /// Because histories are **left-padded** to the fixed window and
    /// position embeddings are slot-absolute, appending an item re-aligns
    /// every slot — naive per-append K/V reuse is *not* bit-exact here.
    /// What causality does guarantee is slot-aligned prefix determinism:
    /// the `(n-1)`-prefix window occupies slots `0..n-2` of the next full
    /// `n`-window *for any appended item*, with identical position rows,
    /// so this prepared state yields exactly the first `n-1` rows of
    /// every block of the next full forward.
    ///
    /// `donor` (normally the all-padding state from preparing an empty
    /// history) lets the leading `pads` all-padding rows be copied
    /// instead of recomputed (`start = pads`, else 0): those rows attend
    /// only to other padding rows, so they are bit-identical across
    /// windows. With a donor, the per-prepare cost is `O(min(len, n-1))`
    /// rows instead of `O(n)`.
    ///
    /// `keep = 0`: the last block only gets its K/V cached — its output
    /// feeds nothing that [`InferencePlan::append_session`] does not
    /// recompute for the one new row.
    pub(crate) fn prepare_session(
        &self,
        store: &ParamStore,
        history: &[u32],
        donor: Option<&SessionState>,
        state: &mut SessionState,
        ws: &mut Workspace,
    ) -> Result<(), String> {
        let (n, d) = (self.n, self.d);
        let m = n.saturating_sub(1);
        let total = self.infer_blocks.len() + self.gene_blocks.len();
        let window = pad_left(history, m);
        let pads = m - history.len().min(m);
        if let Some(donor) = donor {
            if !donor.prepared || donor.m != m || donor.blocks.len() != total || donor.pads < pads
            {
                return Err("session donor does not cover this window's padding prefix".into());
            }
        }
        let start = if donor.is_some() { pads } else { 0 };

        state.prepared = false;
        state.m = m;
        state.pads = pads;
        state.blocks.resize_with(total, LayerKv::default);
        for kv in &mut state.blocks {
            kv.k.resize(m * d, 0.0);
            kv.v.resize(m * d, 0.0);
        }
        if let Some(donor) = donor {
            for (dst, src) in state.blocks.iter_mut().zip(&donor.blocks) {
                dst.k[..start * d].copy_from_slice(&src.k[..start * d]);
                dst.v[..start * d].copy_from_slice(&src.v[..start * d]);
            }
        }

        let tail = m - start;
        if tail > 0 {
            ws.ensure(tail, d, n, self.vocab);
            self.embed(store, &window[start..], start, &mut ws.h[..tail * d])?;
            let windows = state.blocks.iter_mut().map(|kv| {
                let (k_prefix, k_tail) = kv.k.split_at_mut(start * d);
                let (v_prefix, v_tail) = kv.v.split_at_mut(start * d);
                KvWindow { k_prefix, v_prefix, tail: Some((k_tail, v_tail)) }
            });
            self.run(store, 1, tail, 0, windows, ws);
        }
        state.prepared = true;
        Ok(())
    }

    /// Fold one new event into a prepared session: the pass `(m, 1, 1)`.
    /// The appended item lands in slot `n-1` of the full window, so one
    /// embedding row and one q/k/v row per block against the cached
    /// prefix reproduce `execute` on `pad_left(history ++ [item], n)`
    /// **bit-for-bit** — `tests/session_incremental.rs` holds this to the
    /// graph oracle.
    ///
    /// The state is borrowed immutably: folding the new row *into* the
    /// cache would shift slot alignment (see [`Self::prepare_session`]).
    /// The caller re-prepares instead — the session runtime does so
    /// synchronously, before it returns this event's logits, so a warm
    /// event costs this pass plus one prepare (DESIGN.md §11 has the
    /// measured split).
    pub(crate) fn append_session(
        &self,
        store: &ParamStore,
        state: &SessionState,
        item: u32,
        ws: &mut Workspace,
    ) -> Result<Vec<f32>, String> {
        let (n, d) = (self.n, self.d);
        let m = n.saturating_sub(1);
        let total = self.infer_blocks.len() + self.gene_blocks.len();
        if !state.prepared || state.m != m || state.blocks.len() != total {
            return Err("session state is not prepared for this model".into());
        }
        ws.ensure(1, d, n, self.vocab);
        self.embed(store, &[item], m, &mut ws.h[..d])?;
        let windows =
            state.blocks.iter().map(|kv| KvWindow { k_prefix: &kv.k, v_prefix: &kv.v, tail: None });
        self.run(store, 1, 1, 1, windows, ws);
        self.project_logits(store, 1, ws);
        Ok(ws.logits[..self.vocab].to_vec())
    }
}

/// Keep the last `keep` of every sample's `per` rows, packed to the front
/// of `buf` in sample order (a no-op when every row is kept).
fn compact_rows(buf: &mut [f32], b: usize, per: usize, keep: usize, d: usize) {
    if keep < per {
        for s in 0..b {
            buf.copy_within(((s + 1) * per - keep) * d..(s + 1) * per * d, s * keep * d);
        }
    }
}

/// Per-block cached key/value projections of a prepared session window
/// (`m` rows × `d` columns each, flat row-major).
#[derive(Debug, Default, Clone)]
struct LayerKv {
    k: Vec<f32>,
    v: Vec<f32>,
}

/// Prepared incremental-session state (DESIGN.md §11): every attention
/// block's K/V projections over the `(n-1)`-slot prefix window of a
/// history, ready for O(n·d²)-per-event folding via
/// [`crate::Vsan::append_session_logits`].
///
/// The state is a *window* cache, not an LLM-style growing KV cache:
/// VSAN left-pads to a fixed window with slot-absolute positions, so the
/// invariant that makes appends bit-exact is slot-aligned prefix
/// determinism, not append-only growth. See the DESIGN.md section for
/// the full argument.
#[derive(Debug, Default, Clone)]
pub struct SessionState {
    /// Cached slots per block — `n - 1` for the owning model.
    m: usize,
    /// Leading all-padding slots of the prepared window.
    pads: usize,
    /// Set once every block's buffers hold a consistent window.
    prepared: bool,
    blocks: Vec<LayerKv>,
}

impl SessionState {
    /// An unprepared state; appending into it errors until a prepare
    /// fills it.
    pub fn new() -> Self {
        Self::default()
    }

    /// `true` once the state holds a fully prepared window.
    pub fn is_prepared(&self) -> bool {
        self.prepared
    }

    /// Cached slots per block (`n - 1`); 0 until first prepared.
    pub fn slots(&self) -> usize {
        self.m
    }

    /// Leading all-padding slots of the prepared window.
    pub fn pad_slots(&self) -> usize {
        self.pads
    }

    /// Real (non-padding) history slots materialised in the window.
    pub fn real_slots(&self) -> usize {
        self.m - self.pads
    }

    /// Resident bytes of the cached K/V buffers (capacity, so it tracks
    /// what eviction actually frees).
    pub fn bytes(&self) -> usize {
        self.blocks
            .iter()
            .map(|kv| (kv.k.capacity() + kv.v.capacity()) * std::mem::size_of::<f32>())
            .sum()
    }

    /// Mark the state unprepared; buffers are kept for reuse by the next
    /// prepare.
    pub fn clear(&mut self) {
        self.prepared = false;
    }
}

/// Reusable buffer arena for [`InferencePlan`] passes.
///
/// All buffers grow to the high-water mark of the batches they serve and
/// are then reused as-is: a serve worker that processes same-shaped
/// batches allocates nothing after the first one. One workspace serves
/// one thread — the serve worker pool holds one per worker.
#[derive(Debug, Default)]
pub struct Workspace {
    /// Current activations, `(rows, d)`; a pass leaves its final kept
    /// rows packed at the front.
    h: Vec<f32>,
    /// Projection / FFN scratch, `(rows, d)` each.
    q: Vec<f32>,
    k: Vec<f32>,
    v: Vec<f32>,
    /// Attention-output / residual scratch, `(rows, d)`.
    tmp: Vec<f32>,
    /// Attention scratch for one sample: the transposed `(d, n)` key
    /// window plus a block of score rows ([`attention_scratch_len`]).
    score: Vec<f32>,
    /// Output logits, `(b, vocab)`.
    logits: Vec<f32>,
}

impl Workspace {
    /// An empty workspace; buffers are sized on first use.
    pub fn new() -> Self {
        Self::default()
    }

    /// Pre-size for batches of `max_batch` histories under `cfg` (what a
    /// serve worker does at startup so the hot path never grows).
    pub fn for_config(cfg: &crate::VsanConfig, vocab: usize, max_batch: usize) -> Self {
        let mut ws = Self::new();
        let b = max_batch.max(1);
        ws.ensure(b * cfg.base.max_seq_len, cfg.base.dim, cfg.base.max_seq_len, b * vocab);
        ws
    }

    /// Grow every buffer to the sizes this pass needs (no-op once at the
    /// high-water mark).
    fn ensure(&mut self, rows: usize, d: usize, n: usize, logits: usize) {
        // q also holds the μ-head output that is swapped into `h`, so it
        // must be exactly as long as `h` for the swap to be shape-safe.
        for buf in [&mut self.h, &mut self.q, &mut self.k, &mut self.v, &mut self.tmp] {
            grow(buf, rows * d);
        }
        grow(&mut self.score, attention_scratch_len(n, n, d));
        grow(&mut self.logits, logits);
    }

    /// The `b` final hidden rows left by [`InferencePlan::execute_hidden`],
    /// flat `(b, d)` — read by the clustered retrieval path.
    pub(crate) fn last_rows(&self, b: usize, d: usize) -> &[f32] {
        &self.h[..b * d]
    }
}

fn grow(buf: &mut Vec<f32>, len: usize) {
    if buf.len() < len {
        buf.resize(len, 0.0);
    }
}

/// Run `f` with this thread's lazily-created workspace — the fallback
/// for callers that do not hold a [`Workspace`] of their own (offline
/// eval, tests). Dedicated workers should own one explicitly.
pub(crate) fn with_thread_workspace<T>(f: impl FnOnce(&mut Workspace) -> T) -> T {
    thread_local! {
        static WORKSPACE: RefCell<Workspace> = RefCell::new(Workspace::new());
    }
    WORKSPACE.with(|ws| f(&mut ws.borrow_mut()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Vsan, VsanConfig};

    fn capacities(ws: &Workspace) -> [usize; 7] {
        let Workspace { h, q, k, v, tmp, score, logits } = ws;
        [h, q, k, v, tmp, score, logits].map(Vec::capacity)
    }

    /// Every pass grows the workspace to its own high-water mark and no
    /// further: a second same-shaped pass — and any pass on a workspace
    /// pre-sized by `for_config` — leaves each buffer's capacity as it was.
    #[test]
    fn same_shaped_passes_never_regrow_the_workspace() {
        let vocab = 30;
        let model = Vsan::init(vocab, &VsanConfig::smoke());
        let n = model.config().base.max_seq_len;
        let long: Vec<u32> = (0..n as u32 + 3).map(|i| i % (vocab as u32 - 1) + 1).collect();
        let batch: [&[u32]; 2] = [&long, &long[..2]];
        let pad = model.pad_session_state().unwrap();
        let mut state = SessionState::new();
        let mut passes = |ws: &mut Workspace| {
            model.try_last_hidden_batch_with(&batch, ws).unwrap();
            model.prepare_session_into(&long, Some(&pad), &mut state, ws).unwrap();
            model.append_session_logits(&state, 1, ws).unwrap();
        };

        let mut grown = Workspace::new();
        passes(&mut grown);
        let after_first = capacities(&grown);
        passes(&mut grown);
        assert_eq!(capacities(&grown), after_first);

        let mut presized = model.workspace(batch.len());
        let at_startup = capacities(&presized);
        passes(&mut presized);
        assert_eq!(capacities(&presized), at_startup);
    }
}
