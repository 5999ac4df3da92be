//! The tape: forward builders and the reverse pass.

use crate::op::Op;
use crate::{GradError, Result};
use std::collections::HashMap;
use vsan_tensor::ops as tops;
use vsan_tensor::ops::norm::LN_EPS;
use vsan_tensor::{parallel, KernelTier, Shape, Tensor, TensorError};

/// A handle to a node on a [`Graph`]'s tape.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Var(pub(crate) usize);

struct Node {
    value: Tensor,
    op: Op,
    /// `true` when any ancestor is a parameter — lets backward skip
    /// constant subtrees.
    needs_grad: bool,
}

/// A define-by-run tape. Build one per forward pass, call
/// [`Graph::backward`] once, then read parameter gradients from the
/// returned [`Gradients`].
///
/// A graph carries a [`KernelTier`] chosen at construction, which decides
/// the four ops that have two implementations: the three dense products
/// ([`KernelTier::matmul`], [`KernelTier::matmul_a_bt`],
/// [`KernelTier::matmul_at_b`], forward and backward) and
/// [`Graph::causal_attention_batch`] (composed chains vs one fused node).
/// Every other op is one kernel on both tiers. The default ([`Graph::new`],
/// [`Graph::with_threads`]) is [`KernelTier::Reference`] — the original
/// scalar product loops — so every existing call site, including the
/// inference graph *oracle* and the finite-difference gradcheck, keeps
/// its independent implementation. Training drivers opt into
/// [`KernelTier::Fast`] explicitly via [`Graph::with_threads_and_tier`];
/// both tiers produce bit-identical values and gradients (the fold-order
/// contract in `vsan-tensor`'s `ops::matmul` header, enforced by the
/// tier-differential test wall).
///
/// Every value and saved matrix is a plain allocation that lives until
/// the tape is dropped; a gradient buffer lives until the reverse pass
/// has propagated it (DESIGN.md §14).
pub struct Graph {
    nodes: Vec<Node>,
    threads: usize,
    tier: KernelTier,
}

impl Default for Graph {
    fn default() -> Self {
        Self::new()
    }
}

impl Graph {
    /// Empty tape using the machine's default parallelism for large matmuls.
    pub fn new() -> Self {
        Self::with_threads_and_tier(parallel::default_threads(), KernelTier::Reference)
    }

    /// Empty tape with an explicit worker-thread count.
    pub fn with_threads(threads: usize) -> Self {
        Self::with_threads_and_tier(threads, KernelTier::Reference)
    }

    /// Empty tape with an explicit worker-thread count and kernel tier.
    pub fn with_threads_and_tier(threads: usize, tier: KernelTier) -> Self {
        Graph { nodes: Vec::with_capacity(256), threads: threads.max(1), tier }
    }

    /// The kernel tier this tape runs on.
    pub fn kernel_tier(&self) -> KernelTier {
        self.tier
    }

    /// Number of nodes currently on the tape.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// `true` when the tape is empty.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Forward value of a variable.
    pub fn value(&self, v: Var) -> &Tensor {
        &self.nodes[v.0].value
    }

    /// Op name of a variable's producing node (for debugging).
    pub fn op_name(&self, v: Var) -> &'static str {
        self.nodes[v.0].op.name()
    }

    fn push(&mut self, value: Tensor, op: Op, needs_grad: bool) -> Var {
        self.nodes.push(Node { value, op, needs_grad });
        Var(self.nodes.len() - 1)
    }

    fn needs(&self, ids: &[usize]) -> bool {
        ids.iter().any(|&i| self.nodes[i].needs_grad)
    }

    fn check_same(&self, a: Var, b: Var, op: &'static str) -> Result<()> {
        let (av, bv) = (self.value(a), self.value(b));
        if !av.shape().same_as(bv.shape()) {
            return Err(GradError::Tensor(TensorError::ShapeMismatch {
                lhs: av.dims().to_vec(),
                rhs: bv.dims().to_vec(),
                op,
            }));
        }
        Ok(())
    }

    /// `s · g`.
    fn scale_alloc(&self, g: &Tensor, s: f32) -> Tensor {
        let mut out = Tensor::zeros(g.dims());
        tops::scale_into(g.data(), s, out.data_mut());
        out
    }

    /// Elementwise product.
    fn hadamard_alloc(&self, a: &Tensor, b: &Tensor) -> Result<Tensor> {
        if !a.shape().same_as(b.shape()) {
            return Err(GradError::Tensor(TensorError::ShapeMismatch {
                lhs: a.dims().to_vec(),
                rhs: b.dims().to_vec(),
                op: "hadamard",
            }));
        }
        let mut out = Tensor::zeros(a.dims());
        tops::hadamard_into(a.data(), b.data(), out.data_mut());
        Ok(out)
    }

    // ---- inputs ---------------------------------------------------------

    /// Insert a constant (gradient never flows into it).
    pub fn constant(&mut self, t: Tensor) -> Var {
        self.push(t, Op::Leaf { param_key: None }, false)
    }

    /// Insert a trainable parameter; its gradient is reported under `key`.
    pub fn param(&mut self, t: Tensor, key: usize) -> Var {
        self.push(t, Op::Leaf { param_key: Some(key) }, true)
    }

    // ---- elementwise ----------------------------------------------------

    /// Elementwise sum.
    pub fn add(&mut self, a: Var, b: Var) -> Result<Var> {
        self.check_same(a, b, "add")?;
        let mut v = Tensor::zeros(self.value(a).dims());
        tops::add_into(self.value(a).data(), self.value(b).data(), v.data_mut());
        Ok(self.push(v, Op::Add(a.0, b.0), self.needs(&[a.0, b.0])))
    }

    /// Elementwise difference.
    pub fn sub(&mut self, a: Var, b: Var) -> Result<Var> {
        self.check_same(a, b, "sub")?;
        let mut v = Tensor::zeros(self.value(a).dims());
        tops::sub_into(self.value(a).data(), self.value(b).data(), v.data_mut());
        Ok(self.push(v, Op::Sub(a.0, b.0), self.needs(&[a.0, b.0])))
    }

    /// Elementwise product.
    pub fn mul(&mut self, a: Var, b: Var) -> Result<Var> {
        self.check_same(a, b, "hadamard")?;
        let mut v = Tensor::zeros(self.value(a).dims());
        tops::hadamard_into(self.value(a).data(), self.value(b).data(), v.data_mut());
        Ok(self.push(v, Op::Mul(a.0, b.0), self.needs(&[a.0, b.0])))
    }

    /// Elementwise affine map `scale·x + shift`.
    pub fn affine(&mut self, x: Var, scale: f32, shift: f32) -> Var {
        let mut v = Tensor::zeros(self.value(x).dims());
        tops::affine_into(self.value(x).data(), scale, shift, v.data_mut());
        let ng = self.nodes[x.0].needs_grad;
        self.push(v, Op::Affine { x: x.0, scale, shift }, ng)
    }

    /// Scalar multiple `s·x`.
    pub fn scale(&mut self, x: Var, s: f32) -> Var {
        self.affine(x, s, 0.0)
    }

    /// Broadcast-add a `(cols,)` bias to every row of a rank-2 input.
    pub fn add_row_broadcast(&mut self, x: Var, bias: Var) -> Result<Var> {
        let (rows, cols) = self.value(x).shape().as_2d()?;
        if self.value(bias).dims() != [cols] {
            return Err(GradError::Tensor(TensorError::ShapeMismatch {
                lhs: self.value(x).dims().to_vec(),
                rhs: self.value(bias).dims().to_vec(),
                op: "add_row_broadcast",
            }));
        }
        let mut v = Tensor::zeros(&[rows, cols]);
        tops::add_row_broadcast_into(
            self.value(x).data(),
            self.value(bias).data(),
            v.data_mut(),
            rows,
            cols,
        );
        Ok(self.push(v, Op::AddRowBroadcast { x: x.0, bias: bias.0 }, self.needs(&[x.0, bias.0])))
    }

    // ---- linear algebra --------------------------------------------------

    /// Dense matmul; automatically goes parallel for large problems.
    pub fn matmul(&mut self, a: Var, b: Var) -> Result<Var> {
        let v = self.tier.matmul(self.value(a), self.value(b), self.threads)?;
        Ok(self.push(v, Op::MatMul(a.0, b.0), self.needs(&[a.0, b.0])))
    }

    /// `A · Bᵀ` without materializing the transpose (attention scores).
    pub fn matmul_a_bt(&mut self, a: Var, b: Var) -> Result<Var> {
        let v = self.tier.matmul_a_bt(self.value(a), self.value(b))?;
        Ok(self.push(v, Op::MatMulABt(a.0, b.0), self.needs(&[a.0, b.0])))
    }

    /// Rank-2 transpose.
    pub fn transpose(&mut self, x: Var) -> Result<Var> {
        let (r, c) = self.value(x).shape().as_2d()?;
        let mut v = Tensor::zeros(&[c, r]);
        tops::transpose_into(self.value(x).data(), v.data_mut(), r, c);
        let ng = self.nodes[x.0].needs_grad;
        Ok(self.push(v, Op::Transpose(x.0), ng))
    }

    /// Shape reinterpretation.
    pub fn reshape(&mut self, x: Var, dims: &[usize]) -> Result<Var> {
        let old_dims = self.value(x).dims().to_vec();
        let v = self.value(x).reshape(dims)?;
        let ng = self.nodes[x.0].needs_grad;
        Ok(self.push(v, Op::Reshape { x: x.0, old_dims }, ng))
    }

    // ---- activations -----------------------------------------------------

    /// ReLU.
    pub fn relu(&mut self, x: Var) -> Var {
        let mut v = Tensor::zeros(self.value(x).dims());
        tops::relu_into(self.value(x).data(), v.data_mut());
        let ng = self.nodes[x.0].needs_grad;
        self.push(v, Op::Relu(x.0), ng)
    }

    /// Sigmoid.
    pub fn sigmoid(&mut self, x: Var) -> Var {
        let mut v = Tensor::zeros(self.value(x).dims());
        tops::sigmoid_into(self.value(x).data(), v.data_mut());
        let ng = self.nodes[x.0].needs_grad;
        self.push(v, Op::Sigmoid(x.0), ng)
    }

    /// Tanh.
    pub fn tanh(&mut self, x: Var) -> Var {
        let mut v = Tensor::zeros(self.value(x).dims());
        tops::tanh_into(self.value(x).data(), v.data_mut());
        let ng = self.nodes[x.0].needs_grad;
        self.push(v, Op::Tanh(x.0), ng)
    }

    /// Elementwise exponential.
    pub fn exp(&mut self, x: Var) -> Var {
        let mut v = Tensor::zeros(self.value(x).dims());
        tops::exp_into(self.value(x).data(), v.data_mut());
        let ng = self.nodes[x.0].needs_grad;
        self.push(v, Op::Exp(x.0), ng)
    }

    // ---- softmax ---------------------------------------------------------

    /// Row-wise softmax of a rank-2 input.
    pub fn softmax_rows(&mut self, x: Var) -> Result<Var> {
        let (r, c) = self.value(x).shape().as_2d()?;
        let mut v = Tensor::zeros(&[r, c]);
        tops::softmax_rows_into(self.value(x).data(), v.data_mut(), r, c);
        let ng = self.nodes[x.0].needs_grad;
        Ok(self.push(v, Op::SoftmaxRows(x.0), ng))
    }

    /// Causal-masked softmax of a square score matrix (future positions get
    /// exactly zero weight — the SASRec/VSAN attention constraint).
    pub fn softmax_causal(&mut self, x: Var) -> Result<Var> {
        let (r, c) = self.value(x).shape().as_2d()?;
        if r != c {
            return Err(GradError::Tensor(TensorError::ShapeMismatch {
                lhs: vec![r, r],
                rhs: vec![r, c],
                op: "softmax_rows_masked",
            }));
        }
        // The masked upper triangle must read exactly 0.0.
        let mut v = Tensor::zeros(&[r, c]);
        tops::softmax_rows_masked_into(self.value(x).data(), v.data_mut(), r);
        let ng = self.nodes[x.0].needs_grad;
        Ok(self.push(v, Op::SoftmaxCausal(x.0), ng))
    }

    /// Causal attention `softmax_causal(q·kᵀ·scale)·v` for `(n, d)`
    /// operands: [`Graph::causal_attention_batch`] over one sample.
    pub fn causal_attention(&mut self, q: Var, k: Var, v: Var, scale: f32) -> Result<Var> {
        self.causal_attention_batch(q, k, v, 1, scale)
    }

    /// Causal attention over `batch` stacked samples: `q`, `k` and `v` are
    /// flat `(batch·n, d)` operands, sample `s` owns rows `s·n..(s+1)·n`
    /// and attends only within them — an attention block's whole
    /// score→mix pipeline as one builder.
    ///
    /// On [`KernelTier::Reference`] this composes, per sample, the tape
    /// ops the attention layers have always recorded (a row gather per
    /// operand → `matmul_a_bt` → scale → `softmax_causal` → `matmul`,
    /// the outputs stacked by `concat_rows`; one sample needs neither the
    /// gathers nor the stack), so the oracle stays the composed chain. On
    /// [`KernelTier::Fast`] it records **one** node: the fused training
    /// kernel run over each sample's slice, saving the `(batch, n, n)`
    /// softmax matrices, with a one-pass tiled backward that writes
    /// `dq`/`dk`/`dv` in place — bit-identical values and parameter
    /// gradients either way (the contract proven in `vsan-tensor`'s
    /// fused-kernel tests and the tier-differential suite; DESIGN.md §10
    /// has the argument, signed zeros included).
    pub fn causal_attention_batch(
        &mut self,
        q: Var,
        k: Var,
        v: Var,
        batch: usize,
        scale: f32,
    ) -> Result<Var> {
        let (rows, d) = self.value(q).shape().as_2d()?;
        if batch == 0 || !rows.is_multiple_of(batch) {
            return Err(GradError::Tensor(TensorError::ShapeMismatch {
                lhs: vec![rows, d],
                rhs: vec![batch],
                op: "causal_attention_batch",
            }));
        }
        self.causal_attention_windows(q, k, v, &vec![rows / batch; batch], scale)
    }

    /// Causal attention over stacked `n`-row windows that queries only
    /// each window's last rows: `k` and `v` are flat `(keep.len()·n, d)`
    /// operands, window `s` owns their rows `s·n..(s+1)·n`, and `q` holds
    /// the last `keep[s] ≥ 1` rows of every window in window order
    /// (`(Σ keep, d)`). Query `r` of window `s` is its row `i = n −
    /// keep[s] + r` and attends to the window's keys `0..=i`; the output
    /// has `q`'s shape. With every `keep[s] = n` this is
    /// [`Graph::causal_attention_batch`].
    ///
    /// On [`KernelTier::Reference`] a window that keeps fewer than `n`
    /// rows runs the composed chain with its first `n − keep[s]` query
    /// rows zero constants and keeps the last `keep[s]` output rows; on
    /// [`KernelTier::Fast`] one node runs the row-restricted training
    /// kernels (`vsan-tensor`'s `causal_attention_train_rows_*`), which
    /// equal that chain bit for bit.
    pub fn causal_attention_windows(
        &mut self,
        q: Var,
        k: Var,
        v: Var,
        keep: &[usize],
        scale: f32,
    ) -> Result<Var> {
        let (rows, d) = self.value(k).shape().as_2d()?;
        let kept: usize = keep.iter().sum();
        let mismatch = |lhs: Vec<usize>, rhs: Vec<usize>, op| {
            Err(GradError::Tensor(TensorError::ShapeMismatch { lhs, rhs, op }))
        };
        if self.value(v).dims() != [rows, d] {
            return mismatch(vec![rows, d], self.value(v).dims().to_vec(), "causal_attention");
        }
        if self.value(q).dims() != [kept, d] {
            return mismatch(vec![kept, d], self.value(q).dims().to_vec(), "causal_attention");
        }
        if keep.is_empty()
            || !rows.is_multiple_of(keep.len())
            || keep.iter().any(|&r| r == 0 || r > rows / keep.len())
        {
            return mismatch(vec![rows, d], keep.to_vec(), "causal_attention_windows");
        }
        let n = rows / keep.len();
        if self.tier == KernelTier::Reference {
            if keep == [n] {
                return self.attention_chain(q, k, v, scale);
            }
            let mut outs = Vec::with_capacity(keep.len());
            let mut first = 0;
            for (s, &r) in keep.iter().enumerate() {
                let window: Vec<usize> = (s * n..(s + 1) * n).collect();
                let queries: Vec<usize> = (first..first + r).collect();
                first += r;
                // Gathered k, q, v so that the reverse pass (descending
                // ids) reaches an operand shared between them in the
                // order v → q → k: the chain's own order, and the fused
                // node's.
                let ks = self.gather_rows(k, &window)?;
                let qs = self.gather_rows(q, &queries)?;
                let vs = self.gather_rows(v, &window)?;
                if r == n {
                    outs.push(self.attention_chain(qs, ks, vs, scale)?);
                } else {
                    let zeros = self.constant(Tensor::zeros(&[n - r, d]));
                    let qs = self.concat_rows(&[zeros, qs])?;
                    let all = self.attention_chain(qs, ks, vs, scale)?;
                    outs.push(self.gather_rows(all, &(n - r..n).collect::<Vec<_>>())?);
                }
            }
            return self.concat_rows(&outs);
        }
        // Saved probs must start all-zero (masked upper triangle).
        let mut probs = vec![0.0f32; kept * n];
        let mut out = Tensor::zeros(&[kept, d]);
        let mut first = 0;
        for (s, &r) in keep.iter().enumerate() {
            let (window, queries) = (s * n * d..(s + 1) * n * d, first * d..(first + r) * d);
            tops::causal_attention_train_rows_forward(
                &self.value(q).data()[queries.clone()],
                &self.value(k).data()[window.clone()],
                &self.value(v).data()[window],
                n,
                d,
                scale,
                &mut probs[first * n..(first + r) * n],
                &mut out.data_mut()[queries],
            );
            first += r;
        }
        let ng = self.needs(&[q.0, k.0, v.0]);
        let keep = keep.to_vec();
        Ok(self.push(out, Op::CausalAttention { q: q.0, k: k.0, v: v.0, keep, scale, probs }, ng))
    }

    /// One sample's composed attention: the four reference tape ops.
    fn attention_chain(&mut self, q: Var, k: Var, v: Var, scale: f32) -> Result<Var> {
        let scores = self.matmul_a_bt(q, k)?;
        let scaled = self.scale(scores, scale);
        let attn = self.softmax_causal(scaled)?;
        self.matmul(attn, v)
    }

    // ---- normalization ----------------------------------------------------

    /// Fused LayerNorm over rows with learned `gamma`/`beta` (shape `(cols,)`).
    pub fn layer_norm(&mut self, x: Var, gamma: Var, beta: Var) -> Result<Var> {
        let (r, c) = self.value(x).shape().as_2d()?;
        let mut out = Tensor::zeros(&[r, c]);
        let mut mean = Vec::with_capacity(r);
        let mut inv_std = Vec::with_capacity(r);
        tops::layer_norm_rows_stats_into(
            self.value(x).data(),
            self.value(gamma).data(),
            self.value(beta).data(),
            LN_EPS,
            r,
            c,
            out.data_mut(),
            &mut mean,
            &mut inv_std,
        );
        let stats = tops::LayerNormStats { mean, inv_std };
        let ng = self.needs(&[x.0, gamma.0, beta.0]);
        Ok(self.push(out, Op::LayerNorm { x: x.0, gamma: gamma.0, beta: beta.0, stats }, ng))
    }

    // ---- structure --------------------------------------------------------

    /// Gather rows from a rank-2 input; backward scatter-adds (this is the
    /// embedding-lookup op when `x` is an embedding table parameter).
    pub fn gather_rows(&mut self, x: Var, idx: &[usize]) -> Result<Var> {
        let v = self.value(x).gather_rows(idx)?;
        let ng = self.nodes[x.0].needs_grad;
        Ok(self.push(v, Op::GatherRows { x: x.0, idx: idx.to_vec() }, ng))
    }

    /// Vertically stack rank-2 inputs with a shared column count.
    pub fn concat_rows(&mut self, parts: &[Var]) -> Result<Var> {
        if parts.is_empty() {
            return Err(GradError::BadTargets("concat_rows of zero parts"));
        }
        let cols = self.value(parts[0]).shape().as_2d()?.1;
        let mut rows = Vec::with_capacity(parts.len());
        for &p in parts {
            let (r, c) = self.value(p).shape().as_2d()?;
            if c != cols {
                return Err(GradError::Tensor(TensorError::ShapeMismatch {
                    lhs: vec![cols],
                    rhs: vec![c],
                    op: "concat_rows",
                }));
            }
            rows.push(r);
        }
        let total: usize = rows.iter().sum();
        let mut data = Vec::with_capacity(total * cols);
        for &p in parts {
            data.extend_from_slice(self.value(p).data());
        }
        let v = Tensor::from_vec(data, &[total, cols])?;
        let ids: Vec<usize> = parts.iter().map(|p| p.0).collect();
        let ng = self.needs(&ids);
        Ok(self.push(v, Op::ConcatRows { parts: ids, rows }, ng))
    }

    /// Horizontally stack rank-2 inputs with a shared row count.
    pub fn concat_cols(&mut self, parts: &[Var]) -> Result<Var> {
        if parts.is_empty() {
            return Err(GradError::BadTargets("concat_cols of zero parts"));
        }
        let rows = self.value(parts[0]).shape().as_2d()?.0;
        let mut cols = Vec::with_capacity(parts.len());
        for &p in parts {
            let (r, c) = self.value(p).shape().as_2d()?;
            if r != rows {
                return Err(GradError::Tensor(TensorError::ShapeMismatch {
                    lhs: vec![rows],
                    rhs: vec![r],
                    op: "concat_cols",
                }));
            }
            cols.push(c);
        }
        let total: usize = cols.iter().sum();
        let mut out = Tensor::zeros(&[rows, total]);
        let mut col0 = 0usize;
        for (&p, &c) in parts.iter().zip(cols.iter()) {
            for r in 0..rows {
                let src = &self.value(p).data()[r * c..(r + 1) * c];
                out.data_mut()[r * total + col0..r * total + col0 + c].copy_from_slice(src);
            }
            col0 += c;
        }
        let ids: Vec<usize> = parts.iter().map(|p| p.0).collect();
        let ng = self.needs(&ids);
        Ok(self.push(out, Op::ConcatCols { parts: ids, cols }, ng))
    }

    /// Inverted dropout with a caller-supplied mask whose entries are `0.0`
    /// (dropped) or `1/(1-p)` (kept). Pass an all-`1/(1-p)`-free identity
    /// mask — or skip the op — at evaluation time.
    pub fn dropout(&mut self, x: Var, mask: Vec<f32>) -> Result<Var> {
        if mask.len() != self.value(x).numel() {
            return Err(GradError::BadTargets("dropout mask length mismatch"));
        }
        let mut v = Tensor::zeros(self.value(x).dims());
        tops::hadamard_into(self.value(x).data(), &mask, v.data_mut());
        let ng = self.nodes[x.0].needs_grad;
        Ok(self.push(v, Op::Dropout { x: x.0, mask }, ng))
    }

    /// Column-wise max over rows: `(r, c) → (c,)` (Caser's max-pool).
    pub fn max_axis0(&mut self, x: Var) -> Result<Var> {
        let (r, c) = self.value(x).shape().as_2d()?;
        if r == 0 {
            return Err(GradError::BadTargets("max_axis0 over zero rows"));
        }
        let mut out = Tensor::zeros(&[c]);
        let mut argmax = vec![0usize; c];
        for (j, am) in argmax.iter_mut().enumerate() {
            let mut best = f32::NEG_INFINITY;
            for i in 0..r {
                let v = self.value(x).get2(i, j);
                if v > best {
                    best = v;
                    *am = i;
                }
            }
            out.data_mut()[j] = best;
        }
        let ng = self.nodes[x.0].needs_grad;
        Ok(self.push(out, Op::MaxAxis0 { x: x.0, argmax }, ng))
    }

    // ---- reductions / losses ----------------------------------------------

    /// Sum of all elements → scalar.
    pub fn sum_all(&mut self, x: Var) -> Var {
        let v = Tensor::scalar(tops::sum_all(self.value(x)));
        let ng = self.nodes[x.0].needs_grad;
        self.push(v, Op::SumAll(x.0), ng)
    }

    /// Mean of all elements → scalar.
    pub fn mean_all(&mut self, x: Var) -> Var {
        let v = Tensor::scalar(tops::mean_all(self.value(x)));
        let ng = self.nodes[x.0].needs_grad;
        self.push(v, Op::MeanAll(x.0), ng)
    }

    /// Fused softmax cross-entropy with one target per row (Eq. 14).
    ///
    /// `targets[r] = usize::MAX` marks a masked/padding row, contributing
    /// zero loss and zero gradient. The loss is averaged over unmasked rows.
    pub fn ce_one_hot(&mut self, logits: Var, targets: &[usize]) -> Result<Var> {
        let (r, c) = self.value(logits).shape().as_2d()?;
        if targets.len() != r {
            return Err(GradError::BadTargets("one target per logits row required"));
        }
        for &t in targets {
            if t != usize::MAX && t >= c {
                return Err(GradError::BadTargets("target index out of vocabulary"));
            }
        }
        let active = targets.iter().filter(|&&t| t != usize::MAX).count();
        let norm = active.max(1) as f32;
        // Masked rows must keep exactly-zero probabilities.
        let mut probs = vec![0.0f32; r * c];
        let mut loss = 0.0f64;
        for i in 0..r {
            let row = &self.value(logits).data()[i * c..(i + 1) * c];
            let t = targets[i];
            if t == usize::MAX {
                continue;
            }
            let max = row.iter().fold(f32::NEG_INFINITY, |m, &x| m.max(x));
            let mut sum = 0.0f32;
            let p_row = &mut probs[i * c..(i + 1) * c];
            for (p, &x) in p_row.iter_mut().zip(row) {
                *p = (x - max).exp();
                sum += *p;
            }
            let inv = 1.0 / sum;
            p_row.iter_mut().for_each(|p| *p *= inv);
            loss -= (p_row[t].max(1e-30) as f64).ln();
        }
        let v = Tensor::scalar((loss / norm as f64) as f32);
        let ng = self.nodes[logits.0].needs_grad;
        Ok(self.push(v, Op::CeOneHot { logits: logits.0, targets: targets.to_vec(), probs, norm }, ng))
    }

    /// Fused multi-hot softmax cross-entropy for the next-`k` objective
    /// (Eq. 18): per-row loss `-Σ_{i ∈ targets[r]} log softmax_r[i]`.
    /// Empty target sets mark masked rows. Averaged over unmasked rows.
    pub fn ce_multi_hot(&mut self, logits: Var, targets: &[Vec<usize>]) -> Result<Var> {
        let (r, c) = self.value(logits).shape().as_2d()?;
        if targets.len() != r {
            return Err(GradError::BadTargets("one target set per logits row required"));
        }
        for row in targets {
            for &t in row {
                if t >= c {
                    return Err(GradError::BadTargets("multi-hot target out of vocabulary"));
                }
            }
        }
        let active = targets.iter().filter(|t| !t.is_empty()).count();
        let norm = active.max(1) as f32;
        let mut probs = vec![0.0f32; r * c];
        let mut loss = 0.0f64;
        for i in 0..r {
            if targets[i].is_empty() {
                continue;
            }
            let row = &self.value(logits).data()[i * c..(i + 1) * c];
            let max = row.iter().fold(f32::NEG_INFINITY, |m, &x| m.max(x));
            let mut sum = 0.0f32;
            let p_row = &mut probs[i * c..(i + 1) * c];
            for (p, &x) in p_row.iter_mut().zip(row) {
                *p = (x - max).exp();
                sum += *p;
            }
            let inv = 1.0 / sum;
            p_row.iter_mut().for_each(|p| *p *= inv);
            for &t in &targets[i] {
                loss -= (p_row[t].max(1e-30) as f64).ln();
            }
        }
        let v = Tensor::scalar((loss / norm as f64) as f32);
        let ng = self.nodes[logits.0].needs_grad;
        Ok(self.push(
            v,
            Op::CeMultiHot { logits: logits.0, targets: targets.to_vec(), probs, norm },
            ng,
        ))
    }

    /// Fused KL divergence of `N(μ, exp(logvar))` from `N(0, I)` (Eq. 20):
    /// `0.5 Σ_j (exp(lv_j) + μ_j² − 1 − lv_j)` per row, summed over rows with
    /// `row_mask[r] = true`, averaged by the number of active rows.
    pub fn kl_std_normal(&mut self, mu: Var, logvar: Var, row_mask: &[bool]) -> Result<Var> {
        let (r, c) = self.value(mu).shape().as_2d()?;
        let (r2, c2) = self.value(logvar).shape().as_2d()?;
        if (r, c) != (r2, c2) || row_mask.len() != r {
            return Err(GradError::BadTargets("kl operands/mask shape mismatch"));
        }
        let active = row_mask.iter().filter(|&&m| m).count();
        let norm = active.max(1) as f32;
        let mut loss = 0.0f64;
        for (i, &keep) in row_mask.iter().enumerate() {
            if !keep {
                continue;
            }
            let mu_row = &self.value(mu).data()[i * c..(i + 1) * c];
            let lv_row = &self.value(logvar).data()[i * c..(i + 1) * c];
            for (&m, &lv) in mu_row.iter().zip(lv_row) {
                loss += 0.5 * (lv.exp() + m * m - 1.0 - lv) as f64;
            }
        }
        let v = Tensor::scalar((loss / norm as f64) as f32);
        let ng = self.needs(&[mu.0, logvar.0]);
        Ok(self.push(
            v,
            Op::KlStdNormal { mu: mu.0, logvar: logvar.0, row_mask: row_mask.to_vec(), norm },
            ng,
        ))
    }

    // ---- backward ----------------------------------------------------------

    /// Reverse pass from a scalar loss. Returns per-parameter gradients.
    pub fn backward(&self, loss: Var) -> Result<Gradients> {
        if loss.0 >= self.nodes.len() {
            return Err(GradError::UnknownVar(loss.0));
        }
        let loss_node = &self.nodes[loss.0];
        if loss_node.value.numel() != 1 {
            return Err(GradError::NonScalarLoss { shape: loss_node.value.dims().to_vec() });
        }
        let mut grads: Vec<Option<Tensor>> = vec![None; self.nodes.len()];
        let mut seed = Tensor::zeros(loss_node.value.dims());
        seed.data_mut()[0] = 1.0;
        grads[loss.0] = Some(seed);

        for i in (0..=loss.0).rev() {
            if !self.nodes[i].needs_grad {
                continue;
            }
            let g = match grads[i].take() {
                Some(g) => g,
                None => continue,
            };
            self.backprop_node(i, &g, &mut grads)?;
            // A node's consumers all have larger ids and have run already,
            // so nothing adds to or reads this gradient again — except the
            // parameter sweep below, which looks only at leaves.
            if matches!(self.nodes[i].op, Op::Leaf { .. }) {
                grads[i] = Some(g);
            }
        }

        let mut params = HashMap::new();
        for (i, node) in self.nodes.iter().enumerate() {
            if let Op::Leaf { param_key: Some(key) } = node.op {
                if let Some(g) = grads[i].take() {
                    // Accumulate if the same key was inserted multiple times.
                    match params.entry(key) {
                        std::collections::hash_map::Entry::Occupied(mut e) => {
                            tops::add_scaled_into(e.get_mut(), &g, 1.0)
                                .expect("same-shape param grads");
                        }
                        std::collections::hash_map::Entry::Vacant(v) => {
                            v.insert(g);
                        }
                    }
                }
            }
        }
        Ok(Gradients { params })
    }

    fn accum(&self, grads: &mut [Option<Tensor>], id: usize, delta: Tensor) -> Result<()> {
        if !self.nodes[id].needs_grad {
            return Ok(());
        }
        match &mut grads[id] {
            Some(acc) => tops::add_scaled_into(acc, &delta, 1.0)?,
            slot @ None => *slot = Some(delta),
        }
        Ok(())
    }

    #[allow(clippy::too_many_lines)]
    fn backprop_node(&self, i: usize, g: &Tensor, grads: &mut [Option<Tensor>]) -> Result<()> {
        let node = &self.nodes[i];
        match &node.op {
            Op::Leaf { .. } => {}
            Op::Add(a, b) => {
                self.accum(grads, *a, g.clone())?;
                self.accum(grads, *b, g.clone())?;
            }
            Op::Sub(a, b) => {
                self.accum(grads, *a, g.clone())?;
                let db = self.scale_alloc(g, -1.0);
                self.accum(grads, *b, db)?;
            }
            Op::Mul(a, b) => {
                if self.nodes[*a].needs_grad {
                    let da = self.hadamard_alloc(g, &self.nodes[*b].value)?;
                    self.accum(grads, *a, da)?;
                }
                if self.nodes[*b].needs_grad {
                    let db = self.hadamard_alloc(g, &self.nodes[*a].value)?;
                    self.accum(grads, *b, db)?;
                }
            }
            Op::Affine { x, scale, .. } => {
                let dx = self.scale_alloc(g, *scale);
                self.accum(grads, *x, dx)?;
            }
            Op::AddRowBroadcast { x, bias } => {
                self.accum(grads, *x, g.clone())?;
                if self.nodes[*bias].needs_grad {
                    // db = Σ_rows g — the sum_axis0 fold, row-major order.
                    let (r, c) = g.shape().as_2d()?;
                    let mut db = Tensor::zeros(&[c]);
                    let od = db.data_mut();
                    for row in 0..r {
                        let g_row = &g.data()[row * c..(row + 1) * c];
                        for (o, &x_) in od.iter_mut().zip(g_row) {
                            *o += x_;
                        }
                    }
                    self.accum(grads, *bias, db)?;
                }
            }
            Op::MatMul(a, b) => {
                if self.nodes[*a].needs_grad {
                    let da = self.tier.matmul_a_bt(g, &self.nodes[*b].value)?;
                    self.accum(grads, *a, da)?;
                }
                if self.nodes[*b].needs_grad {
                    let db = self.tier.matmul_at_b(&self.nodes[*a].value, g)?;
                    self.accum(grads, *b, db)?;
                }
            }
            Op::MatMulABt(a, b) => {
                // out = A·Bᵀ ⇒ dA = g·B, dB = gᵀ·A.
                if self.nodes[*a].needs_grad {
                    let da = self.tier.matmul(g, &self.nodes[*b].value, self.threads)?;
                    self.accum(grads, *a, da)?;
                }
                if self.nodes[*b].needs_grad {
                    let db = self.tier.matmul_at_b(g, &self.nodes[*a].value)?;
                    self.accum(grads, *b, db)?;
                }
            }
            Op::CausalAttention { q, k, v, keep, scale, probs } => {
                // One tiled pass per window computes all three input
                // gradients in place, bit-identical to the composed
                // chain's reverse rules (vsan-tensor's
                // causal_attention_train_rows_backward doc).
                let qv = &self.nodes[*q].value;
                let kv = &self.nodes[*k].value;
                let vv = &self.nodes[*v].value;
                let (rows, d) = kv.shape().as_2d()?;
                let n = rows / keep.len();
                let mut dq = Tensor::zeros(qv.dims());
                let mut dk = Tensor::zeros(&[rows, d]);
                let mut dv = Tensor::zeros(&[rows, d]);
                let mut dscores = vec![0.0f32; n * n];
                let mut first = 0;
                for (s, &r) in keep.iter().enumerate() {
                    let (window, queries) = (s * n * d..(s + 1) * n * d, first * d..(first + r) * d);
                    tops::causal_attention_train_rows_backward(
                        &qv.data()[queries.clone()],
                        &kv.data()[window.clone()],
                        &vv.data()[window.clone()],
                        &probs[first * n..(first + r) * n],
                        &g.data()[queries.clone()],
                        n,
                        d,
                        *scale,
                        &mut dq.data_mut()[queries],
                        &mut dk.data_mut()[window.clone()],
                        &mut dv.data_mut()[window],
                        &mut dscores,
                    );
                    first += r;
                }
                // Leaf order v → q → k mirrors the composed chain (the
                // `matmul(attn, v)` node backprops before the
                // `matmul_a_bt(q, k)` node), so even a shared q/k/v
                // input accumulates in the same order, same bits.
                self.accum(grads, *v, dv)?;
                self.accum(grads, *q, dq)?;
                self.accum(grads, *k, dk)?;
            }
            Op::Relu(x) => {
                let mut dx = Tensor::zeros(g.dims());
                tops::relu_grad_into(g.data(), self.nodes[*x].value.data(), dx.data_mut());
                self.accum(grads, *x, dx)?;
            }
            Op::Sigmoid(x) => {
                let mut dx = Tensor::zeros(g.dims());
                tops::sigmoid_grad_into(g.data(), node.value.data(), dx.data_mut());
                self.accum(grads, *x, dx)?;
            }
            Op::Tanh(x) => {
                let mut dx = Tensor::zeros(g.dims());
                tops::tanh_grad_into(g.data(), node.value.data(), dx.data_mut());
                self.accum(grads, *x, dx)?;
            }
            Op::Exp(x) => {
                let dx = self.hadamard_alloc(g, &node.value)?;
                self.accum(grads, *x, dx)?;
            }
            Op::SoftmaxRows(x) | Op::SoftmaxCausal(x) => {
                // dx_row = y ⊙ (g − ⟨g, y⟩); masked entries have y = 0.
                let y = &node.value;
                let (r, c) = y.shape().as_2d()?;
                let mut dx = Tensor::zeros(&[r, c]);
                tops::softmax_grad_into(y.data(), g.data(), dx.data_mut(), r, c);
                self.accum(grads, *x, dx)?;
            }
            Op::LayerNorm { x, gamma, beta, stats } => {
                let xv = &self.nodes[*x].value;
                let (r, c) = xv.shape().as_2d()?;
                let gam = self.nodes[*gamma].value.data();
                let cf = c as f32;
                let mut dx = Tensor::zeros(&[r, c]);
                let mut dgamma = Tensor::zeros(&[c]);
                let mut dbeta = Tensor::zeros(&[c]);
                for row in 0..r {
                    let m = stats.mean[row];
                    let is = stats.inv_std[row];
                    let x_row = &xv.data()[row * c..(row + 1) * c];
                    let g_row = &g.data()[row * c..(row + 1) * c];
                    // x̂ and dŷ
                    let mut sum_dxhat = 0.0f32;
                    let mut sum_dxhat_xhat = 0.0f32;
                    for j in 0..c {
                        let xhat = (x_row[j] - m) * is;
                        let dxhat = g_row[j] * gam[j];
                        sum_dxhat += dxhat;
                        sum_dxhat_xhat += dxhat * xhat;
                        dgamma.data_mut()[j] += g_row[j] * xhat;
                        dbeta.data_mut()[j] += g_row[j];
                    }
                    let d_row = &mut dx.data_mut()[row * c..(row + 1) * c];
                    for j in 0..c {
                        let xhat = (x_row[j] - m) * is;
                        let dxhat = g_row[j] * gam[j];
                        d_row[j] = (is / cf) * (cf * dxhat - sum_dxhat - xhat * sum_dxhat_xhat);
                    }
                }
                self.accum(grads, *x, dx)?;
                self.accum(grads, *gamma, dgamma)?;
                self.accum(grads, *beta, dbeta)?;
            }
            Op::GatherRows { x, idx } => {
                if self.nodes[*x].needs_grad {
                    let src = &self.nodes[*x].value;
                    let (_, c) = src.shape().as_2d()?;
                    let mut dx = Tensor::zeros(src.dims());
                    for (out_row, &src_row) in idx.iter().enumerate() {
                        let g_row = &g.data()[out_row * c..(out_row + 1) * c];
                        let d_row = &mut dx.data_mut()[src_row * c..(src_row + 1) * c];
                        for (d, &gv) in d_row.iter_mut().zip(g_row) {
                            *d += gv;
                        }
                    }
                    self.accum(grads, *x, dx)?;
                }
            }
            Op::ConcatRows { parts, rows } => {
                let mut row0 = 0usize;
                for (&p, &r) in parts.iter().zip(rows.iter()) {
                    if self.nodes[p].needs_grad {
                        self.accum(grads, p, g.rows_slice(row0, r)?)?;
                    }
                    row0 += r;
                }
            }
            Op::ConcatCols { parts, cols } => {
                let (r, total) = node.value.shape().as_2d()?;
                let mut col0 = 0usize;
                for (&p, &c) in parts.iter().zip(cols.iter()) {
                    if self.nodes[p].needs_grad {
                        let mut dp = Tensor::zeros(&[r, c]);
                        for row in 0..r {
                            let src = &g.data()[row * total + col0..row * total + col0 + c];
                            dp.data_mut()[row * c..(row + 1) * c].copy_from_slice(src);
                        }
                        self.accum(grads, p, dp)?;
                    }
                    col0 += c;
                }
            }
            Op::Reshape { x, old_dims } => {
                self.accum(grads, *x, g.reshape(old_dims)?)?;
            }
            Op::Transpose(x) => {
                let (r, c) = g.shape().as_2d()?;
                let mut dx = Tensor::zeros(&[c, r]);
                tops::transpose_into(g.data(), dx.data_mut(), r, c);
                self.accum(grads, *x, dx)?;
            }
            Op::Dropout { x, mask } => {
                let mut dx = Tensor::zeros(g.dims());
                tops::hadamard_into(g.data(), mask, dx.data_mut());
                self.accum(grads, *x, dx)?;
            }
            Op::MaxAxis0 { x, argmax } => {
                let src = &self.nodes[*x].value;
                let mut dx = Tensor::zeros(src.dims());
                let (_, c) = src.shape().as_2d()?;
                for (j, &row) in argmax.iter().enumerate() {
                    dx.data_mut()[row * c + j] += g.data()[j];
                }
                self.accum(grads, *x, dx)?;
            }
            Op::SumAll(x) => {
                let gs = g.data()[0];
                let dx = Tensor::full(self.nodes[*x].value.dims(), gs);
                self.accum(grads, *x, dx)?;
            }
            Op::MeanAll(x) => {
                let n = self.nodes[*x].value.numel() as f32;
                let gs = g.data()[0] / n;
                let dx = Tensor::full(self.nodes[*x].value.dims(), gs);
                self.accum(grads, *x, dx)?;
            }
            Op::CeOneHot { logits, targets, probs, norm } => {
                if self.nodes[*logits].needs_grad {
                    let lv = &self.nodes[*logits].value;
                    let (r, c) = lv.shape().as_2d()?;
                    let gs = g.data()[0] / norm;
                    let mut dx = Tensor::zeros(&[r, c]);
                    for row in 0..r {
                        let t = targets[row];
                        if t == usize::MAX {
                            continue;
                        }
                        let p_row = &probs[row * c..(row + 1) * c];
                        let d_row = &mut dx.data_mut()[row * c..(row + 1) * c];
                        for j in 0..c {
                            d_row[j] = gs * p_row[j];
                        }
                        d_row[t] -= gs;
                    }
                    self.accum(grads, *logits, dx)?;
                }
            }
            Op::CeMultiHot { logits, targets, probs, norm } => {
                if self.nodes[*logits].needs_grad {
                    let lv = &self.nodes[*logits].value;
                    let (r, c) = lv.shape().as_2d()?;
                    let gs = g.data()[0] / norm;
                    let mut dx = Tensor::zeros(&[r, c]);
                    for row in 0..r {
                        if targets[row].is_empty() {
                            continue;
                        }
                        let kcount = targets[row].len() as f32;
                        let p_row = &probs[row * c..(row + 1) * c];
                        let d_row = &mut dx.data_mut()[row * c..(row + 1) * c];
                        for j in 0..c {
                            d_row[j] = gs * kcount * p_row[j];
                        }
                        for &t in &targets[row] {
                            d_row[t] -= gs;
                        }
                    }
                    self.accum(grads, *logits, dx)?;
                }
            }
            Op::KlStdNormal { mu, logvar, row_mask, norm } => {
                let gs = g.data()[0] / norm;
                let (r, c) = self.nodes[*mu].value.shape().as_2d()?;
                if self.nodes[*mu].needs_grad {
                    let mut dmu = Tensor::zeros(&[r, c]);
                    for (row, &keep) in row_mask.iter().enumerate().take(r) {
                        if !keep {
                            continue;
                        }
                        let mu_row = &self.nodes[*mu].value.data()[row * c..(row + 1) * c];
                        let d_row = &mut dmu.data_mut()[row * c..(row + 1) * c];
                        for (d, &m) in d_row.iter_mut().zip(mu_row) {
                            *d = gs * m;
                        }
                    }
                    self.accum(grads, *mu, dmu)?;
                }
                if self.nodes[*logvar].needs_grad {
                    let mut dlv = Tensor::zeros(&[r, c]);
                    for (row, &keep) in row_mask.iter().enumerate().take(r) {
                        if !keep {
                            continue;
                        }
                        let lv_row = &self.nodes[*logvar].value.data()[row * c..(row + 1) * c];
                        let d_row = &mut dlv.data_mut()[row * c..(row + 1) * c];
                        for (d, &lv) in d_row.iter_mut().zip(lv_row) {
                            *d = gs * 0.5 * (lv.exp() - 1.0);
                        }
                    }
                    self.accum(grads, *logvar, dlv)?;
                }
            }
        }
        Ok(())
    }
}

/// Parameter gradients produced by [`Graph::backward`].
#[derive(Debug, Default)]
pub struct Gradients {
    params: HashMap<usize, Tensor>,
}

impl Gradients {
    /// An empty gradient set (identity element for [`Gradients::merge_sum`]).
    pub fn empty() -> Self {
        Gradients { params: HashMap::new() }
    }

    /// Add `other`'s gradients into `self`, key by key.
    ///
    /// Keys present in both are summed elementwise; keys only in `other`
    /// are moved in. Elementwise addition makes the result independent of
    /// map iteration order, so the merge is deterministic.
    pub fn merge_sum(&mut self, other: Gradients) {
        for (k, t) in other.params {
            match self.params.entry(k) {
                std::collections::hash_map::Entry::Occupied(mut e) => {
                    tops::add_scaled_into(e.get_mut(), &t, 1.0)
                        .expect("merged gradients must share parameter shapes");
                }
                std::collections::hash_map::Entry::Vacant(v) => {
                    v.insert(t);
                }
            }
        }
    }

    /// Reduce per-shard gradients with a fixed-order pairwise tree sum.
    ///
    /// Adjacent pairs are merged repeatedly — `((g0+g1)+(g2+g3))+…` — so
    /// the floating-point summation tree depends only on `parts.len()`,
    /// never on how many worker threads produced the parts. This is the
    /// reduction step of the deterministic data-parallel trainer.
    pub fn tree_reduce(parts: Vec<Gradients>) -> Gradients {
        let mut level: Vec<Gradients> = parts;
        while level.len() > 1 {
            let mut next = Vec::with_capacity(level.len().div_ceil(2));
            let mut it = level.into_iter();
            while let Some(mut left) = it.next() {
                if let Some(right) = it.next() {
                    left.merge_sum(right);
                }
                next.push(left);
            }
            level = next;
        }
        level.pop().unwrap_or_default()
    }

    /// Gradient for a parameter key, if it participated in the loss.
    pub fn param_grad(&self, key: usize) -> Option<&Tensor> {
        self.params.get(&key)
    }

    /// Take ownership of a parameter gradient.
    pub fn take(&mut self, key: usize) -> Option<Tensor> {
        self.params.remove(&key)
    }

    /// Iterate over `(key, grad)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (&usize, &Tensor)> {
        self.params.iter()
    }

    /// Number of parameters that received gradients.
    pub fn len(&self) -> usize {
        self.params.len()
    }

    /// `true` when no parameter received a gradient.
    pub fn is_empty(&self) -> bool {
        self.params.is_empty()
    }

    /// Global gradient L2 norm across all parameters.
    ///
    /// Summed in ascending parameter-key order: `HashMap` iteration order
    /// varies between instances, and f32 addition is not associative, so a
    /// map-order sum would make `clip_global_norm` (and thus the whole
    /// training trajectory) differ between bit-identical runs.
    pub fn global_norm(&self) -> f32 {
        let mut keys: Vec<usize> = self.params.keys().copied().collect();
        keys.sort_unstable();
        keys.iter().map(|k| self.params[k].sq_norm()).sum::<f32>().sqrt()
    }

    /// Scale every gradient so the global norm does not exceed `max_norm`.
    pub fn clip_global_norm(&mut self, max_norm: f32) {
        let norm = self.global_norm();
        if norm > max_norm && norm > 0.0 {
            let s = max_norm / norm;
            for g in self.params.values_mut() {
                g.map_in_place(|x| x * s);
            }
        }
    }
}

/// Convenience: build a graph shape from dims (used by downstream crates).
pub fn shape(dims: &[usize]) -> Shape {
    Shape::new(dims)
}
