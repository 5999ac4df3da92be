//! The typed operation records stored on the tape.
//!
//! Each variant captures its input variable ids plus whatever forward-pass
//! byproducts the backward rule needs (dropout masks, layer-norm statistics,
//! cached softmax probabilities, …). Keeping ops as plain data — rather than
//! boxed closures — makes the tape inspectable, testable, and `Send`.

use vsan_tensor::ops::norm::LayerNormStats;

/// Internal node index on the tape. Public only through [`crate::Var`].
pub(crate) type NodeId = usize;

/// A recorded operation.
#[derive(Debug, Clone)]
#[allow(missing_docs)] // variant docs describe the named fields
pub enum Op {
    /// Input node: a constant (no gradient) or a parameter (gradient
    /// reported under `param_key`).
    Leaf {
        /// `Some(key)` marks a trainable parameter.
        param_key: Option<usize>,
    },
    /// Elementwise `a + b` (identical shapes).
    Add(NodeId, NodeId),
    /// Elementwise `a - b`.
    Sub(NodeId, NodeId),
    /// Elementwise Hadamard product `a ⊙ b`.
    Mul(NodeId, NodeId),
    /// Elementwise affine `s·x + c` with scalar coefficients.
    Affine { x: NodeId, scale: f32, shift: f32 },
    /// Broadcast-add a `(cols,)` bias to every row of a `(rows, cols)` input.
    AddRowBroadcast { x: NodeId, bias: NodeId },
    /// Dense matmul `(m,k) × (k,n)`.
    MatMul(NodeId, NodeId),
    /// `A · Bᵀ`: `(m,k) × (n,k) → (m,n)`; the attention-score shape.
    MatMulABt(NodeId, NodeId),
    /// ReLU.
    Relu(NodeId),
    /// Sigmoid (output cached in the node value).
    Sigmoid(NodeId),
    /// Tanh (output cached in the node value).
    Tanh(NodeId),
    /// Elementwise exponential (output cached in the node value).
    Exp(NodeId),
    /// Row-wise softmax over a rank-2 input.
    SoftmaxRows(NodeId),
    /// Causal-masked row softmax over a square score matrix (row `i`
    /// attends to columns `j ≤ i`).
    SoftmaxCausal(NodeId),
    /// Fused causal attention `softmax_causal(q·kᵀ·scale)·v` over stacked
    /// `n`-row key/value windows, querying each window's last `keep[s]`
    /// rows — the fast kernel tier's replacement for the per-window
    /// `MatMulABt` → `Affine` → `SoftmaxCausal` → `MatMul` composition
    /// (bit-identical to it). Cached: each window's `(keep[s], n)` softmax
    /// rows, flattened row-major and stacked (the saved activation the
    /// one-pass backward consumes).
    CausalAttention { q: NodeId, k: NodeId, v: NodeId, keep: Vec<usize>, scale: f32, probs: Vec<f32> },
    /// Fused LayerNorm with learned affine parameters.
    LayerNorm { x: NodeId, gamma: NodeId, beta: NodeId, stats: LayerNormStats },
    /// Row gather from a rank-2 table: `out.row(i) = x.row(idx[i])`.
    GatherRows { x: NodeId, idx: Vec<usize> },
    /// Vertical concatenation of rank-2 inputs sharing a column count.
    ConcatRows { parts: Vec<NodeId>, rows: Vec<usize> },
    /// Horizontal concatenation of rank-2 inputs sharing a row count.
    ConcatCols { parts: Vec<NodeId>, cols: Vec<usize> },
    /// Shape reinterpretation (element count preserved).
    Reshape { x: NodeId, old_dims: Vec<usize> },
    /// Rank-2 transpose.
    Transpose(NodeId),
    /// Inverted dropout: the mask holds `0.0` (dropped) or `1/(1-p)` (kept).
    Dropout { x: NodeId, mask: Vec<f32> },
    /// Column-wise max over rows: `(r, c) → (c,)`, argmax rows cached.
    MaxAxis0 { x: NodeId, argmax: Vec<usize> },
    /// Sum of all elements → scalar.
    SumAll(NodeId),
    /// Mean of all elements → scalar.
    MeanAll(NodeId),
    /// Fused softmax cross-entropy with integer targets (Eq. 14 / Eq. 20
    /// reconstruction term). `targets[r] = usize::MAX` marks a masked
    /// (padding) row. Cached: per-row softmax probabilities flattened.
    CeOneHot { logits: NodeId, targets: Vec<usize>, probs: Vec<f32>, norm: f32 },
    /// Fused multi-hot softmax cross-entropy for the next-`k` objective
    /// (Eq. 18): each row's loss is `-Σ_{i ∈ targets[r]} log softmax_r[i]`.
    /// Empty target sets mark masked rows.
    CeMultiHot { logits: NodeId, targets: Vec<Vec<usize>>, probs: Vec<f32>, norm: f32 },
    /// Fused diagonal-Gaussian KL to the standard-normal prior (Eq. 20 KL
    /// term): `0.5 Σ_j (exp(lv) + μ² − 1 − lv)` summed over unmasked rows.
    KlStdNormal { mu: NodeId, logvar: NodeId, row_mask: Vec<bool>, norm: f32 },
}

impl Op {
    /// Input node ids, in argument order, for topology checks and tooling.
    pub fn inputs(&self) -> Vec<NodeId> {
        match self {
            Op::Leaf { .. } => vec![],
            Op::Add(a, b) | Op::Sub(a, b) | Op::Mul(a, b) | Op::MatMul(a, b) | Op::MatMulABt(a, b) => {
                vec![*a, *b]
            }
            Op::Affine { x, .. }
            | Op::Relu(x)
            | Op::Sigmoid(x)
            | Op::Tanh(x)
            | Op::Exp(x)
            | Op::SoftmaxRows(x)
            | Op::SoftmaxCausal(x)
            | Op::GatherRows { x, .. }
            | Op::Reshape { x, .. }
            | Op::Transpose(x)
            | Op::Dropout { x, .. }
            | Op::MaxAxis0 { x, .. }
            | Op::SumAll(x)
            | Op::MeanAll(x) => vec![*x],
            Op::AddRowBroadcast { x, bias } => vec![*x, *bias],
            Op::LayerNorm { x, gamma, beta, .. } => vec![*x, *gamma, *beta],
            Op::CausalAttention { q, k, v, .. } => vec![*q, *k, *v],
            Op::ConcatRows { parts, .. } | Op::ConcatCols { parts, .. } => parts.clone(),
            Op::CeOneHot { logits, .. } | Op::CeMultiHot { logits, .. } => vec![*logits],
            Op::KlStdNormal { mu, logvar, .. } => vec![*mu, *logvar],
        }
    }

    /// Human-readable op name for debugging and tape dumps.
    pub fn name(&self) -> &'static str {
        match self {
            Op::Leaf { param_key: Some(_) } => "param",
            Op::Leaf { param_key: None } => "const",
            Op::Add(..) => "add",
            Op::Sub(..) => "sub",
            Op::Mul(..) => "mul",
            Op::Affine { .. } => "affine",
            Op::AddRowBroadcast { .. } => "add_row_broadcast",
            Op::MatMul(..) => "matmul",
            Op::MatMulABt(..) => "matmul_a_bt",
            Op::Relu(..) => "relu",
            Op::Sigmoid(..) => "sigmoid",
            Op::Tanh(..) => "tanh",
            Op::Exp(..) => "exp",
            Op::SoftmaxRows(..) => "softmax_rows",
            Op::SoftmaxCausal(..) => "softmax_causal",
            Op::CausalAttention { .. } => "causal_attention",
            Op::LayerNorm { .. } => "layer_norm",
            Op::GatherRows { .. } => "gather_rows",
            Op::ConcatRows { .. } => "concat_rows",
            Op::ConcatCols { .. } => "concat_cols",
            Op::Reshape { .. } => "reshape",
            Op::Transpose(..) => "transpose",
            Op::Dropout { .. } => "dropout",
            Op::MaxAxis0 { .. } => "max_axis0",
            Op::SumAll(..) => "sum_all",
            Op::MeanAll(..) => "mean_all",
            Op::CeOneHot { .. } => "ce_one_hot",
            Op::CeMultiHot { .. } => "ce_multi_hot",
            Op::KlStdNormal { .. } => "kl_std_normal",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn inputs_report_argument_order() {
        assert_eq!(Op::Add(3, 7).inputs(), vec![3, 7]);
        assert_eq!(Op::Leaf { param_key: None }.inputs(), Vec::<usize>::new());
        assert_eq!(
            Op::LayerNorm {
                x: 1,
                gamma: 2,
                beta: 3,
                stats: LayerNormStats { mean: vec![], inv_std: vec![] }
            }
            .inputs(),
            vec![1, 2, 3]
        );
        assert_eq!(Op::ConcatRows { parts: vec![5, 9], rows: vec![2, 2] }.inputs(), vec![5, 9]);
        assert_eq!(
            Op::CausalAttention { q: 4, k: 6, v: 8, keep: vec![1], scale: 0.5, probs: vec![] }.inputs(),
            vec![4, 6, 8]
        );
    }

    #[test]
    fn names_distinguish_params_from_constants() {
        assert_eq!(Op::Leaf { param_key: Some(0) }.name(), "param");
        assert_eq!(Op::Leaf { param_key: None }.name(), "const");
        assert_eq!(Op::MatMulABt(0, 1).name(), "matmul_a_bt");
    }
}
