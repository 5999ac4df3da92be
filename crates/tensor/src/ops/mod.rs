//! Numeric kernels on [`crate::Tensor`].
//!
//! Kernels are free functions in two forms: `Tensor`-returning wrappers
//! that allocate a fresh output (what the reference autograd tape
//! composes), and the `_into` family, which writes into caller-provided
//! slices and allocates nothing (what the fast training tier and the
//! inference pass call). Submodules group by family; the most common
//! entry points are re-exported here.

pub mod attention;
pub mod elementwise;
pub mod matmul;
pub mod norm;
pub mod reduce;
pub mod softmax;

pub use attention::{
    attention_scratch_len, causal_attention_append_into, causal_attention_into,
    causal_attention_resume_into, causal_attention_rows_into, causal_attention_train_backward,
    causal_attention_train_forward,
};
pub use elementwise::{
    add, add_into, add_into_fast, add_row_broadcast_into, add_row_broadcast_into_fast,
    add_scaled_into, affine_into, affine_into_fast, axpy, exp_into, exp_into_fast, hadamard,
    hadamard_into, hadamard_into_fast, relu_grad_into, relu_grad_into_fast, relu_into,
    relu_into_fast, scale, scale_into, scale_into_fast, sigmoid_grad_into, sigmoid_grad_into_fast,
    sigmoid_into, sigmoid_into_fast, sub, sub_into, sub_into_fast, tanh_grad_into,
    tanh_grad_into_fast, tanh_into, tanh_into_fast,
};
pub use matmul::{
    matmul, matmul_at_b, matmul_at_b_fast, matmul_at_b_into, matmul_at_b_ref_into, matmul_a_bt,
    matmul_a_bt_fast, matmul_a_bt_fast_into, matmul_a_bt_into, matmul_a_bt_ref_into, matmul_fast,
    transpose_into,
};
pub use norm::{
    layer_norm_rows, layer_norm_rows_into, layer_norm_rows_stats_into, LayerNormStats,
};
pub use reduce::{mean_all, sum_all, sum_axis0, sum_rows};
pub use softmax::{
    log_softmax_rows, softmax_grad_into, softmax_grad_into_fast, softmax_rows, softmax_rows_into,
    softmax_rows_into_fast, softmax_rows_masked, softmax_rows_masked_fast,
    softmax_rows_masked_into, softmax_rows_masked_into_fast,
};
