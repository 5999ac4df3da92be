//! Numeric kernels on [`crate::Tensor`].
//!
//! Kernels are free functions in two forms. The `_into` family writes
//! into caller-provided slices and allocates nothing: it is what the
//! autograd tape (on either tier) and the inference pass run, one name per
//! kernel, each stamped by `simd_kernel!` so its body runs under AVX2
//! codegen where the CPU has it (`crate::kernel`). The `Tensor`-returning
//! functions allocate a fresh output and are plain scalar code: the
//! elementwise and softmax ones are the independent definitions the
//! `_into` kernels are held to in tests, and the three products are
//! [`crate::KernelTier`]'s methods on the reference tier. Submodules group
//! by family; the most common entry points are re-exported here.

pub mod attention;
pub mod elementwise;
pub mod matmul;
pub mod norm;
pub mod reduce;
pub mod softmax;

pub use attention::{
    attention_scratch_len, causal_attention_append_into, causal_attention_into,
    causal_attention_resume_into, causal_attention_rows_into, causal_attention_train_backward,
    causal_attention_train_forward, causal_attention_train_rows_backward,
    causal_attention_train_rows_forward,
};
pub use elementwise::{
    add, add_into, add_row_broadcast_into, add_scaled_into, affine_into, exp_into, hadamard,
    hadamard_into, relu_grad_into, relu_into, scale, scale_into, sigmoid_grad_into, sigmoid_into,
    sub, sub_into, tanh_grad_into, tanh_into,
};
pub use matmul::{
    matmul, matmul_a_bt, matmul_a_bt_into, matmul_at_b, matmul_at_b_into, transpose_into,
};
pub use norm::{
    layer_norm_rows, layer_norm_rows_into, layer_norm_rows_stats_into, LayerNormStats,
};
pub use reduce::{mean_all, sum_all, sum_axis0};
pub use softmax::{
    softmax_grad_into, softmax_rows, softmax_rows_into, softmax_rows_masked,
    softmax_rows_masked_into,
};
