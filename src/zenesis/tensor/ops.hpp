#pragma once
// Core numeric ops for the surrogate transformer models.
//
// Everything here operates on rank-2 tensors interpreted as
// [rows, features] unless stated otherwise. Shape checking, output
// allocation and ThreadPool tiling happen here, while the arithmetic
// itself runs in the active tensor::kernels::KernelBackend (scalar
// reference, blocked portable, or AVX2 — see kernels.hpp for selection
// via ZENESIS_KERNEL / set_backend()). Within one backend, results are
// byte-deterministic across thread counts; across backends they agree
// to rounding only.

#include "zenesis/tensor/quant.hpp"
#include "zenesis/tensor/tensor.hpp"

namespace zenesis::tensor {

// ---- BLAS-like ----

/// C = A(MxK) * B(KxN). Blocked over K and parallel over M.
Tensor matmul(const Tensor& a, const Tensor& b);

/// C = A(MxK) * B(NxK)^T — the layout used by attention scores and linear
/// layers whose weights are stored row-per-output.
Tensor matmul_nt(const Tensor& a, const Tensor& b);

/// y = x(MxK) * W(NxK)^T + bias(N). The standard linear layer.
Tensor linear(const Tensor& x, const Tensor& weight, const Tensor& bias);

/// Transposes a rank-2 tensor.
Tensor transpose(const Tensor& a);

// ---- Quantized GEMM path (tensor::quant) ----
//
// These run the dynamic-int8 pipeline: the activation matrix is
// quantized per row on the ThreadPool, the pre-quantized weight panel
// is reused as-is, and the int8 GEMM requantizes back to fp32 in its
// epilogue.

/// y = x(MxK) * dequant(qw)(NxK)^T [+ bias(N)]. `bias` may be empty
/// (rank 0) for a pure matmul_nt against a quantized panel.
Tensor linear_quantized(const Tensor& x, const quant::QuantizedTensor& qw,
                        const Tensor& bias);

/// C = A(MxK) * dequant(qb)(NxK)^T — matmul_nt against a pre-quantized
/// right-hand panel.
Tensor matmul_nt_quantized(const Tensor& a, const quant::QuantizedTensor& qb);

/// C = A(MxK) * B(NxK)^T with BOTH sides quantized dynamically per call
/// (used for attention scores where neither operand is a weight).
Tensor matmul_nt_dyn_quantized(const Tensor& a, const Tensor& b);

// ---- Elementwise / rowwise ----

/// a += b (same shape).
void add_inplace(Tensor& a, const Tensor& b);

/// a *= s.
void scale_inplace(Tensor& a, float s);

/// In-place rowwise softmax of a rank-2 tensor.
void softmax_rows(Tensor& a);

/// In-place rowwise layer normalization with learned gain/bias of size
/// [features].
void layernorm_rows(Tensor& a, const Tensor& gain, const Tensor& bias,
                    float eps = 1e-5f);

/// In-place GELU (tanh approximation, as used by ViT/Swin blocks).
void gelu_inplace(Tensor& a);

// ---- Attention ----

/// Scaled dot-product attention: softmax(Q Kᵀ / sqrt(d)) V.
/// q: [Lq, d], k: [Lk, d], v: [Lk, dv] → [Lq, dv].
/// This is the cross-modal relevance operator from the paper's Sec. 4.
Tensor attention(const Tensor& q, const Tensor& k, const Tensor& v);

/// Multi-head attention over pre-projected inputs. q,k,v as in
/// `attention`; d and dv must be divisible by `heads`. Heads are
/// processed independently and concatenated. attention() is the
/// one-head case; both run one fused scores→softmax→value pass per
/// 32-row block, byte-identical to the unfused op chain.
Tensor multihead_attention(const Tensor& q, const Tensor& k, const Tensor& v,
                           int heads);

// ---- Reductions / stats ----

/// Mean over rows → [features].
Tensor mean_rows(const Tensor& a);

/// Columnwise maximum over rows → [features]. Requires at least one row.
Tensor colwise_max(const Tensor& a);

/// Subtracts a rank-1 row vector [features] from every row of a.
void subtract_row_inplace(Tensor& a, const Tensor& row);

// ---- Spatial ([C, H, W]) ----

/// Bilinear resize of [C, H, W] to [C, out_h, out_w] (align_corners=false
/// convention) — the SAM mask decoder's coarse-logit upsampling.
Tensor resize_bilinear(const Tensor& input, std::int64_t out_h,
                       std::int64_t out_w);

}  // namespace zenesis::tensor
