// Blocked portable backend: register-tiled, k-unrolled, cache-blocked
// C++ loops with no intrinsics — the fallback fast path on any CPU. The
// compiler auto-vectorizes the broadcast-FMA j-loops (no reduction
// carried across lanes); dot-shaped reductions use four fixed k-strided
// partial sums so the order is deterministic but unrollable.
//
// Determinism: each output element's accumulation order depends only on
// (k) — never on the row range a thread was handed or on neighbouring
// rows in the same register tile — so any parallel split of rows
// reproduces the serial result byte-for-byte.

#include <algorithm>
#include <cmath>

#include "zenesis/tensor/kernels.hpp"

namespace zenesis::tensor::kernels {
namespace {

constexpr std::int64_t kKBlock = 256;  // A/B panel depth (L1-resident rows)

// ---- C = A · B (rows stream, broadcast-FMA over j) -------------------
//
// Four C rows are held in registers per pass so each loaded B row feeds
// four FMA streams; j has no loop-carried dependence, so the inner loop
// vectorizes without -ffast-math.

void nn_row_panel4(const float* a, const float* b, float* c, std::int64_t i,
                   std::int64_t k, std::int64_t n) {
  // Named __restrict row pointers (not an array of pointers): the
  // compiler then proves the four C streams and the B row are disjoint
  // and vectorizes the j-loop as four independent FMA streams.
  const float* a0 = a + (i + 0) * k;
  const float* a1 = a + (i + 1) * k;
  const float* a2 = a + (i + 2) * k;
  const float* a3 = a + (i + 3) * k;
  float* __restrict c0 = c + (i + 0) * n;
  float* __restrict c1 = c + (i + 1) * n;
  float* __restrict c2 = c + (i + 2) * n;
  float* __restrict c3 = c + (i + 3) * n;
  std::fill(c0, c0 + n, 0.0f);
  std::fill(c1, c1 + n, 0.0f);
  std::fill(c2, c2 + n, 0.0f);
  std::fill(c3, c3 + n, 0.0f);
  for (std::int64_t k0 = 0; k0 < k; k0 += kKBlock) {
    const std::int64_t k1 = std::min(k, k0 + kKBlock);
    for (std::int64_t kk = k0; kk < k1; ++kk) {
      const float* __restrict bk = b + kk * n;
      const float av0 = a0[kk], av1 = a1[kk], av2 = a2[kk], av3 = a3[kk];
      for (std::int64_t j = 0; j < n; ++j) {
        const float bv = bk[j];
        c0[j] += av0 * bv;
        c1[j] += av1 * bv;
        c2[j] += av2 * bv;
        c3[j] += av3 * bv;
      }
    }
  }
}

void nn_row_panel1(const float* a, const float* b, float* c, std::int64_t i,
                   std::int64_t k, std::int64_t n) {
  const float* ai = a + i * k;
  float* __restrict ci = c + i * n;
  std::fill(ci, ci + n, 0.0f);
  for (std::int64_t k0 = 0; k0 < k; k0 += kKBlock) {
    const std::int64_t k1 = std::min(k, k0 + kKBlock);
    for (std::int64_t kk = k0; kk < k1; ++kk) {
      const float* __restrict bk = b + kk * n;
      const float av = ai[kk];
      for (std::int64_t j = 0; j < n; ++j) ci[j] += av * bk[j];
    }
  }
}

void b_matmul_nn(const float* a, const float* b, float* c, std::int64_t m0,
                 std::int64_t m1, std::int64_t k, std::int64_t n) {
  std::int64_t i = m0;
  for (; i + 4 <= m1; i += 4) nn_row_panel4(a, b, c, i, k, n);
  for (; i < m1; ++i) nn_row_panel1(a, b, c, i, k, n);
}

// ---- C = A · Bᵀ (dot tiles with 4-way k-partial sums) ----------------
//
// Each (i, j) dot product accumulates into four partial sums over k
// lanes {0,1,2,3} mod 4, combined as (s0+s1)+(s2+s3) — a fixed order
// that unrolls/vectorizes yet never varies with tiling or threading.

inline float dot4(const float* x, const float* y, std::int64_t k) {
  float s0 = 0.0f, s1 = 0.0f, s2 = 0.0f, s3 = 0.0f;
  std::int64_t kk = 0;
  for (; kk + 4 <= k; kk += 4) {
    s0 += x[kk + 0] * y[kk + 0];
    s1 += x[kk + 1] * y[kk + 1];
    s2 += x[kk + 2] * y[kk + 2];
    s3 += x[kk + 3] * y[kk + 3];
  }
  float tail = 0.0f;
  for (; kk < k; ++kk) tail += x[kk] * y[kk];
  return (s0 + s1) + (s2 + s3) + tail;
}

void b_matmul_nt(const float* a, const float* b, const float* bias, float* c,
                 std::int64_t m0, std::int64_t m1, std::int64_t k,
                 std::int64_t n) {
  constexpr std::int64_t kJTile = 64;  // B rows revisited while L1-hot
  for (std::int64_t j0 = 0; j0 < n; j0 += kJTile) {
    const std::int64_t j1 = std::min(n, j0 + kJTile);
    for (std::int64_t i = m0; i < m1; ++i) {
      const float* ai = a + i * k;
      float* ci = c + i * n;
      for (std::int64_t j = j0; j < j1; ++j) {
        const float acc = dot4(ai, b + j * k, k);
        ci[j] = bias != nullptr ? acc + bias[j] : acc;
      }
    }
  }
}

void b_axpy(float* y, const float* x, float alpha, std::int64_t n) {
  for (std::int64_t i = 0; i < n; ++i) y[i] += alpha * x[i];
}

void b_add(float* a, const float* b, std::int64_t n) {
  for (std::int64_t i = 0; i < n; ++i) a[i] += b[i];
}

void b_scale(float* a, float s, std::int64_t n) {
  for (std::int64_t i = 0; i < n; ++i) a[i] *= s;
}

void b_softmax_row(float* r, std::int64_t n) {
  // Single sweep for the max (vectorizable fixed-lane max), then a fused
  // exp+sum pass with 4-way partials, then one scale pass.
  float mx = r[0];
  for (std::int64_t j = 1; j < n; ++j) mx = std::max(mx, r[j]);
  float s0 = 0.0f, s1 = 0.0f, s2 = 0.0f, s3 = 0.0f;
  std::int64_t j = 0;
  for (; j + 4 <= n; j += 4) {
    const float e0 = std::exp(r[j + 0] - mx);
    const float e1 = std::exp(r[j + 1] - mx);
    const float e2 = std::exp(r[j + 2] - mx);
    const float e3 = std::exp(r[j + 3] - mx);
    r[j + 0] = e0;
    r[j + 1] = e1;
    r[j + 2] = e2;
    r[j + 3] = e3;
    s0 += e0;
    s1 += e1;
    s2 += e2;
    s3 += e3;
  }
  float tail = 0.0f;
  for (; j < n; ++j) {
    r[j] = std::exp(r[j] - mx);
    tail += r[j];
  }
  const float inv = 1.0f / ((s0 + s1) + (s2 + s3) + tail);
  for (std::int64_t jj = 0; jj < n; ++jj) r[jj] *= inv;
}

void b_layernorm_row(float* r, const float* gain, const float* bias,
                     std::int64_t n, float eps) {
  float m0 = 0.0f, m1 = 0.0f, m2 = 0.0f, m3 = 0.0f;
  float v0 = 0.0f, v1 = 0.0f, v2 = 0.0f, v3 = 0.0f;
  std::int64_t j = 0;
  for (; j + 4 <= n; j += 4) {
    m0 += r[j + 0];
    m1 += r[j + 1];
    m2 += r[j + 2];
    m3 += r[j + 3];
  }
  float mt = 0.0f;
  for (; j < n; ++j) mt += r[j];
  const float mean = ((m0 + m1) + (m2 + m3) + mt) / static_cast<float>(n);
  for (j = 0; j + 4 <= n; j += 4) {
    const float d0 = r[j + 0] - mean, d1 = r[j + 1] - mean;
    const float d2 = r[j + 2] - mean, d3 = r[j + 3] - mean;
    v0 += d0 * d0;
    v1 += d1 * d1;
    v2 += d2 * d2;
    v3 += d3 * d3;
  }
  float vt = 0.0f;
  for (; j < n; ++j) {
    const float d = r[j] - mean;
    vt += d * d;
  }
  const float var = ((v0 + v1) + (v2 + v3) + vt) / static_cast<float>(n);
  const float inv = 1.0f / std::sqrt(var + eps);
  for (j = 0; j < n; ++j) r[j] = (r[j] - mean) * inv * gain[j] + bias[j];
}

void b_gelu(float* p, std::int64_t n) {
  constexpr float kSqrt2OverPi = 0.7978845608f;
  for (std::int64_t i = 0; i < n; ++i) {
    const float v = p[i];
    const float inner = kSqrt2OverPi * (v + 0.044715f * v * v * v);
    p[i] = 0.5f * v * (1.0f + std::tanh(inner));
  }
}

void b_colwise_max(const float* a, float* out, std::int64_t m,
                   std::int64_t n) {
  for (std::int64_t j = 0; j < n; ++j) out[j] = a[j];
  for (std::int64_t i = 1; i < m; ++i) {
    const float* row = a + i * n;
    for (std::int64_t j = 0; j < n; ++j) out[j] = std::max(out[j], row[j]);
  }
}

// ---- int8 portable kernels ------------------------------------------
//
// Integer accumulation is exact in any order, so unlike the float
// kernels there is no reduction-order contract to preserve here — the
// loops are free to unroll however the compiler likes. The scale
// formulas mirror kernels_scalar.cpp bit-for-bit (single float ops).

void q_quantize_row(const float* src, std::int8_t* dst, float* scale,
                    std::int64_t n) {
  float amax = 0.0f;
  for (std::int64_t i = 0; i < n; ++i) amax = std::max(amax, std::fabs(src[i]));
  if (amax == 0.0f) {
    *scale = 1.0f;
    std::fill(dst, dst + n, std::int8_t{0});
    return;
  }
  *scale = amax / 127.0f;
  const float inv = 127.0f / amax;
  for (std::int64_t i = 0; i < n; ++i) {
    const int q = static_cast<int>(std::nearbyintf(src[i] * inv));
    dst[i] = static_cast<std::int8_t>(std::clamp(q, -127, 127));
  }
}

void q_dequantize_row(const std::int8_t* src, float* dst, float scale,
                      std::int64_t n) {
  for (std::int64_t i = 0; i < n; ++i) {
    dst[i] = scale * static_cast<float>(src[i]);
  }
}

/// 4-way unrolled int8 dot with i32 partials: exact, so the partials are
/// a pure throughput device (the compiler widens them to SIMD lanes).
inline std::int32_t dot_i8(const std::int8_t* x, const std::int8_t* y,
                           std::int64_t k) {
  std::int32_t s0 = 0, s1 = 0, s2 = 0, s3 = 0;
  std::int64_t kk = 0;
  for (; kk + 4 <= k; kk += 4) {
    s0 += static_cast<std::int32_t>(x[kk + 0]) * y[kk + 0];
    s1 += static_cast<std::int32_t>(x[kk + 1]) * y[kk + 1];
    s2 += static_cast<std::int32_t>(x[kk + 2]) * y[kk + 2];
    s3 += static_cast<std::int32_t>(x[kk + 3]) * y[kk + 3];
  }
  std::int32_t tail = 0;
  for (; kk < k; ++kk) tail += static_cast<std::int32_t>(x[kk]) * y[kk];
  return s0 + s1 + s2 + s3 + tail;
}

void q_matmul_nt_i8(const std::int8_t* a, const float* a_scales,
                    const std::int8_t* b, const float* b_scales,
                    const float* bias, float* c, std::int64_t m0,
                    std::int64_t m1, std::int64_t k, std::int64_t n) {
  constexpr std::int64_t kJTile = 64;  // B rows revisited while L1-hot
  for (std::int64_t j0 = 0; j0 < n; j0 += kJTile) {
    const std::int64_t j1 = std::min(n, j0 + kJTile);
    for (std::int64_t i = m0; i < m1; ++i) {
      const std::int8_t* ai = a + i * k;
      const float as = a_scales[i];
      float* ci = c + i * n;
      for (std::int64_t j = j0; j < j1; ++j) {
        const float v = static_cast<float>(dot_i8(ai, b + j * k, k)) *
                        (as * b_scales[j]);
        ci[j] = bias != nullptr ? v + bias[j] : v;
      }
    }
  }
}

constexpr KernelBackend kBlockedBackend = {
    "blocked",      b_matmul_nn, b_matmul_nt,   b_axpy,
    b_add,          b_scale,     b_softmax_row, b_layernorm_row, b_gelu,
    b_colwise_max,
    q_quantize_row, q_dequantize_row, q_matmul_nt_i8,
    nullptr,  // attention_scores: matmul_nt + scale
};

}  // namespace

const KernelBackend& blocked_backend() { return kBlockedBackend; }

}  // namespace zenesis::tensor::kernels
