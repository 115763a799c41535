// Scalar reference backend: the original straightforward loops, kept
// byte-for-byte compatible with the pre-backend ops.cpp so historical
// results (and the determinism baselines) reproduce exactly. Every other
// backend is equivalence-tested against this table.

#include <algorithm>
#include <cmath>

#include "zenesis/tensor/kernels.hpp"

namespace zenesis::tensor::kernels {
namespace {

// Row-parallel, k-blocked i-k-j loop order: B rows stream through cache,
// C rows stay resident. (The historical matmul loop.)
void s_matmul_nn(const float* a, const float* b, float* c, std::int64_t m0,
                 std::int64_t m1, std::int64_t k, std::int64_t n) {
  constexpr std::int64_t kBlock = 64;
  for (std::int64_t i = m0; i < m1; ++i) {
    const float* ai = a + i * k;
    float* ci = c + i * n;
    std::fill(ci, ci + n, 0.0f);
    for (std::int64_t k0 = 0; k0 < k; k0 += kBlock) {
      const std::int64_t k1 = std::min(k, k0 + kBlock);
      for (std::int64_t kk = k0; kk < k1; ++kk) {
        const float av = ai[kk];
        const float* bk = b + kk * n;
        for (std::int64_t j = 0; j < n; ++j) ci[j] += av * bk[j];
      }
    }
  }
}

void s_matmul_nt(const float* a, const float* b, const float* bias, float* c,
                 std::int64_t m0, std::int64_t m1, std::int64_t k,
                 std::int64_t n) {
  for (std::int64_t i = m0; i < m1; ++i) {
    const float* ai = a + i * k;
    float* ci = c + i * n;
    for (std::int64_t j = 0; j < n; ++j) {
      const float* bj = b + j * k;
      float acc = 0.0f;
      for (std::int64_t kk = 0; kk < k; ++kk) acc += ai[kk] * bj[kk];
      ci[j] = bias != nullptr ? acc + bias[j] : acc;
    }
  }
}

void s_axpy(float* y, const float* x, float alpha, std::int64_t n) {
  for (std::int64_t i = 0; i < n; ++i) y[i] += alpha * x[i];
}

void s_add(float* a, const float* b, std::int64_t n) {
  for (std::int64_t i = 0; i < n; ++i) a[i] += b[i];
}

void s_scale(float* a, float s, std::int64_t n) {
  for (std::int64_t i = 0; i < n; ++i) a[i] *= s;
}

void s_softmax_row(float* r, std::int64_t n) {
  float mx = r[0];
  for (std::int64_t j = 1; j < n; ++j) mx = std::max(mx, r[j]);
  float sum = 0.0f;
  for (std::int64_t j = 0; j < n; ++j) {
    r[j] = std::exp(r[j] - mx);
    sum += r[j];
  }
  const float inv = 1.0f / sum;
  for (std::int64_t j = 0; j < n; ++j) r[j] *= inv;
}

void s_layernorm_row(float* r, const float* gain, const float* bias,
                     std::int64_t n, float eps) {
  float mean = 0.0f;
  for (std::int64_t j = 0; j < n; ++j) mean += r[j];
  mean /= static_cast<float>(n);
  float var = 0.0f;
  for (std::int64_t j = 0; j < n; ++j) {
    const float d = r[j] - mean;
    var += d * d;
  }
  var /= static_cast<float>(n);
  const float inv = 1.0f / std::sqrt(var + eps);
  for (std::int64_t j = 0; j < n; ++j) {
    r[j] = (r[j] - mean) * inv * gain[j] + bias[j];
  }
}

void s_gelu(float* p, std::int64_t n) {
  constexpr float kSqrt2OverPi = 0.7978845608f;
  for (std::int64_t i = 0; i < n; ++i) {
    const float v = p[i];
    const float inner = kSqrt2OverPi * (v + 0.044715f * v * v * v);
    p[i] = 0.5f * v * (1.0f + std::tanh(inner));
  }
}

void s_colwise_max(const float* a, float* out, std::int64_t m,
                   std::int64_t n) {
  for (std::int64_t j = 0; j < n; ++j) out[j] = a[j];
  for (std::int64_t i = 1; i < m; ++i) {
    const float* row = a + i * n;
    for (std::int64_t j = 0; j < n; ++j) out[j] = std::max(out[j], row[j]);
  }
}

// ---- int8 reference kernels -----------------------------------------
//
// The scale/inverse formulas (amax/127 and 127/amax — NOT 1/scale) and
// nearbyint rounding are the cross-backend contract: each is a single
// float operation, so every backend produces bit-identical int8
// payloads and scales. See kernels.hpp.

void s_quantize_row(const float* src, std::int8_t* dst, float* scale,
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
    const float q = std::nearbyintf(src[i] * inv);  // nearest-even
    dst[i] = static_cast<std::int8_t>(
        std::clamp(static_cast<int>(q), -127, 127));
  }
}

void s_dequantize_row(const std::int8_t* src, float* dst, float scale,
                      std::int64_t n) {
  for (std::int64_t i = 0; i < n; ++i) {
    dst[i] = scale * static_cast<float>(src[i]);
  }
}

void s_matmul_nt_i8(const std::int8_t* a, const float* a_scales,
                    const std::int8_t* b, const float* b_scales,
                    const float* bias, float* c, std::int64_t m0,
                    std::int64_t m1, std::int64_t k, std::int64_t n) {
  for (std::int64_t i = m0; i < m1; ++i) {
    const std::int8_t* ai = a + i * k;
    float* ci = c + i * n;
    for (std::int64_t j = 0; j < n; ++j) {
      const std::int8_t* bj = b + j * k;
      std::int32_t acc = 0;
      for (std::int64_t kk = 0; kk < k; ++kk) {
        acc += static_cast<std::int32_t>(ai[kk]) *
               static_cast<std::int32_t>(bj[kk]);
      }
      const float v =
          static_cast<float>(acc) * (a_scales[i] * b_scales[j]);
      ci[j] = bias != nullptr ? v + bias[j] : v;
    }
  }
}

constexpr KernelBackend kScalarBackend = {
    "scalar",       s_matmul_nn, s_matmul_nt,   s_axpy,
    s_add,          s_scale,     s_softmax_row, s_layernorm_row,
    s_gelu,         s_colwise_max,
    s_quantize_row, s_dequantize_row, s_matmul_nt_i8,
    nullptr,  // attention_scores: matmul_nt + scale
};

}  // namespace

const KernelBackend& scalar_backend() { return kScalarBackend; }

}  // namespace zenesis::tensor::kernels
