// AVX2+FMA backend: 8-wide FMA micro-kernels behind the KernelBackend
// interface. Compiled with -mavx2 -mfma (set per-file in CMake) and
// registered only when CPUID reports both features, so the binary still
// runs on older x86 and on other architectures (where this TU compiles
// to the nullptr stub at the bottom).
//
// Micro-kernel shapes:
//   matmul_nt — 2 A-rows x 4 B-rows register tile: 8 ymm accumulators
//     fed by 6 loads per k-octet (FMA/load ratio 8/6); edges fall back
//     to a shared single-dot helper with the identical per-pair
//     accumulation order (octet FMAs -> fixed horizontal sum -> scalar
//     tail), so results never depend on which tile computed a pair.
//   matmul_nn — i-k-j broadcast FMA over 16-column panels of B packed
//     into a contiguous L1-resident buffer (panel depth kKBlock), four
//     C rows per pass.
//   attention_scores — 8 keys per vector over [K][8] key panels, four
//     query rows per panel pass, each score in dot_avx's exact order.
//
// Determinism: per-output accumulation order is a function of k alone —
// lane assignment, horizontal-sum shape and tail handling are fixed —
// so any row split across threads is byte-stable.

#include "zenesis/tensor/kernels.hpp"

#if defined(__AVX2__) && defined(__FMA__) && \
    (defined(__x86_64__) || defined(__i386__))

#include <immintrin.h>

#include <algorithm>
#include <cmath>
#include <vector>

namespace zenesis::tensor::kernels {
namespace {

constexpr std::int64_t kKBlock = 256;  // packed-B panel depth

/// Fixed horizontal sum: pairwise within 128-bit halves, then across.
inline float hsum8(__m256 v) {
  const __m128 lo = _mm256_castps256_ps128(v);
  const __m128 hi = _mm256_extractf128_ps(v, 1);
  __m128 s = _mm_add_ps(lo, hi);
  s = _mm_add_ps(s, _mm_movehl_ps(s, s));
  s = _mm_add_ss(s, _mm_shuffle_ps(s, s, 0x55));
  return _mm_cvtss_f32(s);
}

/// Canonical dot order shared by every matmul_nt edge path: 8-lane FMA
/// over whole octets, hsum8, then an ascending scalar tail. The tail is
/// written as std::fma so the bytes do not depend on whether the
/// optimizer would have contracted `sum += x * y` (GCC 12 does at -O3
/// but not at -O2).
inline float dot_avx(const float* x, const float* y, std::int64_t k) {
  __m256 acc = _mm256_setzero_ps();
  std::int64_t kk = 0;
  for (; kk + 8 <= k; kk += 8) {
    acc = _mm256_fmadd_ps(_mm256_loadu_ps(x + kk), _mm256_loadu_ps(y + kk),
                          acc);
  }
  float sum = hsum8(acc);
  for (; kk < k; ++kk) sum = std::fma(x[kk], y[kk], sum);
  return sum;
}

/// 2x4 register tile: rows {i, i+1} of A against rows {j..j+3} of B.
/// Each accumulator's FMA sequence over k is identical to dot_avx, so
/// tile membership does not change any (i, j) result.
inline void nt_tile_2x4(const float* a0, const float* a1, const float* b,
                        std::int64_t ldb, std::int64_t k, float* c0,
                        float* c1) {
  __m256 acc[2][4];
  for (int r = 0; r < 2; ++r) {
    for (int s = 0; s < 4; ++s) acc[r][s] = _mm256_setzero_ps();
  }
  std::int64_t kk = 0;
  for (; kk + 8 <= k; kk += 8) {
    const __m256 av0 = _mm256_loadu_ps(a0 + kk);
    const __m256 av1 = _mm256_loadu_ps(a1 + kk);
    for (int s = 0; s < 4; ++s) {
      const __m256 bv = _mm256_loadu_ps(b + s * ldb + kk);
      acc[0][s] = _mm256_fmadd_ps(av0, bv, acc[0][s]);
      acc[1][s] = _mm256_fmadd_ps(av1, bv, acc[1][s]);
    }
  }
  float sum[2][4];
  for (int r = 0; r < 2; ++r) {
    for (int s = 0; s < 4; ++s) sum[r][s] = hsum8(acc[r][s]);
  }
  for (; kk < k; ++kk) {
    const float x0 = a0[kk], x1 = a1[kk];
    for (int s = 0; s < 4; ++s) {
      const float bv = b[s * ldb + kk];
      sum[0][s] = std::fma(x0, bv, sum[0][s]);
      sum[1][s] = std::fma(x1, bv, sum[1][s]);
    }
  }
  for (int s = 0; s < 4; ++s) {
    c0[s] = sum[0][s];
    c1[s] = sum[1][s];
  }
}

void v_matmul_nt(const float* a, const float* b, const float* bias, float* c,
                 std::int64_t m0, std::int64_t m1, std::int64_t k,
                 std::int64_t n) {
  const std::int64_t n4 = n & ~std::int64_t{3};
  std::int64_t i = m0;
  for (; i + 2 <= m1; i += 2) {
    const float* a0 = a + i * k;
    const float* a1 = a0 + k;
    float* c0 = c + i * n;
    float* c1 = c0 + n;
    for (std::int64_t j = 0; j < n4; j += 4) {
      nt_tile_2x4(a0, a1, b + j * k, k, k, c0 + j, c1 + j);
    }
    for (std::int64_t j = n4; j < n; ++j) {
      c0[j] = dot_avx(a0, b + j * k, k);
      c1[j] = dot_avx(a1, b + j * k, k);
    }
  }
  for (; i < m1; ++i) {
    const float* ai = a + i * k;
    float* ci = c + i * n;
    for (std::int64_t j = 0; j < n; ++j) ci[j] = dot_avx(ai, b + j * k, k);
  }
  if (bias != nullptr) {
    for (std::int64_t r = m0; r < m1; ++r) {
      float* cr = c + r * n;
      std::int64_t j = 0;
      for (; j + 8 <= n; j += 8) {
        _mm256_storeu_ps(cr + j, _mm256_add_ps(_mm256_loadu_ps(cr + j),
                                               _mm256_loadu_ps(bias + j)));
      }
      for (; j < n; ++j) cr[j] += bias[j];
    }
  }
}

// ---- attention scores over packed 8-key panels ----------------------
//
// Narrow heads (dh = 16 in the encoder) leave nt_tile_2x4 one hsum8 per
// two FMAs. Here the vector lanes hold 8 keys instead of 8 features, so
// dot_avx's per-lane chains become whole vectors: chain l runs the FMAs
// over features l, l+8, l+16, … from +0, and the 8 chain vectors are
// combined in hsum8's tree ((a0+a4)+(a2+a6))+((a1+a5)+(a3+a7)). Each key
// therefore sees dot_avx's exact operation sequence (K % 8 == 0 leaves
// no scalar tail), and the score multiply is v_scale's single mul.

/// Lane chain `l` of dot_avx for R query rows against one 8-key panel.
template <int R>
inline void panel_chain(const float* const (&q)[R], const float* panel,
                        std::int64_t k, std::int64_t l, __m256 (&out)[R]) {
  const __m256 p = _mm256_loadu_ps(panel + l * 8);
  for (int r = 0; r < R; ++r) {
    out[r] = _mm256_fmadd_ps(_mm256_broadcast_ss(q[r] + l), p,
                             _mm256_setzero_ps());
  }
  for (std::int64_t d = l + 8; d < k; d += 8) {
    const __m256 pd = _mm256_loadu_ps(panel + d * 8);
    for (int r = 0; r < R; ++r) {
      out[r] = _mm256_fmadd_ps(_mm256_broadcast_ss(q[r] + d), pd, out[r]);
    }
  }
}

/// Scores of R query rows against one panel; `width` (<= 8) keys stored.
template <int R>
inline void panel_scores(const float* const (&q)[R], const float* panel,
                         std::int64_t k, __m256 scale, float* const (&c)[R],
                         std::int64_t width) {
  __m256 x[R], y[R], lo[R], hi[R];
  panel_chain<R>(q, panel, k, 0, x);
  panel_chain<R>(q, panel, k, 4, y);
  for (int r = 0; r < R; ++r) lo[r] = _mm256_add_ps(x[r], y[r]);
  panel_chain<R>(q, panel, k, 2, x);
  panel_chain<R>(q, panel, k, 6, y);
  for (int r = 0; r < R; ++r) {
    lo[r] = _mm256_add_ps(lo[r], _mm256_add_ps(x[r], y[r]));
  }
  panel_chain<R>(q, panel, k, 1, x);
  panel_chain<R>(q, panel, k, 5, y);
  for (int r = 0; r < R; ++r) hi[r] = _mm256_add_ps(x[r], y[r]);
  panel_chain<R>(q, panel, k, 3, x);
  panel_chain<R>(q, panel, k, 7, y);
  for (int r = 0; r < R; ++r) {
    hi[r] = _mm256_add_ps(hi[r], _mm256_add_ps(x[r], y[r]));
  }
  for (int r = 0; r < R; ++r) {
    const __m256 s = _mm256_mul_ps(_mm256_add_ps(lo[r], hi[r]), scale);
    if (width == 8) {
      _mm256_storeu_ps(c[r], s);
    } else {
      alignas(32) float lanes[8];
      _mm256_store_ps(lanes, s);
      std::copy(lanes, lanes + width, c[r]);
    }
  }
}

void v_attention_scores(const float* a, const float* b_panels, float scale,
                        float* c, std::int64_t m0, std::int64_t m1,
                        std::int64_t k, std::int64_t n) {
  const __m256 vscale = _mm256_set1_ps(scale);
  // Panel-outer: one panel (8·K floats) stays in L1 while every row of
  // the range streams past it.
  for (std::int64_t j = 0; j < n; j += 8) {
    const float* panel = b_panels + j * k;
    const std::int64_t width = std::min<std::int64_t>(8, n - j);
    std::int64_t i = m0;
    for (; i + 4 <= m1; i += 4) {
      const float* q[4] = {a + i * k, a + (i + 1) * k, a + (i + 2) * k,
                           a + (i + 3) * k};
      float* const cr[4] = {c + i * n + j, c + (i + 1) * n + j,
                            c + (i + 2) * n + j, c + (i + 3) * n + j};
      panel_scores<4>(q, panel, k, vscale, cr, width);
    }
    for (; i < m1; ++i) {
      const float* q[1] = {a + i * k};
      float* const cr[1] = {c + i * n + j};
      panel_scores<1>(q, panel, k, vscale, cr, width);
    }
  }
}

void v_matmul_nn(const float* a, const float* b, float* c, std::int64_t m0,
                 std::int64_t m1, std::int64_t k, std::int64_t n) {
  // Zero the output rows once; panels accumulate into them.
  for (std::int64_t i = m0; i < m1; ++i) {
    std::fill(c + i * n, c + i * n + n, 0.0f);
  }
  // Pack B panels [k0:k1) x [j0:j0+16) contiguously: the kernel then
  // streams one 128-byte packed row per k step regardless of n.
  thread_local std::vector<float> pack;
  pack.resize(static_cast<std::size_t>(kKBlock) * 16);
  for (std::int64_t k0 = 0; k0 < k; k0 += kKBlock) {
    const std::int64_t k1 = std::min(k, k0 + kKBlock);
    const std::int64_t kd = k1 - k0;
    for (std::int64_t j0 = 0; j0 < n; j0 += 16) {
      const std::int64_t jw = std::min<std::int64_t>(16, n - j0);
      float* pk = pack.data();
      for (std::int64_t kk = k0; kk < k1; ++kk, pk += 16) {
        const float* bk = b + kk * n + j0;
        for (std::int64_t j = 0; j < jw; ++j) pk[j] = bk[j];
        for (std::int64_t j = jw; j < 16; ++j) pk[j] = 0.0f;
      }
      std::int64_t i = m0;
      if (jw == 16) {
        for (; i + 4 <= m1; i += 4) {
          __m256 acc[4][2];
          for (int r = 0; r < 4; ++r) {
            float* cr = c + (i + r) * n + j0;
            acc[r][0] = _mm256_loadu_ps(cr);
            acc[r][1] = _mm256_loadu_ps(cr + 8);
          }
          const float* pkk = pack.data();
          for (std::int64_t kk = 0; kk < kd; ++kk, pkk += 16) {
            const __m256 b0 = _mm256_loadu_ps(pkk);
            const __m256 b1 = _mm256_loadu_ps(pkk + 8);
            for (int r = 0; r < 4; ++r) {
              const __m256 av =
                  _mm256_set1_ps(a[(i + r) * k + k0 + kk]);
              acc[r][0] = _mm256_fmadd_ps(av, b0, acc[r][0]);
              acc[r][1] = _mm256_fmadd_ps(av, b1, acc[r][1]);
            }
          }
          for (int r = 0; r < 4; ++r) {
            float* cr = c + (i + r) * n + j0;
            _mm256_storeu_ps(cr, acc[r][0]);
            _mm256_storeu_ps(cr + 8, acc[r][1]);
          }
        }
      }
      // Remainder rows (and narrow right-edge panels): same broadcast
      // FMA order per (i, j), scalar over the panel width.
      for (; i < m1; ++i) {
        float* cr = c + i * n + j0;
        const float* pkk = pack.data();
        for (std::int64_t kk = 0; kk < kd; ++kk, pkk += 16) {
          const float av = a[i * k + k0 + kk];
          for (std::int64_t j = 0; j < jw; ++j) cr[j] += av * pkk[j];
        }
      }
    }
  }
}

void v_axpy(float* y, const float* x, float alpha, std::int64_t n) {
  const __m256 av = _mm256_set1_ps(alpha);
  std::int64_t i = 0;
  for (; i + 8 <= n; i += 8) {
    _mm256_storeu_ps(
        y + i, _mm256_fmadd_ps(av, _mm256_loadu_ps(x + i),
                               _mm256_loadu_ps(y + i)));
  }
  for (; i < n; ++i) y[i] += alpha * x[i];
}

void v_add(float* a, const float* b, std::int64_t n) {
  std::int64_t i = 0;
  for (; i + 8 <= n; i += 8) {
    _mm256_storeu_ps(
        a + i, _mm256_add_ps(_mm256_loadu_ps(a + i), _mm256_loadu_ps(b + i)));
  }
  for (; i < n; ++i) a[i] += b[i];
}

void v_scale(float* a, float s, std::int64_t n) {
  const __m256 sv = _mm256_set1_ps(s);
  std::int64_t i = 0;
  for (; i + 8 <= n; i += 8) {
    _mm256_storeu_ps(a + i, _mm256_mul_ps(_mm256_loadu_ps(a + i), sv));
  }
  for (; i < n; ++i) a[i] *= s;
}

void v_softmax_row(float* r, std::int64_t n) {
  // Vectorized max (lane-wise max is exact — order free), scalar exp for
  // bit-stable transcendentals, vectorized normalize.
  float mx;
  if (n >= 8) {
    __m256 vmax = _mm256_loadu_ps(r);
    std::int64_t j = 8;
    for (; j + 8 <= n; j += 8) {
      vmax = _mm256_max_ps(vmax, _mm256_loadu_ps(r + j));
    }
    alignas(32) float lanes[8];
    _mm256_store_ps(lanes, vmax);
    mx = lanes[0];
    for (int l = 1; l < 8; ++l) mx = std::max(mx, lanes[l]);
    for (; j < n; ++j) mx = std::max(mx, r[j]);
  } else {
    mx = r[0];
    for (std::int64_t j = 1; j < n; ++j) mx = std::max(mx, r[j]);
  }
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
  v_scale(r, 1.0f / ((s0 + s1) + (s2 + s3) + tail), n);
}

void v_layernorm_row(float* r, const float* gain, const float* bias,
                     std::int64_t n, float eps) {
  __m256 vsum = _mm256_setzero_ps();
  std::int64_t j = 0;
  for (; j + 8 <= n; j += 8) vsum = _mm256_add_ps(vsum, _mm256_loadu_ps(r + j));
  float mean = hsum8(vsum);
  for (; j < n; ++j) mean += r[j];
  mean /= static_cast<float>(n);

  const __m256 vmean = _mm256_set1_ps(mean);
  __m256 vvar = _mm256_setzero_ps();
  for (j = 0; j + 8 <= n; j += 8) {
    const __m256 d = _mm256_sub_ps(_mm256_loadu_ps(r + j), vmean);
    vvar = _mm256_fmadd_ps(d, d, vvar);
  }
  float var = hsum8(vvar);
  for (; j < n; ++j) {
    const float d = r[j] - mean;
    var += d * d;
  }
  var /= static_cast<float>(n);
  const float inv = 1.0f / std::sqrt(var + eps);
  const __m256 vinv = _mm256_set1_ps(inv);
  for (j = 0; j + 8 <= n; j += 8) {
    const __m256 d = _mm256_sub_ps(_mm256_loadu_ps(r + j), vmean);
    const __m256 out = _mm256_fmadd_ps(_mm256_mul_ps(d, vinv),
                                       _mm256_loadu_ps(gain + j),
                                       _mm256_loadu_ps(bias + j));
    _mm256_storeu_ps(r + j, out);
  }
  for (; j < n; ++j) r[j] = (r[j] - mean) * inv * gain[j] + bias[j];
}

void v_gelu(float* p, std::int64_t n) {
  // tanh stays scalar (libm); the cubic feeding it is vectorized.
  constexpr float kSqrt2OverPi = 0.7978845608f;
  for (std::int64_t i = 0; i < n; ++i) {
    const float v = p[i];
    const float inner = kSqrt2OverPi * (v + 0.044715f * v * v * v);
    p[i] = 0.5f * v * (1.0f + std::tanh(inner));
  }
}

void v_colwise_max(const float* a, float* out, std::int64_t m,
                   std::int64_t n) {
  for (std::int64_t j = 0; j < n; ++j) out[j] = a[j];
  for (std::int64_t i = 1; i < m; ++i) {
    const float* row = a + i * n;
    std::int64_t j = 0;
    for (; j + 8 <= n; j += 8) {
      _mm256_storeu_ps(out + j, _mm256_max_ps(_mm256_loadu_ps(out + j),
                                              _mm256_loadu_ps(row + j)));
    }
    for (; j < n; ++j) out[j] = std::max(out[j], row[j]);
  }
}

// ---- int8 kernels ---------------------------------------------------
//
// The dot micro-kernel runs 32 int8 MACs per maddubs/madd pair (vs 8
// fp32 MACs per FMA), which is where the >= 1.8x over the fp32 GEMM
// comes from. maddubs multiplies u8 x s8 into saturating i16 pair sums;
// with the |a| <= 127 quantization contract the worst pair sum is
// 127*127*2 = 32258 < 32767, so the trick — |a| as the unsigned operand,
// b with a's signs folded in via sign_epi8 — is exact. Integer sums are
// order-free, so no determinism scaffolding is needed.

inline std::int32_t hsum8_epi32(__m256i v) {
  const __m128i lo = _mm256_castsi256_si128(v);
  const __m128i hi = _mm256_extracti128_si256(v, 1);
  __m128i s = _mm_add_epi32(lo, hi);
  s = _mm_add_epi32(s, _mm_shuffle_epi32(s, 0x4e));
  s = _mm_add_epi32(s, _mm_shuffle_epi32(s, 0xb1));
  return _mm_cvtsi128_si32(s);
}

/// acc += sum over 32 lanes of x[i]*y[i], exactly.
inline __m256i dot_i8_step(__m256i acc, __m256i vx, __m256i vy) {
  const __m256i ax = _mm256_sign_epi8(vx, vx);  // |x|, fits u8
  const __m256i sy = _mm256_sign_epi8(vy, vx);  // y * sign(x); 0 where x==0
  const __m256i p16 = _mm256_maddubs_epi16(ax, sy);
  return _mm256_add_epi32(acc,
                          _mm256_madd_epi16(p16, _mm256_set1_epi16(1)));
}

inline std::int32_t dot_i8_avx(const std::int8_t* x, const std::int8_t* y,
                               std::int64_t k) {
  __m256i acc = _mm256_setzero_si256();
  std::int64_t kk = 0;
  for (; kk + 32 <= k; kk += 32) {
    acc = dot_i8_step(
        acc,
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(x + kk)),
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(y + kk)));
  }
  std::int32_t sum = hsum8_epi32(acc);
  for (; kk < k; ++kk) {
    sum += static_cast<std::int32_t>(x[kk]) * static_cast<std::int32_t>(y[kk]);
  }
  return sum;
}

/// 2 A-rows x 4 B-rows register tile: 8 i32 accumulator vectors fed by
/// 6 loads per 32-deep k step (the fp32 tile's shape at 4x the MACs).
inline void nt_tile_i8_2x4(const std::int8_t* a0, const std::int8_t* a1,
                           const std::int8_t* b, std::int64_t ldb,
                           std::int64_t k, std::int32_t sum[2][4]) {
  __m256i acc[2][4];
  for (int r = 0; r < 2; ++r) {
    for (int s = 0; s < 4; ++s) acc[r][s] = _mm256_setzero_si256();
  }
  std::int64_t kk = 0;
  for (; kk + 32 <= k; kk += 32) {
    const __m256i av0 =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(a0 + kk));
    const __m256i av1 =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(a1 + kk));
    for (int s = 0; s < 4; ++s) {
      const __m256i bv = _mm256_loadu_si256(
          reinterpret_cast<const __m256i*>(b + s * ldb + kk));
      acc[0][s] = dot_i8_step(acc[0][s], av0, bv);
      acc[1][s] = dot_i8_step(acc[1][s], av1, bv);
    }
  }
  for (int r = 0; r < 2; ++r) {
    for (int s = 0; s < 4; ++s) sum[r][s] = hsum8_epi32(acc[r][s]);
  }
  for (; kk < k; ++kk) {
    const std::int32_t x0 = a0[kk], x1 = a1[kk];
    for (int s = 0; s < 4; ++s) {
      const std::int32_t bv = b[s * ldb + kk];
      sum[0][s] += x0 * bv;
      sum[1][s] += x1 * bv;
    }
  }
}

void vq_quantize_row(const float* src, std::int8_t* dst, float* scale,
                     std::int64_t n) {
  const __m256 signmask = _mm256_set1_ps(-0.0f);
  __m256 vmax = _mm256_setzero_ps();
  std::int64_t i = 0;
  for (; i + 8 <= n; i += 8) {
    vmax = _mm256_max_ps(vmax,
                         _mm256_andnot_ps(signmask, _mm256_loadu_ps(src + i)));
  }
  alignas(32) float lanes[8];
  _mm256_store_ps(lanes, vmax);
  float amax = lanes[0];
  for (int l = 1; l < 8; ++l) amax = std::max(amax, lanes[l]);
  for (; i < n; ++i) amax = std::max(amax, std::fabs(src[i]));
  if (amax == 0.0f) {
    *scale = 1.0f;
    std::fill(dst, dst + n, std::int8_t{0});
    return;
  }
  // Same two single-op formulas as the scalar reference, so the int8
  // payload and scale are bit-identical across backends.
  *scale = amax / 127.0f;
  const float inv = 127.0f / amax;
  const __m256 vinv = _mm256_set1_ps(inv);
  i = 0;
  for (; i + 16 <= n; i += 16) {
    // cvtps rounds per MXCSR (nearest-even — same as nearbyintf); the
    // products are bounded by ~127.01 so the saturating packs are exact.
    const __m256i q0 = _mm256_cvtps_epi32(
        _mm256_mul_ps(_mm256_loadu_ps(src + i), vinv));
    const __m256i q1 = _mm256_cvtps_epi32(
        _mm256_mul_ps(_mm256_loadu_ps(src + i + 8), vinv));
    __m256i p16 = _mm256_packs_epi32(q0, q1);
    p16 = _mm256_permute4x64_epi64(p16, 0xd8);  // undo lane interleave
    const __m128i p8 = _mm_packs_epi16(_mm256_castsi256_si128(p16),
                                       _mm256_extracti128_si256(p16, 1));
    _mm_storeu_si128(reinterpret_cast<__m128i*>(dst + i), p8);
  }
  for (; i < n; ++i) {
    const int q = static_cast<int>(std::nearbyintf(src[i] * inv));
    dst[i] = static_cast<std::int8_t>(std::clamp(q, -127, 127));
  }
}

void vq_dequantize_row(const std::int8_t* src, float* dst, float scale,
                       std::int64_t n) {
  const __m256 vs = _mm256_set1_ps(scale);
  std::int64_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m128i bytes =
        _mm_loadl_epi64(reinterpret_cast<const __m128i*>(src + i));
    const __m256 f = _mm256_cvtepi32_ps(_mm256_cvtepi8_epi32(bytes));
    _mm256_storeu_ps(dst + i, _mm256_mul_ps(f, vs));
  }
  for (; i < n; ++i) dst[i] = scale * static_cast<float>(src[i]);
}

void vq_matmul_nt_i8(const std::int8_t* a, const float* a_scales,
                     const std::int8_t* b, const float* b_scales,
                     const float* bias, float* c, std::int64_t m0,
                     std::int64_t m1, std::int64_t k, std::int64_t n) {
  const auto store = [&](float* cr, std::int64_t j, std::int32_t acc,
                         float as) {
    const float v = static_cast<float>(acc) * (as * b_scales[j]);
    cr[j] = bias != nullptr ? v + bias[j] : v;
  };
  const std::int64_t n4 = n & ~std::int64_t{3};
  std::int64_t i = m0;
  for (; i + 2 <= m1; i += 2) {
    const std::int8_t* a0 = a + i * k;
    const std::int8_t* a1 = a0 + k;
    const float as0 = a_scales[i], as1 = a_scales[i + 1];
    float* c0 = c + i * n;
    float* c1 = c0 + n;
    for (std::int64_t j = 0; j < n4; j += 4) {
      std::int32_t sum[2][4];
      nt_tile_i8_2x4(a0, a1, b + j * k, k, k, sum);
      for (int s = 0; s < 4; ++s) {
        store(c0, j + s, sum[0][s], as0);
        store(c1, j + s, sum[1][s], as1);
      }
    }
    for (std::int64_t j = n4; j < n; ++j) {
      store(c0, j, dot_i8_avx(a0, b + j * k, k), as0);
      store(c1, j, dot_i8_avx(a1, b + j * k, k), as1);
    }
  }
  for (; i < m1; ++i) {
    const std::int8_t* ai = a + i * k;
    const float as = a_scales[i];
    float* ci = c + i * n;
    for (std::int64_t j = 0; j < n; ++j) {
      store(ci, j, dot_i8_avx(ai, b + j * k, k), as);
    }
  }
}

constexpr KernelBackend kAvx2Backend = {
    "avx2",         v_matmul_nn, v_matmul_nt,   v_axpy,
    v_add,          v_scale,     v_softmax_row, v_layernorm_row, v_gelu,
    v_colwise_max,
    vq_quantize_row, vq_dequantize_row, vq_matmul_nt_i8,
    v_attention_scores,
};

bool cpu_has_avx2_fma() {
  return __builtin_cpu_supports("avx2") && __builtin_cpu_supports("fma");
}

}  // namespace

const KernelBackend* avx2_backend() {
  static const KernelBackend* backend =
      cpu_has_avx2_fma() ? &kAvx2Backend : nullptr;
  return backend;
}

}  // namespace zenesis::tensor::kernels

#else  // non-x86 or AVX2/FMA not enabled for this TU

namespace zenesis::tensor::kernels {
const KernelBackend* avx2_backend() { return nullptr; }
}  // namespace zenesis::tensor::kernels

#endif
