// ops.cpp — shape checking, output allocation and ThreadPool tiling for
// the public tensor ops. All arithmetic lives in the active
// tensor::kernels::KernelBackend: most functions here split row/element
// ranges onto parallel_for and hand raw pointers to one backend
// micro-kernel. multihead_attention (and attention, its one-head case)
// is the exception: it fuses scores, scale, softmax and the value GEMM
// per 32-row block in per-thread scratch, chaining the same backend
// calls the unfused ops would make on the same row blocks.

#include "zenesis/tensor/ops.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <stdexcept>
#include <vector>

#include "zenesis/parallel/parallel_for.hpp"
#include "zenesis/tensor/kernels.hpp"

namespace zenesis::tensor {
namespace {

void require(bool cond, const char* what) {
  if (!cond) throw std::invalid_argument(what);
}

void require_rank2(const Tensor& t, const char* what) {
  require(t.rank() == 2, what);
}

// Rows per GEMM work chunk. A multiple of 8 so the chunk starts stay
// aligned with every backend's register-tile row grouping (2- and 4-row
// micro-kernels) — the tile decomposition, and therefore the bit
// pattern of each output row, is then independent of how many workers
// pull chunks.
constexpr std::int64_t kGemmRowGrain = 32;

// Elements per chunk for flat elementwise kernels (multiple of 8 keeps
// SIMD lane alignment identical across thread counts).
constexpr std::int64_t kFlatGrain = 1 << 15;

const kernels::KernelBackend& be() { return kernels::active(); }

/// Splits a flat range across the pool and applies `fn(ptr, len)` to
/// each contiguous chunk.
template <typename Fn>
void for_flat_chunks(float* data, std::int64_t n, Fn&& fn) {
  parallel::parallel_for_chunked(
      0, n, kFlatGrain,
      [&](std::int64_t lo, std::int64_t hi) { fn(data + lo, hi - lo); });
}

}  // namespace

Tensor matmul(const Tensor& a, const Tensor& b) {
  require_rank2(a, "matmul: a must be rank 2");
  require_rank2(b, "matmul: b must be rank 2");
  require(a.dim(1) == b.dim(0), "matmul: inner dimensions differ");
  const std::int64_t m = a.dim(0), k = a.dim(1), n = b.dim(1);
  Tensor c({m, n});
  const kernels::KernelBackend& backend = be();
  parallel::parallel_for_chunked(
      0, m, kGemmRowGrain, [&](std::int64_t m0, std::int64_t m1) {
        backend.matmul_nn(a.data(), b.data(), c.data(), m0, m1, k, n);
      });
  return c;
}

Tensor matmul_nt(const Tensor& a, const Tensor& b) {
  require_rank2(a, "matmul_nt: a must be rank 2");
  require_rank2(b, "matmul_nt: b must be rank 2");
  require(a.dim(1) == b.dim(1), "matmul_nt: feature dimensions differ");
  const std::int64_t m = a.dim(0), k = a.dim(1), n = b.dim(0);
  Tensor c({m, n});
  const kernels::KernelBackend& backend = be();
  parallel::parallel_for_chunked(
      0, m, kGemmRowGrain, [&](std::int64_t m0, std::int64_t m1) {
        backend.matmul_nt(a.data(), b.data(), nullptr, c.data(), m0, m1, k, n);
      });
  return c;
}

Tensor linear(const Tensor& x, const Tensor& weight, const Tensor& bias) {
  require_rank2(x, "linear: x must be rank 2");
  require_rank2(weight, "linear: weight must be rank 2");
  require(x.dim(1) == weight.dim(1), "linear: feature dimensions differ");
  require(bias.rank() == 1 && bias.dim(0) == weight.dim(0),
          "linear: bias size must equal output features");
  const std::int64_t m = x.dim(0), k = x.dim(1), n = weight.dim(0);
  Tensor y({m, n});
  const kernels::KernelBackend& backend = be();
  // Bias add is fused into the GEMM epilogue and parallelized with it —
  // the old serial tail loop over y is gone.
  parallel::parallel_for_chunked(
      0, m, kGemmRowGrain, [&](std::int64_t m0, std::int64_t m1) {
        backend.matmul_nt(x.data(), weight.data(), bias.data(), y.data(), m0,
                          m1, k, n);
      });
  return y;
}

namespace {

// Shared core of the quantized GEMM forwarders: activations already
// quantized on the pool, weight panel pre-quantized.
Tensor matmul_nt_i8_impl(const quant::QuantizedTensor& qa,
                         const quant::QuantizedTensor& qb, const float* bias) {
  const std::int64_t m = qa.rows, k = qa.cols, n = qb.rows;
  Tensor c({m, n});
  const kernels::KernelBackend& backend = be();
  parallel::parallel_for_chunked(
      0, m, kGemmRowGrain, [&](std::int64_t m0, std::int64_t m1) {
        backend.matmul_nt_i8(qa.data.data(), qa.scales.data(), qb.data.data(),
                             qb.scales.data(), bias, c.data(), m0, m1, k, n);
      });
  return c;
}

}  // namespace

Tensor linear_quantized(const Tensor& x, const quant::QuantizedTensor& qw,
                        const Tensor& bias) {
  require_rank2(x, "linear_quantized: x must be rank 2");
  require(x.dim(1) == qw.cols, "linear_quantized: feature dimensions differ");
  const bool has_bias = bias.rank() != 0;
  if (has_bias) {
    require(bias.rank() == 1 && bias.dim(0) == qw.rows,
            "linear_quantized: bias size must equal output features");
  }
  return matmul_nt_i8_impl(quant::quantize_rows(x), qw,
                           has_bias ? bias.data() : nullptr);
}

Tensor matmul_nt_quantized(const Tensor& a, const quant::QuantizedTensor& qb) {
  return linear_quantized(a, qb, Tensor{});
}

Tensor matmul_nt_dyn_quantized(const Tensor& a, const Tensor& b) {
  require_rank2(a, "matmul_nt_dyn_quantized: a must be rank 2");
  require_rank2(b, "matmul_nt_dyn_quantized: b must be rank 2");
  require(a.dim(1) == b.dim(1),
          "matmul_nt_dyn_quantized: feature dimensions differ");
  return matmul_nt_i8_impl(quant::quantize_rows(a), quant::quantize_rows(b),
                           nullptr);
}

Tensor transpose(const Tensor& a) {
  require_rank2(a, "transpose: rank 2 required");
  const std::int64_t m = a.dim(0), n = a.dim(1);
  Tensor t({n, m});
  // 32x32 tiles keep both the read rows and the written columns inside
  // L1; row-tile chunks are distributed across the pool.
  constexpr std::int64_t kTile = 32;
  const float* src = a.data();
  float* dst = t.data();
  parallel::parallel_for_chunked(
      0, m, kTile, [&](std::int64_t i0, std::int64_t i1) {
        for (std::int64_t j0 = 0; j0 < n; j0 += kTile) {
          const std::int64_t j1 = std::min(n, j0 + kTile);
          for (std::int64_t i = i0; i < i1; ++i) {
            for (std::int64_t j = j0; j < j1; ++j) {
              dst[j * m + i] = src[i * n + j];
            }
          }
        }
      });
  return t;
}

void add_inplace(Tensor& a, const Tensor& b) {
  require(a.shape() == b.shape(), "add_inplace: shape mismatch");
  const kernels::KernelBackend& backend = be();
  const float* pb = b.data();
  float* pa = a.data();
  parallel::parallel_for_chunked(
      0, a.numel(), kFlatGrain, [&](std::int64_t lo, std::int64_t hi) {
        backend.add(pa + lo, pb + lo, hi - lo);
      });
}

void scale_inplace(Tensor& a, float s) {
  const kernels::KernelBackend& backend = be();
  for_flat_chunks(a.data(), a.numel(),
                  [&](float* p, std::int64_t n) { backend.scale(p, s, n); });
}

void softmax_rows(Tensor& a) {
  require_rank2(a, "softmax_rows: rank 2 required");
  const std::int64_t m = a.dim(0), n = a.dim(1);
  if (n == 0) return;
  const kernels::KernelBackend& backend = be();
  parallel::parallel_for(
      0, m, [&](std::int64_t i) { backend.softmax_row(a.row(i), n); });
}

void layernorm_rows(Tensor& a, const Tensor& gain, const Tensor& bias,
                    float eps) {
  require_rank2(a, "layernorm_rows: rank 2 required");
  require(gain.rank() == 1 && gain.dim(0) == a.dim(1),
          "layernorm_rows: gain size mismatch");
  require(bias.rank() == 1 && bias.dim(0) == a.dim(1),
          "layernorm_rows: bias size mismatch");
  const std::int64_t m = a.dim(0), n = a.dim(1);
  const kernels::KernelBackend& backend = be();
  const float* g = gain.data();
  const float* b = bias.data();
  parallel::parallel_for(0, m, [&](std::int64_t i) {
    backend.layernorm_row(a.row(i), g, b, n, eps);
  });
}

void gelu_inplace(Tensor& a) {
  const kernels::KernelBackend& backend = be();
  for_flat_chunks(a.data(), a.numel(),
                  [&](float* p, std::int64_t n) { backend.gelu(p, n); });
}

namespace {

// Keys per panel of KernelBackend::attention_scores.
constexpr std::int64_t kKeyPanel = 8;

/// Per-thread scratch of the fused attention pass: one row block's
/// gathered queries (and their int8 form), its scores (kGemmRowGrain x
/// lk floats, 128 KB at 1024 keys) and its head output.
struct AttentionScratch {
  std::vector<float> q, scores, out, q_scales;
  std::vector<std::int8_t> q8;
};

}  // namespace

Tensor attention(const Tensor& q, const Tensor& k, const Tensor& v) {
  return multihead_attention(q, k, v, 1);
}

// Two pool passes. The first splits keys and values per head: packed
// into 8-key panels when the backend has attention_scores and dh % 8 ==
// 0, quantized per row under the int8 fast path, else copied (a single
// head uses k and v in place). The second runs one task per (head,
// kGemmRowGrain-row block) that carries the block from scores through
// scale and softmax to its output rows in per-thread scratch. Every
// backend call sees the same row block (rebased to row 0) that the
// whole-tensor matmul_nt / scale_inplace / softmax_rows / matmul chain
// handed it, so the bytes equal that chain's on every backend and
// precision (DESIGN §4i).
Tensor multihead_attention(const Tensor& q, const Tensor& k, const Tensor& v,
                           int heads) {
  require_rank2(q, "attention: q must be rank 2");
  require_rank2(k, "attention: k must be rank 2");
  require_rank2(v, "attention: v must be rank 2");
  require(q.dim(1) == k.dim(1), "attention: q/k feature mismatch");
  require(k.dim(0) == v.dim(0), "attention: k/v length mismatch");
  require(heads > 0, "multihead_attention: heads must be positive");
  require(q.dim(1) % heads == 0, "multihead_attention: d % heads != 0");
  require(v.dim(1) % heads == 0, "multihead_attention: dv % heads != 0");
  const std::int64_t lq = q.dim(0), lk = k.dim(0);
  const std::int64_t dh = q.dim(1) / heads, dvh = v.dim(1) / heads;
  Tensor out({lq, v.dim(1)});
  if (lq == 0 || lk == 0) return out;
  const kernels::KernelBackend& backend = be();
  const float scale = 1.0f / std::sqrt(static_cast<float>(dh));
  const bool int8 = quant::int8_fast_path();
  const bool packed =
      !int8 && backend.attention_scores != nullptr && dh % kKeyPanel == 0;
  const bool split = heads > 1;

  const std::int64_t key_stride =
      packed ? (lk + kKeyPanel - 1) / kKeyPanel * kKeyPanel * dh : lk * dh;
  std::vector<float> keys, values, key_scales;
  std::vector<std::int8_t> keys8;
  if (int8) {
    keys8.resize(static_cast<std::size_t>(heads * key_stride));
    key_scales.resize(static_cast<std::size_t>(heads * lk));
  } else if (packed || split) {
    keys.assign(static_cast<std::size_t>(heads * key_stride), 0.0f);
  }
  if (split) values.resize(static_cast<std::size_t>(heads * lk * dvh));
  if (int8 || packed || split) {
    parallel::parallel_for_chunked(
        0, lk, kGemmRowGrain, [&](std::int64_t i0, std::int64_t i1) {
          for (std::int64_t h = 0; h < heads; ++h) {
            for (std::int64_t i = i0; i < i1; ++i) {
              const float* kr = k.row(i) + h * dh;
              if (int8) {
                backend.quantize_row(
                    kr, keys8.data() + h * key_stride + i * dh,
                    &key_scales[static_cast<std::size_t>(h * lk + i)], dh);
              } else if (packed) {
                float* lane = keys.data() + h * key_stride +
                              (i - i % kKeyPanel) * dh + i % kKeyPanel;
                for (std::int64_t j = 0; j < dh; ++j) lane[j * kKeyPanel] = kr[j];
              } else {
                std::copy(kr, kr + dh, keys.data() + h * key_stride + i * dh);
              }
              if (split) {
                const float* vr = v.row(i) + h * dvh;
                std::copy(vr, vr + dvh, values.data() + (h * lk + i) * dvh);
              }
            }
          }
        });
  }

  const std::int64_t blocks = (lq + kGemmRowGrain - 1) / kGemmRowGrain;
  parallel::parallel_for_chunked(
      0, blocks * heads, 1, [&](std::int64_t t0, std::int64_t t1) {
        thread_local AttentionScratch s;
        s.scores.resize(static_cast<std::size_t>(kGemmRowGrain * lk));
        s.q.resize(static_cast<std::size_t>(kGemmRowGrain * dh));
        s.out.resize(static_cast<std::size_t>(kGemmRowGrain * dvh));
        s.q8.resize(static_cast<std::size_t>(kGemmRowGrain * dh));
        s.q_scales.resize(static_cast<std::size_t>(kGemmRowGrain));
        for (std::int64_t t = t0; t < t1; ++t) {
          const std::int64_t h = t % heads;
          const std::int64_t r0 = t / heads * kGemmRowGrain;
          const std::int64_t rows = std::min(kGemmRowGrain, lq - r0);
          const float* qb = q.row(r0);
          if (split) {
            for (std::int64_t i = 0; i < rows; ++i) {
              const float* qr = q.row(r0 + i) + h * dh;
              std::copy(qr, qr + dh, s.q.data() + i * dh);
            }
            qb = s.q.data();
          }
          float* sc = s.scores.data();
          if (packed) {
            backend.attention_scores(qb, keys.data() + h * key_stride, scale,
                                     sc, 0, rows, dh, lk);
          } else {
            if (int8) {
              for (std::int64_t i = 0; i < rows; ++i) {
                backend.quantize_row(qb + i * dh, s.q8.data() + i * dh,
                                     &s.q_scales[static_cast<std::size_t>(i)],
                                     dh);
              }
              backend.matmul_nt_i8(s.q8.data(), s.q_scales.data(),
                                   keys8.data() + h * key_stride,
                                   key_scales.data() + h * lk, nullptr, sc, 0,
                                   rows, dh, lk);
            } else {
              const float* kh = split ? keys.data() + h * key_stride : k.data();
              backend.matmul_nt(qb, kh, nullptr, sc, 0, rows, dh, lk);
            }
            backend.scale(sc, scale, rows * lk);
          }
          for (std::int64_t i = 0; i < rows; ++i) {
            backend.softmax_row(sc + i * lk, lk);
          }
          const float* vh = split ? values.data() + h * lk * dvh : v.data();
          float* ob = split ? s.out.data() : out.row(r0);
          backend.matmul_nn(sc, vh, ob, 0, rows, lk, dvh);
          if (split) {
            for (std::int64_t i = 0; i < rows; ++i) {
              std::copy(ob + i * dvh, ob + (i + 1) * dvh,
                        out.row(r0 + i) + h * dvh);
            }
          }
        }
      });
  return out;
}

Tensor mean_rows(const Tensor& a) {
  require_rank2(a, "mean_rows: rank 2 required");
  const std::int64_t m = a.dim(0), n = a.dim(1);
  Tensor out({n});
  if (m == 0) return out;
  const kernels::KernelBackend& backend = be();
  // Rows fold in ascending order (fixed reduction order); each fold is a
  // vectorized axpy.
  for (std::int64_t i = 0; i < m; ++i) {
    backend.axpy(out.data(), a.row(i), 1.0f, n);
  }
  backend.scale(out.data(), 1.0f / static_cast<float>(m), n);
  return out;
}

Tensor colwise_max(const Tensor& a) {
  require_rank2(a, "colwise_max: rank 2 required");
  require(a.dim(0) > 0, "colwise_max: at least one row required");
  Tensor out({a.dim(1)});
  be().colwise_max(a.data(), out.data(), a.dim(0), a.dim(1));
  return out;
}

void subtract_row_inplace(Tensor& a, const Tensor& row) {
  require_rank2(a, "subtract_row_inplace: rank 2 required");
  require(row.rank() == 1 && row.dim(0) == a.dim(1),
          "subtract_row_inplace: row size mismatch");
  const std::int64_t m = a.dim(0), n = a.dim(1);
  const kernels::KernelBackend& backend = be();
  const float* r = row.data();
  parallel::parallel_for(
      0, m, [&](std::int64_t i) { backend.axpy(a.row(i), r, -1.0f, n); });
}

Tensor resize_bilinear(const Tensor& input, std::int64_t out_h,
                       std::int64_t out_w) {
  require(input.rank() == 3, "resize_bilinear: input must be [C,H,W]");
  require(out_h > 0 && out_w > 0, "resize_bilinear: output dims must be > 0");
  const std::int64_t c = input.dim(0), h = input.dim(1), w = input.dim(2);
  Tensor out({c, out_h, out_w});
  const float sy = static_cast<float>(h) / static_cast<float>(out_h);
  const float sx = static_cast<float>(w) / static_cast<float>(out_w);
  parallel::parallel_for(0, c * out_h, [&](std::int64_t idx) {
    const std::int64_t ic = idx / out_h;
    const std::int64_t oy = idx % out_h;
    const float fy = (static_cast<float>(oy) + 0.5f) * sy - 0.5f;
    const std::int64_t y0 =
        std::clamp<std::int64_t>(static_cast<std::int64_t>(std::floor(fy)), 0, h - 1);
    const std::int64_t y1 = std::min<std::int64_t>(y0 + 1, h - 1);
    const float wy = std::clamp(fy - static_cast<float>(y0), 0.0f, 1.0f);
    for (std::int64_t ox = 0; ox < out_w; ++ox) {
      const float fx = (static_cast<float>(ox) + 0.5f) * sx - 0.5f;
      const std::int64_t x0 = std::clamp<std::int64_t>(
          static_cast<std::int64_t>(std::floor(fx)), 0, w - 1);
      const std::int64_t x1 = std::min<std::int64_t>(x0 + 1, w - 1);
      const float wx = std::clamp(fx - static_cast<float>(x0), 0.0f, 1.0f);
      const float top = input.at(ic, y0, x0) * (1.0f - wx) + input.at(ic, y0, x1) * wx;
      const float bot = input.at(ic, y1, x0) * (1.0f - wx) + input.at(ic, y1, x1) * wx;
      out.at(ic, oy, ox) = top * (1.0f - wy) + bot * wy;
    }
  });
  return out;
}

}  // namespace zenesis::tensor
