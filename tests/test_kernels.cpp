// Kernel backend contract tests.
//
// Three layers of guarantees:
//   1. Equivalence — every available backend reproduces the scalar
//      reference within 1e-4 relative tolerance on every op, across
//      shapes chosen to exercise register-tile remainders (odd, prime
//      and sub-tile dimensions).
//   2. Accuracy — the end-to-end pipeline mask produced under each fast
//      backend matches the scalar-backend mask at IoU/Dice >= 0.99
//      (tolerance-level float differences must not move segmentation
//      decisions).
//   3. Determinism — within one backend, volume results are
//      byte-identical across thread counts (the test_volume_parallel
//      contract, re-run per backend).
//
// The int8 quantization path (tensor/quant.hpp) is held to the same
// three layers, plus two contracts of its own: int8 payloads and scales
// are bit-identical across backends (the shared single-op scale
// formulas), and cached artifacts never alias across precisions (the
// mask-cache / feature-cache key folds, which cover backends too).
#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <filesystem>
#include <string>
#include <vector>

#include <unistd.h>

#include "zenesis/cache/feature_cache.hpp"
#include "zenesis/core/pipeline.hpp"
#include "zenesis/eval/metrics.hpp"
#include "zenesis/fibsem/synth.hpp"
#include "zenesis/image/normalize.hpp"
#include "zenesis/tensor/kernels.hpp"
#include "zenesis/tensor/ops.hpp"
#include "zenesis/tensor/quant.hpp"

namespace {

using namespace zenesis;

/// Deterministic pseudo-random fill with a sign-mixed range, so dot
/// products see cancellation (the hard case for reduction reordering).
tensor::Tensor filled(std::int64_t rows, std::int64_t cols,
                      std::uint64_t seed) {
  tensor::Tensor t({rows, cols});
  std::uint64_t state = seed * 6364136223846793005ULL + 1442695040888963407ULL;
  for (auto& v : t.flat()) {
    state = state * 6364136223846793005ULL + 1442695040888963407ULL;
    v = static_cast<float>(static_cast<double>(state >> 11) /
                           static_cast<double>(1ULL << 53)) *
            2.0f -
        1.0f;
  }
  return t;
}

void expect_close(const tensor::Tensor& got, const tensor::Tensor& ref,
                  const std::string& what, float rel_tol = 1e-4f) {
  ASSERT_EQ(got.shape(), ref.shape()) << what;
  const auto pg = got.flat();
  const auto pr = ref.flat();
  for (std::size_t i = 0; i < pg.size(); ++i) {
    const float scale = std::max(1.0f, std::abs(pr[i]));
    ASSERT_NEAR(pg[i], pr[i], rel_tol * scale)
        << what << " element " << i << " (backend "
        << tensor::backend_name() << ")";
  }
}

/// Saves and restores the process-wide backend AND precision
/// selections, so a failing test cannot leak either into later tests.
class KernelBackendTest : public ::testing::Test {
 protected:
  void SetUp() override {
    saved_ = tensor::backend_name();
    saved_precision_ = tensor::quant::precision_name();
  }
  void TearDown() override {
    tensor::set_backend(saved_);
    tensor::quant::set_precision(saved_precision_);
  }

  static std::vector<std::string> fast_backends() {
    std::vector<std::string> out;
    for (const auto& name : tensor::available_backends()) {
      if (name != "scalar") out.push_back(name);
    }
    return out;
  }

  std::string saved_;
  std::string saved_precision_;
};

// M/K/N sweep: powers of two (pure tile paths), primes and odd sizes
// (every remainder path: k-octet tails, 2-row/4-row edges, partial
// column tiles), and degenerate single-row/column shapes.
struct Shape {
  std::int64_t m, k, n;
};
const std::vector<Shape> kShapes = {
    {1, 1, 1},    {1, 7, 1},    {3, 5, 7},    {7, 3, 5},   {8, 8, 8},
    {9, 16, 17},  {16, 31, 8},  {17, 8, 33},  {13, 13, 13}, {32, 64, 32},
    {33, 63, 65}, {64, 128, 48}, {61, 67, 71}, {2, 256, 2},
};

TEST_F(KernelBackendTest, RegistryBasics) {
  EXPECT_TRUE(tensor::backend_available("scalar"));
  EXPECT_TRUE(tensor::backend_available("blocked"));
  EXPECT_TRUE(tensor::backend_available("auto"));
  EXPECT_FALSE(tensor::backend_available("mmx"));
  EXPECT_FALSE(tensor::set_backend("definitely-not-a-backend"));
  // A failed set must leave the active backend unchanged.
  EXPECT_STREQ(tensor::backend_name(), saved_.c_str());

  // available_backends() lists scalar and blocked unconditionally, in
  // preference order, and every listed name is selectable.
  const auto avail = tensor::available_backends();
  ASSERT_GE(avail.size(), 2u);
  EXPECT_EQ(avail.back(), "scalar");
  for (const auto& name : avail) {
    ASSERT_TRUE(tensor::set_backend(name)) << name;
    EXPECT_EQ(tensor::backend_name(), name);
  }
  // "auto" resolves to the preferred (first-listed) backend.
  ASSERT_TRUE(tensor::set_backend("auto"));
  EXPECT_EQ(tensor::backend_name(), avail.front());
}

TEST_F(KernelBackendTest, CpuFeatureStringMatchesAvx2Availability) {
  const std::string features = tensor::cpu_feature_string();
  const bool has_avx2 = features.find("avx2") != std::string::npos &&
                        features.find("fma") != std::string::npos;
#if defined(__x86_64__) || defined(__i386__)
  EXPECT_EQ(tensor::backend_available("avx2"), has_avx2);
#else
  EXPECT_FALSE(tensor::backend_available("avx2"));
#endif
}

TEST_F(KernelBackendTest, GemmEquivalenceAcrossShapes) {
  for (const auto& backend : fast_backends()) {
    for (const auto& s : kShapes) {
      const tensor::Tensor a = filled(s.m, s.k, 11 * s.m + s.n);
      const tensor::Tensor b_nn = filled(s.k, s.n, 23 * s.k + s.m);
      const tensor::Tensor b_nt = filled(s.n, s.k, 31 * s.n + s.k);
      const tensor::Tensor bias = filled(1, s.n, 47 * s.n + 5);
      tensor::Tensor bias1({s.n});
      std::copy(bias.data(), bias.data() + s.n, bias1.data());

      ASSERT_TRUE(tensor::set_backend("scalar"));
      const tensor::Tensor nn_ref = tensor::matmul(a, b_nn);
      const tensor::Tensor nt_ref = tensor::matmul_nt(a, b_nt);
      const tensor::Tensor lin_ref = tensor::linear(a, b_nt, bias1);

      ASSERT_TRUE(tensor::set_backend(backend));
      const std::string tag = backend + " m=" + std::to_string(s.m) +
                              " k=" + std::to_string(s.k) +
                              " n=" + std::to_string(s.n);
      expect_close(tensor::matmul(a, b_nn), nn_ref, "matmul " + tag);
      expect_close(tensor::matmul_nt(a, b_nt), nt_ref, "matmul_nt " + tag);
      expect_close(tensor::linear(a, b_nt, bias1), lin_ref, "linear " + tag);
    }
  }
}

TEST_F(KernelBackendTest, RowwiseAndElementwiseEquivalence) {
  for (const auto& backend : fast_backends()) {
    for (const std::int64_t n : {1, 2, 5, 8, 13, 64, 100, 257}) {
      const tensor::Tensor base = filled(9, n, 1000 + n);
      tensor::Tensor gain1({n}), bias1({n});
      const tensor::Tensor g = filled(1, n, 7 + n), b = filled(1, n, 9 + n);
      std::copy(g.data(), g.data() + n, gain1.data());
      std::copy(b.data(), b.data() + n, bias1.data());

      ASSERT_TRUE(tensor::set_backend("scalar"));
      tensor::Tensor sm_ref = base, ln_ref = base, ge_ref = base;
      tensor::Tensor sub_ref = base;
      tensor::softmax_rows(sm_ref);
      tensor::layernorm_rows(ln_ref, gain1, bias1);
      tensor::gelu_inplace(ge_ref);
      tensor::subtract_row_inplace(sub_ref, bias1);
      const tensor::Tensor cm_ref = tensor::colwise_max(base);
      const tensor::Tensor mr_ref = tensor::mean_rows(base);
      const tensor::Tensor tr_ref = tensor::transpose(base);

      ASSERT_TRUE(tensor::set_backend(backend));
      const std::string tag = backend + " n=" + std::to_string(n);
      tensor::Tensor sm = base, ln = base, ge = base, sub = base;
      tensor::softmax_rows(sm);
      tensor::layernorm_rows(ln, gain1, bias1);
      tensor::gelu_inplace(ge);
      tensor::subtract_row_inplace(sub, bias1);
      expect_close(sm, sm_ref, "softmax_rows " + tag);
      expect_close(ln, ln_ref, "layernorm_rows " + tag);
      expect_close(ge, ge_ref, "gelu " + tag);
      expect_close(sub, sub_ref, "subtract_row " + tag);
      expect_close(tensor::colwise_max(base), cm_ref, "colwise_max " + tag);
      expect_close(tensor::mean_rows(base), mr_ref, "mean_rows " + tag);
      // Transpose is pure data movement: exact equality expected.
      expect_close(tensor::transpose(base), tr_ref, "transpose " + tag, 0.0f);
    }
  }
}

TEST_F(KernelBackendTest, AttentionEquivalence) {
  for (const auto& backend : fast_backends()) {
    const tensor::Tensor q = filled(13, 32, 3);
    const tensor::Tensor k = filled(29, 32, 5);
    const tensor::Tensor v = filled(29, 24, 7);

    ASSERT_TRUE(tensor::set_backend("scalar"));
    const tensor::Tensor ref = tensor::attention(q, k, v);
    const tensor::Tensor mh_ref = tensor::multihead_attention(q, k, v, 4);

    ASSERT_TRUE(tensor::set_backend(backend));
    expect_close(tensor::attention(q, k, v), ref, "attention " + backend);
    expect_close(tensor::multihead_attention(q, k, v, 4), mh_ref,
                 "multihead_attention " + backend);
  }
}

/// The unfused attention chain the fused core replaced, kept here as
/// the byte-level reference: per-head gather, the scores GEMM (both
/// operands quantized under the int8 fast path), scale, softmax, then
/// scores·V, each as a whole-tensor op.
tensor::Tensor unfused_attention(const tensor::Tensor& q, const tensor::Tensor& k,
                                 const tensor::Tensor& v, int heads) {
  const std::int64_t lq = q.dim(0), lk = k.dim(0);
  const std::int64_t dh = q.dim(1) / heads, dvh = v.dim(1) / heads;
  tensor::Tensor out({lq, v.dim(1)});
  for (int h = 0; h < heads; ++h) {
    tensor::Tensor qh({lq, dh}), kh({lk, dh}), vh({lk, dvh});
    for (std::int64_t i = 0; i < lq; ++i) {
      for (std::int64_t j = 0; j < dh; ++j) qh.at(i, j) = q.at(i, h * dh + j);
    }
    for (std::int64_t i = 0; i < lk; ++i) {
      for (std::int64_t j = 0; j < dh; ++j) kh.at(i, j) = k.at(i, h * dh + j);
      for (std::int64_t j = 0; j < dvh; ++j) vh.at(i, j) = v.at(i, h * dvh + j);
    }
    tensor::Tensor scores = tensor::quant::int8_fast_path()
                                ? tensor::matmul_nt_dyn_quantized(qh, kh)
                                : tensor::matmul_nt(qh, kh);
    tensor::scale_inplace(scores, 1.0f / std::sqrt(static_cast<float>(dh)));
    tensor::softmax_rows(scores);
    const tensor::Tensor oh = tensor::matmul(scores, vh);
    for (std::int64_t i = 0; i < lq; ++i) {
      for (std::int64_t j = 0; j < dvh; ++j) out.at(i, h * dvh + j) = oh.at(i, j);
    }
  }
  return out;
}

void expect_bytes_equal(const tensor::Tensor& got, const tensor::Tensor& ref,
                        const std::string& what) {
  ASSERT_EQ(got.shape(), ref.shape()) << what;
  EXPECT_EQ(std::memcmp(got.data(), ref.data(),
                        static_cast<std::size_t>(ref.numel()) * sizeof(float)),
            0)
      << what;
}

TEST_F(KernelBackendTest, FusedAttentionBytesMatchUnfusedChain) {
  // lq straddles the 32-row block edges; dh = 12 takes the matmul_nt
  // fallback, the others the packed-key scores where the backend has
  // them. lk = 77 leaves a partial 8-key panel; the encoder's own shape
  // (4 heads of 16 over lk = lq tokens) and decode_coarse's 3 x 1024
  // single-head cross-attention are covered separately.
  for (const auto& backend : tensor::available_backends()) {
    for (const char* precision : {"fp32", "int8"}) {
      ASSERT_TRUE(tensor::set_backend(backend));
      if (!tensor::quant::set_precision(precision)) continue;
      const std::string tag = backend + "." + precision;
      for (const std::int64_t lq : {1, 3, 31, 32, 33, 256, 625, 1024}) {
        for (const std::int64_t dh : {8, 12, 16, 64}) {
          for (const int heads : {1, 4}) {
            const std::int64_t d = heads * dh;
            const tensor::Tensor q = filled(lq, d, 11);
            const tensor::Tensor k = filled(77, d, 13);
            const tensor::Tensor v = filled(77, d, 17);
            const std::string what = tag + " lq=" + std::to_string(lq) +
                                     " dh=" + std::to_string(dh) +
                                     " heads=" + std::to_string(heads);
            expect_bytes_equal(heads == 1 ? tensor::attention(q, k, v)
                                          : tensor::multihead_attention(q, k, v, heads),
                               unfused_attention(q, k, v, heads), what);
          }
        }
        const tensor::Tensor x = filled(lq, 64, 19);
        expect_bytes_equal(tensor::multihead_attention(x, x, x, 4),
                           unfused_attention(x, x, x, 4),
                           tag + " encoder self-attention lq=" + std::to_string(lq));
      }
      const tensor::Tensor prompts = filled(3, 64, 23);
      const tensor::Tensor tokens = filled(1024, 64, 29);
      expect_bytes_equal(tensor::attention(prompts, tokens, tokens),
                         unfused_attention(prompts, tokens, tokens, 1),
                         tag + " decode_coarse 3x1024");
    }
  }
}

TEST_F(KernelBackendTest, WithinBackendByteDeterminismAcrossThreadCounts) {
  // The determinism contract: per-output reduction order depends only on
  // k, never on the row range a worker was handed — so any thread count
  // reproduces the same bytes.
  for (const auto& name : tensor::available_backends()) {
    ASSERT_TRUE(tensor::set_backend(name));
    const tensor::Tensor a = filled(67, 96, 1);
    const tensor::Tensor b = filled(96, 71, 2);
    const tensor::Tensor bt = filled(71, 96, 3);
    const tensor::Tensor nn1 = tensor::matmul(a, b);
    const tensor::Tensor nt1 = tensor::matmul_nt(a, bt);
    // Re-running on the same pool exercises different chunk→worker
    // assignments (dynamic pull); bytes must not move.
    for (int rep = 0; rep < 3; ++rep) {
      const tensor::Tensor nn2 = tensor::matmul(a, b);
      const tensor::Tensor nt2 = tensor::matmul_nt(a, bt);
      const auto f1 = nn1.flat(), f2 = nn2.flat();
      const auto g1 = nt1.flat(), g2 = nt2.flat();
      for (std::size_t i = 0; i < f1.size(); ++i) {
        ASSERT_EQ(f1[i], f2[i]) << name << " matmul rep " << rep;
      }
      for (std::size_t i = 0; i < g1.size(); ++i) {
        ASSERT_EQ(g1[i], g2[i]) << name << " matmul_nt rep " << rep;
      }
    }
  }
}

/// A small synthetic slice both mask-cache switch tests segment.
fibsem::SyntheticSlice small_slice() {
  fibsem::SynthConfig synth;
  synth.width = 64;
  synth.height = 64;
  synth.depth = 1;
  synth.seed = 905;
  return fibsem::generate_slice(synth, 0);
}

TEST_F(KernelBackendTest, MaskCacheSeparatesBackends) {
  // Cached masks must never alias across backends: a live pipeline's
  // mask-cache key reads the backend active when the key is computed, so
  // switching with set_backend() after construction misses, and switching
  // back hits the entry computed under the first backend.
  const fibsem::SyntheticSlice slice = small_slice();
  const image::AnyImage raw(slice.raw);
  const std::string prompt =
      fibsem::default_prompt(fibsem::SampleType::kCrystalline);
  ASSERT_TRUE(tensor::set_backend("scalar"));
  const core::ZenesisPipeline pipe;
  (void)pipe.segment(raw, prompt);
  ASSERT_EQ(pipe.mask_cache_stats().hits, 0u);

  ASSERT_TRUE(tensor::set_backend("blocked"));
  (void)pipe.segment(raw, prompt);
  EXPECT_EQ(pipe.mask_cache_stats().hits, 0u)
      << "scalar mask served under blocked";

  ASSERT_TRUE(tensor::set_backend("scalar"));
  (void)pipe.segment(raw, prompt);
  EXPECT_EQ(pipe.mask_cache_stats().hits, 1u) << "scalar mask lost";
}

TEST_F(KernelBackendTest, EndToEndMaskAccuracyAcrossBackends) {
  // Scalar-backend pipeline output is the accuracy reference; every fast
  // backend must land within IoU/Dice 0.99 of it on a full segment() run
  // over both morphologies.
  fibsem::SynthConfig synth;
  synth.width = 96;
  synth.height = 96;
  synth.depth = 1;
  synth.seed = 902;
  synth.needle_count = 12;

  for (const auto type :
       {fibsem::SampleType::kCrystalline, fibsem::SampleType::kAmorphous}) {
    synth.type = type;
    const fibsem::SyntheticSlice slice = fibsem::generate_slice(synth, 0);
    const std::string prompt = fibsem::default_prompt(type);

    ASSERT_TRUE(tensor::set_backend("scalar"));
    const core::ZenesisPipeline ref_pipe;
    const core::SliceResult ref =
        ref_pipe.segment(image::AnyImage(slice.raw), prompt);
    const eval::Metrics ref_gt =
        eval::compute_metrics(ref.mask, slice.ground_truth);

    for (const auto& backend : fast_backends()) {
      ASSERT_TRUE(tensor::set_backend(backend));
      const core::ZenesisPipeline pipe;
      const core::SliceResult got =
          pipe.segment(image::AnyImage(slice.raw), prompt);
      const eval::Metrics m = eval::compute_metrics(got.mask, ref.mask);
      EXPECT_GE(m.iou, 0.99) << backend << " vs scalar, "
                             << fibsem::sample_type_name(type);
      EXPECT_GE(m.dice, 0.99) << backend << " vs scalar, "
                              << fibsem::sample_type_name(type);
      // And the fast backend must not lose ground-truth accuracy either.
      const eval::Metrics gt = eval::compute_metrics(got.mask, slice.ground_truth);
      EXPECT_GE(gt.iou, ref_gt.iou - 0.01)
          << backend << " vs ground truth, " << fibsem::sample_type_name(type);
    }
  }
}

// ---- int8 quantization path --------------------------------------------

TEST_F(KernelBackendTest, Int8SupportRegistry) {
  // The int8 kernel triple is a required table entry: no caller checks
  // it for null, so every shipped table must fill it.
  std::vector<const tensor::kernels::KernelBackend*> tables = {
      &tensor::kernels::scalar_backend(), &tensor::kernels::blocked_backend()};
  if (const auto* avx2 = tensor::kernels::avx2_backend()) tables.push_back(avx2);
  for (const auto* table : tables) {
    EXPECT_NE(table->quantize_row, nullptr) << table->name;
    EXPECT_NE(table->dequantize_row, nullptr) << table->name;
    EXPECT_NE(table->matmul_nt_i8, nullptr) << table->name;
  }
}

TEST_F(KernelBackendTest, QuantizeRoundTripPerBackend) {
  for (const auto& name : tensor::available_backends()) {
    ASSERT_TRUE(tensor::set_backend(name));
    for (const std::int64_t n : {1, 2, 7, 16, 31, 32, 33, 64, 257}) {
      const tensor::Tensor t = filled(5, n, 100 + n);
      const tensor::quant::QuantizedTensor q = tensor::quant::quantize_rows(t);
      ASSERT_EQ(q.rows, 5) << name;
      ASSERT_EQ(q.cols, n) << name;
      // Payload stays in the symmetric range (no -128 — the AVX2
      // maddubs exactness contract).
      for (const std::int8_t v : q.data) {
        ASSERT_GE(v, -127) << name << " n=" << n;
        ASSERT_LE(v, 127) << name << " n=" << n;
      }
      // Round trip is within half a quantization step per element.
      const tensor::Tensor back = tensor::quant::dequantize_rows(q);
      for (std::int64_t i = 0; i < 5; ++i) {
        const float step = q.scales[static_cast<std::size_t>(i)];
        for (std::int64_t j = 0; j < n; ++j) {
          ASSERT_NEAR(back.at(i, j), t.at(i, j), 0.5f * step + 1e-7f)
              << name << " n=" << n << " (" << i << "," << j << ")";
        }
      }
    }
    // A zero row quantizes to a zero payload with the sentinel scale.
    tensor::Tensor zero({2, 9});
    const tensor::quant::QuantizedTensor qz = tensor::quant::quantize_rows(zero);
    for (const std::int8_t v : qz.data) ASSERT_EQ(v, 0) << name;
    for (const float s : qz.scales) ASSERT_EQ(s, 1.0f) << name;
  }
}

TEST_F(KernelBackendTest, Int8PayloadBitIdenticalAcrossBackends) {
  // The cross-backend contract: scale = amax/127, inv = 127/amax and
  // nearest-even rounding are single float ops everywhere, so payloads
  // and scales match byte for byte between backends.
  const tensor::Tensor t = filled(17, 133, 42);  // odd cols: SIMD tails
  ASSERT_TRUE(tensor::set_backend("scalar"));
  const tensor::quant::QuantizedTensor ref = tensor::quant::quantize_rows(t);
  for (const auto& name : fast_backends()) {
    ASSERT_TRUE(tensor::set_backend(name));
    const tensor::quant::QuantizedTensor got = tensor::quant::quantize_rows(t);
    ASSERT_EQ(got.data.size(), ref.data.size()) << name;
    for (std::size_t i = 0; i < ref.data.size(); ++i) {
      ASSERT_EQ(got.data[i], ref.data[i]) << name << " payload " << i;
    }
    for (std::size_t i = 0; i < ref.scales.size(); ++i) {
      ASSERT_EQ(got.scales[i], ref.scales[i]) << name << " scale " << i;
    }
  }
}

TEST_F(KernelBackendTest, Int8GemmEquivalenceAcrossShapes) {
  // Layer 1 for the int8 GEMM: every backend reproduces the scalar int8
  // reference. The i32 accumulation is exact everywhere; only the final
  // fp32 requantize may differ by FMA contraction, hence the tight (but
  // nonzero) tolerance.
  for (const auto& backend : fast_backends()) {
    for (const auto& s : kShapes) {
      const tensor::Tensor a = filled(s.m, s.k, 11 * s.m + s.n);
      const tensor::Tensor b_nt = filled(s.n, s.k, 31 * s.n + s.k);
      const tensor::Tensor bias = filled(1, s.n, 47 * s.n + 5);
      tensor::Tensor bias1({s.n});
      std::copy(bias.data(), bias.data() + s.n, bias1.data());

      ASSERT_TRUE(tensor::set_backend("scalar"));
      const tensor::quant::QuantizedTensor qb =
          tensor::quant::quantize_rows(b_nt);
      const tensor::Tensor lin_ref = tensor::linear_quantized(a, qb, bias1);
      const tensor::Tensor nt_ref = tensor::matmul_nt_quantized(a, qb);
      const tensor::Tensor dyn_ref = tensor::matmul_nt_dyn_quantized(a, b_nt);

      ASSERT_TRUE(tensor::set_backend(backend));
      const std::string tag = backend + " m=" + std::to_string(s.m) +
                              " k=" + std::to_string(s.k) +
                              " n=" + std::to_string(s.n);
      expect_close(tensor::linear_quantized(a, qb, bias1), lin_ref,
                   "linear_quantized " + tag, 1e-5f);
      expect_close(tensor::matmul_nt_quantized(a, qb), nt_ref,
                   "matmul_nt_quantized " + tag, 1e-5f);
      expect_close(tensor::matmul_nt_dyn_quantized(a, b_nt), dyn_ref,
                   "matmul_nt_dyn_quantized " + tag, 1e-5f);
    }
  }
}

TEST_F(KernelBackendTest, Int8GemmApproximatesFp32) {
  // Dequantize semantics sanity: the int8 result is the fp32 result up
  // to quantization error (loose tolerance — ~1% relative for these
  // magnitudes), so a wiring bug (wrong scale, wrong operand) shows up
  // as a gross mismatch rather than passing unnoticed.
  const tensor::Tensor a = filled(24, 96, 5);
  const tensor::Tensor b = filled(32, 96, 6);
  const tensor::Tensor ref = tensor::matmul_nt(a, b);
  const tensor::Tensor got = tensor::matmul_nt_dyn_quantized(a, b);
  ASSERT_EQ(got.shape(), ref.shape());
  double err = 0.0, mag = 0.0;
  for (std::size_t i = 0; i < ref.flat().size(); ++i) {
    err += std::abs(static_cast<double>(got.flat()[i] - ref.flat()[i]));
    mag += std::abs(static_cast<double>(ref.flat()[i]));
  }
  EXPECT_LT(err / mag, 0.02) << "mean relative int8 error too large";
}

TEST_F(KernelBackendTest, Int8WithinBackendByteDeterminism) {
  // Within one backend the int8 pipeline is byte-deterministic across
  // repeated runs (and therefore across chunk→worker assignments): the
  // i32 accumulation is exact and the requantize order is fixed per row.
  for (const auto& name : tensor::available_backends()) {
    ASSERT_TRUE(tensor::set_backend(name));
    const tensor::Tensor a = filled(67, 96, 1);
    const tensor::Tensor b = filled(71, 96, 3);
    tensor::Tensor bias({71});
    const tensor::quant::QuantizedTensor qb = tensor::quant::quantize_rows(b);
    const tensor::Tensor first = tensor::linear_quantized(a, qb, bias);
    for (int rep = 0; rep < 3; ++rep) {
      const tensor::Tensor again = tensor::linear_quantized(a, qb, bias);
      const auto f1 = first.flat(), f2 = again.flat();
      for (std::size_t i = 0; i < f1.size(); ++i) {
        ASSERT_EQ(f1[i], f2[i]) << name << " rep " << rep << " elem " << i;
      }
    }
  }
}

TEST_F(KernelBackendTest, QuantizedWeightsMemoizes) {
  const tensor::Tensor w = filled(16, 32, 9);
  const tensor::quant::QuantizedWeights panel;
  const tensor::quant::QuantizedTensor& first = panel.get(w);
  const tensor::quant::QuantizedTensor& second = panel.get(w);
  // Same object, not merely equal contents — get() must not re-quantize.
  EXPECT_EQ(&first, &second);
  EXPECT_EQ(first.rows, 16);
  EXPECT_EQ(first.cols, 32);
}

TEST_F(KernelBackendTest, KernelSelectorFallsBackWithWarning) {
  // The ZENESIS_KERNEL resolution rule (init_from_env calls exactly this
  // function once per process): unknown names fall back to the best
  // backend with a one-line warning; known names resolve silently.
  // "neon" was an alias of "blocked" and is now unknown on every host.
  std::string warning;
  for (const char* bad : {"not-a-backend", "neon"}) {
    const auto& fallback = tensor::kernels::resolve_selector(bad, &warning);
    EXPECT_STREQ(fallback.name, tensor::available_backends().front().c_str())
        << bad;
    EXPECT_NE(warning.find("ZENESIS_KERNEL"), std::string::npos) << bad;
    EXPECT_NE(warning.find(bad), std::string::npos) << warning;
  }

  warning = "stale";
  const auto& empty = tensor::kernels::resolve_selector("", &warning);
  EXPECT_STREQ(empty.name, tensor::available_backends().front().c_str());
  EXPECT_TRUE(warning.empty()) << warning;

  const auto& scalar = tensor::kernels::resolve_selector("scalar", &warning);
  EXPECT_STREQ(scalar.name, "scalar");
  EXPECT_TRUE(warning.empty()) << warning;
}

TEST_F(KernelBackendTest, PrecisionSelectorFallsBackWithWarning) {
  // Same contract for ZENESIS_PRECISION.
  std::string warning;
  EXPECT_EQ(tensor::quant::resolve_precision_selector("bogus", &warning),
            tensor::quant::Precision::kFp32);
  EXPECT_NE(warning.find("ZENESIS_PRECISION"), std::string::npos);
  EXPECT_NE(warning.find("bogus"), std::string::npos);

  for (const char* ok : {"", "auto", "fp32"}) {
    warning = "stale";
    EXPECT_EQ(tensor::quant::resolve_precision_selector(ok, &warning),
              tensor::quant::Precision::kFp32)
        << ok;
    EXPECT_TRUE(warning.empty()) << ok << ": " << warning;
  }
  // int8 resolves cleanly (every backend ships the int8 kernels).
  warning = "stale";
  EXPECT_EQ(tensor::quant::resolve_precision_selector("int8", &warning),
            tensor::quant::Precision::kInt8);
  EXPECT_TRUE(warning.empty()) << warning;
}

TEST_F(KernelBackendTest, SetPrecisionAndFastPath) {
  ASSERT_TRUE(tensor::quant::set_precision("fp32"));
  EXPECT_STREQ(tensor::quant::precision_name(), "fp32");
  EXPECT_FALSE(tensor::quant::int8_fast_path());

  ASSERT_TRUE(tensor::quant::set_precision("int8"));
  EXPECT_STREQ(tensor::quant::precision_name(), "int8");
  EXPECT_TRUE(tensor::quant::int8_fast_path());

  // A failed set leaves the selection untouched.
  EXPECT_FALSE(tensor::quant::set_precision("fp16"));
  EXPECT_STREQ(tensor::quant::precision_name(), "int8");
}

TEST_F(KernelBackendTest, MaskCacheSeparatesPrecisions) {
  // Same contract as MaskCacheSeparatesBackends for set_precision().
  const fibsem::SyntheticSlice slice = small_slice();
  const image::AnyImage raw(slice.raw);
  const std::string prompt =
      fibsem::default_prompt(fibsem::SampleType::kCrystalline);
  ASSERT_TRUE(tensor::quant::set_precision("fp32"));
  const core::ZenesisPipeline pipe;
  (void)pipe.segment(raw, prompt);
  ASSERT_EQ(pipe.mask_cache_stats().hits, 0u);

  ASSERT_TRUE(tensor::quant::set_precision("int8"));
  (void)pipe.segment(raw, prompt);
  EXPECT_EQ(pipe.mask_cache_stats().hits, 0u) << "fp32 mask served under int8";

  ASSERT_TRUE(tensor::quant::set_precision("fp32"));
  (void)pipe.segment(raw, prompt);
  EXPECT_EQ(pipe.mask_cache_stats().hits, 1u) << "fp32 mask lost";
}

TEST_F(KernelBackendTest, FeatureCacheSeparatesPrecisions) {
  // The feature-cache key (L1 and the persistent disk tier) folds the
  // active precision: embeddings persisted under fp32 must be a clean
  // miss under int8 — not a silently served cross-precision hit — and
  // must hit again once fp32 is restored.
  namespace fs = std::filesystem;
  static std::atomic<int> counter{0};
  const fs::path dir =
      fs::temp_directory_path() /
      ("zenesis_quant_cache_" + std::to_string(::getpid()) + "_" +
       std::to_string(counter.fetch_add(1)));
  fs::create_directories(dir);

  models::BackboneConfig bb;
  bb.patch_size = 8;
  bb.dim = 32;
  bb.blocks = 1;
  const models::VisionBackbone backbone(bb);
  const fibsem::SynthConfig synth = [] {
    fibsem::SynthConfig s;
    s.width = 48;
    s.height = 48;
    s.depth = 1;
    s.seed = 77;
    return s;
  }();
  const fibsem::SyntheticSlice slice = fibsem::generate_slice(synth, 0);
  const image::ImageF32 ready =
      image::make_ai_ready(image::AnyImage(slice.raw), {});

  cache::FeatureCacheConfig cache_cfg;
  cache_cfg.disk_path = dir.string();

  ASSERT_TRUE(tensor::quant::set_precision("fp32"));
  const std::uint64_t h_fp32 = cache::hash_backbone_config(bb);
  {
    cache::FeatureCache warm(cache_cfg);
    (void)warm.encode(ready, backbone);  // miss → L1 + disk write
    const auto s = warm.stats();
    EXPECT_EQ(s.misses, 1u);
    EXPECT_EQ(s.disk_writes, 1u);
  }

  ASSERT_TRUE(tensor::quant::set_precision("int8"));
  EXPECT_NE(cache::hash_backbone_config(bb), h_fp32);
  {
    cache::FeatureCache cold(cache_cfg);
    (void)cold.encode(ready, backbone);  // same image, other precision
    const auto s = cold.stats();
    EXPECT_EQ(s.disk_hits, 0u) << "fp32 embedding served under int8";
    EXPECT_EQ(s.misses, 1u);
  }

  ASSERT_TRUE(tensor::quant::set_precision("fp32"));
  {
    cache::FeatureCache back(cache_cfg);
    (void)back.encode(ready, backbone);
    const auto s = back.stats();
    EXPECT_EQ(s.disk_hits, 1u) << "fp32 embedding lost from the store";
    EXPECT_EQ(s.misses, 0u);
  }

  std::error_code ec;
  fs::remove_all(dir, ec);
}

TEST_F(KernelBackendTest, FeatureCacheSeparatesBackends) {
  // The backend twin of FeatureCacheSeparatesPrecisions: backends agree
  // only to rounding, so an embedding persisted under scalar must be a
  // clean miss under blocked and hit again once scalar is restored.
  namespace fs = std::filesystem;
  static std::atomic<int> counter{0};
  const fs::path dir =
      fs::temp_directory_path() /
      ("zenesis_backend_cache_" + std::to_string(::getpid()) + "_" +
       std::to_string(counter.fetch_add(1)));
  fs::create_directories(dir);

  models::BackboneConfig bb;
  bb.patch_size = 8;
  bb.dim = 32;
  bb.blocks = 1;
  const models::VisionBackbone backbone(bb);
  const fibsem::SyntheticSlice slice = small_slice();
  const image::ImageF32 ready =
      image::make_ai_ready(image::AnyImage(slice.raw), {});

  cache::FeatureCacheConfig cache_cfg;
  cache_cfg.disk_path = dir.string();

  ASSERT_TRUE(tensor::set_backend("scalar"));
  const std::uint64_t h_scalar = cache::hash_backbone_config(bb);
  {
    cache::FeatureCache warm(cache_cfg);
    (void)warm.encode(ready, backbone);  // miss → L1 + disk write
    const auto s = warm.stats();
    EXPECT_EQ(s.misses, 1u);
    EXPECT_EQ(s.disk_writes, 1u);
  }

  ASSERT_TRUE(tensor::set_backend("blocked"));
  EXPECT_NE(cache::hash_backbone_config(bb), h_scalar);
  {
    cache::FeatureCache cold(cache_cfg);
    (void)cold.encode(ready, backbone);  // same image, other backend
    const auto s = cold.stats();
    EXPECT_EQ(s.disk_hits, 0u) << "scalar embedding served under blocked";
    EXPECT_EQ(s.misses, 1u);
  }

  ASSERT_TRUE(tensor::set_backend("scalar"));
  {
    cache::FeatureCache back(cache_cfg);
    (void)back.encode(ready, backbone);
    const auto s = back.stats();
    EXPECT_EQ(s.disk_hits, 1u) << "scalar embedding lost from the store";
    EXPECT_EQ(s.misses, 0u);
  }

  std::error_code ec;
  fs::remove_all(dir, ec);
}

TEST_F(KernelBackendTest, Int8EndToEndMaskAccuracyPerBackend) {
  // The quantization accuracy gate: under every backend, the int8
  // pipeline mask must match that backend's fp32 mask at IoU/Dice >=
  // 0.99 and lose at most 0.01 ground-truth IoU, on both morphologies.
  fibsem::SynthConfig synth;
  synth.width = 96;
  synth.height = 96;
  synth.depth = 1;
  synth.seed = 902;
  synth.needle_count = 12;

  for (const auto type :
       {fibsem::SampleType::kCrystalline, fibsem::SampleType::kAmorphous}) {
    synth.type = type;
    const fibsem::SyntheticSlice slice = fibsem::generate_slice(synth, 0);
    const std::string prompt = fibsem::default_prompt(type);

    for (const auto& backend : tensor::available_backends()) {
      ASSERT_TRUE(tensor::set_backend(backend));

      ASSERT_TRUE(tensor::quant::set_precision("fp32"));
      const core::SliceResult ref =
          core::ZenesisPipeline().segment(image::AnyImage(slice.raw), prompt);
      const eval::Metrics ref_gt =
          eval::compute_metrics(ref.mask, slice.ground_truth);

      ASSERT_TRUE(tensor::quant::set_precision("int8"));
      const core::SliceResult got =
          core::ZenesisPipeline().segment(image::AnyImage(slice.raw), prompt);
      const eval::Metrics m = eval::compute_metrics(got.mask, ref.mask);
      EXPECT_GE(m.iou, 0.99) << backend << " int8 vs fp32, "
                             << fibsem::sample_type_name(type);
      EXPECT_GE(m.dice, 0.99) << backend << " int8 vs fp32, "
                              << fibsem::sample_type_name(type);
      const eval::Metrics gt =
          eval::compute_metrics(got.mask, slice.ground_truth);
      EXPECT_GE(gt.iou, ref_gt.iou - 0.01)
          << backend << " int8 vs ground truth, "
          << fibsem::sample_type_name(type);
    }
  }
}

TEST_F(KernelBackendTest, VolumeDeterminismUnderInt8) {
  // The Mode-B byte-determinism contract holds on the int8 path too:
  // volume_threads 1 and 4 produce identical masks and confidences.
  fibsem::SynthConfig synth;
  synth.width = 64;
  synth.height = 64;
  synth.depth = 3;
  synth.seed = 311;
  synth.needle_count = 8;
  const fibsem::SyntheticVolume vol = fibsem::generate_volume(synth);
  const std::string prompt =
      fibsem::default_prompt(fibsem::SampleType::kCrystalline);

  ASSERT_TRUE(tensor::quant::set_precision("int8"));
  core::PipelineConfig cfg;
  cfg.volume_threads = 1;
  const core::VolumeResult serial = core::ZenesisPipeline(cfg).segment_volume(
      core::VolumeRequest::view(vol.volume, prompt));
  cfg.volume_threads = 4;
  const core::VolumeResult parallel = core::ZenesisPipeline(cfg).segment_volume(
      core::VolumeRequest::view(vol.volume, prompt));

  ASSERT_EQ(serial.slices.size(), parallel.slices.size());
  for (std::size_t z = 0; z < serial.slices.size(); ++z) {
    EXPECT_EQ(serial.slices[z].confidence, parallel.slices[z].confidence)
        << "slice " << z;
    const auto pa = serial.slices[z].mask.pixels();
    const auto pb = parallel.slices[z].mask.pixels();
    ASSERT_EQ(pa.size(), pb.size()) << "slice " << z;
    for (std::size_t i = 0; i < pa.size(); ++i) {
      ASSERT_EQ(pa[i], pb[i]) << "slice " << z << " pixel " << i;
    }
  }
}

TEST_F(KernelBackendTest, VolumeDeterminismPerBackendAcrossThreadCounts) {
  // test_volume_parallel's contract, re-run under each backend: Mode-B
  // results are byte-identical for volume_threads 1 and 4.
  fibsem::SynthConfig synth;
  synth.width = 64;
  synth.height = 64;
  synth.depth = 3;
  synth.seed = 311;
  synth.needle_count = 8;
  const fibsem::SyntheticVolume vol = fibsem::generate_volume(synth);
  const std::string prompt =
      fibsem::default_prompt(fibsem::SampleType::kCrystalline);

  for (const auto& name : tensor::available_backends()) {
    ASSERT_TRUE(tensor::set_backend(name));
    core::PipelineConfig cfg;
    cfg.volume_threads = 1;
    const core::VolumeResult serial = core::ZenesisPipeline(cfg).segment_volume(
        core::VolumeRequest::view(vol.volume, prompt));
    cfg.volume_threads = 4;
    const core::VolumeResult parallel =
        core::ZenesisPipeline(cfg).segment_volume(
            core::VolumeRequest::view(vol.volume, prompt));

    ASSERT_EQ(serial.slices.size(), parallel.slices.size()) << name;
    for (std::size_t z = 0; z < serial.slices.size(); ++z) {
      EXPECT_EQ(serial.slices[z].confidence, parallel.slices[z].confidence)
          << name << " slice " << z;
      const auto pa = serial.slices[z].mask.pixels();
      const auto pb = parallel.slices[z].mask.pixels();
      ASSERT_EQ(pa.size(), pb.size()) << name << " slice " << z;
      for (std::size_t i = 0; i < pa.size(); ++i) {
        ASSERT_EQ(pa[i], pb[i]) << name << " slice " << z << " pixel " << i;
      }
    }
  }
}

}  // namespace
