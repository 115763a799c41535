#pragma once
// tensor::kernels — the pluggable compute backend behind ops.hpp.
//
// Every hot tensor kernel (GEMM, fused linear, softmax, layernorm,
// elementwise) bottoms out in one KernelBackend: a table of raw-pointer
// micro-kernels selected once at startup and swappable at runtime. Three
// implementations ship:
//
//   scalar   — the reference: the original straightforward loops. Every
//              other backend is tested against it (1e-4 relative).
//   blocked  — portable C++: register-tiled, k-unrolled, cache-blocked
//              loops the compiler can auto-vectorize. Always available.
//   avx2     — x86 AVX2+FMA intrinsics: 8-wide FMA micro-kernels
//              (2x4-register dot tiles for A·Bᵀ, broadcast-FMA row
//              panels with a packed-B panel for A·B, 8-keys-per-vector
//              attention scores over packed key panels). Registered only
//              when CPUID reports AVX2 and FMA.
//
// Every backend ships the int8 kernels; only attention_scores is
// optional.
//
// Selection: the first kernel call resolves the backend from the
// ZENESIS_KERNEL environment variable ("scalar" | "blocked" | "avx2" |
// "auto"); unset or "auto" picks the best available (avx2 > blocked).
// tensor::set_backend() overrides at any point. These two are the only
// selectors; no configuration struct carries a backend.
//
// Determinism contract: WITHIN a backend every kernel uses a fixed
// per-output reduction order that does not depend on thread count or on
// where parallel row chunks split, so results are byte-stable across
// ZenesisPipeline thread configurations (the test_volume_parallel
// guarantee). ACROSS backends results agree only to rounding (different
// but fixed accumulation orders); the mask-cache and feature-cache keys
// fold in the active backend name when each key is computed
// (cache::fold_kernel_selection), so cached masks and embeddings never
// alias across backends, and tests/test_kernels.cpp gates end-to-end
// mask IoU/Dice per backend against the scalar reference.

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace zenesis::tensor {

namespace kernels {

/// Raw-pointer micro-kernel table. Matrices are dense row-major; GEMM
/// entries compute a row range [m0, m1) of the output so ops.cpp can
/// split work across the ThreadPool without the backend knowing about
/// threading. Every entry overwrites its output range.
struct KernelBackend {
  const char* name;

  /// Rows [m0, m1) of C[M,N] = A[M,K] · B[K,N].
  void (*matmul_nn)(const float* a, const float* b, float* c, std::int64_t m0,
                    std::int64_t m1, std::int64_t k, std::int64_t n);
  /// Rows [m0, m1) of C[M,N] = A[M,K] · B[N,K]ᵀ, plus bias[N] when
  /// `bias` is non-null (the fused linear layer).
  void (*matmul_nt)(const float* a, const float* b, const float* bias,
                    float* c, std::int64_t m0, std::int64_t m1, std::int64_t k,
                    std::int64_t n);
  /// y += alpha * x over n elements.
  void (*axpy)(float* y, const float* x, float alpha, std::int64_t n);
  /// a += b over n elements.
  void (*add)(float* a, const float* b, std::int64_t n);
  /// a *= s over n elements.
  void (*scale)(float* a, float s, std::int64_t n);
  /// In-place softmax of one row (max-subtracted, fixed reduction order).
  void (*softmax_row)(float* r, std::int64_t n);
  /// In-place layernorm of one row with gain/bias of size n.
  void (*layernorm_row)(float* r, const float* gain, const float* bias,
                        std::int64_t n, float eps);
  /// In-place tanh-approximation GELU over n elements.
  void (*gelu)(float* p, std::int64_t n);
  /// out[j] = max over i in [0, m) of a[i*n + j] (column-wise max).
  void (*colwise_max)(const float* a, float* out, std::int64_t m,
                      std::int64_t n);

  // ---- int8 dynamic-quantization kernels (see quant.hpp) ----
  //
  // The quantization scheme is symmetric per-row: scale = max|row|/127,
  // values clamped to [-127, 127] (the -128 slot is never produced, so
  // |q| <= 127 — which keeps the AVX2 maddubs pair-sums exact, see
  // kernels_avx2.cpp). Integer accumulation is exact, so within a
  // backend int8 results are byte-stable across any thread split; across
  // backends the int8 payloads are bit-identical and only the final
  // float requantize can differ by rounding.

  /// Quantizes n floats to int8: *scale = max|src|/127 (1.0 for an
  /// all-zero row), dst[i] = clamp(rint(src[i] * (127/max|src|)), ±127).
  /// rint is round-to-nearest-even (the default FP environment), which
  /// every backend matches bit-exactly.
  void (*quantize_row)(const float* src, std::int8_t* dst, float* scale,
                       std::int64_t n);
  /// dst[i] = scale * src[i] over n elements.
  void (*dequantize_row)(const std::int8_t* src, float* dst, float scale,
                         std::int64_t n);
  /// Rows [m0, m1) of C[M,N] = (Aq[M,K] · Bq[N,K]ᵀ) requantized:
  /// C[i][j] = float(acc_i32) * (a_scales[i] * b_scales[j]) + bias[j]
  /// with a saturating-free exact i32 accumulator (|q| <= 127 keeps any
  /// K <= ~133000 overflow-free). `bias` is nullable, as in matmul_nt.
  void (*matmul_nt_i8)(const std::int8_t* a, const float* a_scales,
                       const std::int8_t* b, const float* b_scales,
                       const float* bias, float* c, std::int64_t m0,
                       std::int64_t m1, std::int64_t k, std::int64_t n);

  // ---- attention scores over packed keys ----

  /// Rows [m0, m1) of C[M,N] = scale * (A[M,K] · B[N,K]ᵀ) for K % 8 == 0,
  /// with B packed into 8-key panels: panel p (keys 8p..8p+7) is a
  /// [K][8] block at b_panels + p*8*K, lanes past N zero-filled. Every C
  /// value must be byte-identical to this backend's matmul_nt followed
  /// by scale. May be nullptr — ops.cpp then runs matmul_nt + scale.
  void (*attention_scores)(const float* a, const float* b_panels, float scale,
                           float* c, std::int64_t m0, std::int64_t m1,
                           std::int64_t k, std::int64_t n);
};

/// The reference backend (always available).
const KernelBackend& scalar_backend();
/// Portable register-blocked backend (always available).
const KernelBackend& blocked_backend();
/// AVX2+FMA backend; nullptr when not compiled in or the CPU lacks
/// AVX2/FMA.
const KernelBackend* avx2_backend();

/// The backend all ops currently dispatch to. First call resolves
/// ZENESIS_KERNEL (invalid or unavailable values fall back to the best
/// available backend with a one-line stderr note).
const KernelBackend& active();

/// The ZENESIS_KERNEL resolution rule as a pure function (the env init
/// calls this exactly once per process): maps a selector value to the
/// backend it lands on. When `value` is unknown or unavailable on this
/// CPU, returns the best available backend and sets `*warning` to the
/// one-line fallback note; otherwise `*warning` is cleared. Exposed so
/// tests can cover the fallback path without forking a process.
const KernelBackend& resolve_selector(std::string_view value,
                                      std::string* warning);

}  // namespace kernels

/// Selects the kernel backend by name: "scalar", "blocked", "avx2", or
/// "auto" (best available). Returns false — and leaves the
/// active backend unchanged — when the name is unknown or the backend is
/// unavailable on this CPU. Process-global and thread-safe (kernels
/// already running finish on the backend they started with).
bool set_backend(std::string_view name);

/// Name of the active backend ("scalar" | "blocked" | "avx2").
const char* backend_name();

/// Backends usable on this machine, in preference order (best first).
std::vector<std::string> available_backends();

/// True when `name` names a backend that set_backend() would accept.
bool backend_available(std::string_view name);

/// Space-separated SIMD capabilities detected at runtime (e.g.
/// "sse4.2 avx avx2 fma avx512f"), independent of which backends were
/// compiled in. Empty when detection is unsupported on this platform.
std::string cpu_feature_string();

}  // namespace zenesis::tensor
