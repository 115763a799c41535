// tensor::quant — row quantization over the kernel backends and the
// process-global precision selection (the ZENESIS_PRECISION mirror of
// kernels.cpp's ZENESIS_KERNEL dispatch).

#include "zenesis/tensor/quant.hpp"

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <stdexcept>

#include "zenesis/parallel/parallel_for.hpp"
#include "zenesis/tensor/kernels.hpp"

namespace zenesis::tensor::quant {
namespace {

std::atomic<int> g_precision{-1};  // -1 = unresolved
std::once_flag g_env_once;

void init_from_env() {
  const char* env = std::getenv("ZENESIS_PRECISION");
  std::string warning;
  const Precision chosen = resolve_precision_selector(
      env != nullptr ? std::string_view(env) : std::string_view(), &warning);
  if (!warning.empty()) std::fprintf(stderr, "%s\n", warning.c_str());
  // Keep an explicit set_precision() that raced ahead of lazy init.
  int expected = -1;
  g_precision.compare_exchange_strong(expected, static_cast<int>(chosen),
                                      std::memory_order_release,
                                      std::memory_order_relaxed);
}

}  // namespace

Precision resolve_precision_selector(std::string_view value,
                                     std::string* warning) {
  if (warning != nullptr) warning->clear();
  if (value.empty() || value == "auto" || value == "fp32") {
    return Precision::kFp32;
  }
  if (value == "int8") return Precision::kInt8;
  if (warning != nullptr) {
    *warning = "zenesis: ZENESIS_PRECISION=" + std::string(value) +
               " is unknown (expected fp32|int8); using 'fp32'";
  }
  return Precision::kFp32;
}

Precision active_precision() {
  int p = g_precision.load(std::memory_order_acquire);
  if (p < 0) {
    std::call_once(g_env_once, init_from_env);
    p = g_precision.load(std::memory_order_acquire);
  }
  return static_cast<Precision>(p);
}

bool set_precision(std::string_view name) {
  if (name == "auto") {
    std::string warning;
    const char* env = std::getenv("ZENESIS_PRECISION");
    const Precision p = resolve_precision_selector(
        env != nullptr ? std::string_view(env) : std::string_view(), &warning);
    g_precision.store(static_cast<int>(p), std::memory_order_release);
    return true;
  }
  if (name == "fp32") {
    g_precision.store(static_cast<int>(Precision::kFp32),
                      std::memory_order_release);
    return true;
  }
  if (name == "int8") {
    g_precision.store(static_cast<int>(Precision::kInt8),
                      std::memory_order_release);
    return true;
  }
  return false;
}

const char* precision_name() {
  return active_precision() == Precision::kInt8 ? "int8" : "fp32";
}

bool int8_fast_path() { return active_precision() == Precision::kInt8; }

QuantizedTensor quantize_rows(const Tensor& t) {
  if (t.rank() != 2) {
    throw std::invalid_argument("quantize_rows: rank 2 required");
  }
  const std::int64_t rows = t.dim(0), cols = t.dim(1);
  QuantizedTensor q;
  q.rows = rows;
  q.cols = cols;
  q.data.resize(static_cast<std::size_t>(rows * cols));
  q.scales.resize(static_cast<std::size_t>(rows));
  const kernels::KernelBackend& backend = kernels::active();
  const float* src = t.data();
  parallel::parallel_for(0, rows, [&](std::int64_t i) {
    backend.quantize_row(src + i * cols, q.data.data() + i * cols,
                         &q.scales[static_cast<std::size_t>(i)], cols);
  });
  return q;
}

Tensor dequantize_rows(const QuantizedTensor& q) {
  Tensor out({q.rows, q.cols});
  const kernels::KernelBackend& backend = kernels::active();
  parallel::parallel_for(0, q.rows, [&](std::int64_t i) {
    backend.dequantize_row(q.data.data() + i * q.cols, out.data() + i * q.cols,
                           q.scales[static_cast<std::size_t>(i)], q.cols);
  });
  return out;
}

}  // namespace zenesis::tensor::quant
