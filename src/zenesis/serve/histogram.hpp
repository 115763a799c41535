#pragma once
// Fixed-footprint histogram for service telemetry (latencies in
// microseconds, batch sizes). Buckets grow geometrically (ratio 1.25), so
// quantile estimates carry a bounded ~12% relative error across nine
// decades while the whole structure stays a small POD that can be copied
// out in a stats snapshot without stopping the service.
//
// Not internally synchronized: the service records under its stats mutex
// and hands out value copies.

#include <array>
#include <cstdint>

namespace zenesis::serve {

class Histogram {
 public:
  /// Records one sample. Negative values and NaN record as zero; values
  /// beyond the top bucket's lower edge (+inf included) land in the top
  /// bucket.
  void record(double value);

  std::uint64_t count() const noexcept { return count_; }
  double total() const noexcept { return sum_; }
  double mean() const noexcept {
    return count_ == 0 ? 0.0 : sum_ / static_cast<double>(count_);
  }
  double max() const noexcept { return max_; }

  /// Quantile estimate for p in [0, 100] (p50/p95/p99 in dashboards).
  /// Interpolates inside the winning bucket; exact for the max sample.
  double percentile(double p) const;

 private:
  static constexpr int kBuckets = 96;  ///< 1.25^95 ≈ 1.6e9 — covers >25 min in µs
  static int bucket_of(double value);
  static double bucket_lo(int bucket);
  static double bucket_hi(int bucket);

  std::array<std::uint64_t, kBuckets> counts_{};
  std::uint64_t count_ = 0;
  double sum_ = 0.0;
  double max_ = 0.0;
};

}  // namespace zenesis::serve
