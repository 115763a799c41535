#include "zenesis/serve/histogram.hpp"

#include <algorithm>
#include <cmath>

namespace zenesis::serve {

namespace {
constexpr double kRatio = 1.25;
const double kLogRatio = std::log(kRatio);
}  // namespace

int Histogram::bucket_of(double value) {
  if (value <= 1.0) return 0;
  // Compared before the cast: a float→int conversion of an out-of-range
  // value (+inf, 1e300) is undefined.
  static const double top_lo = bucket_lo(kBuckets - 1);
  if (value >= top_lo) return kBuckets - 1;
  return 1 + static_cast<int>(std::log(value) / kLogRatio);
}

double Histogram::bucket_lo(int bucket) {
  return bucket == 0 ? 0.0 : std::pow(kRatio, bucket - 1);
}

double Histogram::bucket_hi(int bucket) {
  return bucket == 0 ? 1.0 : std::pow(kRatio, bucket);
}

void Histogram::record(double value) {
  if (!(value > 0.0)) value = 0.0;  // negatives and NaN
  counts_[static_cast<std::size_t>(bucket_of(value))] += 1;
  count_ += 1;
  sum_ += value;
  max_ = std::max(max_, value);
}

double Histogram::percentile(double p) const {
  if (count_ == 0) return 0.0;
  p = std::clamp(p, 0.0, 100.0);
  const double target = p / 100.0 * static_cast<double>(count_);
  std::uint64_t seen = 0;
  for (int b = 0; b < kBuckets; ++b) {
    const std::uint64_t in_bucket = counts_[static_cast<std::size_t>(b)];
    if (in_bucket == 0) continue;
    if (static_cast<double>(seen + in_bucket) >= target) {
      // Linear interpolation across the bucket by the rank's position in
      // it; the top bucket is clipped to the exact observed maximum.
      const double frac =
          in_bucket == 0
              ? 0.0
              : (target - static_cast<double>(seen)) /
                    static_cast<double>(in_bucket);
      const double lo = bucket_lo(b);
      const double hi = std::min(bucket_hi(b), max_ > 0.0 ? max_ : bucket_hi(b));
      return lo + std::clamp(frac, 0.0, 1.0) * std::max(hi - lo, 0.0);
    }
    seen += in_bucket;
  }
  return max_;
}

}  // namespace zenesis::serve
