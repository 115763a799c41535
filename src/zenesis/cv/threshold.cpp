#include "zenesis/cv/threshold.hpp"

#include <stdexcept>

#include "zenesis/image/normalize.hpp"

namespace zenesis::cv {
namespace {

/// Fixed threshold: pixel > t.
image::Mask fixed_threshold(const image::ImageF32& img, float t) {
  image::Mask mask(img.width(), img.height());
  auto src = img.pixels();
  auto dst = mask.pixels();
  for (std::size_t i = 0; i < src.size(); ++i) dst[i] = src[i] > t ? 1 : 0;
  return mask;
}

}  // namespace

int otsu_bin(const std::vector<std::int64_t>& hist) {
  const int bins = static_cast<int>(hist.size());
  if (bins < 2) throw std::invalid_argument("otsu_bin: need >= 2 bins");
  std::int64_t total = 0;
  double sum_all = 0.0;
  for (int b = 0; b < bins; ++b) {
    total += hist[static_cast<std::size_t>(b)];
    sum_all += static_cast<double>(b) * static_cast<double>(hist[static_cast<std::size_t>(b)]);
  }
  if (total == 0) return 0;
  double sum_bg = 0.0;
  std::int64_t w_bg = 0;
  double best_var = -1.0;
  int best_bin = 0;
  for (int b = 0; b < bins - 1; ++b) {
    w_bg += hist[static_cast<std::size_t>(b)];
    if (w_bg == 0) continue;
    const std::int64_t w_fg = total - w_bg;
    if (w_fg == 0) break;
    sum_bg += static_cast<double>(b) * static_cast<double>(hist[static_cast<std::size_t>(b)]);
    const double mean_bg = sum_bg / static_cast<double>(w_bg);
    const double mean_fg = (sum_all - sum_bg) / static_cast<double>(w_fg);
    const double diff = mean_bg - mean_fg;
    const double var = static_cast<double>(w_bg) * static_cast<double>(w_fg) * diff * diff;
    if (var > best_var) {
      best_var = var;
      best_bin = b;
    }
  }
  return best_bin;
}

ThresholdResult otsu_threshold(const image::ImageF32& img) {
  constexpr int kBins = 256;
  const auto hist = image::histogram(img, 0.0f, 1.0f, kBins);
  const int bin = otsu_bin(hist);
  ThresholdResult r;
  r.threshold = (static_cast<float>(bin) + 0.5f) / kBins;
  r.mask = fixed_threshold(img, r.threshold);
  return r;
}

}  // namespace zenesis::cv
