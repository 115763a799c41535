#include "zenesis/image/normalize.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace zenesis::image {
namespace {

template <typename T>
ImageF32 integer_to_float(const Image<T>& img) {
  ImageF32 out(img.width(), img.height(), img.channels());
  const float scale = 1.0f / static_cast<float>(std::numeric_limits<T>::max());
  auto src = img.pixels();
  auto dst = out.pixels();
  for (std::size_t i = 0; i < src.size(); ++i) {
    dst[i] = static_cast<float>(src[i]) * scale;
  }
  return out;
}

template <typename T>
Image<T> float_to_integer(const ImageF32& img) {
  Image<T> out(img.width(), img.height(), img.channels());
  const double scale = static_cast<double>(std::numeric_limits<T>::max());
  auto src = img.pixels();
  auto dst = out.pixels();
  for (std::size_t i = 0; i < src.size(); ++i) {
    const double v = std::clamp(static_cast<double>(src[i]), 0.0, 1.0);
    dst[i] = static_cast<T>(v * scale + 0.5);
  }
  return out;
}

/// Luminance reduction for an interleaved multi-channel float image.
ImageF32 to_gray(const ImageF32& img) {
  if (img.channels() == 1) return img;
  ImageF32 out(img.width(), img.height(), 1);
  // Rec.601 luma for 3+ channels; extra channels (alpha) are ignored.
  for (std::int64_t y = 0; y < img.height(); ++y) {
    for (std::int64_t x = 0; x < img.width(); ++x) {
      if (img.channels() >= 3) {
        out.at(x, y) = 0.299f * img.at(x, y, 0) + 0.587f * img.at(x, y, 1) +
                       0.114f * img.at(x, y, 2);
      } else {
        out.at(x, y) = img.at(x, y, 0);
      }
    }
  }
  return out;
}

}  // namespace

Stats compute_stats(const ImageF32& img) {
  Stats s;
  auto px = img.pixels();
  if (px.empty()) return s;
  s.min = px[0];
  s.max = px[0];
  double sum = 0.0;
  for (float v : px) {
    s.min = std::min(s.min, v);
    s.max = std::max(s.max, v);
    sum += v;
  }
  s.mean = sum / static_cast<double>(px.size());
  double var = 0.0;
  for (float v : px) {
    const double d = v - s.mean;
    var += d * d;
  }
  s.stddev = std::sqrt(var / static_cast<double>(px.size()));
  return s;
}

ImageF32 to_float(const AnyImage& img) {
  ImageF32 f = std::visit(
      [](const auto& i) -> ImageF32 {
        using T = std::remove_cvref_t<decltype(i.at(0, 0))>;
        if constexpr (std::is_same_v<T, float>) {
          return i;
        } else {
          return integer_to_float(i);
        }
      },
      img);
  if (f.channels() > 1) f = to_gray(f);
  return f;
}

std::vector<std::int64_t> histogram(const ImageF32& img, float lo, float hi,
                                    int bins) {
  if (bins <= 0) throw std::invalid_argument("histogram: bins must be > 0");
  if (!(hi > lo)) throw std::invalid_argument("histogram: hi must exceed lo");
  std::vector<std::int64_t> h(static_cast<std::size_t>(bins), 0);
  const float scale = static_cast<float>(bins) / (hi - lo);
  for (float v : img.pixels()) {
    int b = static_cast<int>((v - lo) * scale);
    b = std::clamp(b, 0, bins - 1);
    ++h[static_cast<std::size_t>(b)];
  }
  return h;
}

float percentile(const ImageF32& img, double pct) {
  auto px = img.pixels();
  if (px.empty()) throw std::invalid_argument("percentile: empty image");
  std::vector<float> sorted(px.begin(), px.end());
  const double clamped = std::clamp(pct, 0.0, 100.0);
  auto idx = static_cast<std::size_t>(
      clamped / 100.0 * static_cast<double>(sorted.size() - 1) + 0.5);
  std::nth_element(sorted.begin(), sorted.begin() + static_cast<std::ptrdiff_t>(idx),
                   sorted.end());
  return sorted[idx];
}

ImageF32 percentile_normalize(const ImageF32& img, double lo_pct,
                              double hi_pct) {
  const float lo = percentile(img, lo_pct);
  const float hi = percentile(img, hi_pct);
  ImageF32 out(img.width(), img.height(), img.channels());
  if (!(hi > lo)) return out;  // constant image → zeros
  const float inv = 1.0f / (hi - lo);
  auto src = img.pixels();
  auto dst = out.pixels();
  for (std::size_t i = 0; i < src.size(); ++i) {
    dst[i] = std::clamp((src[i] - lo) * inv, 0.0f, 1.0f);
  }
  return out;
}

ImageF32 minmax_normalize(const ImageF32& img) {
  const Stats s = compute_stats(img);
  ImageF32 out(img.width(), img.height(), img.channels());
  if (!(s.max > s.min)) return out;
  const float inv = 1.0f / (s.max - s.min);
  auto src = img.pixels();
  auto dst = out.pixels();
  for (std::size_t i = 0; i < src.size(); ++i) dst[i] = (src[i] - s.min) * inv;
  return out;
}

ImageF32 clahe(const ImageF32& img, int tiles_x, int tiles_y,
               double clip_limit) {
  if (img.channels() != 1) {
    throw std::invalid_argument("clahe: single-channel input required");
  }
  if (tiles_x <= 0 || tiles_y <= 0) {
    throw std::invalid_argument("clahe: tile counts must be positive");
  }
  constexpr int kBins = 256;
  const std::int64_t w = img.width(), h = img.height();
  if (w == 0 || h == 0) return img;
  const double tw = static_cast<double>(w) / tiles_x;
  const double th = static_cast<double>(h) / tiles_y;

  // Per-tile clipped-equalization lookup tables.
  std::vector<std::vector<float>> luts(
      static_cast<std::size_t>(tiles_x * tiles_y),
      std::vector<float>(kBins, 0.0f));
  for (int ty = 0; ty < tiles_y; ++ty) {
    for (int tx = 0; tx < tiles_x; ++tx) {
      const std::int64_t x0 = static_cast<std::int64_t>(tx * tw);
      const std::int64_t x1 =
          std::min<std::int64_t>(w, static_cast<std::int64_t>((tx + 1) * tw));
      const std::int64_t y0 = static_cast<std::int64_t>(ty * th);
      const std::int64_t y1 =
          std::min<std::int64_t>(h, static_cast<std::int64_t>((ty + 1) * th));
      std::vector<double> hist(kBins, 0.0);
      std::int64_t count = 0;
      for (std::int64_t y = y0; y < y1; ++y) {
        for (std::int64_t x = x0; x < x1; ++x) {
          const float v = std::clamp(img.at(x, y), 0.0f, 1.0f);
          ++hist[static_cast<std::size_t>(
              std::min<int>(kBins - 1, static_cast<int>(v * kBins)))];
          ++count;
        }
      }
      if (count == 0) continue;
      // Clip and redistribute.
      const double limit = clip_limit * static_cast<double>(count) / kBins;
      double excess = 0.0;
      for (double& b : hist) {
        if (b > limit) {
          excess += b - limit;
          b = limit;
        }
      }
      const double bonus = excess / kBins;
      for (double& b : hist) b += bonus;
      // CDF → LUT.
      double cdf = 0.0;
      auto& lut = luts[static_cast<std::size_t>(ty * tiles_x + tx)];
      for (int b = 0; b < kBins; ++b) {
        cdf += hist[static_cast<std::size_t>(b)];
        lut[static_cast<std::size_t>(b)] =
            static_cast<float>(cdf / static_cast<double>(count));
      }
    }
  }

  // Bilinear blend of the four surrounding tile LUTs.
  ImageF32 out(w, h, 1);
  for (std::int64_t y = 0; y < h; ++y) {
    const double fy = (static_cast<double>(y) + 0.5) / th - 0.5;
    const int ty0 = std::clamp(static_cast<int>(std::floor(fy)), 0, tiles_y - 1);
    const int ty1 = std::min(ty0 + 1, tiles_y - 1);
    const double wy = std::clamp(fy - ty0, 0.0, 1.0);
    for (std::int64_t x = 0; x < w; ++x) {
      const double fx = (static_cast<double>(x) + 0.5) / tw - 0.5;
      const int tx0 =
          std::clamp(static_cast<int>(std::floor(fx)), 0, tiles_x - 1);
      const int tx1 = std::min(tx0 + 1, tiles_x - 1);
      const double wx = std::clamp(fx - tx0, 0.0, 1.0);
      const float v = std::clamp(img.at(x, y), 0.0f, 1.0f);
      const auto bin = static_cast<std::size_t>(
          std::min<int>(kBins - 1, static_cast<int>(v * kBins)));
      const float v00 = luts[static_cast<std::size_t>(ty0 * tiles_x + tx0)][bin];
      const float v01 = luts[static_cast<std::size_t>(ty0 * tiles_x + tx1)][bin];
      const float v10 = luts[static_cast<std::size_t>(ty1 * tiles_x + tx0)][bin];
      const float v11 = luts[static_cast<std::size_t>(ty1 * tiles_x + tx1)][bin];
      const double top = v00 * (1.0 - wx) + v01 * wx;
      const double bot = v10 * (1.0 - wx) + v11 * wx;
      out.at(x, y) = static_cast<float>(top * (1.0 - wy) + bot * wy);
    }
  }
  return out;
}

AnyImage quantize(const ImageF32& img, int bits) {
  switch (bits) {
    case 8:
      return float_to_integer<std::uint8_t>(img);
    case 16:
      return float_to_integer<std::uint16_t>(img);
    case 32:
      return float_to_integer<std::uint32_t>(img);
    default:
      throw std::invalid_argument("quantize: bits must be 8, 16 or 32");
  }
}

ImageF32 make_ai_ready(const AnyImage& img, const ReadinessConfig& cfg) {
  ImageF32 f = to_float(img);
  f = percentile_normalize(f, cfg.lo_percentile, cfg.hi_percentile);
  if (cfg.use_clahe) {
    f = clahe(f, cfg.clahe_tiles, cfg.clahe_tiles, cfg.clahe_clip);
  }
  return f;
}

}  // namespace zenesis::image
