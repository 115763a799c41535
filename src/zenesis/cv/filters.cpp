#include "zenesis/cv/filters.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <stdexcept>
#include <vector>

#include "zenesis/image/roi.hpp"
#include "zenesis/parallel/parallel_for.hpp"

namespace zenesis::cv {
namespace {

using image::ImageF32;

void require_gray(const ImageF32& img, const char* what) {
  if (img.channels() != 1) throw std::invalid_argument(what);
}

std::int64_t clampi(std::int64_t v, std::int64_t lo, std::int64_t hi) {
  return std::clamp(v, lo, hi);
}

/// Summed-area table; sat[(y+1)*(w+1)+(x+1)] = sum of img[0..y][0..x].
std::vector<double> summed_area(const ImageF32& img) {
  const std::int64_t w = img.width(), h = img.height();
  std::vector<double> sat(static_cast<std::size_t>((w + 1) * (h + 1)), 0.0);
  for (std::int64_t y = 0; y < h; ++y) {
    double row = 0.0;
    for (std::int64_t x = 0; x < w; ++x) {
      row += img.at(x, y);
      sat[static_cast<std::size_t>((y + 1) * (w + 1) + (x + 1))] =
          sat[static_cast<std::size_t>(y * (w + 1) + (x + 1))] + row;
    }
  }
  return sat;
}

double sat_sum(const std::vector<double>& sat, std::int64_t w, std::int64_t x0,
               std::int64_t y0, std::int64_t x1, std::int64_t y1) {
  // Inclusive box [x0,x1]×[y0,y1].
  const auto idx = [w](std::int64_t y, std::int64_t x) {
    return static_cast<std::size_t>(y * (w + 1) + x);
  };
  return sat[idx(y1 + 1, x1 + 1)] - sat[idx(y0, x1 + 1)] -
         sat[idx(y1 + 1, x0)] + sat[idx(y0, x0)];
}

}  // namespace

ImageF32 gaussian_blur(const ImageF32& img, float sigma, const image::Box& roi_in) {
  require_gray(img, "gaussian_blur: single channel required");
  if (sigma <= 0.0f || img.pixel_count() == 0) return image::crop(img, roi_in);
  const int radius = std::max(1, static_cast<int>(std::ceil(3.0f * sigma)));
  std::vector<float> kernel(static_cast<std::size_t>(2 * radius + 1));
  float sum = 0.0f;
  for (int i = -radius; i <= radius; ++i) {
    const float v = std::exp(-0.5f * static_cast<float>(i * i) / (sigma * sigma));
    kernel[static_cast<std::size_t>(i + radius)] = v;
    sum += v;
  }
  for (float& v : kernel) v /= sum;

  const std::int64_t w = img.width(), h = img.height();
  const image::Box roi = roi_in.clipped(w, h);
  if (roi.empty()) return ImageF32(0, 0, 1);
  // Both passes run whole-row loops so the x loop vectorizes: each
  // output row starts at 0 and adds one tap across the row at a time,
  // which keeps every pixel's 0 + k0·v0 + k1·v1 + … order. The
  // horizontal pass covers every row the vertical taps of the ROI reach,
  // reading a copy of the row padded with its clamped border samples.
  const std::int64_t ty0 = clampi(roi.y - radius, 0, h - 1);
  const std::int64_t ty1 = clampi(roi.bottom() - 1 + radius, 0, h - 1);
  const std::int64_t taps = 2 * radius + 1;
  ImageF32 tmp(roi.w, ty1 - ty0 + 1, 1), out(roi.w, roi.h, 1);
  const float* src = img.pixels().data();
  float* tmp_px = tmp.pixels().data();
  float* out_px = out.pixels().data();
  parallel::parallel_for(ty0, ty1 + 1, [&](std::int64_t y) {
    thread_local std::vector<float> padded;
    padded.resize(static_cast<std::size_t>(roi.w + taps - 1));
    const float* row = src + y * w;
    for (std::int64_t j = 0; j < roi.w + taps - 1; ++j) {
      padded[static_cast<std::size_t>(j)] =
          row[clampi(roi.x - radius + j, 0, w - 1)];
    }
    float* __restrict acc = tmp_px + (y - ty0) * roi.w;
    std::fill(acc, acc + roi.w, 0.0f);
    for (std::int64_t t = 0; t < taps; ++t) {
      const float kt = kernel[static_cast<std::size_t>(t)];
      const float* __restrict v = padded.data() + t;
      for (std::int64_t x = 0; x < roi.w; ++x) acc[x] += kt * v[x];
    }
  });
  parallel::parallel_for(roi.y, roi.bottom(), [&](std::int64_t y) {
    float* __restrict acc = out_px + (y - roi.y) * roi.w;
    std::fill(acc, acc + roi.w, 0.0f);
    for (std::int64_t t = 0; t < taps; ++t) {
      const float kt = kernel[static_cast<std::size_t>(t)];
      const float* __restrict v =
          tmp_px + (clampi(y + t - radius, 0, h - 1) - ty0) * roi.w;
      for (std::int64_t x = 0; x < roi.w; ++x) acc[x] += kt * v[x];
    }
  });
  return out;
}

ImageF32 gaussian_blur(const ImageF32& img, float sigma) {
  return gaussian_blur(img, sigma, {0, 0, img.width(), img.height()});
}

ImageF32 box_filter(const ImageF32& img, int radius) {
  require_gray(img, "box_filter: single channel required");
  if (radius <= 0 || img.pixel_count() == 0) return img;
  const std::int64_t w = img.width(), h = img.height();
  const auto sat = summed_area(img);
  ImageF32 out(w, h, 1);
  parallel::parallel_for(0, h, [&](std::int64_t y) {
    const std::int64_t y0 = clampi(y - radius, 0, h - 1);
    const std::int64_t y1 = clampi(y + radius, 0, h - 1);
    for (std::int64_t x = 0; x < w; ++x) {
      const std::int64_t x0 = clampi(x - radius, 0, w - 1);
      const std::int64_t x1 = clampi(x + radius, 0, w - 1);
      const double area = static_cast<double>((x1 - x0 + 1) * (y1 - y0 + 1));
      out.at(x, y) = static_cast<float>(sat_sum(sat, w, x0, y0, x1, y1) / area);
    }
  });
  return out;
}

ImageF32 median_filter(const ImageF32& img, int radius) {
  require_gray(img, "median_filter: single channel required");
  if (radius <= 0 || img.pixel_count() == 0) return img;
  if (radius > 7) throw std::invalid_argument("median_filter: radius > 7");
  const std::int64_t w = img.width(), h = img.height();
  ImageF32 out(w, h, 1);
  parallel::parallel_for(0, h, [&](std::int64_t y) {
    std::vector<float> window;
    window.reserve(static_cast<std::size_t>((2 * radius + 1) * (2 * radius + 1)));
    for (std::int64_t x = 0; x < w; ++x) {
      window.clear();
      for (int dy = -radius; dy <= radius; ++dy) {
        for (int dx = -radius; dx <= radius; ++dx) {
          window.push_back(
              img.at(clampi(x + dx, 0, w - 1), clampi(y + dy, 0, h - 1)));
        }
      }
      auto mid = window.begin() + static_cast<std::ptrdiff_t>(window.size() / 2);
      std::nth_element(window.begin(), mid, window.end());
      out.at(x, y) = *mid;
    }
  });
  return out;
}

namespace {

constexpr int kMedianBins = 256;
constexpr int kSegBins = 16;  ///< fine bins per coarse bucket
constexpr int kSegments = kMedianBins / kSegBins;

/// Bin value of a pixel the masked filter leaves out of every window.
constexpr std::uint16_t kExcludedBin = kMedianBins;

/// Pre-quantized bin plane covering the rectangle the windows can reach
/// (row-major: every sliding step reads one whole plane row). Each pixel
/// is binned once up front; excluded pixels carry kExcludedBin.
struct BinPlane {
  std::vector<std::uint16_t> bins;
  std::int64_t x0 = 0, y0 = 0, stride = 0;

  const std::uint16_t* row(std::int64_t y) const {
    return bins.data() + (y - y0) * stride;
  }
};

BinPlane quantize_plane(const ImageF32& img, const image::Box& rect,
                        const image::Mask* exclude, image::Point exclude_origin) {
  BinPlane p;
  p.x0 = rect.x;
  p.y0 = rect.y;
  p.stride = rect.w;
  p.bins.resize(static_cast<std::size_t>(rect.area()));
  const image::Box ex =
      exclude != nullptr
          ? image::Box{exclude_origin.x, exclude_origin.y, exclude->width(),
                       exclude->height()}
          : image::Box{};
  for (std::int64_t y = rect.y; y < rect.bottom(); ++y) {
    std::uint16_t* row = p.bins.data() + (y - rect.y) * p.stride;
    for (std::int64_t x = rect.x; x < rect.right(); ++x) {
      if (ex.contains({x, y}) &&
          exclude->at(x - exclude_origin.x, y - exclude_origin.y) != 0) {
        row[x - rect.x] = kExcludedBin;
        continue;
      }
      const float v = std::clamp(img.at(x, y), 0.0f, 1.0f);
      row[x - rect.x] = static_cast<std::uint16_t>(std::clamp(
          static_cast<int>(v * kMedianBins), 0, kMedianBins - 1));
    }
  }
  return p;
}

/// Two-level (16-bucket coarse / 256-bin fine) histogram. Column
/// histograms (16-bit counts: a column holds at most one window height)
/// and the kernel's row-start histogram are kept in this form.
template <typename Count>
struct Hist {
  std::array<Count, kMedianBins> fine{};
  std::array<Count, kSegments> coarse{};
  Count count = 0;

  void add(std::uint16_t b) {
    ++fine[b];
    ++coarse[static_cast<std::size_t>(b / kSegBins)];
    ++count;
  }
  void del(std::uint16_t b) {
    --fine[b];
    --coarse[static_cast<std::size_t>(b / kSegBins)];
    --count;
  }
};

/// Constant-time sliding median (Perreault & Hébert 2007) over rows
/// [ya, yb) and columns [roi.x, roi.right()) of `plane`, windows clamped
/// to the w×h image. One histogram per plane column covers the window's
/// rows and slides down one row per output row; the kernel histogram
/// slides right by adding/removing whole column histograms — coarse
/// buckets eagerly, fine segments lazily, only for the bucket the median
/// lands in. Every window holds exactly the multiset the direct O(r)
/// scan collects, so the selected bin is identical. `emit(x, y, bin)`
/// receives each median bin; a window whose valid count falls below a
/// quarter of its size gets bin -1 (the masked filter's fallback rule).
template <typename Emit>
void sliding_median_rows(const BinPlane& plane, std::int64_t w, std::int64_t h,
                         int radius, const image::Box& roi, std::int64_t ya,
                         std::int64_t yb, bool sparse_rule, Emit&& emit) {
  const std::int64_t ncols = plane.stride;
  std::vector<Hist<std::uint16_t>> cols(static_cast<std::size_t>(ncols));
  // Kernel window of the row's first output pixel, maintained alongside
  // the column histograms so each row starts without re-summing them.
  const std::int64_t start_lo = clampi(roi.x - radius, 0, w - 1);
  const std::int64_t start_hi = clampi(roi.x + radius, 0, w - 1);
  Hist<std::int32_t> start;
  const auto slide_row = [&](std::int64_t yy, bool add) {
    const std::uint16_t* row = plane.row(yy);
    for (std::int64_t c = 0; c < ncols; ++c) {
      const std::uint16_t b = row[c];
      if (b == kExcludedBin) continue;
      Hist<std::uint16_t>& col = cols[static_cast<std::size_t>(c)];
      add ? col.add(b) : col.del(b);
    }
    for (std::int64_t x = start_lo; x <= start_hi; ++x) {
      const std::uint16_t b = row[x - plane.x0];
      if (b == kExcludedBin) continue;
      add ? start.add(b) : start.del(b);
    }
  };
  for (std::int64_t yy = clampi(ya - radius, 0, h - 1);
       yy <= clampi(ya + radius, 0, h - 1); ++yy) {
    slide_row(yy, true);
  }

  const auto col = [&](std::int64_t x) -> const Hist<std::uint16_t>& {
    return cols[static_cast<std::size_t>(x - plane.x0)];
  };
  std::array<std::int32_t, kMedianBins> fine{};
  std::array<std::int64_t, kSegments> seg_lo{}, seg_hi{};
  for (std::int64_t y = ya; y < yb; ++y) {
    if (y > ya) {
      if (y - radius - 1 >= 0) slide_row(y - radius - 1, false);
      if (y + radius < h) slide_row(y + radius, true);
    }
    const std::int64_t rows = clampi(y + radius, 0, h - 1) -
                              clampi(y - radius, 0, h - 1) + 1;
    std::array<std::int32_t, kSegments> coarse = start.coarse;
    std::int32_t count = start.count;
    fine = start.fine;
    seg_lo.fill(start_lo);
    seg_hi.fill(start_hi);
    std::int64_t lo = start_lo, hi = start_hi;
    for (std::int64_t x = roi.x; x < roi.right(); ++x) {
      if (x > roi.x) {
        if (x + radius < w) {
          hi = x + radius;
          const auto& in = col(hi);
          for (int s = 0; s < kSegments; ++s) coarse[s] += in.coarse[s];
          count += in.count;
        }
        if (x - radius - 1 >= 0) {
          const auto& gone = col(x - radius - 1);
          for (int s = 0; s < kSegments; ++s) coarse[s] -= gone.coarse[s];
          count -= gone.count;
          lo = x - radius;
        }
      }
      if (sparse_rule && static_cast<std::int64_t>(count) * 4 < rows * (hi - lo + 1)) {
        emit(x, y, -1);
        continue;
      }
      const std::int32_t half = (count + 1) / 2;
      std::int32_t seen = 0;
      int s = 0;
      for (; s + 1 < kSegments; ++s) {
        if (seen + coarse[static_cast<std::size_t>(s)] >= half) break;
        seen += coarse[static_cast<std::size_t>(s)];
      }
      // Bring fine segment s from its last column range to [lo, hi]:
      // whichever is cheaper of rebuilding and exchanging the columns
      // that left/entered (ranges only ever move right within a row).
      std::int32_t* seg = fine.data() + s * kSegBins;
      const auto fold = [&](std::int64_t xa, std::int64_t xb, bool add) {
        for (std::int64_t xx = xa; xx <= xb; ++xx) {
          const std::uint16_t* src = col(xx).fine.data() + s * kSegBins;
          if (add) {
            for (int b = 0; b < kSegBins; ++b) seg[b] += src[b];
          } else {
            for (int b = 0; b < kSegBins; ++b) seg[b] -= src[b];
          }
        }
      };
      std::int64_t& slo = seg_lo[static_cast<std::size_t>(s)];
      std::int64_t& shi = seg_hi[static_cast<std::size_t>(s)];
      if (slo != lo || shi != hi) {
        if (shi < lo || (lo - slo) + (hi - shi) > hi - lo + 1) {
          std::fill(seg, seg + kSegBins, 0);
          fold(lo, hi, true);
        } else {
          fold(slo, lo - 1, false);
          fold(shi + 1, hi, true);
        }
        slo = lo;
        shi = hi;
      }
      int b = 0;
      for (; b + 1 < kSegBins; ++b) {
        seen += seg[b];
        if (seen >= half) break;
      }
      emit(x, y, s * kSegBins + b);
    }
  }
}

/// Shared body of both median filters: ROI-local output (roi clipped to
/// the image), rows split into bands when the ROI is tall enough to
/// repay each band's column-histogram start-up.
ImageF32 median_roi(const ImageF32& img, int radius, const image::Box& roi_in,
                    const image::Mask* exclude, image::Point exclude_origin,
                    const ImageF32* fallback) {
  const std::int64_t w = img.width(), h = img.height();
  const image::Box roi = roi_in.clipped(w, h);
  if (roi.empty()) return ImageF32(0, 0, 1);
  if (std::min<std::int64_t>(2 * static_cast<std::int64_t>(radius) + 1, h) > 0xFFFF) {
    throw std::invalid_argument("median_filter_large: window taller than 65535 rows");
  }
  const image::Box reach = roi.expanded(radius).clipped(w, h);
  const BinPlane plane = quantize_plane(img, reach, exclude, exclude_origin);
  ImageF32 out(roi.w, roi.h, 1);
  const auto emit = [&](std::int64_t x, std::int64_t y, int bin) {
    out.at(x - roi.x, y - roi.y) =
        bin < 0 ? fallback->at(x - roi.x, y - roi.y)
                : (static_cast<float>(bin) + 0.5f) / kMedianBins;
  };
  constexpr std::int64_t kBandRows = 64;
  auto& pool = parallel::ThreadPool::global();
  const std::int64_t bands =
      roi.h >= 4 * kBandRows ? std::min<std::int64_t>(
                                   static_cast<std::int64_t>(pool.size()),
                                   roi.h / kBandRows)
                             : 1;
  const std::int64_t per = (roi.h + bands - 1) / bands;
  parallel::parallel_for_chunked(0, bands, 1, [&](std::int64_t lo, std::int64_t hi) {
    for (std::int64_t band = lo; band < hi; ++band) {
      const std::int64_t ya = roi.y + band * per;
      const std::int64_t yb = std::min(roi.bottom(), ya + per);
      if (ya < yb) {
        sliding_median_rows(plane, w, h, radius, roi, ya, yb,
                            exclude != nullptr, emit);
      }
    }
  });
  return out;
}

}  // namespace

ImageF32 median_filter_large(const ImageF32& img, int radius,
                             const image::Box& roi) {
  require_gray(img, "median_filter_large: single channel required");
  if (radius <= 0 || img.pixel_count() == 0) return image::crop(img, roi);
  return median_roi(img, radius, roi, nullptr, {}, nullptr);
}

ImageF32 median_filter_large(const ImageF32& img, int radius) {
  return median_filter_large(img, radius,
                             {0, 0, img.width(), img.height()});
}

ImageF32 median_filter_large_masked(const ImageF32& img, int radius,
                                    const image::Mask& exclude,
                                    image::Point exclude_origin,
                                    const image::Box& roi,
                                    const ImageF32* fallback) {
  require_gray(img, "median_filter_large_masked: single channel required");
  if (radius <= 0 || img.pixel_count() == 0) return image::crop(img, roi);
  const image::Box clipped = roi.clipped(img.width(), img.height());
  const ImageF32 own_fallback =
      fallback == nullptr ? median_filter_large(img, radius, clipped) : ImageF32();
  const ImageF32* fb = fallback != nullptr ? fallback : &own_fallback;
  if (fb->width() != clipped.w || fb->height() != clipped.h) {
    throw std::invalid_argument(
        "median_filter_large_masked: fallback does not cover the ROI");
  }
  return median_roi(img, radius, clipped, &exclude, exclude_origin, fb);
}

ImageF32 median_filter_large_masked(const ImageF32& img, int radius,
                                    const image::Mask& exclude) {
  if (img.width() != exclude.width() || img.height() != exclude.height()) {
    throw std::invalid_argument("median_filter_large_masked: size mismatch");
  }
  return median_filter_large_masked(img, radius, exclude, {0, 0},
                                    {0, 0, img.width(), img.height()}, nullptr);
}

ImageF32 sobel_magnitude(const ImageF32& img) {
  require_gray(img, "sobel_magnitude: single channel required");
  const std::int64_t w = img.width(), h = img.height();
  ImageF32 out(w, h, 1);
  if (img.pixel_count() == 0) return out;
  parallel::parallel_for(0, h, [&](std::int64_t y) {
    for (std::int64_t x = 0; x < w; ++x) {
      auto px = [&](std::int64_t xx, std::int64_t yy) {
        return img.at(clampi(xx, 0, w - 1), clampi(yy, 0, h - 1));
      };
      const float gx = (px(x + 1, y - 1) + 2.0f * px(x + 1, y) + px(x + 1, y + 1)) -
                       (px(x - 1, y - 1) + 2.0f * px(x - 1, y) + px(x - 1, y + 1));
      const float gy = (px(x - 1, y + 1) + 2.0f * px(x, y + 1) + px(x + 1, y + 1)) -
                       (px(x - 1, y - 1) + 2.0f * px(x, y - 1) + px(x + 1, y - 1));
      out.at(x, y) = std::sqrt(gx * gx + gy * gy);
    }
  });
  return out;
}

ImageF32 local_variance(const ImageF32& img, int radius) {
  require_gray(img, "local_variance: single channel required");
  if (radius <= 0 || img.pixel_count() == 0) {
    return ImageF32(img.width(), img.height(), 1);
  }
  const ImageF32 mean = box_filter(img, radius);
  ImageF32 sq(img.width(), img.height(), 1);
  auto s = img.pixels();
  auto d = sq.pixels();
  for (std::size_t i = 0; i < s.size(); ++i) d[i] = s[i] * s[i];
  const ImageF32 mean_sq = box_filter(sq, radius);
  ImageF32 out(img.width(), img.height(), 1);
  for (std::int64_t y = 0; y < img.height(); ++y) {
    for (std::int64_t x = 0; x < img.width(); ++x) {
      out.at(x, y) = std::max(0.0f, mean_sq.at(x, y) - mean.at(x, y) * mean.at(x, y));
    }
  }
  return out;
}

ImageF32 abs_diff(const ImageF32& a, const ImageF32& b) {
  if (a.width() != b.width() || a.height() != b.height() ||
      a.channels() != b.channels()) {
    throw std::invalid_argument("abs_diff: shape mismatch");
  }
  ImageF32 out(a.width(), a.height(), a.channels());
  auto pa = a.pixels();
  auto pb = b.pixels();
  auto po = out.pixels();
  for (std::size_t i = 0; i < pa.size(); ++i) po[i] = std::fabs(pa[i] - pb[i]);
  return out;
}

}  // namespace zenesis::cv
