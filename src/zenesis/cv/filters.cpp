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

namespace {

constexpr int kMedianBins = 256;
constexpr int kSegBins = 16;  ///< fine bins per coarse bucket
constexpr int kSegments = kMedianBins / kSegBins;

/// Median value of a bin (the centre of its 1/256 slot).
float bin_value(int bin) {
  return (static_cast<float>(bin) + 0.5f) / kMedianBins;
}

/// Pixels a masked median leaves out of its windows: the set pixels of
/// `mask`, placed at `origin` in image coordinates (none when null).
struct Exclusion {
  const image::Mask* mask = nullptr;
  image::Point origin;
};

/// Runs `f(count)` with the narrowest unsigned type that holds the pixel
/// count of one window of `radius` in a w×h image: a 16-bit kernel
/// histogram halves the bytes every sliding step adds and subtracts.
template <typename F>
void with_count_type(std::int64_t w, std::int64_t h, int radius, F&& f) {
  const std::int64_t side = 2 * static_cast<std::int64_t>(radius) + 1;
  if (std::min(side, w) * std::min(side, h) <= 0xFFFF) {
    f(std::uint16_t{});
  } else {
    f(std::uint32_t{});
  }
}

/// Constant-time sliding median (Perreault & Hébert 2007) of one radius
/// over the columns of `roi`, one output row at a time, reading a bin
/// plane that covers every window (windows clamp to the w×h image). One
/// histogram per column covers the window's rows and slides down one row
/// per output row; the kernel histogram slides right by adding and
/// removing whole column histograms, coarse buckets eagerly and fine
/// segments lazily, only for the bucket the median lands in. A row
/// starts from a row-start kernel kept alongside the columns. Every
/// window holds exactly the multiset the direct O(r) scan collects, so
/// the selected bin is identical.
///
/// With an exclusion the columns skip excluded pixels, so each window is
/// the unmasked window minus the excluded pixels in it (the same
/// multiset as binning the masked image). A window that lost none of its
/// pixels, or kept fewer than a quarter of them, gets bin -1: the
/// unmasked median at this radius, which the caller already holds.
template <typename Count>
class Sweep {
 public:
  Sweep(const std::uint8_t* plane, const image::Box& rect, std::int64_t w,
        std::int64_t h, int radius, const image::Box& roi, Exclusion ex,
        std::int64_t ya)
      : plane_(plane),
        rect_(rect),
        w_(w),
        h_(h),
        r_(radius),
        roi_(roi),
        ex_(ex),
        cx0_(std::max<std::int64_t>(roi.x - radius, 0)),
        ncols_(std::min(roi.right() + radius, w) - cx0_),
        start_cols_(std::min(roi.x + radius, w - 1) - cx0_ + 1),
        fine_(static_cast<std::size_t>(ncols_ * kMedianBins)),
        coarse_(static_cast<std::size_t>(ncols_ * kSegments)),
        count_(ex.mask != nullptr ? static_cast<std::size_t>(ncols_) : 0),
        y_(ya) {
    for (std::int64_t yy = std::max<std::int64_t>(ya - radius, 0);
         yy <= std::min(ya + radius, h - 1); ++yy) {
      slide<true>(yy);
    }
  }

  /// Emits `emit(x, y, bin)` for every ROI pixel of row `y`, which is the
  /// row of the constructor's `ya` or the one after the last call's.
  template <typename Emit>
  void row(std::int64_t y, Emit&& emit) {
    if (y > y_) {
      if (y - r_ - 1 >= 0) slide<false>(y - r_ - 1);
      if (y + r_ < h_) slide<true>(y + r_);
      y_ = y;
    }
    const std::int64_t rows = std::min(y + r_, h_ - 1) -
                              std::max<std::int64_t>(y - r_, 0) + 1;
    const bool masked = ex_.mask != nullptr;
    std::array<Count, kSegments> coarse = start_.coarse;
    std::array<Count, kMedianBins> fine = start_.fine;
    std::int64_t count = start_.count;
    std::array<std::int64_t, kSegments> seg_lo, seg_hi;
    seg_lo.fill(0);
    seg_hi.fill(start_cols_ - 1);
    // Window columns [lo, hi], relative to cx0_.
    std::int64_t lo = 0, hi = start_cols_ - 1;
    for (std::int64_t x = roi_.x; x < roi_.right(); ++x) {
      if (x > roi_.x) {
        if (x + r_ < w_) {
          ++hi;
          const std::uint16_t* in = coarse_col(hi);
          for (int s = 0; s < kSegments; ++s) coarse[s] += in[s];
          if (masked) count += count_[static_cast<std::size_t>(hi)];
        }
        if (x - r_ - 1 >= 0) {
          const std::uint16_t* gone = coarse_col(lo);
          for (int s = 0; s < kSegments; ++s) coarse[s] -= gone[s];
          if (masked) count -= count_[static_cast<std::size_t>(lo)];
          ++lo;
        }
      }
      const std::int64_t full = rows * (hi - lo + 1);
      if (!masked) {
        count = full;
      } else if (count == full || count * 4 < full) {
        emit(x, y, -1);
        continue;
      }
      const std::int64_t half = (count + 1) / 2;
      std::int64_t seen = 0;
      int s = 0;
      for (; s + 1 < kSegments; ++s) {
        if (seen + coarse[static_cast<std::size_t>(s)] >= half) break;
        seen += coarse[static_cast<std::size_t>(s)];
      }
      // Bring fine segment s from its last column range to [lo, hi]:
      // whichever is cheaper of rebuilding and exchanging the columns
      // that left/entered (ranges only ever move right within a row).
      Count* seg = fine.data() + s * kSegBins;
      const auto fold = [&](std::int64_t ca, std::int64_t cb, bool add) {
        for (std::int64_t c = ca; c <= cb; ++c) {
          const std::uint16_t* src = fine_col(c) + s * kSegBins;
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
          std::fill(seg, seg + kSegBins, Count{0});
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

 private:
  struct Window {
    std::array<Count, kMedianBins> fine{};
    std::array<Count, kSegments> coarse{};
    std::int64_t count = 0;
  };

  std::uint16_t* fine_col(std::int64_t c) {
    return fine_.data() + c * kMedianBins;
  }
  std::uint16_t* coarse_col(std::int64_t c) {
    return coarse_.data() + c * kSegments;
  }

  /// Adds (kAdd) or removes plane row `yy` to/from every column and the
  /// row-start kernel, skipping excluded pixels.
  template <bool kAdd>
  void slide(std::int64_t yy) {
    const std::uint8_t* bins = plane_ + (yy - rect_.y) * rect_.w + (cx0_ - rect_.x);
    // Columns [ma, mb) of this row lie on the mask row `skip`, which
    // starts at column `off`.
    const std::uint8_t* skip = nullptr;
    std::int64_t ma = ncols_, mb = ncols_, off = 0;
    if (ex_.mask != nullptr && yy >= ex_.origin.y &&
        yy < ex_.origin.y + ex_.mask->height()) {
      off = ex_.origin.x - cx0_;
      ma = std::clamp<std::int64_t>(off, 0, ncols_);
      mb = std::clamp<std::int64_t>(off + ex_.mask->width(), 0, ncols_);
      skip = ex_.mask->pixels().data() + (yy - ex_.origin.y) * ex_.mask->width();
    }
    const auto step = [](auto& v) {
      if constexpr (kAdd) {
        ++v;
      } else {
        --v;
      }
    };
    const auto each = [&](std::int64_t n, auto&& put) {
      const std::int64_t a = std::min(ma, n), b = std::min(mb, n);
      for (std::int64_t c = 0; c < a; ++c) put(c, bins[c]);
      for (std::int64_t c = a; c < b; ++c) {
        if (skip[c - off] == 0) put(c, bins[c]);
      }
      for (std::int64_t c = std::max(a, b); c < n; ++c) put(c, bins[c]);
    };
    const bool masked = ex_.mask != nullptr;
    each(ncols_, [&](std::int64_t c, std::uint8_t bin) {
      step(fine_col(c)[bin]);
      step(coarse_col(c)[bin / kSegBins]);
      if (masked) step(count_[static_cast<std::size_t>(c)]);
    });
    each(start_cols_, [&](std::int64_t, std::uint8_t bin) {
      step(start_.fine[bin]);
      step(start_.coarse[bin / kSegBins]);
      step(start_.count);
    });
  }

  const std::uint8_t* plane_;
  image::Box rect_;
  std::int64_t w_, h_;
  std::int64_t r_;
  image::Box roi_;
  Exclusion ex_;
  std::int64_t cx0_;         ///< image column of column histogram 0
  std::int64_t ncols_;       ///< column histograms the ROI's windows reach
  std::int64_t start_cols_;  ///< columns of the row-start kernel
  // Column histograms (16-bit counts: a column holds at most one window
  // height), fine and coarse kept apart so the eager coarse steps read
  // one small array.
  std::vector<std::uint16_t> fine_, coarse_, count_;
  Window start_;
  std::int64_t y_;
};

/// Runs `body(ya, yb)` over bands of the ROI's rows: one band unless the
/// ROI is tall enough to repay each band's column-histogram start-up.
template <typename Body>
void for_row_bands(const image::Box& roi, Body&& body) {
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
      if (ya < yb) body(ya, yb);
    }
  });
}

}  // namespace

MedianPlane::MedianPlane(const ImageF32& img, int reach, const image::Box& roi)
    : w_(img.width()), h_(img.height()), reach_(reach), roi_(roi.clipped(w_, h_)) {
  require_gray(img, "MedianPlane: single channel required");
  if (reach <= 0) throw std::invalid_argument("MedianPlane: reach must be positive");
  if (roi_.empty()) return;
  if (std::min<std::int64_t>(2 * static_cast<std::int64_t>(reach) + 1, h_) > 0xFFFF) {
    throw std::invalid_argument("median_filter_large: window taller than 65535 rows");
  }
  rect_ = roi_.expanded(reach).clipped(w_, h_);
  bins_.resize(static_cast<std::size_t>(rect_.area()));
  const float* src = img.pixels().data();
  for (std::int64_t y = rect_.y; y < rect_.bottom(); ++y) {
    const float* in = src + y * w_ + rect_.x;
    std::uint8_t* out = bins_.data() + (y - rect_.y) * rect_.w;
    for (std::int64_t i = 0; i < rect_.w; ++i) {
      const float v = std::clamp(in[i], 0.0f, 1.0f);
      out[i] = static_cast<std::uint8_t>(std::clamp(
          static_cast<int>(v * kMedianBins), 0, kMedianBins - 1));
    }
  }
}

void MedianPlane::check_radius(int radius) const {
  if (radius <= 0 || radius > reach_) {
    throw std::invalid_argument("MedianPlane: radius outside (0, reach]");
  }
}

void MedianPlane::medians(int r_a, ImageF32& a, int r_b, ImageF32* b) const {
  check_radius(r_a);
  if (b != nullptr) check_radius(r_b);
  a = ImageF32(roi_.w, roi_.h, 1);
  if (b != nullptr) *b = ImageF32(roi_.w, roi_.h, 1);
  if (roi_.empty()) return;
  const auto to = [this](ImageF32& out) {
    float* px = out.pixels().data();
    return [this, px](std::int64_t x, std::int64_t y, int bin) {
      px[(y - roi_.y) * roi_.w + (x - roi_.x)] = bin_value(bin);
    };
  };
  const auto emit_a = to(a);
  for_row_bands(roi_, [&](std::int64_t ya, std::int64_t yb) {
    with_count_type(w_, h_, r_a, [&](auto ca) {
      Sweep<decltype(ca)> sa(bins_.data(), rect_, w_, h_, r_a, roi_, {}, ya);
      if (b == nullptr) {
        for (std::int64_t y = ya; y < yb; ++y) sa.row(y, emit_a);
        return;
      }
      const auto emit_b = to(*b);
      with_count_type(w_, h_, r_b, [&](auto cb) {
        Sweep<decltype(cb)> sb(bins_.data(), rect_, w_, h_, r_b, roi_, {}, ya);
        for (std::int64_t y = ya; y < yb; ++y) {
          sa.row(y, emit_a);
          sb.row(y, emit_b);
        }
      });
    });
  });
}

ImageF32 MedianPlane::masked(int radius, const image::Mask& exclude,
                             image::Point exclude_origin,
                             const ImageF32& context) const {
  check_radius(radius);
  if (context.width() != roi_.w || context.height() != roi_.h) {
    throw std::invalid_argument(
        "median_filter_large_masked: fallback does not cover the ROI");
  }
  ImageF32 out(roi_.w, roi_.h, 1);
  if (roi_.empty()) return out;
  float* px = out.pixels().data();
  const float* ctx = context.pixels().data();
  const auto emit = [&](std::int64_t x, std::int64_t y, int bin) {
    const std::int64_t i = (y - roi_.y) * roi_.w + (x - roi_.x);
    px[i] = bin < 0 ? ctx[i] : bin_value(bin);
  };
  for_row_bands(roi_, [&](std::int64_t ya, std::int64_t yb) {
    with_count_type(w_, h_, radius, [&](auto count) {
      Sweep<decltype(count)> sweep(bins_.data(), rect_, w_, h_, radius, roi_,
                                   {&exclude, exclude_origin}, ya);
      for (std::int64_t y = ya; y < yb; ++y) sweep.row(y, emit);
    });
  });
  return out;
}

ImageF32 median_filter_large(const ImageF32& img, int radius,
                             const image::Box& roi) {
  require_gray(img, "median_filter_large: single channel required");
  if (radius <= 0 || img.pixel_count() == 0) return image::crop(img, roi);
  ImageF32 out;
  MedianPlane(img, radius, roi).medians(radius, out, 0, nullptr);
  return out;
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
  const MedianPlane plane(img, radius, roi);
  ImageF32 own_fallback;
  if (fallback == nullptr) plane.medians(radius, own_fallback, 0, nullptr);
  return plane.masked(radius, exclude, exclude_origin,
                      fallback != nullptr ? *fallback : own_fallback);
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

}  // namespace zenesis::cv
