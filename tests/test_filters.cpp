// Spatial filter tests.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <string>
#include <utility>
#include <vector>

#include "zenesis/cv/filters.hpp"
#include "zenesis/image/roi.hpp"
#include "zenesis/parallel/rng.hpp"

namespace zc = zenesis::cv;
namespace zi = zenesis::image;

namespace {

zi::ImageF32 constant(std::int64_t w, std::int64_t h, float v) {
  zi::ImageF32 img(w, h, 1);
  img.fill(v);
  return img;
}

zi::ImageF32 noisy(std::int64_t w, std::int64_t h, float base, float sigma,
                   std::uint64_t seed) {
  zenesis::parallel::Rng rng(seed);
  zi::ImageF32 img(w, h, 1);
  for (float& v : img.pixels()) {
    v = base + static_cast<float>(rng.normal(0.0, sigma));
  }
  return img;
}

double variance(const zi::ImageF32& img) {
  double sum = 0.0, sum2 = 0.0;
  for (float v : img.pixels()) {
    sum += v;
    sum2 += v * v;
  }
  const double n = static_cast<double>(img.pixels().size());
  const double mean = sum / n;
  return sum2 / n - mean * mean;
}

}  // namespace

TEST(GaussianBlur, PreservesConstantImage) {
  const zi::ImageF32 img = constant(16, 16, 0.6f);
  const zi::ImageF32 out = zc::gaussian_blur(img, 2.0f);
  for (float v : out.pixels()) EXPECT_NEAR(v, 0.6f, 1e-5f);
}

TEST(GaussianBlur, ReducesNoiseVariance) {
  const zi::ImageF32 img = noisy(64, 64, 0.5f, 0.1f, 1);
  const zi::ImageF32 out = zc::gaussian_blur(img, 1.5f);
  EXPECT_LT(variance(out), variance(img) * 0.3);
}

TEST(GaussianBlur, ZeroSigmaIsIdentity) {
  const zi::ImageF32 img = noisy(8, 8, 0.5f, 0.1f, 2);
  const zi::ImageF32 out = zc::gaussian_blur(img, 0.0f);
  for (std::int64_t i = 0; i < 64; ++i) {
    EXPECT_EQ(out.pixels()[static_cast<std::size_t>(i)],
              img.pixels()[static_cast<std::size_t>(i)]);
  }
}

TEST(GaussianBlur, ApproximatelyConservesMean) {
  const zi::ImageF32 img = noisy(64, 64, 0.5f, 0.05f, 3);
  const zi::ImageF32 out = zc::gaussian_blur(img, 2.0f);
  double m_in = 0.0, m_out = 0.0;
  for (float v : img.pixels()) m_in += v;
  for (float v : out.pixels()) m_out += v;
  EXPECT_NEAR(m_in / 4096.0, m_out / 4096.0, 0.005);
}

TEST(BoxFilter, WindowMeanExact) {
  zi::ImageF32 img(3, 3, 1);
  float v = 1.0f;
  for (float& p : img.pixels()) p = v++;
  const zi::ImageF32 out = zc::box_filter(img, 1);
  EXPECT_NEAR(out.at(1, 1), 5.0f, 1e-5f);  // mean of 1..9
  EXPECT_NEAR(out.at(0, 0), (1 + 2 + 4 + 5) / 4.0f, 1e-5f);  // corner window
}

TEST(MedianFilterLarge, AgreesWithExactMedianWithinQuantization) {
  const zi::ImageF32 img = noisy(48, 48, 0.5f, 0.1f, 9);
  const zi::ImageF32 fast = zc::median_filter_large(img, 4);
  // Interior only, where the 9x9 window lies inside the image: the exact
  // median of the window's 81 float values.
  std::vector<float> window;
  for (std::int64_t y = 4; y < 44; ++y) {
    for (std::int64_t x = 4; x < 44; ++x) {
      window.clear();
      for (std::int64_t yy = y - 4; yy <= y + 4; ++yy) {
        for (std::int64_t xx = x - 4; xx <= x + 4; ++xx) {
          window.push_back(img.at(xx, yy));
        }
      }
      const auto mid = window.begin() + 40;
      std::nth_element(window.begin(), mid, window.end());
      ASSERT_NEAR(fast.at(x, y), *mid, 1.0f / 256.0f + 1e-4f);
    }
  }
}

TEST(MedianFilterLarge, IgnoresThinBrightStructures) {
  // A 3-px bright stripe must not move the 12-px-window median — the
  // property the SAM surrogate's context estimate relies on.
  zi::ImageF32 img = constant(64, 64, 0.4f);
  for (std::int64_t x = 0; x < 64; ++x) {
    img.at(x, 31) = img.at(x, 32) = img.at(x, 33) = 0.9f;
  }
  const zi::ImageF32 med = zc::median_filter_large(img, 12);
  EXPECT_NEAR(med.at(32, 32), 0.4f, 0.01f);
}

TEST(MedianFilterLargeMasked, ExcludesForeground) {
  // Bright half-plane; estimating the background with the bright side
  // excluded must return the dark level even near the interface.
  zi::ImageF32 img(64, 64, 1);
  zi::Mask exclude(64, 64);
  for (std::int64_t y = 0; y < 64; ++y) {
    for (std::int64_t x = 0; x < 64; ++x) {
      const bool bright = x >= 32;
      img.at(x, y) = bright ? 0.8f : 0.3f;
      exclude.at(x, y) = bright ? 1 : 0;
    }
  }
  const zi::ImageF32 plain = zc::median_filter_large(img, 10);
  const zi::ImageF32 masked = zc::median_filter_large_masked(img, 10, exclude);
  // Near the interface the masked estimate stays at the background level
  // while the plain median follows the object.
  EXPECT_NEAR(masked.at(30, 32), 0.3f, 0.01f);
  EXPECT_NEAR(masked.at(33, 32), 0.3f, 0.01f);  // just inside the object
  EXPECT_NEAR(plain.at(40, 32), 0.8f, 0.01f);   // plain follows the object
  // Deep inside the object fewer than a quarter of the window pixels are
  // valid, so the masked filter falls back to the plain median.
  EXPECT_NEAR(masked.at(45, 32), plain.at(45, 32), 0.01f);
}

TEST(MedianFilterLarge, RoiIsLocalAndMatchesFullImage) {
  const zi::ImageF32 img = noisy(64, 48, 0.5f, 0.2f, 17);
  const zi::Box roi{9, 7, 23, 19};  // interior, window reaches past it
  for (const int radius : {3, 12, 40 /* window exceeds the image */}) {
    const zi::ImageF32 full = zc::median_filter_large(img, radius);
    const zi::ImageF32 part = zc::median_filter_large(img, radius, roi);
    ASSERT_EQ(part.width(), roi.w);
    ASSERT_EQ(part.height(), roi.h);
    for (std::int64_t y = roi.y; y < roi.bottom(); ++y) {
      for (std::int64_t x = roi.x; x < roi.right(); ++x) {
        ASSERT_EQ(part.at(x - roi.x, y - roi.y), full.at(x, y))
            << "r=" << radius << " (" << x << "," << y << ")";
      }
    }
  }
  // An ROI hanging over the image edge is clipped, not an error.
  const zi::ImageF32 over =
      zc::median_filter_large(img, 5, {-4, -4, 200, 200});
  const zi::ImageF32 full = zc::median_filter_large(img, 5);
  ASSERT_EQ(over.width(), img.width());
  ASSERT_EQ(over.height(), img.height());
  for (std::int64_t y = 0; y < img.height(); ++y) {
    for (std::int64_t x = 0; x < img.width(); ++x) {
      ASSERT_EQ(over.at(x, y), full.at(x, y));
    }
  }
  // Disjoint from the image: nothing to compute.
  EXPECT_EQ(zc::median_filter_large(img, 5, {100, 100, 5, 5}).pixel_count(), 0);
}

TEST(MedianFilterLargeMasked, RoiPatchAndPrecomputedFallbackMatchFullImage) {
  const zi::ImageF32 img = noisy(64, 48, 0.5f, 0.2f, 23);
  zi::Mask exclude(64, 48);
  for (std::int64_t y = 10; y < 30; ++y) {
    for (std::int64_t x = 12; x < 40; ++x) exclude.at(x, y) = 1;
  }
  // The same exclusion given as a patch: everything outside it is clear.
  const zi::Box patch_box{10, 8, 33, 25};
  zi::Mask patch(patch_box.w, patch_box.h);
  for (std::int64_t y = 0; y < patch.height(); ++y) {
    for (std::int64_t x = 0; x < patch.width(); ++x) {
      patch.at(x, y) = exclude.at(patch_box.x + x, patch_box.y + y);
    }
  }
  const zi::Box roi{8, 6, 40, 30};
  for (const int radius : {4, 15}) {
    const zi::ImageF32 full =
        zc::median_filter_large_masked(img, radius, exclude);
    const zi::ImageF32 part =
        zc::median_filter_large_masked(img, radius, exclude, {0, 0}, roi);
    const zi::ImageF32 fb = zc::median_filter_large(img, radius, roi);
    const zi::ImageF32 reused =
        zc::median_filter_large_masked(img, radius, exclude, {0, 0}, roi, &fb);
    const zi::ImageF32 patched = zc::median_filter_large_masked(
        img, radius, patch, {patch_box.x, patch_box.y}, roi, &fb);
    for (std::int64_t y = roi.y; y < roi.bottom(); ++y) {
      for (std::int64_t x = roi.x; x < roi.right(); ++x) {
        const float want = full.at(x, y);
        ASSERT_EQ(part.at(x - roi.x, y - roi.y), want)
            << "r=" << radius << " (" << x << "," << y << ")";
        ASSERT_EQ(reused.at(x - roi.x, y - roi.y), want);
        ASSERT_EQ(patched.at(x - roi.x, y - roi.y), want);
      }
    }
  }
  const zi::ImageF32 wrong_fb(3, 3, 1);
  EXPECT_THROW(zc::median_filter_large_masked(img, 4, exclude, {0, 0}, roi, &wrong_fb),
               std::invalid_argument);
}

TEST(GaussianBlur, RoiIsLocalAndMatchesFullImage) {
  const zi::ImageF32 img = noisy(70, 52, 0.5f, 0.2f, 29);
  const zi::ImageF32 full = zc::gaussian_blur(img, 4.0f);
  for (const zi::Box roi : {zi::Box{9, 7, 23, 19}, zi::Box{-3, 30, 40, 40}}) {
    const zi::Box c = roi.clipped(img.width(), img.height());
    const zi::ImageF32 part = zc::gaussian_blur(img, 4.0f, roi);
    ASSERT_EQ(part.width(), c.w);
    ASSERT_EQ(part.height(), c.h);
    for (std::int64_t y = c.y; y < c.bottom(); ++y) {
      for (std::int64_t x = c.x; x < c.right(); ++x) {
        ASSERT_EQ(part.at(x - c.x, y - c.y), full.at(x, y)) << x << "," << y;
      }
    }
  }
}

namespace {

/// The per-pixel tap loop gaussian_blur replaced, kept as the byte-level
/// reference: full-frame horizontal then vertical pass, taps clamped to
/// the border, each pixel summed 0 + k0·v0 + k1·v1 + … in tap order.
zi::ImageF32 tap_loop_blur(const zi::ImageF32& img, float sigma) {
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
  const auto clamp = [](std::int64_t v, std::int64_t hi) {
    return std::clamp<std::int64_t>(v, 0, hi);
  };
  zi::ImageF32 tmp(w, h, 1), out(w, h, 1);
  for (std::int64_t y = 0; y < h; ++y) {
    for (std::int64_t x = 0; x < w; ++x) {
      float acc = 0.0f;
      for (int i = -radius; i <= radius; ++i) {
        acc += kernel[static_cast<std::size_t>(i + radius)] * img.at(clamp(x + i, w - 1), y);
      }
      tmp.at(x, y) = acc;
    }
  }
  for (std::int64_t y = 0; y < h; ++y) {
    for (std::int64_t x = 0; x < w; ++x) {
      float acc = 0.0f;
      for (int i = -radius; i <= radius; ++i) {
        acc += kernel[static_cast<std::size_t>(i + radius)] * tmp.at(x, clamp(y + i, h - 1));
      }
      out.at(x, y) = acc;
    }
  }
  return out;
}

bool same_bytes(const zi::ImageF32& a, const zi::ImageF32& b) {
  return a.width() == b.width() && a.height() == b.height() &&
         std::memcmp(a.pixels().data(), b.pixels().data(),
                     a.pixels().size() * sizeof(float)) == 0;
}

}  // namespace

TEST(GaussianBlur, BytesMatchTapLoopReference) {
  // 8x8 at sigma 4 has a 12-pixel radius: every tap past the frame clamps.
  for (const auto& [w, h] : {std::pair<std::int64_t, std::int64_t>{70, 52}, {8, 8}}) {
    const zi::ImageF32 img = noisy(w, h, 0.5f, 0.2f, 31 + static_cast<std::uint64_t>(w));
    for (const float sigma : {0.5f, 1.0f, 3.0f, 4.0f}) {
      const std::string tag = std::to_string(w) + "x" + std::to_string(h) +
                              " sigma=" + std::to_string(sigma);
      const zi::ImageF32 ref = tap_loop_blur(img, sigma);
      EXPECT_TRUE(same_bytes(zc::gaussian_blur(img, sigma), ref)) << tag;
      // ROIs touching each border, an interior one and one overhanging two
      // borders; each must equal the matching crop of the reference.
      const std::vector<zi::Box> rois = {
          {0, h / 4, w / 3, h / 2},         {w / 4, 0, w / 2, h / 3},
          {w - w / 3, h / 5, w / 3, h / 2}, {w / 5, h - h / 3, w / 2, h / 3},
          {w / 4, h / 4, w / 2, h / 2},     {-5, h / 2, w / 2 + 5, h},
      };
      for (const zi::Box& roi : rois) {
        const zi::Box c = roi.clipped(w, h);
        EXPECT_TRUE(same_bytes(zc::gaussian_blur(img, sigma, roi), zi::crop(ref, c)))
            << tag << " roi " << roi.x << "," << roi.y << " " << roi.w << "x" << roi.h;
      }
    }
  }
}

TEST(MedianFilterLargeMasked, FullyExcludedWindowFallsBack) {
  zi::ImageF32 img = constant(32, 32, 0.6f);
  zi::Mask all(32, 32);
  all.fill(1);
  const zi::ImageF32 masked = zc::median_filter_large_masked(img, 5, all);
  for (float v : masked.pixels()) EXPECT_NEAR(v, 0.6f, 0.01f);
  EXPECT_THROW(zc::median_filter_large_masked(img, 5, zi::Mask(8, 8)),
               std::invalid_argument);
}

TEST(SobelMagnitude, ZeroOnFlatStrongOnEdge) {
  zi::ImageF32 img(16, 16, 1);
  for (std::int64_t y = 0; y < 16; ++y) {
    for (std::int64_t x = 0; x < 16; ++x) {
      img.at(x, y) = x < 8 ? 0.0f : 1.0f;
    }
  }
  const zi::ImageF32 g = zc::sobel_magnitude(img);
  EXPECT_NEAR(g.at(2, 8), 0.0f, 1e-6f);
  EXPECT_GT(g.at(7, 8), 1.0f);
  EXPECT_GT(g.at(8, 8), 1.0f);
}

TEST(LocalVariance, HighInTexturedRegion) {
  zi::ImageF32 img(32, 32, 1);
  zenesis::parallel::Rng rng(5);
  for (std::int64_t y = 0; y < 32; ++y) {
    for (std::int64_t x = 0; x < 32; ++x) {
      img.at(x, y) =
          x < 16 ? 0.5f : 0.5f + static_cast<float>(rng.normal(0.0, 0.2));
    }
  }
  const zi::ImageF32 v = zc::local_variance(img, 3);
  EXPECT_LT(v.at(4, 16), 1e-6f);
  EXPECT_GT(v.at(28, 16), 0.005f);
}

namespace {

/// Direct O(r²) reference for the large-window medians: collects each
/// window's bins (windows clamped to the image, pixels set in `exclude`
/// left out) and takes the lower median. Masked windows that keep no
/// pixel, or fewer than a quarter, take the unmasked median.
zi::ImageF32 reference_median(const zi::ImageF32& img, int r, const zi::Box& roi,
                              const zi::Mask* exclude) {
  const std::int64_t w = img.width(), h = img.height();
  zi::ImageF32 out(roi.w, roi.h, 1);
  std::vector<int> all, kept;
  for (std::int64_t y = roi.y; y < roi.bottom(); ++y) {
    for (std::int64_t x = roi.x; x < roi.right(); ++x) {
      all.clear();
      kept.clear();
      for (std::int64_t yy = std::max<std::int64_t>(y - r, 0);
           yy <= std::min(y + r, h - 1); ++yy) {
        for (std::int64_t xx = std::max<std::int64_t>(x - r, 0);
             xx <= std::min(x + r, w - 1); ++xx) {
          const float v = std::clamp(img.at(xx, yy), 0.0f, 1.0f);
          const int bin = std::clamp(static_cast<int>(v * 256), 0, 255);
          all.push_back(bin);
          if (exclude == nullptr || exclude->at(xx, yy) == 0) kept.push_back(bin);
        }
      }
      std::vector<int>& use =
          kept.empty() || kept.size() * 4 < all.size() ? all : kept;
      std::sort(use.begin(), use.end());
      const int bin = use[(use.size() + 1) / 2 - 1];
      out.at(x - roi.x, y - roi.y) = (static_cast<float>(bin) + 0.5f) / 256.0f;
    }
  }
  return out;
}

bool same_pixels(const zi::ImageF32& a, const zi::ImageF32& b) {
  return a.width() == b.width() && a.height() == b.height() &&
         std::memcmp(a.pixels().data(), b.pixels().data(),
                     a.pixels().size() * sizeof(float)) == 0;
}

/// The exclusion as a patch over `box` (the decoder passes box-local masks).
zi::Mask patch_of(const zi::Mask& full, const zi::Box& box) {
  zi::Mask patch(box.w, box.h);
  for (std::int64_t y = 0; y < box.h; ++y) {
    for (std::int64_t x = 0; x < box.w; ++x) {
      patch.at(x, y) = full.at(box.x + x, box.y + y);
    }
  }
  return patch;
}

}  // namespace

TEST(MedianPlane, SharedPlaneMediansMatchFiltersAndReference) {
  zenesis::parallel::Rng rng(41);
  for (int trial = 0; trial < 40; ++trial) {
    const std::int64_t w = 12 + static_cast<std::int64_t>(rng.uniform_index(40));
    const std::int64_t h = 12 + static_cast<std::int64_t>(rng.uniform_index(40));
    // Values past [0, 1] exercise the clamp; coarse levels give ties.
    zi::ImageF32 img(w, h, 1);
    for (float& v : img.pixels()) {
      v = rng.uniform() < 0.3 ? static_cast<float>(rng.uniform_index(5)) / 4.0f
                              : static_cast<float>(rng.uniform(-0.1, 1.1));
    }
    // The ROI often touches or overhangs the frame, so windows clip there.
    const std::int64_t rx = static_cast<std::int64_t>(rng.uniform_index(
                                static_cast<std::uint64_t>(w))) - 3;
    const std::int64_t ry = static_cast<std::int64_t>(rng.uniform_index(
                                static_cast<std::uint64_t>(h))) - 3;
    const zi::Box roi{rx, ry, 1 + static_cast<std::int64_t>(rng.uniform_index(30)),
                      1 + static_cast<std::int64_t>(rng.uniform_index(30))};
    const zi::Box c = roi.clipped(w, h);
    if (c.empty()) continue;
    // r_small < r_large, r_small == r_large and r_small > r_large, and
    // radii past the image size.
    const int r_large = 1 + static_cast<int>(rng.uniform_index(30));
    const int r_small = 1 + static_cast<int>(rng.uniform_index(30));
    const std::string tag = "trial " + std::to_string(trial) + " r " +
                            std::to_string(r_large) + "/" + std::to_string(r_small);

    const zc::MedianPlane plane(img, std::max(r_large, r_small), roi);
    zi::ImageF32 large, small;
    plane.medians(r_large, large, r_small, &small);
    EXPECT_TRUE(same_pixels(large, zc::median_filter_large(img, r_large, roi))) << tag;
    EXPECT_TRUE(same_pixels(small, zc::median_filter_large(img, r_small, roi))) << tag;
    EXPECT_TRUE(same_pixels(large, reference_median(img, r_large, c, nullptr))) << tag;
    EXPECT_TRUE(same_pixels(small, reference_median(img, r_small, c, nullptr))) << tag;

    // Refit by subtraction: random blobs of masked pixels, given as a
    // patch over a random box as the decoder does.
    zi::Mask exclude(w, h);
    const double density = rng.uniform(0.05, 0.95);
    const zi::Box mbox = zi::Box{static_cast<std::int64_t>(rng.uniform_index(
                                     static_cast<std::uint64_t>(w))),
                                 static_cast<std::int64_t>(rng.uniform_index(
                                     static_cast<std::uint64_t>(h))),
                                 w, h}
                             .clipped(w, h);
    for (std::int64_t y = mbox.y; y < mbox.bottom(); ++y) {
      for (std::int64_t x = mbox.x; x < mbox.right(); ++x) {
        exclude.at(x, y) = rng.uniform() < density ? 1 : 0;
      }
    }
    const zi::Mask patch = patch_of(exclude, mbox);
    const zi::ImageF32 refit = plane.masked(r_large, patch, {mbox.x, mbox.y}, large);
    EXPECT_TRUE(same_pixels(
        refit, zc::median_filter_large_masked(img, r_large, exclude, {0, 0}, roi)))
        << tag;
    EXPECT_TRUE(same_pixels(refit, reference_median(img, r_large, c, &exclude))) << tag;
  }
}

TEST(MedianPlane, MaskedWindowEdgeCases) {
  const zi::ImageF32 img = noisy(12, 12, 0.5f, 0.25f, 43);
  const zi::Box roi{0, 0, 12, 12};
  const int r = 3;
  const zc::MedianPlane plane(img, r, roi);
  zi::ImageF32 context;
  plane.medians(r, context, 0, nullptr);

  // Every window fully masked: each pixel keeps its unmasked median.
  zi::Mask all(12, 12);
  all.fill(1);
  EXPECT_TRUE(same_pixels(plane.masked(r, all, {0, 0}, context), context));

  // The corner window of (0, 0) is 4×4 = 16 pixels. Keeping exactly a
  // quarter (4) of them is enough for a masked median; keeping 3 falls
  // back to the unmasked one.
  for (const int keep : {4, 3}) {
    zi::Mask corner(12, 12);
    for (std::int64_t y = 0; y < 4; ++y) {
      for (std::int64_t x = 0; x < 4; ++x) corner.at(x, y) = y * 4 + x < keep ? 0 : 1;
    }
    const zi::ImageF32 refit = plane.masked(r, corner, {0, 0}, context);
    EXPECT_TRUE(same_pixels(refit, reference_median(img, r, roi, &corner))) << keep;
    EXPECT_TRUE(same_pixels(refit, zc::median_filter_large_masked(img, r, corner)))
        << keep;
    if (keep == 3) {
      EXPECT_EQ(refit.at(0, 0), context.at(0, 0));
    }
  }
  // The quarter rule keeps the masked median where it differs from the
  // unmasked one: four identical kept pixels pull it to their bin.
  zi::ImageF32 flat = constant(12, 12, 0.9f);
  for (std::int64_t y = 0; y < 4; ++y) {
    for (std::int64_t x = 0; x < 4; ++x) flat.at(x, y) = y * 4 + x < 4 ? 0.1f : 0.9f;
  }
  zi::Mask quarter(12, 12);
  for (std::int64_t y = 0; y < 4; ++y) {
    for (std::int64_t x = 0; x < 4; ++x) quarter.at(x, y) = y * 4 + x < 4 ? 0 : 1;
  }
  const zc::MedianPlane flat_plane(flat, r, roi);
  zi::ImageF32 flat_context;
  flat_plane.medians(r, flat_context, 0, nullptr);
  const zi::ImageF32 flat_refit = flat_plane.masked(r, quarter, {0, 0}, flat_context);
  EXPECT_NEAR(flat_refit.at(0, 0), 0.1f, 1.0f / 256);
  EXPECT_NEAR(flat_context.at(0, 0), 0.9f, 1.0f / 256);

  // Radii outside (0, reach] and a context of the wrong size are errors.
  zi::ImageF32 out;
  EXPECT_THROW(plane.medians(r + 1, out, 0, nullptr), std::invalid_argument);
  EXPECT_THROW(plane.medians(r, out, 0, &out), std::invalid_argument);
  EXPECT_THROW(plane.masked(r, all, {0, 0}, zi::ImageF32(3, 3, 1)),
               std::invalid_argument);
}

TEST(MedianPlane, WindowsOverSixteenBitCounts) {
  // A 261×260 window holds more than 65535 pixels, so the kernel
  // histogram needs 32-bit counts.
  const zi::ImageF32 img = noisy(300, 260, 0.5f, 0.3f, 47);
  const zi::Box roi{140, 120, 5, 4};
  const int r = 130;
  const zc::MedianPlane plane(img, r, roi);
  zi::ImageF32 context;
  plane.medians(r, context, 0, nullptr);
  EXPECT_TRUE(same_pixels(context, reference_median(img, r, roi, nullptr)));
  zi::Mask exclude(300, 260);
  for (std::int64_t y = 0; y < 260; ++y) {
    for (std::int64_t x = 0; x < 300; ++x) exclude.at(x, y) = (x * 7 + y * 3) % 5 == 0;
  }
  EXPECT_TRUE(same_pixels(plane.masked(r, exclude, {0, 0}, context),
                          reference_median(img, r, roi, &exclude)));
}
