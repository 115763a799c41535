// Otsu and thresholding tests.
#include <gtest/gtest.h>

#include <cmath>

#include "zenesis/cv/threshold.hpp"
#include "zenesis/parallel/rng.hpp"

namespace zc = zenesis::cv;
namespace zi = zenesis::image;

namespace {

/// Bimodal image: left half around `lo`, right half around `hi`.
zi::ImageF32 bimodal(std::int64_t w, std::int64_t h, float lo, float hi,
                     float noise, std::uint64_t seed) {
  zenesis::parallel::Rng rng(seed);
  zi::ImageF32 img(w, h, 1);
  for (std::int64_t y = 0; y < h; ++y) {
    for (std::int64_t x = 0; x < w; ++x) {
      const float base = x < w / 2 ? lo : hi;
      img.at(x, y) = base + static_cast<float>(rng.normal(0.0, noise));
    }
  }
  return img;
}

}  // namespace

TEST(OtsuBin, SeparatesTwoSpikes) {
  std::vector<std::int64_t> hist(256, 0);
  hist[40] = 1000;
  hist[200] = 1000;
  const int cut = zc::otsu_bin(hist);
  EXPECT_GE(cut, 40);
  EXPECT_LT(cut, 200);
}

TEST(OtsuBin, EmptyHistogramIsZero) {
  std::vector<std::int64_t> hist(256, 0);
  EXPECT_EQ(zc::otsu_bin(hist), 0);
}

TEST(OtsuBin, TooFewBinsThrows) {
  EXPECT_THROW(zc::otsu_bin({5}), std::invalid_argument);
}

TEST(OtsuThreshold, SplitsBimodalImage) {
  const zi::ImageF32 img = bimodal(64, 64, 0.2f, 0.8f, 0.03f, 1);
  const zc::ThresholdResult r = zc::otsu_threshold(img);
  EXPECT_GT(r.threshold, 0.3f);
  EXPECT_LT(r.threshold, 0.7f);
  // Right half must be foreground.
  std::int64_t correct = 0;
  for (std::int64_t y = 0; y < 64; ++y) {
    for (std::int64_t x = 0; x < 64; ++x) {
      const bool fg = r.mask.at(x, y) != 0;
      correct += fg == (x >= 32);
    }
  }
  EXPECT_GT(static_cast<double>(correct) / (64 * 64), 0.99);
}

TEST(OtsuThreshold, DominatedByLargestContrast) {
  // Three phases: black 40%, gray 48%, bright 12%. Otsu's single cut must
  // fall between black and the rest — the paper's crystalline failure.
  zenesis::parallel::Rng rng(2);
  zi::ImageF32 img(100, 100, 1);
  for (std::int64_t y = 0; y < 100; ++y) {
    for (std::int64_t x = 0; x < 100; ++x) {
      float base = 0.05f;           // holder
      if (y < 60) base = 0.45f;     // membrane
      if (y < 60 && x < 12) base = 0.85f;  // needles (12% of membrane rows)
      img.at(x, y) = base + static_cast<float>(rng.normal(0.0, 0.02));
    }
  }
  const zc::ThresholdResult r = zc::otsu_threshold(img);
  EXPECT_LT(r.threshold, 0.45f);  // cut below the membrane level
  // So the "foreground" is membrane+needles, vastly over-segmenting.
  std::int64_t fg = 0;
  for (auto v : r.mask.pixels()) fg += v != 0;
  EXPECT_GT(fg, 50 * 100);
}


TEST(OtsuThreshold, MaskIsStrictlyAboveCut) {
  // Spikes in bins 40 and 200 put Otsu's cut at bin 40, so the threshold
  // is 40.5/256. A pixel exactly at the threshold stays background; the
  // next float above it is foreground. Neither leaves bin 40.
  const float cut = 40.5f / 256.0f;
  zi::ImageF32 img(16, 16, 1);
  for (std::int64_t y = 0; y < 16; ++y) {
    for (std::int64_t x = 0; x < 16; ++x) {
      img.at(x, y) = x < 8 ? 40.25f / 256.0f : 200.5f / 256.0f;
    }
  }
  img.at(0, 0) = cut;
  img.at(1, 0) = std::nextafter(cut, 1.0f);
  const zc::ThresholdResult r = zc::otsu_threshold(img);
  ASSERT_EQ(r.threshold, cut);
  EXPECT_EQ(r.mask.at(0, 0), 0);
  EXPECT_EQ(r.mask.at(1, 0), 1);
  EXPECT_EQ(r.mask.at(2, 0), 0);
  EXPECT_EQ(r.mask.at(15, 15), 1);
}
