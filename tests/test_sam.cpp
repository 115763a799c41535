// SamModel tests: box prompts, point prompts, confidence scoring.
#include <gtest/gtest.h>

#include "zenesis/image/roi.hpp"
#include "zenesis/models/sam.hpp"
#include "zenesis/parallel/rng.hpp"

namespace zm = zenesis::models;
namespace zi = zenesis::image;

namespace {

/// Bright disk on dark background, mild noise.
struct Scene {
  zi::ImageF32 img;
  zi::Mask gt;
};

Scene disk_scene() {
  Scene s{zi::ImageF32(128, 128, 1), zi::Mask(128, 128)};
  zenesis::parallel::Rng rng(21);
  for (std::int64_t y = 0; y < 128; ++y) {
    for (std::int64_t x = 0; x < 128; ++x) {
      const double d2 = (x - 64.0) * (x - 64.0) + (y - 60.0) * (y - 60.0);
      const bool inside = d2 < 28.0 * 28.0;
      s.img.at(x, y) = (inside ? 0.75f : 0.25f) +
                       static_cast<float>(rng.normal(0.0, 0.02));
      s.gt.at(x, y) = inside ? 1 : 0;
    }
  }
  return s;
}

}  // namespace

TEST(SamBox, SegmentsObjectInsideBox) {
  const Scene s = disk_scene();
  zm::SamModel sam;
  const auto enc = sam.encode(s.img);
  const auto pred = sam.predict_box(enc, {30, 26, 70, 70});
  EXPECT_GT(zi::mask_iou(pred.mask, s.gt), 0.85);
}

TEST(SamBox, DarkObjectPolarity) {
  // Invert the scene: dark disk on bright background.
  Scene s = disk_scene();
  for (float& v : s.img.pixels()) v = 1.0f - v;
  zm::SamModel sam;
  const auto enc = sam.encode(s.img);
  const auto pred = sam.predict_box(enc, {30, 26, 70, 70});
  EXPECT_GT(zi::mask_iou(pred.mask, s.gt), 0.8);
}

TEST(SamBox, MaskConfinedToBox) {
  const Scene s = disk_scene();
  zm::SamModel sam;
  const auto enc = sam.encode(s.img);
  const zi::Box box{30, 26, 70, 70};
  const auto pred = sam.predict_box(enc, box);
  const zi::Box bounds = zi::mask_bounds(pred.mask);
  EXPECT_TRUE(bounds.empty() || !box.intersect(bounds).empty());
  EXPECT_GE(bounds.x, box.x - 2);
  EXPECT_LE(bounds.right(), box.right() + 2);
}

TEST(SamBox, EmptyBoxGivesEmptyMask) {
  const Scene s = disk_scene();
  zm::SamModel sam;
  const auto enc = sam.encode(s.img);
  const auto pred = sam.predict_box(enc, {});
  EXPECT_EQ(zi::mask_area(pred.mask), 0);
  EXPECT_EQ(pred.confidence, 0.0);
}

TEST(SamBox, OutOfBoundsBoxClipped) {
  const Scene s = disk_scene();
  zm::SamModel sam;
  const auto enc = sam.encode(s.img);
  const auto pred = sam.predict_box(enc, {-50, -50, 400, 400});
  EXPECT_GT(zi::mask_iou(pred.mask, s.gt), 0.6);
}

TEST(SamPoint, GrowsHomogeneousRegion) {
  const Scene s = disk_scene();
  zm::SamModel sam;
  const auto enc = sam.encode(s.img);
  const auto pred = sam.predict_point(enc, {64, 60});  // inside the disk
  EXPECT_GT(zi::mask_iou(pred.mask, s.gt), 0.7);
}

TEST(SamPoint, BackgroundSeedSelectsBackground) {
  const Scene s = disk_scene();
  zm::SamModel sam;
  const auto enc = sam.encode(s.img);
  const auto pred = sam.predict_point(enc, {5, 5});
  const zi::Mask bg = zi::mask_not(s.gt);
  EXPECT_GT(zi::mask_iou(pred.mask, bg), 0.7);
}

TEST(SamPoint, OutOfImagePointIsEmpty) {
  const Scene s = disk_scene();
  zm::SamModel sam;
  const auto enc = sam.encode(s.img);
  EXPECT_EQ(zi::mask_area(sam.predict_point(enc, {-3, 4}).mask), 0);
  EXPECT_EQ(zi::mask_area(sam.predict_point(enc, {500, 4}).mask), 0);
}

TEST(SamConfidence, LargeStableRegionBeatsSmallNoisyOne) {
  // The max-confidence rule that drives the SAM-only failure: the large
  // homogeneous background must outrank a small noisy patch.
  zi::ImageF32 img(128, 128, 1);
  zenesis::parallel::Rng rng(31);
  for (std::int64_t y = 0; y < 128; ++y) {
    for (std::int64_t x = 0; x < 128; ++x) {
      const bool speck = x >= 60 && x < 70 && y >= 60 && y < 70;
      img.at(x, y) = speck ? 0.6f + static_cast<float>(rng.normal(0.0, 0.15))
                           : 0.08f + static_cast<float>(rng.normal(0.0, 0.01));
    }
  }
  zm::SamModel sam;
  const auto enc = sam.encode(img);
  const auto big = sam.predict_point(enc, {10, 10});
  const auto small = sam.predict_point(enc, {64, 64});
  EXPECT_GT(big.confidence, small.confidence);
}

TEST(SamPrediction, ScoresWithinRanges) {
  const Scene s = disk_scene();
  zm::SamModel sam;
  const auto enc = sam.encode(s.img);
  const auto pred = sam.predict_box(enc, {30, 26, 70, 70});
  EXPECT_GE(pred.stability, 0.0);
  EXPECT_LE(pred.stability, 1.0);
  EXPECT_GE(pred.homogeneity, 0.0);
  EXPECT_LE(pred.homogeneity, 1.0);
  EXPECT_GE(pred.area_fraction, 0.0);
  EXPECT_LE(pred.area_fraction, 1.0);
  EXPECT_GE(pred.confidence, 0.0);
}

TEST(Sam, EncodeOncePromptMany) {
  const Scene s = disk_scene();
  zm::SamModel sam;
  const auto enc = sam.encode(s.img);
  const auto p1 = sam.predict_box(enc, {30, 26, 70, 70});
  const auto p2 = sam.predict_box(enc, {30, 26, 70, 70});
  EXPECT_DOUBLE_EQ(zi::mask_iou(p1.mask, p2.mask), 1.0);
}

TEST(SamBox, BoundaryAdherenceMatchesDirectGradientScan) {
  // The mean edge strength over the mask's 3×3 morphological gradient
  // (outside the frame is background), summed in raster order over the
  // decode ROI, for ragged masks that also touch the frame border.
  const Scene s = disk_scene();
  zm::SamModel sam;
  const auto enc = sam.encode(s.img);
  const auto& edge = enc.maps.channels[zm::kEdge];
  zenesis::parallel::Rng rng(57);
  for (const zi::Box box : {zi::Box{30, 26, 70, 70}, zi::Box{0, 0, 40, 50},
                            zi::Box{90, 80, 38, 48}, zi::Box{-5, 60, 60, 80}}) {
    // The decode ROI: the clipped box grown by 2·morph_radius + 1.
    const zi::Box roi = box.clipped(128, 128)
                            .expanded(2 * sam.config().morph_radius + 1)
                            .clipped(128, 128);
    zi::Mask mask(128, 128);
    for (std::int64_t y = roi.y; y < roi.bottom(); ++y) {
      for (std::int64_t x = roi.x; x < roi.right(); ++x) {
        mask.at(x, y) = rng.uniform() < 0.6 ? 1 : 0;
      }
    }
    double sum = 0.0;
    std::int64_t count = 0;
    for (std::int64_t y = roi.y; y < roi.bottom(); ++y) {
      for (std::int64_t x = roi.x; x < roi.right(); ++x) {
        bool any = false, all = true;
        for (std::int64_t dy = -1; dy <= 1; ++dy) {
          for (std::int64_t dx = -1; dx <= 1; ++dx) {
            const bool fg =
                mask.contains(x + dx, y + dy) && mask.at(x + dx, y + dy) != 0;
            any = any || fg;
            all = all && fg;
          }
        }
        if (!any || all) continue;
        sum += edge.at(x, y);
        ++count;
      }
    }
    const double want = count > 0 ? sum / static_cast<double>(count) : 0.0;
    EXPECT_EQ(sam.boundary_adherence(enc, mask, box), want)
        << box.x << "," << box.y << " " << box.w << "x" << box.h;
  }
}
