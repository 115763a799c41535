// Connected-component labeling and region statistics tests.
#include <gtest/gtest.h>

#include "zenesis/cv/bitmask.hpp"
#include "zenesis/cv/components.hpp"
#include "zenesis/image/roi.hpp"

namespace zc = zenesis::cv;
namespace zi = zenesis::image;

namespace {

zi::Mask from_rows(const std::vector<std::string>& rows) {
  zi::Mask m(static_cast<std::int64_t>(rows[0].size()),
             static_cast<std::int64_t>(rows.size()));
  for (std::size_t y = 0; y < rows.size(); ++y) {
    for (std::size_t x = 0; x < rows[y].size(); ++x) {
      m.at(static_cast<std::int64_t>(x), static_cast<std::int64_t>(y)) =
          rows[y][x] == '#' ? 1 : 0;
    }
  }
  return m;
}

}  // namespace

TEST(Label, CountsDistinctRegions) {
  const zi::Mask m = from_rows({
      "##..#",
      "##..#",
      ".....",
      "#..##",
  });
  const zc::Labeling lab = zc::label_components(m);
  EXPECT_EQ(lab.count, 4);
}

TEST(Label, DiagonalMergesOnlyWith8Connectivity) {
  const zi::Mask m = from_rows({
      "#.",
      ".#",
  });
  EXPECT_EQ(zc::label_components(m, true).count, 1);
  EXPECT_EQ(zc::label_components(m, false).count, 2);
}

TEST(Label, EmptyMaskHasNoComponents) {
  const zc::Labeling lab = zc::label_components(zi::Mask(4, 4));
  EXPECT_EQ(lab.count, 0);
}

TEST(Label, UShapeMergesAcrossScanlines) {
  // Classic union-find stress: two arms join at the bottom.
  const zi::Mask m = from_rows({
      "#.#",
      "#.#",
      "###",
  });
  EXPECT_EQ(zc::label_components(m).count, 1);
}

TEST(ComponentStats, AreaCentroidBounds) {
  const zi::Mask m = from_rows({
      "....",
      ".##.",
      ".##.",
      "....",
  });
  const zc::Labeling lab = zc::label_components(m);
  ASSERT_EQ(lab.count, 1);
  const auto stats = zc::component_stats(lab);
  ASSERT_EQ(stats.size(), 1u);
  EXPECT_EQ(stats[0].area, 4);
  EXPECT_DOUBLE_EQ(stats[0].centroid_x, 1.5);
  EXPECT_DOUBLE_EQ(stats[0].centroid_y, 1.5);
  EXPECT_EQ(stats[0].bounds, (zi::Box{1, 1, 2, 2}));
}

TEST(LargestComponent, ExtractsByLabelNotByBox) {
  // The isolated centre pixel lies inside the ring's bounding box but is
  // a component of its own, so it must not appear in the result.
  const zi::Mask m = from_rows({
      "#####",
      "#...#",
      "#.#.#",
      "#...#",
      "#####",
  });
  const zi::Mask ring = zc::largest_component(m);
  EXPECT_EQ(zi::mask_area(ring), 16);
  EXPECT_EQ(ring.at(0, 0), 1);
  EXPECT_EQ(ring.at(2, 2), 0);
}

TEST(LargestComponent, PicksByArea) {
  const zi::Mask m = from_rows({
      "##.#",
      "##..",
  });
  const zi::Mask big = zc::largest_component(m);
  EXPECT_EQ(zi::mask_area(big), 4);
  EXPECT_EQ(big.at(3, 0), 0);
}

TEST(LargestComponent, EmptyInputEmptyOutput) {
  EXPECT_EQ(zi::mask_area(zc::largest_component(zi::Mask(3, 3))), 0);
}

TEST(RemoveSmall, DropsBelowThreshold) {
  const zi::Mask m = from_rows({
      "##.#",
      "##..",
  });
  zc::BitMask bits(m);
  zc::BitScratch scratch;
  zc::remove_small_components(bits, 2, scratch);
  const zi::Mask cleaned = bits.unpack();
  EXPECT_EQ(zi::mask_area(cleaned), 4);
  EXPECT_EQ(cleaned.at(3, 0), 0);
}

TEST(FillHoles, ClosesEnclosedBackground) {
  const zi::Mask m = from_rows({
      "#####",
      "#...#",
      "#.#.#",
      "#...#",
      "#####",
  });
  zc::BitMask bits(m);
  zc::BitScratch scratch;
  zc::fill_holes(bits, scratch);
  const zi::Mask filled = bits.unpack();
  EXPECT_EQ(zi::mask_area(filled), 25);
}

TEST(FillHoles, KeepsBorderConnectedBackground) {
  const zi::Mask m = from_rows({
      "###",
      "#..",   // background reaches the border → not a hole
      "###",
  });
  zc::BitMask bits(m);
  zc::BitScratch scratch;
  zc::fill_holes(bits, scratch);
  const zi::Mask filled = bits.unpack();
  EXPECT_EQ(filled.at(1, 1), 0);
  EXPECT_EQ(filled.at(2, 1), 0);
}
