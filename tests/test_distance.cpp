// Nearest-foreground tests.
#include <gtest/gtest.h>

#include "zenesis/cv/distance.hpp"

namespace zc = zenesis::cv;
namespace zi = zenesis::image;

TEST(NearestForeground, FindsClosestPixel) {
  zi::Mask m(10, 10);
  m.at(1, 1) = 1;
  m.at(8, 8) = 1;
  zi::Point out;
  ASSERT_TRUE(zc::nearest_foreground(m, {2, 2}, &out));
  EXPECT_EQ(out, (zi::Point{1, 1}));
  ASSERT_TRUE(zc::nearest_foreground(m, {7, 9}, &out));
  EXPECT_EQ(out, (zi::Point{8, 8}));
}

TEST(NearestForeground, EmptyMaskReturnsFalse) {
  zi::Point out;
  EXPECT_FALSE(zc::nearest_foreground(zi::Mask(4, 4), {0, 0}, &out));
}

TEST(NearestForeground, OnForegroundReturnsSelf) {
  zi::Mask m(4, 4);
  m.at(3, 0) = 1;
  zi::Point out;
  ASSERT_TRUE(zc::nearest_foreground(m, {3, 0}, &out));
  EXPECT_EQ(out, (zi::Point{3, 0}));
}
