// Exactness of the word-packed mask operations: every packed routine is
// compared byte for byte (memcmp of the unpacked result) with a byte
// oracle kept here — per-pixel disk/square morphology, the border flood
// fill and the labeling-based speckle filter that the packed code
// replaced — over every width from 1 to 300 and the mask shapes where
// word code goes wrong: word edges, raster borders, lone pixels,
// alternating bits and nested rings.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <random>
#include <stdexcept>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "zenesis/cv/bitmask.hpp"
#include "zenesis/cv/components.hpp"
#include "zenesis/cv/morphology.hpp"
#include "zenesis/image/roi.hpp"

namespace zc = zenesis::cv;
namespace zi = zenesis::image;

namespace {

// --- byte oracles -----------------------------------------------------------

bool fg(const zi::Mask& m, std::int64_t x, std::int64_t y) {
  return m.contains(x, y) && m.pixels()[static_cast<std::size_t>(y * m.width() + x)] != 0;
}

/// Per-pixel morphology: OR (dilate) or AND (erode) over every offset of
/// the element; outside the raster is background.
zi::Mask oracle_morph(const zi::Mask& m, int r, zc::Element el, bool dilate) {
  if (r == 0) return m;
  zi::Mask out(m.width(), m.height());
  for (std::int64_t y = 0; y < m.height(); ++y) {
    for (std::int64_t x = 0; x < m.width(); ++x) {
      bool acc = !dilate;
      for (int dy = -r; dy <= r; ++dy) {
        for (int dx = -r; dx <= r; ++dx) {
          if (el == zc::Element::kDisk && dx * dx + dy * dy > r * r) continue;
          const bool v = fg(m, x + dx, y + dy);
          acc = dilate ? (acc || v) : (acc && v);
        }
      }
      out.at(x, y) = acc ? 1 : 0;
    }
  }
  return out;
}

/// Background (4-connected) not reachable from the border becomes
/// foreground: a pixel-at-a-time flood from every border pixel.
zi::Mask oracle_fill_holes(const zi::Mask& mask) {
  const std::int64_t w = mask.width(), h = mask.height();
  if (w == 0 || h == 0) return mask;
  std::vector<std::uint8_t> reached(static_cast<std::size_t>(w * h), 0);
  std::vector<std::int64_t> stack;
  const auto seed = [&](std::int64_t x, std::int64_t y) {
    const std::int64_t i = y * w + x;
    if (mask.at(x, y) != 0 || reached[static_cast<std::size_t>(i)] != 0) return;
    reached[static_cast<std::size_t>(i)] = 1;
    stack.push_back(i);
  };
  for (std::int64_t x = 0; x < w; ++x) {
    seed(x, 0);
    seed(x, h - 1);
  }
  for (std::int64_t y = 0; y < h; ++y) {
    seed(0, y);
    seed(w - 1, y);
  }
  while (!stack.empty()) {
    const std::int64_t i = stack.back();
    stack.pop_back();
    const std::int64_t x = i % w, y = i / w;
    if (x > 0) seed(x - 1, y);
    if (x + 1 < w) seed(x + 1, y);
    if (y > 0) seed(x, y - 1);
    if (y + 1 < h) seed(x, y + 1);
  }
  zi::Mask out = mask;
  for (std::int64_t y = 0; y < h; ++y) {
    for (std::int64_t x = 0; x < w; ++x) {
      if (mask.at(x, y) == 0 && reached[static_cast<std::size_t>(y * w + x)] == 0) {
        out.at(x, y) = 1;
      }
    }
  }
  return out;
}

/// Keeps the 8-connected components of at least `min_area` pixels, from
/// a full label image.
zi::Mask oracle_remove_small(const zi::Mask& mask, std::int64_t min_area) {
  const zc::Labeling lab = zc::label_components(mask);
  std::vector<std::int64_t> area(static_cast<std::size_t>(lab.count) + 1, 0);
  for (const std::int32_t l : lab.labels.pixels()) ++area[static_cast<std::size_t>(l)];
  zi::Mask out(mask.width(), mask.height());
  for (std::int64_t y = 0; y < mask.height(); ++y) {
    for (std::int64_t x = 0; x < mask.width(); ++x) {
      const std::int32_t l = lab.labels.at(x, y);
      if (l != 0 && area[static_cast<std::size_t>(l)] >= min_area) out.at(x, y) = 1;
    }
  }
  return out;
}

// --- masks ------------------------------------------------------------------

enum class Kind { kRandom, kBorder, kSingle, kChecker, kRings };
constexpr Kind kKinds[] = {Kind::kRandom, Kind::kBorder, Kind::kSingle, Kind::kChecker,
                           Kind::kRings};

const char* kind_name(Kind k) {
  switch (k) {
    case Kind::kRandom: return "random";
    case Kind::kBorder: return "border";
    case Kind::kSingle: return "single";
    case Kind::kChecker: return "checker";
    case Kind::kRings: return "rings";
  }
  return "?";
}

/// Raw engine output only (no std distributions), so the masks are the
/// same on every standard library.
zi::Mask make_mask(Kind kind, std::int64_t w, std::int64_t h, std::mt19937& rng) {
  zi::Mask m(w, h);
  const auto set = [&](std::int64_t x, std::int64_t y) { m.at(x, y) = 1; };
  switch (kind) {
    case Kind::kRandom: {
      const std::uint32_t density = 10 + rng() % 81;  // percent
      for (std::int64_t y = 0; y < h; ++y) {
        for (std::int64_t x = 0; x < w; ++x) {
          if (rng() % 100 < density) set(x, y);
        }
      }
      break;
    }
    case Kind::kBorder: {
      // The raster frame with random notches and a sparse interior:
      // enclosed holes, border-reaching background and gaps at the edges.
      for (std::int64_t y = 0; y < h; ++y) {
        for (std::int64_t x = 0; x < w; ++x) {
          const bool edge = x == 0 || y == 0 || x == w - 1 || y == h - 1;
          if (edge ? rng() % 8 != 0 : rng() % 3 == 0) set(x, y);
        }
      }
      break;
    }
    case Kind::kSingle:
      set(static_cast<std::int64_t>(rng() % static_cast<std::uint32_t>(w)),
          static_cast<std::int64_t>(rng() % static_cast<std::uint32_t>(h)));
      break;
    case Kind::kChecker:
      for (std::int64_t y = 0; y < h; ++y) {
        for (std::int64_t x = 0; x < w; ++x) {
          if ((x + y) % 2 == 0) set(x, y);
        }
      }
      break;
    case Kind::kRings: {
      // Concentric square rings, alternating two pixels on, two off.
      const std::int64_t cx = w / 2, cy = h / 2;
      for (std::int64_t y = 0; y < h; ++y) {
        for (std::int64_t x = 0; x < w; ++x) {
          const std::int64_t d = std::max(std::abs(x - cx), std::abs(y - cy));
          if (d % 4 < 2) set(x, y);
        }
      }
      break;
    }
  }
  return m;
}

/// Widths at and around word edges get every mask kind and several
/// heights; the rest rotate through the kinds.
bool word_edge(std::int64_t w) {
  for (const std::int64_t e :
       {1, 63, 64, 65, 127, 128, 129, 191, 192, 193, 255, 256, 257}) {
    if (w == e) return true;
  }
  return false;
}

struct Case {
  zi::Mask mask;
  std::string name;
};

/// For every width 1..300: a random mask and one rotating kind at a
/// width-dependent height (1..19); at word edges every kind at heights
/// 1, 2, 5 and 33.
std::vector<Case> sweep_cases() {
  std::mt19937 rng(20261017);
  std::vector<Case> cases;
  for (std::int64_t w = 1; w <= 300; ++w) {
    std::vector<std::pair<Kind, std::int64_t>> picks;
    if (word_edge(w)) {
      for (const Kind k : kKinds) {
        for (const std::int64_t h : {1, 2, 5, 33}) picks.push_back({k, h});
      }
    } else {
      const std::int64_t h = 1 + (w * 7) % 19;
      picks.push_back({Kind::kRandom, h});
      picks.push_back({kKinds[1 + w % 4], h});
    }
    for (const auto& [kind, h] : picks) {
      cases.push_back({make_mask(kind, w, h, rng), std::string(kind_name(kind)) + " " +
                                                       std::to_string(w) + "x" +
                                                       std::to_string(h)});
    }
  }
  return cases;
}

bool same_bytes(const zi::Mask& got, const zi::Mask& want) {
  return got.width() == want.width() && got.height() == want.height() &&
         std::memcmp(got.pixels().data(), want.pixels().data(),
                     want.pixels().size()) == 0;
}

const char* element_name(zc::Element el) {
  return el == zc::Element::kDisk ? "disk" : "square";
}

}  // namespace

TEST(BitMask, PackUnpackRoundTripsAnyNonZeroByte) {
  std::mt19937 rng(7);
  for (std::int64_t w = 1; w <= 300; ++w) {
    const std::int64_t h = 1 + w % 5;
    zi::Mask m(w, h);
    for (auto& v : m.pixels()) {
      v = rng() % 3 == 0 ? static_cast<std::uint8_t>(rng() % 256) : 0;
    }
    zi::Mask want(w, h);
    for (std::size_t i = 0; i < want.pixels().size(); ++i) {
      want.pixels()[i] = m.pixels()[i] != 0 ? 1 : 0;
    }
    const zc::BitMask bits(m);
    ASSERT_TRUE(same_bytes(bits.unpack(), want)) << "width " << w;
    EXPECT_EQ(bits.count(), zi::mask_area(m)) << "width " << w;
    EXPECT_EQ(bits.words_per_row(), (w + 63) / 64);
  }
}

TEST(BitMask, PackAtOffsetMatchesPasteMask) {
  // Placement, including patches hanging off every side of the raster.
  std::mt19937 rng(11);
  for (const std::int64_t w : {1, 5, 63, 64, 65, 130, 262}) {
    for (int trial = 0; trial < 12; ++trial) {
      const std::int64_t h = 1 + rng() % 20;
      const zi::Mask patch =
          make_mask(Kind::kRandom, 1 + rng() % (w + 10), 1 + rng() % 24, rng);
      const zi::Point at{static_cast<std::int64_t>(rng() % (w + 20)) - 10,
                         static_cast<std::int64_t>(rng() % (h + 20)) - 10};
      zi::Mask want(w, h);
      zi::paste_mask(want, patch, {at.x, at.y, patch.width(), patch.height()});
      zc::BitMask bits;
      bits.pack(patch, w, h, at);
      ASSERT_TRUE(same_bytes(bits.unpack(), want))
          << w << "x" << h << " at (" << at.x << ", " << at.y << ")";
    }
  }
}

TEST(BitMask, IouAndCountMatchByteMasks) {
  std::mt19937 rng(3);
  for (std::int64_t w = 1; w <= 300; w += 7) {
    const zi::Mask a = make_mask(Kind::kRandom, w, 9, rng);
    const zi::Mask b = make_mask(Kind::kRandom, w, 9, rng);
    EXPECT_EQ(zc::mask_iou(zc::BitMask(a), zc::BitMask(b)), zi::mask_iou(a, b)) << w;
    EXPECT_EQ(zc::BitMask(a).count(), zi::mask_area(a)) << w;
  }
  const zi::Mask empty(70, 3);
  EXPECT_EQ(zc::mask_iou(zc::BitMask(empty), zc::BitMask(empty)), 1.0);
  EXPECT_THROW(zc::mask_iou(zc::BitMask(zi::Mask(4, 4)), zc::BitMask(zi::Mask(5, 4))),
               std::invalid_argument);
}

TEST(BitMaskExact, MorphologyMatchesPerPixelOracle) {
  zc::BitScratch scratch;
  for (const Case& c : sweep_cases()) {
    for (const zc::Element el : {zc::Element::kDisk, zc::Element::kSquare}) {
      for (int r = 0; r <= 3; ++r) {
        const std::string tag =
            c.name + " " + element_name(el) + " r" + std::to_string(r);
        const zi::Mask dil = oracle_morph(c.mask, r, el, true);
        const zi::Mask ero = oracle_morph(c.mask, r, el, false);
        const zi::Mask clo = oracle_morph(dil, r, el, false);
        zc::BitMask bits(c.mask);
        zc::dilate(bits, r, el, scratch);
        ASSERT_TRUE(same_bytes(bits.unpack(), dil)) << "dilate " << tag;
        bits = zc::BitMask(c.mask);
        zc::erode(bits, r, el, scratch);
        ASSERT_TRUE(same_bytes(bits.unpack(), ero)) << "erode " << tag;
        bits = zc::BitMask(c.mask);
        zc::close(bits, r, el, scratch);
        ASSERT_TRUE(same_bytes(bits.unpack(), clo)) << "close " << tag;
      }
    }
  }
}

TEST(BitMaskExact, ByteWrappersMatchOracle) {
  // The byte API packs, runs the same word code and unpacks; radii past
  // one word (65) take the whole-word shift path.
  std::mt19937 rng(5);
  for (const auto& [w, h, r] : {std::tuple<std::int64_t, std::int64_t, int>{37, 11, 4},
                                {130, 6, 5}, {150, 2, 65}, {9, 9, 1}}) {
    const zi::Mask m = make_mask(Kind::kRandom, w, h, rng);
    for (const zc::Element el : {zc::Element::kDisk, zc::Element::kSquare}) {
      const std::string tag = std::to_string(w) + "x" + std::to_string(h) + " " +
                              element_name(el) + " r" + std::to_string(r);
      const zi::Mask dil = oracle_morph(m, r, el, true);
      const zi::Mask ero = oracle_morph(m, r, el, false);
      EXPECT_TRUE(same_bytes(zc::dilate(m, r, el), dil)) << "dilate " << tag;
      EXPECT_TRUE(same_bytes(zc::erode(m, r, el), ero)) << "erode " << tag;
      EXPECT_TRUE(same_bytes(zc::close(m, r, el), oracle_morph(dil, r, el, false)))
          << "close " << tag;
      EXPECT_TRUE(same_bytes(zc::open(m, r, el), oracle_morph(ero, r, el, true)))
          << "open " << tag;
    }
    const zi::Mask d1 = oracle_morph(m, 1, zc::Element::kSquare, true);
    const zi::Mask e1 = oracle_morph(m, 1, zc::Element::kSquare, false);
    zi::Mask grad(w, h);
    for (std::size_t i = 0; i < grad.pixels().size(); ++i) {
      grad.pixels()[i] = d1.pixels()[i] != 0 && e1.pixels()[i] == 0 ? 1 : 0;
    }
    EXPECT_TRUE(same_bytes(zc::boundary_gradient(m), grad)) << "gradient " << w;
  }
}

TEST(BitMaskExact, FillHolesMatchesBorderFlood) {
  zc::BitScratch scratch;
  for (const Case& c : sweep_cases()) {
    zc::BitMask bits(c.mask);
    zc::fill_holes(bits, scratch);
    ASSERT_TRUE(same_bytes(bits.unpack(), oracle_fill_holes(c.mask))) << c.name;
  }
}

TEST(BitMaskExact, RemoveSmallMatchesLabeling) {
  zc::BitScratch scratch;
  for (const Case& c : sweep_cases()) {
    for (const std::int64_t min_area : {0, 1, 16}) {
      zc::BitMask bits(c.mask);
      zc::remove_small_components(bits, min_area, scratch);
      ASSERT_TRUE(same_bytes(bits.unpack(), oracle_remove_small(c.mask, min_area)))
          << c.name << " min_area " << min_area;
    }
  }
}

TEST(BitMaskExact, CandidateCleanupMatchesByteChain) {
  // The decoder's cleanup: a box-local mask placed at a non-zero offset
  // in its decode ROI (box + 2r + 1, clipped at frame borders, so some
  // offsets are 0 on one side), closed with the disk, holes filled,
  // speckles removed — against paste_mask + the byte oracles, plus the
  // IoU and area the scores read.
  std::mt19937 rng(17);
  zc::BitScratch scratch;
  for (int trial = 0; trial < 400; ++trial) {
    const int r = static_cast<int>(rng() % 4);
    const std::int64_t bw = 1 + rng() % 140, bh = 1 + rng() % 60;
    const std::int64_t margin = 2 * r + 1;
    const std::int64_t left = rng() % 4 == 0 ? 0 : margin;
    const std::int64_t top = rng() % 4 == 0 ? 0 : margin;
    const std::int64_t roi_w = left + bw + (rng() % 4 == 0 ? 0 : margin);
    const std::int64_t roi_h = top + bh + (rng() % 4 == 0 ? 0 : margin);
    const Kind kind = trial % 3 == 0 ? kKinds[trial / 3 % 5] : Kind::kRandom;
    const zi::Mask patch = make_mask(kind, bw, bh, rng);
    const zi::Mask low = make_mask(Kind::kRandom, bw, bh, rng);
    for (const std::int64_t min_area : {0, 1, 16}) {
      const std::string tag = std::string(kind_name(kind)) + " box " + std::to_string(bw) +
                              "x" + std::to_string(bh) + " at (" + std::to_string(left) +
                              ", " + std::to_string(top) + ") r" + std::to_string(r) +
                              " min_area " + std::to_string(min_area);
      const auto byte_chain = [&](const zi::Mask& m, std::int64_t min) {
        zi::Mask roi(roi_w, roi_h);
        zi::paste_mask(roi, m, {left, top, bw, bh});
        if (r > 0) {
          roi = oracle_morph(oracle_morph(roi, r, zc::Element::kDisk, true), r,
                             zc::Element::kDisk, false);
        }
        roi = oracle_fill_holes(roi);
        return min > 0 ? oracle_remove_small(roi, min) : roi;
      };
      const zi::Mask want = byte_chain(patch, min_area);
      const zi::Mask want_low = byte_chain(low, 0);
      zc::BitMask bits, low_bits;
      zc::clean_mask(bits, patch, roi_w, roi_h, {left, top}, r, min_area, scratch);
      zc::clean_mask(low_bits, low, roi_w, roi_h, {left, top}, r, 0, scratch);
      ASSERT_TRUE(same_bytes(bits.unpack(), want)) << tag;
      ASSERT_TRUE(same_bytes(low_bits.unpack(), want_low)) << tag;
      EXPECT_EQ(bits.count(), zi::mask_area(want)) << tag;
      EXPECT_EQ(zc::mask_iou(low_bits, bits), zi::mask_iou(want_low, want)) << tag;
    }
  }
}

TEST(BitMask, NegativeRadiusThrows) {
  zc::BitMask bits(zi::Mask(3, 3));
  zc::BitScratch scratch;
  EXPECT_THROW(zc::dilate(bits, -1, zc::Element::kDisk, scratch), std::invalid_argument);
  EXPECT_THROW(zc::close(bits, -1, zc::Element::kSquare, scratch), std::invalid_argument);
}
