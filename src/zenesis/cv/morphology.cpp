#include "zenesis/cv/morphology.hpp"

#include <stdexcept>
#include <vector>

#include "zenesis/image/geometry.hpp"
#include "zenesis/parallel/parallel_for.hpp"

namespace zenesis::cv {
namespace {

/// Offsets of the structuring element.
std::vector<image::Point> element_offsets(int radius, Element el) {
  std::vector<image::Point> offs;
  const std::int64_t r2 = static_cast<std::int64_t>(radius) * radius;
  for (int dy = -radius; dy <= radius; ++dy) {
    for (int dx = -radius; dx <= radius; ++dx) {
      if (el == Element::kDisk &&
          static_cast<std::int64_t>(dx) * dx + static_cast<std::int64_t>(dy) * dy > r2) {
        continue;
      }
      offs.push_back({dx, dy});
    }
  }
  return offs;
}

image::Mask morph(const image::Mask& mask, int radius, Element el, bool is_dilate) {
  if (radius < 0) throw std::invalid_argument("morphology: negative radius");
  if (radius == 0) return mask;
  const std::int64_t w = mask.width(), h = mask.height();
  // Foreground flags on a zero border `radius` wide: outside the raster
  // counts as background, and the taps need no bounds checks.
  const std::int64_t pw = w + 2 * radius;
  std::vector<std::uint8_t> padded(static_cast<std::size_t>(pw * (h + 2 * radius)), 0);
  for (std::int64_t y = 0; y < h; ++y) {
    std::uint8_t* row = padded.data() + (y + radius) * pw + radius;
    for (std::int64_t x = 0; x < w; ++x) row[x] = mask.at(x, y) != 0 ? 1 : 0;
  }
  std::vector<std::int64_t> taps;
  for (const auto& o : element_offsets(radius, el)) taps.push_back(o.y * pw + o.x);
  image::Mask out(w, h);
  std::uint8_t* const dst = out.pixels().data();
  // Dilation ORs and erosion ANDs the 0/1 flags of every tap, one whole
  // row per tap.
  parallel::parallel_for(0, h, [&](std::int64_t y) {
    const std::uint8_t* centre = padded.data() + (y + radius) * pw + radius;
    std::uint8_t* row = dst + y * w;
    std::copy(centre + taps[0], centre + taps[0] + w, row);
    for (std::size_t k = 1; k < taps.size(); ++k) {
      const std::uint8_t* src = centre + taps[k];
      if (is_dilate) {
        for (std::int64_t x = 0; x < w; ++x) row[x] |= src[x];
      } else {
        for (std::int64_t x = 0; x < w; ++x) row[x] &= src[x];
      }
    }
  });
  return out;
}

}  // namespace

image::Mask erode(const image::Mask& mask, int radius, Element el) {
  return morph(mask, radius, el, /*is_dilate=*/false);
}

image::Mask dilate(const image::Mask& mask, int radius, Element el) {
  return morph(mask, radius, el, /*is_dilate=*/true);
}

image::Mask open(const image::Mask& mask, int radius, Element el) {
  return dilate(erode(mask, radius, el), radius, el);
}

image::Mask close(const image::Mask& mask, int radius, Element el) {
  return erode(dilate(mask, radius, el), radius, el);
}

image::Mask boundary_gradient(const image::Mask& mask) {
  const image::Mask d = dilate(mask, 1, Element::kSquare);
  const image::Mask e = erode(mask, 1, Element::kSquare);
  image::Mask out(mask.width(), mask.height());
  for (std::int64_t y = 0; y < mask.height(); ++y) {
    for (std::int64_t x = 0; x < mask.width(); ++x) {
      out.at(x, y) = (d.at(x, y) != 0 && e.at(x, y) == 0) ? 1 : 0;
    }
  }
  return out;
}

}  // namespace zenesis::cv
