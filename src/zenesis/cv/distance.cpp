#include "zenesis/cv/distance.hpp"

#include <limits>

namespace zenesis::cv {

bool nearest_foreground(const image::Mask& mask, image::Point p,
                        image::Point* out) {
  const std::int64_t w = mask.width(), h = mask.height();
  std::int64_t best = std::numeric_limits<std::int64_t>::max();
  image::Point best_p{};
  bool found = false;
  for (std::int64_t y = 0; y < h; ++y) {
    for (std::int64_t x = 0; x < w; ++x) {
      if (mask.at(x, y) == 0) continue;
      const std::int64_t dx = x - p.x, dy = y - p.y;
      const std::int64_t d2 = dx * dx + dy * dy;
      if (d2 < best) {
        best = d2;
        best_p = {x, y};
        found = true;
      }
    }
  }
  if (found && out != nullptr) *out = best_p;
  return found;
}

}  // namespace zenesis::cv
