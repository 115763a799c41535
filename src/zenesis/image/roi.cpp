#include "zenesis/image/roi.hpp"

#include <algorithm>
#include <stdexcept>

namespace zenesis::image {

ImageF32 crop(const ImageF32& img, const Box& roi) {
  const Box r = roi.clipped(img.width(), img.height());
  if (r.empty()) return ImageF32(0, 0, img.channels());
  ImageF32 out(r.w, r.h, img.channels());
  for (std::int64_t y = 0; y < r.h; ++y) {
    for (std::int64_t x = 0; x < r.w; ++x) {
      for (int c = 0; c < img.channels(); ++c) {
        out.at(x, y, c) = img.at(r.x + x, r.y + y, c);
      }
    }
  }
  return out;
}

void paste_mask(Mask& dst, const Mask& patch, const Box& roi) {
  for (std::int64_t y = 0; y < patch.height(); ++y) {
    const std::int64_t dy = roi.y + y;
    if (dy < 0 || dy >= dst.height()) continue;
    for (std::int64_t x = 0; x < patch.width(); ++x) {
      const std::int64_t dx = roi.x + x;
      if (dx < 0 || dx >= dst.width()) continue;
      if (patch.at(x, y) != 0) dst.at(dx, dy) = 1;
    }
  }
}

ImageU8 overlay_mask(const ImageF32& img, const Mask& mask) {
  if (img.width() != mask.width() || img.height() != mask.height()) {
    throw std::invalid_argument("overlay_mask: size mismatch");
  }
  ImageU8 out(img.width(), img.height(), 3);
  for (std::int64_t y = 0; y < img.height(); ++y) {
    for (std::int64_t x = 0; x < img.width(); ++x) {
      const float v = std::clamp(img.at(x, y), 0.0f, 1.0f);
      const auto g = static_cast<std::uint8_t>(v * 255.0f + 0.5f);
      if (mask.at(x, y) != 0) {
        // Foreground: green tint.
        out.at(x, y, 0) = static_cast<std::uint8_t>(g / 2);
        out.at(x, y, 1) =
            static_cast<std::uint8_t>(std::min(255, static_cast<int>(g) + 80));
        out.at(x, y, 2) = static_cast<std::uint8_t>(g / 2);
      } else {
        out.at(x, y, 0) = g;
        out.at(x, y, 1) = g;
        out.at(x, y, 2) = g;
      }
    }
  }
  // Boundary: mark foreground pixels adjacent to background in red.
  for (std::int64_t y = 0; y < img.height(); ++y) {
    for (std::int64_t x = 0; x < img.width(); ++x) {
      if (mask.at(x, y) == 0) continue;
      bool edge = false;
      for (int dy = -1; dy <= 1 && !edge; ++dy) {
        for (int dx = -1; dx <= 1 && !edge; ++dx) {
          const std::int64_t nx = x + dx, ny = y + dy;
          if (!mask.contains(nx, ny) || mask.at(nx, ny) == 0) edge = true;
        }
      }
      if (edge) {
        out.at(x, y, 0) = 255;
        out.at(x, y, 1) = 40;
        out.at(x, y, 2) = 40;
      }
    }
  }
  return out;
}

void draw_box(ImageU8& img, const Box& box, std::uint8_t r, std::uint8_t g,
              std::uint8_t b) {
  if (img.channels() != 3) {
    throw std::invalid_argument("draw_box: RGB image required");
  }
  const Box c = box.clipped(img.width(), img.height());
  if (c.empty()) return;
  auto put = [&](std::int64_t x, std::int64_t y) {
    img.at(x, y, 0) = r;
    img.at(x, y, 1) = g;
    img.at(x, y, 2) = b;
  };
  for (std::int64_t x = c.x; x < c.right(); ++x) {
    put(x, c.y);
    put(x, c.bottom() - 1);
  }
  for (std::int64_t y = c.y; y < c.bottom(); ++y) {
    put(c.x, y);
    put(c.right() - 1, y);
  }
}

double mask_fraction(const Mask& mask) {
  if (mask.pixel_count() == 0) return 0.0;
  return static_cast<double>(mask_area(mask)) /
         static_cast<double>(mask.pixel_count());
}

std::int64_t mask_area(const Mask& mask) {
  std::int64_t n = 0;
  for (auto v : mask.pixels()) n += (v != 0);
  return n;
}

Box mask_bounds(const Mask& mask) {
  std::int64_t x0 = mask.width(), y0 = mask.height(), x1 = -1, y1 = -1;
  for (std::int64_t y = 0; y < mask.height(); ++y) {
    for (std::int64_t x = 0; x < mask.width(); ++x) {
      if (mask.at(x, y) == 0) continue;
      x0 = std::min(x0, x);
      y0 = std::min(y0, y);
      x1 = std::max(x1, x);
      y1 = std::max(y1, y);
    }
  }
  if (x1 < x0) return {};
  return {x0, y0, x1 - x0 + 1, y1 - y0 + 1};
}

double mask_iou(const Mask& a, const Mask& b) {
  if (a.width() != b.width() || a.height() != b.height()) {
    throw std::invalid_argument("mask_iou: size mismatch");
  }
  std::int64_t inter = 0, uni = 0;
  auto pa = a.pixels();
  auto pb = b.pixels();
  for (std::size_t i = 0; i < pa.size(); ++i) {
    const bool fa = pa[i] != 0, fb = pb[i] != 0;
    inter += (fa && fb);
    uni += (fa || fb);
  }
  return uni == 0 ? 1.0 : static_cast<double>(inter) / static_cast<double>(uni);
}

Mask mask_and(const Mask& a, const Mask& b) {
  if (a.width() != b.width() || a.height() != b.height()) {
    throw std::invalid_argument("mask_and: size mismatch");
  }
  Mask out(a.width(), a.height());
  auto pa = a.pixels();
  auto pb = b.pixels();
  auto po = out.pixels();
  for (std::size_t i = 0; i < pa.size(); ++i) {
    po[i] = (pa[i] != 0 && pb[i] != 0) ? 1 : 0;
  }
  return out;
}

Mask mask_or(const Mask& a, const Mask& b) {
  if (a.width() != b.width() || a.height() != b.height()) {
    throw std::invalid_argument("mask_or: size mismatch");
  }
  Mask out(a.width(), a.height());
  auto pa = a.pixels();
  auto pb = b.pixels();
  auto po = out.pixels();
  for (std::size_t i = 0; i < pa.size(); ++i) {
    po[i] = (pa[i] != 0 || pb[i] != 0) ? 1 : 0;
  }
  return out;
}

Mask mask_not(const Mask& a) {
  Mask out(a.width(), a.height());
  auto pa = a.pixels();
  auto po = out.pixels();
  for (std::size_t i = 0; i < pa.size(); ++i) po[i] = pa[i] != 0 ? 0 : 1;
  return out;
}

}  // namespace zenesis::image
