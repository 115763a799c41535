#pragma once
// Region-of-interest utilities: crop, paste, overlay. These back the
// hierarchical "Further Segment" feature (crop a selected segment, rerun
// the pipeline on it, paste the refined mask back) and the qualitative
// figure outputs (mask overlays, box outlines).

#include "zenesis/image/geometry.hpp"
#include "zenesis/image/image.hpp"

namespace zenesis::image {

/// Copies the pixels under `roi` (clipped to the image) into a new image.
ImageF32 crop(const ImageF32& img, const Box& roi);

/// Writes `patch` into `dst` with its top-left corner at (roi.x, roi.y);
/// out-of-bounds parts are discarded. Non-zero patch pixels overwrite.
void paste_mask(Mask& dst, const Mask& patch, const Box& roi);

/// Renders a grayscale image with the mask's foreground brightened and a
/// visible boundary, for qualitative outputs. Returns an 8-bit RGB image.
ImageU8 overlay_mask(const ImageF32& img, const Mask& mask);

/// Draws a 1-pixel box outline into an RGB u8 image (r,g,b in [0,255]).
void draw_box(ImageU8& img, const Box& box, std::uint8_t r, std::uint8_t g,
              std::uint8_t b);

/// Fraction of mask pixels that are foreground.
double mask_fraction(const Mask& mask);

/// Number of foreground pixels.
std::int64_t mask_area(const Mask& mask);

/// Tight bounding box of the mask's foreground (empty box if no pixels).
Box mask_bounds(const Mask& mask);

/// Intersection-over-union of two same-sized masks (1.0 when both empty).
double mask_iou(const Mask& a, const Mask& b);

/// Logical ops (shapes must match).
Mask mask_and(const Mask& a, const Mask& b);
Mask mask_or(const Mask& a, const Mask& b);
Mask mask_not(const Mask& a);

}  // namespace zenesis::image
