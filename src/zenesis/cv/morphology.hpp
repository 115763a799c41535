#pragma once
// Binary morphology of byte masks with square or disk structuring
// elements. Used by the grounding head's hot-map closing. Each call packs
// the mask, runs the word operations of bitmask.hpp and unpacks the
// result as 0/1 bytes.

#include "zenesis/cv/bitmask.hpp"
#include "zenesis/image/image.hpp"

namespace zenesis::cv {

image::Mask erode(const image::Mask& mask, int radius,
                  Element el = Element::kDisk);
image::Mask dilate(const image::Mask& mask, int radius,
                   Element el = Element::kDisk);

/// Erosion then dilation: removes specks smaller than the element.
image::Mask open(const image::Mask& mask, int radius,
                 Element el = Element::kDisk);

/// Dilation then erosion: closes gaps smaller than the element.
image::Mask close(const image::Mask& mask, int radius,
                  Element el = Element::kDisk);

/// Morphological gradient (dilate − erode): 1-pixel-thick boundary band.
image::Mask boundary_gradient(const image::Mask& mask);

}  // namespace zenesis::cv
