#pragma once
// Nearest-foreground queries. The HITL rectifier uses nearest-segment
// lookup to map a user's rough box onto the closest detected segment.

#include "zenesis/image/geometry.hpp"
#include "zenesis/image/image.hpp"

namespace zenesis::cv {

/// Coordinates of the foreground pixel nearest to `p` (exhaustive chamfer
/// back-tracking). Returns false when the mask is empty.
bool nearest_foreground(const image::Mask& mask, image::Point p,
                        image::Point* out);

}  // namespace zenesis::cv
