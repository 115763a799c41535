#pragma once
// Connected-component labeling and region statistics. These turn the
// models' patch-level relevance maps and pixel masks into discrete
// segments — the objects the HITL rectifier and the hierarchical
// Further-Segment feature operate on.

#include <cstdint>
#include <vector>

#include "zenesis/image/geometry.hpp"
#include "zenesis/image/image.hpp"

namespace zenesis::cv {

/// Dense label image: 0 = background, 1..n = component ids.
struct Labeling {
  image::Image<std::int32_t> labels;
  std::int32_t count = 0;
};

/// Per-component statistics.
struct Component {
  std::int32_t label = 0;
  std::int64_t area = 0;
  image::Box bounds;
  double centroid_x = 0.0;
  double centroid_y = 0.0;
};

/// Two-pass union-find labeling of a binary mask (8-connectivity by
/// default; pass false for 4-connectivity).
Labeling label_components(const image::Mask& mask, bool eight_connected = true);

/// Statistics for every component of a labeling, ordered by label id.
std::vector<Component> component_stats(const Labeling& labeling);

/// Largest component (by area) of a mask; empty mask if none.
image::Mask largest_component(const image::Mask& mask);

}  // namespace zenesis::cv
