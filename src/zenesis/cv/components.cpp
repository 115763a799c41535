#include "zenesis/cv/components.hpp"

#include <algorithm>
#include <numeric>
#include <stdexcept>

namespace zenesis::cv {
namespace {

/// Union-find over provisional labels.
class DisjointSet {
 public:
  std::int32_t make() {
    parent_.push_back(static_cast<std::int32_t>(parent_.size()));
    return parent_.back();
  }
  std::int32_t find(std::int32_t x) {
    while (parent_[static_cast<std::size_t>(x)] != x) {
      parent_[static_cast<std::size_t>(x)] =
          parent_[static_cast<std::size_t>(parent_[static_cast<std::size_t>(x)])];
      x = parent_[static_cast<std::size_t>(x)];
    }
    return x;
  }
  void unite(std::int32_t a, std::int32_t b) {
    a = find(a);
    b = find(b);
    if (a != b) parent_[static_cast<std::size_t>(std::max(a, b))] = std::min(a, b);
  }
  std::size_t size() const { return parent_.size(); }

 private:
  std::vector<std::int32_t> parent_;
};

/// Mask of a single labeled component.
image::Mask component_mask(const Labeling& labeling, std::int32_t label) {
  image::Mask mask(labeling.labels.width(), labeling.labels.height());
  for (std::int64_t y = 0; y < mask.height(); ++y) {
    for (std::int64_t x = 0; x < mask.width(); ++x) {
      mask.at(x, y) = labeling.labels.at(x, y) == label ? 1 : 0;
    }
  }
  return mask;
}

}  // namespace

Labeling label_components(const image::Mask& mask, bool eight_connected) {
  const std::int64_t w = mask.width(), h = mask.height();
  Labeling out;
  out.labels = image::Image<std::int32_t>(w, h, 1);
  if (w == 0 || h == 0) return out;

  DisjointSet ds;
  ds.make();  // label 0 = background

  // First pass: provisional labels from already-visited neighbours, with
  // the decision tree of Wu, Otoo & Suzuki (2009): neighbours that are
  // adjacent to each other were joined when the later of them was
  // visited, so at most one union per pixel is needed. (The final ids
  // depend only on the components and raster order, not on which
  // provisional label a pixel took.)
  std::int32_t* const labels = out.labels.pixels().data();
  for (std::int64_t y = 0; y < h; ++y) {
    std::int32_t* row = labels + y * w;
    const std::int32_t* prev = y > 0 ? row - w : row;  // read only when y > 0
    for (std::int64_t x = 0; x < w; ++x) {
      if (mask.at(x, y) == 0) continue;
      const std::int32_t left = x > 0 ? row[x - 1] : 0;
      const std::int32_t up = y > 0 ? prev[x] : 0;
      std::int32_t lab = 0;
      if (eight_connected) {
        const std::int32_t ul = x > 0 && y > 0 ? prev[x - 1] : 0;
        const std::int32_t ur = x + 1 < w && y > 0 ? prev[x + 1] : 0;
        if (up != 0) {
          lab = up;
        } else if (ur != 0) {
          lab = ur;
          if (ul != 0) ds.unite(lab, ul);
          else if (left != 0) ds.unite(lab, left);
        } else {
          lab = ul != 0 ? ul : left;
        }
      } else {
        lab = up != 0 ? up : left;
        if (up != 0 && left != 0) ds.unite(up, left);
      }
      row[x] = lab != 0 ? lab : ds.make();
    }
  }

  // Second pass: compress to dense 1..count ids.
  std::vector<std::int32_t> remap(ds.size(), 0);
  std::int32_t next = 0;
  for (std::int64_t i = 0; i < w * h; ++i) {
    const std::int32_t lab = labels[i];
    if (lab == 0) continue;
    const std::int32_t root = ds.find(lab);
    if (remap[static_cast<std::size_t>(root)] == 0) {
      remap[static_cast<std::size_t>(root)] = ++next;
    }
    labels[i] = remap[static_cast<std::size_t>(root)];
  }
  out.count = next;
  return out;
}

std::vector<Component> component_stats(const Labeling& labeling) {
  std::vector<Component> comps(static_cast<std::size_t>(labeling.count));
  for (std::int32_t i = 0; i < labeling.count; ++i) {
    comps[static_cast<std::size_t>(i)].label = i + 1;
    comps[static_cast<std::size_t>(i)].bounds = {labeling.labels.width(),
                                                 labeling.labels.height(), 0, 0};
  }
  std::vector<std::int64_t> min_x(static_cast<std::size_t>(labeling.count),
                                  labeling.labels.width());
  std::vector<std::int64_t> min_y(static_cast<std::size_t>(labeling.count),
                                  labeling.labels.height());
  std::vector<std::int64_t> max_x(static_cast<std::size_t>(labeling.count), -1);
  std::vector<std::int64_t> max_y(static_cast<std::size_t>(labeling.count), -1);
  for (std::int64_t y = 0; y < labeling.labels.height(); ++y) {
    for (std::int64_t x = 0; x < labeling.labels.width(); ++x) {
      const std::int32_t lab = labeling.labels.at(x, y);
      if (lab == 0) continue;
      auto& c = comps[static_cast<std::size_t>(lab - 1)];
      ++c.area;
      c.centroid_x += static_cast<double>(x);
      c.centroid_y += static_cast<double>(y);
      min_x[static_cast<std::size_t>(lab - 1)] =
          std::min(min_x[static_cast<std::size_t>(lab - 1)], x);
      min_y[static_cast<std::size_t>(lab - 1)] =
          std::min(min_y[static_cast<std::size_t>(lab - 1)], y);
      max_x[static_cast<std::size_t>(lab - 1)] =
          std::max(max_x[static_cast<std::size_t>(lab - 1)], x);
      max_y[static_cast<std::size_t>(lab - 1)] =
          std::max(max_y[static_cast<std::size_t>(lab - 1)], y);
    }
  }
  for (std::int32_t i = 0; i < labeling.count; ++i) {
    auto& c = comps[static_cast<std::size_t>(i)];
    if (c.area > 0) {
      c.centroid_x /= static_cast<double>(c.area);
      c.centroid_y /= static_cast<double>(c.area);
      c.bounds = {min_x[static_cast<std::size_t>(i)], min_y[static_cast<std::size_t>(i)],
                  max_x[static_cast<std::size_t>(i)] - min_x[static_cast<std::size_t>(i)] + 1,
                  max_y[static_cast<std::size_t>(i)] - min_y[static_cast<std::size_t>(i)] + 1};
    } else {
      c.bounds = {};
    }
  }
  return comps;
}

image::Mask largest_component(const image::Mask& mask) {
  const Labeling lab = label_components(mask);
  if (lab.count == 0) return image::Mask(mask.width(), mask.height());
  const auto comps = component_stats(lab);
  const auto it = std::max_element(
      comps.begin(), comps.end(),
      [](const Component& a, const Component& b) { return a.area < b.area; });
  return component_mask(lab, it->label);
}

}  // namespace zenesis::cv
