#pragma once
// Histogram-based thresholding: Otsu, the paper's classical baseline
// (Table 1).

#include <vector>

#include "zenesis/image/image.hpp"

namespace zenesis::cv {

/// Result of a global threshold: the cut value (in [0,1]) and the
/// foreground mask (pixel > threshold).
struct ThresholdResult {
  float threshold = 0.0f;
  image::Mask mask;
};

/// Otsu's method over a 256-bin histogram of a [0,1] float image:
/// maximizes between-class variance. Deterministic, the exact algorithm
/// the paper benchmarks against.
ThresholdResult otsu_threshold(const image::ImageF32& img);

/// Otsu's cut value for an arbitrary histogram (the SAM surrogate's box
/// decoder cuts its own histograms with it). Returns the bin index of
/// the cut.
int otsu_bin(const std::vector<std::int64_t>& hist);

}  // namespace zenesis::cv
