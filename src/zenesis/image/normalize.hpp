#pragma once
// The data-readiness layer: explicit, fidelity-preserving conversion from
// raw scientific rasters (any bit depth, gray or RGB) to the [0,1] float
// images the foundation models consume.
//
// This is the paper's Fig. 1 "raw → AI-ready" transform. The key design
// decision (ablated in bench/ablation_readiness) is robust percentile
// scaling instead of naive min-max: FIB-SEM detectors produce hot pixels
// and deep shadows that would otherwise compress the usable dynamic range
// into a sliver.

#include <cstdint>
#include <vector>

#include "zenesis/image/image.hpp"

namespace zenesis::image {

/// Summary statistics of a single-channel float image.
struct Stats {
  float min = 0.0f;
  float max = 0.0f;
  double mean = 0.0;
  double stddev = 0.0;
};

Stats compute_stats(const ImageF32& img);

/// Converts any supported raster to float. Integer types are scaled by
/// their type maximum into [0,1]; float input is passed through unchanged.
/// RGB is reduced to luminance (Rec.601) — scientific segmentation here is
/// single-phase, and the models consume one channel.
ImageF32 to_float(const AnyImage& img);

/// 256-bin histogram of a float image over [lo, hi].
std::vector<std::int64_t> histogram(const ImageF32& img, float lo, float hi,
                                    int bins = 256);

/// Value below which `pct` (in [0,100]) of the pixels fall.
float percentile(const ImageF32& img, double pct);

/// Robust normalization: clip to [P(lo_pct), P(hi_pct)] then rescale to
/// [0,1]. Constant images map to all-zeros.
ImageF32 percentile_normalize(const ImageF32& img, double lo_pct = 0.5,
                              double hi_pct = 99.5);

/// Naive min-max rescale to [0,1] (the ablation baseline).
ImageF32 minmax_normalize(const ImageF32& img);

/// Contrast-limited tile-based histogram equalization ("CLAHE-lite"):
/// equalizes per tile with a clip limit, bilinearly blending tile mappings.
/// Used as an optional readiness step for very low-contrast modalities.
ImageF32 clahe(const ImageF32& img, int tiles_x = 8, int tiles_y = 8,
               double clip_limit = 2.5);

/// Quantizes a [0,1] float image to the requested unsigned bit depth
/// (8, 16 or 32). Values outside [0,1] are clamped.
AnyImage quantize(const ImageF32& img, int bits);

/// Configuration of the readiness pipeline.
struct ReadinessConfig {
  double lo_percentile = 0.5;
  double hi_percentile = 99.5;
  bool use_clahe = false;
  int clahe_tiles = 8;
  double clahe_clip = 2.5;
};

/// Full readiness pipeline: to_float → (gray) → percentile normalize →
/// optional CLAHE. The output is what every model and baseline sees.
ImageF32 make_ai_ready(const AnyImage& img, const ReadinessConfig& cfg = {});

}  // namespace zenesis::image
