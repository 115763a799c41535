#pragma once
// Spatial filters over single-channel float images. Border handling is
// clamp-to-edge throughout (the FIB-SEM field of view has no wrap-around
// semantics).

#include <cstdint>
#include <vector>

#include "zenesis/image/geometry.hpp"
#include "zenesis/image/image.hpp"

namespace zenesis::cv {

/// Separable Gaussian blur; sigma <= 0 returns the input unchanged.
image::ImageF32 gaussian_blur(const image::ImageF32& img, float sigma);

/// gaussian_blur over `roi` only (clipped to the image), returned as a
/// roi.w × roi.h image: pixel (x, y) of the result is pixel
/// (roi.x + x, roi.y + y) of the full-image blur, byte for byte (taps
/// still clamp to the image border). Cost scales with the ROI.
image::ImageF32 gaussian_blur(const image::ImageF32& img, float sigma,
                              const image::Box& roi);

/// Boxcar mean filter with square radius `radius` (side 2r+1), O(1) per
/// pixel via summed-area table.
image::ImageF32 box_filter(const image::ImageF32& img, int radius);

/// Large-window approximate median filter: 256-bin histogram over values
/// clamped to [0,1], windows clamped to the image border. Constant time
/// per pixel in the radius (Perreault–Hébert sliding column histograms
/// with a 16/256 two-level kernel histogram). Quantization error is
/// <= 1/256, irrelevant for context estimation. Used by the SAM surrogate
/// as a robust local-background model (immune to thin bright structures
/// and to boundary halos that corrupt a mean filter).
image::ImageF32 median_filter_large(const image::ImageF32& img, int radius);

/// median_filter_large over `roi` only (clipped to the image), returned
/// as a roi.w × roi.h image: pixel (x, y) of the result is pixel
/// (roi.x + x, roi.y + y) of the full-image filter, byte for byte
/// (windows still clamp to the *image* border, not the ROI). Cost scales
/// with the ROI; MedianPlane serves several medians of one ROI.
image::ImageF32 median_filter_large(const image::ImageF32& img, int radius,
                                    const image::Box& roi);

/// median_filter_large over only the pixels NOT set in `exclude`. Windows
/// whose valid count falls below a quarter of their size fall back to the
/// unmasked median. Used for background re-estimation after a first
/// segmentation pass has explained away the foreground.
image::ImageF32 median_filter_large_masked(const image::ImageF32& img,
                                           int radius,
                                           const image::Mask& exclude);

/// ROI form of median_filter_large_masked (same output contract as the
/// ROI median). `exclude` may be a patch: it covers the image rectangle
/// {exclude_origin, exclude.width() × exclude.height()}, and image pixels
/// outside it count as not excluded. `fallback`, when non-null, must be
/// the ROI median of (img, radius) over the same ROI — callers that
/// already hold it skip a second median pass.
image::ImageF32 median_filter_large_masked(const image::ImageF32& img,
                                           int radius,
                                           const image::Mask& exclude,
                                           image::Point exclude_origin,
                                           const image::Box& roi,
                                           const image::ImageF32* fallback =
                                               nullptr);

/// One plane binned once for several large-window medians over the same
/// ROI — the box decoder's context, halo and refit medians of one scale.
/// The constructor bins `img` over `roi` (clipped to the image) expanded
/// by `reach`; every median below reads that plane, takes a radius in
/// (0, reach] and returns a roi.w × roi.h image equal, byte for byte, to
/// the median_filter_large / median_filter_large_masked call it names.
class MedianPlane {
 public:
  MedianPlane(const image::ImageF32& img, int reach, const image::Box& roi);

  /// `a` = median_filter_large(img, r_a, roi) and, when `b` is non-null,
  /// `*b` = median_filter_large(img, r_b, roi), both in one row pass.
  void medians(int r_a, image::ImageF32& a, int r_b, image::ImageF32* b) const;

  /// median_filter_large_masked(img, radius, exclude, exclude_origin,
  /// roi, &context). `context` must be this plane's median at `radius`:
  /// each window is refitted as the unmasked window minus the excluded
  /// pixels in it, and a window that holds no excluded pixel takes its
  /// `context` value unsearched.
  image::ImageF32 masked(int radius, const image::Mask& exclude,
                         image::Point exclude_origin,
                         const image::ImageF32& context) const;

 private:
  void check_radius(int radius) const;

  std::int64_t w_ = 0, h_ = 0;
  int reach_ = 0;
  image::Box roi_;   ///< the ROI, clipped to the image
  image::Box rect_;  ///< the binned rectangle: roi_ expanded by reach_, clipped
  std::vector<std::uint8_t> bins_;  ///< row-major over rect_, 256 bins
};

/// Sobel gradient magnitude (L2 of the 3x3 Sobel pair).
image::ImageF32 sobel_magnitude(const image::ImageF32& img);

/// Local variance within a square window of radius `radius` — a texture
/// descriptor feeding the surrogate backbones' engineered channels.
image::ImageF32 local_variance(const image::ImageF32& img, int radius);

}  // namespace zenesis::cv
