#pragma once
// Spatial filters over single-channel float images. Border handling is
// clamp-to-edge throughout (the FIB-SEM field of view has no wrap-around
// semantics).

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

/// Median filter with square radius (exact, sort-based, radius <= 7).
image::ImageF32 median_filter(const image::ImageF32& img, int radius);

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
/// with the ROI — the SAM surrogate's decoder only reads its context
/// medians inside the prompt box, so it pays for the box, not the frame.
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
/// already hold it (the decoder's refit pass re-estimates against the
/// context it just computed) skip a second median pass.
image::ImageF32 median_filter_large_masked(const image::ImageF32& img,
                                           int radius,
                                           const image::Mask& exclude,
                                           image::Point exclude_origin,
                                           const image::Box& roi,
                                           const image::ImageF32* fallback =
                                               nullptr);

/// Sobel gradient magnitude (L2 of the 3x3 Sobel pair).
image::ImageF32 sobel_magnitude(const image::ImageF32& img);

/// Local variance within a square window of radius `radius` — a texture
/// descriptor feeding the surrogate backbones' engineered channels.
image::ImageF32 local_variance(const image::ImageF32& img, int radius);

/// Elementwise absolute difference.
image::ImageF32 abs_diff(const image::ImageF32& a, const image::ImageF32& b);

}  // namespace zenesis::cv
