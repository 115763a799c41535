#pragma once
// Word-packed binary masks: 64 pixels per std::uint64_t, one row of
// words per raster row. Binary morphology, hole filling and speckle
// removal run on this layout: a structuring-element tap is a word shift
// combined with OR/AND, and the flood fill and the component areas walk
// runs of equal bits instead of pixels. The box decoder cleans its
// candidate masks here, and the byte-mask morphology of morphology.hpp
// packs, calls the same word operations and unpacks.

#include <cstdint>
#include <vector>

#include "zenesis/image/geometry.hpp"
#include "zenesis/image/image.hpp"

namespace zenesis::cv {

enum class Element { kSquare, kDisk };

/// Binary mask, row-major: bit (x % 64) of word (x / 64) of a row holds
/// pixel x. Bits past the width are always zero.
class BitMask {
 public:
  BitMask() = default;
  /// Packs the non-zero pixels of `mask`.
  explicit BitMask(const image::Mask& mask);

  /// Becomes an all-background width × height mask, reusing storage.
  void resize(std::int64_t width, std::int64_t height);

  /// Becomes width × height holding the non-zero pixels of `patch`
  /// placed with its top-left corner at `at`; pixels that land outside
  /// the raster are dropped.
  void pack(const image::Mask& patch, std::int64_t width, std::int64_t height,
            image::Point at);

  /// The mask as 0/1 bytes.
  image::Mask unpack() const;

  std::int64_t width() const noexcept { return width_; }
  std::int64_t height() const noexcept { return height_; }
  std::int64_t words_per_row() const noexcept { return words_; }
  std::uint64_t* row(std::int64_t y) noexcept { return bits_.data() + y * words_; }
  const std::uint64_t* row(std::int64_t y) const noexcept {
    return bits_.data() + y * words_;
  }

  /// Number of foreground pixels.
  std::int64_t count() const noexcept;

 private:
  std::int64_t width_ = 0, height_ = 0, words_ = 0;
  std::vector<std::uint64_t> bits_;
};

/// A run [x0, x1) of equal bits within one row.
struct BitRun {
  std::int32_t x0 = 0, x1 = 0;
};

/// Buffers the operations below reuse: a spare word plane, the runs of
/// every row and the union-find arrays over them. One scratch serves any
/// number of calls on one thread; once grown, cleanup allocates nothing.
struct BitScratch {
  BitMask spare;
  std::vector<BitRun> runs;
  /// The runs of row y are runs[row_start[y]] up to runs[row_start[y + 1]].
  std::vector<std::int32_t> row_start;
  std::vector<std::int32_t> parent;
  std::vector<std::int64_t> area;
};

/// In-place binary morphology; outside the raster counts as background.
/// The disk element holds the offsets with dx² + dy² ≤ radius², the
/// square every offset within `radius`. Radius 0 leaves the mask as it
/// is; a negative radius throws std::invalid_argument.
void dilate(BitMask& mask, int radius, Element el, BitScratch& scratch);
void erode(BitMask& mask, int radius, Element el, BitScratch& scratch);
/// Dilation then erosion: closes gaps smaller than the element.
void close(BitMask& mask, int radius, Element el, BitScratch& scratch);

/// Sets every background region (4-connected) that does not reach the
/// raster border.
void fill_holes(BitMask& mask, BitScratch& scratch);

/// Clears every component (8-connected) of fewer than `min_area` pixels.
void remove_small_components(BitMask& mask, std::int64_t min_area,
                             BitScratch& scratch);

/// The box decoder's cleanup of one candidate mask, into `out`: `patch`
/// placed at `at` in a width × height raster, closed with the disk of
/// `radius`, holes filled, then components under `min_area` removed
/// (skipped when min_area is 0).
void clean_mask(BitMask& out, const image::Mask& patch, std::int64_t width,
                std::int64_t height, image::Point at, int radius,
                std::int64_t min_area, BitScratch& scratch);

/// Intersection-over-union of two same-sized masks (1.0 when both are
/// empty), equal to image::mask_iou of their unpacked forms.
double mask_iou(const BitMask& a, const BitMask& b);

}  // namespace zenesis::cv
