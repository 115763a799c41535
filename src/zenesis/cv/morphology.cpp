#include "zenesis/cv/morphology.hpp"

#include <stdexcept>

namespace zenesis::cv {
namespace {

/// Packs `mask`, applies `op` to the words and unpacks. Radius 0 returns
/// the mask unchanged, bytes and all.
template <typename Op>
image::Mask on_words(const image::Mask& mask, int radius, Op op) {
  if (radius < 0) throw std::invalid_argument("morphology: negative radius");
  if (radius == 0) return mask;
  BitMask bits(mask);
  BitScratch scratch;
  op(bits, scratch);
  return bits.unpack();
}

}  // namespace

image::Mask erode(const image::Mask& mask, int radius, Element el) {
  return on_words(mask, radius,
                  [&](BitMask& b, BitScratch& s) { erode(b, radius, el, s); });
}

image::Mask dilate(const image::Mask& mask, int radius, Element el) {
  return on_words(mask, radius,
                  [&](BitMask& b, BitScratch& s) { dilate(b, radius, el, s); });
}

image::Mask open(const image::Mask& mask, int radius, Element el) {
  return on_words(mask, radius, [&](BitMask& b, BitScratch& s) {
    erode(b, radius, el, s);
    dilate(b, radius, el, s);
  });
}

image::Mask close(const image::Mask& mask, int radius, Element el) {
  return on_words(mask, radius,
                  [&](BitMask& b, BitScratch& s) { close(b, radius, el, s); });
}

image::Mask boundary_gradient(const image::Mask& mask) {
  return on_words(mask, 1, [](BitMask& b, BitScratch& s) {
    BitMask eroded = b;
    erode(eroded, 1, Element::kSquare, s);
    dilate(b, 1, Element::kSquare, s);
    for (std::int64_t y = 0; y < b.height(); ++y) {
      for (std::int64_t i = 0; i < b.words_per_row(); ++i) {
        b.row(y)[i] &= ~eroded.row(y)[i];
      }
    }
  });
}

}  // namespace zenesis::cv
