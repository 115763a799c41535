#include "zenesis/cv/bitmask.hpp"

#include <algorithm>
#include <bit>
#include <cstring>
#include <numeric>
#include <stdexcept>
#include <utility>

namespace zenesis::cv {
namespace {

constexpr std::uint64_t kAll = ~std::uint64_t{0};
constexpr std::uint64_t kLowBits = 0x0101010101010101ull;  ///< bit 0 of every byte

// pack() and unpack() move eight pixels through one word with byte i
// as pixel i.
static_assert(std::endian::native == std::endian::little);

/// Half-width of the element's row at vertical offset dy.
int half_width(int radius, int dy, Element el) {
  if (el == Element::kSquare) return radius;
  const std::int64_t rest = static_cast<std::int64_t>(radius) * radius -
                            static_cast<std::int64_t>(dy) * dy;
  int k = 0;
  while (static_cast<std::int64_t>(k + 1) * (k + 1) <= rest) ++k;
  return k;
}

/// Word i of an n-word row seen shifted by d pixels: bit j holds pixel
/// 64·i + j + d, zero where that pixel is off the row. Every shift
/// amount stays in [1, 63].
std::uint64_t shifted_word(const std::uint64_t* row, std::int64_t n, std::int64_t i,
                           std::int64_t d) {
  const std::int64_t q = i + (d >> 6);
  const int b = static_cast<int>(d & 63);
  const std::uint64_t lo = q >= 0 && q < n ? row[q] : 0;
  if (b == 0) return lo;
  const std::uint64_t hi = q + 1 >= 0 && q + 1 < n ? row[q + 1] : 0;
  return (lo >> b) | (hi << (64 - b));
}

/// Dilation ORs and erosion ANDs the element's taps, each tap one whole
/// row of shifted words; a tap off the top or bottom is background.
template <bool kDilate>
void morph(BitMask& mask, int radius, Element el, BitScratch& scratch) {
  if (radius < 0) throw std::invalid_argument("morphology: negative radius");
  if (radius == 0) return;
  const std::int64_t w = mask.width(), h = mask.height(), n = mask.words_per_row();
  if (n == 0) return;
  const std::uint64_t tail = w % 64 == 0 ? kAll : (std::uint64_t{1} << (w % 64)) - 1;
  BitMask& out = scratch.spare;
  out.resize(w, h);
  for (std::int64_t y = 0; y < h; ++y) {
    std::uint64_t* dst = out.row(y);
    if constexpr (!kDilate) std::fill(dst, dst + n, kAll);
    for (int dy = -radius; dy <= radius; ++dy) {
      if (y + dy < 0 || y + dy >= h) {
        if constexpr (kDilate) continue;
        std::fill(dst, dst + n, 0);
        break;
      }
      const std::uint64_t* src = mask.row(y + dy);
      const int k = half_width(radius, dy, el);
      for (int dx = -k; dx <= k; ++dx) {
        for (std::int64_t i = 0; i < n; ++i) {
          if constexpr (kDilate) {
            dst[i] |= shifted_word(src, n, i, dx);
          } else {
            dst[i] &= shifted_word(src, n, i, dx);
          }
        }
      }
    }
    dst[n - 1] &= tail;
  }
  std::swap(mask, out);
}

/// The runs of `value` bits of every row, in raster order. A run starts
/// and ends at the set bits of b ^ (b << 1), walked with countr_zero.
void collect_runs(const BitMask& mask, bool value, BitScratch& s) {
  const std::int64_t w = mask.width(), h = mask.height(), n = mask.words_per_row();
  const std::uint64_t flip = value ? 0 : kAll;
  const std::uint64_t tail = w % 64 == 0 ? kAll : (std::uint64_t{1} << (w % 64)) - 1;
  s.runs.clear();
  s.row_start.resize(static_cast<std::size_t>(h + 1));
  for (std::int64_t y = 0; y < h; ++y) {
    s.row_start[static_cast<std::size_t>(y)] = static_cast<std::int32_t>(s.runs.size());
    const std::uint64_t* row = mask.row(y);
    std::uint64_t carry = 0;  // the previous word's last bit
    std::int32_t start = -1;  // start of the open run, if any
    for (std::int64_t i = 0; i < n; ++i) {
      const std::uint64_t b = (row[i] ^ flip) & (i + 1 == n ? tail : kAll);
      for (std::uint64_t edges = b ^ ((b << 1) | carry); edges != 0; edges &= edges - 1) {
        const auto x = static_cast<std::int32_t>((i << 6) + std::countr_zero(edges));
        if (start < 0) {
          start = x;
        } else {
          s.runs.push_back({start, x});
          start = -1;
        }
      }
      carry = b >> 63;
    }
    if (start >= 0) s.runs.push_back({start, static_cast<std::int32_t>(w)});
  }
  s.row_start[static_cast<std::size_t>(h)] = static_cast<std::int32_t>(s.runs.size());
}

std::int32_t find_root(std::vector<std::int32_t>& parent, std::int32_t x) {
  while (parent[static_cast<std::size_t>(x)] != x) {
    auto& p = parent[static_cast<std::size_t>(x)];
    p = parent[static_cast<std::size_t>(p)];
    x = p;
  }
  return x;
}

void unite(std::vector<std::int32_t>& parent, std::int32_t a, std::int32_t b) {
  a = find_root(parent, a);
  b = find_root(parent, b);
  if (a != b) parent[static_cast<std::size_t>(std::max(a, b))] = std::min(a, b);
}

/// Unites the runs of consecutive rows that touch: sharing a column
/// (4-connectivity, slack 0) or also diagonally (8-connectivity, slack
/// 1). Both rows are sorted, so a merge-style sweep finds every pair.
void link_rows(BitScratch& s, std::int64_t h, std::int32_t slack) {
  for (std::int64_t y = 1; y < h; ++y) {
    std::int32_t a = s.row_start[static_cast<std::size_t>(y - 1)];
    std::int32_t b = s.row_start[static_cast<std::size_t>(y)];
    const std::int32_t a_end = b, b_end = s.row_start[static_cast<std::size_t>(y + 1)];
    while (a < a_end && b < b_end) {
      const BitRun& up = s.runs[static_cast<std::size_t>(a)];
      const BitRun& cur = s.runs[static_cast<std::size_t>(b)];
      if (up.x0 < cur.x1 + slack && cur.x0 < up.x1 + slack) unite(s.parent, a, b);
      if (up.x1 < cur.x1) {
        ++a;
      } else {
        ++b;
      }
    }
  }
}

/// Sets (or clears) the bits [x0, x1) of a row.
void fill_range(std::uint64_t* row, std::int64_t x0, std::int64_t x1, bool value) {
  while (x0 < x1) {
    const int b = static_cast<int>(x0 & 63);
    const std::int64_t len = std::min<std::int64_t>(64 - b, x1 - x0);
    const std::uint64_t bits = (len == 64 ? kAll : (std::uint64_t{1} << len) - 1) << b;
    if (value) {
      row[x0 >> 6] |= bits;
    } else {
      row[x0 >> 6] &= ~bits;
    }
    x0 += len;
  }
}

}  // namespace

BitMask::BitMask(const image::Mask& mask) {
  pack(mask, mask.width(), mask.height(), {0, 0});
}

void BitMask::resize(std::int64_t width, std::int64_t height) {
  if (width < 0 || height < 0) throw std::invalid_argument("BitMask: negative size");
  width_ = width;
  height_ = height;
  words_ = (width + 63) / 64;
  bits_.assign(static_cast<std::size_t>(words_ * height), 0);
}

void BitMask::pack(const image::Mask& patch, std::int64_t width, std::int64_t height,
                   image::Point at) {
  resize(width, height);
  const std::int64_t x_begin = std::max<std::int64_t>(0, at.x);
  const std::int64_t x_end = std::min(width, at.x + patch.width());
  const std::int64_t y_begin = std::max<std::int64_t>(0, at.y);
  const std::int64_t y_end = std::min(height, at.y + patch.height());
  for (std::int64_t y = y_begin; y < y_end; ++y) {
    const std::uint8_t* src = patch.pixels().data() + (y - at.y) * patch.width();
    std::uint64_t* dst = row(y);
    // Whole groups of eight collect in a register that is flushed when
    // a group reaches the end of its word (the bits past it carry over).
    std::int64_t x = x_begin, word = x_begin >> 6;
    std::uint64_t acc = 0;
    for (; x + 8 <= x_end; x += 8) {
      // Eight bytes → eight bits: fold each byte onto its low bit, then
      // gather the low bits into the top byte with one multiply.
      std::uint64_t v;
      std::memcpy(&v, src + (x - at.x), 8);
      v |= v >> 4;
      v |= v >> 2;
      v |= v >> 1;
      const std::uint64_t bits = ((v & kLowBits) * 0x0102040810204080ull) >> 56;
      const int b = static_cast<int>(x & 63);
      acc |= bits << b;
      if (b >= 56) {
        dst[word++] |= acc;
        acc = b > 56 ? bits >> (64 - b) : 0;
      }
    }
    if (acc != 0) dst[word] |= acc;
    for (; x < x_end; ++x) {
      dst[x >> 6] |= static_cast<std::uint64_t>(src[x - at.x] != 0) << (x & 63);
    }
  }
}

image::Mask BitMask::unpack() const {
  image::Mask out(width_, height_);
  for (std::int64_t y = 0; y < height_; ++y) {
    std::uint8_t* dst = out.pixels().data() + y * width_;
    const std::uint64_t* src = row(y);
    std::int64_t x = 0;
    for (; x + 8 <= width_; x += 8) {
      // Eight bits → eight 0/1 bytes: byte i keeps bit i of the
      // replicated group, and adding 0x7f carries it into the byte's top.
      const std::uint64_t bits = (src[x >> 6] >> (x & 63)) & 0xff;
      const std::uint64_t spread =
          ((((bits * kLowBits) & 0x8040201008040201ull) + 0x7f7f7f7f7f7f7f7full) >> 7) &
          kLowBits;
      std::memcpy(dst + x, &spread, 8);
    }
    for (; x < width_; ++x) {
      dst[x] = static_cast<std::uint8_t>((src[x >> 6] >> (x & 63)) & 1);
    }
  }
  return out;
}


std::int64_t BitMask::count() const noexcept {
  std::int64_t n = 0;
  for (const std::uint64_t word : bits_) n += std::popcount(word);
  return n;
}

void dilate(BitMask& mask, int radius, Element el, BitScratch& scratch) {
  morph<true>(mask, radius, el, scratch);
}

void erode(BitMask& mask, int radius, Element el, BitScratch& scratch) {
  morph<false>(mask, radius, el, scratch);
}

void close(BitMask& mask, int radius, Element el, BitScratch& scratch) {
  dilate(mask, radius, el, scratch);
  erode(mask, radius, el, scratch);
}

void fill_holes(BitMask& mask, BitScratch& s) {
  // A hole is a background region that never reaches the border: unite
  // the background runs of touching rows, and the border runs with one
  // extra node; every run outside that node's set is filled.
  const std::int64_t w = mask.width(), h = mask.height();
  collect_runs(mask, false, s);
  const auto border = static_cast<std::int32_t>(s.runs.size());
  s.parent.resize(static_cast<std::size_t>(border) + 1);
  std::iota(s.parent.begin(), s.parent.end(), 0);
  for (std::int64_t y = 0; y < h; ++y) {
    for (std::int32_t r = s.row_start[static_cast<std::size_t>(y)];
         r < s.row_start[static_cast<std::size_t>(y + 1)]; ++r) {
      const BitRun& run = s.runs[static_cast<std::size_t>(r)];
      if (y == 0 || y == h - 1 || run.x0 == 0 || run.x1 == w) unite(s.parent, r, border);
    }
  }
  link_rows(s, h, 0);
  const std::int32_t outside = find_root(s.parent, border);
  for (std::int64_t y = 0; y < h; ++y) {
    for (std::int32_t r = s.row_start[static_cast<std::size_t>(y)];
         r < s.row_start[static_cast<std::size_t>(y + 1)]; ++r) {
      if (find_root(s.parent, r) == outside) continue;
      const BitRun& run = s.runs[static_cast<std::size_t>(r)];
      fill_range(mask.row(y), run.x0, run.x1, true);
    }
  }
}

void remove_small_components(BitMask& mask, std::int64_t min_area, BitScratch& s) {
  if (min_area <= 1) return;  // every component has at least one pixel
  const std::int64_t h = mask.height();
  collect_runs(mask, true, s);
  s.parent.resize(s.runs.size());
  std::iota(s.parent.begin(), s.parent.end(), 0);
  link_rows(s, h, 1);
  s.area.assign(s.runs.size(), 0);
  for (std::size_t r = 0; r < s.runs.size(); ++r) {
    s.area[static_cast<std::size_t>(find_root(s.parent, static_cast<std::int32_t>(r)))] +=
        s.runs[r].x1 - s.runs[r].x0;
  }
  for (std::int64_t y = 0; y < h; ++y) {
    for (std::int32_t r = s.row_start[static_cast<std::size_t>(y)];
         r < s.row_start[static_cast<std::size_t>(y + 1)]; ++r) {
      if (s.area[static_cast<std::size_t>(find_root(s.parent, r))] >= min_area) continue;
      const BitRun& run = s.runs[static_cast<std::size_t>(r)];
      fill_range(mask.row(y), run.x0, run.x1, false);
    }
  }
}

void clean_mask(BitMask& out, const image::Mask& patch, std::int64_t width,
                std::int64_t height, image::Point at, int radius,
                std::int64_t min_area, BitScratch& scratch) {
  out.pack(patch, width, height, at);
  close(out, radius, Element::kDisk, scratch);
  fill_holes(out, scratch);
  remove_small_components(out, min_area, scratch);
}

double mask_iou(const BitMask& a, const BitMask& b) {
  if (a.width() != b.width() || a.height() != b.height()) {
    throw std::invalid_argument("mask_iou: size mismatch");
  }
  std::int64_t inter = 0, uni = 0;
  for (std::int64_t y = 0; y < a.height(); ++y) {
    const std::uint64_t* ra = a.row(y);
    const std::uint64_t* rb = b.row(y);
    for (std::int64_t i = 0; i < a.words_per_row(); ++i) {
      inter += std::popcount(ra[i] & rb[i]);
      uni += std::popcount(ra[i] | rb[i]);
    }
  }
  return uni == 0 ? 1.0 : static_cast<double>(inter) / static_cast<double>(uni);
}

}  // namespace zenesis::cv
