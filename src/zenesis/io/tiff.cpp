#include "zenesis/io/tiff.hpp"

#include <algorithm>
#include <cstring>
#include <fstream>
#include <limits>
#include <memory>
#include <type_traits>
#include <utility>

#include "zenesis/io/byte_source.hpp"
#include "zenesis/io/tiff_codec.hpp"
#include "zenesis/io/tiff_stream.hpp"

namespace zenesis::io {
namespace {

// Tag ids / constants mirrored from the parser (tiff_stream.cpp).
constexpr std::uint16_t kTagImageWidth = 256;
constexpr std::uint16_t kTagImageLength = 257;
constexpr std::uint16_t kTagBitsPerSample = 258;
constexpr std::uint16_t kTagCompression = 259;
constexpr std::uint16_t kTagPhotometric = 262;
constexpr std::uint16_t kTagStripOffsets = 273;
constexpr std::uint16_t kTagSamplesPerPixel = 277;
constexpr std::uint16_t kTagRowsPerStrip = 278;
constexpr std::uint16_t kTagStripByteCounts = 279;
constexpr std::uint16_t kTagPredictor = 317;
constexpr std::uint16_t kTagTileWidth = 322;
constexpr std::uint16_t kTagTileLength = 323;
constexpr std::uint16_t kTagTileOffsets = 324;
constexpr std::uint16_t kTagTileByteCounts = 325;
constexpr std::uint16_t kTagSampleFormat = 339;

constexpr std::uint16_t kTypeShort = 3;
constexpr std::uint16_t kTypeLong = 4;
constexpr std::uint16_t kTypeLong8 = 16;

/// PackBits (Apple RLE) compression: runs of >= 2 identical bytes become
/// run packets, everything else literal packets of <= 128 bytes.
std::vector<std::uint8_t> packbits_encode(const std::uint8_t* p,
                                          std::size_t n) {
  std::vector<std::uint8_t> out;
  out.reserve(n / 2 + 8);
  std::size_t i = 0;
  while (i < n) {
    std::size_t run = 1;
    while (i + run < n && p[i + run] == p[i] && run < 128) ++run;
    if (run >= 2) {
      out.push_back(static_cast<std::uint8_t>(257 - run));  // 1 - run, as i8
      out.push_back(p[i]);
      i += run;
      continue;
    }
    const std::size_t start = i;
    ++i;
    while (i < n && (i - start) < 128) {
      if (i + 1 < n && p[i] == p[i + 1]) break;  // a run starts here
      ++i;
    }
    out.push_back(static_cast<std::uint8_t>(i - start - 1));
    out.insert(out.end(), p + start, p + i);
  }
  return out;
}

/// Serializer with run-time endianness, BigTIFF awareness and the classic
/// 32-bit offset guard. Data segments are written first, then per-page
/// external arrays, then the IFD that references them.
class TiffWriter {
 public:
  explicit TiffWriter(const TiffWriteOptions& opts)
      : opts_(opts),
        be_(opts.big_endian),
        big_(opts.format == TiffFormat::kBigTiff) {}

  std::vector<std::uint8_t> write(const TiffStack& stack) {
    if (stack.pages.empty()) {
      throw TiffError(TiffErrorKind::kUnsupported, "write: empty stack", 0);
    }
    if ((opts_.layout == TiffLayout::kTiles &&
         (opts_.tile_width < 1 || opts_.tile_height < 1)) ||
        opts_.rows_per_strip < 0) {
      throw TiffError(TiffErrorKind::kUnsupported,
                      "write: invalid strip/tile geometry options", 0);
    }
    if (opts_.predictor != 1 && opts_.predictor != 2) {
      throw TiffError(TiffErrorKind::kUnsupported,
                      "write: predictor must be 1 (none) or 2 (horizontal)",
                      0);
    }
    out_.reserve(1024);
    out_.push_back(be_ ? 'M' : 'I');
    out_.push_back(be_ ? 'M' : 'I');
    put_u16(big_ ? 43 : 42);
    if (big_) {
      put_u16(8);  // offset size
      put_u16(0);  // reserved
    }
    std::uint64_t prev_next_ptr = out_.size();
    put_offset_raw(0);  // first-IFD pointer, patched below

    std::int64_t page_index = 0;
    for (const auto& page : stack.pages) {
      std::visit(
          [&](const auto& img) {
            using T = std::remove_cvref_t<decltype(img.at(0, 0))>;
            if constexpr (std::is_same_v<T, float>) {
              throw TiffError(TiffErrorKind::kUnsupported,
                              "write: float TIFF not supported; quantize first",
                              0, 0, page_index);
            } else {
              prev_next_ptr = write_page<T>(img, prev_next_ptr, page_index);
            }
          },
          page);
      ++page_index;
    }
    return std::move(out_);
  }

 private:
  template <typename T>
  std::uint64_t write_page(const image::Image<T>& img,
                           std::uint64_t prev_next_ptr,
                           std::int64_t page_index) {
    if (img.channels() != 1) {
      throw TiffError(TiffErrorKind::kUnsupported,
                      "write: grayscale pages only", 0, 0, page_index);
    }
    const std::int64_t w = img.width();
    const std::int64_t h = img.height();
    if (w < 1 || h < 1) {
      throw TiffError(TiffErrorKind::kUnsupported, "write: empty page", 0, 0,
                      page_index);
    }

    // --- pixel data, one segment at a time ---
    std::vector<std::uint64_t> seg_offsets, seg_counts;
    std::vector<std::uint8_t> raw;
    const bool tiled = opts_.layout == TiffLayout::kTiles;
    const std::int64_t rps =
        opts_.rows_per_strip > 0 ? std::min(opts_.rows_per_strip, h) : h;
    if (tiled) {
      const std::int64_t tw = opts_.tile_width;
      const std::int64_t th = opts_.tile_height;
      for (std::int64_t y0 = 0; y0 < h; y0 += th) {
        for (std::int64_t x0 = 0; x0 < w; x0 += tw) {
          raw.clear();
          for (std::int64_t r = 0; r < th; ++r) {
            for (std::int64_t ccol = 0; ccol < tw; ++ccol) {
              const std::int64_t x = x0 + ccol, y = y0 + r;
              put_sample<T>(raw, img.contains(x, y) ? img.at(x, y) : T{});
            }
          }
          append_segment(raw, tw, th, static_cast<int>(sizeof(T)),
                         seg_offsets, seg_counts, page_index);
        }
      }
    } else {
      for (std::int64_t y0 = 0; y0 < h; y0 += rps) {
        const std::int64_t rows = std::min(rps, h - y0);
        raw.clear();
        for (std::int64_t r = 0; r < rows; ++r) {
          for (std::int64_t x = 0; x < w; ++x) {
            put_sample<T>(raw, img.at(x, y0 + r));
          }
        }
        append_segment(raw, w, rows, static_cast<int>(sizeof(T)),
                       seg_offsets, seg_counts, page_index);
      }
    }
    if (out_.size() % 2 != 0) out_.push_back(0);  // word-align what follows

    // --- external offset/count arrays (when they don't fit inline) ---
    const std::uint64_t n_segs = seg_offsets.size();
    const std::uint64_t offsets_array =
        put_external_array(seg_offsets, page_index);
    const std::uint64_t counts_array =
        put_external_array(seg_counts, page_index);

    // --- the IFD, entries in ascending tag order ---
    const std::uint64_t ifd_off = out_.size();
    check_classic(ifd_off, page_index);
    patch_offset(prev_next_ptr, ifd_off);

    const bool predicted = opts_.predictor == 2;
    const std::uint16_t n_entries =
        static_cast<std::uint16_t>((tiled ? 11 : 10) + (predicted ? 1 : 0));
    if (big_) {
      put_u64(n_entries);
    } else {
      put_u16(n_entries);
    }
    const auto photometric = static_cast<std::uint64_t>(
        opts_.min_is_white ? 0 : 1);
    std::uint64_t compression = 1;
    switch (opts_.compression) {
      case TiffCompression::kNone: compression = 1; break;
      case TiffCompression::kPackBits: compression = 32773; break;
      case TiffCompression::kLzw: compression = 5; break;
      case TiffCompression::kDeflate: compression = 8; break;
    }
    put_entry_scalar(kTagImageWidth, kTypeLong, static_cast<std::uint64_t>(w),
                     page_index);
    put_entry_scalar(kTagImageLength, kTypeLong, static_cast<std::uint64_t>(h),
                     page_index);
    put_entry_scalar(kTagBitsPerSample, kTypeShort, sizeof(T) * 8, page_index);
    put_entry_scalar(kTagCompression, kTypeShort, compression, page_index);
    put_entry_scalar(kTagPhotometric, kTypeShort, photometric, page_index);
    if (!tiled) {
      put_entry_array(kTagStripOffsets, seg_offsets, offsets_array,
                      page_index);
    }
    put_entry_scalar(kTagSamplesPerPixel, kTypeShort, 1, page_index);
    if (!tiled) {
      put_entry_scalar(kTagRowsPerStrip, kTypeLong,
                       static_cast<std::uint64_t>(rps), page_index);
      put_entry_array(kTagStripByteCounts, seg_counts, counts_array,
                      page_index);
      if (predicted) {
        put_entry_scalar(kTagPredictor, kTypeShort, 2, page_index);
      }
    } else {
      if (predicted) {
        put_entry_scalar(kTagPredictor, kTypeShort, 2, page_index);
      }
      put_entry_scalar(kTagTileWidth, kTypeLong,
                       static_cast<std::uint64_t>(opts_.tile_width),
                       page_index);
      put_entry_scalar(kTagTileLength, kTypeLong,
                       static_cast<std::uint64_t>(opts_.tile_height),
                       page_index);
      put_entry_array(kTagTileOffsets, seg_offsets, offsets_array, page_index);
      put_entry_array(kTagTileByteCounts, seg_counts, counts_array,
                      page_index);
    }
    put_entry_scalar(kTagSampleFormat, kTypeShort, 1, page_index);
    (void)n_segs;

    const std::uint64_t next_ptr = out_.size();
    put_offset_raw(0);  // next IFD, patched by the following page (if any)
    return next_ptr;
  }

  template <typename T>
  void put_sample(std::vector<std::uint8_t>& buf, T v) const {
    auto u = static_cast<std::uint32_t>(v);
    if (opts_.min_is_white) {
      u = static_cast<std::uint32_t>(std::numeric_limits<T>::max()) - u;
    }
    if constexpr (sizeof(T) == 1) {
      buf.push_back(static_cast<std::uint8_t>(u));
    } else if constexpr (sizeof(T) == 2) {
      if (be_) {
        buf.push_back(static_cast<std::uint8_t>(u >> 8));
        buf.push_back(static_cast<std::uint8_t>(u & 0xFF));
      } else {
        buf.push_back(static_cast<std::uint8_t>(u & 0xFF));
        buf.push_back(static_cast<std::uint8_t>(u >> 8));
      }
    } else {
      if (be_) {
        for (int i = 3; i >= 0; --i) {
          buf.push_back(static_cast<std::uint8_t>((u >> (8 * i)) & 0xFF));
        }
      } else {
        for (int i = 0; i < 4; ++i) {
          buf.push_back(static_cast<std::uint8_t>((u >> (8 * i)) & 0xFF));
        }
      }
    }
  }

  /// Predictor (in place on `raw`) then codec, then emit. row_samples/
  /// rows/bps describe the segment geometry the predictor differences
  /// over (tile grid rows for tiles, image rows for strips).
  void append_segment(std::vector<std::uint8_t>& raw,
                      std::int64_t row_samples, std::int64_t rows, int bps,
                      std::vector<std::uint64_t>& offsets,
                      std::vector<std::uint64_t>& counts,
                      std::int64_t page_index) {
    const std::uint64_t off = out_.size();
    check_classic(off, page_index);
    if (opts_.predictor == 2) {
      codec::predictor_apply(raw.data(), row_samples, rows, bps, be_);
    }
    switch (opts_.compression) {
      case TiffCompression::kPackBits: {
        const std::vector<std::uint8_t> packed =
            packbits_encode(raw.data(), raw.size());
        out_.insert(out_.end(), packed.begin(), packed.end());
        counts.push_back(packed.size());
        break;
      }
      case TiffCompression::kLzw: {
        const std::vector<std::uint8_t> packed =
            codec::lzw_encode(raw.data(), raw.size());
        out_.insert(out_.end(), packed.begin(), packed.end());
        counts.push_back(packed.size());
        break;
      }
      case TiffCompression::kDeflate: {
        const std::vector<std::uint8_t> packed =
            codec::zlib_deflate(raw.data(), raw.size());
        out_.insert(out_.end(), packed.begin(), packed.end());
        counts.push_back(packed.size());
        break;
      }
      case TiffCompression::kNone:
        out_.insert(out_.end(), raw.begin(), raw.end());
        counts.push_back(raw.size());
        break;
    }
    offsets.push_back(off);
  }

  /// Writes `values` as an external LONG/LONG8 array when it does not fit
  /// the entry's inline field; returns the array offset (0 = inline).
  std::uint64_t put_external_array(const std::vector<std::uint64_t>& values,
                                   std::int64_t page_index) {
    const std::uint64_t elem = big_ ? 8 : 4;
    if (values.size() * elem <= (big_ ? 8u : 4u)) return 0;
    const std::uint64_t array_off = out_.size();
    check_classic(array_off, page_index);
    for (const std::uint64_t v : values) {
      if (big_) {
        put_u64(v);
      } else {
        check_classic(v, page_index);
        put_u32(static_cast<std::uint32_t>(v));
      }
    }
    return array_off;
  }

  void put_entry_header(std::uint16_t tag, std::uint16_t type,
                        std::uint64_t count) {
    put_u16(tag);
    put_u16(type);
    if (big_) {
      put_u64(count);
    } else {
      put_u32(static_cast<std::uint32_t>(count));
    }
  }

  /// count-1 SHORT/LONG entry with an inline value.
  void put_entry_scalar(std::uint16_t tag, std::uint16_t type,
                        std::uint64_t value, std::int64_t page_index) {
    if (value > 0xFFFFFFFFull ||
        (type == kTypeShort && value > 0xFFFFull)) {
      throw TiffError(TiffErrorKind::kLimitExceeded,
                      "write: tag value out of range", out_.size(), tag,
                      page_index);
    }
    put_entry_header(tag, type, 1);
    const std::size_t field = out_.size();
    if (type == kTypeShort) {
      put_u16(static_cast<std::uint16_t>(value));
    } else {
      put_u32(static_cast<std::uint32_t>(value));
    }
    pad_field(field);
  }

  /// Offset/count array entry: inline when it fits, else a pointer to the
  /// external array written earlier.
  void put_entry_array(std::uint16_t tag,
                       const std::vector<std::uint64_t>& values,
                       std::uint64_t array_off, std::int64_t page_index) {
    const std::uint16_t type = big_ ? kTypeLong8 : kTypeLong;
    put_entry_header(tag, type, values.size());
    const std::size_t field = out_.size();
    if (array_off == 0) {  // inline
      for (const std::uint64_t v : values) {
        if (big_) {
          put_u64(v);
        } else {
          check_classic(v, page_index);
          put_u32(static_cast<std::uint32_t>(v));
        }
      }
    } else {
      put_offset_raw(array_off);
    }
    pad_field(field);
  }

  /// Pads the entry value field to its fixed width (4 or 8 bytes).
  void pad_field(std::size_t field_start) {
    const std::size_t width = big_ ? 8 : 4;
    while (out_.size() - field_start < width) out_.push_back(0);
  }

  void check_classic(std::uint64_t off, std::int64_t page_index) const {
    if (!big_ && off > opts_.classic_offset_limit) {
      throw TiffError(
          TiffErrorKind::kLimitExceeded,
          "write: offset " + std::to_string(off) +
              " exceeds classic TIFF's 32-bit range; write with "
              "TiffFormat::kBigTiff",
          off, 0, page_index);
    }
  }

  void put_u16(std::uint16_t v) {
    if (be_) {
      out_.push_back(static_cast<std::uint8_t>(v >> 8));
      out_.push_back(static_cast<std::uint8_t>(v & 0xFF));
    } else {
      out_.push_back(static_cast<std::uint8_t>(v & 0xFF));
      out_.push_back(static_cast<std::uint8_t>(v >> 8));
    }
  }
  void put_u32(std::uint32_t v) {
    if (be_) {
      for (int i = 3; i >= 0; --i) {
        out_.push_back(static_cast<std::uint8_t>((v >> (8 * i)) & 0xFF));
      }
    } else {
      for (int i = 0; i < 4; ++i) {
        out_.push_back(static_cast<std::uint8_t>((v >> (8 * i)) & 0xFF));
      }
    }
  }
  void put_u64(std::uint64_t v) {
    if (be_) {
      for (int i = 7; i >= 0; --i) {
        out_.push_back(static_cast<std::uint8_t>((v >> (8 * i)) & 0xFF));
      }
    } else {
      for (int i = 0; i < 8; ++i) {
        out_.push_back(static_cast<std::uint8_t>((v >> (8 * i)) & 0xFF));
      }
    }
  }
  /// Appends an offset-sized field (u32 classic / u64 BigTIFF).
  void put_offset_raw(std::uint64_t v) {
    if (big_) {
      put_u64(v);
    } else {
      put_u32(static_cast<std::uint32_t>(v));
    }
  }
  /// Rewrites the offset-sized field at `pos` (IFD chain patching).
  void patch_offset(std::uint64_t pos, std::uint64_t value) {
    std::uint8_t buf[8];
    const int n = big_ ? 8 : 4;
    for (int i = 0; i < n; ++i) {
      const int shift = be_ ? 8 * (n - 1 - i) : 8 * i;
      buf[i] = static_cast<std::uint8_t>((value >> shift) & 0xFF);
    }
    std::memcpy(out_.data() + pos, buf, static_cast<std::size_t>(n));
  }

  TiffWriteOptions opts_;
  bool be_;
  bool big_;
  std::vector<std::uint8_t> out_;
};

/// Non-owning ByteSource so read_tiff_bytes avoids copying its input;
/// view() makes decode zero-copy over the caller's buffer.
class SpanByteSource final : public ByteSource {
 public:
  explicit SpanByteSource(const std::vector<std::uint8_t>& bytes)
      : bytes_(bytes) {}
  std::uint64_t size() const override { return bytes_.size(); }
  void read_at(std::uint64_t off, std::uint8_t* dst,
               std::size_t n) const override {
    if (off > bytes_.size() || n > bytes_.size() - off) {
      throw TiffError(TiffErrorKind::kTruncated, "read past end of data", off);
    }
    if (n == 0) return;  // dst may be null for an empty segment
    std::memcpy(dst, bytes_.data() + off, n);
  }
  std::span<const std::uint8_t> view(std::uint64_t off,
                                     std::size_t n) const override {
    if (off > bytes_.size() || n > bytes_.size() - off) {
      throw TiffError(TiffErrorKind::kTruncated, "view past end of data", off);
    }
    return {bytes_.data() + off, n};
  }

 private:
  const std::vector<std::uint8_t>& bytes_;
};

TiffStack materialize(std::shared_ptr<const ByteSource> src,
                      const TiffReadLimits& limits) {
  const TiffVolumeReader reader = TiffVolumeReader::open(std::move(src), limits);
  // Cumulative allocation bound: a thousand-page stack of limit-sized
  // pages must not exceed the decoded-bytes budget just because each page
  // individually fits.
  std::uint64_t total = 0;
  for (std::int64_t i = 0; i < reader.pages(); ++i) {
    const std::uint64_t page_bytes = reader.page_info(i).decoded_bytes();
    if (page_bytes > limits.max_decoded_bytes - total) {
      throw TiffError(TiffErrorKind::kLimitExceeded,
                      "cumulative decoded size exceeds limit " +
                          std::to_string(limits.max_decoded_bytes),
                      0, 0, i);
    }
    total += page_bytes;
  }
  TiffStack stack;
  stack.pages.reserve(static_cast<std::size_t>(reader.pages()));
  for (std::int64_t i = 0; i < reader.pages(); ++i) {
    stack.pages.push_back(reader.read_page(i));
  }
  return stack;
}

}  // namespace

TiffStack read_tiff_bytes(const std::vector<std::uint8_t>& bytes,
                          const TiffReadLimits& limits) {
  return materialize(std::make_shared<SpanByteSource>(bytes), limits);
}

TiffStack read_tiff(const std::string& path, const TiffReadLimits& limits) {
  return materialize(std::make_shared<PreadByteSource>(path), limits);
}

std::vector<std::uint8_t> write_tiff_bytes(const TiffStack& stack,
                                           const TiffWriteOptions& options) {
  return TiffWriter(options).write(stack);
}

void write_tiff(const std::string& path, const TiffStack& stack,
                const TiffWriteOptions& options) {
  const auto bytes = write_tiff_bytes(stack, options);
  std::ofstream f(path, std::ios::binary);
  if (!f) throw std::runtime_error("tiff: cannot create " + path);
  f.write(reinterpret_cast<const char*>(bytes.data()),
          static_cast<std::streamsize>(bytes.size()));
  if (!f) throw std::runtime_error("tiff: write failed for " + path);
}

void write_volume_tiff(const std::string& path, const image::VolumeU16& vol,
                       const TiffWriteOptions& options) {
  TiffStack stack;
  for (std::int64_t z = 0; z < vol.depth(); ++z) {
    stack.pages.emplace_back(vol.slice(z));
  }
  write_tiff(path, stack, options);
}

image::VolumeU16 read_volume_tiff_u16(const std::string& path,
                                      const TiffReadLimits& limits) {
  const TiffStack stack = read_tiff(path, limits);
  image::VolumeU16 vol;
  for (const auto& page : stack.pages) {
    const auto* img = std::get_if<image::ImageU16>(&page);
    if (img == nullptr) {
      throw TiffError(TiffErrorKind::kUnsupported,
                      "read_volume: 16-bit pages expected", 0);
    }
    vol.push_slice(*img);
  }
  return vol;
}

}  // namespace zenesis::io
