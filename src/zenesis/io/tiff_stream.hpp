#pragma once
// Streaming TIFF access: parse every IFD once, decode slices on demand.
//
// Real electron-microscopy stacks are multi-gigabyte, tiled, often
// compressed TIFFs. Materializing such a file (read_tiff) costs
// O(file size) memory; TiffVolumeReader costs O(metadata) + one slice
// per read_page call, which is what lets Mode B stream a stack through
// segment_volume instead of holding it whole. The reader is safe to
// share across the volume pipeline's worker threads: decoding allocates
// per call and every ByteSource implementation is lock-free
// thread-safe (positioned reads or immutable mappings).
//
// Opening goes through one front door:
//
//   auto reader = TiffVolumeReader::open(path, TiffOpenOptions{...});
//
// TiffOpenOptions picks the byte source (mmap for zero-copy streaming,
// pread for portability, memory to slurp the file — kAuto resolves via
// ZENESIS_TIFF_SOURCE and platform support), carries the read limits,
// and toggles madvise prefetch hints.
//
// Format coverage (read): classic TIFF and BigTIFF (version 43), little-
// and big-endian, strip and tile layouts, uncompressed, PackBits, LZW
// and Deflate/zlib (tags 8 + 32946) compression, horizontal predictor,
// 8/16/32-bit unsigned grayscale, Photometric BlackIsZero and
// MinIsWhite (inverted on decode so callers always see
// "bright = signal"). Palette and RGB pages are rejected with
// TiffError{kUnsupported}.

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "zenesis/image/image.hpp"
#include "zenesis/io/byte_source.hpp"
#include "zenesis/io/tiff_error.hpp"

namespace zenesis::io {

/// Which ByteSource TiffVolumeReader::open(path, ...) builds.
enum class TiffSourceKind {
  kAuto,    ///< ZENESIS_TIFF_SOURCE env if set, else mmap, else pread
  kMemory,  ///< slurp the whole file into a MemoryByteSource
  kPread,   ///< PreadByteSource (positioned reads, no mapping)
  kMmap,    ///< MmapByteSource (zero-copy views; falls back to pread
            ///< with a warn-once message where mmap is unsupported)
};

const char* to_string(TiffSourceKind kind) noexcept;

/// Parses "auto" | "memory" | "pread" | "mmap"; nullopt otherwise.
std::optional<TiffSourceKind> parse_source_kind(std::string_view name);

/// Resolves a selector string against the known kinds, mirroring the
/// ZENESIS_KERNEL / ZENESIS_PRECISION contract: an unknown value falls
/// back to kAuto and describes itself in *warning (set to empty when
/// the value was valid). Pure function, testable without the env.
TiffSourceKind resolve_tiff_source_selector(std::string_view value,
                                            std::string* warning);

/// The process-default source kind: ZENESIS_TIFF_SOURCE when set (read
/// once; an invalid value warns once on stderr and falls back), else
/// kMmap where supported, else kPread. Never returns kAuto.
TiffSourceKind default_source_kind();

/// Everything TiffVolumeReader::open needs beyond the path/bytes: the
/// byte-source choice, the untrusted-input limits and the prefetch
/// toggle for mmap madvise hints.
struct TiffOpenOptions {
  TiffSourceKind source_kind = TiffSourceKind::kAuto;
  TiffReadLimits limits{};
  /// madvise(SEQUENTIAL|WILLNEED) on mmap sources — the right hint for
  /// front-to-back volume streaming; disable for sparse page access.
  bool prefetch = true;
};

/// Parsed per-page metadata: everything decode needs, nothing decoded.
/// All fields are validated (limits, overflow, in-bounds) at parse time.
struct TiffPageInfo {
  std::int64_t width = 0;
  std::int64_t height = 0;
  int bits = 8;                 ///< 8, 16 or 32
  int compression = 1;          ///< 1=none, 5=LZW, 8/32946=Deflate,
                                ///< 32773=PackBits
  int predictor = 1;            ///< 1 = none, 2 = horizontal differencing
  int photometric = 1;          ///< 0 = MinIsWhite, 1 = BlackIsZero
  bool big_endian = false;      ///< byte order of multi-byte samples
  bool tiled = false;
  std::int64_t rows_per_strip = 0;  ///< strip layout
  std::int64_t tile_width = 0;      ///< tile layout
  std::int64_t tile_height = 0;
  /// One entry per strip (striped) or per tile (tiled), row-major.
  std::vector<std::uint64_t> segment_offsets;
  std::vector<std::uint64_t> segment_counts;

  std::uint64_t decoded_bytes() const noexcept {
    return static_cast<std::uint64_t>(width) *
           static_cast<std::uint64_t>(height) *
           static_cast<std::uint64_t>(bits / 8);
  }
};

/// Streaming multi-page reader: open() parses and validates every IFD
/// (cycle-safe, limit-enforced); read_page decodes one slice with
/// bounded memory. const methods are safe to call concurrently.
class TiffVolumeReader {
 public:
  /// Opens a file without reading pixel data; the byte source is
  /// picked per options.source_kind (see TiffSourceKind).
  static TiffVolumeReader open(const std::string& path,
                               const TiffOpenOptions& options = {});
  /// Parses an in-memory TIFF (tests, network buffers); always a
  /// MemoryByteSource regardless of options.source_kind.
  static TiffVolumeReader open(std::vector<std::uint8_t> bytes,
                               const TiffOpenOptions& options = {});
  /// Parses from a caller-provided source (object store, test double).
  static TiffVolumeReader open(std::shared_ptr<const ByteSource> source,
                               const TiffOpenOptions& options = {});

  std::int64_t pages() const noexcept {
    return static_cast<std::int64_t>(pages_.size());
  }
  const TiffPageInfo& page_info(std::int64_t page) const;
  std::int64_t width(std::int64_t page = 0) const { return page_info(page).width; }
  std::int64_t height(std::int64_t page = 0) const { return page_info(page).height; }
  int bit_depth(std::int64_t page = 0) const { return page_info(page).bits; }

  /// True when every page has identical width/height/bit depth (what the
  /// volume pipeline requires).
  bool uniform_geometry() const noexcept;
  /// Throws TiffError{kUnsupported} unless uniform_geometry().
  void require_uniform_geometry() const;

  /// Decodes one page. Thread-safe; allocates only this page (plus a
  /// transient compressed-segment buffer on non-view sources).
  image::AnyImage read_page(std::int64_t page) const;
  /// Decodes one page as 16-bit; throws TiffError{kUnsupported} for
  /// other depths.
  image::ImageU16 read_page_u16(std::int64_t page) const;

  /// Materializes all pages as a 16-bit volume, decoding them in
  /// parallel on the global ThreadPool (convenience; defeats
  /// streaming, cumulative size still checked against the limits).
  image::VolumeU16 read_volume_u16() const;

  const TiffReadLimits& limits() const noexcept { return limits_; }
  /// The concrete source kind this reader ended up with (kAuto and
  /// unsupported-mmap fallbacks resolved); kMemory for byte/source
  /// opens.
  TiffSourceKind source_kind() const noexcept { return resolved_kind_; }

 private:
  TiffVolumeReader(std::shared_ptr<const ByteSource> source,
                   const TiffOpenOptions& options, TiffSourceKind resolved);

  std::shared_ptr<const ByteSource> source_;
  TiffReadLimits limits_;
  TiffSourceKind resolved_kind_ = TiffSourceKind::kMemory;
  std::vector<TiffPageInfo> pages_;
};

}  // namespace zenesis::io
