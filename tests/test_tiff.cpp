// TIFF reader/writer tests: round trips, multi-page, malformed input.
#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>

#include "zenesis/io/tiff.hpp"

namespace zio = zenesis::io;
namespace zi = zenesis::image;

namespace {

zi::ImageU16 ramp_u16(std::int64_t w, std::int64_t h, std::uint16_t base) {
  zi::ImageU16 img(w, h, 1);
  for (std::int64_t y = 0; y < h; ++y) {
    for (std::int64_t x = 0; x < w; ++x) {
      img.at(x, y) = static_cast<std::uint16_t>(base + y * w + x);
    }
  }
  return img;
}

std::string temp_path(const char* name) {
  return (std::filesystem::temp_directory_path() / name).string();
}

}  // namespace

TEST(Tiff, RoundTripU16InMemory) {
  zio::TiffStack stack;
  stack.pages.emplace_back(ramp_u16(7, 5, 1000));
  const auto bytes = zio::write_tiff_bytes(stack);
  const zio::TiffStack back = zio::read_tiff_bytes(bytes);
  ASSERT_EQ(back.pages.size(), 1u);
  const auto& img = std::get<zi::ImageU16>(back.pages[0]);
  EXPECT_EQ(img.width(), 7);
  EXPECT_EQ(img.height(), 5);
  EXPECT_EQ(img.at(3, 2), 1000 + 2 * 7 + 3);
}

TEST(Tiff, RoundTripU8) {
  zi::ImageU8 img(3, 3, 1);
  img.at(1, 1) = 200;
  zio::TiffStack stack;
  stack.pages.emplace_back(img);
  const zio::TiffStack back = zio::read_tiff_bytes(zio::write_tiff_bytes(stack));
  EXPECT_EQ(std::get<zi::ImageU8>(back.pages[0]).at(1, 1), 200);
}

TEST(Tiff, RoundTripU32) {
  zi::ImageU32 img(2, 2, 1);
  img.at(1, 0) = 4000000000u;
  zio::TiffStack stack;
  stack.pages.emplace_back(img);
  const zio::TiffStack back = zio::read_tiff_bytes(zio::write_tiff_bytes(stack));
  EXPECT_EQ(std::get<zi::ImageU32>(back.pages[0]).at(1, 0), 4000000000u);
}

TEST(Tiff, MultiPageOrderPreserved) {
  zio::TiffStack stack;
  for (std::uint16_t z = 0; z < 5; ++z) {
    stack.pages.emplace_back(ramp_u16(4, 4, static_cast<std::uint16_t>(z * 100)));
  }
  const zio::TiffStack back = zio::read_tiff_bytes(zio::write_tiff_bytes(stack));
  ASSERT_EQ(back.pages.size(), 5u);
  for (std::uint16_t z = 0; z < 5; ++z) {
    EXPECT_EQ(std::get<zi::ImageU16>(back.pages[z]).at(0, 0), z * 100);
  }
}

TEST(Tiff, FileRoundTripVolume) {
  const std::string path = temp_path("zenesis_test_volume.tif");
  zi::VolumeU16 vol(6, 4, 3);
  vol.slice(2).at(5, 3) = 12345;
  zio::write_volume_tiff(path, vol);
  const zi::VolumeU16 back = zio::read_volume_tiff_u16(path);
  EXPECT_EQ(back.depth(), 3);
  EXPECT_EQ(back.slice(2).at(5, 3), 12345);
  std::remove(path.c_str());
}

TEST(Tiff, RejectsGarbage) {
  EXPECT_THROW(zio::read_tiff_bytes({1, 2, 3}), std::runtime_error);
  std::vector<std::uint8_t> bad = {'X', 'X', 42, 0, 8, 0, 0, 0};
  EXPECT_THROW(zio::read_tiff_bytes(bad), std::runtime_error);
}

TEST(Tiff, RejectsBadMagic) {
  std::vector<std::uint8_t> bad = {'I', 'I', 43, 0, 8, 0, 0, 0};
  EXPECT_THROW(zio::read_tiff_bytes(bad), std::runtime_error);
}

TEST(Tiff, RejectsTruncatedStrip) {
  zio::TiffStack stack;
  stack.pages.emplace_back(ramp_u16(8, 8, 0));
  auto bytes = zio::write_tiff_bytes(stack);
  bytes.resize(40);  // keep the header, drop pixel data and IFD
  EXPECT_THROW(zio::read_tiff_bytes(bytes), std::runtime_error);
}

TEST(Tiff, EmptyStackWriteThrows) {
  EXPECT_THROW(zio::write_tiff_bytes({}), std::runtime_error);
}

TEST(Tiff, MissingFileThrows) {
  EXPECT_THROW(zio::read_tiff("/nonexistent/nowhere.tif"), std::runtime_error);
}

TEST(Tiff, BigEndianHeaderParses) {
  // Hand-built big-endian single-strip 8-bit 2x1 image.
  std::vector<std::uint8_t> be = {
      'M', 'M', 0, 42, 0, 0, 0, 10,  // header: IFD at offset 10
      0xAB, 0xCD,                    // pixel data at offset 8 (2 bytes)
      0, 8,                          // 8 entries
  };
  auto entry = [&](std::uint16_t tag, std::uint16_t type, std::uint32_t count,
                   std::uint32_t value) {
    be.push_back(static_cast<std::uint8_t>(tag >> 8));
    be.push_back(static_cast<std::uint8_t>(tag & 0xFF));
    be.push_back(static_cast<std::uint8_t>(type >> 8));
    be.push_back(static_cast<std::uint8_t>(type & 0xFF));
    for (int i = 3; i >= 0; --i) be.push_back(static_cast<std::uint8_t>((count >> (8 * i)) & 0xFF));
    if (type == 3) {  // SHORT: value left-justified in the 4-byte field
      be.push_back(static_cast<std::uint8_t>((value >> 8) & 0xFF));
      be.push_back(static_cast<std::uint8_t>(value & 0xFF));
      be.push_back(0);
      be.push_back(0);
    } else {
      for (int i = 3; i >= 0; --i) {
        be.push_back(static_cast<std::uint8_t>((value >> (8 * i)) & 0xFF));
      }
    }
  };
  entry(256, 4, 1, 2);   // width
  entry(257, 4, 1, 1);   // height
  entry(258, 3, 1, 8);   // bits
  entry(259, 3, 1, 1);   // compression: none
  entry(273, 4, 1, 8);   // strip offset
  entry(277, 3, 1, 1);   // samples per pixel
  entry(278, 4, 1, 1);   // rows per strip
  entry(279, 4, 1, 2);   // strip byte count
  be.push_back(0); be.push_back(0); be.push_back(0); be.push_back(0);  // next IFD

  const zio::TiffStack stack = zio::read_tiff_bytes(be);
  const auto& img = std::get<zi::ImageU8>(stack.pages.at(0));
  EXPECT_EQ(img.at(0, 0), 0xAB);
  EXPECT_EQ(img.at(1, 0), 0xCD);
}

// ---------------------------------------------------------------------------
// ISSUE-4 hardening: error taxonomy, overflow guards, IFD cycles,
// photometric handling, and the parameterized format sweep.
// ---------------------------------------------------------------------------

#include <memory>
#include <tuple>
#include <utility>
#include <vector>

#include "zenesis/io/tiff_stream.hpp"

namespace {

/// Hand-built little-endian classic file: 2x1 8-bit single strip, with
/// injectable width/height/photometric so tests can craft inputs the
/// writer (correctly) refuses to produce.
std::vector<std::uint8_t> crafted_le_classic(std::uint32_t width,
                                             std::uint32_t height,
                                             std::uint16_t photometric) {
  std::vector<std::uint8_t> b = {
      'I', 'I', 42, 0, 10, 0, 0, 0,  // header: IFD at offset 10
      0xAB, 0xCD,                    // pixel data at offset 8
      9, 0,                          // 9 entries
  };
  auto put32 = [&](std::uint32_t v) {
    for (int i = 0; i < 4; ++i) b.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
  };
  auto entry = [&](std::uint16_t tag, std::uint16_t type, std::uint32_t count,
                   std::uint32_t value) {
    b.push_back(static_cast<std::uint8_t>(tag & 0xFF));
    b.push_back(static_cast<std::uint8_t>(tag >> 8));
    b.push_back(static_cast<std::uint8_t>(type & 0xFF));
    b.push_back(static_cast<std::uint8_t>(type >> 8));
    put32(count);
    if (type == 3) {  // SHORT: left-justified in the value field
      b.push_back(static_cast<std::uint8_t>(value & 0xFF));
      b.push_back(static_cast<std::uint8_t>(value >> 8));
      b.push_back(0);
      b.push_back(0);
    } else {
      put32(value);
    }
  };
  entry(256, 4, 1, width);
  entry(257, 4, 1, height);
  entry(258, 3, 1, 8);
  entry(259, 3, 1, 1);
  entry(262, 3, 1, photometric);
  entry(273, 4, 1, 8);   // strip offset
  entry(277, 3, 1, 1);   // samples per pixel
  entry(278, 4, 1, height == 0 ? 1 : height);
  entry(279, 4, 1, 2);   // strip byte count
  put32(0);              // next IFD
  return b;
}

zio::TiffError capture_error(const std::vector<std::uint8_t>& bytes) {
  try {
    (void)zio::read_tiff_bytes(bytes);
  } catch (const zio::TiffError& e) {
    return e;
  }
  ADD_FAILURE() << "expected TiffError";
  return zio::TiffError(zio::TiffErrorKind::kBadHeader, "unreached");
}

}  // namespace

// Satellite 1 regression: crafted width/height whose byte size used to
// overflow size_t and wrap the bounds check now die at the pixel-count
// limit, long before any allocation.
TEST(TiffHardened, HugeDimensionsRejectedWithoutAllocation) {
  const zio::TiffError e =
      capture_error(crafted_le_classic(0xFFFFFFFFu, 0xFFFFFFFFu, 1));
  EXPECT_EQ(e.kind(), zio::TiffErrorKind::kLimitExceeded);
  EXPECT_EQ(e.page(), 0);
  EXPECT_GT(e.byte_offset(), 0u);  // points at the offending IFD entry
  // The taxonomy surfaces in what() for log scraping.
  EXPECT_NE(std::string(e.what()).find("LimitExceeded"), std::string::npos);
}

TEST(TiffHardened, ZeroDimensionsRejected) {
  EXPECT_EQ(capture_error(crafted_le_classic(0, 1, 1)).kind(),
            zio::TiffErrorKind::kCorruptIfd);
  EXPECT_EQ(capture_error(crafted_le_classic(2, 0, 1)).kind(),
            zio::TiffErrorKind::kCorruptIfd);
}

// Satellite 2 regression: a self-referential IFD chain is detected via
// visited-offset tracking on the second visit — no iteration-count crutch.
TEST(TiffHardened, CyclicIfdChainRejectedImmediately) {
  for (const std::size_t pages : {std::size_t{1}, std::size_t{2}}) {
    zio::TiffStack stack;
    for (std::size_t p = 0; p < pages; ++p) {
      stack.pages.emplace_back(ramp_u16(4, 3, static_cast<std::uint16_t>(p)));
    }
    auto bytes = zio::write_tiff_bytes(stack);
    // Default options: classic LE, so the first-IFD offset lives at bytes
    // 4..7 and the last page's next-IFD pointer is the final 4 bytes.
    std::uint32_t first = 0;
    for (int i = 0; i < 4; ++i) {
      first |= static_cast<std::uint32_t>(bytes[4 + static_cast<std::size_t>(i)])
               << (8 * i);
    }
    for (int i = 0; i < 4; ++i) {
      bytes[bytes.size() - 4 + static_cast<std::size_t>(i)] =
          static_cast<std::uint8_t>(first >> (8 * i));
    }
    const zio::TiffError e = capture_error(bytes);
    EXPECT_EQ(e.kind(), zio::TiffErrorKind::kCorruptIfd) << pages << " pages";
    EXPECT_EQ(e.byte_offset(), first);
    EXPECT_NE(std::string(e.what()).find("cycle"), std::string::npos)
        << e.what();
  }
}

// Satellite 3: the classic writer refuses offsets beyond 32 bits instead
// of silently truncating them. classic_offset_limit is the mocked-size
// hook: lowering it triggers the guard without writing 4 GiB.
TEST(TiffHardened, ClassicWriterRefusesOffsetOverflow) {
  zio::TiffStack stack;
  stack.pages.emplace_back(ramp_u16(16, 16, 0));
  zio::TiffWriteOptions opt;
  opt.classic_offset_limit = 64;  // pretend the 4 GiB cliff is at 64 bytes
  try {
    (void)zio::write_tiff_bytes(stack, opt);
    FAIL() << "expected TiffError{kLimitExceeded}";
  } catch (const zio::TiffError& e) {
    EXPECT_EQ(e.kind(), zio::TiffErrorKind::kLimitExceeded);
    // The message must steer callers to the fix.
    EXPECT_NE(std::string(e.what()).find("kBigTiff"), std::string::npos)
        << e.what();
  }
  // Same stack, same mocked ceiling: BigTIFF ignores it and succeeds.
  opt.format = zio::TiffFormat::kBigTiff;
  const auto bytes = zio::write_tiff_bytes(stack, opt);
  const zio::TiffStack back = zio::read_tiff_bytes(bytes);
  EXPECT_EQ(std::get<zi::ImageU16>(back.pages.at(0)).at(3, 2),
            ramp_u16(16, 16, 0).at(3, 2));
}

// Satellite 4: MinIsWhite pages are inverted on decode...
TEST(TiffHardened, MinIsWhiteInvertedOnDecode) {
  const auto bytes = crafted_le_classic(2, 1, /*photometric=*/0);
  const zio::TiffStack stack = zio::read_tiff_bytes(bytes);
  const auto& img = std::get<zi::ImageU8>(stack.pages.at(0));
  EXPECT_EQ(img.at(0, 0), 255 - 0xAB);
  EXPECT_EQ(img.at(1, 0), 255 - 0xCD);
}

// ...round trips through the writer's min_is_white option are identity...
TEST(TiffHardened, MinIsWhiteRoundTripIsIdentity) {
  zio::TiffStack stack;
  stack.pages.emplace_back(ramp_u16(9, 5, 4321));
  zio::TiffWriteOptions opt;
  opt.min_is_white = true;
  const auto bytes = zio::write_tiff_bytes(stack, opt);
  // The file really is MinIsWhite on the wire...
  const auto reader = zio::TiffVolumeReader::open(bytes);
  EXPECT_EQ(reader.page_info(0).photometric, 0);
  // ...and decodes back to the original samples.
  const zio::TiffStack back = zio::read_tiff_bytes(bytes);
  const auto& got = std::get<zi::ImageU16>(back.pages.at(0));
  const auto want = ramp_u16(9, 5, 4321);
  for (std::int64_t y = 0; y < 5; ++y) {
    for (std::int64_t x = 0; x < 9; ++x) {
      ASSERT_EQ(got.at(x, y), want.at(x, y));
    }
  }
}

// ...and palette-color files are rejected with a precise diagnosis.
TEST(TiffHardened, PaletteColorRejectedAsUnsupported) {
  const zio::TiffError e = capture_error(crafted_le_classic(2, 1, 3));
  EXPECT_EQ(e.kind(), zio::TiffErrorKind::kUnsupported);
  EXPECT_EQ(e.tag(), 262);
  EXPECT_NE(std::string(e.what()).find("palette"), std::string::npos)
      << e.what();
}

// ---------------------------------------------------------------------------
// Satellite 5: parameterized round-trip sweep across every format axis.
// Each combination writes, re-reads (materializing AND streaming, and for
// every byte-source kind through a temp file) and asserts byte-identical
// pixels.
// ---------------------------------------------------------------------------

using SweepParam = std::tuple<zio::TiffFormat, zio::TiffLayout,
                              zio::TiffCompression, int /*predictor*/,
                              bool /*big_endian*/,
                              int /*bits*/, std::int64_t /*width*/,
                              std::int64_t /*pages*/>;

class TiffRoundTripSweep : public ::testing::TestWithParam<SweepParam> {};

TEST_P(TiffRoundTripSweep, PixelsSurviveExactly) {
  const auto [fmt, layout, comp, predictor, be, bits, width, pages] = GetParam();
  const std::int64_t height = 11;

  zio::TiffStack stack;
  for (std::int64_t p = 0; p < pages; ++p) {
    if (bits == 8) {
      zi::ImageU8 img(width, height);
      for (std::int64_t y = 0; y < height; ++y) {
        for (std::int64_t x = 0; x < width; ++x) {
          img.at(x, y) = static_cast<std::uint8_t>(x + 7 * y + 37 * p);
        }
      }
      stack.pages.emplace_back(std::move(img));
    } else if (bits == 16) {
      zi::ImageU16 img(width, height);
      for (std::int64_t y = 0; y < height; ++y) {
        for (std::int64_t x = 0; x < width; ++x) {
          img.at(x, y) = static_cast<std::uint16_t>((x + 7 * y + 37 * p) * 257);
        }
      }
      stack.pages.emplace_back(std::move(img));
    } else {
      zi::ImageU32 img(width, height);
      for (std::int64_t y = 0; y < height; ++y) {
        for (std::int64_t x = 0; x < width; ++x) {
          img.at(x, y) =
              static_cast<std::uint32_t>((x + 7 * y + 37 * p) * 65537u);
        }
      }
      stack.pages.emplace_back(std::move(img));
    }
  }

  zio::TiffWriteOptions opt;
  opt.format = fmt;
  opt.layout = layout;
  opt.compression = comp;
  opt.predictor = predictor;
  opt.big_endian = be;
  opt.rows_per_strip = 4;  // 11 rows -> 3 strips, last one partial
  opt.tile_width = 16;     // odd widths leave a clipped edge tile
  opt.tile_height = 16;
  const auto bytes = zio::write_tiff_bytes(stack, opt);

  // Materializing reader.
  const zio::TiffStack back = zio::read_tiff_bytes(bytes);
  ASSERT_EQ(back.pages.size(), static_cast<std::size_t>(pages));
  // Streaming reader must agree slice-for-slice.
  const auto reader = zio::TiffVolumeReader::open(bytes);
  ASSERT_EQ(reader.pages(), pages);
  EXPECT_EQ(reader.bit_depth(), bits);
  EXPECT_EQ(reader.page_info(0).predictor, predictor);

  for (std::int64_t p = 0; p < pages; ++p) {
    const auto idx = static_cast<std::size_t>(p);
    const zi::AnyImage streamed = reader.read_page(p);
    std::visit(
        [&](const auto& want) {
          using Img = std::decay_t<decltype(want)>;
          const auto& mat = std::get<Img>(back.pages[idx]);
          const auto& str = std::get<Img>(streamed);
          ASSERT_EQ(mat.width(), want.width());
          ASSERT_EQ(mat.height(), want.height());
          const auto pw = want.pixels();
          const auto pm = mat.pixels();
          const auto ps = str.pixels();
          ASSERT_EQ(pm.size(), pw.size());
          ASSERT_EQ(ps.size(), pw.size());
          for (std::size_t i = 0; i < pw.size(); ++i) {
            ASSERT_EQ(pm[i], pw[i]) << "materialized, page " << p;
            ASSERT_EQ(ps[i], pw[i]) << "streamed, page " << p;
          }
        },
        stack.pages[idx]);
  }

  // Cross-source parity: the same file through every byte source must
  // produce byte-identical pages (zero-copy mmap views, positioned pread
  // copies and an in-memory buffer share one decode path).
  const std::string path = temp_path("zen_sweep_case.tif");
  zio::write_tiff(path, stack, opt);
  const std::vector<std::pair<const char*, std::shared_ptr<const zio::ByteSource>>>
      sources = {
          {"memory", std::make_shared<zio::MemoryByteSource>(bytes)},
          {"pread", std::make_shared<zio::PreadByteSource>(path)},
          {"mmap", std::make_shared<zio::MmapByteSource>(path)},
      };
  for (const auto& [kind, source] : sources) {
    const auto from_file = zio::TiffVolumeReader::open(source);
    ASSERT_EQ(from_file.pages(), pages);
    for (std::int64_t p = 0; p < pages; ++p) {
      const auto idx = static_cast<std::size_t>(p);
      const zi::AnyImage got = from_file.read_page(p);
      std::visit(
          [&](const auto& want) {
            using Img = std::decay_t<decltype(want)>;
            const auto& g = std::get<Img>(got);
            const auto pw = want.pixels();
            const auto pg = g.pixels();
            ASSERT_EQ(pg.size(), pw.size());
            for (std::size_t i = 0; i < pw.size(); ++i) {
              ASSERT_EQ(pg[i], pw[i])
                  << "source " << kind << ", page " << p;
            }
          },
          stack.pages[idx]);
    }
  }
  std::remove(path.c_str());
}

namespace {

// Readable test names (a lambda here would put commas inside macro
// arguments, which the preprocessor splits).
std::string sweep_name(const ::testing::TestParamInfo<SweepParam>& p) {
  std::string name =
      std::get<0>(p.param) == zio::TiffFormat::kBigTiff ? "Big" : "Classic";
  name += std::get<1>(p.param) == zio::TiffLayout::kTiles ? "Tiles" : "Strips";
  switch (std::get<2>(p.param)) {
    case zio::TiffCompression::kNone: name += "Raw"; break;
    case zio::TiffCompression::kPackBits: name += "PackBits"; break;
    case zio::TiffCompression::kLzw: name += "Lzw"; break;
    case zio::TiffCompression::kDeflate: name += "Deflate"; break;
  }
  if (std::get<3>(p.param) == 2) name += "Pred";
  name += std::get<4>(p.param) ? "BE" : "LE";
  name += "U" + std::to_string(std::get<5>(p.param));
  name += "W" + std::to_string(std::get<6>(p.param));
  name += "P" + std::to_string(std::get<7>(p.param));
  return name;
}

}  // namespace

INSTANTIATE_TEST_SUITE_P(
    AllFormatAxes, TiffRoundTripSweep,
    ::testing::Combine(
        ::testing::Values(zio::TiffFormat::kClassic, zio::TiffFormat::kBigTiff),
        ::testing::Values(zio::TiffLayout::kStrips, zio::TiffLayout::kTiles),
        ::testing::Values(zio::TiffCompression::kNone,
                          zio::TiffCompression::kPackBits,
                          zio::TiffCompression::kLzw,
                          zio::TiffCompression::kDeflate),
        ::testing::Values(1, 2),                          // predictor
        ::testing::Bool(),                                // big-endian
        ::testing::Values(8, 16, 32),                     // bit depth
        ::testing::Values(std::int64_t{19}, std::int64_t{20}),
        ::testing::Values(std::int64_t{1}, std::int64_t{3}, std::int64_t{10})),
    sweep_name);
