// Streaming TIFF ingestion tests: TiffVolumeReader parity with the
// materializing reader, and the end-to-end Mode-B streaming path
// (BigTIFF on disk -> TiffVolumeReader -> segment_volume) producing masks
// byte-identical to the in-memory pipeline (the ISSUE-4 acceptance bar).
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <memory>
#include <thread>
#include <utility>
#include <variant>
#include <vector>

#include "zenesis/core/session.hpp"
#include "zenesis/fibsem/synth.hpp"
#include "zenesis/io/tiff.hpp"
#include "zenesis/io/tiff_stream.hpp"
#include "zenesis/serve/service.hpp"

namespace zc = zenesis::core;
namespace zf = zenesis::fibsem;
namespace zi = zenesis::image;
namespace zio = zenesis::io;
namespace zs = zenesis::serve;

namespace {

constexpr const char* kPrompt = "bright needle-like crystalline catalyst";

std::string temp_path(const char* name) {
  return (std::filesystem::temp_directory_path() / name).string();
}

/// RAII deleter so failing tests don't leave stacks in /tmp.
struct TempFile {
  std::string path;
  explicit TempFile(const char* name) : path(temp_path(name)) {}
  ~TempFile() { std::remove(path.c_str()); }
};

template <typename T>
zi::Image<T> ramp(std::int64_t w, std::int64_t h, std::int64_t page) {
  zi::Image<T> img(w, h);
  for (std::int64_t y = 0; y < h; ++y) {
    for (std::int64_t x = 0; x < w; ++x) {
      img.at(x, y) = static_cast<T>((x + 7 * y + 37 * page) * (sizeof(T) == 1 ? 1 : 257));
    }
  }
  return img;
}

zf::SyntheticVolume make_volume(std::int64_t size = 64, std::int64_t depth = 5) {
  zf::SynthConfig cfg;
  cfg.type = zf::SampleType::kCrystalline;
  cfg.width = size;
  cfg.height = size;
  cfg.depth = depth;
  cfg.seed = 77;
  return zf::generate_volume(cfg);
}

void expect_masks_equal(const zi::Mask& a, const zi::Mask& b) {
  ASSERT_EQ(a.width(), b.width());
  ASSERT_EQ(a.height(), b.height());
  const auto pa = a.pixels();
  const auto pb = b.pixels();
  for (std::size_t i = 0; i < pa.size(); ++i) {
    ASSERT_EQ(pa[i], pb[i]) << "pixel " << i;
  }
}

template <typename T>
void expect_pages_equal(const zi::AnyImage& got, const zi::AnyImage& want) {
  const auto& g = std::get<zi::Image<T>>(got);
  const auto& w = std::get<zi::Image<T>>(want);
  ASSERT_EQ(g.width(), w.width());
  ASSERT_EQ(g.height(), w.height());
  const auto pg = g.pixels();
  const auto pw = w.pixels();
  for (std::size_t i = 0; i < pg.size(); ++i) ASSERT_EQ(pg[i], pw[i]);
}

}  // namespace

// Every page the streaming reader decodes must be bit-identical to the
// materializing reader's — across format, layout, compression, byte
// order and depth.
TEST(TiffStream, PageParityWithMaterializingReader) {
  for (const zio::TiffFormat fmt :
       {zio::TiffFormat::kClassic, zio::TiffFormat::kBigTiff}) {
    for (const zio::TiffLayout layout :
         {zio::TiffLayout::kStrips, zio::TiffLayout::kTiles}) {
      for (const zio::TiffCompression comp :
           {zio::TiffCompression::kNone, zio::TiffCompression::kPackBits}) {
        for (const bool be : {false, true}) {
          zio::TiffWriteOptions opt;
          opt.format = fmt;
          opt.layout = layout;
          opt.compression = comp;
          opt.big_endian = be;
          opt.rows_per_strip = 4;
          opt.tile_width = 16;
          opt.tile_height = 16;
          zio::TiffStack stack;
          stack.pages.emplace_back(ramp<std::uint16_t>(19, 11, 0));
          stack.pages.emplace_back(ramp<std::uint16_t>(19, 11, 1));
          const auto bytes = zio::write_tiff_bytes(stack, opt);

          const zio::TiffStack mat = zio::read_tiff_bytes(bytes);
          const auto reader = zio::TiffVolumeReader::open(bytes);
          ASSERT_EQ(reader.pages(), 2);
          EXPECT_TRUE(reader.uniform_geometry());
          for (std::int64_t p = 0; p < reader.pages(); ++p) {
            expect_pages_equal<std::uint16_t>(reader.read_page(p),
                                              mat.pages[static_cast<std::size_t>(p)]);
          }
        }
      }
    }
  }
}

TEST(TiffStream, ReadVolumeMatchesMaterializedVolume) {
  const auto synth = make_volume(32, 3);
  TempFile f("zen_stream_vol.tif");
  zio::TiffWriteOptions opt;
  opt.format = zio::TiffFormat::kBigTiff;
  opt.layout = zio::TiffLayout::kTiles;
  opt.compression = zio::TiffCompression::kPackBits;
  zio::write_volume_tiff(f.path, synth.volume, opt);

  const zi::VolumeU16 mat = zio::read_volume_tiff_u16(f.path);
  const zio::TiffVolumeReader reader = zio::TiffVolumeReader::open(f.path);
  const zi::VolumeU16 streamed = reader.read_volume_u16();
  ASSERT_EQ(streamed.depth(), mat.depth());
  for (std::int64_t z = 0; z < mat.depth(); ++z) {
    const auto pa = streamed.slice(z).pixels();
    const auto pb = mat.slice(z).pixels();
    ASSERT_EQ(pa.size(), pb.size());
    for (std::size_t i = 0; i < pa.size(); ++i) ASSERT_EQ(pa[i], pb[i]);
  }
}

TEST(TiffStream, PageInfoExposesParsedGeometry) {
  zio::TiffWriteOptions opt;
  opt.layout = zio::TiffLayout::kTiles;
  opt.tile_width = 16;
  opt.tile_height = 16;
  zio::TiffStack stack;
  stack.pages.emplace_back(ramp<std::uint8_t>(19, 11, 0));
  const auto reader =
      zio::TiffVolumeReader::open(zio::write_tiff_bytes(stack, opt));
  const zio::TiffPageInfo& info = reader.page_info(0);
  EXPECT_EQ(info.width, 19);
  EXPECT_EQ(info.height, 11);
  EXPECT_EQ(info.bits, 8);
  EXPECT_TRUE(info.tiled);
  EXPECT_EQ(info.tile_width, 16);
  EXPECT_EQ(info.tile_height, 16);
  // 19x11 with 16x16 tiles -> 2x1 grid.
  EXPECT_EQ(info.segment_offsets.size(), 2u);
  EXPECT_EQ(reader.width(), 19);
  EXPECT_EQ(reader.height(), 11);
  EXPECT_EQ(reader.bit_depth(), 8);
}

TEST(TiffStream, NonUniformGeometryDetectedAndRejected) {
  zio::TiffStack stack;
  stack.pages.emplace_back(ramp<std::uint16_t>(8, 8, 0));
  stack.pages.emplace_back(ramp<std::uint16_t>(9, 8, 1));
  const auto reader =
      zio::TiffVolumeReader::open(zio::write_tiff_bytes(stack));
  EXPECT_FALSE(reader.uniform_geometry());
  try {
    reader.require_uniform_geometry();
    FAIL() << "expected TiffError";
  } catch (const zio::TiffError& e) {
    EXPECT_EQ(e.kind(), zio::TiffErrorKind::kUnsupported);
  }
}

TEST(TiffStream, ParseTimeLimitEnforcement) {
  zio::TiffStack stack;
  stack.pages.emplace_back(ramp<std::uint16_t>(32, 32, 0));
  const auto bytes = zio::write_tiff_bytes(stack);
  zio::TiffReadLimits limits;
  limits.max_decoded_bytes = 64;  // far below 32*32*2
  try {
    (void)zio::TiffVolumeReader::open(bytes, limits);
    FAIL() << "expected TiffError at parse time, before any decode";
  } catch (const zio::TiffError& e) {
    EXPECT_EQ(e.kind(), zio::TiffErrorKind::kLimitExceeded);
    EXPECT_EQ(e.page(), 0);
  }
}

TEST(TiffStream, MissingFileThrowsTiffError) {
  // Every file-backed source fails the same way, through open(path) (the
  // mmap source) and through the sources built directly.
  const std::string missing = temp_path("zen_no_such_file.tif");
  const auto expect_truncated = [](const auto& open_fn, const char* what) {
    try {
      (void)open_fn();
      FAIL() << "expected TiffError for " << what;
    } catch (const zio::TiffError& e) {
      EXPECT_EQ(e.kind(), zio::TiffErrorKind::kTruncated) << what;
    }
  };
  expect_truncated([&] { return zio::TiffVolumeReader::open(missing); },
                   "open(path)");
  expect_truncated([&] { return zio::PreadByteSource(missing).size(); },
                   "pread");
  expect_truncated([&] { return zio::MmapByteSource(missing).size(); },
                   "mmap");
}

// --- byte sources and the open() front door ------------------------------

// The same compressed + predicted stack must decode byte-identically no
// matter which byte source backs the reader (the PR-10 acceptance bar).
TEST(TiffStream, SourceKindsDecodeByteIdentically) {
  TempFile f("zen_source_kinds.tif");
  zio::TiffWriteOptions opt;
  opt.layout = zio::TiffLayout::kTiles;
  opt.tile_width = 16;
  opt.tile_height = 16;
  opt.compression = zio::TiffCompression::kLzw;
  opt.predictor = 2;
  zio::TiffStack stack;
  stack.pages.emplace_back(ramp<std::uint16_t>(37, 23, 0));
  stack.pages.emplace_back(ramp<std::uint16_t>(37, 23, 1));
  zio::write_tiff(f.path, stack, opt);

  const zio::TiffStack want = zio::read_tiff(f.path);
  std::vector<std::pair<const char*, zio::TiffVolumeReader>> readers;
  readers.emplace_back("memory", zio::TiffVolumeReader::open(
                                     std::make_shared<zio::MemoryByteSource>(
                                         zio::write_tiff_bytes(stack, opt))));
  readers.emplace_back("pread", zio::TiffVolumeReader::open(
                                    std::make_shared<zio::PreadByteSource>(f.path)));
  readers.emplace_back("mmap", zio::TiffVolumeReader::open(
                                   std::make_shared<zio::MmapByteSource>(f.path)));
  // open(path) is the mmap source.
  EXPECT_EQ(zio::default_source_kind(), zio::TiffSourceKind::kMmap);
  readers.emplace_back("open(path)", zio::TiffVolumeReader::open(f.path));
  for (const auto& [name, reader] : readers) {
    ASSERT_EQ(reader.pages(), 2) << name;
    for (std::int64_t p = 0; p < reader.pages(); ++p) {
      expect_pages_equal<std::uint16_t>(reader.read_page(p),
                                        want.pages[static_cast<std::size_t>(p)]);
    }
  }
}

// Regression for a seek-under-mutex file source: N threads hammering
// read_at must be observed in flight simultaneously. The probe records a
// high-water mark around each pread(2); the mutex design pinned it at 1.
TEST(TiffStream, PreadReadsRunConcurrently) {
  TempFile f("zen_pread_conc.tif");
  zio::TiffStack stack;
  stack.pages.emplace_back(ramp<std::uint16_t>(256, 256, 0));
  zio::write_tiff(f.path, stack, {});

  // Time-based rather than iteration-based: on a single-CPU box a fixed
  // read count can finish inside one scheduler quantum per thread, in
  // which case reads interleave but never *overlap*. Keeping 8 readers
  // hammering until overlap is observed (or a generous deadline passes)
  // guarantees each thread spans many quanta, and since nearly all loop
  // time sits inside the read_at probe window, a preemption lands inside
  // it with near certainty. A seek-under-mutex source could
  // never reach high_water >= 2 no matter how long this runs.
  constexpr int kThreads = 8;
  const zio::PreadByteSource src(f.path);
  const std::size_t chunk =
      static_cast<std::size_t>(src.size()) / (kThreads + 1);
  std::atomic<bool> stop{false};
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      std::vector<std::uint8_t> buf(chunk);
      while (!stop.load(std::memory_order_relaxed)) {
        src.read_at(static_cast<std::uint64_t>(t) * chunk, buf.data(), chunk);
      }
    });
  }
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (src.max_concurrent_reads() < 2 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::yield();
  }
  stop.store(true);
  for (auto& th : threads) th.join();
  EXPECT_GE(src.max_concurrent_reads(), 2)
      << "8 threads of positioned reads never overlapped in 10s";
}

// The request-level limits passed to from_file reach the reader: a
// two-page stack under a one-page limit fails at open time.
TEST(TiffStream, VolumeRequestAppliesReadLimits) {
  const auto synth = make_volume(16, 2);
  TempFile f("zen_request_limits.tif");
  zio::write_volume_tiff(f.path, synth.volume, {});
  zio::TiffReadLimits limits;
  limits.max_pages = 1;
  const zc::VolumeRequest r =
      zc::VolumeRequest::from_file(f.path, kPrompt, limits);
  EXPECT_TRUE(r.validate().empty());
  EXPECT_EQ(r.tiff_limits.max_pages, 1u);
  try {
    (void)zc::ZenesisPipeline().segment_volume(r);
    FAIL() << "expected TiffError from the one-page limit";
  } catch (const zio::TiffError& e) {
    EXPECT_EQ(e.kind(), zio::TiffErrorKind::kLimitExceeded);
  }
}

// --- the ISSUE-4 acceptance test ----------------------------------------
// A synthetic 16-bit multi-page volume round-trips through BigTIFF write
// -> TiffVolumeReader streaming -> segment_volume and produces masks
// byte-identical to the in-memory read_volume_tiff_u16 path.
TEST(TiffStream, StreamedSegmentVolumeMatchesInMemoryPath) {
  const auto synth = make_volume(64, 5);
  TempFile f("zen_stream_acceptance.tif");
  zio::TiffWriteOptions opt;
  opt.format = zio::TiffFormat::kBigTiff;
  zio::write_volume_tiff(f.path, synth.volume, opt);

  zc::PipelineConfig cfg;
  cfg.volume_threads = 2;  // exercise concurrent read_page on the reader
  const zc::Session session(cfg);

  // In-memory reference path.
  const zi::VolumeU16 mat = zio::read_volume_tiff_u16(f.path);
  const zc::VolumeResult want =
      session.pipeline().segment_volume(zc::VolumeRequest::view(mat, kPrompt));

  // Streaming path (file -> on-demand slices -> pipeline) through the
  // session's one Mode-B entry point.
  const zc::VolumeResult got =
      session.mode_b_segment_volume(zc::VolumeRequest::from_file(f.path, kPrompt));

  ASSERT_EQ(got.slices.size(), want.slices.size());
  for (std::size_t z = 0; z < want.slices.size(); ++z) {
    expect_masks_equal(got.slices[z].mask, want.slices[z].mask);
    EXPECT_EQ(got.slices[z].confidence, want.slices[z].confidence);
  }
  EXPECT_EQ(got.replaced_count, want.replaced_count);
}

// A streamed VolumeRequest validates its slice feed.
TEST(TiffStream, VolumeSourceValidatesSliceCallback) {
  const zc::ZenesisPipeline pipeline;
  zc::VolumeSource bad;  // null slice fn
  bad.depth = 3;
  EXPECT_THROW((void)pipeline.segment_volume(
                   zc::VolumeRequest::streamed(bad, kPrompt)),
               std::invalid_argument);
  zc::VolumeSource neg;
  neg.depth = -1;
  neg.slice = [](std::int64_t) { return zi::AnyImage(zi::ImageU16(2, 2)); };
  EXPECT_THROW((void)pipeline.segment_volume(
                   zc::VolumeRequest::streamed(neg, kPrompt)),
               std::invalid_argument);
}

// --- serve-layer streaming ----------------------------------------------

TEST(TiffStream, ServeVolumeFileMatchesBlockingPath) {
  const auto synth = make_volume(48, 3);
  TempFile f("zen_serve_stream.tif");
  zio::TiffWriteOptions opt;
  opt.format = zio::TiffFormat::kBigTiff;
  zio::write_volume_tiff(f.path, synth.volume, opt);

  const zc::ZenesisPipeline reference;
  const zc::VolumeResult want = reference.segment_volume(
      zc::VolumeRequest::in_memory(zio::read_volume_tiff_u16(f.path), kPrompt));

  zs::SegmentService service;
  const zs::Response r =
      service.submit(zs::Request::volume_file(f.path, kPrompt)).get();
  ASSERT_TRUE(r.ok()) << r.error;
  ASSERT_TRUE(r.volume.has_value());
  ASSERT_EQ(r.volume->slices.size(), want.slices.size());
  for (std::size_t z = 0; z < want.slices.size(); ++z) {
    expect_masks_equal(r.volume->slices[z].mask, want.slices[z].mask);
  }
  EXPECT_EQ(r.volume->replaced_count, want.replaced_count);
}

TEST(TiffStream, ServeVolumeFileSurfacesTiffErrorAsResponse) {
  zs::SegmentService service;
  const zs::Response r =
      service
          .submit(zs::Request::volume_file(temp_path("zen_missing_vol.tif"),
                                           kPrompt))
          .get();
  EXPECT_EQ(r.status, zs::Response::Status::kError);
  // A missing file is an I/O failure classified by the error taxonomy —
  // callers branch on the code, the message keeps the TiffError detail.
  EXPECT_EQ(r.error.code, zc::ErrorCode::kIo);
  EXPECT_EQ(r.error.stage, "serve.decode");
  EXPECT_NE(r.error.message.find("tiff:"), std::string::npos) << r.error;
}
