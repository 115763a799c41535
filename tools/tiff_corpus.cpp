// tiff_corpus — standalone runner for the TIFF fuzz harness and the
// ingestion benchmark.
//
// Three jobs:
//   1. Dump the feature-complete corpus as .tif files (seeds for external
//      fuzzers, or for eyeballing in an image viewer).
//   2. Run the structure-aware mutation fuzzer for an arbitrary budget
//      and print the rejection taxonomy — handy for soak runs far beyond
//      the 7008 mutants the regression test replays, e.g. under ASAN:
//
//   build/tools/tiff_corpus --out out/tiff_corpus --mutants 1000 --seed 7
//
//   3. --bench: measure per-codec ingestion throughput — naive
//      slurp-and-materialize vs the parallel mmap streaming path, full
//      decode and first slice — and print one line per codec, plus a
//      flat-RSS check on a volume much larger than one decoded page.
//
// Exits non-zero if any mutant violates the decode-or-TiffError contract
// (fuzz mode).

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "tests/tiff_fuzz_harness.hpp"
#include "zenesis/image/image.hpp"
#include "zenesis/io/tiff_stream.hpp"

namespace {

struct Args {
  std::string out_dir;            // empty = don't dump
  std::uint64_t seed = 0xC0FFEE;  // matches the regression test default
  std::size_t mutants = 48;       // per corpus entry
  bool bench = false;             // run the ingestion benchmark instead
};

bool parse_args(int argc, char** argv, Args& args) {
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    auto value = [&]() -> const char* {
      return i + 1 < argc ? argv[++i] : nullptr;
    };
    if (flag == "--out") {
      const char* v = value();
      if (!v) return false;
      args.out_dir = v;
    } else if (flag == "--seed") {
      const char* v = value();
      if (!v) return false;
      args.seed = std::strtoull(v, nullptr, 0);
    } else if (flag == "--mutants") {
      const char* v = value();
      if (!v) return false;
      args.mutants = std::strtoull(v, nullptr, 0);
    } else if (flag == "--bench") {
      args.bench = true;
    } else {
      std::fprintf(stderr,
                   "usage: tiff_corpus [--out DIR] [--seed N] [--mutants N] "
                   "[--bench]\n");
      return false;
    }
  }
  return true;
}

// ---------------------------------------------------------------------------
// --bench: ingestion throughput and memory, printed to stdout.

/// Reads a field like "VmRSS" from /proc/self/status, in bytes. Returns
/// 0 where the file or field is unavailable (non-Linux), in which case
/// the rss figures degrade to zero rather than failing the bench.
std::uint64_t read_proc_status_bytes(const char* field) {
  std::ifstream status("/proc/self/status");
  std::string line;
  const std::string prefix = std::string(field) + ":";
  while (std::getline(status, line)) {
    if (line.rfind(prefix, 0) != 0) continue;
    std::istringstream rest(line.substr(prefix.size()));
    std::uint64_t kib = 0;
    rest >> kib;
    return kib * 1024;
  }
  return 0;
}

/// Smooth synthetic EM-like stack: low-frequency gradients plus a
/// per-slice phase shift. Smooth data is the representative case for
/// LZW/Deflate + horizontal predictor (real FIB-SEM slices compress the
/// same way); pure noise would make every codec look like a pass-through.
zenesis::image::VolumeU16 bench_volume(std::int64_t pages, std::int64_t side) {
  zenesis::image::VolumeU16 vol(side, side, pages);
  for (std::int64_t z = 0; z < pages; ++z) {
    auto px = vol.slice(z).pixels();
    for (std::int64_t y = 0; y < side; ++y) {
      for (std::int64_t x = 0; x < side; ++x) {
        const auto v = static_cast<std::uint16_t>(
            (x * 13 + y * 7 + z * 101 + ((x * y) >> 6)) & 0x0FFF);
        px[static_cast<std::size_t>(y * side + x)] = v;
      }
    }
  }
  return vol;
}

double seconds_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

struct CodecCase {
  const char* name;
  zenesis::io::TiffCompression compression;
  int predictor;
};

int run_bench() {
  namespace fs = std::filesystem;
  namespace zio = zenesis::io;

  const std::int64_t kPages = 48;
  const std::int64_t kSide = 512;  // 48 x 512 x 512 u16 = 24 MiB decoded
  const auto vol = bench_volume(kPages, kSide);

  const fs::path dir = fs::temp_directory_path() / "zen_tiff_bench";
  fs::create_directories(dir);

  const CodecCase cases[] = {
      {"none", zio::TiffCompression::kNone, 1},
      {"packbits", zio::TiffCompression::kPackBits, 1},
      {"lzw", zio::TiffCompression::kLzw, 1},
      {"lzw_pred", zio::TiffCompression::kLzw, 2},
      {"deflate", zio::TiffCompression::kDeflate, 1},
      {"deflate_pred", zio::TiffCompression::kDeflate, 2},
  };

  // Full-decode speedups scale with cores (pages decode in parallel);
  // first-slice speedups do not, so the thread count is printed with them.
  std::printf("tiff_ingest   %lld pages of %lldx%lld u16, %u hardware threads\n",
              static_cast<long long>(kPages), static_cast<long long>(kSide),
              static_cast<long long>(kSide),
              std::max(1u, std::thread::hardware_concurrency()));

  double worst_compressed_speedup = -1.0;
  for (const CodecCase& c : cases) {
    zio::TiffWriteOptions wopt;
    wopt.format = zio::TiffFormat::kBigTiff;
    wopt.layout = zio::TiffLayout::kTiles;
    wopt.tile_width = 128;
    wopt.tile_height = 128;
    wopt.compression = c.compression;
    wopt.predictor = c.predictor;
    const fs::path file = dir / (std::string(c.name) + ".tif");
    zio::write_volume_tiff(file.string(), vol, wopt);
    const std::uint64_t file_bytes = fs::file_size(file);

    constexpr int kReps = 3;  // best-of-3 damps scheduler noise

    // Decompress-whole-file baseline: slurp the file, then decompress and
    // parse every page into a materialized stack on one thread (the
    // pre-redesign ingestion architecture). Its first slice is only
    // available once the WHOLE file has been decoded — that cost is what
    // the streaming comparison below charges it for.
    double naive_best = 0.0;       // pages/sec, full decode
    double naive_total_s = 1e30;   // seconds to decode the whole file
    for (int rep = 0; rep < kReps; ++rep) {
      const auto t0 = std::chrono::steady_clock::now();
      std::ifstream in(file, std::ios::binary);
      std::vector<std::uint8_t> bytes(
          (std::istreambuf_iterator<char>(in)), std::istreambuf_iterator<char>());
      const zio::TiffStack stack = zio::read_tiff_bytes(bytes);
      const double dt = std::max(seconds_since(t0), 1e-9);
      naive_total_s = std::min(naive_total_s, dt);
      naive_best =
          std::max(naive_best, static_cast<double>(stack.pages.size()) / dt);
    }

    // Streaming path, full materialization: zero-copy mmap views, pages
    // decoded in parallel on the global ThreadPool.
    double stream_best = 0.0;
    for (int rep = 0; rep < kReps; ++rep) {
      const auto t0 = std::chrono::steady_clock::now();
      const zio::TiffVolumeReader reader =
          zio::TiffVolumeReader::open(file.string());
      const auto out = reader.read_volume_u16();
      const double pps = static_cast<double>(out.depth()) /
                         std::max(seconds_since(t0), 1e-9);
      stream_best = std::max(stream_best, pps);
    }

    // Streaming path, slice-sequential consumption: open + decode ONE
    // page, which is all Mode-B's temporal propagation needs before the
    // model can start. Effective first-slice throughput is 1/t here vs
    // 1/t_whole_file for the baseline, because the decompress-whole-file
    // architecture cannot hand out page 0 until everything is decoded.
    double first_slice_s = 1e30;
    for (int rep = 0; rep < kReps; ++rep) {
      const auto t0 = std::chrono::steady_clock::now();
      const zio::TiffVolumeReader reader =
          zio::TiffVolumeReader::open(file.string());
      const auto img = reader.read_page_u16(0);
      first_slice_s = std::min(first_slice_s, std::max(seconds_since(t0), 1e-9));
    }
    const double naive_first_pps = 1.0 / naive_total_s;
    const double stream_first_pps = 1.0 / first_slice_s;

    const double full_speedup = stream_best / std::max(naive_best, 1e-9);
    const double first_speedup = stream_first_pps / naive_first_pps;
    if (c.compression != zio::TiffCompression::kNone) {
      const double effective = std::max(full_speedup, first_speedup);
      worst_compressed_speedup =
          worst_compressed_speedup < 0.0
              ? effective
              : std::min(worst_compressed_speedup, effective);
    }

    std::printf("%-13s file=%8.2f MiB  naive=%7.1f p/s  stream=%7.1f p/s "
                "(%.2fx)  first-slice=%7.1f p/s vs %5.1f p/s (%.1fx)\n",
                c.name, static_cast<double>(file_bytes) / (1 << 20), naive_best,
                stream_best, full_speedup, stream_first_pps, naive_first_pps,
                first_speedup);
  }
  // Flat-RSS probe: stream a volume page-by-page (no materialization) and
  // sample VmRSS inside the loop. The peak delta must stay well below the
  // decoded volume size — that is the "ingest stacks bigger than RAM"
  // claim in one number. Sampling (rather than VmHWM) keeps the probe
  // honest even where /proc/self/clear_refs is restricted. The probe uses
  // the pread source: mmap leaves decoded-from file pages resident (they
  // are reclaimable page cache, but VmRSS counts them anyway), which
  // would make the process LOOK like it holds the file even though the
  // kernel can drop those pages at will; pread keeps the cache unmapped
  // so VmRSS measures exactly what the process allocated.
  {
    const std::int64_t flat_pages = 96;
    const std::int64_t flat_side = 768;  // 96 x 768 x 768 u16 = 108 MiB
    const auto flat_vol = bench_volume(flat_pages, flat_side);
    const std::uint64_t flat_decoded =
        static_cast<std::uint64_t>(flat_pages) * flat_side * flat_side * 2;
    zio::TiffWriteOptions wopt;
    wopt.format = zio::TiffFormat::kBigTiff;
    wopt.layout = zio::TiffLayout::kTiles;
    wopt.tile_width = 128;
    wopt.tile_height = 128;
    wopt.compression = zio::TiffCompression::kDeflate;
    wopt.predictor = 2;
    const fs::path file = dir / "flat_rss.tif";
    zio::write_volume_tiff(file.string(), flat_vol, wopt);

    const std::uint64_t rss_before = read_proc_status_bytes("VmRSS");
    std::uint64_t rss_peak = rss_before;
    const zio::TiffVolumeReader reader = zio::TiffVolumeReader::open(
        std::make_shared<zio::PreadByteSource>(file.string()));
    for (std::int64_t p = 0; p < reader.pages(); ++p) {
      const auto img = reader.read_page_u16(p);
      rss_peak = std::max(rss_peak, read_proc_status_bytes("VmRSS"));
    }
    const std::uint64_t rss_delta = rss_peak - rss_before;
    const bool flat = rss_delta < flat_decoded / 2;
    std::printf("flat_rss      decoded=%.0f MiB  peak_delta=%.1f MiB  flat=%s\n",
                static_cast<double>(flat_decoded) / (1 << 20),
                static_cast<double>(rss_delta) / (1 << 20), flat ? "yes" : "no");
  }

  std::error_code ec;
  fs::remove_all(dir, ec);
  // "Effective throughput on compressed streams": the better of the full
  // parallel decode speedup (scales with cores) and the slice-sequential
  // first-slice speedup (holds on any machine) — min over the
  // compressed codecs, so the check pins the worst case.
  if (worst_compressed_speedup < 2.0) {
    std::fprintf(stderr,
                 "WARNING: min compressed-stream speedup %.2fx below the 2x "
                 "target\n",
                 worst_compressed_speedup);
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  if (!parse_args(argc, argv, args)) return 2;
  if (args.bench) return run_bench();

  namespace fuzz = zenesis::io::fuzz;
  const auto corpus = fuzz::build_corpus();
  std::printf("corpus: %zu entries\n", corpus.size());

  if (!args.out_dir.empty()) {
    std::filesystem::create_directories(args.out_dir);
    for (const auto& entry : corpus) {
      const auto path =
          std::filesystem::path(args.out_dir) / (entry.name + ".tif");
      std::ofstream out(path, std::ios::binary);
      out.write(reinterpret_cast<const char*>(entry.bytes.data()),
                static_cast<std::streamsize>(entry.bytes.size()));
      if (!out) {
        std::fprintf(stderr, "failed to write %s\n", path.c_str());
        return 2;
      }
    }
    std::printf("wrote corpus to %s\n", args.out_dir.c_str());
  }

  // Same tight limits as tests/test_tiff_fuzz.cpp, so a soak run probes
  // the identical allocation bounds.
  zenesis::io::TiffReadLimits limits;
  limits.max_pages = 64;
  limits.max_pixels_per_page = 1ull << 22;
  limits.max_decoded_bytes = 16ull << 20;
  limits.max_ifd_entries = 64;

  const fuzz::FuzzStats stats = fuzz::run_fuzz(args.seed, args.mutants, limits);
  std::printf("mutants:  %llu\n", static_cast<unsigned long long>(stats.mutants));
  std::printf("decoded:  %llu\n", static_cast<unsigned long long>(stats.decoded));
  std::printf("rejected: %llu\n", static_cast<unsigned long long>(stats.rejected));
  static const char* kKinds[6] = {"BadHeader",         "Truncated",
                                  "CorruptIfd",        "OffsetOutOfBounds",
                                  "LimitExceeded",     "Unsupported"};
  for (int k = 0; k < 6; ++k) {
    std::printf("  %-18s %llu\n", kKinds[k],
                static_cast<unsigned long long>(stats.kind_counts[k]));
  }
  for (const std::string& failure : stats.failures) {
    std::fprintf(stderr, "CONTRACT VIOLATION: %s\n", failure.c_str());
  }
  if (!stats.failures.empty()) return 1;
  std::printf("contract upheld: every mutant decoded or threw TiffError\n");
  return 0;
}
