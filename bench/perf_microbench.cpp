// Layer microbenchmarks (the venue's HPC angle): tensor kernels per
// backend, attention, feature extraction, model inference, end-to-end
// slice latency, thread scaling of the parallel substrate and of Mode-B
// volume segmentation, cache lock contention, span overhead and TIFF
// decode. A plain Google Benchmark binary: select cases with
// --benchmark_filter. End-to-end numbers come from perfbench/run.py;
// EXPERIMENTS.md lists the layer figures measured here and the filter
// that produced each.
#include <benchmark/benchmark.h>

#include <cmath>
#include <memory>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include "zenesis/cache/sharded_lru.hpp"
#include "zenesis/core/pipeline.hpp"
#include "zenesis/cv/bitmask.hpp"
#include "zenesis/cv/filters.hpp"
#include "zenesis/fibsem/synth.hpp"
#include "zenesis/image/normalize.hpp"
#include "zenesis/io/tiff.hpp"
#include "zenesis/io/tiff_stream.hpp"
#include "zenesis/models/auto_mask.hpp"
#include "zenesis/obs/trace.hpp"
#include "zenesis/parallel/parallel_for.hpp"
#include "zenesis/tensor/init.hpp"
#include "zenesis/tensor/kernels.hpp"
#include "zenesis/tensor/ops.hpp"

namespace {

using namespace zenesis;

image::ImageF32 bench_slice(std::int64_t size) {
  fibsem::SynthConfig cfg;
  cfg.type = fibsem::SampleType::kCrystalline;
  cfg.width = size;
  cfg.height = size;
  cfg.seed = 123;
  const auto s = fibsem::generate_slice(cfg, 0);
  return image::make_ai_ready(image::AnyImage(s.raw));
}

void BM_MatmulNt(benchmark::State& state) {
  const auto n = state.range(0);
  const tensor::Tensor a = tensor::xavier_uniform(n, n, 1, 1);
  const tensor::Tensor b = tensor::xavier_uniform(n, n, 1, 2);
  for (auto _ : state) {
    benchmark::DoNotOptimize(tensor::matmul_nt(a, b));
  }
  state.SetItemsProcessed(state.iterations() * n * n * n);
}
BENCHMARK(BM_MatmulNt)->Arg(64)->Arg(128)->Arg(256);

void BM_Attention(benchmark::State& state) {
  const auto l = state.range(0);
  const tensor::Tensor q = tensor::xavier_uniform(l, 64, 2, 1);
  const tensor::Tensor k = tensor::xavier_uniform(l, 64, 2, 2);
  const tensor::Tensor v = tensor::xavier_uniform(l, 64, 2, 3);
  for (auto _ : state) {
    benchmark::DoNotOptimize(tensor::attention(q, k, v));
  }
}
BENCHMARK(BM_Attention)->Arg(256)->Arg(1024);

/// The encoder's real attention shape: d = 64 split over 4 heads of 16,
/// self-attention over l tokens (1024 = one 256² slice at patch 8).
void BM_MultiheadAttention(benchmark::State& state) {
  const auto l = state.range(0);
  const tensor::Tensor q = tensor::xavier_uniform(l, 64, 2, 1);
  const tensor::Tensor k = tensor::xavier_uniform(l, 64, 2, 2);
  const tensor::Tensor v = tensor::xavier_uniform(l, 64, 2, 3);
  for (auto _ : state) {
    benchmark::DoNotOptimize(tensor::multihead_attention(q, k, v, 4));
  }
}
BENCHMARK(BM_MultiheadAttention)->Arg(256)->Arg(1024);

/// Full-frame Gaussian blur of a 256² slice at sigma = range(0): 1 is
/// near the feature smoothing scale (1.2), 3 the structure-tensor scale
/// of compute_features, 4 the decoder's coarse scale.
void BM_GaussianBlur(benchmark::State& state) {
  const image::ImageF32 img = bench_slice(256);
  const auto sigma = static_cast<float>(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(cv::gaussian_blur(img, sigma));
  }
  state.SetItemsProcessed(state.iterations() * img.pixel_count());
}
BENCHMARK(BM_GaussianBlur)->Arg(1)->Arg(3)->Arg(4);

/// RAII guard: forces a kernel backend for one benchmark, restores the
/// previous selection on scope exit.
class ScopedBackend {
 public:
  explicit ScopedBackend(const std::string& name)
      : prev_(tensor::backend_name()) {
    tensor::set_backend(name);
  }
  ~ScopedBackend() { tensor::set_backend(prev_); }

 private:
  std::string prev_;
};

/// GEMM throughput per kernel backend. Registered dynamically (one
/// instance per available backend, see register_kernel_benchmarks);
/// items processed = FLOPs so the reported rate reads directly as FLOP/s.
void BM_Gemm(benchmark::State& state, const std::string& backend,
             const std::string& op) {
  const ScopedBackend scoped(backend);
  const auto n = state.range(0);
  const tensor::Tensor a = tensor::xavier_uniform(n, n, 1, 1);
  const tensor::Tensor b = tensor::xavier_uniform(n, n, 1, 2);
  const tensor::Tensor bias = tensor::zeros(n);
  for (auto _ : state) {
    if (op == "matmul") {
      benchmark::DoNotOptimize(tensor::matmul(a, b));
    } else if (op == "matmul_nt") {
      benchmark::DoNotOptimize(tensor::matmul_nt(a, b));
    } else {
      benchmark::DoNotOptimize(tensor::linear(a, b, bias));
    }
  }
  state.SetItemsProcessed(state.iterations() * 2 * n * n * n);
}

/// Dynamic-int8 GEMM throughput per kernel backend: the full
/// linear_quantized path (per-row activation quantize + int8 GEMM +
/// fp32 requantize) against a pre-quantized weight panel. Items
/// processed = int8 MACs*2, so the rate reads as OP/s next to
/// BM_Gemm's FLOP/s.
void BM_GemmInt8(benchmark::State& state, const std::string& backend) {
  const ScopedBackend scoped(backend);
  const auto n = state.range(0);
  const tensor::Tensor a = tensor::xavier_uniform(n, n, 1, 1);
  const tensor::Tensor b = tensor::xavier_uniform(n, n, 1, 2);
  const tensor::quant::QuantizedTensor qb = tensor::quant::quantize_rows(b);
  for (auto _ : state) {
    benchmark::DoNotOptimize(tensor::matmul_nt_quantized(a, qb));
  }
  state.SetItemsProcessed(state.iterations() * 2 * n * n * n);
}

/// Attention per kernel backend (scores GEMM + softmax + value GEMM).
void BM_AttentionBackend(benchmark::State& state, const std::string& backend) {
  const ScopedBackend scoped(backend);
  const auto l = state.range(0);
  const tensor::Tensor q = tensor::xavier_uniform(l, 64, 2, 1);
  const tensor::Tensor k = tensor::xavier_uniform(l, 64, 2, 2);
  const tensor::Tensor v = tensor::xavier_uniform(l, 64, 2, 3);
  for (auto _ : state) {
    benchmark::DoNotOptimize(tensor::attention(q, k, v));
  }
}

/// One BM_Gemm + BM_GemmInt8 + BM_AttentionBackend family per available
/// backend; the backend is part of the benchmark name so
/// --benchmark_filter=avx2 works.
bool register_kernel_benchmarks() {
  for (const auto& backend : tensor::available_backends()) {
    for (const char* op : {"matmul", "matmul_nt", "linear"}) {
      benchmark::RegisterBenchmark(
          ("BM_Gemm/" + backend + "/" + op).c_str(),
          [backend, op = std::string(op)](benchmark::State& s) {
            BM_Gemm(s, backend, op);
          })
          ->Arg(256)
          ->Arg(512);
    }
    benchmark::RegisterBenchmark(
        ("BM_GemmInt8/" + backend).c_str(),
        [backend](benchmark::State& s) { BM_GemmInt8(s, backend); })
        ->Arg(256)
        ->Arg(512);
    benchmark::RegisterBenchmark(
        ("BM_Attention/" + backend).c_str(),
        [backend](benchmark::State& s) { BM_AttentionBackend(s, backend); })
        ->Arg(256)
        ->Arg(1024);
  }
  return true;
}
// Runs before BENCHMARK_MAIN's main(), like the BENCHMARK() macros.
[[maybe_unused]] const bool kKernelBenchmarksRegistered =
    register_kernel_benchmarks();

void BM_Softmax(benchmark::State& state) {
  tensor::Tensor a = tensor::xavier_uniform(1024, 1024, 3, 1);
  for (auto _ : state) {
    tensor::Tensor copy = a;
    tensor::softmax_rows(copy);
    benchmark::DoNotOptimize(copy);
  }
}
BENCHMARK(BM_Softmax);

void BM_FeatureExtraction(benchmark::State& state) {
  const image::ImageF32 img = bench_slice(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(models::compute_features(img));
  }
}
BENCHMARK(BM_FeatureExtraction)->Arg(256)->Arg(512);

void BM_GroundingDetect(benchmark::State& state) {
  const image::ImageF32 img = bench_slice(256);
  const models::GroundingDetector dino;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        dino.detect(img, "bright needle-like crystalline catalyst"));
  }
}
BENCHMARK(BM_GroundingDetect);

void BM_SamEncode(benchmark::State& state) {
  const image::ImageF32 img = bench_slice(256);
  const models::SamModel sam;
  for (auto _ : state) {
    benchmark::DoNotOptimize(sam.encode(img));
  }
}
BENCHMARK(BM_SamEncode);

void BM_SamPredictBox(benchmark::State& state) {
  const image::ImageF32 img = bench_slice(256);
  const models::SamModel sam;
  const models::SamEncoded enc = sam.encode(img);
  for (auto _ : state) {
    benchmark::DoNotOptimize(sam.predict_box(enc, {32, 32, 192, 128}));
  }
}
BENCHMARK(BM_SamPredictBox);

/// Box-prompt decode alone (every candidate, no selection) on a centered
/// square box. Arg 0: box side. Real time: the decoder fans its
/// candidates out over the global pool.
void BM_SamPredictBoxCandidates(benchmark::State& state) {
  const image::ImageF32 img = bench_slice(256);
  const models::SamModel sam;
  const models::SamEncoded enc = sam.encode(img);
  const std::int64_t side = state.range(0);
  const image::Box box{(256 - side) / 2, (256 - side) / 2, side, side};
  for (auto _ : state) {
    benchmark::DoNotOptimize(sam.predict_box_candidates(enc, box));
  }
  // Stage breakdown: mean per decode of each sub-span's summed wall time
  // (over every scale/candidate task), from a separate traced pass.
  constexpr int kTraced = 10;
  const bool was_enabled = obs::enabled();
  obs::set_enabled(true);
  obs::TraceCollector::global().clear();
  for (int i = 0; i < kTraced; ++i) {
    benchmark::DoNotOptimize(sam.predict_box_candidates(enc, box));
  }
  const std::string prefix = "sam.decode.";
  for (const auto& [stage, st] : obs::TraceCollector::global().aggregate()) {
    if (stage.rfind(prefix, 0) != 0) continue;
    state.counters[stage.substr(prefix.size()) + "_ms"] = st.total_us / 1e3 / kTraced;
  }
  obs::set_enabled(was_enabled);
  obs::TraceCollector::global().clear();
}
BENCHMARK(BM_SamPredictBoxCandidates)
    ->Arg(64)
    ->Arg(160)
    ->Arg(256)
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond);

/// The decoder's context median over a 160x160 box of a 256^2 slice.
/// Arg 0: radius; arg 1: masked (the background refit, excluding the
/// bright phase a first pass would find) or plain. Items = box pixels.
void BM_MedianFilterLarge(benchmark::State& state) {
  const image::ImageF32 img = bench_slice(256);
  const int radius = static_cast<int>(state.range(0));
  const bool masked = state.range(1) != 0;
  const image::Box box{48, 48, 160, 160};
  image::Mask exclude(box.w, box.h);
  for (std::int64_t y = 0; y < box.h; ++y) {
    for (std::int64_t x = 0; x < box.w; ++x) {
      exclude.at(x, y) = img.at(box.x + x, box.y + y) > 0.6f ? 1 : 0;
    }
  }
  const image::ImageF32 fallback = cv::median_filter_large(img, radius, box);
  for (auto _ : state) {
    if (masked) {
      benchmark::DoNotOptimize(cv::median_filter_large_masked(
          img, radius, exclude, {box.x, box.y}, box, &fallback));
    } else {
      benchmark::DoNotOptimize(cv::median_filter_large(img, radius, box));
    }
  }
  state.SetItemsProcessed(state.iterations() * box.area());
}
BENCHMARK(BM_MedianFilterLarge)
    ->ArgsProduct({{8, 20, 48, 96}, {0, 1}})
    ->Unit(benchmark::kMicrosecond);

/// A box-local candidate mask for BM_CandidateCleanup: overlapping
/// disks with ragged rims, pitted cores and scattered speckles. The
/// same seed draws the same blobs and noise, so `grow` < 1 / > 1 gives
/// the nested high/low-threshold masks of one candidate.
image::Mask cleanup_input(std::int64_t side, double grow) {
  std::mt19937 rng(99);
  struct Blob {
    double cx, cy, r;
  };
  std::vector<Blob> blobs;
  for (int i = 0; i < 6; ++i) {
    const double r = static_cast<double>(side) * (0.08 + 0.02 * (rng() % 7));
    const auto cx = static_cast<double>(rng() % side);
    blobs.push_back({cx, static_cast<double>(rng() % side), r});
  }
  image::Mask m(side, side);
  for (std::int64_t y = 0; y < side; ++y) {
    for (std::int64_t x = 0; x < side; ++x) {
      const double jitter = static_cast<double>(rng() % 3) - 1.0;
      const bool pit = rng() % 4 == 0, speck = rng() % 64 == 0;
      bool on = speck;
      for (const Blob& b : blobs) {
        const double d =
            std::hypot(static_cast<double>(x) - b.cx, static_cast<double>(y) - b.cy);
        if (d < b.r * grow + jitter && !(pit && d < 0.25 * b.r)) on = true;
      }
      m.at(x, y) = on ? 1 : 0;
    }
  }
  return m;
}

/// The box decoder's per-candidate cleanup (sam.decode.cleanup): three
/// box-local masks packed into the decode ROI, closed with the radius-1
/// disk, holes filled, speckles under 16 px removed from the first;
/// then the low/high IoU, the area and the unpacked mask. Arg 0: ROI
/// side (box side + 6).
void BM_CandidateCleanup(benchmark::State& state) {
  constexpr int kRadius = 1;
  constexpr std::int64_t kMinArea = 16, kMargin = 2 * kRadius + 1;
  const std::int64_t roi = state.range(0), side = roi - 2 * kMargin;
  const image::Mask mask = cleanup_input(side, 1.0);
  const image::Mask low = cleanup_input(side, 1.1);
  const image::Mask high = cleanup_input(side, 0.9);
  for (auto _ : state) {
    cv::BitScratch scratch;
    cv::BitMask bits, low_bits, high_bits;
    cv::clean_mask(bits, mask, roi, roi, {kMargin, kMargin}, kRadius, kMinArea, scratch);
    cv::clean_mask(low_bits, low, roi, roi, {kMargin, kMargin}, kRadius, 0, scratch);
    cv::clean_mask(high_bits, high, roi, roi, {kMargin, kMargin}, kRadius, 0, scratch);
    benchmark::DoNotOptimize(cv::mask_iou(low_bits, high_bits));
    benchmark::DoNotOptimize(bits.count());
    benchmark::DoNotOptimize(bits.unpack());
  }
}
BENCHMARK(BM_CandidateCleanup)
    ->Arg(60)
    ->Arg(120)
    ->Arg(170)
    ->Arg(262)
    ->UseRealTime()
    ->Unit(benchmark::kMicrosecond);

void BM_SamOnlyAutoMask(benchmark::State& state) {
  const image::ImageF32 img = bench_slice(256);
  const models::SamModel sam;
  const models::AutomaticMaskGenerator gen(sam);
  const models::SamEncoded enc = sam.encode(img);
  for (auto _ : state) {
    benchmark::DoNotOptimize(gen.generate(enc));
  }
}
BENCHMARK(BM_SamOnlyAutoMask);

void BM_EndToEndSlice(benchmark::State& state) {
  fibsem::SynthConfig cfg;
  cfg.type = fibsem::SampleType::kCrystalline;
  cfg.width = state.range(0);
  cfg.height = state.range(0);
  cfg.seed = 123;
  const auto s = fibsem::generate_slice(cfg, 0);
  const core::ZenesisPipeline pipe;
  for (auto _ : state) {
    benchmark::DoNotOptimize(pipe.segment(
        image::AnyImage(s.raw), "bright needle-like crystalline catalyst"));
  }
}
BENCHMARK(BM_EndToEndSlice)->Arg(128)->Arg(256);

void BM_SliceGeneration(benchmark::State& state) {
  fibsem::SynthConfig cfg;
  cfg.type = fibsem::SampleType::kAmorphous;
  cfg.width = 256;
  cfg.height = 256;
  cfg.seed = 9;
  std::int64_t z = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(fibsem::generate_slice(cfg, z++ % 10));
  }
}
BENCHMARK(BM_SliceGeneration);

fibsem::SyntheticVolume bench_volume() {
  fibsem::SynthConfig cfg;
  cfg.type = fibsem::SampleType::kCrystalline;
  cfg.width = 128;
  cfg.height = 128;
  cfg.depth = 8;
  cfg.seed = 2025;
  return fibsem::generate_volume(cfg);
}

core::PipelineConfig volume_config(std::size_t threads, bool cache) {
  core::PipelineConfig cfg;
  cfg.volume_threads = threads;
  if (!cache) cfg.feature_cache.capacity = 0;
  // Keep the mask cache out of the throughput baselines: with it on,
  // every rep after the first would be a near-free memoized replay and
  // the serial/parallel/feature-cached comparison would lose meaning.
  cfg.mask_cache.capacity = 0;
  return cfg;
}

/// Mode-B volume throughput. Arg 0: worker threads (1 = serial path);
/// arg 1: feature cache on/off. Items processed = slices.
void BM_VolumeSegment(benchmark::State& state) {
  const auto threads = static_cast<std::size_t>(state.range(0));
  const bool cache = state.range(1) != 0;
  const fibsem::SyntheticVolume vol = bench_volume();
  const core::ZenesisPipeline pipe(volume_config(threads, cache));
  const core::VolumeRequest request = core::VolumeRequest::view(
      vol.volume, "bright needle-like crystalline catalyst");
  for (auto _ : state) {
    benchmark::DoNotOptimize(pipe.segment_volume(request));
  }
  state.SetItemsProcessed(state.iterations() * vol.depth());
  state.counters["cache_hit_rate"] = pipe.cache_stats().hit_rate();
}
BENCHMARK(BM_VolumeSegment)
    ->Args({1, 0})
    ->Args({2, 0})
    ->Args({4, 0})
    ->Args({0, 0})   // global pool (one worker per hardware thread)
    ->Args({1, 1})
    ->Args({4, 1})
    ->Unit(benchmark::kMillisecond);

// --- Cache-contention microbenchmark ---------------------------------

using ContentionCache = cache::ShardedLruCache<std::uint64_t>;
constexpr std::uint64_t kContentionKeySpace = 512;
constexpr int kContentionOpsPerThread = 4000;

cache::Key128 contention_key(std::uint64_t n) {
  return cache::Key128{n, n * 0x9e3779b97f4a7c15ull + 1};
}

std::unique_ptr<ContentionCache> make_contention_cache(std::size_t shards) {
  cache::ShardedCacheConfig cfg;
  cfg.shards = shards;
  cfg.capacity = 2 * kContentionKeySpace;  // gets mostly hit
  cfg.byte_budget = std::size_t{1} << 20;
  auto cache = std::make_unique<ContentionCache>(cfg);
  for (std::uint64_t n = 0; n < kContentionKeySpace; ++n) {
    (void)cache->put(contention_key(n), std::make_shared<const std::uint64_t>(n),
                     64);
  }
  return cache;
}

/// One mixed pass: every thread does kContentionOpsPerThread ops, 7/8
/// gets and 1/8 puts. Every op mutates shard state (gets touch LRU
/// recency), so a single-shard cache serializes completely — this is the
/// single-global-mutex baseline the sharded design is measured against.
void contention_pass(ContentionCache& cache, std::size_t threads) {
  std::vector<std::thread> workers;
  workers.reserve(threads);
  for (std::size_t t = 0; t < threads; ++t) {
    workers.emplace_back([&cache, t] {
      std::mt19937_64 rng(0xbe9c4 + t);
      for (int i = 0; i < kContentionOpsPerThread; ++i) {
        const std::uint64_t n = rng() % kContentionKeySpace;
        if (rng() % 8 == 0) {
          (void)cache.put(contention_key(n),
                          std::make_shared<const std::uint64_t>(n), 64);
        } else {
          benchmark::DoNotOptimize(cache.get(contention_key(n)));
        }
      }
    });
  }
  for (auto& w : workers) w.join();
}

/// Lock-contention scaling. Arg 0: shard count (1 = the single-mutex
/// baseline); arg 1: threads. Items processed = cache operations.
void BM_CacheContention(benchmark::State& state) {
  const auto shards = static_cast<std::size_t>(state.range(0));
  const auto threads = static_cast<std::size_t>(state.range(1));
  const auto cache = make_contention_cache(shards);
  for (auto _ : state) {
    contention_pass(*cache, threads);
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(threads) *
                          kContentionOpsPerThread);
}
BENCHMARK(BM_CacheContention)
    ->Args({1, 1})
    ->Args({1, 4})
    ->Args({1, 16})
    ->Args({1, 64})
    ->Args({64, 1})
    ->Args({64, 4})
    ->Args({64, 16})
    ->Args({64, 64})
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond);

void BM_ParallelForScaling(benchmark::State& state) {
  const auto threads = static_cast<std::size_t>(state.range(0));
  parallel::ThreadPool pool(threads);
  std::vector<double> data(1 << 20, 1.0);
  for (auto _ : state) {
    parallel::parallel_for(0, static_cast<std::int64_t>(data.size()),
                           [&](std::int64_t i) {
                             data[static_cast<std::size_t>(i)] =
                                 data[static_cast<std::size_t>(i)] * 1.0000001 + 0.5;
                           },
                           pool);
    benchmark::DoNotOptimize(data.data());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(data.size()));
}
BENCHMARK(BM_ParallelForScaling)->Arg(1)->Arg(2)->Arg(4);

/// Hot-path cost of one obs::Span. Arg 0: tracing off (the shipping
/// default — must be a relaxed load + branch) vs on (one seqlock ring
/// write). Items processed = spans.
void BM_TraceOverhead(benchmark::State& state) {
  const bool on = state.range(0) != 0;
  const bool was = obs::enabled();
  obs::set_enabled(on);
  obs::TraceCollector::global().clear();
  for (auto _ : state) {
    obs::Span span("bench.trace_overhead");
    benchmark::DoNotOptimize(&span);
  }
  obs::set_enabled(was);
  obs::TraceCollector::global().clear();
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_TraceOverhead)->Arg(0)->Arg(1);

/// A 4-page 256x256 u16 stack of synthetic FIB-SEM slices — realistic
/// texture so PackBits sees real run-length structure, not ramps.
io::TiffStack tiff_bench_stack() {
  fibsem::SynthConfig cfg;
  cfg.type = fibsem::SampleType::kCrystalline;
  cfg.width = 256;
  cfg.height = 256;
  cfg.seed = 31337;
  io::TiffStack stack;
  for (std::int64_t z = 0; z < 4; ++z) {
    stack.pages.emplace_back(fibsem::generate_slice(cfg, z).raw);
  }
  return stack;
}

io::TiffWriteOptions tiff_variant_options(int variant) {
  io::TiffWriteOptions opt;
  switch (variant) {
    case 1:
      opt.compression = io::TiffCompression::kPackBits;
      break;
    case 2:
      opt.layout = io::TiffLayout::kTiles;
      break;
    case 3:
      opt.format = io::TiffFormat::kBigTiff;
      opt.layout = io::TiffLayout::kTiles;
      opt.compression = io::TiffCompression::kPackBits;
      break;
    case 4:
      opt.layout = io::TiffLayout::kTiles;
      opt.compression = io::TiffCompression::kLzw;
      opt.predictor = 2;
      break;
    case 5:
      opt.layout = io::TiffLayout::kTiles;
      opt.compression = io::TiffCompression::kDeflate;
      opt.predictor = 2;
      break;
    default:
      break;  // classic LE, single strip, uncompressed
  }
  return opt;
}

const char* tiff_variant_name(int variant) {
  switch (variant) {
    case 1: return "classic_packbits";
    case 2: return "classic_tiles";
    case 3: return "bigtiff_tiles_packbits";
    case 4: return "classic_tiles_lzw_pred";
    case 5: return "classic_tiles_deflate_pred";
    default: return "classic_strips";
  }
}

/// Materializing-decoder throughput over the format variants. Items
/// processed = decoded pages; bytes processed = decoded pixel bytes.
void BM_TiffDecode(benchmark::State& state) {
  const int variant = static_cast<int>(state.range(0));
  const io::TiffStack stack = tiff_bench_stack();
  const auto bytes = io::write_tiff_bytes(stack, tiff_variant_options(variant));
  for (auto _ : state) {
    benchmark::DoNotOptimize(io::read_tiff_bytes(bytes));
  }
  state.SetLabel(tiff_variant_name(variant));
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(stack.pages.size()));
  state.SetBytesProcessed(state.iterations() * 4 * 256 * 256 * 2);
}
BENCHMARK(BM_TiffDecode)->Arg(0)->Arg(1)->Arg(2)->Arg(3)->Arg(4)->Arg(5);

/// Streaming-reader throughput: parse once, decode pages on demand —
/// the per-slice cost the Mode-B streaming path pays.
void BM_TiffStream(benchmark::State& state) {
  const int variant = static_cast<int>(state.range(0));
  const auto bytes =
      io::write_tiff_bytes(tiff_bench_stack(), tiff_variant_options(variant));
  const auto reader = io::TiffVolumeReader::open(bytes);
  std::int64_t page = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(reader.read_page(page));
    page = (page + 1) % reader.pages();
  }
  state.SetLabel(tiff_variant_name(variant));
  state.SetItemsProcessed(state.iterations());
  state.SetBytesProcessed(state.iterations() * 256 * 256 * 2);
}
BENCHMARK(BM_TiffStream)->Arg(0)->Arg(1)->Arg(2)->Arg(3)->Arg(4)->Arg(5);

}  // namespace

BENCHMARK_MAIN();
