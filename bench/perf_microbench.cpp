// Performance microbenchmarks (the venue's HPC angle): tensor kernels,
// attention, feature extraction, model inference, end-to-end slice
// latency, thread-scaling of the parallel substrate, Mode-B volume
// throughput (serial vs. parallel vs. feature-cached), and serving-layer
// throughput (blocking submit vs. micro-batched SegmentService). The
// main() also emits out/BENCH_gemm.json, out/BENCH_volume.json,
// out/BENCH_serve.json, out/BENCH_obs.json and out/BENCH_cache.json —
// each only when --benchmark_filter selects the family it belongs to
// (BM_Gemm/BM_GemmInt8, BM_VolumeSegment, BM_ServeThroughput,
// BM_TraceOverhead, BM_CacheContention), so successive PRs accumulate a
// perf trajectory and a narrow run never overwrites unrelated records.
// (out/BENCH_tiff.json moved to `tools/tiff_corpus --bench`, which
// measures against real files.)
#include <benchmark/benchmark.h>
#include <unistd.h>

#include <chrono>
#include <cstdio>
#include <future>
#include <map>
#include <memory>
#include <random>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "exp_common.hpp"
#include "zenesis/cache/sharded_lru.hpp"
#include "zenesis/core/pipeline.hpp"
#include "zenesis/cv/filters.hpp"
#include "zenesis/fibsem/synth.hpp"
#include "zenesis/io/report.hpp"
#include "zenesis/io/tiff.hpp"
#include "zenesis/io/tiff_stream.hpp"
#include "zenesis/models/auto_mask.hpp"
#include "zenesis/obs/trace.hpp"
#include "zenesis/parallel/parallel_for.hpp"
#include "zenesis/serve/service.hpp"
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
/// instance per available backend) in main; items processed = FLOPs so
/// the reported rate reads directly as FLOP/s.
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

/// One BM_Gemm + BM_AttentionBackend family per available backend; the
/// backend is part of the benchmark name so --benchmark_filter=avx2
/// works.
void register_kernel_benchmarks() {
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
}

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
  cfg.feature_cache.enabled = cache;
  // Keep the mask cache out of the throughput baselines: with it on,
  // every rep after the first would be a near-free memoized replay and
  // the serial/parallel/feature-cached comparison would lose meaning.
  cfg.mask_cache.enabled = false;
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

/// Repeated-slice request traffic (cache-hot serving): `kDistinct` unique
/// slices cycled `kRequests` times — the request-per-micrograph pattern
/// the serving layer amortizes via the FeatureCache.
constexpr int kServeRequests = 24;
constexpr int kServeDistinct = 4;

std::vector<image::AnyImage> serve_traffic() {
  std::vector<image::AnyImage> distinct;
  for (int i = 0; i < kServeDistinct; ++i) {
    fibsem::SynthConfig cfg;
    cfg.type = fibsem::SampleType::kCrystalline;
    cfg.width = 128;
    cfg.height = 128;
    cfg.seed = 5000 + static_cast<std::uint64_t>(i);
    distinct.emplace_back(fibsem::generate_slice(cfg, 0).raw);
  }
  std::vector<image::AnyImage> traffic;
  traffic.reserve(kServeRequests);
  for (int i = 0; i < kServeRequests; ++i) {
    traffic.push_back(distinct[static_cast<std::size_t>(i % kServeDistinct)]);
  }
  return traffic;
}

constexpr const char* kServePrompt = "bright needle-like crystalline catalyst";

/// Serving throughput on repeated-slice traffic. Arg 0: mode — 0 = serial
/// blocking pipeline calls (the pre-serve baseline), 1 = micro-batched
/// SegmentService. Items processed = requests.
void BM_ServeThroughput(benchmark::State& state) {
  const bool batched = state.range(0) != 0;
  const std::vector<image::AnyImage> traffic = serve_traffic();
  if (batched) {
    serve::ServiceConfig cfg;
    cfg.queue_capacity = kServeRequests * 2;
    cfg.max_batch = 8;
    serve::SegmentService service(cfg);
    for (auto _ : state) {
      std::vector<std::future<serve::Response>> futures;
      futures.reserve(traffic.size());
      for (const auto& img : traffic) {
        futures.push_back(
            service.submit(serve::Request::slice(img, kServePrompt)));
      }
      for (auto& f : futures) benchmark::DoNotOptimize(f.get());
    }
    state.counters["cache_hit_rate"] = service.pipeline().cache_stats().hit_rate();
    state.counters["mean_batch"] = service.stats().batch_size.mean();
  } else {
    const core::ZenesisPipeline pipe(volume_config(1, false));
    for (auto _ : state) {
      for (const auto& img : traffic) {
        benchmark::DoNotOptimize(pipe.segment(img, kServePrompt));
      }
    }
  }
  state.SetItemsProcessed(state.iterations() * kServeRequests);
}
BENCHMARK(BM_ServeThroughput)->Arg(0)->Arg(1)->Unit(benchmark::kMillisecond);

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

/// Times one segment_volume pass in seconds (best of `reps`).
double time_volume_pass(const core::ZenesisPipeline& pipe,
                        const image::VolumeU16& volume, int reps) {
  const core::VolumeRequest request = core::VolumeRequest::view(
      volume, "bright needle-like crystalline catalyst");
  double best = 1e30;
  for (int r = 0; r < reps; ++r) {
    const auto t0 = std::chrono::steady_clock::now();
    benchmark::DoNotOptimize(pipe.segment_volume(request));
    const std::chrono::duration<double> dt = std::chrono::steady_clock::now() - t0;
    best = std::min(best, dt.count());
  }
  return best;
}

/// Standalone serial-vs-parallel-vs-cached volume measurement, persisted
/// as out/BENCH_volume.json so future PRs have a perf trajectory to
/// compare against. Written when the filter selects BM_VolumeSegment.
void write_volume_record() {
  const fibsem::SyntheticVolume vol = bench_volume();
  const auto hw = static_cast<std::size_t>(
      std::max(1u, std::thread::hardware_concurrency()));
  constexpr int kReps = 3;

  const core::ZenesisPipeline serial(volume_config(1, false));
  const double t_serial = time_volume_pass(serial, vol.volume, kReps);

  const core::ZenesisPipeline parallel(volume_config(hw, false));
  const double t_parallel = time_volume_pass(parallel, vol.volume, kReps);

  const core::ZenesisPipeline cached(volume_config(hw, true));
  (void)time_volume_pass(cached, vol.volume, 1);  // cold pass fills the cache
  const double t_cached = time_volume_pass(cached, vol.volume, kReps);
  const cache::FeatureCacheStats cache_stats = cached.cache_stats();

  // Full memoization: default config (mask cache on), warm second pass.
  core::PipelineConfig mask_cfg;
  mask_cfg.volume_threads = hw;
  const core::ZenesisPipeline memoized(mask_cfg);
  (void)time_volume_pass(memoized, vol.volume, 1);  // cold pass fills caches
  const double t_mask_warm = time_volume_pass(memoized, vol.volume, kReps);

  const double slices = static_cast<double>(vol.depth());
  io::JsonObject rec;
  rec.set("bench", "volume_mode_b");
  rec.set("width", static_cast<std::int64_t>(128));
  rec.set("height", static_cast<std::int64_t>(128));
  rec.set("depth", vol.depth());
  rec.set("hardware_threads", static_cast<std::int64_t>(hw));
  rec.set("serial_slices_per_sec", slices / t_serial);
  rec.set("parallel_slices_per_sec", slices / t_parallel);
  rec.set("parallel_speedup", t_serial / t_parallel);
  rec.set("cached_warm_slices_per_sec", slices / t_cached);
  rec.set("cached_warm_speedup", t_serial / t_cached);
  rec.set("cache_hits", static_cast<std::int64_t>(cache_stats.hits));
  rec.set("cache_misses", static_cast<std::int64_t>(cache_stats.misses));
  rec.set("cache_hit_rate", cache_stats.hit_rate());
  rec.set("mask_warm_slices_per_sec", slices / t_mask_warm);
  rec.set("mask_warm_speedup", t_serial / t_mask_warm);

  bench::ExperimentConfig out_cfg;
  const std::string out = bench::ensure_out_dir(out_cfg);
  const std::string path = out + "/BENCH_volume.json";
  rec.write(path);
  std::printf("\n%s\n", rec.to_string(2).c_str());
  std::printf("volume perf record written to %s\n", path.c_str());
}

/// Standalone serial-submit vs micro-batched-service measurement on
/// cache-hot repeated-slice traffic, persisted as out/BENCH_serve.json.
/// Written when the filter selects BM_ServeThroughput.
void write_serve_record() {
  const std::vector<image::AnyImage> traffic = serve_traffic();
  constexpr int kReps = 3;

  const auto time_pass = [&](const std::function<void()>& pass) {
    double best = 1e30;
    for (int r = 0; r < kReps; ++r) {
      const auto t0 = std::chrono::steady_clock::now();
      pass();
      const std::chrono::duration<double> dt =
          std::chrono::steady_clock::now() - t0;
      best = std::min(best, dt.count());
    }
    return best;
  };

  const core::ZenesisPipeline blocking(volume_config(1, false));
  const double t_serial = time_pass([&] {
    for (const auto& img : traffic) {
      benchmark::DoNotOptimize(blocking.segment(img, kServePrompt));
    }
  });

  serve::ServiceConfig scfg;
  scfg.queue_capacity = kServeRequests * 2;
  scfg.max_batch = 8;
  serve::SegmentService service(scfg);
  const double t_serve = time_pass([&] {
    std::vector<std::future<serve::Response>> futures;
    futures.reserve(traffic.size());
    for (const auto& img : traffic) {
      futures.push_back(
          service.submit(serve::Request::slice(img, kServePrompt)));
    }
    for (auto& f : futures) benchmark::DoNotOptimize(f.get());
  });
  const serve::ServiceStats stats = service.stats();

  const double requests = static_cast<double>(kServeRequests);
  io::JsonObject rec;
  rec.set("bench", "serve_throughput");
  rec.set("requests", static_cast<std::int64_t>(kServeRequests));
  rec.set("distinct_slices", static_cast<std::int64_t>(kServeDistinct));
  rec.set("serial_requests_per_sec", requests / t_serial);
  rec.set("serve_requests_per_sec", requests / t_serve);
  rec.set("serve_speedup", t_serial / t_serve);
  rec.set("mean_batch_size", stats.batch_size.mean());
  rec.set("queue_us_p95", stats.queue_us.percentile(95.0));
  rec.set("decode_us_mean", stats.decode_us.mean());
  rec.set("decode_us_p95", stats.decode_us.percentile(95.0));
  rec.set("total_us_p95", stats.total_us.percentile(95.0));
  rec.set("cache_hit_rate", service.pipeline().cache_stats().hit_rate());
  rec.set("kernel_backend", stats.kernel_backend);

  bench::ExperimentConfig out_cfg;
  const std::string out = bench::ensure_out_dir(out_cfg);
  const std::string path = out + "/BENCH_serve.json";
  rec.write(path);
  std::printf("\n%s\n", rec.to_string(2).c_str());
  std::printf("serve perf record written to %s\n", path.c_str());
}

/// Tracing-overhead record for the observability acceptance criterion,
/// persisted as out/BENCH_obs.json. The headline number —
/// tracing_disabled_regression_pct, which must stay < 2 — is computed
/// from the deterministic quantities: the tight-loop per-span cost with
/// tracing off (a relaxed load + branch) times the spans one serve
/// request emits, relative to that request's wall time. The end-to-end
/// off-vs-on serve delta is also measured and recorded, but on small or
/// loaded machines it is noise-dominated (single-digit req/sec), so it
/// is reference data, not the criterion. Written when the filter selects
/// BM_TraceOverhead.
void write_obs_record() {
  const bool was_enabled = obs::enabled();
  const std::vector<image::AnyImage> traffic = serve_traffic();
  constexpr int kReps = 3;

  const auto time_serve_pass = [&] {
    serve::ServiceConfig scfg;
    scfg.queue_capacity = kServeRequests * 2;
    scfg.max_batch = 8;
    serve::SegmentService service(scfg);
    double best = 1e30;
    for (int r = 0; r < kReps; ++r) {
      const auto t0 = std::chrono::steady_clock::now();
      std::vector<std::future<serve::Response>> futures;
      futures.reserve(traffic.size());
      for (const auto& img : traffic) {
        futures.push_back(
            service.submit(serve::Request::slice(img, kServePrompt)));
      }
      for (auto& f : futures) benchmark::DoNotOptimize(f.get());
      const std::chrono::duration<double> dt =
          std::chrono::steady_clock::now() - t0;
      best = std::min(best, dt.count());
    }
    return best;
  };

  // Raw per-span cost, both modes.
  const auto time_span_ns = [](int iters) {
    const auto t0 = std::chrono::steady_clock::now();
    for (int i = 0; i < iters; ++i) {
      obs::Span span("bench.obs_record");
      benchmark::DoNotOptimize(&span);
    }
    const std::chrono::duration<double, std::nano> dt =
        std::chrono::steady_clock::now() - t0;
    return dt.count() / iters;
  };
  obs::set_enabled(false);
  const double span_off_ns = time_span_ns(1 << 20);
  obs::set_enabled(true);
  const double span_on_ns = time_span_ns(1 << 18);

  obs::set_enabled(false);
  const double t_off = time_serve_pass();

  obs::set_enabled(true);
  obs::TraceCollector::global().clear();
  const double t_on = time_serve_pass();
  std::uint64_t spans_recorded = obs::TraceCollector::global().overwritten();
  for (const auto& [stage, st] : obs::TraceCollector::global().aggregate()) {
    spans_recorded += st.count;
  }
  obs::set_enabled(was_enabled);
  obs::TraceCollector::global().clear();

  const double requests = static_cast<double>(kServeRequests);
  // The traced pass emits this many spans per request (submit, queue,
  // batch share, readiness, encode share, decode, pipeline internals…).
  // kReps passes ran while tracing was on; spans_recorded covers all of
  // them, so normalize by kReps too.
  const double spans_per_request =
      static_cast<double>(spans_recorded) / (requests * kReps);
  const double request_ns = t_off / requests * 1e9;

  io::JsonObject rec;
  rec.set("bench", "obs_trace_overhead");
  rec.set("requests", static_cast<std::int64_t>(kServeRequests));
  rec.set("span_disabled_ns", span_off_ns);
  rec.set("span_enabled_ns", span_on_ns);
  rec.set("spans_per_request", spans_per_request);
  // Acceptance: < 2. Cost the disabled instrumentation adds to one serve
  // request — spans_per_request dormant Span constructions — as a
  // percentage of the request's measured wall time.
  rec.set("tracing_disabled_regression_pct",
          spans_per_request * span_off_ns / request_ns * 100.0);
  rec.set("tracing_enabled_overhead_pct",
          spans_per_request * span_on_ns / request_ns * 100.0);
  // Reference: end-to-end measurement (noise-dominated on small boxes).
  rec.set("serve_req_per_sec_tracing_off", requests / t_off);
  rec.set("serve_req_per_sec_tracing_on", requests / t_on);
  rec.set("serve_measured_delta_pct", (t_on - t_off) / t_off * 100.0);
  rec.set("spans_recorded_enabled_passes",
          static_cast<std::int64_t>(spans_recorded));

  bench::ExperimentConfig out_cfg;
  const std::string out = bench::ensure_out_dir(out_cfg);
  const std::string path = out + "/BENCH_obs.json";
  rec.write(path);
  std::printf("\n%s\n", rec.to_string(2).c_str());
  std::printf("obs perf record written to %s\n", path.c_str());
}

/// Standalone single-mutex vs sharded cache-contention measurement,
/// persisted as out/BENCH_cache.json so the lock-striping win has a
/// tracked trajectory. For each thread count, both topologies run the
/// identical mixed get/put workload (best of kReps); the headline
/// `speedup_16t` is sharded ops/sec over single-shard ops/sec at 16
/// threads. Written when the filter selects BM_CacheContention.
void write_cache_record() {
  constexpr int kReps = 3;
  constexpr std::size_t kShardedShards = 64;
  const std::size_t thread_counts[] = {1, 4, 16, 64};

  const auto ops_per_sec = [&](std::size_t shards, std::size_t threads) {
    const auto cache = make_contention_cache(shards);
    double best = 1e30;
    for (int r = 0; r < kReps; ++r) {
      const auto t0 = std::chrono::steady_clock::now();
      contention_pass(*cache, threads);
      const std::chrono::duration<double> dt =
          std::chrono::steady_clock::now() - t0;
      best = std::min(best, dt.count());
    }
    return static_cast<double>(threads) * kContentionOpsPerThread / best;
  };

  io::JsonObject rec;
  rec.set("bench", "cache_contention");
  rec.set("key_space", static_cast<std::int64_t>(kContentionKeySpace));
  rec.set("ops_per_thread", static_cast<std::int64_t>(kContentionOpsPerThread));
  rec.set("sharded_shards", static_cast<std::int64_t>(kShardedShards));
  rec.set("hardware_threads",
          static_cast<std::int64_t>(
              std::max(1u, std::thread::hardware_concurrency())));
  double speedup_16t = 0.0;
  for (const std::size_t threads : thread_counts) {
    const double single = ops_per_sec(1, threads);
    const double sharded = ops_per_sec(kShardedShards, threads);
    const std::string suffix = std::to_string(threads) + "t";
    rec.set("single_mutex_ops_per_sec_" + suffix, single);
    rec.set("sharded_ops_per_sec_" + suffix, sharded);
    rec.set("speedup_" + suffix, sharded / single);
    if (threads == 16) speedup_16t = sharded / single;
  }
  rec.set("speedup_16t", speedup_16t);

  bench::ExperimentConfig out_cfg;
  const std::string out = bench::ensure_out_dir(out_cfg);
  const std::string path = out + "/BENCH_cache.json";
  rec.write(path);
  std::printf("\n%s\n", rec.to_string(2).c_str());
  std::printf("cache perf record written to %s\n", path.c_str());
}

// out/BENCH_tiff.json is owned by `tools/tiff_corpus --bench` now: the
// per-codec naive-vs-streaming comparison needs real files, byte
// sources and RSS probes, which live more naturally next to the corpus
// tool than inside this in-memory microbenchmark.

/// Standalone per-backend GEMM measurement, persisted as
/// out/BENCH_gemm.json: GFLOP/s for matmul / matmul_nt / linear at 256,
/// 512 and 1024 under every available backend, plus the speedup of each
/// fast backend over the scalar reference, plus int8 GOP/s of the
/// dynamic-quantization matmul_nt path and its ratio over the same
/// backend's fp32 matmul_nt (the quantization acceptance headline).
/// Written when the filter selects BM_Gemm or BM_GemmInt8.
void write_gemm_record() {
  const std::vector<std::int64_t> sizes = {256, 512, 1024};
  const std::vector<std::string> ops = {"matmul", "matmul_nt", "linear"};
  constexpr int kReps = 2;

  const auto gflops = [&](const std::string& op, std::int64_t n) {
    const tensor::Tensor a = tensor::xavier_uniform(n, n, 1, 1);
    const tensor::Tensor b = tensor::xavier_uniform(n, n, 1, 2);
    const tensor::Tensor bias = tensor::zeros(n);
    const auto run = [&] {
      if (op == "matmul") {
        benchmark::DoNotOptimize(tensor::matmul(a, b));
      } else if (op == "matmul_nt") {
        benchmark::DoNotOptimize(tensor::matmul_nt(a, b));
      } else {
        benchmark::DoNotOptimize(tensor::linear(a, b, bias));
      }
    };
    run();  // warm-up
    double best = 1e30;
    for (int r = 0; r < kReps; ++r) {
      const auto t0 = std::chrono::steady_clock::now();
      run();
      const std::chrono::duration<double> dt =
          std::chrono::steady_clock::now() - t0;
      best = std::min(best, dt.count());
    }
    return 2.0 * static_cast<double>(n) * static_cast<double>(n) *
           static_cast<double>(n) / best / 1e9;
  };

  // Int8 GOP/s of the full dynamic path (activation quantize + int8
  // GEMM + requantize) against a pre-quantized panel — the exact shape
  // ops::linear_quantized runs in the encoder.
  const auto gops_int8 = [&](std::int64_t n) {
    const tensor::Tensor a = tensor::xavier_uniform(n, n, 1, 1);
    const tensor::Tensor b = tensor::xavier_uniform(n, n, 1, 2);
    const tensor::quant::QuantizedTensor qb = tensor::quant::quantize_rows(b);
    const auto run = [&] {
      benchmark::DoNotOptimize(tensor::matmul_nt_quantized(a, qb));
    };
    run();  // warm-up
    double best = 1e30;
    for (int r = 0; r < kReps; ++r) {
      const auto t0 = std::chrono::steady_clock::now();
      run();
      const std::chrono::duration<double> dt =
          std::chrono::steady_clock::now() - t0;
      best = std::min(best, dt.count());
    }
    return 2.0 * static_cast<double>(n) * static_cast<double>(n) *
           static_cast<double>(n) / best / 1e9;
  };

  const std::string active = tensor::backend_name();
  io::JsonObject rec;
  rec.set("bench", "gemm_kernels");
  rec.set("cpu_features", tensor::cpu_feature_string());
  rec.set("hardware_threads",
          static_cast<std::int64_t>(
              std::max(1u, std::thread::hardware_concurrency())));
  rec.set("default_backend", active);

  std::map<std::string, double> results;  // "<backend>_<op>_<n>" → GFLOP/s
  std::string backends_csv;
  for (const auto& backend : tensor::available_backends()) {
    if (!tensor::set_backend(backend)) continue;
    if (!backends_csv.empty()) backends_csv += ",";
    backends_csv += backend;
    for (const auto& op : ops) {
      for (const std::int64_t n : sizes) {
        const std::string key =
            backend + "_" + op + "_" + std::to_string(n);
        const double g = gflops(op, n);
        results[key] = g;
        rec.set(key + "_gflops", g);
      }
    }
    for (const std::int64_t n : sizes) {
      const std::string key = backend + "_matmul_nt_i8_" + std::to_string(n);
      const double g = gops_int8(n);
      results[key] = g;
      rec.set(key + "_gops", g);
    }
  }
  tensor::set_backend(active);
  rec.set("backends", backends_csv);

  // Acceptance headline: fast-backend speedup over the scalar reference.
  for (const auto& backend : tensor::available_backends()) {
    if (backend == "scalar") continue;
    for (const auto& op : ops) {
      for (const std::int64_t n : sizes) {
        const std::string suffix = op + "_" + std::to_string(n);
        rec.set(backend + "_vs_scalar_" + suffix,
                results[backend + "_" + suffix] /
                    results["scalar_" + suffix]);
      }
    }
  }

  // Quantization headline: int8 matmul_nt over the SAME backend's fp32
  // matmul_nt (acceptance: >= 1.8x on avx2 at every size).
  for (const auto& backend : tensor::available_backends()) {
    for (const std::int64_t n : sizes) {
      const std::string sz = std::to_string(n);
      rec.set(backend + "_int8_vs_fp32_matmul_nt_" + sz,
              results[backend + "_matmul_nt_i8_" + sz] /
                  results[backend + "_matmul_nt_" + sz]);
    }
  }

  bench::ExperimentConfig out_cfg;
  const std::string out = bench::ensure_out_dir(out_cfg);
  const std::string path = out + "/BENCH_gemm.json";
  rec.write(path);
  std::printf("\n%s\n", rec.to_string(2).c_str());
  std::printf("gemm perf record written to %s\n", path.c_str());
}

/// Display reporter (console, or --benchmark_format=json) that also
/// notes which benchmark families ran, so main() rewrites only the
/// out/BENCH_*.json records whose family --benchmark_filter selected.
class FamilyRecorder : public benchmark::BenchmarkReporter {
 public:
  explicit FamilyRecorder(const std::string& format) {
    if (format == "json") {
      display_ = std::make_unique<benchmark::JSONReporter>();
    } else {
      display_ = std::make_unique<benchmark::ConsoleReporter>(
          isatty(fileno(stdout)) ? benchmark::ConsoleReporter::OO_Color
                                 : benchmark::ConsoleReporter::OO_None);
    }
  }

  bool ReportContext(const Context& context) override {
    return display_->ReportContext(context);
  }
  void ReportRuns(const std::vector<Run>& runs) override {
    for (const Run& run : runs) {
      const std::string name = run.benchmark_name();
      families_.insert(name.substr(0, name.find('/')));
    }
    display_->ReportRuns(runs);
  }
  void Finalize() override { display_->Finalize(); }

  bool ran(const std::string& family) const { return families_.count(family) != 0; }

 private:
  std::unique_ptr<benchmark::BenchmarkReporter> display_;
  std::set<std::string> families_;
};

/// The --benchmark_format value (read before benchmark::Initialize
/// consumes the flag).
std::string format_flag(int argc, char** argv) {
  const std::string prefix = "--benchmark_format=";
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind(prefix, 0) == 0) return arg.substr(prefix.size());
  }
  return "console";
}

}  // namespace

int main(int argc, char** argv) {
  FamilyRecorder reporter(format_flag(argc, argv));
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  register_kernel_benchmarks();
  benchmark::RunSpecifiedBenchmarks(&reporter);
  benchmark::Shutdown();
  if (reporter.ran("BM_Gemm") || reporter.ran("BM_GemmInt8")) write_gemm_record();
  if (reporter.ran("BM_VolumeSegment")) write_volume_record();
  if (reporter.ran("BM_ServeThroughput")) write_serve_record();
  if (reporter.ran("BM_TraceOverhead")) write_obs_record();
  if (reporter.ran("BM_CacheContention")) write_cache_record();
  return 0;
}
