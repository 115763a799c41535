// volume_cold — the paper's Mode B. One caller streams 256x256x16 16-bit
// Deflate + horizontal-predictor TIFF stacks (16-row strips), alternating
// crystalline and amorphous, through segment_volume(from_file). Every
// volume has its own seed, and a pass that wraps around the inputs gets a
// fresh pipeline, so the feature and mask caches are always cold for the
// volume being segmented.
#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

#include "zenesis/cache/hash.hpp"
#include "zenesis/core/pipeline.hpp"
#include "zenesis/eval/metrics.hpp"
#include "zenesis/fibsem/synth.hpp"
#include "zenesis/io/tiff.hpp"
#include "zenesis/io/tiff_stream.hpp"
#include "zenesis/obs/trace.hpp"
#include "zenesis/parallel/thread_pool.hpp"
#include "spans.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

using namespace zenesis;

constexpr std::int64_t kEdge = 256;
constexpr std::int64_t kDepth = 16;
constexpr std::int64_t kWarmDepth = 4;
constexpr int kSetupReps = 5;
/// Distinct volumes (alternating crystalline, amorphous); the timed loop
/// cycles over them with a fresh pipeline per cycle.
constexpr std::size_t kVolumes = 12;
/// mean_iou gate: the pipeline's quality on this synthetic data sits well
/// above it; a regression that breaks segmentation does not.
constexpr double kIouFloor = 0.5;

struct VolumeInput {
  std::string path;
  std::string prompt;
  std::vector<image::Mask> ground_truth;
};

VolumeInput make_volume(const Options& opt, std::uint64_t stream,
                        std::int64_t depth) {
  fibsem::SynthConfig cfg;
  cfg.type = stream % 2 == 0 ? fibsem::SampleType::kCrystalline
                             : fibsem::SampleType::kAmorphous;
  cfg.width = kEdge;
  cfg.height = kEdge;
  cfg.depth = depth;
  cfg.seed = mix_seed(opt.seed, stream);
  fibsem::SyntheticVolume synth = fibsem::generate_volume(cfg);

  io::TiffWriteOptions w;
  w.compression = io::TiffCompression::kDeflate;
  w.predictor = 2;
  w.rows_per_strip = 16;
  VolumeInput in;
  in.path = opt.work_dir + "/volume_" + std::to_string(stream) + ".tif";
  io::write_volume_tiff(in.path, synth.volume, w);
  in.prompt = fibsem::default_prompt(cfg.type);
  in.ground_truth = std::move(synth.ground_truth);
  return in;
}

std::uint64_t masks_hash(const core::VolumeResult& res) {
  std::uint64_t h = cache::kFnvOffset;
  for (const auto& s : res.slices) {
    const auto px = s.mask.pixels();
    h = cache::fnv1a_bytes(h, px.data(), px.size());
  }
  return h;
}

/// What one pass over the inputs produced.
struct Pass {
  std::vector<double> volume_ms;
  /// Mean volume latency of each round (a crystalline then an amorphous
  /// volume).
  std::vector<double> round_ms;
  std::vector<std::uint64_t> mask_hashes;
  std::vector<double> iou;  ///< per slice, first cycle only
  std::int64_t slices = 0;
  std::int64_t replaced = 0;
  std::int64_t errors = 0;
  CacheTraffic cache;
};

/// Constructs a pipeline and warms it on a small volume of its own;
/// returns the pipeline and the seconds it took.
std::unique_ptr<core::ZenesisPipeline> set_up(const VolumeInput& warm,
                                              double* seconds = nullptr) {
  const Clock::time_point t0 = Clock::now();
  auto pipeline = std::make_unique<core::ZenesisPipeline>();
  pipeline->segment_volume(core::VolumeRequest::from_file(warm.path, warm.prompt));
  if (seconds != nullptr) *seconds = seconds_between(t0, Clock::now());
  return pipeline;
}

/// Segments rounds of two volumes (crystalline, amorphous) until
/// `budget_s` has elapsed (checked between rounds) or `limit` volumes are
/// done. Inputs are cycled; each new cycle gets a fresh pipeline (built
/// untimed, warmed on `warm`) so every volume meets cold caches. With
/// `log`, spans are drained after every volume and the TIFF open is timed
/// under a harness span.
Pass run_pass(std::unique_ptr<core::ZenesisPipeline>& pipeline,
              const std::vector<VolumeInput>& inputs, const VolumeInput& warm,
              double budget_s, std::size_t limit, SpanLog* log) {
  Pass pass;
  const Clock::time_point start = Clock::now();
  double round = 0.0;
  for (std::size_t i = 0; i < limit; ++i) {
    if (i % 2 == 0 && seconds_between(start, Clock::now()) >= budget_s) break;
    const std::size_t k = i % inputs.size();
    if (k == 0 && i > 0) pipeline = set_up(warm);
    const VolumeInput& in = inputs[k];
    if (log != nullptr) {
      obs::Span span("bench.tiff_open");
      io::TiffVolumeReader::open(in.path);
    }
    const auto mask0 = pipeline->mask_cache_stats();
    const auto feat0 = pipeline->cache_stats();
    core::VolumeResult res;
    const Clock::time_point t0 = Clock::now();
    try {
      obs::Span span("bench.segment_volume");
      res = pipeline->segment_volume(
          core::VolumeRequest::from_file(in.path, in.prompt));
    } catch (const std::exception& e) {
      std::fprintf(stderr, "volume_cold: volume %zu failed: %s\n", i, e.what());
      pass.errors += 1;
      continue;
    }
    const double ms = ms_between(t0, Clock::now());
    pass.cache.add(feat0, pipeline->cache_stats(), mask0, pipeline->mask_cache_stats());
    pass.volume_ms.push_back(ms);
    round += ms;
    if (i % 2 == 1) {
      pass.round_ms.push_back(round / 2.0);
      round = 0.0;
    }
    if (log != nullptr) log->drain();
    pass.mask_hashes.push_back(masks_hash(res));
    pass.slices += static_cast<std::int64_t>(res.slices.size());
    pass.replaced += res.replaced_count;
    if (i < inputs.size()) {
      for (std::size_t z = 0; z < res.slices.size(); ++z) {
        pass.iou.push_back(
            eval::compute_metrics(res.slices[z].mask, in.ground_truth[z]).iou);
      }
    }
  }
  return pass;
}

}  // namespace

void run_volume_cold(const Options& opt, Result& result) {
  // Inputs, before any timer: timed volumes (streams 0..) and a small
  // warm-up volume (stream 1000).
  std::vector<VolumeInput> inputs;
  for (std::size_t i = 0; i < kVolumes; ++i) inputs.push_back(make_volume(opt, i, kDepth));
  // One warm-up volume serves every set-up: each pipeline meets it cold,
  // so every set-up does the same work.
  const VolumeInput warm = make_volume(opt, 1000, kWarmDepth);

  std::vector<double> setup_s;
  std::unique_ptr<core::ZenesisPipeline> pipeline;
  for (int k = 0; k < kSetupReps; ++k) {
    double s = 0.0;
    pipeline.reset();
    pipeline = set_up(warm, &s);
    setup_s.push_back(s);
  }

  const double budget = opt.trace ? opt.seconds / 2.0 : opt.seconds;
  const Pass pass = run_pass(pipeline, inputs, warm, budget,
                             std::size_t{1} << 20, nullptr);
  const auto volumes = static_cast<std::int64_t>(pass.volume_ms.size());
  double timed_ms = 0.0;
  for (const double ms : pass.volume_ms) timed_ms += ms;
  const double slices_per_s =
      timed_ms > 0.0 ? static_cast<double>(pass.slices) / (timed_ms / 1000.0) : 0.0;

  result.add_attempted(volumes + pass.errors);
  result.add_failed(pass.errors);
  result.note("volume_cold.volumes", std::to_string(volumes));
  result.note("volume_cold.mask_cache_hits", std::to_string(pass.cache.mask_hits));
  result.gate(!pass.round_ms.empty(), "volume_cold: no complete round in the budget");
  result.gate(pass.cache.mask_hits == 0, "volume_cold: mask-cache hits in a cold pass");
  result.gate(mean(pass.iou) >= kIouFloor, "volume_cold: mean_iou below floor");

  if (!opt.trace) {
    result.set("setup_s", median(setup_s), kSetupReps);
    result.set("peak_rss_mb", peak_rss_mb());
    result.set("mean_iou", mean(pass.iou), static_cast<std::int64_t>(pass.iou.size()));
    result.set("latency_ms_p50", median(pass.round_ms),
               static_cast<std::int64_t>(pass.round_ms.size()));
    // Per round (two volumes), median over rounds: a transient stall
    // moves one round, not the figure.
    std::vector<double> round_rate;
    for (const double ms : pass.round_ms) round_rate.push_back(kDepth / (ms / 1000.0));
    result.set("throughput_per_s", median(round_rate), pass.slices);
    return;
  }

  result.set("volume_s_p50", median(pass.volume_ms) / 1000.0, volumes);
  result.set("volume_slices_per_s", slices_per_s, pass.slices);

  // Traced replay of the same volume sequence on fresh pipelines.
  pipeline = set_up(warm);
  SpanLog log;
  obs::set_enabled(true);
  log.reset();
  const Pass traced = run_pass(pipeline, inputs, warm, 1e9,
                               pass.volume_ms.size(), &log);
  obs::set_enabled(false);

  result.gate(traced.mask_hashes == pass.mask_hashes,
              "volume_cold: masks differ between untraced and traced passes");
  result.gate(log.dropped() == 0, "volume_cold: trace ring overwrote spans");
  result.gate(traced.cache.mask_hits == 0, "volume_cold: mask-cache hits in the traced pass");

  const double page_mb = static_cast<double>(kEdge * kEdge * 2) / 1e6;
  const double read_ms = log.total_net_ms("tiff.read_page");
  const auto n_vol = static_cast<double>(std::max<std::size_t>(traced.volume_ms.size(), 1));
  const double slice_net = log.total_net_ms("pipeline.slice");
  const double unattributed =
      slice_net > 0.0 ? 100.0 * log.total_self_ms("pipeline.slice") / slice_net : 0.0;
  result.gate(unattributed <= kUnattributedTolerancePct,
              "volume_cold: core.unattributed_pct above tolerance");
  const auto pool = static_cast<double>(parallel::ThreadPool::global().size());
  double traced_ms = 0.0;
  for (const double ms : traced.volume_ms) traced_ms += ms;
  const std::vector<double> slice_ms = log.net_ms("pipeline.slice");
  const auto count = [&](const char* name) {
    return static_cast<std::int64_t>(log.count(name));
  };

  set_model_metrics(result, log, kEdge, traced.cache);
  set_cache_metrics(result, traced.cache, 0);
  result.set("io.open_ms", log.mean_net_ms("bench.tiff_open"), count("bench.tiff_open"));
  result.set("io.read_page_ms", log.mean_net_ms("tiff.read_page"), count("tiff.read_page"));
  result.set("io.decode_mb_per_s",
             read_ms > 0.0 ? page_mb * static_cast<double>(count("tiff.read_page")) /
                                 (read_ms / 1000.0)
                           : 0.0);
  result.set("cache.miss_request_ms_p50", median(slice_ms),
             static_cast<std::int64_t>(slice_ms.size()));
  result.set("parallel.efficiency", traced_ms > 0.0 ? slice_net / (traced_ms * pool) : 0.0);
  result.set("volume3d.refine_ms", log.mean_net_ms("heuristic.refine"),
             count("heuristic.refine"));
  result.set("volume3d.replaced_slices", static_cast<double>(traced.replaced) / n_vol);
  result.set("core.rectify_ms", log.total_net_ms("pipeline.rectify_slice") / n_vol,
             count("pipeline.rectify_slice"));
  result.set("core.slice_ms_p50", median(slice_ms), static_cast<std::int64_t>(slice_ms.size()));
  result.set("core.slice_ms_p90", percentile(slice_ms, 90),
             static_cast<std::int64_t>(slice_ms.size()));
  result.set("core.unattributed_pct", unattributed);
  result.set("obs.trace_overhead_pct",
             timed_ms > 0.0 ? 100.0 * (traced_ms / timed_ms - 1.0) : 0.0);
  result.set("obs.spans_dropped", static_cast<double>(log.dropped()));
}

}  // namespace perfbench
