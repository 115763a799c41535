#pragma once
// The three benchmark workloads. Each generates its inputs from
// opt.seed before any timer starts, runs its untraced timed phase (and,
// with opt.trace, a traced replay of the same operations), checks its
// correctness gates and fills `result` with the metrics of the table the
// run reports.

#include <cstdint>

#include "zenesis/cache/feature_cache.hpp"
#include "report.hpp"
#include "spans.hpp"

namespace perfbench {

/// Mode B: 256x256x16 Deflate TIFF volumes streamed through
/// segment_volume, one caller, every volume new to the caches.
void run_volume_cold(const Options& opt, Result& result);

/// Mode A re-prompting: text and box prompts on 16 pre-encoded 256^2
/// slices, one caller; feature cache always hits, mask cache always misses.
void run_reprompt_warm(const Options& opt, Result& result);

/// ZNET traffic: 3:1 hot:cold 128^2 slice requests on 4 loopback
/// connections, an open-loop Poisson phase then a closed-loop phase.
void run_wire_mixed(const Options& opt, Result& result);

/// Unattributed share of a blocking span's time (core.unattributed_pct)
/// above which a traced run fails its attribution gate.
inline constexpr double kUnattributedTolerancePct = 10.0;

/// Backbone FLOPs of one encode of a width x height image: patch
/// projection plus, per block, the QKV/O and MLP GEMMs and attention.
double encode_gflop(std::int64_t width, std::int64_t height);

/// Cache traffic of a traced pass, summed over the pipelines it used.
struct CacheTraffic {
  std::uint64_t feature_hits = 0, feature_misses = 0;
  std::uint64_t mask_hits = 0, mask_misses = 0;
  std::uint64_t evictions = 0;
  std::uint64_t feature_resident = 0, mask_resident = 0;  ///< bytes, last snapshot

  /// Adds what one pipeline's caches did between two snapshots.
  void add(const zenesis::cache::FeatureCacheStats& f0,
           const zenesis::cache::FeatureCacheStats& f1,
           const zenesis::cache::LruCacheStats& m0, const zenesis::cache::LruCacheStats& m1);
};

/// image.readiness_ms, models.*, tensor.* and parallel.steals from the
/// traced pass (`edge`: the workload's square image size).
void set_model_metrics(Result& result, const SpanLog& log, std::int64_t edge,
                       const CacheTraffic& traffic);

/// cache.* except the per-request latencies.
void set_cache_metrics(Result& result, const CacheTraffic& traffic,
                       std::uint64_t expected_mask_hits);

}  // namespace perfbench
