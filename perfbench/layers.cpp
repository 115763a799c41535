// Per-layer metrics that more than one workload reports the same way:
// model-stage timings from the traced pass's spans and cache traffic from
// the public stats structs.
#include "zenesis/models/backbone.hpp"
#include "workloads.hpp"

namespace perfbench {

double encode_gflop(std::int64_t width, std::int64_t height) {
  const zenesis::models::BackboneConfig cfg;
  const double tokens = static_cast<double>((width / cfg.patch_size) *
                                            (height / cfg.patch_size));
  const double d = static_cast<double>(cfg.dim);
  const double projection = 2.0 * tokens * zenesis::models::kFeatureChannels * d;
  // QKV + output projections (4 d x d GEMMs), MLP (d -> 4d -> d), and
  // attention scores + weighted sum (2 L x L x d products).
  const double block = 2.0 * tokens * d * d * 4.0 + 2.0 * tokens * d * 4.0 * d * 2.0 +
                       2.0 * tokens * tokens * d * 2.0;
  return (projection + cfg.blocks * block) / 1e9;
}

void CacheTraffic::add(const zenesis::cache::FeatureCacheStats& f0,
                       const zenesis::cache::FeatureCacheStats& f1,
                       const zenesis::cache::LruCacheStats& m0,
                       const zenesis::cache::LruCacheStats& m1) {
  feature_hits += f1.hits - f0.hits;
  feature_misses += f1.misses - f0.misses;
  mask_hits += m1.hits - m0.hits;
  mask_misses += m1.misses - m0.misses;
  evictions += (f1.evictions - f0.evictions) + (m1.evictions - m0.evictions);
  feature_resident = f1.resident_bytes;
  mask_resident = m1.resident_bytes;
}

void set_model_metrics(Result& result, const SpanLog& log, std::int64_t edge,
                       const CacheTraffic& traffic) {
  const auto count = [&](const char* name) {
    return static_cast<std::int64_t>(log.count(name));
  };
  const std::vector<double> decode_ms = log.net_ms("sam.decode");
  std::vector<double> boxes;
  for (const auto& s : log.of("sam.decode")) boxes.push_back(static_cast<double>(s.arg));
  const double encode_ms = log.mean_net_ms("sam.encode");
  const double gflop = encode_gflop(edge, edge);
  result.set("image.readiness_ms", log.mean_net_ms("pipeline.readiness"),
             count("pipeline.readiness"));
  result.set("models.encode_ms", encode_ms, count("sam.encode"));
  result.set("models.encodes", static_cast<double>(traffic.feature_misses));
  result.set("models.detect_ms", log.mean_net_ms("dino.detect"), count("dino.detect"));
  result.set("models.decode_ms_p50", median(decode_ms), count("sam.decode"));
  result.set("models.decode_ms_p90", percentile(decode_ms, 90), count("sam.decode"));
  result.set("models.decode_boxes_mean", mean(boxes), count("sam.decode"));
  result.set("tensor.encode_gflop", gflop);
  result.set("tensor.encode_gflops", encode_ms > 0.0 ? gflop / (encode_ms / 1000.0) : 0.0);
  result.set("parallel.steals", static_cast<double>(count("pool.steal")));
}

void set_cache_metrics(Result& result, const CacheTraffic& traffic,
                       std::uint64_t expected_mask_hits) {
  const auto ratio = [](std::uint64_t part, std::uint64_t whole) {
    return whole == 0 ? 0.0 : static_cast<double>(part) / static_cast<double>(whole);
  };
  const std::uint64_t feature = traffic.feature_hits + traffic.feature_misses;
  const std::uint64_t mask = traffic.mask_hits + traffic.mask_misses;
  result.set("cache.feature_hit_ratio", ratio(traffic.feature_hits, feature),
             static_cast<std::int64_t>(feature));
  result.set("cache.feature_lookups", static_cast<double>(feature));
  result.set("cache.mask_hit_ratio", ratio(traffic.mask_hits, mask),
             static_cast<std::int64_t>(mask));
  result.set("cache.mask_lookups", static_cast<double>(mask));
  result.set("cache.mask_hits", static_cast<double>(traffic.mask_hits));
  result.set("cache.mask_hits_expected", static_cast<double>(expected_mask_hits));
  result.set("cache.feature_resident_mb", static_cast<double>(traffic.feature_resident) / 1e6);
  result.set("cache.mask_resident_mb", static_cast<double>(traffic.mask_resident) / 1e6);
  result.set("cache.evictions", static_cast<double>(traffic.evictions));
}

}  // namespace perfbench
