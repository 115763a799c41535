#include "zenesis/core/session.hpp"

#include "zenesis/obs/trace.hpp"

namespace zenesis::core {

Session::Session(const PipelineConfig& cfg) : pipeline_(cfg) {}

SliceResult Session::mode_a_segment(const image::AnyImage& raw,
                                    const std::string& prompt) const {
  return pipeline_.segment(raw, prompt);
}

SliceResult Session::mode_a_segment_slice(const image::VolumeU16& volume,
                                          std::int64_t slice,
                                          const std::string& prompt) const {
  return pipeline_.segment(image::AnyImage(volume.slice(slice)), prompt);
}

ZenesisPipeline::MultiObjectResult Session::mode_a_segment_multi(
    const image::AnyImage& raw, const std::vector<std::string>& prompts) const {
  return pipeline_.segment_multi(raw, prompts);
}

VolumeResult Session::mode_b_segment_volume(const VolumeRequest& request) const {
  return pipeline_.segment_volume(request);
}

std::vector<SliceResult> Session::mode_b_segment_images(
    const std::vector<image::AnyImage>& images, const std::string& prompt) const {
  return pipeline_.segment_images(images, prompt);
}

void Session::publish_runtime_stats() {
  const cache::FeatureCacheStats s = pipeline_.cache_stats();
  dashboard_.set_stat("feature_cache_hits", static_cast<double>(s.hits));
  dashboard_.set_stat("feature_cache_misses", static_cast<double>(s.misses));
  dashboard_.set_stat("feature_cache_evictions", static_cast<double>(s.evictions));
  dashboard_.set_stat("feature_cache_hit_rate", s.hit_rate());
  dashboard_.set_stat("feature_cache_resident_bytes",
                      static_cast<double>(s.resident_bytes));
  dashboard_.set_stat("feature_cache_evicted_bytes",
                      static_cast<double>(s.evicted_bytes));
  dashboard_.set_stat("feature_cache_disk_hits",
                      static_cast<double>(s.disk_hits));
  dashboard_.set_stat("feature_cache_disk_writes",
                      static_cast<double>(s.disk_writes));
  dashboard_.set_stat("feature_cache_disk_errors",
                      static_cast<double>(s.disk_errors));
  const cache::LruCacheStats m = pipeline_.mask_cache_stats();
  dashboard_.set_stat("mask_cache_hits", static_cast<double>(m.hits));
  dashboard_.set_stat("mask_cache_misses", static_cast<double>(m.misses));
  dashboard_.set_stat("mask_cache_evictions",
                      static_cast<double>(m.evictions));
  dashboard_.set_stat("mask_cache_hit_rate", m.hit_rate());
  dashboard_.set_stat("mask_cache_resident_bytes",
                      static_cast<double>(m.resident_bytes));
  if (obs::enabled()) {
    // Per-stage timings over the collector's retained window (the last
    // ~4096 spans per thread), keyed trace_<stage>_* — Mode C's answer to
    // "where does the time go".
    for (const auto& [stage, st] : obs::TraceCollector::global().aggregate()) {
      dashboard_.set_stat("trace_" + stage + "_count",
                          static_cast<double>(st.count));
      dashboard_.set_stat("trace_" + stage + "_mean_us", st.mean_us());
      dashboard_.set_stat("trace_" + stage + "_max_us",
                          static_cast<double>(st.max_us));
    }
  }
}

eval::Metrics Session::mode_c_evaluate(const std::string& dataset,
                                       const std::string& method,
                                       std::int64_t slice,
                                       const image::Mask& prediction,
                                       const image::Mask& ground_truth) {
  const eval::Metrics m = eval::compute_metrics(prediction, ground_truth);
  dashboard_.add(dataset, method, slice, m);
  // Runtime counters ride along with every evaluation, so rendering the
  // dashboard right after Mode C never shows stale cache numbers.
  publish_runtime_stats();
  return m;
}

hitl::RectifyResult Session::rectify(const SliceResult& automated,
                                     const image::Mask& reference,
                                     hitl::SimulatedAnnotator& annotator,
                                     const hitl::RandomBoxConfig& boxes,
                                     std::uint64_t episode_seed) const {
  // The cached encoder output — a rectify episode over a slice the
  // pipeline already segmented reuses the embedding instead of re-running
  // the encoder (SAM's embed-once / prompt-many pattern).
  const auto enc = pipeline_.encode_cached(automated.ai_ready);
  parallel::Rng rng(episode_seed, 4242);
  return hitl::rectify_segmentation(pipeline_.sam(), *enc, automated.mask,
                                    reference, boxes, annotator, rng);
}

SliceResult Session::further_segment(const SliceResult& parent,
                                     const image::Box& roi,
                                     const std::string& prompt) const {
  return pipeline_.further_segment(parent, roi, prompt);
}

}  // namespace zenesis::core
