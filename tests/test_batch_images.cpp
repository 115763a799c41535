// Determinism of segment_images / mode_b_segment_images (the Mode-B
// independent-image batch path): any thread count, mixed image sizes and
// sample types, cache on or off — all must reproduce the serial baseline
// byte-for-byte, mirroring test_volume_parallel for segment_volume.
#include <gtest/gtest.h>

#include <cstddef>
#include <vector>

#include "zenesis/core/pipeline.hpp"
#include "zenesis/core/session.hpp"
#include "zenesis/fibsem/synth.hpp"

namespace {

using namespace zenesis;

constexpr const char* kPrompt = "bright needle-like crystalline catalyst";

/// Batch with deliberately mixed geometry (the service/batch path must
/// not assume one resolution) and a duplicate (cache-hit traffic).
std::vector<image::AnyImage> mixed_batch() {
  std::vector<image::AnyImage> images;
  const std::int64_t sizes[] = {64, 96, 64, 80, 96, 64};
  const std::uint64_t seeds[] = {31, 32, 31, 33, 34, 35};  // 0 and 2 identical
  for (std::size_t i = 0; i < 6; ++i) {
    fibsem::SynthConfig cfg;
    cfg.type = (i % 2 == 0) ? fibsem::SampleType::kCrystalline
                            : fibsem::SampleType::kAmorphous;
    cfg.width = sizes[i];
    cfg.height = sizes[i];
    cfg.seed = seeds[i];
    images.emplace_back(fibsem::generate_slice(cfg, 0).raw);
  }
  return images;
}

core::PipelineConfig config_with(std::size_t threads, bool cache) {
  core::PipelineConfig cfg;
  cfg.volume_threads = threads;
  if (!cache) cfg.feature_cache.capacity = 0;
  return cfg;
}

void expect_slice_results_equal(const std::vector<core::SliceResult>& base,
                                const std::vector<core::SliceResult>& got) {
  ASSERT_EQ(base.size(), got.size());
  for (std::size_t i = 0; i < base.size(); ++i) {
    const auto& a = base[i];
    const auto& b = got[i];
    ASSERT_EQ(a.mask.width(), b.mask.width()) << "image " << i;
    ASSERT_EQ(a.mask.height(), b.mask.height()) << "image " << i;
    const auto pa = a.mask.pixels();
    const auto pb = b.mask.pixels();
    for (std::size_t p = 0; p < pa.size(); ++p) {
      ASSERT_EQ(pa[p], pb[p]) << "image " << i << " pixel " << p;
    }
    EXPECT_EQ(a.primary_box, b.primary_box) << "image " << i;
    EXPECT_EQ(a.confidence, b.confidence) << "image " << i;
    EXPECT_EQ(a.grounding.boxes.size(), b.grounding.boxes.size())
        << "image " << i;
    EXPECT_EQ(a.box_masks.size(), b.box_masks.size()) << "image " << i;
  }
}

}  // namespace

TEST(BatchImages, ParallelMatchesSerialAcrossThreadCounts) {
  const std::vector<image::AnyImage> images = mixed_batch();
  const core::ZenesisPipeline serial(config_with(1, false));
  const std::vector<core::SliceResult> base =
      serial.segment_images(images, kPrompt);
  ASSERT_EQ(base.size(), images.size());

  for (const std::size_t threads : {std::size_t{2}, std::size_t{8}}) {
    for (const bool cache : {false, true}) {
      const core::ZenesisPipeline pipe(config_with(threads, cache));
      expect_slice_results_equal(base, pipe.segment_images(images, kPrompt));
    }
  }
}

TEST(BatchImages, GlobalPoolMatchesSerial) {
  const std::vector<image::AnyImage> images = mixed_batch();
  const core::ZenesisPipeline serial(config_with(1, false));
  const core::ZenesisPipeline global(config_with(0, true));
  expect_slice_results_equal(serial.segment_images(images, kPrompt),
                             global.segment_images(images, kPrompt));
}

TEST(BatchImages, RepeatedRunsAreDeterministic) {
  const std::vector<image::AnyImage> images = mixed_batch();
  const core::ZenesisPipeline pipe(config_with(8, true));
  const auto first = pipe.segment_images(images, kPrompt);
  // Each image is answered by the mask cache or makes exactly one
  // feature-cache lookup. Which one the duplicate pair gets depends on
  // how the two race, but the sum does not.
  const cache::FeatureCacheStats feat = pipe.cache_stats();
  const cache::LruCacheStats mask = pipe.mask_cache_stats();
  EXPECT_EQ(feat.hits + feat.misses + feat.disk_hits + mask.hits,
            images.size());
  const auto second = pipe.segment_images(images, kPrompt);  // cache-hot
  expect_slice_results_equal(first, second);
  // The second run is all mask hits: no new encoding lookups.
  const cache::FeatureCacheStats feat2 = pipe.cache_stats();
  EXPECT_EQ(feat2.hits + feat2.misses + feat2.disk_hits,
            feat.hits + feat.misses + feat.disk_hits);
  EXPECT_EQ(pipe.mask_cache_stats().hits, mask.hits + images.size());
}

TEST(BatchImages, SessionWrapperMatchesPipeline) {
  const std::vector<image::AnyImage> images = mixed_batch();
  const core::Session session(config_with(2, true));
  const core::ZenesisPipeline serial(config_with(1, false));
  expect_slice_results_equal(serial.segment_images(images, kPrompt),
                             session.mode_b_segment_images(images, kPrompt));
}

TEST(BatchImages, EmptyBatchIsANoOp) {
  const core::ZenesisPipeline pipe(config_with(4, true));
  EXPECT_TRUE(pipe.segment_images({}, kPrompt).empty());
}
