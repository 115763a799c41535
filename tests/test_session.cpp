// Session (platform facade) tests: the three modes + interactive extras.
#include <gtest/gtest.h>

#include "zenesis/core/session.hpp"
#include "zenesis/fibsem/synth.hpp"
#include "zenesis/image/roi.hpp"

namespace zc = zenesis::core;
namespace zf = zenesis::fibsem;
namespace zi = zenesis::image;

namespace {

zf::SynthConfig test_config(zf::SampleType type) {
  zf::SynthConfig cfg;
  cfg.type = type;
  cfg.width = 128;
  cfg.height = 128;
  cfg.depth = 4;
  cfg.seed = 77;
  return cfg;
}

}  // namespace

TEST(Session, ModeASingleImage) {
  zc::Session session;
  const auto s = zf::generate_slice(test_config(zf::SampleType::kCrystalline), 0);
  const auto r = session.mode_a_segment(
      zi::AnyImage(s.raw), zf::default_prompt(zf::SampleType::kCrystalline));
  EXPECT_GT(zi::mask_area(r.mask), 0);
}

TEST(Session, ModeASelectedSlice) {
  zc::Session session;
  const auto vol = zf::generate_volume(test_config(zf::SampleType::kAmorphous));
  const auto r = session.mode_a_segment_slice(
      vol.volume, 2, zf::default_prompt(zf::SampleType::kAmorphous));
  EXPECT_EQ(r.ai_ready.width(), 128);
}

TEST(Session, ModeBBatchImages) {
  zc::Session session;
  const auto s0 = zf::generate_slice(test_config(zf::SampleType::kAmorphous), 0);
  const auto s1 = zf::generate_slice(test_config(zf::SampleType::kAmorphous), 1);
  const auto rs = session.mode_b_segment_images(
      {zi::AnyImage(s0.raw), zi::AnyImage(s1.raw)},
      zf::default_prompt(zf::SampleType::kAmorphous));
  EXPECT_EQ(rs.size(), 2u);
}

TEST(Session, ModeBVolume) {
  zc::Session session;
  const auto vol = zf::generate_volume(test_config(zf::SampleType::kCrystalline));
  const auto r = session.mode_b_segment_volume(zc::VolumeRequest::view(
      vol.volume, zf::default_prompt(zf::SampleType::kCrystalline)));
  EXPECT_EQ(r.slices.size(), 4u);
}

TEST(Session, ModeCRecordsIntoDashboard) {
  zc::Session session;
  const auto s = zf::generate_slice(test_config(zf::SampleType::kCrystalline), 0);
  const auto r = session.mode_a_segment(
      zi::AnyImage(s.raw), zf::default_prompt(zf::SampleType::kCrystalline));
  const auto m = session.mode_c_evaluate("crystalline", "zenesis", 0, r.mask,
                                         s.ground_truth);
  EXPECT_GT(m.accuracy, 0.0);
  EXPECT_EQ(session.dashboard().records().size(), 1u);
  EXPECT_EQ(session.dashboard().records()[0].dataset, "crystalline");
}

TEST(Session, RectifyRunsEndToEnd) {
  zc::Session session;
  const auto s = zf::generate_slice(test_config(zf::SampleType::kCrystalline), 1);
  const auto automated = session.mode_a_segment(zi::AnyImage(s.raw), "");
  zenesis::hitl::SimulatedAnnotator expert(1.0, 3);
  const auto r = session.rectify(automated, s.ground_truth, expert);
  EXPECT_GE(r.after_iou, 0.0);
  EXPECT_FALSE(r.chosen_box.empty());
}

TEST(Session, FurtherSegmentDelegates) {
  zc::Session session;
  const auto s = zf::generate_slice(test_config(zf::SampleType::kCrystalline), 1);
  const auto parent = session.mode_a_segment(
      zi::AnyImage(s.raw), zf::default_prompt(zf::SampleType::kCrystalline));
  const auto child = session.further_segment(parent, {0, 0, 64, 64},
                                             "bright needle catalyst");
  EXPECT_EQ(child.mask.width(), 128);
}

TEST(Session, ModeCEvaluateAutoPublishesRuntimeStats) {
  // Since PR 2 the cache counters ride along with every evaluation — no
  // explicit publish_runtime_stats() call required.
  zc::Session session;
  const auto s = zf::generate_slice(test_config(zf::SampleType::kCrystalline), 0);
  const auto r = session.mode_a_segment(
      zi::AnyImage(s.raw), zf::default_prompt(zf::SampleType::kCrystalline));
  session.mode_c_evaluate("crystalline", "zenesis", 0, r.mask, s.ground_truth);
  const auto& stats = session.dashboard().stats();
  ASSERT_TRUE(stats.count("feature_cache_hits"));
  ASSERT_TRUE(stats.count("feature_cache_hit_rate"));
  // DINO and SAM share a backbone config by default, so mode_a_segment
  // looks its encoding up once: one miss, no hit.
  EXPECT_EQ(stats.at("feature_cache_misses"), 1.0);
  EXPECT_EQ(stats.at("feature_cache_hits"), 0.0);
}

TEST(Session, InvalidConfigThrowsAtConstruction) {
  zc::PipelineConfig cfg;
  cfg.max_boxes = 0;
  EXPECT_THROW(zc::Session{cfg}, std::invalid_argument);
}
