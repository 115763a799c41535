// ZenesisPipeline tests: Mode A segmentation, further-segment, volume mode.
#include <gtest/gtest.h>

#include "zenesis/core/pipeline.hpp"
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
  cfg.depth = 5;
  cfg.seed = 7;
  return cfg;
}

}  // namespace

TEST(Pipeline, MakeReadyNormalizesRawU16) {
  const auto s = zf::generate_slice(test_config(zf::SampleType::kCrystalline), 0);
  zc::ZenesisPipeline pipe;
  const zi::ImageF32 ready = pipe.make_ready(zi::AnyImage(s.raw));
  for (float v : ready.pixels()) {
    ASSERT_GE(v, 0.0f);
    ASSERT_LE(v, 1.0f);
  }
}

TEST(Pipeline, SegmentsCrystallineSliceWell) {
  // 128-px smoke check; benchmark-grade quality (256 px, 10 slices) is
  // asserted by test_integration and bench/table3.
  const auto s = zf::generate_slice(test_config(zf::SampleType::kCrystalline), 1);
  zc::ZenesisPipeline pipe;
  const zc::SliceResult r = pipe.segment(
      zi::AnyImage(s.raw), zf::default_prompt(zf::SampleType::kCrystalline));
  EXPECT_FALSE(r.grounding.boxes.empty());
  EXPECT_GT(zi::mask_iou(r.mask, s.ground_truth), 0.4);
}

TEST(Pipeline, SegmentsAmorphousSliceWell) {
  const auto s = zf::generate_slice(test_config(zf::SampleType::kAmorphous), 1);
  zc::ZenesisPipeline pipe;
  const zc::SliceResult r = pipe.segment(
      zi::AnyImage(s.raw), zf::default_prompt(zf::SampleType::kAmorphous));
  EXPECT_GT(zi::mask_iou(r.mask, s.ground_truth), 0.5);
}

TEST(Pipeline, EmptyPromptGivesEmptyResult) {
  const auto s = zf::generate_slice(test_config(zf::SampleType::kCrystalline), 0);
  zc::ZenesisPipeline pipe;
  const zc::SliceResult r = pipe.segment(zi::AnyImage(s.raw), "");
  EXPECT_TRUE(r.grounding.boxes.empty());
  EXPECT_EQ(zi::mask_area(r.mask), 0);
  EXPECT_TRUE(r.primary_box.empty());
}

TEST(Pipeline, SegmentWithBoxBypassesGrounding) {
  const auto s = zf::generate_slice(test_config(zf::SampleType::kCrystalline), 0);
  zc::ZenesisPipeline pipe;
  const zi::ImageF32 ready = pipe.make_ready(zi::AnyImage(s.raw));
  const zc::SliceResult r = pipe.segment_with_box(ready, {10, 10, 100, 60});
  EXPECT_EQ(r.primary_box, (zi::Box{10, 10, 100, 60}));
  EXPECT_EQ(r.box_masks.size(), 1u);
}

TEST(Pipeline, MaxBoxesCapRespected) {
  zc::PipelineConfig cfg;
  cfg.max_boxes = 1;
  zc::ZenesisPipeline pipe(cfg);
  const auto s = zf::generate_slice(test_config(zf::SampleType::kAmorphous), 0);
  const zc::SliceResult r = pipe.segment(
      zi::AnyImage(s.raw), zf::default_prompt(zf::SampleType::kAmorphous));
  EXPECT_LE(r.box_masks.size(), 1u);
}

TEST(Pipeline, VolumeModeProducesPerSliceResults) {
  const auto vol = zf::generate_volume(test_config(zf::SampleType::kCrystalline));
  zc::ZenesisPipeline pipe;
  const zc::VolumeResult r = pipe.segment_volume(zc::VolumeRequest::view(
      vol.volume, zf::default_prompt(zf::SampleType::kCrystalline)));
  EXPECT_EQ(r.slices.size(), 5u);
  EXPECT_EQ(r.raw_boxes.size(), 5u);
  EXPECT_EQ(r.refined_boxes.size(), 5u);
  EXPECT_EQ(r.masks().size(), 5u);
}

TEST(Pipeline, HeuristicRefineCanBeDisabled) {
  auto cfg = zc::PipelineConfig{};
  cfg.enable_heuristic_refine = false;
  zc::ZenesisPipeline pipe(cfg);
  const auto vol = zf::generate_volume(test_config(zf::SampleType::kCrystalline));
  const zc::VolumeResult r = pipe.segment_volume(zc::VolumeRequest::view(
      vol.volume, zf::default_prompt(zf::SampleType::kCrystalline)));
  EXPECT_EQ(r.replaced_count, 0);
  EXPECT_EQ(r.raw_boxes, r.refined_boxes);
}

TEST(Pipeline, FurtherSegmentStaysInsideRoi) {
  const auto s = zf::generate_slice(test_config(zf::SampleType::kCrystalline), 1);
  zc::ZenesisPipeline pipe;
  const zc::SliceResult parent = pipe.segment(
      zi::AnyImage(s.raw), zf::default_prompt(zf::SampleType::kCrystalline));
  const zi::Box roi{8, 8, 64, 48};
  const zc::SliceResult child = pipe.further_segment(
      parent, roi, zf::default_prompt(zf::SampleType::kCrystalline));
  const zi::Box bounds = zi::mask_bounds(child.mask);
  if (!bounds.empty()) {
    EXPECT_GE(bounds.x, roi.x);
    EXPECT_GE(bounds.y, roi.y);
    EXPECT_LE(bounds.right(), roi.right());
    EXPECT_LE(bounds.bottom(), roi.bottom());
  }
  // Child boxes are reported in parent coordinates.
  for (const auto& b : child.grounding.boxes) {
    EXPECT_GE(b.box.x, roi.x);
    EXPECT_GE(b.box.y, roi.y);
  }
}

TEST(Pipeline, FurtherSegmentEmptyRoiIsEmpty) {
  const auto s = zf::generate_slice(test_config(zf::SampleType::kCrystalline), 0);
  zc::ZenesisPipeline pipe;
  const zc::SliceResult parent = pipe.segment(
      zi::AnyImage(s.raw), zf::default_prompt(zf::SampleType::kCrystalline));
  const zc::SliceResult child =
      pipe.further_segment(parent, {200, 200, 10, 10}, "bright catalyst");
  EXPECT_EQ(zi::mask_area(child.mask), 0);
}

TEST(Baselines, OtsuReturnsMask) {
  const auto s = zf::generate_slice(test_config(zf::SampleType::kAmorphous), 0);
  zc::ZenesisPipeline pipe;
  const zi::ImageF32 ready = pipe.make_ready(zi::AnyImage(s.raw));
  const zi::Mask m = zc::baseline_otsu(ready);
  EXPECT_EQ(m.width(), 128);
  EXPECT_GT(zi::mask_area(m), 0);
}

TEST(Baselines, SamOnlyReturnsMask) {
  const auto s = zf::generate_slice(test_config(zf::SampleType::kCrystalline), 0);
  zc::ZenesisPipeline pipe;
  const zi::ImageF32 ready = pipe.make_ready(zi::AnyImage(s.raw));
  const zi::Mask m = zc::baseline_sam_only(pipe.sam(), ready);
  EXPECT_EQ(m.width(), 128);
}

TEST(PipelineConfig, DefaultConfigIsValid) {
  EXPECT_TRUE(zc::PipelineConfig{}.validate().empty());
}

TEST(PipelineConfig, ValidateCollectsEveryIssue) {
  zc::PipelineConfig cfg;
  cfg.max_boxes = 0;
  cfg.heuristic.window = 0;
  cfg.grounding.box_threshold = -0.1f;
  cfg.feature_cache.shards = 0;
  const auto issues = cfg.validate();
  EXPECT_EQ(issues.size(), 4u);
  EXPECT_THROW(zc::ZenesisPipeline{cfg}, std::invalid_argument);
}

TEST(PipelineConfig, ConstructorMessageNamesTheKnob) {
  zc::PipelineConfig cfg;
  cfg.max_boxes = -3;
  try {
    zc::ZenesisPipeline pipe(cfg);
    FAIL() << "construction must throw";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("max_boxes"), std::string::npos);
  }
}

TEST(PipelineConfig, DisabledCacheMayHaveZeroCapacity) {
  zc::PipelineConfig cfg;
  cfg.feature_cache.capacity = 0;
  EXPECT_TRUE(cfg.validate().empty());
  const zc::ZenesisPipeline pipe(cfg);  // must not throw
  EXPECT_EQ(pipe.cache_stats().hits, 0u);
}

TEST(BoxPromptOptions, DefaultMatchesPlainBoxPath) {
  // segment_with_box(ready, box) — now routed through the options
  // overload's defaults — must reproduce the old pure-SAM two-argument
  // overload exactly.
  const auto s = zf::generate_slice(test_config(zf::SampleType::kCrystalline), 0);
  zc::ZenesisPipeline pipe;
  const zi::ImageF32 ready = pipe.make_ready(zi::AnyImage(s.raw));
  const zi::Box box{10, 10, 100, 60};
  const zc::SliceResult plain = pipe.segment_with_box(ready, box);
  const zc::SliceResult explicit_opts =
      pipe.segment_with_box(ready, box, zc::BoxPromptOptions{});
  ASSERT_EQ(plain.mask.pixels().size(), explicit_opts.mask.pixels().size());
  for (std::size_t i = 0; i < plain.mask.pixels().size(); ++i) {
    ASSERT_EQ(plain.mask.pixels()[i], explicit_opts.mask.pixels()[i]);
  }
  EXPECT_FALSE(plain.grounding.has_direction);
}

TEST(BoxPromptOptions, SamScoreRankingIgnoresPrompt) {
  const auto s = zf::generate_slice(test_config(zf::SampleType::kCrystalline), 0);
  zc::ZenesisPipeline pipe;
  const zi::ImageF32 ready = pipe.make_ready(zi::AnyImage(s.raw));
  const zi::Box box{10, 10, 100, 60};
  zc::BoxPromptOptions opts;
  opts.prompt = zf::default_prompt(zf::SampleType::kCrystalline);
  opts.ranking = zc::BoxPromptOptions::Ranking::kSamScore;
  const zc::SliceResult forced = pipe.segment_with_box(ready, box, opts);
  const zc::SliceResult plain = pipe.segment_with_box(ready, box);
  EXPECT_FALSE(forced.grounding.has_direction);
  for (std::size_t i = 0; i < plain.mask.pixels().size(); ++i) {
    ASSERT_EQ(plain.mask.pixels()[i], forced.mask.pixels()[i]);
  }
}

TEST(BoxPromptOptions, PromptedOptionsUseTextGuidedRanking) {
  // The prompt-string overload removed in PR 5 routed here; the options
  // path must keep the text's concept direction for mask selection.
  const auto s = zf::generate_slice(test_config(zf::SampleType::kCrystalline), 0);
  zc::ZenesisPipeline pipe;
  const zi::ImageF32 ready = pipe.make_ready(zi::AnyImage(s.raw));
  const zi::Box box{10, 10, 100, 60};
  const std::string prompt = zf::default_prompt(zf::SampleType::kCrystalline);
  const zc::SliceResult via_opts =
      pipe.segment_with_box(ready, box, zc::BoxPromptOptions{prompt, {}});
  EXPECT_TRUE(via_opts.grounding.has_direction);
  EXPECT_EQ(via_opts.box_masks.size(), 1u);
}

TEST(VolumeRequest, ValidateRejectsZeroOrMultipleSources) {
  zc::VolumeRequest none;
  EXPECT_FALSE(none.validate().empty());
  EXPECT_THROW((void)zc::ZenesisPipeline{}.segment_volume(none),
               std::invalid_argument);

  zc::VolumeRequest both;
  both.volume = zi::VolumeU16(4, 4, 2);
  both.tiff_path = "whatever.tif";
  EXPECT_FALSE(both.validate().empty());
  EXPECT_THROW((void)zc::ZenesisPipeline{}.segment_volume(both),
               std::invalid_argument);
}

TEST(VolumeRequest, ViewAndOwnedSpellingsAgree) {
  const auto vol = zf::generate_volume(test_config(zf::SampleType::kCrystalline));
  const std::string prompt = zf::default_prompt(zf::SampleType::kCrystalline);
  zc::ZenesisPipeline pipe;
  const zc::VolumeResult borrowed =
      pipe.segment_volume(zc::VolumeRequest::view(vol.volume, prompt));
  const zc::VolumeResult owned =
      pipe.segment_volume(zc::VolumeRequest::in_memory(vol.volume, prompt));
  ASSERT_EQ(borrowed.slices.size(), owned.slices.size());
  for (std::size_t z = 0; z < borrowed.slices.size(); ++z) {
    const auto want = borrowed.slices[z].mask.pixels();
    const auto got_owned = owned.slices[z].mask.pixels();
    ASSERT_EQ(want.size(), got_owned.size());
    for (std::size_t i = 0; i < want.size(); ++i) {
      ASSERT_EQ(want[i], got_owned[i]);
    }
  }
  EXPECT_EQ(borrowed.refined_boxes, owned.refined_boxes);
}
