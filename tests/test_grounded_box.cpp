// Tests for explicit-box grounding paths: ground_box, detect_with_concepts
// and the prompted segment_with_box overload (the route taken when the
// temporal heuristic replaces a failed detection).
#include <gtest/gtest.h>

#include "zenesis/core/pipeline.hpp"
#include "zenesis/fibsem/synth.hpp"
#include "zenesis/image/roi.hpp"

namespace zc = zenesis::core;
namespace zf = zenesis::fibsem;
namespace zi = zenesis::image;
namespace zm = zenesis::models;
namespace zt = zenesis::tensor;

namespace {

zf::SyntheticSlice crystalline_slice() {
  zf::SynthConfig cfg;
  cfg.type = zf::SampleType::kCrystalline;
  cfg.width = 128;
  cfg.height = 128;
  cfg.seed = 606;
  return zf::generate_slice(cfg, 1);
}

}  // namespace

TEST(GroundBox, CarriesPromptDirection) {
  const zc::ZenesisPipeline pipe;
  const zm::GroundingResult g =
      pipe.detector().ground_box({10, 10, 50, 50}, "bright catalyst");
  ASSERT_EQ(g.boxes.size(), 1u);
  EXPECT_EQ(g.boxes[0].box, (zi::Box{10, 10, 50, 50}));
  EXPECT_TRUE(g.has_direction);
  EXPECT_GT(g.concept_direction[zm::kIntensity], 0.0f);
}

TEST(GroundBox, EmptyPromptHasNoDirection) {
  const zc::ZenesisPipeline pipe;
  const zm::GroundingResult g = pipe.detector().ground_box({0, 0, 8, 8}, "");
  EXPECT_FALSE(g.has_direction);
  ASSERT_EQ(g.boxes.size(), 1u);
}

TEST(PromptedBox, BeatsUnpromptedOnAmbiguousBox) {
  // A box spanning catalyst + membrane + holder: without text, SAM's
  // internal ranking may pick any crisp object; with the prompt direction
  // the catalyst candidate must win.
  const auto s = crystalline_slice();
  const zc::ZenesisPipeline pipe;
  const zi::ImageF32 ready = pipe.make_ready(zi::AnyImage(s.raw));
  const zi::Box box{0, 0, 128, 128};
  const zc::SliceResult prompted = pipe.segment_with_box(
      ready, box,
      zc::BoxPromptOptions{zf::default_prompt(zf::SampleType::kCrystalline),
                           zc::BoxPromptOptions::Ranking::kTextAlignment});
  const double prompted_iou = zi::mask_iou(prompted.mask, s.ground_truth);
  EXPECT_GT(prompted_iou, 0.35);
  const zc::SliceResult plain = pipe.segment_with_box(ready, box);
  EXPECT_GE(prompted_iou, zi::mask_iou(plain.mask, s.ground_truth) - 1e-9);
}

TEST(DetectWithConcepts, ValidatesShape) {
  const zc::ZenesisPipeline pipe;
  const auto s = crystalline_slice();
  const auto maps =
      zm::compute_features(pipe.make_ready(zi::AnyImage(s.raw)));
  const zm::EncodedImage enc = pipe.detector().backbone().encode(maps);
  EXPECT_THROW(
      pipe.detector().detect_with_concepts(maps, enc, zt::Tensor({0, 5})),
      std::invalid_argument);
  EXPECT_THROW(
      pipe.detector().detect_with_concepts(maps, enc, zt::Tensor({1, 3})),
      std::invalid_argument);
}

TEST(DetectWithConcepts, MatchesPromptPathForSameConcepts) {
  // Feeding the prompt's own weighted concept rows must reproduce the
  // prompt path exactly (the detector is deterministic).
  const zc::ZenesisPipeline pipe;
  const auto s = crystalline_slice();
  const auto maps =
      zm::compute_features(pipe.make_ready(zi::AnyImage(s.raw)));
  const char* prompt = zf::default_prompt(zf::SampleType::kCrystalline);

  const zm::TextEncoder text;
  const auto tokens = text.parse(prompt);
  std::vector<const zm::TextToken*> active;
  for (const auto& t : tokens) {
    if (t.weight >= pipe.detector().config().text_threshold) {
      active.push_back(&t);
    }
  }
  zt::Tensor concepts({static_cast<std::int64_t>(active.size()),
                       zm::kFeatureChannels});
  for (std::size_t i = 0; i < active.size(); ++i) {
    for (int c = 0; c < zm::kFeatureChannels; ++c) {
      concepts.at(static_cast<std::int64_t>(i), c) =
          active[i]->concept_vec[static_cast<std::size_t>(c)] *
          active[i]->weight;
    }
  }
  const zm::GroundingResult via_prompt = pipe.detector().detect(maps, prompt);
  const zm::GroundingResult via_concepts =
      pipe.detector().detect_with_concepts(
          maps, pipe.detector().backbone().encode(maps), concepts);
  ASSERT_EQ(via_prompt.boxes.size(), via_concepts.boxes.size());
  for (std::size_t i = 0; i < via_prompt.boxes.size(); ++i) {
    EXPECT_EQ(via_prompt.boxes[i].box, via_concepts.boxes[i].box);
    EXPECT_EQ(via_prompt.boxes[i].score, via_concepts.boxes[i].score);
  }
}

TEST(VolumeRefine, ReplacedSlicesStayTextGuided) {
  // A volume whose middle slice's detection is forcibly replaced must
  // still segment the catalyst there (not the holder) — the prompted
  // segment_with_box path.
  zf::SynthConfig cfg;
  cfg.type = zf::SampleType::kCrystalline;
  cfg.width = 128;
  cfg.height = 128;
  cfg.depth = 6;
  cfg.seed = 707;
  const auto vol = zf::generate_volume(cfg);
  const zc::ZenesisPipeline pipe;
  const zc::VolumeResult res = pipe.segment_volume(zc::VolumeRequest::view(
      vol.volume, zf::default_prompt(zf::SampleType::kCrystalline)));
  for (std::size_t i = 0; i < res.slices.size(); ++i) {
    const double iou =
        zi::mask_iou(res.slices[i].mask, vol.ground_truth[i]);
    EXPECT_GT(iou, 0.3) << "slice " << i
                        << (res.replaced[i] ? " (replaced)" : "");
  }
}
