#include "zenesis/models/grounding.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "zenesis/cv/components.hpp"
#include "zenesis/cv/morphology.hpp"
#include "zenesis/tensor/ops.hpp"

namespace zenesis::models {

GroundingDetector::GroundingDetector(const GroundingConfig& cfg)
    : cfg_(cfg), backbone_(cfg.backbone) {}

GroundingResult GroundingDetector::detect(const image::ImageF32& img,
                                          const std::string& prompt) const {
  return detect(compute_features(img), prompt);
}

GroundingResult GroundingDetector::detect(const FeatureMaps& maps,
                                          const std::string& prompt) const {
  return detect(maps, backbone_.encode(maps), prompt);
}

GroundingResult GroundingDetector::detect(const FeatureMaps& maps,
                                          const EncodedImage& enc,
                                          const std::string& prompt) const {
  // Text side: gate tokens by text_threshold, weight the survivors.
  const auto tokens = text_.parse(prompt);
  std::vector<TextToken> active;
  for (const auto& t : tokens) {
    if (t.weight >= cfg_.text_threshold) active.push_back(t);
  }
  if (active.empty()) {
    // Nothing grounded: an empty result of the right grid geometry.
    GroundingResult res;
    res.grid_h = enc.grid_h;
    res.grid_w = enc.grid_w;
    res.patch_size = enc.patch_size;
    res.relevance = image::ImageF32(enc.grid_w, enc.grid_h, 1);
    return res;
  }
  tensor::Tensor concepts(
      {static_cast<std::int64_t>(active.size()), kFeatureChannels});
  for (std::size_t i = 0; i < active.size(); ++i) {
    for (int c = 0; c < kFeatureChannels; ++c) {
      concepts.at(static_cast<std::int64_t>(i), c) =
          active[i].concept_vec[static_cast<std::size_t>(c)] * active[i].weight;
    }
  }
  return detect_with_concepts(maps, enc, concepts);
}

GroundingResult GroundingDetector::detect_with_concepts(
    const FeatureMaps& maps, const EncodedImage& enc,
    const tensor::Tensor& concepts) const {
  if (concepts.rank() != 2 || concepts.dim(1) != kFeatureChannels ||
      concepts.dim(0) == 0) {
    throw std::invalid_argument(
        "detect_with_concepts: [T, kFeatureChannels] with T >= 1 expected");
  }
  GroundingResult res;
  res.grid_h = enc.grid_h;
  res.grid_w = enc.grid_w;
  res.patch_size = enc.patch_size;
  res.relevance = image::ImageF32(enc.grid_w, enc.grid_h, 1);
  for (std::int64_t i = 0; i < concepts.dim(0); ++i) {
    for (int c = 0; c < kFeatureChannels; ++c) {
      res.concept_direction[static_cast<std::size_t>(c)] += concepts.at(i, c);
    }
  }
  res.has_direction = true;

  // Cross-modal attention: queries = text, keys/values = patch tokens.
  const tensor::Tensor q = backbone_.project_text(concepts);
  tensor::Tensor scores = tensor::matmul_nt(q, enc.tokens);
  tensor::scale_inplace(
      scores, 1.0f / std::sqrt(static_cast<float>(backbone_.config().dim)));

  // Per-patch relevance: strongest token response (GroundingDINO keeps
  // the max token logit per query box; patches play that role here).
  // One columnwise-max reduction on the kernel backend.
  const tensor::Tensor best = tensor::colwise_max(scores);
  const std::int64_t n_patch = scores.dim(1);
  std::vector<float> rel(best.data(), best.data() + n_patch);
  // Normalize by the 95th-percentile magnitude (not the max): a single
  // extreme patch must not compress the rest of the map below the box
  // threshold. Values are then clamped to [-1, 1], a soft saturation
  // standing in for the sigmoid on GroundingDINO's logits.
  std::vector<float> mags(rel.size());
  for (std::size_t j = 0; j < rel.size(); ++j) mags[j] = std::abs(rel[j]);
  const auto p95 = static_cast<std::size_t>(0.95 * static_cast<double>(mags.size() - 1));
  std::nth_element(mags.begin(), mags.begin() + static_cast<std::ptrdiff_t>(p95),
                   mags.end());
  const float scale = mags[p95];
  if (scale < 1e-6f) return res;

  for (std::int64_t gy = 0; gy < enc.grid_h; ++gy) {
    for (std::int64_t gx = 0; gx < enc.grid_w; ++gx) {
      res.relevance.at(gx, gy) = std::clamp(
          rel[static_cast<std::size_t>(gy * enc.grid_w + gx)] / scale, -1.0f,
          1.0f);
    }
  }

  // High-relevance patches → connected regions → scored boxes. A 1-patch
  // morphological close merges clusters split by single cold patches
  // (scattered-phase targets such as particle agglomerates would otherwise
  // shatter into dozens of tiny boxes).
  image::Mask hot(enc.grid_w, enc.grid_h);
  for (std::int64_t gy = 0; gy < enc.grid_h; ++gy) {
    for (std::int64_t gx = 0; gx < enc.grid_w; ++gx) {
      hot.at(gx, gy) = res.relevance.at(gx, gy) > cfg_.box_threshold ? 1 : 0;
    }
  }
  hot = cv::close(hot, 2, cv::Element::kSquare);
  const cv::Labeling lab = cv::label_components(hot);
  for (const auto& comp : cv::component_stats(lab)) {
    if (comp.area < cfg_.min_patches) continue;
    double score_sum = 0.0;
    for (std::int64_t gy = comp.bounds.y; gy < comp.bounds.bottom(); ++gy) {
      for (std::int64_t gx = comp.bounds.x; gx < comp.bounds.right(); ++gx) {
        if (lab.labels.at(gx, gy) == comp.label) {
          score_sum += res.relevance.at(gx, gy);
        }
      }
    }
    const double confidence = score_sum / static_cast<double>(comp.area);

    image::Box box{comp.bounds.x * enc.patch_size, comp.bounds.y * enc.patch_size,
                   comp.bounds.w * enc.patch_size, comp.bounds.h * enc.patch_size};
    const auto pad_x = static_cast<std::int64_t>(
        std::lround(static_cast<double>(box.w) * cfg_.pad_fraction));
    const auto pad_y = static_cast<std::int64_t>(
        std::lround(static_cast<double>(box.h) * cfg_.pad_fraction));
    box = image::Box{box.x - pad_x, box.y - pad_y, box.w + 2 * pad_x,
                     box.h + 2 * pad_y}
              .clipped(maps.width, maps.height);
    if (box.empty()) continue;
    res.boxes.push_back({box, confidence});
  }
  std::sort(res.boxes.begin(), res.boxes.end(),
            [](const image::ScoredBox& a, const image::ScoredBox& b) {
              return a.score > b.score;
            });
  return res;
}

GroundingResult GroundingDetector::ground_box(const image::Box& box,
                                              const std::string& prompt) const {
  GroundingResult res;
  res.boxes.push_back({box, 1.0});
  for (const auto& t : text_.parse(prompt)) {
    if (t.weight < cfg_.text_threshold) continue;
    for (int c = 0; c < kFeatureChannels; ++c) {
      res.concept_direction[static_cast<std::size_t>(c)] +=
          t.concept_vec[static_cast<std::size_t>(c)] * t.weight;
    }
    res.has_direction = true;
  }
  return res;
}

}  // namespace zenesis::models
