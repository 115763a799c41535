#pragma once
// Surrogate GroundingDINO: text-conditioned bounding-box proposal.
//
// Pipeline (mirrors the paper's Sec. "Theoretical Framework"): the prompt
// is encoded into concept tokens, both modalities are projected into the
// shared embedding space, cross-modal attention scores text queries
// against patch keys (softmax(QKᵀ/√d)V), and contiguous high-relevance
// patch regions become scored boxes, gated by box and text thresholds.

#include <string>
#include <vector>

#include "zenesis/image/geometry.hpp"
#include "zenesis/image/image.hpp"
#include "zenesis/models/backbone.hpp"
#include "zenesis/models/text_encoder.hpp"

namespace zenesis::models {

struct GroundingConfig {
  BackboneConfig backbone;
  /// Patch joins a detection when its normalized relevance exceeds this
  /// (same role as GroundingDINO's box_threshold).
  float box_threshold = 0.25f;
  /// Tokens with evidence weight below this are ignored (text_threshold).
  float text_threshold = 0.25f;
  /// Detections smaller than this many patches are dropped.
  int min_patches = 2;
  /// Final boxes are padded by this fraction of their size.
  float pad_fraction = 0.08f;
};

struct GroundingResult {
  /// Detections sorted by descending confidence, in pixel coordinates.
  std::vector<image::ScoredBox> boxes;
  /// Normalized per-patch relevance in [-1, 1] (grid_w × grid_h raster).
  image::ImageF32 relevance;
  std::int64_t grid_h = 0;
  std::int64_t grid_w = 0;
  int patch_size = 0;
  /// Weighted sum of the prompt's concept vectors in the engineered
  /// feature basis — lets downstream stages score *pixels* against the
  /// text (the Grounded-SAM pattern of ranking SAM's mask proposals with
  /// the grounding signal). Zero when nothing was grounded.
  std::array<float, kFeatureChannels> concept_direction{};
  bool has_direction = false;

  /// Highest-confidence box, or an empty box when nothing was grounded.
  image::ScoredBox best() const {
    return boxes.empty() ? image::ScoredBox{} : boxes.front();
  }
};

class GroundingDetector {
 public:
  explicit GroundingDetector(const GroundingConfig& cfg = {});

  /// Full run on an AI-ready [0,1] image.
  GroundingResult detect(const image::ImageF32& img,
                         const std::string& prompt) const;

  /// Run on precomputed features (lets the pipeline share feature maps
  /// between DINO and SAM, as the real system shares nothing but this
  /// surrogate can).
  GroundingResult detect(const FeatureMaps& maps,
                         const std::string& prompt) const;

  /// Run on a precomputed encoding (feature maps + patch tokens). `enc`
  /// must have been produced by a backbone with this detector's
  /// configuration — the feature-cache path, which skips the encoder
  /// entirely.
  GroundingResult detect(const FeatureMaps& maps, const EncodedImage& enc,
                         const std::string& prompt) const;

  /// Runs the detector on a precomputed encoding with explicit concept
  /// rows [T, kFeatureChannels] instead of parsing a prompt; each row is
  /// a pre-weighted concept vector. detect() ends here after turning the
  /// prompt's active tokens into those rows.
  GroundingResult detect_with_concepts(const FeatureMaps& maps,
                                       const EncodedImage& enc,
                                       const tensor::Tensor& concepts) const;

  /// Wraps an externally supplied box (user interaction, temporal
  /// refinement) in a GroundingResult that still carries the prompt's
  /// concept direction, so downstream mask selection stays text-guided.
  GroundingResult ground_box(const image::Box& box,
                             const std::string& prompt) const;

  const GroundingConfig& config() const noexcept { return cfg_; }
  const VisionBackbone& backbone() const noexcept { return backbone_; }

 private:
  GroundingConfig cfg_;
  VisionBackbone backbone_;
  TextEncoder text_;
};

}  // namespace zenesis::models
