#include "zenesis/core/pipeline.hpp"

#include <algorithm>
#include <array>
#include <sstream>
#include <stdexcept>

#include "zenesis/cv/threshold.hpp"
#include "zenesis/image/roi.hpp"
#include "zenesis/io/tiff_stream.hpp"
#include "zenesis/obs/trace.hpp"
#include "zenesis/parallel/parallel_for.hpp"

namespace zenesis::core {

std::vector<std::string> PipelineConfig::validate() const {
  std::vector<std::string> issues;
  const auto flag = [&](bool bad, const std::string& msg) {
    if (bad) issues.push_back(msg);
  };
  flag(readiness.lo_percentile < 0.0 || readiness.lo_percentile > 100.0,
       "readiness.lo_percentile must be in [0, 100]");
  flag(readiness.hi_percentile < 0.0 || readiness.hi_percentile > 100.0,
       "readiness.hi_percentile must be in [0, 100]");
  flag(readiness.lo_percentile >= readiness.hi_percentile,
       "readiness.lo_percentile must be below hi_percentile");
  flag(readiness.use_clahe && readiness.clahe_tiles < 1,
       "readiness.clahe_tiles must be >= 1 when CLAHE is enabled");
  flag(grounding.box_threshold < 0.0f,
       "grounding.box_threshold must be non-negative");
  flag(grounding.text_threshold < 0.0f,
       "grounding.text_threshold must be non-negative");
  flag(grounding.min_patches < 0, "grounding.min_patches must be non-negative");
  flag(grounding.pad_fraction < 0.0f,
       "grounding.pad_fraction must be non-negative");
  flag(sam.grow_tolerance < 0.0f, "sam.grow_tolerance must be non-negative");
  flag(sam.min_contrast_cut < 0.0f,
       "sam.min_contrast_cut must be non-negative");
  flag(sam.stability_delta < 0.0f, "sam.stability_delta must be non-negative");
  flag(sam.morph_radius < 0, "sam.morph_radius must be non-negative");
  flag(sam.min_component_area < 0,
       "sam.min_component_area must be non-negative");
  flag(max_boxes < 1, "max_boxes must be >= 1");
  flag(heuristic.window < 1, "heuristic.window must be >= 1");
  flag(heuristic.size_factor <= 0.0, "heuristic.size_factor must be positive");
  flag(feature_cache.capacity != 0 && feature_cache.shards == 0,
       "feature_cache.shards must be >= 1 when the cache is on");
  flag(feature_cache.capacity != 0 && feature_cache.byte_budget == 0,
       "feature_cache.byte_budget must be >= 1 when the cache is on");
  flag(mask_cache.capacity != 0 && mask_cache.shards == 0,
       "mask_cache.shards must be >= 1 when the cache is on");
  flag(mask_cache.capacity != 0 && mask_cache.byte_budget == 0,
       "mask_cache.byte_budget must be >= 1 when the cache is on");
  return issues;
}

std::uint64_t decode_config_fingerprint(const PipelineConfig& cfg) {
  std::uint64_t h = cache::kFnvOffset;
  h = cache::fnv1a_value(h, cache::hash_backbone_weights(cfg.grounding.backbone));
  h = cache::fnv1a_value(h, cfg.grounding.box_threshold);
  h = cache::fnv1a_value(h, cfg.grounding.text_threshold);
  h = cache::fnv1a_value(h, cfg.grounding.min_patches);
  h = cache::fnv1a_value(h, cfg.grounding.pad_fraction);
  h = cache::fnv1a_value(h, cache::hash_backbone_weights(cfg.sam.backbone));
  h = cache::fnv1a_value(h, cfg.sam.grow_tolerance);
  h = cache::fnv1a_value(h, cfg.sam.grow_tolerance_cap);
  h = cache::fnv1a_value(h, cfg.sam.min_contrast_cut);
  h = cache::fnv1a_value(h, cfg.sam.stability_delta);
  h = cache::fnv1a_value(h, cfg.sam.morph_radius);
  h = cache::fnv1a_value(h, cfg.sam.min_component_area);
  h = cache::fnv1a_value(h, cfg.sam.coarse_veto_weight);
  h = cache::fnv1a_value(h, cfg.heuristic.window);
  h = cache::fnv1a_value(h, cfg.heuristic.size_factor);
  h = cache::fnv1a_value(h, cfg.heuristic.replace_missing);
  h = cache::fnv1a_value(h, cfg.max_boxes);
  h = cache::fnv1a_value(h, cfg.enable_heuristic_refine);
  return h;
}

std::size_t slice_result_bytes(const SliceResult& res) noexcept {
  std::size_t bytes = sizeof(SliceResult);
  bytes += res.ai_ready.pixels().size() * sizeof(float);
  bytes += res.mask.pixels().size();
  bytes += res.grounding.relevance.pixels().size() * sizeof(float);
  bytes += res.grounding.boxes.size() * sizeof(image::ScoredBox);
  for (const auto& bm : res.box_masks) {
    bytes += sizeof(bm) + bm.mask.pixels().size();
  }
  return bytes;
}

namespace {

PipelineConfig checked(const PipelineConfig& cfg) {
  const std::vector<std::string> issues = cfg.validate();
  if (!issues.empty()) {
    std::ostringstream msg;
    msg << "invalid PipelineConfig:";
    for (const auto& issue : issues) msg << "\n  - " << issue;
    throw std::invalid_argument(msg.str());
  }
  return cfg;
}

/// Request-hash prefix shared by both mask-cache keys: the call-shape
/// tag, the decode fingerprint, and the kernel backend and precision
/// active right now (read per key, because tensor::set_backend /
/// set_precision can switch them while the pipeline lives).
std::uint64_t request_hash_prefix(std::uint32_t tag,
                                  std::uint64_t fingerprint) {
  std::uint64_t h = cache::kFnvOffset;
  h = cache::fnv1a_value(h, tag);
  h = cache::fnv1a_value(h, fingerprint);
  return cache::fold_kernel_selection(h);
}

/// Mask-cache key for a text-grounded slice request. The image hash is
/// one half; the other folds the request-hash prefix (call-shape tag 1)
/// and the prompt, so the two request kinds can never alias.
cache::Key128 slice_request_key(const image::ImageF32& ready,
                                const std::string& prompt,
                                std::uint64_t fingerprint) {
  std::uint64_t h = request_hash_prefix(1, fingerprint);
  h = cache::fnv1a_value(h, prompt.size());
  h = cache::fnv1a_bytes(h, prompt.data(), prompt.size());
  return {cache::hash_image(ready), h};
}

/// Mask-cache key for an explicit-box request (tag 2 + box + options).
cache::Key128 box_request_key(const image::ImageF32& ready,
                              const image::Box& box,
                              const BoxPromptOptions& opts,
                              std::uint64_t fingerprint) {
  std::uint64_t h = request_hash_prefix(2, fingerprint);
  h = cache::fnv1a_value(h, box.x);
  h = cache::fnv1a_value(h, box.y);
  h = cache::fnv1a_value(h, box.w);
  h = cache::fnv1a_value(h, box.h);
  h = cache::fnv1a_value(h, static_cast<int>(opts.ranking));
  h = cache::fnv1a_value(h, opts.prompt.has_value());
  if (opts.prompt) {
    h = cache::fnv1a_value(h, opts.prompt->size());
    h = cache::fnv1a_bytes(h, opts.prompt->data(), opts.prompt->size());
  }
  return {cache::hash_image(ready), h};
}

}  // namespace

ZenesisPipeline::ZenesisPipeline(const PipelineConfig& cfg)
    : cfg_(checked(cfg)),
      dino_(cfg.grounding),
      sam_(cfg.sam),
      cache_(std::make_unique<cache::FeatureCache>(cfg.feature_cache)),
      mask_cache_(std::make_unique<cache::ShardedLruCache<SliceResult>>(
          cfg.mask_cache)),
      decode_fingerprint_(decode_config_fingerprint(cfg_)),
      shared_backbone_(cache::hash_backbone_weights(cfg_.grounding.backbone) ==
                       cache::hash_backbone_weights(cfg_.sam.backbone)),
      pool_(cfg.volume_threads > 1
                ? std::make_unique<parallel::ThreadPool>(cfg.volume_threads)
                : nullptr) {}

parallel::ThreadPool& ZenesisPipeline::volume_pool() const {
  return pool_ ? *pool_ : parallel::ThreadPool::global();
}

void ZenesisPipeline::for_each_slice(
    std::int64_t n, const std::function<void(std::int64_t)>& body) const {
  if (cfg_.volume_threads == 1) {
    for (std::int64_t i = 0; i < n; ++i) body(i);
    return;
  }
  // Grain 1: per-slice cost is irregular (detection count varies), so
  // idle workers pull slices dynamically. Each index writes to its own
  // output slot, so gathering preserves slice order bit-exactly.
  parallel::parallel_for_chunked(
      0, n, 1,
      [&](std::int64_t lo, std::int64_t hi) {
        for (std::int64_t i = lo; i < hi; ++i) body(i);
      },
      volume_pool());
}

image::ImageF32 ZenesisPipeline::make_ready(const image::AnyImage& raw) const {
  obs::Span span("pipeline.readiness");
  return image::make_ai_ready(raw, cfg_.readiness);
}

SliceResult ZenesisPipeline::segment(const image::AnyImage& raw,
                                     const std::string& prompt) const {
  return segment_ready(make_ready(raw), prompt);
}

SliceResult ZenesisPipeline::segment_ready(const image::ImageF32& ready,
                                           const std::string& prompt) const {
  const bool memoize = cfg_.mask_cache.capacity != 0;
  cache::Key128 key;
  std::optional<std::uint64_t> image_hash;  // the feature key reuses it
  if (memoize) {
    // The key hashes the whole image, so deriving it is lookup work.
    obs::Span span("cache.mask_lookup", 0);
    key = slice_request_key(ready, prompt, decode_fingerprint_);
    image_hash = key.lo;
    if (const auto hit = mask_cache_->get(key)) {
      span.set_arg(1);
      return *hit;
    }
  }
  const auto dino_enc = cache_->encode(ready, dino_.backbone(), image_hash);
  models::GroundingResult g = [&] {
    obs::Span span("dino.detect");
    return dino_.detect(dino_enc->maps, dino_enc->enc, prompt);
  }();
  // Equal backbone configs give bit-identical encodings (the weights are
  // procedural), so the default pipeline looks the image up once.
  const auto sam_enc = shared_backbone_ ? dino_enc : encode_cached(ready, image_hash);
  SliceResult res = assemble(ready, std::move(g), *sam_enc);
  if (memoize) {
    obs::Span span("cache.mask_store");
    mask_cache_->put(key, std::make_shared<const SliceResult>(res),
                     slice_result_bytes(res));
  }
  return res;
}

SliceResult ZenesisPipeline::segment_with_box(const image::ImageF32& ready,
                                              const image::Box& box,
                                              const BoxPromptOptions& opts) const {
  // Text-guided ranking needs a prompt and must not be explicitly turned
  // off; every other combination is the pure-SAM path of the old
  // two-argument overload (kSamScore deliberately ignores the prompt so
  // forcing SAM ranking reproduces that path bit-exactly).
  const bool text_ranked = opts.prompt.has_value() &&
                           opts.ranking != BoxPromptOptions::Ranking::kSamScore;
  const bool memoize = cfg_.mask_cache.capacity != 0;
  cache::Key128 key;
  std::optional<std::uint64_t> image_hash;
  if (memoize) {
    obs::Span span("cache.mask_lookup", 0);
    key = box_request_key(ready, box, opts, decode_fingerprint_);
    image_hash = key.lo;
    if (const auto hit = mask_cache_->get(key)) {
      span.set_arg(1);
      return *hit;
    }
  }
  const auto enc = encode_cached(ready, image_hash);
  SliceResult res = [&] {
    if (text_ranked) {
      return assemble(ready, dino_.ground_box(box, *opts.prompt), *enc);
    }
    models::GroundingResult g;
    g.boxes.push_back({box, 1.0});
    return assemble(ready, std::move(g), *enc);
  }();
  if (memoize) {
    obs::Span span("cache.mask_store");
    mask_cache_->put(key, std::make_shared<const SliceResult>(res),
                     slice_result_bytes(res));
  }
  return res;
}

namespace {

/// Pixel-level text alignment: the prompt's aggregated concept direction
/// dotted with a pixel's mean-centered engineered features, computed once
/// per box into a box-local plane that every candidate's score reads.
class AlignmentScorer {
 public:
  AlignmentScorer(const models::GroundingResult& g,
                  const models::SamEncoded& enc, const image::Box& box)
      : box_(box.clipped(enc.maps.width, enc.maps.height)) {
    if (!g.has_direction || box_.empty()) return;
    std::array<float, models::kFeatureChannels> mean{};
    std::array<const float*, models::kFeatureChannels> channel{};
    for (int c = 0; c < models::kFeatureChannels; ++c) {
      const auto ci = static_cast<std::size_t>(c);
      mean[ci] = enc.enc.mean_feature.at(c);
      channel[ci] = enc.maps.channels[ci].pixels().data();
    }
    const std::int64_t w = enc.maps.width;
    plane_.reserve(static_cast<std::size_t>(box_.area()));
    for (std::int64_t y = box_.y; y < box_.bottom(); ++y) {
      for (std::int64_t x = box_.x; x < box_.right(); ++x) {
        float dot = 0.0f;
        for (std::size_t c = 0; c < channel.size(); ++c) {
          dot += g.concept_direction[c] * (channel[c][y * w + x] - mean[c]);
        }
        plane_.push_back(dot);
      }
    }
    // Background level θ (box median alignment) and a light area penalty
    // λ derived from the box's alignment spread: a candidate is rewarded
    // for every pixel whose alignment clears the box's typical level by
    // more than the penalty. This prefers covering all prompt-consistent
    // pixels (dim agglomerate cores included) while still dropping bulk
    // background whose alignment hovers at θ.
    std::vector<float> values = plane_;
    auto mid = values.begin() + static_cast<std::ptrdiff_t>(values.size() / 2);
    std::nth_element(values.begin(), mid, values.end());
    theta_ = *mid;
    const auto p90 =
        static_cast<std::size_t>(0.9 * static_cast<double>(values.size() - 1));
    std::nth_element(values.begin(),
                     values.begin() + static_cast<std::ptrdiff_t>(p90),
                     values.end());
    lambda_ = 0.40 * std::max(0.0f, values[p90] - theta_);
  }

  bool valid() const noexcept { return !plane_.empty(); }

  /// Total evidence of a frame-sized mask: Σ over foreground of
  /// (alignment − θ − λ).
  double score(const image::Mask& mask) const {
    double sum = 0.0;
    const float* a = plane_.data();
    for (std::int64_t y = box_.y; y < box_.bottom(); ++y) {
      const std::uint8_t* m = mask.pixels().data() + y * mask.width();
      for (std::int64_t x = box_.x; x < box_.right(); ++x, ++a) {
        if (m[x] == 0) continue;
        sum += static_cast<double>(*a) - theta_ - lambda_;
      }
    }
    return sum;
  }

 private:
  image::Box box_;
  std::vector<float> plane_;  ///< alignment over box_, row-major
  float theta_ = 0.0f;
  double lambda_ = 0.0;
};

}  // namespace

SliceResult ZenesisPipeline::assemble(image::ImageF32 ready,
                                      models::GroundingResult grounding,
                                      const models::SamEncoded& enc) const {
  obs::Span span("sam.decode", grounding.boxes.size());
  SliceResult res;
  res.mask = image::Mask(ready.width(), ready.height());
  const bool have_relevance = grounding.has_direction;
  const int k = std::max(1, cfg_.max_boxes);
  const std::size_t n =
      std::min<std::size_t>(grounding.boxes.size(), static_cast<std::size_t>(k));
  for (std::size_t i = 0; i < n; ++i) {
    // SAM's multimask output: the pipeline selects the candidate whose
    // pixels carry the highest text relevance (the Grounded-SAM pattern of
    // ranking mask proposals with the grounding signal). Without a
    // relevance map (explicit user box), fall back to SAM's own ranking.
    models::MaskPrediction pred;
    const AlignmentScorer scorer(grounding, enc, grounding.boxes[i].box);
    if (have_relevance && scorer.valid()) {
      auto candidates = sam_.predict_box_candidates(enc, grounding.boxes[i].box);
      // Two-stage selection: text-alignment evidence shortlists the
      // candidates (right phase, right coverage); boundary adherence —
      // mean edge strength along the mask outline — breaks ties between
      // scales (a crisp fine-scale outline hugs real interfaces, a
      // blurred coarse outline floats in the halo).
      std::vector<double> scores(candidates.size());
      double smax = -1e30;
      for (std::size_t c = 0; c < candidates.size(); ++c) {
        scores[c] = scorer.score(candidates[c].mask);
        smax = std::max(smax, scores[c]);
      }
      double best_adherence = -1.0;
      std::size_t best_idx = candidates.size();
      for (std::size_t c = 0; c < candidates.size(); ++c) {
        const bool shortlisted =
            smax > 0.0 ? scores[c] >= 0.7 * smax : scores[c] == smax;
        if (!shortlisted) continue;
        const double adherence = sam_.boundary_adherence(
            enc, candidates[c].mask, grounding.boxes[i].box);
        if (adherence > best_adherence) {
          best_adherence = adherence;
          best_idx = c;
        }
      }
      if (best_idx < candidates.size()) {
        pred = std::move(candidates[best_idx]);
      } else {
        pred.mask = image::Mask(ready.width(), ready.height());
      }
    } else {
      pred = sam_.predict_box(enc, grounding.boxes[i].box);
    }
    res.mask = image::mask_or(res.mask, pred.mask);
    res.box_masks.push_back(std::move(pred));
  }
  if (!grounding.boxes.empty()) {
    res.primary_box = grounding.boxes.front().box;
    res.confidence = grounding.boxes.front().score;
  }
  res.grounding = std::move(grounding);
  res.ai_ready = std::move(ready);
  return res;
}

VolumeRequest VolumeRequest::in_memory(image::VolumeU16 vol, std::string text) {
  VolumeRequest r;
  r.volume = std::move(vol);
  r.prompt = std::move(text);
  return r;
}

namespace {

/// Slice feed over a materialized stack; `vol` must outlive the feed.
VolumeSource stack_source(const image::VolumeU16& vol) {
  VolumeSource source;
  source.depth = vol.depth();
  source.slice = [v = &vol](std::int64_t z) {
    return image::AnyImage(v->slice(z));
  };
  return source;
}

}  // namespace

VolumeRequest VolumeRequest::view(const image::VolumeU16& vol,
                                  std::string text) {
  return streamed(stack_source(vol), std::move(text));
}

VolumeRequest VolumeRequest::streamed(VolumeSource src, std::string text) {
  VolumeRequest r;
  r.source = std::move(src);
  r.prompt = std::move(text);
  return r;
}

VolumeRequest VolumeRequest::from_file(std::string path, std::string text,
                                       const io::TiffReadLimits& limits) {
  VolumeRequest r;
  r.tiff_path = std::move(path);
  r.prompt = std::move(text);
  r.tiff_limits = limits;
  return r;
}

std::vector<std::string> VolumeRequest::validate() const {
  std::vector<std::string> issues;
  const int engaged = (volume.has_value() ? 1 : 0) +
                      (source.has_value() ? 1 : 0) +
                      (tiff_path.has_value() ? 1 : 0);
  if (engaged != 1) {
    issues.push_back(
        "exactly one of volume/source/tiff_path must be set (got " +
        std::to_string(engaged) + ")");
  }
  if (source) {
    if (!source->slice) issues.push_back("VolumeSource::slice not set");
    if (source->depth < 0) issues.push_back("negative VolumeSource depth");
  }
  if (tiff_path && tiff_path->empty()) issues.push_back("empty tiff_path");
  return issues;
}

VolumeResult ZenesisPipeline::segment_volume(const VolumeRequest& request) const {
  const std::vector<std::string> issues = request.validate();
  if (!issues.empty()) {
    std::ostringstream msg;
    msg << "invalid VolumeRequest:";
    for (const auto& issue : issues) msg << "\n  - " << issue;
    throw std::invalid_argument(msg.str());
  }
  if (request.volume) {
    return run_volume(stack_source(*request.volume), request.prompt);
  }
  if (request.tiff_path) {
    // Streamed ingestion: parse once, decode slices on demand from the
    // volume workers (the reader is internally synchronized). TiffError
    // from parse or decode propagates to the caller — serve maps it into
    // core::Error via error_from_current_exception.
    const io::TiffVolumeReader reader = io::TiffVolumeReader::open(
        *request.tiff_path, request.tiff_limits);
    reader.require_uniform_geometry();
    VolumeSource source;
    source.depth = reader.pages();
    source.slice = [&reader](std::int64_t z) { return reader.read_page(z); };
    return run_volume(source, request.prompt);
  }
  return run_volume(*request.source, request.prompt);
}

VolumeResult ZenesisPipeline::run_volume(const VolumeSource& source,
                                         const std::string& prompt) const {
  obs::Span volume_span("pipeline.volume", source.depth);
  VolumeResult res;
  const std::int64_t depth = source.depth;
  res.slices.resize(static_cast<std::size_t>(depth));
  for_each_slice(depth, [&](std::int64_t z) {
    // The raw slice lives only for this task; what persists is the
    // SliceResult (AI-ready image + mask), so a streamed stack is never
    // held in memory whole in its raw form.
    obs::Span span("pipeline.slice", z);
    res.slices[static_cast<std::size_t>(z)] = segment(source.slice(z), prompt);
  });
  res.raw_boxes.reserve(res.slices.size());
  for (const auto& s : res.slices) res.raw_boxes.push_back(s.primary_box);
  res.refined_boxes = res.raw_boxes;
  res.replaced.assign(res.raw_boxes.size(), false);
  if (cfg_.enable_heuristic_refine) {
    obs::Span refine_span("heuristic.refine");
    const volume3d::RefineOutcome refined =
        volume3d::refine_box_sequence(res.raw_boxes, cfg_.heuristic);
    res.refined_boxes = refined.boxes;
    res.replaced = refined.replaced;
    res.replaced_count = refined.replaced_count;
    refine_span.set_arg(static_cast<std::uint64_t>(refined.replaced_count));
    // Re-segment the corrected slices from their replacement box. With
    // the feature cache on, each slice's encoder output is a hit here.
    for_each_slice(static_cast<std::int64_t>(res.slices.size()),
                   [&](std::int64_t zi) {
      const auto i = static_cast<std::size_t>(zi);
      if (!res.replaced[i] || res.refined_boxes[i].empty()) return;
      obs::Span span("pipeline.rectify_slice", zi);
      SliceResult fixed = segment_with_box(res.slices[i].ai_ready,
                                           res.refined_boxes[i],
                                           BoxPromptOptions{prompt, {}});
      res.slices[i].mask = std::move(fixed.mask);
      res.slices[i].box_masks = std::move(fixed.box_masks);
      res.slices[i].primary_box = res.refined_boxes[i];
    });
  }
  return res;
}

std::vector<SliceResult> ZenesisPipeline::segment_images(
    const std::vector<image::AnyImage>& images, const std::string& prompt) const {
  std::vector<SliceResult> out(images.size());
  for_each_slice(static_cast<std::int64_t>(images.size()), [&](std::int64_t i) {
    out[static_cast<std::size_t>(i)] =
        segment(images[static_cast<std::size_t>(i)], prompt);
  });
  return out;
}

SliceResult ZenesisPipeline::further_segment(const SliceResult& parent,
                                             const image::Box& roi,
                                             const std::string& prompt) const {
  obs::Span span("pipeline.further_segment");
  const image::Box clipped =
      roi.clipped(parent.ai_ready.width(), parent.ai_ready.height());
  SliceResult child;
  child.ai_ready = parent.ai_ready;
  child.mask = image::Mask(parent.ai_ready.width(), parent.ai_ready.height());
  if (clipped.empty()) return child;

  const image::ImageF32 cropped = image::crop(parent.ai_ready, clipped);
  SliceResult local = segment_ready(cropped, prompt);

  // Lift the child's result back into parent coordinates.
  image::paste_mask(child.mask, local.mask, clipped);
  child.grounding = local.grounding;
  for (auto& sb : child.grounding.boxes) {
    sb.box.x += clipped.x;
    sb.box.y += clipped.y;
  }
  if (!child.grounding.boxes.empty()) {
    child.primary_box = child.grounding.boxes.front().box;
    child.confidence = child.grounding.boxes.front().score;
  }
  child.box_masks = std::move(local.box_masks);
  for (auto& bm : child.box_masks) {
    image::Mask lifted(child.ai_ready.width(), child.ai_ready.height());
    image::paste_mask(lifted, bm.mask, clipped);
    bm.mask = std::move(lifted);
  }
  return child;
}

ZenesisPipeline::MultiObjectResult ZenesisPipeline::segment_multi(
    const image::AnyImage& raw, const std::vector<std::string>& prompts) const {
  obs::Span span("pipeline.multi", prompts.size());
  const image::ImageF32 ready = make_ready(raw);
  MultiObjectResult res;
  res.labels = image::Image<std::int32_t>(ready.width(), ready.height(), 1);
  res.per_prompt.reserve(prompts.size());
  for (const auto& prompt : prompts) {
    res.per_prompt.push_back(segment_ready(ready, prompt));
  }
  // Conflicts go to the class whose concept direction aligns best with
  // the pixel's features (same signal the single-object path uses for
  // mask selection).
  const auto enc_ptr = encode_cached(ready);
  const models::SamEncoded& enc = *enc_ptr;
  std::array<float, models::kFeatureChannels> mean{};
  for (int c = 0; c < models::kFeatureChannels; ++c) {
    mean[static_cast<std::size_t>(c)] = enc.enc.mean_feature.at(c);
  }
  for (std::int64_t y = 0; y < ready.height(); ++y) {
    for (std::int64_t x = 0; x < ready.width(); ++x) {
      std::int32_t best_label = 0;
      float best_score = -1e30f;
      for (std::size_t i = 0; i < res.per_prompt.size(); ++i) {
        if (res.per_prompt[i].mask.at(x, y) == 0) continue;
        float dot = 0.0f;
        for (int c = 0; c < models::kFeatureChannels; ++c) {
          const auto ci = static_cast<std::size_t>(c);
          dot += res.per_prompt[i].grounding.concept_direction[ci] *
                 (enc.maps.channels[ci].at(x, y) - mean[ci]);
        }
        if (dot > best_score) {
          best_score = dot;
          best_label = static_cast<std::int32_t>(i) + 1;
        }
      }
      res.labels.at(x, y) = best_label;
    }
  }
  return res;
}

image::Mask baseline_otsu(const image::ImageF32& ready) {
  return cv::otsu_threshold(ready).mask;
}

image::Mask baseline_sam_only(const models::SamModel& sam,
                              const image::ImageF32& ready,
                              const models::AutoMaskConfig& cfg) {
  const models::AutomaticMaskGenerator gen(sam, cfg);
  return gen.segment_best(ready);
}

}  // namespace zenesis::core
