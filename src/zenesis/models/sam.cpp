#include "zenesis/models/sam.hpp"

#include <algorithm>
#include <cmath>
#include <deque>
#include <optional>

#include "zenesis/cv/bitmask.hpp"
#include "zenesis/cv/components.hpp"
#include "zenesis/cv/filters.hpp"
#include "zenesis/cv/threshold.hpp"
#include "zenesis/image/roi.hpp"
#include "zenesis/obs/trace.hpp"
#include "zenesis/parallel/parallel_for.hpp"
#include "zenesis/tensor/init.hpp"
#include "zenesis/tensor/ops.hpp"

namespace zenesis::models {
namespace {

constexpr float kNoiseFloor = 0.02f;

/// Mean/stddev of the smoothed-intensity channel over mask-selected pixels.
struct BandStats {
  float mean = 0.0f;
  float stddev = 0.0f;
  std::int64_t count = 0;
};

/// Stats of `img` over the pixels of `rect` where `take(x, y)` holds,
/// accumulated in raster order.
template <typename Pred>
BandStats stats_in(const image::ImageF32& img, const image::Box& rect, Pred take) {
  BandStats s;
  double sum = 0.0, sum2 = 0.0;
  for (std::int64_t y = rect.y; y < rect.bottom(); ++y) {
    for (std::int64_t x = rect.x; x < rect.right(); ++x) {
      if (!take(x, y)) continue;
      const double v = img.at(x, y);
      sum += v;
      sum2 += v * v;
      ++s.count;
    }
  }
  if (s.count > 0) {
    const double n = static_cast<double>(s.count);
    const double mean = sum / n;
    s.mean = static_cast<float>(mean);
    s.stddev = static_cast<float>(std::sqrt(std::max(0.0, sum2 / n - mean * mean)));
  }
  return s;
}

/// A float plane placed at (x0, y0) in frame coordinates.
struct PlaneView {
  const image::ImageF32* img = nullptr;
  std::int64_t x0 = 0, y0 = 0;

  float at(std::int64_t x, std::int64_t y) const { return img->at(x - x0, y - y0); }
  image::Box local(const image::Box& b) const { return {b.x - x0, b.y - y0, b.w, b.h}; }
};

/// One structural scale of the multimask spectrum: the smoothed intensity
/// and the background context its two polarity candidates share
/// (read-only once built). Medians are box-local. `smoothed` may point
/// at `blurred`, so a context is built in place and never copied or
/// moved.
struct ScaleContext {
  ScaleContext() = default;
  ScaleContext(const ScaleContext&) = delete;
  ScaleContext& operator=(const ScaleContext&) = delete;

  image::ImageF32 blurred;  ///< smoothed intensity over the median reach
  PlaneView smoothed;       ///< `blurred`, or the raw intensity channel
  /// `smoothed` binned once over the box's r_refit reach: the context,
  /// halo and both refit medians of this scale all read it.
  std::optional<cv::MedianPlane> plane;
  image::ImageF32 context;  ///< large-window median (box-local)
  /// Box-local smoothed − background, before the polarity sign: against
  /// `context` (or the rim constant) and against the small-window median
  /// (empty when the two windows coincide).
  std::vector<float> diff, diff_local;
  bool rim = false;         ///< background = one constant (the rim median)
  int r_refit = 0;          ///< masked re-estimation radius
};

}  // namespace

SamModel::SamModel(const SamConfig& cfg)
    : cfg_(cfg),
      backbone_(cfg.backbone),
      object_token_(tensor::xavier_uniform(1, cfg.backbone.dim,
                                           cfg.backbone.seed, 97)) {}

SamEncoded SamModel::encode(const image::ImageF32& img) const {
  SamEncoded enc;
  enc.maps = compute_features(img);
  enc.enc = backbone_.encode(enc.maps);
  return enc;
}

image::ImageF32 SamModel::decode_coarse(const SamEncoded& enc,
                                        const image::Box& box) const {
  const auto& e = enc.enc;
  const std::int64_t d = backbone_.config().dim;

  // Prompt encoder: two corner tokens (sinusoidal positions of the box
  // corners on the patch grid) plus the learned object token.
  const auto corner_embedding = [&](double gx, double gy) {
    tensor::Tensor t({1, d});
    for (std::int64_t i = 0; i < d / 4; ++i) {
      const double freq = std::pow(10000.0, -4.0 * static_cast<double>(i) /
                                                static_cast<double>(d));
      t.at(0, 4 * i + 0) = static_cast<float>(std::sin(gy * freq));
      t.at(0, 4 * i + 1) = static_cast<float>(std::cos(gy * freq));
      t.at(0, 4 * i + 2) = static_cast<float>(std::sin(gx * freq));
      t.at(0, 4 * i + 3) = static_cast<float>(std::cos(gx * freq));
    }
    return t;
  };
  const double ps = static_cast<double>(e.patch_size);
  tensor::Tensor prompts({3, d});
  const tensor::Tensor c0 =
      corner_embedding(static_cast<double>(box.x) / ps, static_cast<double>(box.y) / ps);
  const tensor::Tensor c1 = corner_embedding(
      static_cast<double>(box.right()) / ps, static_cast<double>(box.bottom()) / ps);
  for (std::int64_t j = 0; j < d; ++j) {
    prompts.at(0, j) = c0.at(0, j);
    prompts.at(1, j) = c1.at(0, j);
    prompts.at(2, j) = object_token_.at(0, j);
  }

  // Two-way attention: prompt tokens read from the image tokens; the
  // attended rows are averaged into a single object query.
  const tensor::Tensor attended = tensor::attention(prompts, e.tokens, e.tokens);
  const tensor::Tensor q_obj = tensor::mean_rows(attended);

  // Per-patch logits: similarity of each image token to the object query,
  // computed as one tokens · q GEMV on the active kernel backend (both
  // sides dynamically quantized on the int8 fast path).
  const std::int64_t n = e.tokens.dim(0);
  tensor::Tensor q_row({1, d});
  std::copy(q_obj.data(), q_obj.data() + d, q_row.data());
  const tensor::Tensor sims =
      tensor::quant::int8_fast_path()
          ? tensor::matmul_nt_dyn_quantized(e.tokens, q_row)
          : tensor::matmul_nt(e.tokens, q_row);  // [n, 1]
  tensor::Tensor logits({1, e.grid_h, e.grid_w});
  float max_abs = 1e-6f;
  for (std::int64_t j = 0; j < n; ++j) {
    const float dot = sims.at(j, 0);
    logits.at(0, j / e.grid_w, j % e.grid_w) = dot;
    max_abs = std::max(max_abs, std::abs(dot));
  }
  tensor::scale_inplace(logits, 1.0f / max_abs);

  // Upsample to pixel resolution (the decoder's mask head); only the box
  // is ever read.
  const tensor::Tensor up = tensor::resize_bilinear(
      logits, enc.maps.height, enc.maps.width);
  image::ImageF32 out(box.w, box.h, 1);
  for (std::int64_t y = 0; y < box.h; ++y) {
    for (std::int64_t x = 0; x < box.w; ++x) {
      out.at(x, y) = up.at(0, box.y + y, box.x + x);
    }
  }
  return out;
}

image::Box SamModel::decode_roi(const SamEncoded& enc, const image::Box& box) const {
  const std::int64_t w = enc.maps.width, h = enc.maps.height;
  return box.clipped(w, h).expanded(2 * cfg_.morph_radius + 1).clipped(w, h);
}

std::vector<MaskPrediction> SamModel::predict_box_candidates(
    const SamEncoded& enc, const image::Box& raw_box) const {
  const auto& intensity = enc.maps.channels[kIntensity];
  const std::int64_t frame_w = enc.maps.width, frame_h = enc.maps.height;
  const image::Box box = raw_box.clipped(frame_w, frame_h);
  std::vector<MaskPrediction> out;
  if (box.empty() || box.area() < 64) return out;

  // Every buffer below is box- or ROI-local. Candidate masks never leave
  // the box before cleanup, and cleanup grows them by at most morph_radius,
  // so the decode ROI (box + 2·morph_radius + 1, clipped) holds each
  // cleanup neighbourhood whole plus a ring of background: close() sees
  // the same pixels as on the full frame, and a background region touches
  // the ROI border exactly when it touches the frame border (everything
  // outside the box is background there too), so fill_holes() agrees.
  const image::Box roi = decode_roi(enc, raw_box);

  // Rim band: SAM's implicit background sample for a box prompt (used for
  // the rim-overlap prior on each candidate).
  const std::int64_t band = std::max<std::int64_t>(
      2, static_cast<std::int64_t>(0.07 * static_cast<double>(std::min(box.w, box.h))));
  const image::Box inner = {box.x + band, box.y + band, box.w - 2 * band,
                            box.h - 2 * band};

  // Local-context contrast: intensity minus a windowed *median*. The
  // median is the surrogate of deep features' illumination invariance —
  // it cancels topography shading and, unlike a mean, is immune to halo
  // artifacts next to sharp interfaces (holder edges) and to thin bright
  // structures inflating their own background estimate.
  const image::ImageF32 coarse =
      cfg_.coarse_veto_weight > 0.0f ? decode_coarse(enc, box)
                                     : image::ImageF32();

  // The multimask spectrum: candidates span object polarity (brighter /
  // darker than local context) and structural scale. The fine scale
  // delineates thin structures (needles) against their immediate
  // surround; the coarse scale smooths away texture and sees whole phase
  // regions (particle agglomerates) against a very wide background
  // estimate. This mirrors SAM's whole/part/sub-part multimask output;
  // selection happens in the caller.
  struct ScaleSpec {
    float smooth_sigma;
    std::int64_t large_div, large_min, large_max;
    bool rim_context;  // background = constant median of the box rim
  };
  std::vector<ScaleSpec> scales;
  scales.push_back({0.0f, 4, 12, 64, false});  // fine local context
  if (std::min(box.w, box.h) >= 48) {
    scales.push_back({4.0f, 2, 48, 96, false});  // coarse local context
  }
  // Rim context: SAM's literal box prior — the rim samples the
  // background. Indispensable when the object fills most of its box (a
  // windowed median would sit *on* the object).
  scales.push_back({0.0f, 0, 0, 0, true});

  const std::int64_t bw = box.w, bh = box.h;
  const auto bidx = [bw](std::int64_t bx, std::int64_t by) {
    return static_cast<std::size_t>(by * bw + bx);
  };
  // Unsigned contrast of the smoothed box against a background: the
  // polarity is applied on read, so both polarities share one copy.
  const auto contrast = [&](const PlaneView& smoothed, const image::ImageF32* bg,
                            float rim_value) {
    std::vector<float> d(static_cast<std::size_t>(box.area()));
    for (std::int64_t by = 0; by < bh; ++by) {
      for (std::int64_t bx = 0; bx < bw; ++bx) {
        d[bidx(bx, by)] = smoothed.at(box.x + bx, box.y + by) -
                          (bg != nullptr ? bg->at(bx, by) : rim_value);
      }
    }
    return d;
  };

  const auto build_context = [&](const ScaleSpec& sc, ScaleContext& ctx) {
    ctx.rim = sc.rim_context;
    if (sc.rim_context) {
      ctx.smoothed = {&intensity, 0, 0};
      std::vector<float> rim_vals;
      for (std::int64_t y = box.y; y < box.bottom(); ++y) {
        for (std::int64_t x = box.x; x < box.right(); ++x) {
          if (!inner.contains({x, y})) rim_vals.push_back(intensity.at(x, y));
        }
      }
      auto mid = rim_vals.begin() + static_cast<std::ptrdiff_t>(rim_vals.size() / 2);
      std::nth_element(rim_vals.begin(), mid, rim_vals.end());
      // One constant background, so the halo veto is a no-op.
      ctx.diff = contrast(ctx.smoothed, nullptr, *mid);
      return;
    }
    // Two context scales: the large window sees whole phase regions (so a
    // blob's interior still contrasts against the surrounding matrix); the
    // small window hugs interfaces (so pixels that merely sit next to a
    // different phase — holder-edge halos — are vetoed).
    const int r_large = static_cast<int>(std::clamp<std::int64_t>(
        std::min(box.w, box.h) / sc.large_div, sc.large_min, sc.large_max));
    const int r_small = static_cast<int>(std::clamp<std::int64_t>(
        std::min(box.w, box.h) / 8, 8, 20));
    // The medians read the smoothed plane only within r_large of the box,
    // so the blur is computed over exactly that reach.
    if (sc.smooth_sigma > 0.0f) {
      const image::Box reach = box.expanded(r_large).clipped(frame_w, frame_h);
      ctx.blurred = cv::gaussian_blur(intensity, sc.smooth_sigma, reach);
      ctx.smoothed = {&ctx.blurred, reach.x, reach.y};
    } else {
      ctx.smoothed = {&intensity, 0, 0};
    }
    // One bin plane per scale: the large and small context medians come
    // out of one row pass over it, and the refits read it again.
    ctx.plane.emplace(*ctx.smoothed.img, r_large, ctx.smoothed.local(box));
    image::ImageF32 small;
    ctx.plane->medians(r_large, ctx.context, r_small,
                       r_small < r_large ? &small : nullptr);
    ctx.diff = contrast(ctx.smoothed, &ctx.context, 0.0f);
    if (r_small < r_large) ctx.diff_local = contrast(ctx.smoothed, &small, 0.0f);
    ctx.r_refit = r_large;
  };

  const auto decode_candidate = [&](const ScaleContext& sc,
                                    int polarity) -> std::optional<MaskPrediction> {
    const auto p = static_cast<float>(polarity);
    image::Mask mask, low, high;
    {
      obs::Span span("sam.decode.grow");
      // Contrast residues against the current background (`diff`,
      // re-estimated after the first pass) and against the
      // interface-hugging small-window context (`diff_local`, fixed).
      const float* diff = sc.diff.data();
      const float* const diff_local =
          sc.diff_local.empty() ? sc.diff.data() : sc.diff_local.data();

      // Histogram of the positive contrast residue for this polarity.
      constexpr int kBins = 128;
      float vmax = 0.0f;
      for (const float d : sc.diff) vmax = std::max(vmax, p * d);
      if (vmax < 2.0f * kNoiseFloor) return std::nullopt;  // no structure on this side
      std::vector<std::int64_t> hist(kBins, 0);
      for (const float d : sc.diff) {
        const float v = p * d;
        if (v <= 0.0f) continue;
        ++hist[static_cast<std::size_t>(std::min<int>(
            kBins - 1, static_cast<int>(v / vmax * kBins)))];
      }
      // Otsu on the residue separates "object contrast" from "background
      // fluctuation"; a noise floor stops the cut collapsing into sensor
      // noise when the box contains no object of this polarity.
      const int cut_bin = cv::otsu_bin(hist);
      const float cut_high =
          std::max(cfg_.min_contrast_cut,
                   (static_cast<float>(cut_bin) + 0.5f) / kBins * vmax);

      // Hysteresis segmentation with per-object levels: strong-evidence
      // cores (above the Otsu cut of the contrast residue) are labeled,
      // each core measures its own robust peak contrast, and the object is
      // grown out to a fraction of *its* peak ("per-object half-max").
      // This is the surrogate of SAM's per-object boundary placement: a dim
      // agglomerate is delineated at half of its own brightness instead of
      // being truncated by a global cut tuned to the brightest object.
      // The background starts as the plain windowed median and is
      // re-estimated once the first pass has explained away the
      // foreground (second decoder iteration): object skirts no longer
      // inflate their own background.
      struct Seed {
        std::int32_t index, label;
      };
      std::vector<Seed> seeds;
      std::vector<float> comp_peak;
      {
        image::Mask core(bw, bh);
        for (std::int64_t by = 0; by < bh; ++by) {
          for (std::int64_t bx = 0; bx < bw; ++bx) {
            // The local-context veto keeps halo pixels (which only contrast
            // against a distant phase, e.g. membrane next to the dark
            // holder) from seeding objects.
            const std::size_t i = bidx(bx, by);
            core.at(bx, by) =
                p * diff[i] > cut_high && p * diff_local[i] > 0.5f * cut_high ? 1 : 0;
          }
        }
        const cv::Labeling core_lab = cv::label_components(core);
        if (core_lab.count == 0) return std::nullopt;
        // Robust per-core peak: 90th percentile of member residues.
        comp_peak.assign(static_cast<std::size_t>(core_lab.count) + 1, 0.0f);
        std::vector<std::vector<float>> member(comp_peak.size());
        for (std::int64_t by = 0; by < bh; ++by) {
          for (std::int64_t bx = 0; bx < bw; ++bx) {
            const std::int32_t l = core_lab.labels.at(bx, by);
            if (l == 0) continue;
            member[static_cast<std::size_t>(l)].push_back(p * diff[bidx(bx, by)]);
            seeds.push_back({static_cast<std::int32_t>(bidx(bx, by)), l});
          }
        }
        for (std::size_t l = 1; l < member.size(); ++l) {
          auto& v = member[l];
          if (v.empty()) continue;
          const auto idx =
              static_cast<std::size_t>(0.85 * static_cast<double>(v.size() - 1));
          std::nth_element(v.begin(), v.begin() + static_cast<std::ptrdiff_t>(idx),
                           v.end());
          comp_peak[l] = v[idx];
        }
      }
      // Breadth-first growth from every core pixel (raster order), each
      // grown pixel inheriting its seed's threshold, which travels with it
      // through the flat FIFO frontier (reused across the passes).
      constexpr float kHalfMax = 0.5f;
      struct Front {
        std::int32_t index;
        float t;
      };
      std::vector<Front> frontier;
      const auto threshold_mask = [&](float scale) {
        image::Mask m(bw, bh);
        std::uint8_t* const fg = m.pixels().data();
        frontier.clear();
        for (const Seed& s : seeds) {
          fg[s.index] = 1;
          frontier.push_back(
              {s.index, std::max(cfg_.min_contrast_cut,
                                 kHalfMax * scale *
                                     comp_peak[static_cast<std::size_t>(s.label)])});
        }
        for (std::size_t head = 0; head < frontier.size(); ++head) {
          const Front q = frontier[head];
          const std::int64_t qx = q.index % bw, qy = q.index / bw;
          constexpr int dx[] = {1, -1, 0, 0};
          constexpr int dy[] = {0, 0, 1, -1};
          for (int k = 0; k < 4; ++k) {
            const std::int64_t nx = qx + dx[k], ny = qy + dy[k];
            if (nx < 0 || nx >= bw || ny < 0 || ny >= bh) continue;
            const std::size_t ni = bidx(nx, ny);
            if (fg[ni] != 0) continue;
            if (p * diff[ni] <= q.t) continue;
            if (p * diff_local[ni] <= 0.3f * q.t) continue;  // halo veto
            fg[ni] = 1;
            frontier.push_back({static_cast<std::int32_t>(ni), q.t});
          }
        }
        return m;
      };

      // Two decoder iterations: segment, refit the background excluding the
      // detected foreground, segment again. (The rim context is already
      // object-free by construction and is not refitted.)
      mask = threshold_mask(1.0f);
      image::ImageF32 refit;
      if (!sc.rim) {
        // The refit radius equals the large context radius, so `context`
        // IS the unmasked median: the refit subtracts the mask from the
        // scale's shared plane and keeps `context` wherever a window
        // holds no masked pixel or too few unmasked ones.
        refit = sc.plane->masked(sc.r_refit, mask,
                                 {box.x - sc.smoothed.x0, box.y - sc.smoothed.y0},
                                 sc.context);
        // The re-estimated background becomes its contrast in place.
        float* const d = refit.pixels().data();
        for (std::int64_t by = 0; by < bh; ++by) {
          for (std::int64_t bx = 0; bx < bw; ++bx) {
            const std::size_t i = bidx(bx, by);
            d[i] = sc.smoothed.at(box.x + bx, box.y + by) - d[i];
          }
        }
        diff = d;
        mask = threshold_mask(1.0f);
      }
      low = threshold_mask(1.0f - cfg_.stability_delta);
      high = threshold_mask(1.0f + cfg_.stability_delta);

      // Coarse attention-logit veto: drop pixels the decoder scores as
      // dissimilar to the attended object query — unless that would erase
      // most of the candidate (guard against a mis-attended query).
      if (cfg_.coarse_veto_weight > 0.0f) {
        const float veto_below = -0.25f * cfg_.coarse_veto_weight;
        std::int64_t kept = 0, total = 0;
        for (std::int64_t by = 0; by < bh; ++by) {
          for (std::int64_t bx = 0; bx < bw; ++bx) {
            if (mask.at(bx, by) == 0) continue;
            ++total;
            kept += coarse.at(bx, by) < veto_below ? 0 : 1;
          }
        }
        if (total > 0 && kept * 2 >= total) {
          for (std::int64_t by = 0; by < bh; ++by) {
            for (std::int64_t bx = 0; bx < bw; ++bx) {
              if (coarse.at(bx, by) < veto_below) mask.at(bx, by) = 0;
            }
          }
        }
      }
    }

    // Cleanup: close small gaps, fill interior holes (the context rule
    // hollows out objects wider than its window — their interiors match
    // their own median), drop speckles. Candidates already run in
    // parallel, so the three masks are cleaned serially on words, sharing
    // one scratch; low/high only feed the stability IoU and stay packed.
    double stability = 0.0;
    std::int64_t area = 0;
    {
      obs::Span span("sam.decode.cleanup");
      const image::Point at{box.x - roi.x, box.y - roi.y};
      cv::BitScratch scratch;
      cv::BitMask bits, low_bits, high_bits;
      cv::clean_mask(bits, mask, roi.w, roi.h, at, cfg_.morph_radius,
                     cfg_.min_component_area, scratch);
      cv::clean_mask(low_bits, low, roi.w, roi.h, at, cfg_.morph_radius, 0, scratch);
      cv::clean_mask(high_bits, high, roi.w, roi.h, at, cfg_.morph_radius, 0, scratch);
      stability = cv::mask_iou(low_bits, high_bits);
      area = bits.count();
      mask = bits.unpack();
    }

    obs::Span span("sam.decode.score");
    MaskPrediction pred = score_mask(enc, roi, mask, area, stability);
    pred.polarity = polarity;
    // Rim prior: a mask coinciding with the prompt rim is suspect.
    std::int64_t rim_total = 0, rim_hit = 0;
    for (std::int64_t y = box.y; y < box.bottom(); ++y) {
      for (std::int64_t x = box.x; x < box.right(); ++x) {
        if (inner.contains({x, y})) continue;
        ++rim_total;
        rim_hit += mask.at(x - roi.x, y - roi.y) != 0;
      }
    }
    pred.rim_overlap = rim_total > 0 ? static_cast<double>(rim_hit) /
                                           static_cast<double>(rim_total)
                                     : 0.0;
    // Box-prompt confidence: a credible object is stable under threshold
    // perturbation, internally homogeneous, and does not coincide with the
    // prompt rim. (No large-area reward here — that prior belongs to
    // unguided point prompts, where it drives the SAM-only failure mode.)
    pred.confidence =
        pred.stability * pred.homogeneity * (1.0 - 0.7 * pred.rim_overlap);
    pred.mask = image::Mask(frame_w, frame_h);
    image::paste_mask(pred.mask, mask, roi);
    return pred;
  };

  // The scale contexts are built on the calling thread; the candidates,
  // which only read them, fan out. Grain 1: these few items are large
  // (parallel_for would run a range this short serially). Slots are
  // gathered in fixed (scale, polarity) order, so the candidate list is
  // identical to a serial decode.
  std::vector<ScaleContext> contexts(scales.size());
  for (std::size_t s = 0; s < scales.size(); ++s) {
    obs::Span span("sam.decode.context", s);
    build_context(scales[s], contexts[s]);
  }
  constexpr int kPolarities[] = {+1, -1};
  std::vector<std::optional<MaskPrediction>> slots(scales.size() * 2);
  parallel::parallel_for_chunked(
      0, static_cast<std::int64_t>(slots.size()), 1,
      [&](std::int64_t lo, std::int64_t hi) {
        for (std::int64_t c = lo; c < hi; ++c) {
          slots[static_cast<std::size_t>(c)] = decode_candidate(
              contexts[static_cast<std::size_t>(c / 2)], kPolarities[c % 2]);
        }
      });
  for (auto& slot : slots) {
    if (slot) out.push_back(std::move(*slot));
  }
  return out;
}

double SamModel::boundary_adherence(const SamEncoded& enc, const image::Mask& mask,
                                    const image::Box& box) const {
  // Morphological gradient (3×3 dilation minus erosion, outside the frame
  // counts as background) of a mask that lives inside the decode ROI: its
  // outline lies within one pixel of the mask, hence inside the ROI. Each
  // row's 3-wide any/all runs are built once and combined over 3 rows.
  const auto& edge = enc.maps.channels[kEdge];
  const image::Box roi = decode_roi(enc, box);
  const std::int64_t w = mask.width(), h = mask.height();
  const std::int64_t rw = roi.w;
  // Rows roi.y - 1 .. roi.bottom(); rows outside the frame stay 0.
  std::vector<std::uint8_t> any_run(static_cast<std::size_t>(rw * (roi.h + 2)), 0);
  std::vector<std::uint8_t> all_run(any_run.size(), 0);
  for (std::int64_t y = std::max<std::int64_t>(roi.y - 1, 0);
       y <= std::min(roi.bottom(), h - 1); ++y) {
    const std::uint8_t* m = mask.pixels().data() + y * w;
    std::uint8_t* any = any_run.data() + (y - roi.y + 1) * rw;
    std::uint8_t* all = all_run.data() + (y - roi.y + 1) * rw;
    for (std::int64_t x = roi.x; x < roi.right(); ++x) {
      const bool l = x > 0 && m[x - 1] != 0;
      const bool c = m[x] != 0;
      const bool r = x + 1 < w && m[x + 1] != 0;
      any[x - roi.x] = (l || c || r) ? 1 : 0;
      all[x - roi.x] = (l && c && r) ? 1 : 0;
    }
  }
  double sum = 0.0;
  std::int64_t count = 0;
  for (std::int64_t y = roi.y; y < roi.bottom(); ++y) {
    const std::size_t up = static_cast<std::size_t>((y - roi.y) * rw);
    const std::size_t mid = up + static_cast<std::size_t>(rw);
    const std::size_t down = mid + static_cast<std::size_t>(rw);
    const float* e = edge.pixels().data() + y * edge.width();
    for (std::int64_t i = 0; i < rw; ++i) {
      const auto k = static_cast<std::size_t>(i);
      const bool any = (any_run[up + k] | any_run[mid + k] | any_run[down + k]) != 0;
      const bool all = (all_run[up + k] & all_run[mid + k] & all_run[down + k]) != 0;
      if (!any || all) continue;
      sum += e[roi.x + i];
      ++count;
    }
  }
  return count > 0 ? sum / static_cast<double>(count) : 0.0;
}

MaskPrediction SamModel::predict_box(const SamEncoded& enc,
                                     const image::Box& raw_box) const {
  std::vector<MaskPrediction> candidates = predict_box_candidates(enc, raw_box);
  // Without text guidance, rank by internal confidence weighted by
  // boundary adherence: a real object's outline follows image edges, a
  // spurious candidate's outline floats through flat regions.
  MaskPrediction best;
  best.mask = image::Mask(enc.maps.width, enc.maps.height);
  double best_score = -1.0;
  for (auto& c : candidates) {
    const double score = c.confidence * (0.1 + boundary_adherence(enc, c.mask, raw_box));
    if (score > best_score) {
      best_score = score;
      best = std::move(c);
    }
  }
  return best;
}

MaskPrediction SamModel::predict_point(const SamEncoded& enc,
                                       image::Point p) const {
  const auto& intensity = enc.maps.channels[kIntensity];
  const std::int64_t w = enc.maps.width, h = enc.maps.height;
  MaskPrediction out;
  out.mask = image::Mask(w, h);
  if (p.x < 0 || p.x >= w || p.y < 0 || p.y >= h) return out;

  // Seed statistics from a small disk around the click.
  const BandStats seed = stats_in(
      intensity, image::Box{p.x - 3, p.y - 3, 7, 7}.clipped(w, h),
      [&](std::int64_t x, std::int64_t y) {
        const std::int64_t dx = x - p.x, dy = y - p.y;
        return dx * dx + dy * dy <= 9;
      });
  const float tol_base =
      std::min(cfg_.grow_tolerance_cap,
               cfg_.grow_tolerance * std::max(seed.stddev, kNoiseFloor));

  // Neighbour-relative growth: a pixel joins when the *step* from an
  // already-accepted neighbour is below tolerance. This reproduces SAM's
  // characteristic unguided behaviour on scientific data — masks bleed
  // through diffuse phase boundaries and gradual shading (amorphous
  // agglomerates) but stop dead at sharp edges (the holder/membrane
  // interface), which is what hands the max-confidence pick to the large
  // homogeneous background.
  const auto grow = [&](float tol) {
    image::Mask m(w, h);
    std::deque<image::Point> frontier;
    m.at(p.x, p.y) = 1;
    frontier.push_back(p);
    while (!frontier.empty()) {
      const image::Point q = frontier.front();
      frontier.pop_front();
      constexpr int dx[] = {1, -1, 0, 0};
      constexpr int dy[] = {0, 0, 1, -1};
      for (int i = 0; i < 4; ++i) {
        const std::int64_t nx = q.x + dx[i], ny = q.y + dy[i];
        if (nx < 0 || nx >= w || ny < 0 || ny >= h) continue;
        if (m.at(nx, ny) != 0) continue;
        if (std::fabs(intensity.at(nx, ny) - intensity.at(q.x, q.y)) > tol) {
          continue;
        }
        m.at(nx, ny) = 1;
        frontier.push_back({nx, ny});
      }
    }
    return m;
  };

  image::Mask mask = grow(tol_base);
  const image::Mask low = grow(tol_base * (1.0f - cfg_.stability_delta));
  const image::Mask high = grow(tol_base * (1.0f + cfg_.stability_delta));
  MaskPrediction pred = score_mask(enc, {0, 0, w, h}, mask, image::mask_area(mask),
                                   image::mask_iou(low, high));
  pred.mask = std::move(mask);
  return pred;
}

MaskPrediction SamModel::score_mask(const SamEncoded& enc, const image::Box& roi,
                                    const image::Mask& mask, std::int64_t area,
                                    double stability) const {
  MaskPrediction pred;
  pred.stability = stability;
  pred.area_fraction = static_cast<double>(area) /
                       static_cast<double>(std::max<std::int64_t>(
                           1, enc.maps.width * enc.maps.height));
  const BandStats inside =
      stats_in(enc.maps.channels[kIntensity], roi, [&](std::int64_t x, std::int64_t y) {
        return mask.at(x - roi.x, y - roi.y) != 0;
      });
  pred.homogeneity =
      inside.count > 0
          ? 1.0 / (1.0 + static_cast<double>(inside.stddev) / kNoiseFloor)
          : 0.0;
  // Max-confidence rule: stability and homogeneity reward crisp uniform
  // regions; the size prior rewards large ones. On crystalline FIB-SEM the
  // black background maximizes all three — the paper's SAM-only failure.
  pred.confidence =
      pred.stability * (0.25 + 0.75 * pred.homogeneity) * std::sqrt(pred.area_fraction);
  return pred;
}

}  // namespace zenesis::models
