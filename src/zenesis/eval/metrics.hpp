#pragma once
// Segmentation metrics — the quantities reported in the paper's Tables
// 1–3 (accuracy, IoU, Dice) plus precision/recall used by the extended
// dashboard.

#include <cstdint>
#include <span>
#include <vector>

#include "zenesis/image/image.hpp"

namespace zenesis::eval {

/// Pixel confusion counts of a binary prediction against ground truth.
struct Confusion {
  std::int64_t tp = 0;
  std::int64_t tn = 0;
  std::int64_t fp = 0;
  std::int64_t fn = 0;

  std::int64_t total() const noexcept { return tp + tn + fp + fn; }
};

/// Derived metrics. Conventions for degenerate cases: IoU/Dice are 1 when
/// both masks are empty (perfect agreement), 0 when exactly one is empty.
struct Metrics {
  double accuracy = 0.0;
  double iou = 0.0;
  double dice = 0.0;
  double precision = 0.0;
  double recall = 0.0;
  Confusion confusion;
};

/// Metrics of `pred` against `gt`; throws std::invalid_argument when the
/// two masks differ in size.
Metrics compute_metrics(const image::Mask& pred, const image::Mask& gt);

/// Mean ± (population) standard deviation — the "a ± b" cells of the
/// paper's tables.
struct Aggregate {
  double mean = 0.0;
  double stddev = 0.0;
  std::int64_t count = 0;
};

Aggregate aggregate(std::span<const double> values);

/// Dataset-level roll-up of per-slice metrics.
struct MetricSummary {
  Aggregate accuracy;
  Aggregate iou;
  Aggregate dice;
  Aggregate precision;
  Aggregate recall;
};

MetricSummary summarize(std::span<const Metrics> per_slice);

/// Formats "0.947±0.005" with the given precision.
std::string format_aggregate(const Aggregate& a, int digits = 3);

}  // namespace zenesis::eval
