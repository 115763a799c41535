#include "zenesis/eval/metrics.hpp"

#include <cmath>
#include <sstream>
#include <stdexcept>

#include "zenesis/obs/trace.hpp"

namespace zenesis::eval {
namespace {

Confusion confusion_counts(const image::Mask& pred, const image::Mask& gt) {
  if (pred.width() != gt.width() || pred.height() != gt.height()) {
    throw std::invalid_argument("confusion_counts: size mismatch");
  }
  Confusion c;
  auto pp = pred.pixels();
  auto pg = gt.pixels();
  for (std::size_t i = 0; i < pp.size(); ++i) {
    const bool p = pp[i] != 0, g = pg[i] != 0;
    if (p && g) ++c.tp;
    else if (!p && !g) ++c.tn;
    else if (p && !g) ++c.fp;
    else ++c.fn;
  }
  return c;
}

}  // namespace

Metrics compute_metrics(const image::Mask& pred, const image::Mask& gt) {
  obs::Span span("eval.metrics");
  Metrics m;
  m.confusion = confusion_counts(pred, gt);
  const auto& c = m.confusion;
  const double total = static_cast<double>(c.total());
  m.accuracy = total > 0.0 ? static_cast<double>(c.tp + c.tn) / total : 0.0;
  const double uni = static_cast<double>(c.tp + c.fp + c.fn);
  m.iou = uni > 0.0 ? static_cast<double>(c.tp) / uni : 1.0;
  const double dice_den = static_cast<double>(2 * c.tp + c.fp + c.fn);
  m.dice = dice_den > 0.0 ? static_cast<double>(2 * c.tp) / dice_den : 1.0;
  const double p_den = static_cast<double>(c.tp + c.fp);
  m.precision = p_den > 0.0 ? static_cast<double>(c.tp) / p_den
                            : (c.fn == 0 ? 1.0 : 0.0);
  const double r_den = static_cast<double>(c.tp + c.fn);
  m.recall = r_den > 0.0 ? static_cast<double>(c.tp) / r_den
                         : (c.fp == 0 ? 1.0 : 0.0);
  return m;
}

Aggregate aggregate(std::span<const double> values) {
  Aggregate a;
  a.count = static_cast<std::int64_t>(values.size());
  if (values.empty()) return a;
  double sum = 0.0;
  for (double v : values) sum += v;
  a.mean = sum / static_cast<double>(values.size());
  double var = 0.0;
  for (double v : values) var += (v - a.mean) * (v - a.mean);
  a.stddev = std::sqrt(var / static_cast<double>(values.size()));
  return a;
}

MetricSummary summarize(std::span<const Metrics> per_slice) {
  std::vector<double> acc, iou, dice, prec, rec;
  acc.reserve(per_slice.size());
  for (const auto& m : per_slice) {
    acc.push_back(m.accuracy);
    iou.push_back(m.iou);
    dice.push_back(m.dice);
    prec.push_back(m.precision);
    rec.push_back(m.recall);
  }
  MetricSummary s;
  s.accuracy = aggregate(acc);
  s.iou = aggregate(iou);
  s.dice = aggregate(dice);
  s.precision = aggregate(prec);
  s.recall = aggregate(rec);
  return s;
}

std::string format_aggregate(const Aggregate& a, int digits) {
  std::ostringstream os;
  os.setf(std::ios::fixed);
  os.precision(digits);
  os << a.mean << "±" << a.stddev;
  return os.str();
}

}  // namespace zenesis::eval
