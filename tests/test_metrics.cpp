// Metric definitions and aggregation tests.
#include <gtest/gtest.h>

#include "zenesis/eval/metrics.hpp"

#include "zenesis/image/geometry.hpp"

namespace ze = zenesis::eval;
namespace zi = zenesis::image;

namespace {

zi::Mask make_mask(std::int64_t w, std::int64_t h,
                   std::initializer_list<zi::Point> fg) {
  zi::Mask m(w, h);
  for (const auto& p : fg) m.at(p.x, p.y) = 1;
  return m;
}

}  // namespace

TEST(Confusion, CountsAllFourCells) {
  const zi::Mask pred = make_mask(2, 2, {{0, 0}, {1, 0}});
  const zi::Mask gt = make_mask(2, 2, {{0, 0}, {0, 1}});
  const ze::Confusion c = ze::compute_metrics(pred, gt).confusion;
  EXPECT_EQ(c.tp, 1);
  EXPECT_EQ(c.fp, 1);
  EXPECT_EQ(c.fn, 1);
  EXPECT_EQ(c.tn, 1);
  EXPECT_EQ(c.total(), 4);
}

TEST(Confusion, SizeMismatchThrows) {
  EXPECT_THROW(ze::compute_metrics(zi::Mask(2, 2), zi::Mask(3, 2)),
               std::invalid_argument);
}

TEST(Metrics, PerfectPrediction) {
  const zi::Mask m = make_mask(3, 3, {{1, 1}, {2, 2}});
  const ze::Metrics r = ze::compute_metrics(m, m);
  EXPECT_DOUBLE_EQ(r.accuracy, 1.0);
  EXPECT_DOUBLE_EQ(r.iou, 1.0);
  EXPECT_DOUBLE_EQ(r.dice, 1.0);
  EXPECT_DOUBLE_EQ(r.precision, 1.0);
  EXPECT_DOUBLE_EQ(r.recall, 1.0);
}

TEST(Metrics, HalfOverlapKnownValues) {
  const zi::Mask pred = make_mask(4, 1, {{0, 0}, {1, 0}});
  const zi::Mask gt = make_mask(4, 1, {{1, 0}, {2, 0}});
  const ze::Metrics r = ze::compute_metrics(pred, gt);
  EXPECT_DOUBLE_EQ(r.iou, 1.0 / 3.0);
  EXPECT_DOUBLE_EQ(r.dice, 0.5);
  EXPECT_DOUBLE_EQ(r.accuracy, 0.5);
  EXPECT_DOUBLE_EQ(r.precision, 0.5);
  EXPECT_DOUBLE_EQ(r.recall, 0.5);
}

TEST(Metrics, DiceIouConsistency) {
  // dice = 2*iou/(1+iou) must hold for any masks.
  const zi::Mask pred = make_mask(5, 5, {{0, 0}, {1, 1}, {2, 2}, {3, 3}});
  const zi::Mask gt = make_mask(5, 5, {{1, 1}, {2, 2}, {4, 4}});
  const ze::Metrics r = ze::compute_metrics(pred, gt);
  EXPECT_NEAR(r.dice, 2.0 * r.iou / (1.0 + r.iou), 1e-12);
}

TEST(Metrics, BothEmptyIsPerfect) {
  const ze::Metrics r = ze::compute_metrics(zi::Mask(3, 3), zi::Mask(3, 3));
  EXPECT_DOUBLE_EQ(r.iou, 1.0);
  EXPECT_DOUBLE_EQ(r.dice, 1.0);
  EXPECT_DOUBLE_EQ(r.accuracy, 1.0);
}

TEST(Metrics, EmptyPredictionOnNonEmptyGt) {
  const zi::Mask gt = make_mask(3, 3, {{0, 0}});
  const ze::Metrics r = ze::compute_metrics(zi::Mask(3, 3), gt);
  EXPECT_DOUBLE_EQ(r.iou, 0.0);
  EXPECT_DOUBLE_EQ(r.recall, 0.0);
  EXPECT_DOUBLE_EQ(r.precision, 0.0);
}

TEST(Aggregate, MeanAndStd) {
  const double vals[] = {1.0, 2.0, 3.0, 4.0};
  const ze::Aggregate a = ze::aggregate(vals);
  EXPECT_DOUBLE_EQ(a.mean, 2.5);
  EXPECT_NEAR(a.stddev, std::sqrt(1.25), 1e-12);
  EXPECT_EQ(a.count, 4);
}

TEST(Aggregate, EmptyIsZero) {
  const ze::Aggregate a = ze::aggregate({});
  EXPECT_EQ(a.count, 0);
  EXPECT_DOUBLE_EQ(a.mean, 0.0);
}

TEST(Summarize, RollsUpPerSlice) {
  std::vector<ze::Metrics> ms(3);
  ms[0].iou = 0.8;
  ms[1].iou = 0.9;
  ms[2].iou = 1.0;
  const ze::MetricSummary s = ze::summarize(ms);
  EXPECT_NEAR(s.iou.mean, 0.9, 1e-12);
  EXPECT_EQ(s.iou.count, 3);
}

TEST(FormatAggregate, PaperStyle) {
  ze::Aggregate a{0.947, 0.005, 10};
  EXPECT_EQ(ze::format_aggregate(a), "0.947±0.005");
}
