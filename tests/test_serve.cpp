// SegmentService contract tests (the ISSUE-2 acceptance list):
//   (a) responses are byte-identical to the equivalent blocking
//       ZenesisPipeline call for every batch size / fan-out width,
//   (b) a full queue rejects immediately instead of blocking or dropping,
//   (c) expired deadlines complete with DeadlineExpired without running
//       the pipeline,
//   (d) shutdown drains admitted requests and rejects new ones,
//   (e) the completion runs exactly once on every path, never under the
//       service's locks (it may re-enter the service),
//   (f) tenant quotas and weighted tenant rotation, for pivots and
//       micro-batch riders alike.
// Plus cancellation, priority ordering, stats/dashboard publication, and
// config validation surfacing. Run under TSAN and ASAN via tools/ci.sh.
#include <gtest/gtest.h>

#include <chrono>
#include <condition_variable>
#include <future>
#include <map>
#include <mutex>
#include <thread>
#include <vector>

#include "zenesis/core/session.hpp"
#include "zenesis/fibsem/synth.hpp"
#include "zenesis/serve/service.hpp"

namespace zc = zenesis::core;
namespace zf = zenesis::fibsem;
namespace zi = zenesis::image;
namespace zs = zenesis::serve;

namespace {

constexpr const char* kPrompt = "bright needle-like crystalline catalyst";

zf::SyntheticSlice make_slice(std::int64_t size, std::uint64_t seed) {
  zf::SynthConfig cfg;
  cfg.type = zf::SampleType::kCrystalline;
  cfg.width = size;
  cfg.height = size;
  cfg.seed = seed;
  return zf::generate_slice(cfg, 0);
}

zf::SyntheticVolume make_volume() {
  zf::SynthConfig cfg;
  cfg.type = zf::SampleType::kCrystalline;
  cfg.width = 64;
  cfg.height = 64;
  cfg.depth = 4;
  cfg.seed = 99;
  return zf::generate_volume(cfg);
}

void expect_masks_equal(const zi::Mask& a, const zi::Mask& b) {
  ASSERT_EQ(a.width(), b.width());
  ASSERT_EQ(a.height(), b.height());
  const auto pa = a.pixels();
  const auto pb = b.pixels();
  for (std::size_t i = 0; i < pa.size(); ++i) {
    ASSERT_EQ(pa[i], pb[i]) << "pixel " << i;
  }
}

/// Records every completion call per request tag.
struct CompletionLog {
  std::mutex mu;
  std::condition_variable cv;
  std::map<int, std::vector<zs::Response>> got;

  zs::SegmentService::Completion make(int tag) {
    return [this, tag](zs::Response&& r) {
      std::lock_guard<std::mutex> lk(mu);
      got[tag].push_back(std::move(r));
      cv.notify_all();
    };
  }
  /// Waits until `tag` has completed at least once.
  bool wait(int tag) {
    std::unique_lock<std::mutex> lk(mu);
    return cv.wait_for(lk, std::chrono::seconds(30),
                       [&] { return got.count(tag) != 0; });
  }
  std::size_t calls(int tag) {
    std::lock_guard<std::mutex> lk(mu);
    const auto it = got.find(tag);
    return it == got.end() ? 0 : it->second.size();
  }
};

zs::Request tenant_slice(const zi::AnyImage& img, std::uint32_t tenant) {
  zs::Request r = zs::Request::slice(img, kPrompt);
  r.tenant = tenant;
  return r;
}

/// Tenant ids in completion order for 8 tenant-1 (weight 1) then 8
/// tenant-2 (weight 3) requests, all admitted before dispatch starts.
/// fanout_threads = 1 completes in dispatch order on the dispatcher.
std::vector<std::uint32_t> weighted_completion_order(std::size_t max_batch,
                                                     std::uint64_t* batches) {
  zs::ServiceConfig cfg;
  cfg.max_batch = max_batch;
  cfg.fanout_threads = 1;
  cfg.start_paused = true;
  cfg.tenants[1] = {1, 256};
  cfg.tenants[2] = {3, 256};
  zs::SegmentService service(cfg);
  std::mutex mu;
  std::vector<std::uint32_t> order;
  const auto img = zi::AnyImage(make_slice(24, 8).raw);
  for (const std::uint32_t tenant : {1u, 2u}) {
    for (int i = 0; i < 8; ++i) {
      service.submit(tenant_slice(img, tenant), [&, tenant](zs::Response&& r) {
        EXPECT_TRUE(r.ok()) << r.error;
        std::lock_guard<std::mutex> lk(mu);
        order.push_back(tenant);
      });
    }
  }
  service.resume();
  service.shutdown();  // drains all sixteen
  *batches = service.stats().batches;
  return order;
}

}  // namespace

// (a) Byte-identical to blocking calls for every batch size / fan-out.
TEST(Serve, SliceResponsesMatchBlockingPipeline) {
  // A small request mix with repeats — repeats are exactly the
  // cache-amortized traffic the micro-batcher targets.
  std::vector<zf::SyntheticSlice> slices;
  for (std::uint64_t s : {11u, 22u, 33u}) slices.push_back(make_slice(64, s));
  const std::vector<std::size_t> traffic = {0, 1, 0, 2, 1, 0, 2, 2};

  const zc::ZenesisPipeline reference;
  std::vector<zc::SliceResult> expected;
  for (const std::size_t idx : traffic) {
    expected.push_back(
        reference.segment(zi::AnyImage(slices[idx].raw), kPrompt));
  }

  for (const std::size_t max_batch : {std::size_t{1}, std::size_t{4}}) {
    for (const std::size_t fanout : {std::size_t{1}, std::size_t{4}}) {
      zs::ServiceConfig cfg;
      cfg.max_batch = max_batch;
      cfg.fanout_threads = fanout;
      cfg.start_paused = true;  // admit everything, then one resume —
                                // exercises real micro-batch grouping
      zs::SegmentService service(cfg);
      std::vector<std::future<zs::Response>> futures;
      for (const std::size_t idx : traffic) {
        futures.push_back(service.submit(
            zs::Request::slice(zi::AnyImage(slices[idx].raw), kPrompt)));
      }
      service.resume();
      for (std::size_t i = 0; i < futures.size(); ++i) {
        const zs::Response r = futures[i].get();
        ASSERT_TRUE(r.ok()) << "batch=" << max_batch << " fanout=" << fanout
                            << " err=" << r.error;
        ASSERT_TRUE(r.slice.has_value());
        expect_masks_equal(r.slice->mask, expected[i].mask);
        EXPECT_EQ(r.slice->primary_box, expected[i].primary_box);
        EXPECT_EQ(r.slice->confidence, expected[i].confidence);
      }
      const zs::ServiceStats st = service.stats();
      EXPECT_EQ(st.completed, traffic.size());
      EXPECT_EQ(st.admitted, traffic.size());
      if (max_batch > 1) EXPECT_LT(st.batches, traffic.size());
    }
  }
}

TEST(Serve, BoxMultiAndVolumeMatchBlockingPipeline) {
  const auto s = make_slice(64, 7);
  const auto vol = make_volume();
  const zc::ZenesisPipeline reference;

  zs::SegmentService service;
  auto f_box = service.submit(zs::Request::boxed(
      zi::AnyImage(s.raw), {8, 8, 48, 40}, zc::BoxPromptOptions{kPrompt, {}}));
  auto f_multi = service.submit(zs::Request::multi_object(
      zi::AnyImage(s.raw), {kPrompt, "dark holder"}));
  auto f_vol = service.submit(zs::Request::volume_batch(vol.volume, kPrompt));

  const zc::SliceResult want_box = reference.segment_with_box(
      reference.make_ready(zi::AnyImage(s.raw)), {8, 8, 48, 40},
      zc::BoxPromptOptions{kPrompt, {}});
  const auto want_multi =
      reference.segment_multi(zi::AnyImage(s.raw), {kPrompt, "dark holder"});
  const zc::VolumeResult want_vol =
      reference.segment_volume(zc::VolumeRequest::view(vol.volume, kPrompt));

  const zs::Response r_box = f_box.get();
  ASSERT_TRUE(r_box.ok());
  expect_masks_equal(r_box.slice->mask, want_box.mask);

  const zs::Response r_multi = f_multi.get();
  ASSERT_TRUE(r_multi.ok());
  ASSERT_TRUE(r_multi.multi.has_value());
  const auto& got_labels = r_multi.multi->labels;
  for (std::int64_t y = 0; y < got_labels.height(); ++y) {
    for (std::int64_t x = 0; x < got_labels.width(); ++x) {
      ASSERT_EQ(got_labels.at(x, y), want_multi.labels.at(x, y));
    }
  }

  const zs::Response r_vol = f_vol.get();
  ASSERT_TRUE(r_vol.ok());
  ASSERT_TRUE(r_vol.volume.has_value());
  ASSERT_EQ(r_vol.volume->slices.size(), want_vol.slices.size());
  for (std::size_t z = 0; z < want_vol.slices.size(); ++z) {
    expect_masks_equal(r_vol.volume->slices[z].mask, want_vol.slices[z].mask);
  }
  EXPECT_EQ(r_vol.volume->replaced_count, want_vol.replaced_count);
}

// (b) Bounded admission: a full queue rejects, nothing blocks or drops.
TEST(Serve, FullQueueRejectsInsteadOfBlocking) {
  const auto s = make_slice(48, 5);
  zs::ServiceConfig cfg;
  cfg.queue_capacity = 3;
  cfg.start_paused = true;
  zs::SegmentService service(cfg);

  std::vector<std::future<zs::Response>> admitted;
  for (int i = 0; i < 3; ++i) {
    admitted.push_back(
        service.submit(zs::Request::slice(zi::AnyImage(s.raw), kPrompt)));
  }
  EXPECT_EQ(service.queue_depth(), 3u);

  auto overflow =
      service.submit(zs::Request::slice(zi::AnyImage(s.raw), kPrompt));
  ASSERT_EQ(overflow.wait_for(std::chrono::seconds(0)),
            std::future_status::ready);  // rejected immediately, no block
  const zs::Response r = overflow.get();
  EXPECT_EQ(r.status, zs::Response::Status::kRejected);
  EXPECT_EQ(r.reject, zs::RejectReason::kQueueFull);

  service.resume();
  for (auto& f : admitted) EXPECT_TRUE(f.get().ok());  // nothing dropped
  const zs::ServiceStats st = service.stats();
  EXPECT_EQ(st.rejected_queue_full, 1u);
  EXPECT_EQ(st.admitted, 3u);
  EXPECT_EQ(st.completed, 3u);
  EXPECT_EQ(st.queue_depth_high_water, 3u);
}

// (c) Expired deadlines never reach the pipeline.
TEST(Serve, ExpiredDeadlineCompletesWithoutRunningPipeline) {
  const auto s = make_slice(48, 6);
  zs::ServiceConfig cfg;
  cfg.start_paused = true;
  zs::SegmentService service(cfg);

  // Already expired at submit.
  auto pre = service.submit(
      zs::Request::slice(zi::AnyImage(s.raw), kPrompt)
          .with_deadline(zs::Clock::now() - std::chrono::milliseconds(1)));
  EXPECT_EQ(pre.get().reject, zs::RejectReason::kDeadlineExpired);

  // Expires while queued (dispatch paused past the deadline).
  auto queued = service.submit(
      zs::Request::slice(zi::AnyImage(s.raw), kPrompt)
          .with_deadline_in(std::chrono::milliseconds(20)));
  std::this_thread::sleep_for(std::chrono::milliseconds(40));
  service.resume();
  const zs::Response r = queued.get();
  EXPECT_EQ(r.status, zs::Response::Status::kRejected);
  EXPECT_EQ(r.reject, zs::RejectReason::kDeadlineExpired);

  const zs::ServiceStats st = service.stats();
  EXPECT_EQ(st.expired, 2u);
  EXPECT_EQ(st.completed, 0u);
  EXPECT_EQ(st.decode_us.count(), 0u);  // the pipeline never ran
}

// (d) Shutdown drains admitted work, then rejects.
TEST(Serve, ShutdownDrainsInFlightAndRejectsNew) {
  const auto s = make_slice(48, 8);
  zs::ServiceConfig cfg;
  cfg.start_paused = true;
  zs::SegmentService service(cfg);

  std::vector<std::future<zs::Response>> admitted;
  for (int i = 0; i < 4; ++i) {
    admitted.push_back(
        service.submit(zs::Request::slice(zi::AnyImage(s.raw), kPrompt)));
  }
  service.shutdown();  // overrides pause; must drain all four

  for (auto& f : admitted) {
    const zs::Response r = f.get();
    EXPECT_TRUE(r.ok()) << r.error;
  }
  auto late = service.submit(zs::Request::slice(zi::AnyImage(s.raw), kPrompt));
  const zs::Response r = late.get();
  EXPECT_EQ(r.status, zs::Response::Status::kRejected);
  EXPECT_EQ(r.reject, zs::RejectReason::kShuttingDown);
  const zs::ServiceStats st = service.stats();
  EXPECT_EQ(st.completed, 4u);
  EXPECT_EQ(st.rejected_shutting_down, 1u);
  service.shutdown();  // idempotent
}

TEST(Serve, CancelTokenRejectsBeforeDispatch) {
  const auto s = make_slice(48, 9);
  zs::ServiceConfig cfg;
  cfg.start_paused = true;
  zs::SegmentService service(cfg);

  auto token = std::make_shared<zs::CancelToken>();
  auto cancelled = service.submit(
      zs::Request::slice(zi::AnyImage(s.raw), kPrompt).with_cancel(token));
  auto kept =
      service.submit(zs::Request::slice(zi::AnyImage(s.raw), kPrompt));
  token->cancel();
  service.resume();

  EXPECT_EQ(cancelled.get().reject, zs::RejectReason::kCancelled);
  EXPECT_TRUE(kept.get().ok());
  EXPECT_EQ(service.stats().cancelled, 1u);
}

TEST(Serve, PriorityJumpsTheQueue) {
  const auto s = make_slice(48, 10);
  zs::ServiceConfig cfg;
  cfg.max_batch = 1;  // dispatch one at a time → completion order observable
  cfg.start_paused = true;
  zs::SegmentService service(cfg);

  auto low = service.submit(zs::Request::slice(zi::AnyImage(s.raw), kPrompt));
  auto high = service.submit(
      zs::Request::slice(zi::AnyImage(s.raw), kPrompt).with_priority(5));
  service.resume();
  const zs::Response r_high = high.get();
  const zs::Response r_low = low.get();
  ASSERT_TRUE(r_high.ok());
  ASSERT_TRUE(r_low.ok());
  // The urgent request dispatched first: it spent less time queued.
  EXPECT_LT(r_high.total_us, r_low.total_us);
}

TEST(Serve, PublishesStatsIntoDashboardViaSession) {
  const auto s = make_slice(48, 11);
  zc::Session session;
  zs::SegmentService service;
  service.attach_to(session);

  service.submit(zs::Request::slice(zi::AnyImage(s.raw), kPrompt)).get();
  // mode_c_evaluate must fold service counters in automatically — no
  // explicit publish_runtime_stats call.
  const auto result = session.mode_a_segment(zi::AnyImage(s.raw), kPrompt);
  session.mode_c_evaluate("synthetic", "zenesis", 0, result.mask,
                          s.ground_truth);
  const auto& stats = session.dashboard().stats();
  ASSERT_TRUE(stats.count("serve_completed"));
  EXPECT_EQ(stats.at("serve_completed"), 1.0);
  ASSERT_TRUE(stats.count("serve_total_us_p50"));
  EXPECT_GT(stats.at("serve_total_us_p50"), 0.0);
  ASSERT_TRUE(stats.count("feature_cache_hits"));
  // No clear_stats_sources needed: attach_to is a scoped registration.
}

// Regression: attach_to must not leave a dangling source behind — a
// session outliving the service skips (and prunes) the dead registration,
// so mode_c_evaluate after the service dies is safe (verified under ASAN).
TEST(Serve, SessionOutlivingServiceSkipsDeadStatsSource) {
  const auto s = make_slice(48, 13);
  zc::Session session;
  {
    zs::SegmentService service;
    service.attach_to(session);
    service.submit(zs::Request::slice(zi::AnyImage(s.raw), kPrompt)).get();
    session.publish_runtime_stats();
    EXPECT_TRUE(session.dashboard().stats().count("serve_completed"));
  }  // service destroyed first — the old ordering bug
  const auto result = session.mode_a_segment(zi::AnyImage(s.raw), kPrompt);
  session.mode_c_evaluate("synthetic", "zenesis", 0, result.mask,
                          s.ground_truth);  // must not touch freed memory
  // The stale serve_* values from the last live publish remain readable.
  EXPECT_TRUE(session.dashboard().stats().count("serve_completed"));
}

// Regression: a malformed request inside a micro-batch fails with kError
// instead of throwing through the fan-out and terminating the dispatcher;
// healthy requests in the same batch are unaffected.
TEST(Serve, MalformedSliceRequestFailsWithoutKillingTheBatch) {
  const auto s = make_slice(48, 14);
  zs::ServiceConfig cfg;
  cfg.max_batch = 4;
  cfg.start_paused = true;  // both requests join one micro-batch
  zs::SegmentService service(cfg);

  auto bad = service.submit(zs::Request::slice(zi::AnyImage(), kPrompt));
  auto good = service.submit(zs::Request::slice(zi::AnyImage(s.raw), kPrompt));
  service.resume();

  const zs::Response rb = bad.get();
  EXPECT_EQ(rb.status, zs::Response::Status::kError);
  EXPECT_FALSE(rb.error.ok());
  EXPECT_FALSE(rb.error.message.empty());
  EXPECT_EQ(rb.error.stage, "serve.readiness");
  const zs::Response rg = good.get();
  EXPECT_TRUE(rg.ok()) << rg.error;

  const zs::ServiceStats st = service.stats();
  EXPECT_EQ(st.failed, 1u);
  EXPECT_EQ(st.completed, 1u);

  // The dispatcher survived: the service still serves.
  EXPECT_TRUE(service.submit(zs::Request::slice(zi::AnyImage(s.raw), kPrompt))
                  .get()
                  .ok());
}

// Regression: cancelling queued work frees its queue slot — a full queue
// purges cancelled entries at admission instead of rejecting QueueFull.
TEST(Serve, CancellationRelievesQueueFullBackpressure) {
  const auto s = make_slice(48, 15);
  zs::ServiceConfig cfg;
  cfg.queue_capacity = 2;
  cfg.start_paused = true;
  zs::SegmentService service(cfg);

  auto token = std::make_shared<zs::CancelToken>();
  auto doomed = service.submit(
      zs::Request::slice(zi::AnyImage(s.raw), kPrompt).with_cancel(token));
  auto kept = service.submit(zs::Request::slice(zi::AnyImage(s.raw), kPrompt));

  // Queue full, nothing cancelled yet: still an explicit rejection.
  const zs::Response full =
      service.submit(zs::Request::slice(zi::AnyImage(s.raw), kPrompt)).get();
  EXPECT_EQ(full.reject, zs::RejectReason::kQueueFull);

  token->cancel();
  // Admission purges the cancelled entry, so this submission is admitted
  // even though dispatch is still paused.
  auto after = service.submit(zs::Request::slice(zi::AnyImage(s.raw), kPrompt));
  EXPECT_EQ(doomed.wait_for(std::chrono::seconds(0)),
            std::future_status::ready);
  EXPECT_EQ(doomed.get().reject, zs::RejectReason::kCancelled);

  service.resume();
  EXPECT_TRUE(kept.get().ok());
  EXPECT_TRUE(after.get().ok());
  const zs::ServiceStats st = service.stats();
  EXPECT_EQ(st.rejected_queue_full, 1u);
  EXPECT_EQ(st.cancelled, 1u);
  EXPECT_EQ(st.completed, 2u);
}

TEST(Serve, InvalidConfigSurfacesEveryMessage) {
  zs::ServiceConfig cfg;
  cfg.queue_capacity = 0;
  cfg.pipeline.max_boxes = 0;
  cfg.pipeline.heuristic.window = 0;
  const auto issues = cfg.validate();
  EXPECT_EQ(issues.size(), 3u);
  try {
    zs::SegmentService service(cfg);
    FAIL() << "construction must throw";
  } catch (const std::invalid_argument& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("queue_capacity"), std::string::npos);
    EXPECT_NE(msg.find("max_boxes"), std::string::npos);
    EXPECT_NE(msg.find("heuristic.window"), std::string::npos);
  }
}

TEST(Serve, InvalidTenantPolicySurfaces) {
  zs::ServiceConfig cfg;
  cfg.default_tenant.weight = 0;
  cfg.tenants[3] = {0, 0};
  const auto issues = cfg.validate();
  EXPECT_EQ(issues.size(), 3u);
  EXPECT_THROW(zs::SegmentService{cfg}, std::invalid_argument);
}

// (e) Every path runs the completion exactly once: ok, pipeline error,
// admission reject, queue-full purge, swept deadline, swept cancel,
// shutdown drain and submit-after-shutdown.
TEST(ServeCompletion, RunsExactlyOnceOnEveryPath) {
  const auto good = zi::AnyImage(make_slice(48, 16).raw);
  zs::ServiceConfig cfg;
  cfg.queue_capacity = 4;
  cfg.max_batch = 4;
  cfg.start_paused = true;
  zs::SegmentService service(cfg);
  CompletionLog log;

  auto token3 = std::make_shared<zs::CancelToken>();
  service.submit(zs::Request::slice(good, kPrompt), log.make(1));
  service.submit(zs::Request::slice(zi::AnyImage(), kPrompt), log.make(2));
  service.submit(zs::Request::slice(good, kPrompt).with_cancel(token3),
                 log.make(3));
  service.submit(zs::Request::slice(good, kPrompt), log.make(4));

  // Admission reject: runs synchronously inside submit().
  service.submit(zs::Request::slice(good, kPrompt), log.make(5));
  EXPECT_EQ(log.calls(5), 1u);

  // Queue-full purge: the cancelled entry completes inside this submit().
  token3->cancel();
  service.submit(zs::Request::slice(good, kPrompt)
                     .with_deadline_in(std::chrono::milliseconds(30)),
                 log.make(6));
  EXPECT_EQ(log.calls(3), 1u);

  // Swept while paused: the deadline, then a cancel.
  ASSERT_TRUE(log.wait(6));
  auto token7 = std::make_shared<zs::CancelToken>();
  service.submit(zs::Request::slice(good, kPrompt).with_cancel(token7),
                 log.make(7));
  token7->cancel();
  ASSERT_TRUE(log.wait(7));

  service.resume();
  for (const int tag : {1, 2, 4}) ASSERT_TRUE(log.wait(tag));

  // Shutdown drain, then a submission after shutdown.
  service.pause();
  service.submit(zs::Request::slice(good, kPrompt), log.make(8));
  service.shutdown();
  service.submit(zs::Request::slice(good, kPrompt), log.make(9));

  const auto status_of = [&](int tag) { return log.got.at(tag)[0].status; };
  const auto reject_of = [&](int tag) { return log.got.at(tag)[0].reject; };
  for (int tag = 1; tag <= 9; ++tag) EXPECT_EQ(log.calls(tag), 1u) << tag;
  EXPECT_EQ(status_of(1), zs::Response::Status::kOk);
  EXPECT_EQ(status_of(2), zs::Response::Status::kError);
  EXPECT_EQ(reject_of(3), zs::RejectReason::kCancelled);
  EXPECT_EQ(status_of(4), zs::Response::Status::kOk);
  EXPECT_EQ(reject_of(5), zs::RejectReason::kQueueFull);
  EXPECT_EQ(reject_of(6), zs::RejectReason::kDeadlineExpired);
  EXPECT_EQ(reject_of(7), zs::RejectReason::kCancelled);
  EXPECT_EQ(status_of(8), zs::Response::Status::kOk);
  EXPECT_EQ(reject_of(9), zs::RejectReason::kShuttingDown);
}

// (e) The completion runs outside the service's locks: it may query and
// submit from inside itself, on the dispatcher and inside submit().
TEST(ServeCompletion, MayReenterTheService) {
  const auto img = zi::AnyImage(make_slice(32, 17).raw);
  zs::ServiceConfig cfg;
  cfg.fanout_threads = 1;  // completions run on the dispatcher thread
  zs::SegmentService service(cfg);

  std::promise<zs::Response> chained;
  service.submit(zs::Request::slice(img, kPrompt), [&](zs::Response&& first) {
    EXPECT_TRUE(first.ok());
    EXPECT_EQ(service.queue_depth(), 0u);
    service.submit(zs::Request::slice(img, kPrompt), [&](zs::Response&& r) {
      chained.set_value(std::move(r));
    });
  });
  auto second = chained.get_future();
  ASSERT_EQ(second.wait_for(std::chrono::seconds(60)),
            std::future_status::ready);
  EXPECT_TRUE(second.get().ok());

  // Synchronous completion (expired at admission) re-entering submit().
  std::promise<zs::Response> inner;
  service.submit(
      zs::Request::slice(img, kPrompt).with_deadline(zs::Clock::now()),
      [&](zs::Response&& r) {
        EXPECT_EQ(r.reject, zs::RejectReason::kDeadlineExpired);
        EXPECT_EQ(service.queue_depth(), 0u);
        service.submit(zs::Request::slice(img, kPrompt), [&](zs::Response&& r2) {
          inner.set_value(std::move(r2));
        });
      });
  EXPECT_TRUE(inner.get_future().get().ok());
}

// (f) Tenant quota: immediate structured reject, other tenants unaffected,
// slots freed on completion.
TEST(ServeTenants, QuotaExhaustsAndRecovers) {
  zs::ServiceConfig cfg;
  cfg.tenants[7] = {/*weight=*/1, /*max_queued=*/2};
  cfg.start_paused = true;
  zs::SegmentService service(cfg);
  const auto img = zi::AnyImage(make_slice(24, 19).raw);

  auto r1 = service.submit(tenant_slice(img, 7));
  auto r2 = service.submit(tenant_slice(img, 7));
  auto r3 = service.submit(tenant_slice(img, 7));
  ASSERT_EQ(r3.wait_for(std::chrono::seconds(0)), std::future_status::ready);
  const zs::Response shed = r3.get();
  EXPECT_EQ(shed.status, zs::Response::Status::kRejected);
  EXPECT_EQ(shed.reject, zs::RejectReason::kTenantQuota);
  EXPECT_EQ(shed.error.code, zc::ErrorCode::kQueueFull);
  EXPECT_EQ(service.queue_depth(), 2u);
  auto other = service.submit(tenant_slice(img, 8));  // its own quota
  EXPECT_EQ(service.queue_depth(), 3u);

  service.resume();
  EXPECT_TRUE(r1.get().ok());
  EXPECT_TRUE(r2.get().ok());
  EXPECT_TRUE(other.get().ok());
  EXPECT_TRUE(service.submit(tenant_slice(img, 7)).get().ok());  // recovered

  const zs::ServiceStats st = service.stats();
  EXPECT_EQ(st.rejected_tenant_quota, 1u);
  EXPECT_EQ(st.rejected_queue_full, 0u);
  EXPECT_EQ(st.admitted, 4u);
  EXPECT_EQ(st.completed, 4u);
}

// (f) Weighted rotation under saturation: with weights 1:3 every window
// of 4 dispatches is 1x tenant 1 + 3x tenant 2, starting with tenant 1.
TEST(ServeTenants, WeightedFairnessUnderSaturation) {
  std::uint64_t batches = 0;
  const std::vector<std::uint32_t> order =
      weighted_completion_order(/*max_batch=*/1, &batches);
  ASSERT_EQ(order.size(), 16u);
  EXPECT_EQ(batches, 16u);
  int t1 = 0, t2 = 0;
  for (std::size_t i = 0; i < 8; ++i) {
    if (order[i] == 1) ++t1;
    if (order[i] == 2) ++t2;
  }
  EXPECT_EQ(t1, 2);
  EXPECT_EQ(t2, 6);
  EXPECT_EQ(order[0], 1u);  // rotation starts at tenant 1
  // Once tenant 2 runs dry, tenant 1 takes every pick.
  EXPECT_EQ(order, (std::vector<std::uint32_t>{1, 2, 2, 2, 1, 2, 2, 2,
                                               1, 2, 2, 1, 1, 1, 1, 1}));
}

// (f) Micro-batch riders follow the same rotation: the first batch is
// 2x tenant 1 + 6x tenant 2, not the first eight admitted (all tenant 1).
TEST(ServeTenants, BatchRidersFollowTheRotation) {
  std::uint64_t batches = 0;
  const std::vector<std::uint32_t> order =
      weighted_completion_order(/*max_batch=*/8, &batches);
  ASSERT_EQ(order.size(), 16u);
  EXPECT_EQ(batches, 2u);
  int t1 = 0, t2 = 0;
  for (std::size_t i = 0; i < 8; ++i) {
    if (order[i] == 1) ++t1;
    if (order[i] == 2) ++t2;
  }
  EXPECT_EQ(t1, 2);
  EXPECT_EQ(t2, 6);
  EXPECT_EQ(order[0], 1u);  // batch members complete in admission order
}

TEST(ServeHistogram, PercentilesTrackSamples) {
  zenesis::serve::Histogram h;
  EXPECT_EQ(h.percentile(50.0), 0.0);
  for (int i = 1; i <= 1000; ++i) h.record(static_cast<double>(i));
  EXPECT_EQ(h.count(), 1000u);
  EXPECT_EQ(h.max(), 1000.0);
  EXPECT_NEAR(h.mean(), 500.5, 1e-9);
  // Geometric buckets (ratio 1.25) bound relative error to ~25%.
  EXPECT_NEAR(h.percentile(50.0), 500.0, 135.0);
  EXPECT_NEAR(h.percentile(95.0), 950.0, 240.0);
  EXPECT_NEAR(h.percentile(99.0), 990.0, 250.0);
  EXPECT_LE(h.percentile(100.0), 1000.0 + 1e-9);
}
