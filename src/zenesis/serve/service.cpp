#include "zenesis/serve/service.hpp"

#include <algorithm>
#include <deque>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <unordered_map>
#include <utility>

#include "zenesis/core/session.hpp"
#include "zenesis/io/tiff_stream.hpp"
#include "zenesis/models/feature_cache.hpp"
#include "zenesis/obs/trace.hpp"
#include "zenesis/parallel/parallel_for.hpp"
#include "zenesis/tensor/kernels.hpp"
#include "zenesis/tensor/quant.hpp"

namespace zenesis::serve {

namespace {

double us_between(Clock::time_point from, Clock::time_point to) {
  return std::chrono::duration<double, std::micro>(to - from).count();
}

core::ErrorCode error_code_for(RejectReason reason) {
  switch (reason) {
    case RejectReason::kQueueFull:
    case RejectReason::kTenantQuota: return core::ErrorCode::kQueueFull;
    case RejectReason::kDeadlineExpired:
      return core::ErrorCode::kDeadlineExpired;
    case RejectReason::kShuttingDown: return core::ErrorCode::kShuttingDown;
    case RejectReason::kCancelled: return core::ErrorCode::kCancelled;
    case RejectReason::kNone: break;
  }
  return core::ErrorCode::kNone;
}

Response rejected_response(RejectReason reason, RequestKind kind) {
  Response r;
  r.status = Response::Status::kRejected;
  r.reject = reason;
  r.kind = kind;
  r.error.code = error_code_for(reason);
  r.error.stage = "serve.admission";
  r.error.message = core::to_string(r.error.code);
  return r;
}

ServiceConfig checked(const ServiceConfig& cfg) {
  const std::vector<std::string> issues = cfg.validate();
  if (!issues.empty()) {
    std::ostringstream msg;
    msg << "invalid ServiceConfig:";
    for (const auto& issue : issues) msg << "\n  - " << issue;
    throw std::invalid_argument(msg.str());
  }
  return cfg;
}

}  // namespace

Request Request::slice(image::AnyImage img, std::string text) {
  Request r;
  r.kind = RequestKind::kSlice;
  r.image = std::move(img);
  r.prompt = std::move(text);
  return r;
}

Request Request::boxed(image::AnyImage img, image::Box prompt_box,
                       core::BoxPromptOptions opts) {
  Request r;
  r.kind = RequestKind::kBox;
  r.image = std::move(img);
  r.box = prompt_box;
  r.box_options = std::move(opts);
  return r;
}

Request Request::multi_object(image::AnyImage img,
                              std::vector<std::string> class_prompts) {
  Request r;
  r.kind = RequestKind::kMultiObject;
  r.image = std::move(img);
  r.prompts = std::move(class_prompts);
  return r;
}

Request Request::volume_batch(image::VolumeU16 vol, std::string text) {
  Request r;
  r.kind = RequestKind::kVolume;
  r.volume = std::move(vol);
  r.prompt = std::move(text);
  return r;
}

Request Request::volume_file(std::string tiff_path, std::string text,
                             io::TiffOpenOptions open) {
  Request r;
  r.kind = RequestKind::kVolume;
  r.volume_path = std::move(tiff_path);
  r.prompt = std::move(text);
  r.tiff_open = open;
  return r;
}

std::vector<std::string> ServiceConfig::validate() const {
  std::vector<std::string> issues = pipeline.validate();
  if (queue_capacity < 1) issues.push_back("queue_capacity must be >= 1");
  if (max_batch < 1) issues.push_back("max_batch must be >= 1");
  const auto check_policy = [&](const TenantPolicy& p, const std::string& who) {
    if (p.weight < 1) issues.push_back(who + ": weight must be >= 1");
    if (p.max_queued < 1) issues.push_back(who + ": max_queued must be >= 1");
  };
  check_policy(default_tenant, "default_tenant");
  for (const auto& [id, policy] : tenants) {
    check_policy(policy, "tenant " + std::to_string(id));
  }
  return issues;
}

SegmentService::SegmentService(const ServiceConfig& cfg)
    : cfg_(checked(cfg)),
      pipeline_(cfg.pipeline),
      pool_(cfg.fanout_threads > 1
                ? std::make_unique<parallel::ThreadPool>(cfg.fanout_threads)
                : nullptr),
      paused_(cfg.start_paused) {
  dispatcher_ = std::thread([this] { dispatcher_loop(); });
}

SegmentService::~SegmentService() {
  shutdown();
  // Deactivate dashboard registrations before members are torn down, so a
  // Session that outlives this service skips (and prunes) the dead source
  // instead of calling into freed memory.
  for (auto& registration : stats_registrations_) registration.reset();
}

parallel::ThreadPool& SegmentService::fanout_pool() const {
  return pool_ ? *pool_ : parallel::ThreadPool::global();
}

void SegmentService::fan_out(std::size_t n,
                             const std::function<void(std::size_t)>& body) {
  if (n == 0) return;
  if (cfg_.fanout_threads == 1 || n == 1) {
    for (std::size_t i = 0; i < n; ++i) body(i);
    return;
  }
  // Grain 1: request cost is irregular; idle workers pull dynamically.
  // body must not throw (every pipeline call below is wrapped).
  parallel::parallel_for_chunked(
      0, static_cast<std::int64_t>(n), 1,
      [&](std::int64_t lo, std::int64_t hi) {
        for (std::int64_t i = lo; i < hi; ++i) {
          body(static_cast<std::size_t>(i));
        }
      },
      fanout_pool());
}

std::future<Response> SegmentService::submit(Request req) {
  auto promise = std::make_shared<std::promise<Response>>();
  std::future<Response> future = promise->get_future();
  submit(std::move(req),
         [promise](Response&& r) { promise->set_value(std::move(r)); });
  return future;
}

void SegmentService::submit(Request req, Completion done) {
  // One trace id per request, allocated on the submitting thread: every
  // span this request produces — here, in the dispatcher, on fan-out
  // workers — carries it, and the Response echoes it back to the caller.
  // A submitter that already carries a trace context (the zen_net server
  // wrapping a wire request) keeps its id, so wire-level spans and the
  // service's spans stitch into one trace.
  std::uint64_t trace_id = obs::current_trace_id();
  if (trace_id == 0) trace_id = obs::new_trace_id();
  obs::TraceScope trace(trace_id);
  obs::Span submit_span("serve.submit");
  const Clock::time_point now = Clock::now();
  RejectReason reject = RejectReason::kNone;
  std::vector<Swept> purged;
  {
    std::lock_guard<std::mutex> lk(mutex_);
    const std::size_t max_queued = policy_for(req.tenant).max_queued;
    const auto tenant_queued = [&] {
      const auto it = tenant_queued_.find(req.tenant);
      return it == tenant_queued_.end() ? std::size_t{0} : it->second;
    };
    if (!stopping_ && (queue_.size() >= cfg_.queue_capacity ||
                       tenant_queued() >= max_queued)) {
      // Admission-time purge: cancelled or already-expired entries give
      // up their slot before we reject, so cancellation relieves
      // backpressure even when the dispatcher is busy or paused.
      purged = sweep_locked(now);
    }
    std::lock_guard<std::mutex> sl(stats_mutex_);
    stats_.submitted += 1;
    if (stopping_) {
      stats_.rejected_shutting_down += 1;
      reject = RejectReason::kShuttingDown;
    } else if (req.deadline && *req.deadline <= now) {
      stats_.expired += 1;
      reject = RejectReason::kDeadlineExpired;
    } else if (queue_.size() >= cfg_.queue_capacity) {
      stats_.rejected_queue_full += 1;
      reject = RejectReason::kQueueFull;
    } else if (tenant_queued() >= max_queued) {
      stats_.rejected_tenant_quota += 1;
      reject = RejectReason::kTenantQuota;
    } else {
      stats_.admitted += 1;
      tenant_queued_[req.tenant] += 1;
      queue_.push_back(Pending{std::move(req), std::move(done), next_seq_++,
                               now, false, trace_id,
                               obs::enabled() ? obs::now_ns() : 0});
      stats_.queue_depth_high_water =
          std::max<std::uint64_t>(stats_.queue_depth_high_water, queue_.size());
    }
  }
  for (Swept& s : purged) finish_rejected(s.pending, s.reason);
  if (reject == RejectReason::kNone) {
    cv_.notify_all();
    return;
  }
  Response r = rejected_response(reject, req.kind);
  r.trace_id = trace_id;
  done(std::move(r));
}

void SegmentService::pause() {
  {
    std::lock_guard<std::mutex> lk(mutex_);
    paused_ = true;
  }
  cv_.notify_all();
}

void SegmentService::resume() {
  {
    std::lock_guard<std::mutex> lk(mutex_);
    paused_ = false;
  }
  cv_.notify_all();
}

void SegmentService::shutdown() {
  {
    std::lock_guard<std::mutex> lk(mutex_);
    stopping_ = true;
  }
  cv_.notify_all();
  std::lock_guard<std::mutex> lg(lifecycle_mutex_);
  if (dispatcher_.joinable()) dispatcher_.join();
}

void SegmentService::dispatcher_loop() {
  std::unique_lock<std::mutex> lk(mutex_);
  for (;;) {
    // Sweep first — and on every iteration, even while paused: cancelled
    // entries free their queue slot immediately and expired deadlines
    // complete with DeadlineExpired without waiting for resume(); neither
    // ever reaches the pipeline.
    const Clock::time_point now = Clock::now();
    std::vector<Swept> swept = sweep_locked(now);
    if (!swept.empty()) {
      lk.unlock();
      for (Swept& s : swept) finish_rejected(s.pending, s.reason);
      lk.lock();
      continue;  // re-evaluate state after re-locking
    }
    if (queue_.empty()) {
      if (stopping_) break;
      cv_.wait(lk);
      continue;
    }
    if (paused_ && !stopping_) {  // shutdown drains even a paused service
      // Queue is non-empty: wake at the earliest queued deadline, or
      // shortly regardless — cancellation has no wake-up signal, so a
      // bounded wait keeps the sweep responsive while paused.
      Clock::time_point wake = now + std::chrono::milliseconds(50);
      for (const auto& p : queue_) {
        if (p.req.deadline && *p.req.deadline < wake) wake = *p.req.deadline;
      }
      cv_.wait_until(lk, wake);
      continue;
    }
    std::vector<Pending> batch = pop_batch_locked();
    lk.unlock();
    if (!batch.empty()) run_batch(std::move(batch));
    lk.lock();
  }
}

SegmentService::Pending SegmentService::remove_locked(Queue::iterator it) {
  Pending p = std::move(*it);
  queue_.erase(it);
  const auto count = tenant_queued_.find(p.req.tenant);
  if (--count->second == 0) tenant_queued_.erase(count);
  return p;
}

std::vector<SegmentService::Swept> SegmentService::sweep_locked(
    Clock::time_point now) {
  std::vector<Swept> swept;
  for (auto it = queue_.begin(); it != queue_.end();) {
    const auto cur = it++;
    const Request& r = cur->req;
    const bool cancelled = r.cancel && r.cancel->cancelled();
    if (cancelled || (r.deadline && *r.deadline <= now)) {
      swept.push_back({remove_locked(cur),
                       cancelled ? RejectReason::kCancelled
                                 : RejectReason::kDeadlineExpired});
    }
  }
  return swept;
}

const TenantPolicy& SegmentService::policy_for(std::uint32_t tenant) const {
  const auto it = cfg_.tenants.find(tenant);
  return it != cfg_.tenants.end() ? it->second : cfg_.default_tenant;
}

std::vector<SegmentService::Queue::iterator> SegmentService::rotate_locked(
    const std::function<bool(const Pending&)>& eligible, std::size_t n) {
  // Eligible entries per tenant, oldest first (queue_ is admission-ordered).
  std::map<std::uint32_t, std::deque<Queue::iterator>> lists;
  for (auto it = queue_.begin(); it != queue_.end(); ++it) {
    if (eligible(*it)) lists[it->req.tenant].push_back(it);
  }
  std::vector<Queue::iterator> picked;
  while (picked.size() < n && !lists.empty()) {
    // Stay with the visited tenant until it has had `weight` picks or has
    // nothing eligible, then move on in ascending tenant id (wrapping).
    auto it = lists.find(rr_tenant_);
    if (it == lists.end() || rr_used_ >= policy_for(rr_tenant_).weight) {
      it = lists.upper_bound(rr_tenant_);
      if (it == lists.end()) it = lists.begin();
      rr_tenant_ = it->first;
      rr_used_ = 0;
    }
    rr_used_ += 1;
    picked.push_back(it->second.front());
    it->second.pop_front();
    if (it->second.empty()) lists.erase(it);
  }
  return picked;
}

std::vector<SegmentService::Pending> SegmentService::pop_batch_locked() {
  std::vector<Pending> batch;
  if (queue_.empty()) return batch;
  // Pivot: the rotation's pick among the highest-priority entries.
  int top = queue_.front().req.priority;
  for (const Pending& p : queue_) top = std::max(top, p.req.priority);
  std::vector<Queue::iterator> take = rotate_locked(
      [&](const Pending& p) { return p.req.priority == top; }, 1);
  const Pending& lead = *take.front();
  if (lead.req.kind == RequestKind::kSlice && cfg_.max_batch > 1) {
    // Riders: same-prompt slice requests of any priority, picked by the
    // same rotation.
    const auto riders = rotate_locked(
        [&](const Pending& p) {
          return &p != &lead && p.req.kind == RequestKind::kSlice &&
                 p.req.prompt == lead.req.prompt;
        },
        cfg_.max_batch - 1);
    take.insert(take.end(), riders.begin(), riders.end());
  }
  // Admission order inside the batch.
  std::sort(take.begin(), take.end(),
            [](const auto& a, const auto& b) { return a->seq < b->seq; });
  batch.reserve(take.size());
  for (const auto it : take) batch.push_back(remove_locked(it));
  return batch;
}

void SegmentService::run_batch(std::vector<Pending> batch) {
  const Clock::time_point dispatched = Clock::now();
  std::vector<Pending> live;
  live.reserve(batch.size());
  for (auto& p : batch) {
    if (p.req.cancel && p.req.cancel->cancelled()) {
      finish_rejected(p, RejectReason::kCancelled);
    } else {
      live.push_back(std::move(p));
    }
  }
  if (live.empty()) return;  // all cancelled: no batch was dispatched
  if (obs::enabled()) {
    // Each request's queue wait, stitched to its trace id: begun on the
    // submit thread (obs_enqueued_ns), closed here at dispatch.
    const std::int64_t now_ns = obs::now_ns();
    for (const auto& p : live) {
      obs::record_span("serve.queue", p.trace_id, p.obs_enqueued_ns, now_ns);
    }
  }
  obs::Span batch_span("serve.batch", live.size());
  {
    // Batch stats cover only the live subset — cancelled requests never
    // ran, so counting them would skew the serve_* histograms.
    std::lock_guard<std::mutex> sl(stats_mutex_);
    stats_.batches += 1;
    stats_.batch_size.record(static_cast<double>(live.size()));
    for (const auto& p : live) {
      stats_.queue_us.record(us_between(p.enqueued, dispatched));
    }
  }
  // Backstop: the stages below wrap every pipeline call per request, so
  // nothing should reach these handlers — but an exception escaping here
  // would leave requests uncompleted and std::terminate the process, so fail
  // the remainder of the batch instead.
  try {
    if (live.front().req.kind == RequestKind::kSlice) {
      run_slice_batch(live);
    } else {
      run_single(live.front());  // non-slice kinds dispatch as singletons
    }
  } catch (...) {
    fail_unfinished(live,
                    core::error_from_current_exception("serve.dispatch"));
  }
}

void SegmentService::fail_unfinished(std::vector<Pending>& batch,
                                     const core::Error& error) {
  for (auto& p : batch) {
    if (p.done) continue;
    Response r;
    r.kind = p.req.kind;
    r.status = Response::Status::kError;
    r.error = error;
    finish(p, std::move(r), 0.0);
  }
}

void SegmentService::run_slice_batch(std::vector<Pending>& batch) {
  const std::size_t n = batch.size();
  const std::string prompt = batch.front().req.prompt;

  // Stage 1 — shared backbone encode. Readiness runs per request, then
  // each *unique* image (by content hash) is encoded exactly once, warming
  // the FeatureCache so every stage-2 decode hits. Every pipeline call is
  // guarded per request: a malformed input (e.g. an empty image) fails
  // only its own request with kError instead of throwing through the
  // fan-out into the dispatcher thread.
  const Clock::time_point t_encode = Clock::now();
  std::vector<image::ImageF32> ready(n);
  std::vector<std::optional<core::Error>> prep_error(n);
  {
    obs::Span encode_span("serve.encode", n);
    fan_out(n, [&](std::size_t i) {
      obs::TraceScope trace(batch[i].trace_id);
      try {
        ready[i] = pipeline_.make_ready(batch[i].req.image);
      } catch (...) {
        prep_error[i] = core::error_from_current_exception("serve.readiness");
      }
    });
    std::unordered_map<std::uint64_t, std::size_t> seen;
    std::vector<std::size_t> unique_idx;
    for (std::size_t i = 0; i < n; ++i) {
      if (prep_error[i]) continue;
      if (seen.emplace(models::hash_image(ready[i]), i).second) {
        unique_idx.push_back(i);
      }
    }
    fan_out(unique_idx.size(), [&](std::size_t j) {
      try {
        pipeline_.encode_cached(ready[unique_idx[j]]);
      } catch (...) {
        // Warm-up is best-effort: stage 2's segment_ready re-runs the
        // encode and reports the error on the owning request.
      }
    });
  }
  {
    std::lock_guard<std::mutex> sl(stats_mutex_);
    stats_.encode_us.record(us_between(t_encode, Clock::now()));
  }

  // Stage 2 — per-request decode, cache-hot.
  fan_out(n, [&](std::size_t i) {
    obs::TraceScope trace(batch[i].trace_id);
    std::optional<obs::Span> decode_span;
    decode_span.emplace("serve.decode", i);
    const Clock::time_point t0 = Clock::now();
    Response r;
    r.kind = RequestKind::kSlice;
    if (prep_error[i]) {
      r.status = Response::Status::kError;
      r.error = *prep_error[i];
    } else {
      try {
        r.slice = pipeline_.segment_ready(ready[i], prompt);
      } catch (...) {
        r.status = Response::Status::kError;
        r.error = core::error_from_current_exception("serve.decode");
      }
    }
    const double decode_us = us_between(t0, Clock::now());
    decode_span.reset();  // the completion below is the caller's time
    finish(batch[i], std::move(r), decode_us);
  });
}

void SegmentService::run_single(Pending& pending) {
  obs::TraceScope trace(pending.trace_id);
  std::optional<obs::Span> decode_span;
  decode_span.emplace("serve.decode",
                      static_cast<std::uint64_t>(pending.req.kind));
  const Clock::time_point t0 = Clock::now();
  Response r;
  r.kind = pending.req.kind;
  double encode_us = 0.0;
  Clock::time_point t_decode = t0;
  try {
    switch (pending.req.kind) {
      case RequestKind::kBox: {
        const image::ImageF32 ready = pipeline_.make_ready(pending.req.image);
        pipeline_.encode_cached(ready);  // warm: decode below hits
        encode_us = us_between(t0, Clock::now());
        t_decode = Clock::now();
        r.slice = pipeline_.segment_with_box(ready, pending.req.box,
                                             pending.req.box_options);
        break;
      }
      case RequestKind::kMultiObject:
        r.multi = pipeline_.segment_multi(pending.req.image, pending.req.prompts);
        break;
      case RequestKind::kVolume:
        if (!pending.req.volume_path.empty()) {
          // Streamed ingestion: the pipeline parses once and decodes
          // slices on demand from its workers. TiffError (malformed
          // upload, limits) lands in the catch below as a kError response
          // with its kind mapped to an ErrorCode.
          r.volume = pipeline_.segment_volume(core::VolumeRequest::from_file(
              pending.req.volume_path, pending.req.prompt,
              pending.req.tiff_open));
        } else {
          // Borrow the queued stack — `pending` outlives the call, and
          // copying gigabytes into the request would defeat the point of
          // admission holding it only once.
          r.volume = pipeline_.segment_volume(core::VolumeRequest::view(
              pending.req.volume, pending.req.prompt));
        }
        break;
      case RequestKind::kSlice:
        r.slice = pipeline_.segment(pending.req.image, pending.req.prompt);
        break;
    }
  } catch (...) {
    r.status = Response::Status::kError;
    r.error = core::error_from_current_exception("serve.decode");
  }
  if (encode_us > 0.0) {
    std::lock_guard<std::mutex> sl(stats_mutex_);
    stats_.encode_us.record(encode_us);
  }
  const double decode_us = us_between(t_decode, Clock::now());
  decode_span.reset();  // the completion below is the caller's time
  finish(pending, std::move(r), decode_us);
}

void SegmentService::finish(Pending& pending, Response&& response,
                            double decode_us) {
  const Clock::time_point done = Clock::now();
  response.trace_id = pending.trace_id;
  response.decode_us = decode_us;
  response.total_us = us_between(pending.enqueued, done);
  response.queue_us = response.total_us - decode_us;
  {
    std::lock_guard<std::mutex> sl(stats_mutex_);
    if (response.status == Response::Status::kOk) {
      stats_.completed += 1;
    } else {
      stats_.failed += 1;
    }
    stats_.decode_us.record(decode_us);
    stats_.total_us.record(response.total_us);
  }
  pending.done = true;
  pending.completion(std::move(response));
}

void SegmentService::finish_rejected(Pending& pending, RejectReason reason) {
  Response r = rejected_response(reason, pending.req.kind);
  // Rejected after admission: the error surfaced from the queue, not the
  // admission check.
  r.error.stage = "serve.queue";
  r.trace_id = pending.trace_id;
  r.total_us = us_between(pending.enqueued, Clock::now());
  r.queue_us = r.total_us;
  {
    std::lock_guard<std::mutex> sl(stats_mutex_);
    if (reason == RejectReason::kDeadlineExpired) {
      stats_.expired += 1;
    } else if (reason == RejectReason::kCancelled) {
      stats_.cancelled += 1;
    }
  }
  pending.done = true;
  pending.completion(std::move(r));
}

ServiceStats SegmentService::stats() const {
  std::lock_guard<std::mutex> sl(stats_mutex_);
  ServiceStats s = stats_;
  s.kernel_backend = tensor::backend_name();
  s.precision = tensor::quant::precision_name();
  return s;
}

std::size_t SegmentService::queue_depth() const {
  std::lock_guard<std::mutex> lk(mutex_);
  return queue_.size();
}

void SegmentService::publish_stats(eval::Dashboard& dashboard) const {
  const ServiceStats s = stats();
  const auto set_u64 = [&](const char* key, std::uint64_t v) {
    dashboard.set_stat(key, static_cast<double>(v));
  };
  set_u64("serve_submitted", s.submitted);
  set_u64("serve_admitted", s.admitted);
  set_u64("serve_completed", s.completed);
  set_u64("serve_failed", s.failed);
  set_u64("serve_rejected_queue_full", s.rejected_queue_full);
  set_u64("serve_rejected_tenant_quota", s.rejected_tenant_quota);
  set_u64("serve_rejected_shutting_down", s.rejected_shutting_down);
  set_u64("serve_expired", s.expired);
  set_u64("serve_cancelled", s.cancelled);
  set_u64("serve_batches", s.batches);
  set_u64("serve_queue_high_water", s.queue_depth_high_water);
  dashboard.set_stat("serve_batch_size_mean", s.batch_size.mean());
  dashboard.set_stat("serve_batch_size_max", s.batch_size.max());
  const auto set_hist = [&](const std::string& prefix, const Histogram& h) {
    dashboard.set_stat(prefix + "_p50", h.percentile(50.0));
    dashboard.set_stat(prefix + "_p95", h.percentile(95.0));
    dashboard.set_stat(prefix + "_p99", h.percentile(99.0));
  };
  set_hist("serve_queue_us", s.queue_us);
  set_hist("serve_encode_us", s.encode_us);
  set_hist("serve_decode_us", s.decode_us);
  set_hist("serve_total_us", s.total_us);
  // Cache effectiveness as seen from the serving layer: how much of the
  // batch work the two cache tiers absorbed.
  const models::FeatureCacheStats fc = pipeline_.cache_stats();
  dashboard.set_stat("serve_feature_cache_hit_rate", fc.hit_rate());
  set_u64("serve_feature_cache_disk_hits", fc.disk_hits);
  const cache::LruCacheStats mc = pipeline_.mask_cache_stats();
  dashboard.set_stat("serve_mask_cache_hit_rate", mc.hit_rate());
  set_u64("serve_mask_cache_hits", mc.hits);
  // The dashboard is numeric-only, so the resolved kernel backend is
  // published as a one-hot key: serve_kernel_backend_<name> = 1.
  dashboard.set_stat("serve_kernel_backend_" + s.kernel_backend, 1.0);
  dashboard.set_stat("serve_precision_" + s.precision, 1.0);
}

void SegmentService::attach_to(core::Session& session) {
  // Scoped: the registration dies with this service, so a session that
  // outlives it skips the source instead of hitting freed memory.
  stats_registrations_.push_back(session.add_scoped_stats_source(
      [this](eval::Dashboard& dashboard) { publish_stats(dashboard); }));
}

}  // namespace zenesis::serve
