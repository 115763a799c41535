#include "zenesis/serve/service.hpp"

#include <algorithm>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <utility>

#include "zenesis/cache/feature_cache.hpp"
#include "zenesis/io/tiff_stream.hpp"
#include "zenesis/obs/trace.hpp"
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
                             io::TiffReadLimits limits) {
  Request r;
  r.kind = RequestKind::kVolume;
  r.volume_path = std::move(tiff_path);
  r.prompt = std::move(text);
  r.tiff_limits = limits;
  return r;
}

std::vector<std::string> ServiceConfig::validate() const {
  std::vector<std::string> issues = pipeline.validate();
  if (queue_capacity < 1) issues.push_back("queue_capacity must be >= 1");
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
      pool_(cfg.fanout_threads > 0
                ? std::make_unique<parallel::ThreadPool>(cfg.fanout_threads)
                : nullptr) {
  dispatcher_ = std::thread([this] { dispatcher_loop(); });
}

SegmentService::~SegmentService() { shutdown(); }

parallel::ThreadPool& SegmentService::fanout_pool() const {
  return pool_ ? *pool_ : parallel::ThreadPool::global();
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
  // span this request produces — here, in the dispatcher, on a fan-out
  // worker — carries it, and the Response echoes it back to the caller.
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
      queue_.push_back(Pending{std::move(req), std::move(done), now, false,
                               trace_id, obs::enabled() ? obs::now_ns() : 0});
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
      // Drained: exit once every running task's completion has run.
      if (stopping_ && running_ == 0) break;
      cv_.wait(lk);
      continue;
    }
    // Shutdown drains even a paused service, but every request needs a
    // free slot.
    if ((paused_ && !stopping_) || running_ == fanout_pool().size()) {
      // Queue is non-empty: wake at the earliest queued deadline, or
      // shortly regardless — cancellation has no wake-up signal, so a
      // bounded wait keeps the sweep responsive while paused or full.
      Clock::time_point wake = now + std::chrono::milliseconds(50);
      for (const auto& p : queue_) {
        if (p.req.deadline && *p.req.deadline < wake) wake = *p.req.deadline;
      }
      cv_.wait_until(lk, wake);
      continue;
    }
    Pending next = pop_locked();
    running_ += 1;
    lk.unlock();
    start(std::move(next));
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

SegmentService::Pending SegmentService::pop_locked() {
  // The highest priority queued.
  int top = queue_.front().req.priority;
  for (const Pending& p : queue_) top = std::max(top, p.req.priority);
  // Each tenant's oldest entry at that priority (queue_ is
  // admission-ordered, and emplace keeps the first).
  std::map<std::uint32_t, Queue::iterator> oldest;
  for (auto it = queue_.begin(); it != queue_.end(); ++it) {
    if (it->req.priority == top) oldest.emplace(it->req.tenant, it);
  }
  // Stay with the visited tenant until it has had `weight` picks or has
  // nothing eligible, then move on in ascending tenant id (wrapping).
  auto it = oldest.find(rr_tenant_);
  if (it == oldest.end() || rr_used_ >= policy_for(rr_tenant_).weight) {
    it = oldest.upper_bound(rr_tenant_);
    if (it == oldest.end()) it = oldest.begin();
    rr_tenant_ = it->first;
    rr_used_ = 0;
  }
  rr_used_ += 1;
  return remove_locked(it->second);
}

void SegmentService::start(Pending pending) {
  // std::function needs a copyable callable, hence the shared_ptr; the
  // task holds the only reference.
  fanout_pool().submit(
      [this, p = std::make_shared<Pending>(std::move(pending))]() mutable {
        run(*p);
        // The request and its completion die first; then the slot is
        // freed and cv_ notified under mutex_, so once shutdown() can see
        // running_ == 0 this task touches nothing of the service.
        p.reset();
        std::lock_guard<std::mutex> lk(mutex_);
        running_ -= 1;
        cv_.notify_all();
      });
}

void SegmentService::run(Pending& pending) noexcept {
  if (pending.req.cancel && pending.req.cancel->cancelled()) {
    finish_rejected(pending, RejectReason::kCancelled);
    return;
  }
  // The queue wait, begun on the submit thread (obs_enqueued_ns), ends
  // here as the request starts running.
  if (obs::enabled()) {
    obs::record_span("serve.queue", pending.trace_id, pending.obs_enqueued_ns,
                     obs::now_ns());
  }
  {
    std::lock_guard<std::mutex> sl(stats_mutex_);
    stats_.queue_us.record(us_between(pending.enqueued, Clock::now()));
  }
  // run_one guards every pipeline call, so nothing should reach this
  // handler; if something does, the request still completes exactly once.
  try {
    run_one(pending);
  } catch (...) {
    if (pending.done) return;
    Response r;
    r.kind = pending.req.kind;
    r.status = Response::Status::kError;
    r.error = core::error_from_current_exception("serve.dispatch");
    finish(pending, std::move(r), 0.0);
  }
}

void SegmentService::run_one(Pending& pending) {
  obs::TraceScope trace(pending.trace_id);
  std::optional<obs::Span> decode_span;
  decode_span.emplace("serve.decode",
                      static_cast<std::uint64_t>(pending.req.kind));
  const Clock::time_point t0 = Clock::now();
  const Request& req = pending.req;
  Response r;
  r.kind = req.kind;
  // Every pipeline call is guarded per request: a malformed input (e.g.
  // an empty image) fails only its own request with kError. The encoding
  // is looked up inside the pipeline, so requests that share an image
  // share its FeatureCache entry.
  const char* stage = "serve.decode";
  const auto ready_image = [&] {
    stage = "serve.readiness";
    image::ImageF32 ready = pipeline_.make_ready(req.image);
    stage = "serve.decode";
    return ready;
  };
  try {
    switch (req.kind) {
      case RequestKind::kSlice:
        r.slice = pipeline_.segment_ready(ready_image(), req.prompt);
        break;
      case RequestKind::kBox:
        r.slice = pipeline_.segment_with_box(ready_image(), req.box,
                                             req.box_options);
        break;
      case RequestKind::kMultiObject:
        r.multi = pipeline_.segment_multi(req.image, req.prompts);
        break;
      case RequestKind::kVolume:
        if (!req.volume_path.empty()) {
          // Streamed ingestion: the pipeline parses once and decodes
          // slices on demand from its workers. TiffError (malformed
          // upload, limits) lands in the catch below as a kError response
          // with its kind mapped to an ErrorCode.
          r.volume = pipeline_.segment_volume(core::VolumeRequest::from_file(
              req.volume_path, req.prompt, req.tiff_limits));
        } else {
          // Borrow the queued stack — `pending` outlives the call, and
          // copying gigabytes into the request would defeat the point of
          // admission holding it only once.
          r.volume = pipeline_.segment_volume(
              core::VolumeRequest::view(req.volume, req.prompt));
        }
        break;
    }
  } catch (...) {
    r.status = Response::Status::kError;
    r.error = core::error_from_current_exception(stage);
  }
  const double decode_us = us_between(t0, Clock::now());
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
  set_u64("serve_queue_high_water", s.queue_depth_high_water);
  const auto set_hist = [&](const std::string& prefix, const Histogram& h) {
    dashboard.set_stat(prefix + "_p50", h.percentile(50.0));
    dashboard.set_stat(prefix + "_p95", h.percentile(95.0));
    dashboard.set_stat(prefix + "_p99", h.percentile(99.0));
  };
  set_hist("serve_queue_us", s.queue_us);
  set_hist("serve_decode_us", s.decode_us);
  set_hist("serve_total_us", s.total_us);
  // Cache effectiveness as seen from the serving layer: how much of the
  // request work the two cache tiers absorbed.
  const cache::FeatureCacheStats fc = pipeline_.cache_stats();
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

}  // namespace zenesis::serve
