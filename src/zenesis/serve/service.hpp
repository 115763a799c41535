#pragma once
// zen_serve — asynchronous segmentation service in front of
// ZenesisPipeline (the serving layer the ROADMAP's "heavy traffic" north
// star asks for).
//
// Request lifecycle:
//
//   submit(Request, Completion) ── admission ──▶ bounded priority queue
//        │  (ShuttingDown / already-expired / QueueFull / TenantQuota →
//        │   the completion runs at once with a Rejected response)
//        └─▶ dispatcher ──▶ completion(Response&&), exactly once
//
//   submit(Request) is the same path with a std::future<Response> as the
//   completion. The single dispatcher thread sweeps expired deadlines and
//   cancelled entries (they complete with DeadlineExpired / Cancelled
//   WITHOUT running the pipeline; the sweep also runs while paused, and a
//   full queue purges such entries at admission before rejecting, so
//   cancellation relieves backpressure), then pops ONE request — the
//   highest priority, tenants in weighted rotation, FIFO within a tenant —
//   and starts it in a free dispatch slot, as one task on the fan-out
//   pool, with one slot per pool worker. The task runs readiness, then the
//   pipeline call, then the completion, and frees its slot; the dispatcher
//   keeps sweeping meanwhile. A request waits in one place only, the
//   admission queue; it never waits for an unrelated request to finish,
//   only for a free slot. Once running, it never runs another request
//   either: its parallel loops join by running only their own chunks.
//   The pipeline owns every encoding lookup: a request whose mask is
//   cached completes without an encode, and requests with the same image
//   share one FeatureCache entry — SAM's embed-once/prompt-many
//   amortization applied across requests.
//
// Tenant fairness: every Request names a tenant (in-process callers use
// tenant 0). Each tenant has a TenantPolicy: `max_queued` bounds its
// share of the queue (beyond it, Rejected{TenantQuota}), and `weight` is
// the number of consecutive picks it gets per visit of the rotation, so
// under saturation tenant throughput is proportional to weight. With a
// single tenant the rotation is plain FIFO within a priority level.
//
// Invariants:
//   * Responses are byte-identical to the equivalent blocking
//     ZenesisPipeline call, for every fan-out width (the FeatureCache
//     returns exactly the value a cold computation would).
//   * Backpressure is explicit: a full queue or tenant quota rejects
//     immediately; the service never buffers unboundedly and never blocks
//     the submitting thread.
//   * shutdown() drains everything already admitted and returns only after
//     every running request's completion has run; submissions during/after
//     the drain get Rejected{ShuttingDown}.
//   * A running request holds its slot until its completion returns, so
//     giant volume requests can occupy every slot; use `priority` to let
//     urgent requests take the next free slot first.
//
// Observability: ServiceStats carries admission/rejection counters, the
// queue-depth high-water mark and per-stage latency histograms (queue
// wait, per-request pipeline run, end-to-end); publish_stats() copies the
// block into a Mode-C dashboard next to the feature-cache counters.

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <future>
#include <list>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "zenesis/core/error.hpp"
#include "zenesis/core/pipeline.hpp"
#include "zenesis/eval/dashboard.hpp"
#include "zenesis/parallel/thread_pool.hpp"
#include "zenesis/serve/histogram.hpp"

namespace zenesis::serve {

using Clock = std::chrono::steady_clock;

/// Cooperative cancellation. Share one token across requests to cancel a
/// whole job. Cancellation is observed before the pipeline runs — at
/// dispatch, during the dispatcher's queue sweep, and at admission when a
/// full queue purges cancelled/expired entries before rejecting with
/// QueueFull — so cancelling queued work frees its slot; an
/// already-running request completes normally.
class CancelToken {
 public:
  void cancel() noexcept { cancelled_.store(true, std::memory_order_relaxed); }
  bool cancelled() const noexcept {
    return cancelled_.load(std::memory_order_relaxed);
  }

 private:
  std::atomic<bool> cancelled_{false};
};

enum class RequestKind {
  kSlice,        ///< Mode A: text-prompted single image
  kBox,          ///< Mode A: explicit-box prompt (BoxPromptOptions)
  kMultiObject,  ///< Mode A: one prompt per class → label map
  kVolume,       ///< Mode B: volume with temporal refinement
};

enum class RejectReason {
  kNone,
  kQueueFull,        ///< admission queue at capacity
  kDeadlineExpired,  ///< deadline passed before the pipeline ran
  kShuttingDown,     ///< submitted during/after shutdown
  kCancelled,        ///< CancelToken fired before dispatch
  kTenantQuota,      ///< the request's tenant is at its max_queued quota
};

/// Per-tenant fairness knobs. `weight` is the tenant's number of
/// consecutive dispatch picks per rotation visit; `max_queued` is its
/// quota of queued requests (beyond it, Rejected{TenantQuota}).
struct TenantPolicy {
  std::uint32_t weight = 1;
  std::size_t max_queued = 256;
};

struct Request {
  RequestKind kind = RequestKind::kSlice;
  image::AnyImage image;              ///< kSlice / kBox / kMultiObject input
  image::VolumeU16 volume;            ///< kVolume input (materialized form)
  /// kVolume alternative: path of a TIFF stack streamed slice-by-slice at
  /// dispatch time. A queued request then holds a path, not gigabytes of
  /// pixels, so volume traffic cannot memory-bomb the admission queue.
  std::string volume_path;
  /// Read limits for `volume_path` (the file is always mapped).
  io::TiffReadLimits tiff_limits{};
  std::string prompt;                 ///< kSlice / kVolume text prompt
  std::vector<std::string> prompts;   ///< kMultiObject class prompts
  image::Box box;                     ///< kBox prompt box
  core::BoxPromptOptions box_options; ///< kBox ranking / optional prompt

  /// Higher dispatches first; FIFO within a level and tenant.
  int priority = 0;
  /// Fairness domain: quota and rotation weight come from
  /// ServiceConfig::tenants (or default_tenant).
  std::uint32_t tenant = 0;
  /// Absolute completion deadline; unset = no deadline.
  std::optional<Clock::time_point> deadline;
  std::shared_ptr<CancelToken> cancel;

  // Factories for the four request shapes.
  static Request slice(image::AnyImage img, std::string text);
  static Request boxed(image::AnyImage img, image::Box prompt_box,
                       core::BoxPromptOptions opts = {});
  static Request multi_object(image::AnyImage img,
                              std::vector<std::string> class_prompts);
  static Request volume_batch(image::VolumeU16 vol, std::string text);
  /// Mode B streamed from disk: the TIFF (classic or BigTIFF, tiled or
  /// striped; raw, PackBits, LZW or Deflate, with or without the
  /// horizontal predictor) is opened and decoded slice-by-slice when
  /// the request dispatches. A malformed or oversized file produces a
  /// kError response carrying the io::TiffError message; the service
  /// itself is unaffected. `limits` bounds what the file may make the
  /// reader parse and allocate.
  static Request volume_file(std::string tiff_path, std::string text,
                             io::TiffReadLimits limits = {});

  // Fluent knobs: Request::slice(img, p).with_priority(2).with_deadline_in(5ms)
  Request& with_priority(int p) & { priority = p; return *this; }
  Request&& with_priority(int p) && { priority = p; return std::move(*this); }
  Request& with_deadline(Clock::time_point t) & { deadline = t; return *this; }
  Request&& with_deadline(Clock::time_point t) && {
    deadline = t;
    return std::move(*this);
  }
  Request& with_deadline_in(Clock::duration d) & {
    deadline = Clock::now() + d;
    return *this;
  }
  Request&& with_deadline_in(Clock::duration d) && {
    deadline = Clock::now() + d;
    return std::move(*this);
  }
  Request& with_cancel(std::shared_ptr<CancelToken> token) & {
    cancel = std::move(token);
    return *this;
  }
  Request&& with_cancel(std::shared_ptr<CancelToken> token) && {
    cancel = std::move(token);
    return std::move(*this);
  }
};

struct Response {
  enum class Status {
    kOk,        ///< payload for `kind` is engaged
    kRejected,  ///< see `reject` — the pipeline never ran
    kError,     ///< the pipeline threw — see `error`
  };
  Status status = Status::kOk;
  RejectReason reject = RejectReason::kNone;
  /// Structured failure description (kError and kRejected): code to
  /// branch on, the stage that detected it, the human-readable message.
  /// `error.ok()` on successful responses.
  core::Error error;
  RequestKind kind = RequestKind::kSlice;
  /// The request's obs trace id, allocated at submit. Spans recorded for
  /// this request (queue wait, decode — across the submitter,
  /// dispatcher and fan-out threads) all carry this id, so a slow
  /// response can be looked up in the Chrome trace export directly.
  std::uint64_t trace_id = 0;

  // Exactly one engaged on kOk, matching `kind` (slice for both kSlice
  // and kBox).
  std::optional<core::SliceResult> slice;
  std::optional<core::ZenesisPipeline::MultiObjectResult> multi;
  std::optional<core::VolumeResult> volume;

  // Per-request timings (µs). Zero for responses rejected at submit.
  double queue_us = 0.0;   ///< total_us - decode_us (admission-queue wait)
  /// This request's pipeline run: readiness, the encoding lookup (and the
  /// encode on a miss) and the decode.
  double decode_us = 0.0;
  double total_us = 0.0;   ///< admission → completion

  bool ok() const noexcept { return status == Status::kOk; }
};

struct ServiceConfig {
  core::PipelineConfig pipeline;
  /// Admission bound: submissions beyond this many queued requests are
  /// rejected with Rejected{QueueFull} (explicit backpressure).
  std::size_t queue_capacity = 64;
  /// Where requests run, one dispatch slot per worker: 0 = the
  /// process-global pool, N >= 1 = a dedicated pool of N workers (1 = one
  /// request at a time).
  std::size_t fanout_threads = 0;
  /// Per-tenant overrides; tenants not listed use `default_tenant`.
  std::map<std::uint32_t, TenantPolicy> tenants;
  TenantPolicy default_tenant;

  /// One message per invalid knob (queue/tenant bounds plus everything
  /// PipelineConfig::validate reports); empty = valid.
  std::vector<std::string> validate() const;
};

/// Snapshot of the service's counters; copied out under the stats lock so
/// it is internally consistent.
struct ServiceStats {
  std::uint64_t submitted = 0;
  std::uint64_t admitted = 0;
  std::uint64_t completed = 0;  ///< Ok responses
  std::uint64_t failed = 0;     ///< Error responses (pipeline threw)
  std::uint64_t rejected_queue_full = 0;
  std::uint64_t rejected_tenant_quota = 0;
  std::uint64_t rejected_shutting_down = 0;
  std::uint64_t expired = 0;    ///< DeadlineExpired (at submit or in queue)
  std::uint64_t cancelled = 0;
  std::uint64_t queue_depth_high_water = 0;

  Histogram queue_us;    ///< admission → dispatch, per request
  Histogram decode_us;   ///< pipeline run (Response::decode_us), per request
  Histogram total_us;    ///< admission → completion, per request

  /// Resolved tensor kernel backend the service's math runs on
  /// ("scalar", "blocked", "avx2"). Snapshot of
  /// tensor::backend_name() at stats() time.
  std::string kernel_backend;

  /// Resolved numeric precision of the encoder GEMM path ("fp32",
  /// "int8"). Snapshot of tensor::quant::precision_name() at stats()
  /// time.
  std::string precision;
};

class SegmentService {
 public:
  /// Validates `cfg` (throws std::invalid_argument listing every issue)
  /// and starts the dispatcher.
  explicit SegmentService(const ServiceConfig& cfg = {});
  ~SegmentService();

  SegmentService(const SegmentService&) = delete;
  SegmentService& operator=(const SegmentService&) = delete;

  /// Receives a request's one terminal Response.
  ///
  /// Contract:
  ///   * It runs exactly once per submit().
  ///   * It never runs under the service's locks, so it may call back
  ///     into the service (submit(), queue_depth(), stats()).
  ///   * It may run synchronously inside submit() (admission rejects,
  ///     entries purged to make room) or on the dispatcher or fan-out
  ///     threads.
  ///   * It must not throw.
  using Completion = std::function<void(Response&&)>;

  /// Admits a request. Never blocks: shutdown, an expired deadline, a
  /// full queue or an exhausted tenant quota completes it immediately
  /// with a Rejected response.
  void submit(Request req, Completion done);
  /// submit() with a future as the completion.
  std::future<Response> submit(Request req);

  /// Stops admission, drains every queued request, waits until every
  /// running request's completion has run, then joins the dispatcher.
  /// Idempotent and safe to call concurrently; must not be called from a
  /// completion.
  void shutdown();

  /// Pause/resume dispatch (admission unaffected). While paused the
  /// dispatcher still sweeps: queued requests whose deadline passes or
  /// whose CancelToken fires complete at once with DeadlineExpired /
  /// Cancelled. Requests already running finish normally. pause() right
  /// after construction holds every request for deterministic buildup.
  void pause();
  void resume();

  ServiceStats stats() const;
  std::size_t queue_depth() const;

  /// Writes the stats block into a Mode-C dashboard (serve_* keys).
  void publish_stats(eval::Dashboard& dashboard) const;

  const core::ZenesisPipeline& pipeline() const noexcept { return pipeline_; }
  const ServiceConfig& config() const noexcept { return cfg_; }

 private:
  struct Pending {
    Request req;
    Completion completion;
    Clock::time_point enqueued{};
    bool done = false;  ///< set before completion runs (run's backstop)
    std::uint64_t trace_id = 0;      ///< obs id allocated at submit
    std::int64_t obs_enqueued_ns = 0;  ///< obs clock at admission (0 = off)
  };

  struct Swept {
    Pending pending;
    RejectReason reason;
  };
  /// Admission-ordered; a list so a pick anywhere in it is O(1).
  using Queue = std::list<Pending>;

  void dispatcher_loop();
  /// Removes one entry, keeping tenant_queued_ in step. Caller holds mutex_.
  Pending remove_locked(Queue::iterator it);
  /// Removes every cancelled or expired entry. Caller holds mutex_.
  std::vector<Swept> sweep_locked(Clock::time_point now);
  const TenantPolicy& policy_for(std::uint32_t tenant) const;
  /// Pops the next request: the weighted tenant rotation's pick among the
  /// highest-priority entries, FIFO within a tenant. Caller holds mutex_
  /// and the queue is non-empty.
  Pending pop_locked();
  /// Runs `pending` in its dispatch slot: one fan-out pool task that frees
  /// the slot when done.
  void start(Pending pending);
  /// Dispatch-time cancel check, queue-wait accounting, then run_one.
  /// Backstop: anything escaping run_one completes the request with kError.
  void run(Pending& pending) noexcept;
  /// Runs one request through the pipeline call for its kind and
  /// completes it; pipeline errors become a kError response.
  void run_one(Pending& pending);
  void finish(Pending& pending, Response&& response, double decode_us);
  void finish_rejected(Pending& pending, RejectReason reason);
  parallel::ThreadPool& fanout_pool() const;

  ServiceConfig cfg_;
  core::ZenesisPipeline pipeline_;
  std::unique_ptr<parallel::ThreadPool> pool_;  ///< when fanout_threads > 0

  mutable std::mutex mutex_;  ///< everything down to running_
  std::condition_variable cv_;
  Queue queue_;
  std::map<std::uint32_t, std::size_t> tenant_queued_;  ///< nonzero only
  bool stopping_ = false;
  bool paused_ = false;
  std::uint32_t rr_tenant_ = 0;  ///< tenant the rotation is visiting
  std::uint32_t rr_used_ = 0;    ///< picks it has had this visit
  std::size_t running_ = 0;      ///< pool tasks holding a slot

  mutable std::mutex stats_mutex_;
  ServiceStats stats_;

  std::mutex lifecycle_mutex_;  ///< serializes shutdown/join
  std::thread dispatcher_;
};

}  // namespace zenesis::serve
