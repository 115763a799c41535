#pragma once
// zenesis::net::Server (zen_net) — the poll() event-loop wire front end
// in front of serve::SegmentService. This is the layer that turns the
// ROADMAP's "millions of users" north star into a testable claim: many
// concurrent connections speaking the compact binary protocol in
// frame.hpp, mapped onto serve::Request. Scheduling — tenant quotas,
// weighted fairness, queue bounds — belongs to the service; the server
// only frames bytes.
//
// Threading model: one event-loop thread, poll() over {listen fd, wake
// pipe, every connection}. It reads bytes, runs the incremental
// FrameDecoder, handles protocol frames (hello/ping/cancel) inline, and
// submits request frames straight to the service with a completion.
// Completions run on whichever service thread finishes the request (or
// inside submit() for admission rejects): they encode the terminal
// frame, append it to the connection's outbox under the server lock and
// wake the loop through the self-pipe. Only the event loop reads,
// writes or closes sockets.
//
// Admission ladder for a request frame (first failure wins):
//   1. decoder/frame errors            → Error frame, connection drains
//   2. no Hello                        → Error frame, connection drains
//   3. request id 0 / duplicate id     → Error frame (connection keeps going)
//   4. server stopping                 → Rejected{ShuttingDown}
//   5. service admission: full queue   → Rejected{Overloaded}, tenant
//      quota → Rejected{TenantQuota}; later deadline/cancel outcomes come
//      back as Rejected frames with the service's reason.
//
// Cancel and stop: a Cancel frame or a connection teardown fires the
// request's CancelToken, so the service drops it before dispatch. stop()
// refuses new requests, fires every outstanding token, waits until every
// submitted request has had its completion (those cancelled before
// dispatch go out as Rejected{ShuttingDown}), flushes outboxes and only
// then closes the wake pipe, so no completion can write to a dead fd.
//
// Robustness contract (enforced by tests/net_fuzz_harness.*,
// test_net_faults.cpp and test_net_soak.cpp): any client byte stream
// yields, per request actually decoded, exactly one terminal frame
// (Response / Rejected / Error) — and per connection at most one
// trailing Error frame before close. Never a crash, hang, unbounded
// buffer, or leaked queue slot. Slow-loris partial frames time out;
// disconnects cancel the connection's queued work; a half-closed
// (shutdown(SHUT_WR)) connection still receives every response it is
// owed.
//
// Every request carries an obs trace id (client-proposed or server
// allocated) that flows through the net spans, the service's spans (see
// SegmentService::submit), and back in the terminal frame.

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "zenesis/eval/dashboard.hpp"
#include "zenesis/net/frame.hpp"
#include "zenesis/serve/histogram.hpp"
#include "zenesis/serve/service.hpp"

namespace zenesis::net {

using Clock = std::chrono::steady_clock;

/// Wire-side knobs only: tenant quotas, weights and queue bounds are
/// serve::ServiceConfig's.
struct ServerConfig {
  NetLimits limits;
  /// Connections beyond this are accepted, sent one Error{LimitExceeded}
  /// frame and closed immediately.
  std::size_t max_connections = 4096;
  /// A connection holding an incomplete frame longer than this is a
  /// slow-loris: it gets an Error{Timeout} frame and is closed.
  std::chrono::milliseconds partial_frame_timeout{5000};
  /// Bound on flushing outstanding responses during stop().
  std::chrono::milliseconds drain_timeout{5000};
  /// TIFF read limits applied to every wire VolumeFile request.
  /// Server-side policy: clients name a path, the operator bounds what
  /// opening it may cost.
  io::TiffReadLimits tiff_limits{};

  /// One message per invalid knob; empty = valid.
  std::vector<std::string> validate() const;
};

/// Per-tenant counter block inside NetStats.
struct TenantCounters {
  std::uint64_t received = 0;   ///< request frames handed to the service
  std::uint64_t completed = 0;  ///< terminal frames, sheds excluded
  std::uint64_t shed = 0;       ///< TenantQuota rejections
};

/// Snapshot of the wire-level counters; copied out under the server lock.
struct NetStats {
  std::uint64_t connections_accepted = 0;
  std::uint64_t connections_active = 0;
  std::uint64_t connections_timed_out = 0;  ///< slow-loris closures
  std::uint64_t connections_refused = 0;    ///< over max_connections
  std::uint64_t bytes_in = 0;
  std::uint64_t bytes_out = 0;
  std::uint64_t frames_in = 0;
  std::uint64_t frames_out = 0;
  std::uint64_t requests_received = 0;  ///< handed to the service
  std::uint64_t responses_sent = 0;
  std::uint64_t rejected_sent = 0;
  std::uint64_t errors_sent = 0;
  std::uint64_t cancels_received = 0;
  std::uint64_t shed_tenant_quota = 0;  ///< service TenantQuota rejects
  std::uint64_t shed_overloaded = 0;    ///< service QueueFull rejects
  std::uint64_t protocol_errors = 0;

  /// Frame-complete → terminal-frame-queued, per request (wire-level
  /// latency as the event loop sees it).
  serve::Histogram wire_us;

  std::map<std::uint32_t, TenantCounters> tenants;
};

class Server {
 public:
  /// Starts the event loop immediately. `service` must outlive
  /// this server and must not be shut down before stop() returns.
  Server(serve::SegmentService& service, ServerConfig cfg = {});
  ~Server();

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Binds a loopback TCP listener (port 0 = ephemeral) and returns the
  /// bound port. Throws std::runtime_error when the socket cannot be
  /// created or bound (e.g. sandboxed environments).
  std::uint16_t listen_tcp(std::uint16_t port = 0);

  /// Adopts an established, connected fd (e.g. one end of a socketpair —
  /// the deterministic loopback tests and Client::loopback_pair use
  /// exactly this). The server takes ownership of the fd. Thread-safe.
  void adopt(int fd);

  /// Stops admission (new requests get Rejected{ShuttingDown}), cancels
  /// and waits out every submitted request, flushes outboxes (bounded by
  /// drain_timeout), closes every connection and joins the event loop.
  /// Idempotent.
  void stop();

  NetStats stats() const;
  /// Submitted requests still owed a terminal frame (their completion
  /// has not run yet).
  std::size_t inflight() const;

  /// Writes the wire-level counters into a Mode-C dashboard (net_* keys).
  void publish_stats(eval::Dashboard& dashboard) const;

  const ServerConfig& config() const noexcept { return cfg_; }

 private:
  struct NetRequest;
  struct Conn;

  void evloop_main();

  // Event-loop internals (evloop thread only unless noted).
  void handle_readable(const std::shared_ptr<Conn>& conn);
  void handle_writable(const std::shared_ptr<Conn>& conn);
  void handle_frame(const std::shared_ptr<Conn>& conn, Frame&& frame);
  void handle_request_frame(const std::shared_ptr<Conn>& conn, Frame&& frame);
  void handle_cancel(const std::shared_ptr<Conn>& conn,
                     std::uint64_t request_id);
  /// Queues a protocol-error close: reading stops, already-admitted
  /// requests still complete, then `error` is sent and the socket closed.
  void begin_error_close(const std::shared_ptr<Conn>& conn,
                         WireErrorKind kind, const std::string& message);
  /// Hard teardown (peer gone): fires the connection's cancel tokens and
  /// closes the fd; late completions are dropped.
  void teardown(const std::shared_ptr<Conn>& conn);
  void maybe_finish_close_locked(const std::shared_ptr<Conn>& conn);

  // Shared helpers (any thread; take mu_ internally where noted).
  void append_frame_locked(const std::shared_ptr<Conn>& conn,
                           std::vector<std::uint8_t>&& bytes);
  void wake_evloop();
  /// The service completion for one wire request (any thread).
  void respond(const std::shared_ptr<Conn>& conn,
               const std::shared_ptr<NetRequest>& req, serve::Response&& resp);

  serve::SegmentService& service_;
  ServerConfig cfg_;

  mutable std::mutex mu_;
  std::condition_variable owed_cv_;  ///< signalled when owed_ reaches 0
  std::map<std::uint64_t, std::shared_ptr<Conn>> conns_;  ///< by conn id
  std::size_t owed_ = 0;  ///< submitted, completion not yet run
  NetStats stats_;
  std::vector<int> adopt_queue_;
  std::uint64_t next_conn_id_ = 1;
  bool stopping_ = false;

  int wake_r_ = -1;
  int wake_w_ = -1;
  int listen_fd_ = -1;

  std::mutex lifecycle_mu_;  ///< serializes stop/join
  std::thread evloop_;
};

}  // namespace zenesis::net
