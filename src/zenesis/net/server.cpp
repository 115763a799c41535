#include "zenesis/net/server.hpp"

#include <fcntl.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <cstring>
#include <sstream>
#include <stdexcept>
#include <utility>

#include "zenesis/obs/trace.hpp"

namespace zenesis::net {

namespace {

double us_between(Clock::time_point from, Clock::time_point to) {
  return std::chrono::duration<double, std::micro>(to - from).count();
}

/// Reads per connection per poll round — poll() is level-triggered, so a
/// fire-hose sender resumes next round instead of starving its peers.
constexpr int kMaxReadsPerRound = 4;

core::ErrorCode error_code_for(WireErrorKind kind) {
  switch (kind) {
    case WireErrorKind::kOversized: return core::ErrorCode::kLimitExceeded;
    case WireErrorKind::kTimeout:
    case WireErrorKind::kTruncated: return core::ErrorCode::kIo;
    default: return core::ErrorCode::kInvalidArgument;
  }
}

WireReject wire_reject_for(serve::RejectReason reason) {
  switch (reason) {
    case serve::RejectReason::kQueueFull: return WireReject::kOverloaded;
    case serve::RejectReason::kTenantQuota: return WireReject::kTenantQuota;
    case serve::RejectReason::kDeadlineExpired:
      return WireReject::kDeadlineExpired;
    case serve::RejectReason::kShuttingDown: return WireReject::kShuttingDown;
    case serve::RejectReason::kCancelled: return WireReject::kCancelled;
    case serve::RejectReason::kNone: break;
  }
  return WireReject::kNone;
}

void set_nonblocking(int fd) {
  const int flags = ::fcntl(fd, F_GETFL, 0);
  if (flags >= 0) ::fcntl(fd, F_SETFL, flags | O_NONBLOCK);
}

ServerConfig checked(ServerConfig cfg) {
  const std::vector<std::string> issues = cfg.validate();
  if (!issues.empty()) {
    std::ostringstream msg;
    msg << "invalid ServerConfig:";
    for (const auto& issue : issues) msg << "\n  - " << issue;
    throw std::invalid_argument(msg.str());
  }
  return cfg;
}

}  // namespace

std::vector<std::string> ServerConfig::validate() const {
  std::vector<std::string> issues;
  if (max_connections < 1) issues.push_back("max_connections must be >= 1");
  if (partial_frame_timeout.count() <= 0) {
    issues.push_back("partial_frame_timeout must be positive");
  }
  if (drain_timeout.count() < 0) {
    issues.push_back("drain_timeout must be non-negative");
  }
  if (limits.max_frame_bytes < kHeaderBytes) {
    issues.push_back("limits.max_frame_bytes too small to frame anything");
  }
  return issues;
}

// --- internal structures -------------------------------------------------

struct Server::NetRequest {
  std::uint64_t request_id = 0;
  std::uint32_t tenant = 0;
  std::uint64_t trace_id = 0;
  Clock::time_point received{};
  std::int64_t obs_received_ns = 0;
  std::atomic<bool> cancelled{false};  ///< by a client Cancel frame
  std::shared_ptr<serve::CancelToken> token;
};

struct Server::Conn {
  std::uint64_t id = 0;
  int fd = -1;

  // Event-loop-thread-only parsing state.
  FrameDecoder decoder{NetLimits{}};
  bool has_partial = false;
  Clock::time_point partial_since{};

  // Guarded by Server::mu_.
  bool hello_done = false;
  std::uint32_t tenant = 0;
  std::deque<std::vector<std::uint8_t>> outbox;
  std::size_t out_off = 0;
  std::size_t outbox_bytes = 0;
  bool closed = false;            ///< fd closed; drop anything aimed here
  bool read_closed = false;       ///< stop consuming input
  bool close_after_flush = false; ///< close once outbox drains
  bool overflowed = false;        ///< outbox cap hit; evloop tears down
  std::vector<std::uint8_t> trailing_error;  ///< sent after pending drains
  std::map<std::uint64_t, std::shared_ptr<NetRequest>> pending;
};

// --- construction / lifecycle -------------------------------------------

Server::Server(serve::SegmentService& service, ServerConfig cfg)
    : service_(service), cfg_(checked(std::move(cfg))) {
  int pipe_fds[2];
  if (::pipe(pipe_fds) != 0) {
    throw std::runtime_error("net::Server: cannot create wake pipe");
  }
  wake_r_ = pipe_fds[0];
  wake_w_ = pipe_fds[1];
  set_nonblocking(wake_r_);
  set_nonblocking(wake_w_);
  evloop_ = std::thread([this] { evloop_main(); });
}

Server::~Server() { stop(); }

void Server::stop() {
  std::lock_guard<std::mutex> lifecycle(lifecycle_mu_);
  {
    // Refuse new requests, cancel everything still queued in the service
    // (torn-down connections fired their tokens already), and wait for
    // every completion: after this no service thread touches the server.
    std::unique_lock<std::mutex> lk(mu_);
    stopping_ = true;
    for (const auto& [id, conn] : conns_) {
      for (const auto& [rid, nr] : conn->pending) nr->token->cancel();
    }
    owed_cv_.wait(lk, [&] { return owed_ == 0; });
  }
  wake_evloop();
  if (evloop_.joinable()) evloop_.join();
  if (wake_r_ >= 0) { ::close(wake_r_); wake_r_ = -1; }
  if (wake_w_ >= 0) { ::close(wake_w_); wake_w_ = -1; }
  if (listen_fd_ >= 0) { ::close(listen_fd_); listen_fd_ = -1; }
}

std::uint16_t Server::listen_tcp(std::uint16_t port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) throw std::runtime_error("net::Server: socket() failed");
  const int one = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  if (::bind(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) != 0 ||
      ::listen(fd, 512) != 0) {
    ::close(fd);
    throw std::runtime_error("net::Server: cannot bind/listen on loopback");
  }
  socklen_t len = sizeof(addr);
  ::getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &len);
  set_nonblocking(fd);
  {
    std::lock_guard<std::mutex> lk(mu_);
    if (listen_fd_ >= 0) {
      ::close(fd);
      throw std::runtime_error("net::Server: already listening");
    }
    listen_fd_ = fd;
  }
  wake_evloop();
  return ntohs(addr.sin_port);
}

void Server::adopt(int fd) {
  {
    std::lock_guard<std::mutex> lk(mu_);
    adopt_queue_.push_back(fd);
  }
  wake_evloop();
}

void Server::wake_evloop() {
  const char byte = 1;
  // Nonblocking: EAGAIN means a wake is already pending — that's enough.
  [[maybe_unused]] const ssize_t n = ::write(wake_w_, &byte, 1);
}

// --- stats ---------------------------------------------------------------

NetStats Server::stats() const {
  std::lock_guard<std::mutex> lk(mu_);
  return stats_;
}

std::size_t Server::inflight() const {
  std::lock_guard<std::mutex> lk(mu_);
  return owed_;
}

void Server::publish_stats(eval::Dashboard& dashboard) const {
  NetStats s;
  std::size_t owed = 0;
  {
    std::lock_guard<std::mutex> lk(mu_);
    s = stats_;
    owed = owed_;
  }
  const auto set_u64 = [&](const char* key, std::uint64_t v) {
    dashboard.set_stat(key, static_cast<double>(v));
  };
  set_u64("net_connections_accepted", s.connections_accepted);
  set_u64("net_connections_active", s.connections_active);
  set_u64("net_connections_timed_out", s.connections_timed_out);
  set_u64("net_connections_refused", s.connections_refused);
  set_u64("net_bytes_in", s.bytes_in);
  set_u64("net_bytes_out", s.bytes_out);
  set_u64("net_frames_in", s.frames_in);
  set_u64("net_frames_out", s.frames_out);
  set_u64("net_requests_received", s.requests_received);
  set_u64("net_responses_sent", s.responses_sent);
  set_u64("net_rejected_sent", s.rejected_sent);
  set_u64("net_errors_sent", s.errors_sent);
  set_u64("net_cancels_received", s.cancels_received);
  set_u64("net_shed_tenant_quota", s.shed_tenant_quota);
  set_u64("net_shed_overloaded", s.shed_overloaded);
  set_u64("net_protocol_errors", s.protocol_errors);
  set_u64("net_inflight", owed);
  set_u64("net_tenants_seen", s.tenants.size());
  dashboard.set_stat("net_wire_us_p50", s.wire_us.percentile(50.0));
  dashboard.set_stat("net_wire_us_p95", s.wire_us.percentile(95.0));
  dashboard.set_stat("net_wire_us_p99", s.wire_us.percentile(99.0));
}

// --- shared helpers ------------------------------------------------------

void Server::append_frame_locked(const std::shared_ptr<Conn>& conn,
                                 std::vector<std::uint8_t>&& bytes) {
  if (conn->closed) return;
  stats_.frames_out += 1;
  stats_.bytes_out += bytes.size();
  conn->outbox_bytes += bytes.size();
  conn->outbox.push_back(std::move(bytes));
  // A peer that sends forever without reading its responses would grow
  // the outbox unboundedly; cap it and let the event loop tear down.
  const std::size_t cap =
      static_cast<std::size_t>(cfg_.limits.max_frame_bytes) + (8u << 20);
  if (conn->outbox_bytes > cap && !conn->overflowed) {
    conn->overflowed = true;
    stats_.protocol_errors += 1;
  }
}

void Server::maybe_finish_close_locked(const std::shared_ptr<Conn>& conn) {
  if (conn->closed || !conn->pending.empty()) return;
  if (!conn->trailing_error.empty()) {
    stats_.errors_sent += 1;
    append_frame_locked(conn, std::move(conn->trailing_error));
    conn->trailing_error.clear();
    conn->close_after_flush = true;
  }
  if (conn->read_closed) conn->close_after_flush = true;
}

// --- event loop ----------------------------------------------------------

void Server::evloop_main() {
  const auto do_register = [&](int fd) {
    set_nonblocking(fd);
    std::lock_guard<std::mutex> lk(mu_);
    if (conns_.size() >= cfg_.max_connections || stopping_) {
      // Connection-level shedding: tell the peer (best effort) and close.
      const auto frame = encode_error(
          0, 0,
          core::Error{core::ErrorCode::kLimitExceeded, "net.accept",
                      stopping_ ? "server shutting down"
                                : "connection limit reached"});
      [[maybe_unused]] const ssize_t n =
          ::send(fd, frame.data(), frame.size(), MSG_NOSIGNAL);
      ::close(fd);
      stats_.connections_refused += 1;
      return;
    }
    auto conn = std::make_shared<Conn>();
    conn->id = next_conn_id_++;
    conn->fd = fd;
    conn->decoder = FrameDecoder(cfg_.limits);
    conns_.emplace(conn->id, conn);
    stats_.connections_accepted += 1;
    stats_.connections_active += 1;
  };

  const auto close_now = [&](const std::shared_ptr<Conn>& conn) {
    // The one place fds die: evloop thread, under mu_.
    std::lock_guard<std::mutex> lk(mu_);
    if (conn->closed) return;
    conn->closed = true;
    conn->outbox.clear();
    conn->outbox_bytes = 0;
    conns_.erase(conn->id);
    ::close(conn->fd);
    if (stats_.connections_active > 0) stats_.connections_active -= 1;
  };

  std::vector<pollfd> pfds;
  std::vector<std::shared_ptr<Conn>> polled;
  bool draining = false;
  Clock::time_point drain_deadline{};

  for (;;) {
    // Phase 1 (locked): adopt new fds, snapshot poll interest, sweep
    // connections that owe nothing more.
    pfds.clear();
    polled.clear();
    bool stopping = false, settled = false;
    int listen_fd = -1;
    Clock::time_point now = Clock::now();
    Clock::time_point next_deadline = now + std::chrono::milliseconds(100);
    {
      std::unique_lock<std::mutex> lk(mu_);
      stopping = stopping_;
      settled = owed_ == 0;
      listen_fd = listen_fd_;
      std::vector<int> adopts;
      adopts.swap(adopt_queue_);
      lk.unlock();
      for (const int fd : adopts) do_register(fd);
      lk.lock();

      // Close sweep + teardown of overflowed connections.
      std::vector<std::shared_ptr<Conn>> to_close, to_teardown;
      for (const auto& [id, conn] : conns_) {
        if (conn->overflowed) {
          to_teardown.push_back(conn);
        } else if (conn->close_after_flush && conn->outbox.empty()) {
          to_close.push_back(conn);
        }
      }
      lk.unlock();
      for (const auto& c : to_teardown) teardown(c);
      for (const auto& c : to_close) close_now(c);
      lk.lock();

      pfds.push_back({wake_r_, POLLIN, 0});
      polled.push_back(nullptr);
      if (listen_fd >= 0 && !stopping) {
        pfds.push_back({listen_fd, POLLIN, 0});
        polled.push_back(nullptr);
      }
      for (const auto& [id, conn] : conns_) {
        short events = 0;
        if (!conn->read_closed && !stopping) events |= POLLIN;
        if (!conn->outbox.empty()) events |= POLLOUT;
        if (events == 0) continue;
        pfds.push_back({conn->fd, events, 0});
        polled.push_back(conn);
      }
    }

    // Slow-loris deadlines (evloop-private state, no lock needed).
    for (const auto& conn : polled) {
      if (conn && conn->has_partial) {
        const auto deadline = conn->partial_since + cfg_.partial_frame_timeout;
        next_deadline = std::min(next_deadline, deadline);
      }
    }

    if (stopping && settled) {
      if (!draining) {
        draining = true;
        drain_deadline = now + cfg_.drain_timeout;
      }
      bool all_flushed = true;
      {
        std::lock_guard<std::mutex> lk(mu_);
        for (const auto& [id, conn] : conns_) {
          if (!conn->outbox.empty()) all_flushed = false;
        }
      }
      if (all_flushed || now >= drain_deadline) {
        std::vector<std::shared_ptr<Conn>> rest;
        {
          std::lock_guard<std::mutex> lk(mu_);
          for (const auto& [id, conn] : conns_) rest.push_back(conn);
        }
        for (const auto& c : rest) close_now(c);
        return;
      }
      next_deadline = std::min(next_deadline,
                               now + std::chrono::milliseconds(10));
    }

    int timeout_ms = static_cast<int>(
        std::chrono::duration_cast<std::chrono::milliseconds>(next_deadline -
                                                              now)
            .count());
    timeout_ms = std::max(1, std::min(timeout_ms, 100));
    const int rc = ::poll(pfds.data(), pfds.size(), timeout_ms);
    if (rc < 0 && errno != EINTR) {
      // poll on our own fds should never fail; bail out defensively.
      return;
    }

    now = Clock::now();
    for (std::size_t i = 0; i < pfds.size(); ++i) {
      const short re = pfds[i].revents;
      if (re == 0) continue;
      if (pfds[i].fd == wake_r_) {
        char drain[256];
        while (::read(wake_r_, drain, sizeof(drain)) > 0) {
        }
        continue;
      }
      if (pfds[i].fd == listen_fd && polled[i] == nullptr) {
        for (;;) {
          const int cfd = ::accept(listen_fd, nullptr, nullptr);
          if (cfd < 0) break;
          do_register(cfd);
        }
        continue;
      }
      const std::shared_ptr<Conn>& conn = polled[i];
      if (!conn) continue;
      bool alive = true;
      {
        std::lock_guard<std::mutex> lk(mu_);
        alive = !conn->closed;
      }
      if (!alive) continue;
      if (re & (POLLERR | POLLNVAL)) {
        teardown(conn);
        continue;
      }
      if (re & POLLOUT) handle_writable(conn);
      if (re & (POLLIN | POLLHUP)) handle_readable(conn);
    }

    // Slow-loris sweep: a partial frame idle past the deadline is a
    // protocol error — the stalled connection cannot block anyone else.
    std::vector<std::shared_ptr<Conn>> lorised;
    {
      std::lock_guard<std::mutex> lk(mu_);
      for (const auto& [id, conn] : conns_) {
        if (conn->has_partial && !conn->read_closed &&
            now >= conn->partial_since + cfg_.partial_frame_timeout) {
          lorised.push_back(conn);
          stats_.connections_timed_out += 1;
          stats_.protocol_errors += 1;
        }
      }
    }
    for (const auto& conn : lorised) {
      conn->has_partial = false;
      begin_error_close(conn, WireErrorKind::kTimeout,
                        "partial frame stalled past timeout");
    }
  }
}

void Server::handle_readable(const std::shared_ptr<Conn>& conn) {
  std::uint8_t buf[65536];
  for (int round = 0; round < kMaxReadsPerRound; ++round) {
    {
      std::lock_guard<std::mutex> lk(mu_);
      if (conn->closed || conn->read_closed) return;
    }
    const ssize_t n = ::recv(conn->fd, buf, sizeof(buf), 0);
    if (n > 0) {
      {
        std::lock_guard<std::mutex> lk(mu_);
        stats_.bytes_in += static_cast<std::uint64_t>(n);
      }
      conn->decoder.feed(buf, static_cast<std::size_t>(n));
      Frame frame;
      for (;;) {
        const FrameDecoder::Status st = conn->decoder.next(frame);
        if (st == FrameDecoder::Status::kFrame) {
          {
            std::lock_guard<std::mutex> lk(mu_);
            stats_.frames_in += 1;
          }
          handle_frame(conn, std::move(frame));
          std::lock_guard<std::mutex> lk(mu_);
          if (conn->read_closed || conn->closed) return;
          continue;
        }
        if (st == FrameDecoder::Status::kNeedMore) break;
        // Unframeable stream: count it, serve what was already admitted,
        // then send one Error frame and close.
        {
          std::lock_guard<std::mutex> lk(mu_);
          stats_.protocol_errors += 1;
        }
        begin_error_close(conn, conn->decoder.error_kind(),
                          conn->decoder.error_message());
        return;
      }
      conn->has_partial = conn->decoder.mid_frame();
      if (conn->has_partial) conn->partial_since = Clock::now();
      if (n < static_cast<ssize_t>(sizeof(buf))) return;  // drained
      continue;
    }
    if (n == 0) {
      // EOF. A half-closed peer still gets every response it is owed; a
      // mid-frame EOF is a truncated stream and earns the error frame.
      if (conn->decoder.mid_frame()) {
        {
          std::lock_guard<std::mutex> lk(mu_);
          stats_.protocol_errors += 1;
        }
        begin_error_close(conn, WireErrorKind::kTruncated,
                          "connection ended mid-frame");
        return;
      }
      std::lock_guard<std::mutex> lk(mu_);
      conn->has_partial = false;
      conn->read_closed = true;
      maybe_finish_close_locked(conn);
      return;
    }
    if (errno == EAGAIN || errno == EWOULDBLOCK) return;
    if (errno == EINTR) continue;
    teardown(conn);
    return;
  }
}

void Server::handle_writable(const std::shared_ptr<Conn>& conn) {
  bool dead = false;
  {
    std::lock_guard<std::mutex> lk(mu_);
    while (!conn->outbox.empty() && !conn->closed) {
      const auto& front = conn->outbox.front();
      const ssize_t n =
          ::send(conn->fd, front.data() + conn->out_off,
                 front.size() - conn->out_off, MSG_NOSIGNAL);
      if (n > 0) {
        conn->out_off += static_cast<std::size_t>(n);
        conn->outbox_bytes -= static_cast<std::size_t>(n);
        if (conn->out_off == front.size()) {
          conn->outbox.pop_front();
          conn->out_off = 0;
        }
        continue;
      }
      if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
      if (n < 0 && errno == EINTR) continue;
      dead = true;  // EPIPE/ECONNRESET: peer is gone
      break;
    }
  }
  if (dead) teardown(conn);
}

void Server::handle_frame(const std::shared_ptr<Conn>& conn, Frame&& frame) {
  const FrameType type = static_cast<FrameType>(frame.header.type);
  if (!is_client_frame(type)) {
    std::lock_guard<std::mutex> lk(mu_);
    stats_.protocol_errors += 1;
    conn->read_closed = true;
    conn->trailing_error = encode_error(
        frame.header.request_id, 0,
        core::Error{core::ErrorCode::kInvalidArgument, "net.frame",
                    "server-direction frame type from client"});
    maybe_finish_close_locked(conn);
    return;
  }
  switch (type) {
    case FrameType::kHello: {
      const std::optional<WireHello> hello = parse_hello(frame);
      bool bad = false;
      {
        std::lock_guard<std::mutex> lk(mu_);
        bad = !hello || conn->hello_done;
      }
      if (bad) {
        {
          std::lock_guard<std::mutex> lk(mu_);
          stats_.protocol_errors += 1;
        }
        begin_error_close(conn,
                          hello ? WireErrorKind::kBadState
                                : WireErrorKind::kBadPayload,
                          hello ? "duplicate hello" : "malformed hello");
        return;
      }
      std::lock_guard<std::mutex> lk(mu_);
      conn->hello_done = true;
      conn->tenant = hello->tenant;
      stats_.tenants.emplace(hello->tenant, TenantCounters{});
      append_frame_locked(conn, encode_hello_ack(hello->tenant));
      return;
    }
    case FrameType::kPing: {
      std::lock_guard<std::mutex> lk(mu_);
      if (frame.payload.size() > cfg_.limits.max_ping_bytes) {
        stats_.protocol_errors += 1;
        stats_.errors_sent += 1;
        append_frame_locked(
            conn, encode_error(0, 0,
                               core::Error{core::ErrorCode::kLimitExceeded,
                                           "net.frame", "ping too large"}));
        return;
      }
      append_frame_locked(conn, encode_pong(frame.payload));
      return;
    }
    case FrameType::kCancel:
      handle_cancel(conn, frame.header.request_id);
      return;
    case FrameType::kSlice:
    case FrameType::kVolumeFile:
      handle_request_frame(conn, std::move(frame));
      return;
    default:
      return;  // unreachable: is_client_frame filtered already
  }
}

void Server::handle_cancel(const std::shared_ptr<Conn>& conn,
                           std::uint64_t request_id) {
  std::lock_guard<std::mutex> lk(mu_);
  stats_.cancels_received += 1;
  const auto it = conn->pending.find(request_id);
  if (it == conn->pending.end()) return;  // unknown/completed: idempotent
  it->second->cancelled = true;
  it->second->token->cancel();  // the service sweeps it before dispatch
}

void Server::handle_request_frame(const std::shared_ptr<Conn>& conn,
                                  Frame&& frame) {
  const FrameType type = static_cast<FrameType>(frame.header.type);
  const std::uint64_t rid = frame.header.request_id;

  const auto send_request_error = [&](const std::string& message) {
    std::lock_guard<std::mutex> lk(mu_);
    stats_.protocol_errors += 1;
    stats_.errors_sent += 1;
    append_frame_locked(
        conn, encode_error(rid, 0,
                           core::Error{core::ErrorCode::kInvalidArgument,
                                       "net.parse", message}));
  };

  bool bad_rid = false, duplicate = false;
  {
    std::lock_guard<std::mutex> lk(mu_);
    if (!conn->hello_done) {
      stats_.protocol_errors += 1;
      conn->read_closed = true;
      conn->trailing_error = encode_error(
          rid, 0,
          core::Error{core::ErrorCode::kInvalidArgument, "net.frame",
                      "request before hello"});
      maybe_finish_close_locked(conn);
      return;
    }
    bad_rid = rid == 0;
    duplicate = !bad_rid && conn->pending.count(rid) != 0;
  }
  if (bad_rid) {
    send_request_error("request_id must be nonzero");
    return;
  }
  if (duplicate) {
    send_request_error("duplicate request_id on this connection");
    return;
  }

  // Parse outside the lock (may copy megapixels).
  WireRequestOptions opts;
  serve::Request sreq;
  if (type == FrameType::kSlice) {
    std::optional<WireSliceRequest> parsed =
        parse_slice_request(frame, cfg_.limits);
    if (!parsed) {
      send_request_error("malformed slice request payload");
      return;
    }
    opts = parsed->options;
    sreq = serve::Request::slice(std::move(parsed->image),
                                 std::move(parsed->prompt));
  } else {
    std::optional<WireVolumeFileRequest> parsed =
        parse_volume_file_request(frame, cfg_.limits);
    if (!parsed) {
      send_request_error("malformed volume-file request payload");
      return;
    }
    opts = parsed->options;
    sreq = serve::Request::volume_file(std::move(parsed->path),
                                       std::move(parsed->prompt),
                                       cfg_.tiff_limits);
  }
  sreq.priority = opts.priority;
  if (opts.deadline_ms > 0) {
    sreq.deadline = Clock::now() + std::chrono::milliseconds(opts.deadline_ms);
  }

  auto nr = std::make_shared<NetRequest>();
  nr->request_id = rid;
  nr->trace_id = opts.trace_id != 0 ? opts.trace_id : obs::new_trace_id();
  nr->received = Clock::now();
  nr->obs_received_ns = obs::enabled() ? obs::now_ns() : 0;
  nr->token = std::make_shared<serve::CancelToken>();
  sreq.cancel = nr->token;
  {
    // Registered before submit, under the same lock stop() takes to set
    // stopping_ and fire tokens: stop() either cancels this request or it
    // is refused here.
    std::lock_guard<std::mutex> lk(mu_);
    if (stopping_) {
      stats_.rejected_sent += 1;
      const WireReject reason = WireReject::kShuttingDown;
      append_frame_locked(
          conn, encode_rejected(rid, nr->trace_id, reason,
                                core::Error{core::ErrorCode::kShuttingDown,
                                            "net.admission", to_string(reason)}));
      return;
    }
    nr->tenant = sreq.tenant = conn->tenant;
    stats_.requests_received += 1;
    stats_.tenants[conn->tenant].received += 1;
    conn->pending.emplace(rid, nr);
    owed_ += 1;
  }
  // The service reuses this ambient trace id, so wire spans and service
  // spans stitch into one trace per request.
  obs::TraceScope trace(nr->trace_id);
  obs::Span span("net.submit");
  service_.submit(std::move(sreq), [this, conn, nr](serve::Response&& resp) {
    respond(conn, nr, std::move(resp));
  });
}

void Server::begin_error_close(const std::shared_ptr<Conn>& conn,
                               WireErrorKind kind, const std::string& message) {
  std::lock_guard<std::mutex> lk(mu_);
  if (conn->closed || conn->close_after_flush || !conn->trailing_error.empty()) {
    return;
  }
  conn->read_closed = true;
  conn->has_partial = false;
  core::Error error;
  error.code = error_code_for(kind);
  error.stage = "net.frame";
  error.message = std::string(to_string(kind)) + ": " + message;
  conn->trailing_error = encode_error(0, 0, error);
  maybe_finish_close_locked(conn);
}

void Server::teardown(const std::shared_ptr<Conn>& conn) {
  // Peer is gone: every token fires so the service frees the queue slots,
  // the fd closes now, and completions still owed find `closed` set and
  // drop their frames — there is nobody to tell.
  std::lock_guard<std::mutex> lk(mu_);
  if (conn->closed) return;
  for (auto& [rid, nr] : conn->pending) nr->token->cancel();
  conn->pending.clear();
  conn->closed = true;
  conn->outbox.clear();
  conn->outbox_bytes = 0;
  conns_.erase(conn->id);
  ::close(conn->fd);
  if (stats_.connections_active > 0) stats_.connections_active -= 1;
}

// --- completion ----------------------------------------------------------

namespace {

/// Builds the terminal frame for a completed service response.
std::vector<std::uint8_t> encode_terminal(std::uint64_t request_id,
                                          std::uint64_t trace_id,
                                          serve::Response&& resp) {
  switch (resp.status) {
    case serve::Response::Status::kOk: {
      const WireTimings timings{resp.queue_us, resp.decode_us, resp.total_us};
      if (resp.kind == serve::RequestKind::kVolume && resp.volume) {
        return encode_volume_response(request_id, trace_id, *resp.volume,
                                      timings);
      }
      if (resp.slice) {
        return encode_slice_response(request_id, trace_id, *resp.slice,
                                     timings);
      }
      return encode_error(request_id, trace_id,
                          core::Error{core::ErrorCode::kInternal, "net.respond",
                                      "ok response without payload"});
    }
    case serve::Response::Status::kRejected:
      return encode_rejected(request_id, trace_id,
                             wire_reject_for(resp.reject), resp.error);
    case serve::Response::Status::kError:
      return encode_error(request_id, trace_id, resp.error);
  }
  return encode_error(request_id, trace_id,
                      core::Error{core::ErrorCode::kInternal, "net.respond",
                                  "unknown response status"});
}

}  // namespace

void Server::respond(const std::shared_ptr<Conn>& conn,
                     const std::shared_ptr<NetRequest>& req,
                     serve::Response&& resp) {
  obs::TraceScope trace(req->trace_id);
  obs::Span span("net.respond");
  if (resp.reject == serve::RejectReason::kCancelled && !req->cancelled) {
    // The token fired but the client never asked: stop() cancelled it.
    resp.reject = serve::RejectReason::kShuttingDown;
    resp.error.code = core::ErrorCode::kShuttingDown;
    resp.error.message = core::to_string(resp.error.code);
  }
  const serve::Response::Status status = resp.status;
  const serve::RejectReason reject = resp.reject;
  std::vector<std::uint8_t> frame =
      encode_terminal(req->request_id, req->trace_id, std::move(resp));
  if (req->obs_received_ns != 0 && obs::enabled()) {
    // Wire-level request span: frame parsed → terminal frame built,
    // stitched to the same trace id the service's spans carry.
    obs::record_span("net.request", req->trace_id, req->obs_received_ns,
                     obs::now_ns());
  }
  std::lock_guard<std::mutex> lk(mu_);
  conn->pending.erase(req->request_id);
  TenantCounters& tc = stats_.tenants[req->tenant];
  if (reject == serve::RejectReason::kQueueFull) {
    stats_.shed_overloaded += 1;
  } else if (reject == serve::RejectReason::kTenantQuota) {
    stats_.shed_tenant_quota += 1;
    tc.shed += 1;
  } else {
    tc.completed += 1;
    stats_.wire_us.record(us_between(req->received, Clock::now()));
  }
  if (status == serve::Response::Status::kOk) {
    stats_.responses_sent += 1;
  } else if (status == serve::Response::Status::kRejected) {
    stats_.rejected_sent += 1;
  } else {
    stats_.errors_sent += 1;
  }
  append_frame_locked(conn, std::move(frame));
  maybe_finish_close_locked(conn);
  // Still under mu_: stop() closes the wake pipe only after seeing owed_
  // reach 0 under mu_, so this write can never hit a closed fd.
  wake_evloop();
  if (--owed_ == 0) owed_cv_.notify_all();
}

}  // namespace zenesis::net
