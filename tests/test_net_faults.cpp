// Fault-injection suite for zenesis::net (ISSUE-9 satellite): slow-loris
// partial frames, abrupt disconnects with work in flight, oversized and
// zero-length length fields, cancel races (queued / completed / unknown),
// half-closed sockets, deadline expiry, tenant-quota exhaustion plus
// recovery, and stop() with work still queued. Each test pins one clause
// of the robustness contract in server.hpp.
#include <gtest/gtest.h>

#include <chrono>
#include <cstring>
#include <thread>
#include <vector>

#include "zenesis/fibsem/synth.hpp"
#include "zenesis/net/client.hpp"
#include "zenesis/net/frame.hpp"
#include "zenesis/net/server.hpp"
#include "zenesis/serve/service.hpp"

namespace zf = zenesis::fibsem;
namespace zi = zenesis::image;
namespace zn = zenesis::net;
namespace zs = zenesis::serve;

using namespace std::chrono_literals;

namespace {

constexpr const char* kPrompt = "bright needle-like crystalline catalyst";

zi::AnyImage make_image(std::int64_t size, std::uint64_t seed) {
  zf::SynthConfig cfg;
  cfg.type = zf::SampleType::kCrystalline;
  cfg.width = size;
  cfg.height = size;
  cfg.seed = seed;
  return zi::AnyImage(zf::generate_slice(cfg, 0).raw);
}

/// Spins until `pred` holds or `timeout` passes; returns pred().
template <typename Pred>
bool wait_until(Pred pred, std::chrono::milliseconds timeout = 5000ms) {
  const auto deadline = std::chrono::steady_clock::now() + timeout;
  while (!pred()) {
    if (std::chrono::steady_clock::now() >= deadline) return pred();
    std::this_thread::sleep_for(1ms);
  }
  return true;
}

/// Drains the connection until EOF; returns the frames seen on the way.
std::vector<zn::ServerMessage> drain_to_eof(zn::Client& client,
                                            std::chrono::milliseconds timeout) {
  std::vector<zn::ServerMessage> seen;
  const auto deadline = std::chrono::steady_clock::now() + timeout;
  while (!client.peer_closed() && !client.decode_failed() &&
         std::chrono::steady_clock::now() < deadline) {
    auto msg = client.recv(50ms);
    if (msg) seen.push_back(std::move(*msg));
  }
  return seen;
}

}  // namespace

TEST(NetFaults, SlowLorisTimesOutWithoutHurtingHealthyClients) {
  zs::SegmentService service;
  zn::ServerConfig cfg;
  cfg.partial_frame_timeout = 100ms;
  zn::Server server(service, cfg);

  // The loris: dribbles half a frame header and then stalls.
  auto [loris, loris_fd] = zn::Client::loopback_pair();
  server.adopt(loris_fd);
  const std::vector<std::uint8_t> hello = zn::encode_hello(1);
  ASSERT_TRUE(loris.send_bytes(hello.data(), 9));  // 9 of 20 header bytes

  // A healthy client on the same server keeps getting served meanwhile.
  auto [good, good_fd] = zn::Client::loopback_pair();
  server.adopt(good_fd);
  ASSERT_TRUE(good.hello(1));
  const std::uint64_t rid = good.submit_slice(make_image(24, 3), kPrompt);
  ASSERT_NE(rid, 0u);
  const auto resp = good.wait_for(rid);
  ASSERT_TRUE(resp.has_value());
  EXPECT_EQ(resp->type, zn::FrameType::kResponse);

  // The loris gets an Error{Timeout} frame and a close, and is counted.
  ASSERT_TRUE(wait_until([&] { return server.stats().connections_timed_out > 0; }));
  const auto seen = drain_to_eof(loris, 3000ms);
  EXPECT_TRUE(loris.peer_closed());
  EXPECT_FALSE(loris.decode_failed());
  ASSERT_EQ(seen.size(), 1u);
  EXPECT_EQ(seen[0].type, zn::FrameType::kError);
  EXPECT_EQ(seen[0].error.code, zenesis::core::ErrorCode::kIo);  // kTimeout

  const zn::NetStats ns = server.stats();
  EXPECT_EQ(ns.connections_timed_out, 1u);
  ASSERT_TRUE(wait_until([&] { return server.stats().connections_active == 1; }));
}

TEST(NetFaults, AbruptDisconnectFreesQueuedAndInflightSlots) {
  zs::ServiceConfig scfg;
  scfg.start_paused = true;
  zs::SegmentService service(scfg);
  zn::Server server(service);

  {
    auto [client, server_fd] = zn::Client::loopback_pair();
    server.adopt(server_fd);
    ASSERT_TRUE(client.hello(1));
    for (int i = 0; i < 3; ++i) {
      ASSERT_NE(client.submit_slice(make_image(24, 5), kPrompt), 0u);
    }
    ASSERT_TRUE(wait_until([&] { return service.queue_depth() == 3; }));
    // Vanish with everything still queued. A full close looks like a
    // half-close until the server tries to write — the contract is that
    // the failed flush tears the connection down and frees every slot,
    // not that the close is detected instantly.
  }
  service.resume();
  ASSERT_TRUE(wait_until([&] {
    return service.queue_depth() == 0 && server.inflight() == 0 &&
           server.stats().connections_active == 0;
  }));

  // No leaked slots, and the server still serves the next client.
  auto [client2, server_fd2] = zn::Client::loopback_pair();
  server.adopt(server_fd2);
  ASSERT_TRUE(client2.hello(1));
  const std::uint64_t rid = client2.submit_slice(make_image(24, 5), kPrompt);
  const auto resp = client2.wait_for(rid);
  ASSERT_TRUE(resp.has_value());
  EXPECT_EQ(resp->type, zn::FrameType::kResponse);
}

TEST(NetFaults, OversizedPayloadLengthIsRefusedBeforeAllocation) {
  zs::SegmentService service;
  zn::ServerConfig cfg;
  cfg.limits.max_frame_bytes = 1u << 20;
  zn::Server server(service, cfg);

  auto [client, server_fd] = zn::Client::loopback_pair(cfg.limits);
  server.adopt(server_fd);
  ASSERT_TRUE(client.hello(1));

  // A header whose payload_len (0xFFFFFFFF) dwarfs max_frame_bytes. The
  // decoder must refuse it from the header alone — no 4 GiB buffer.
  std::vector<std::uint8_t> header = zn::encode_ping({});
  header.resize(zn::kHeaderBytes);
  header[16] = header[17] = header[18] = header[19] = 0xFF;
  ASSERT_TRUE(client.send_bytes(header));
  client.shutdown_write();

  const auto seen = drain_to_eof(client, 3000ms);
  EXPECT_TRUE(client.peer_closed());
  ASSERT_EQ(seen.size(), 1u);
  EXPECT_EQ(seen[0].type, zn::FrameType::kError);
  EXPECT_EQ(seen[0].error.code, zenesis::core::ErrorCode::kLimitExceeded);
  EXPECT_GT(server.stats().protocol_errors, 0u);
}

TEST(NetFaults, ZeroLengthPayloadOnRequestFrameIsACleanError) {
  zs::SegmentService service;
  zn::Server server(service, {});

  auto [client, server_fd] = zn::Client::loopback_pair();
  server.adopt(server_fd);
  ASSERT_TRUE(client.hello(1));

  // A kSlice frame with payload_len = 0: framing is valid, the payload is
  // not. Must produce an Error close, never a crash or hang.
  std::vector<std::uint8_t> frame =
      zn::encode_slice_request(1, make_image(8, 1), kPrompt, {});
  frame.resize(zn::kHeaderBytes);
  frame[16] = frame[17] = frame[18] = frame[19] = 0;
  ASSERT_TRUE(client.send_bytes(frame));
  client.shutdown_write();

  const auto seen = drain_to_eof(client, 3000ms);
  EXPECT_TRUE(client.peer_closed());
  ASSERT_EQ(seen.size(), 1u);
  EXPECT_EQ(seen[0].type, zn::FrameType::kError);
}

TEST(NetFaults, CancelOfQueuedRequestYieldsExactlyOneRejectedFrame) {
  zs::ServiceConfig scfg;
  scfg.start_paused = true;
  zs::SegmentService service(scfg);
  zn::Server server(service);

  auto [client, server_fd] = zn::Client::loopback_pair();
  server.adopt(server_fd);
  ASSERT_TRUE(client.hello(1));
  const std::uint64_t rid = client.submit_slice(make_image(24, 7), kPrompt);
  ASSERT_TRUE(wait_until([&] { return service.queue_depth() == 1; }));
  ASSERT_TRUE(client.cancel(rid));
  // The cancel frame races dispatch: hold the service until the event
  // loop has actually decoded it, so the queued-cancel path is what runs.
  ASSERT_TRUE(wait_until([&] { return server.stats().cancels_received == 1; }));
  service.resume();

  const auto resp = client.wait_for(rid);
  ASSERT_TRUE(resp.has_value());
  EXPECT_EQ(resp->type, zn::FrameType::kRejected);
  EXPECT_EQ(resp->reject, zn::WireReject::kCancelled);

  // Exactly one terminal frame: nothing further for this request.
  EXPECT_FALSE(client.recv(200ms).has_value());
  const zn::NetStats ns = server.stats();
  EXPECT_EQ(ns.rejected_sent, 1u);
  EXPECT_EQ(ns.responses_sent, 0u);
  EXPECT_EQ(ns.cancels_received, 1u);
}

TEST(NetFaults, LateAndUnknownCancelsAreIdempotentNoOps) {
  zs::SegmentService service;
  zn::Server server(service, {});

  auto [client, server_fd] = zn::Client::loopback_pair();
  server.adopt(server_fd);
  ASSERT_TRUE(client.hello(1));

  const std::uint64_t rid = client.submit_slice(make_image(24, 9), kPrompt);
  const auto resp = client.wait_for(rid);
  ASSERT_TRUE(resp.has_value());
  EXPECT_EQ(resp->type, zn::FrameType::kResponse);

  // Cancel after completion + cancel of a never-seen id: both must be
  // swallowed without a frame, an error, or a dropped connection.
  ASSERT_TRUE(client.cancel(rid));
  ASSERT_TRUE(client.cancel(0xDEADBEEFull));
  EXPECT_FALSE(client.recv(200ms).has_value());
  EXPECT_TRUE(client.ping({9, 9, 9}));

  const zn::NetStats ns = server.stats();
  EXPECT_EQ(ns.cancels_received, 2u);
  EXPECT_EQ(ns.responses_sent, 1u);
  EXPECT_EQ(ns.errors_sent, 0u);
  EXPECT_EQ(ns.protocol_errors, 0u);
}

TEST(NetFaults, HalfClosedSocketStillReceivesItsResponses) {
  zs::SegmentService service;
  zn::Server server(service, {});

  auto [client, server_fd] = zn::Client::loopback_pair();
  server.adopt(server_fd);
  ASSERT_TRUE(client.hello(1));
  const std::uint64_t rid1 = client.submit_slice(make_image(24, 11), kPrompt);
  const std::uint64_t rid2 = client.submit_slice(make_image(24, 13), kPrompt);
  client.shutdown_write();  // EOF with two requests outstanding

  const auto r1 = client.wait_for(rid1);
  const auto r2 = client.wait_for(rid2);
  ASSERT_TRUE(r1.has_value());
  ASSERT_TRUE(r2.has_value());
  EXPECT_EQ(r1->type, zn::FrameType::kResponse);
  EXPECT_EQ(r2->type, zn::FrameType::kResponse);

  // After the owed responses the server closes its side too.
  drain_to_eof(client, 3000ms);
  EXPECT_TRUE(client.peer_closed());
  EXPECT_FALSE(client.decode_failed());
}

TEST(NetFaults, ExpiredDeadlineComesBackAsRejectedFrame) {
  zs::ServiceConfig scfg;
  scfg.start_paused = true;  // deadlines expire while dispatch is held
  zs::SegmentService service(scfg);
  zn::Server server(service, {});

  auto [client, server_fd] = zn::Client::loopback_pair();
  server.adopt(server_fd);
  ASSERT_TRUE(client.hello(1));
  zn::WireRequestOptions opts;
  opts.deadline_ms = 30;
  const std::uint64_t rid =
      client.submit_slice(make_image(24, 17), kPrompt, opts);
  ASSERT_NE(rid, 0u);
  ASSERT_TRUE(wait_until([&] { return server.inflight() == 1; }));
  std::this_thread::sleep_for(60ms);
  service.resume();

  const auto resp = client.wait_for(rid);
  ASSERT_TRUE(resp.has_value());
  EXPECT_EQ(resp->type, zn::FrameType::kRejected);
  EXPECT_EQ(resp->reject, zn::WireReject::kDeadlineExpired);
}

TEST(NetFaults, TenantQuotaExhaustsAndRecovers) {
  zs::ServiceConfig scfg;
  scfg.tenants[7] = {/*weight=*/1, /*max_queued=*/2};
  scfg.start_paused = true;
  zs::SegmentService service(scfg);
  zn::Server server(service);

  auto [client, server_fd] = zn::Client::loopback_pair();
  server.adopt(server_fd);
  ASSERT_TRUE(client.hello(7));
  const std::uint64_t r1 = client.submit_slice(make_image(24, 19), kPrompt);
  const std::uint64_t r2 = client.submit_slice(make_image(24, 23), kPrompt);
  const std::uint64_t r3 = client.submit_slice(make_image(24, 29), kPrompt);

  // The third request breaches the quota: immediate structured shed, and
  // it never queued.
  const auto shed = client.wait_for(r3, 5000ms);
  ASSERT_TRUE(shed.has_value());
  EXPECT_EQ(shed->type, zn::FrameType::kRejected);
  EXPECT_EQ(shed->reject, zn::WireReject::kTenantQuota);
  EXPECT_EQ(service.queue_depth(), 2u);

  service.resume();
  const auto resp1 = client.wait_for(r1);
  const auto resp2 = client.wait_for(r2);
  ASSERT_TRUE(resp1.has_value());
  ASSERT_TRUE(resp2.has_value());
  EXPECT_EQ(resp1->type, zn::FrameType::kResponse);
  EXPECT_EQ(resp2->type, zn::FrameType::kResponse);

  // Quota slots are freed on completion: the tenant is healthy again.
  const std::uint64_t r4 = client.submit_slice(make_image(24, 19), kPrompt);
  const auto resp4 = client.wait_for(r4);
  ASSERT_TRUE(resp4.has_value());
  EXPECT_EQ(resp4->type, zn::FrameType::kResponse);

  const zn::NetStats ns = server.stats();
  const auto it = ns.tenants.find(7);
  ASSERT_NE(it, ns.tenants.end());
  EXPECT_EQ(it->second.shed, 1u);
  EXPECT_EQ(it->second.completed, 3u);  // r1, r2, r4 — the shed never queued
  EXPECT_EQ(ns.shed_tenant_quota, 1u);
  EXPECT_EQ(service.stats().rejected_queue_full, 0u);
}

TEST(NetFaults, StopRejectsQueuedWorkWithShuttingDown) {
  zs::ServiceConfig scfg;
  scfg.start_paused = true;  // the three requests stay queued
  zs::SegmentService service(scfg);
  zn::Server server(service);

  auto [client, server_fd] = zn::Client::loopback_pair();
  server.adopt(server_fd);
  ASSERT_TRUE(client.hello(1));
  std::vector<std::uint64_t> rids;
  for (int i = 0; i < 3; ++i) {
    rids.push_back(client.submit_slice(make_image(24, 31), kPrompt));
  }
  ASSERT_TRUE(wait_until([&] { return service.queue_depth() == 3; }));

  server.stop();  // must return although the service never resumes
  EXPECT_EQ(server.inflight(), 0u);
  EXPECT_EQ(service.queue_depth(), 0u);

  const auto seen = drain_to_eof(client, 3000ms);
  EXPECT_TRUE(client.peer_closed());
  ASSERT_EQ(seen.size(), 3u);  // exactly one terminal frame each
  for (std::size_t i = 0; i < seen.size(); ++i) {
    EXPECT_EQ(seen[i].request_id, rids[i]);
    EXPECT_EQ(seen[i].type, zn::FrameType::kRejected);
    EXPECT_EQ(seen[i].reject, zn::WireReject::kShuttingDown);
    EXPECT_EQ(seen[i].error.code, zenesis::core::ErrorCode::kShuttingDown);
  }
  EXPECT_EQ(server.stats().rejected_sent, 3u);
}
