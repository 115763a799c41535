// zen_net contract tests (ISSUE-9 acceptance list):
//   (a) the wire codec round-trips every frame shape and rejects malformed
//       framing without crashes or over-allocation,
//   (b) responses served over the wire are byte-identical to direct
//       SegmentService::submit calls (slice in every pixel format, and a
//       Mode-B volume_file request streamed from a real TIFF),
//   (c) trace ids flow from the client frame through obs spans and back,
//   (d) service-admission sheds (full queue, tenant quota) come back as
//       the wire's Rejected{Overloaded} / Rejected{TenantQuota},
//   (e) connection counters surface in NetStats and the Mode-C dashboard,
//       and connections over max_connections are refused and counted.
// Weighted tenant fairness is the service's and is tested in
// test_serve.cpp.
// The fault-injection and fuzz suites live in test_net_faults.cpp and
// test_net_fuzz.cpp; the thousand-client soak in test_net_soak.cpp.
#include <gtest/gtest.h>

#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <chrono>
#include <cstdio>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "zenesis/core/session.hpp"
#include "zenesis/fibsem/synth.hpp"
#include "zenesis/io/tiff.hpp"
#include "zenesis/net/client.hpp"
#include "zenesis/net/frame.hpp"
#include "zenesis/net/server.hpp"
#include "zenesis/obs/trace.hpp"
#include "zenesis/serve/service.hpp"

namespace zf = zenesis::fibsem;
namespace zi = zenesis::image;
namespace zn = zenesis::net;
namespace zo = zenesis::obs;
namespace zs = zenesis::serve;

using namespace std::chrono_literals;

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

void expect_masks_equal(const zi::Mask& a, const zi::Mask& b) {
  ASSERT_EQ(a.width(), b.width());
  ASSERT_EQ(a.height(), b.height());
  const auto pa = a.pixels();
  const auto pb = b.pixels();
  for (std::size_t i = 0; i < pa.size(); ++i) {
    ASSERT_EQ(pa[i], pb[i]) << "pixel " << i;
  }
}

/// Feeds encoded bytes through a fresh decoder and returns the one frame.
zn::Frame decode_one(const std::vector<std::uint8_t>& bytes,
                     const zn::NetLimits& limits = {}) {
  zn::FrameDecoder decoder(limits);
  decoder.feed(bytes.data(), bytes.size());
  zn::Frame frame;
  EXPECT_EQ(decoder.next(frame), zn::FrameDecoder::Status::kFrame);
  EXPECT_EQ(decoder.buffered(), 0u);
  return frame;
}

}  // namespace

// (a) Codec round trips.
TEST(NetFrame, HelloCancelPingRoundTrip) {
  const zn::Frame hello = decode_one(zn::encode_hello(42, 7));
  EXPECT_EQ(hello.header.type,
            static_cast<std::uint16_t>(zn::FrameType::kHello));
  const auto parsed = zn::parse_hello(hello);
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->tenant, 42u);
  EXPECT_EQ(parsed->flags, 7u);

  const zn::Frame cancel = decode_one(zn::encode_cancel(1234));
  EXPECT_EQ(cancel.header.type,
            static_cast<std::uint16_t>(zn::FrameType::kCancel));
  EXPECT_EQ(cancel.header.request_id, 1234u);
  EXPECT_TRUE(cancel.payload.empty());

  const std::vector<std::uint8_t> blob = {1, 2, 3, 0xFF};
  const zn::Frame ping = decode_one(zn::encode_ping(blob));
  EXPECT_EQ(ping.payload, blob);
}

TEST(NetFrame, SliceRequestRoundTripsEveryPixelFormat) {
  zn::WireRequestOptions opts;
  opts.priority = -3;
  opts.deadline_ms = 2500;
  opts.trace_id = 0xCAFEF00Dull;

  const auto check = [&](zi::AnyImage img) {
    const zn::Frame frame =
        decode_one(zn::encode_slice_request(9, img, "porous carbon", opts));
    EXPECT_EQ(frame.header.request_id, 9u);
    const auto parsed = zn::parse_slice_request(frame, zn::NetLimits{});
    ASSERT_TRUE(parsed.has_value());
    EXPECT_EQ(parsed->prompt, "porous carbon");
    EXPECT_EQ(parsed->options.priority, -3);
    EXPECT_EQ(parsed->options.deadline_ms, 2500u);
    EXPECT_EQ(parsed->options.trace_id, 0xCAFEF00Dull);
    EXPECT_EQ(parsed->image.index(), img.index());
    std::visit(
        [&](const auto& got) {
          std::visit(
              [&](const auto& want) {
                ASSERT_EQ(got.width(), want.width());
                ASSERT_EQ(got.height(), want.height());
                ASSERT_EQ(got.channels(), want.channels());
                const auto gp = got.pixels();
                const auto wp = want.pixels();
                ASSERT_EQ(gp.size(), wp.size());
                for (std::size_t i = 0; i < gp.size(); ++i) {
                  ASSERT_EQ(std::memcmp(&gp[i], &wp[i], sizeof(gp[i])), 0);
                }
              },
              img);
        },
        parsed->image);
  };

  zi::ImageU8 u8(5, 4, 2);
  for (std::size_t i = 0; i < u8.pixels().size(); ++i) {
    u8.pixels()[i] = static_cast<std::uint8_t>(i * 7);
  }
  zi::ImageU16 u16(6, 3);
  for (std::size_t i = 0; i < u16.pixels().size(); ++i) {
    u16.pixels()[i] = static_cast<std::uint16_t>(i * 517);
  }
  zi::ImageU32 u32(3, 3);
  for (std::size_t i = 0; i < u32.pixels().size(); ++i) {
    u32.pixels()[i] = static_cast<std::uint32_t>(i * 100003);
  }
  zi::ImageF32 f32(4, 2);
  for (std::size_t i = 0; i < f32.pixels().size(); ++i) {
    f32.pixels()[i] = static_cast<float>(i) * 0.37f - 1.0f;
  }
  check(zi::AnyImage(u8));
  check(zi::AnyImage(u16));
  check(zi::AnyImage(u32));
  check(zi::AnyImage(f32));
}

TEST(NetFrame, VolumeFileRequestAndServerFramesRoundTrip) {
  zn::WireRequestOptions opts;
  opts.priority = 5;
  const zn::Frame req = decode_one(
      zn::encode_volume_file_request(77, "/tmp/stack.tif", kPrompt, opts));
  const auto parsed = zn::parse_volume_file_request(req, zn::NetLimits{});
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->path, "/tmp/stack.tif");
  EXPECT_EQ(parsed->prompt, kPrompt);
  EXPECT_EQ(parsed->options.priority, 5);

  zenesis::core::Error err;
  err.code = zenesis::core::ErrorCode::kQueueFull;
  err.stage = "net.admission";
  err.message = "tenant quota";
  const zn::Frame rej = decode_one(
      zn::encode_rejected(31, 0xAB, zn::WireReject::kTenantQuota, err));
  const auto rmsg = zn::parse_server_frame(rej, zn::NetLimits{});
  ASSERT_TRUE(rmsg.has_value());
  EXPECT_EQ(rmsg->type, zn::FrameType::kRejected);
  EXPECT_EQ(rmsg->request_id, 31u);
  EXPECT_EQ(rmsg->trace_id, 0xABu);
  EXPECT_EQ(rmsg->reject, zn::WireReject::kTenantQuota);
  EXPECT_EQ(rmsg->error.code, zenesis::core::ErrorCode::kQueueFull);
  EXPECT_EQ(rmsg->error.stage, "net.admission");
  EXPECT_EQ(rmsg->error.message, "tenant quota");

  const zn::Frame emsg_frame = decode_one(zn::encode_error(0, 0, err));
  const auto emsg = zn::parse_server_frame(emsg_frame, zn::NetLimits{});
  ASSERT_TRUE(emsg.has_value());
  EXPECT_EQ(emsg->type, zn::FrameType::kError);
  EXPECT_EQ(emsg->error.message, "tenant quota");
}

TEST(NetFrame, DecoderIsIncremental) {
  const std::vector<std::uint8_t> bytes = zn::encode_hello(3);
  zn::FrameDecoder decoder{zn::NetLimits{}};
  zn::Frame frame;
  for (std::size_t i = 0; i < bytes.size(); ++i) {
    EXPECT_EQ(decoder.next(frame), zn::FrameDecoder::Status::kNeedMore);
    decoder.feed(&bytes[i], 1);
  }
  EXPECT_EQ(decoder.next(frame), zn::FrameDecoder::Status::kFrame);
  EXPECT_FALSE(decoder.mid_frame());
}

TEST(NetFrame, DecoderRejectsMalformedFraming) {
  const auto expect_error = [](std::vector<std::uint8_t> bytes,
                               zn::WireErrorKind kind) {
    zn::FrameDecoder decoder{zn::NetLimits{}};
    decoder.feed(bytes.data(), bytes.size());
    zn::Frame frame;
    EXPECT_EQ(decoder.next(frame), zn::FrameDecoder::Status::kError);
    EXPECT_EQ(decoder.error_kind(), kind);
    // Errors latch: the stream is unframeable past a bad header.
    decoder.feed(bytes.data(), bytes.size());
    EXPECT_EQ(decoder.next(frame), zn::FrameDecoder::Status::kError);
  };

  auto bad_magic = zn::encode_hello(1);
  bad_magic[0] ^= 0xFF;
  expect_error(std::move(bad_magic), zn::WireErrorKind::kBadMagic);

  auto bad_version = zn::encode_hello(1);
  bad_version[4] = 0x77;
  expect_error(std::move(bad_version), zn::WireErrorKind::kBadVersion);

  auto bad_type = zn::encode_hello(1);
  bad_type[6] = 0xEE;
  bad_type[7] = 0xEE;
  expect_error(std::move(bad_type), zn::WireErrorKind::kBadType);

  // payload_len = 0xFFFFFFFF must be rejected from the header alone,
  // before any buffering (the TiffReadLimits treatment).
  auto oversized = zn::encode_hello(1);
  oversized[16] = oversized[17] = oversized[18] = oversized[19] = 0xFF;
  expect_error(std::move(oversized), zn::WireErrorKind::kOversized);
}

// --- live server tests ---------------------------------------------------

TEST(Net, HelloAndPingPong) {
  zs::ServiceConfig scfg;
  zs::SegmentService service(scfg);
  zn::Server server(service);
  auto [client, server_fd] = zn::Client::loopback_pair();
  server.adopt(server_fd);

  ASSERT_TRUE(client.hello(42));
  EXPECT_TRUE(client.ping({0xDE, 0xAD, 0xBE, 0xEF}));
  EXPECT_TRUE(client.ping({}));

  server.stop();
  const zn::NetStats stats = server.stats();
  EXPECT_EQ(stats.connections_accepted, 1u);
  EXPECT_EQ(stats.protocol_errors, 0u);
}

// (b) Wire responses byte-identical to direct submits.
TEST(Net, SliceResponsesMatchDirectSubmit) {
  const auto s16 = make_slice(48, 21);
  zi::ImageU8 u8(32, 32);
  for (std::size_t i = 0; i < u8.pixels().size(); ++i) {
    u8.pixels()[i] = static_cast<std::uint8_t>((i * 13) % 251);
  }
  zi::ImageF32 f32(32, 32);
  for (std::size_t i = 0; i < f32.pixels().size(); ++i) {
    f32.pixels()[i] = static_cast<float>((i * 29) % 97) / 97.0f;
  }
  const std::vector<zi::AnyImage> images = {
      zi::AnyImage(s16.raw), zi::AnyImage(u8), zi::AnyImage(f32)};

  zs::SegmentService service;
  zn::Server server(service);
  auto [client, server_fd] = zn::Client::loopback_pair();
  server.adopt(server_fd);
  ASSERT_TRUE(client.hello(1));

  for (const zi::AnyImage& img : images) {
    const zs::Response want =
        service.submit(zs::Request::slice(img, kPrompt)).get();
    ASSERT_TRUE(want.ok());

    const std::uint64_t rid = client.submit_slice(img, kPrompt);
    ASSERT_NE(rid, 0u);
    const auto got = client.wait_for(rid);
    ASSERT_TRUE(got.has_value());
    ASSERT_EQ(got->type, zn::FrameType::kResponse) << got->error.message;
    EXPECT_EQ(got->request_id, rid);
    expect_masks_equal(got->mask, want.slice->mask);
    EXPECT_EQ(got->box, want.slice->primary_box);
    EXPECT_EQ(got->confidence, want.slice->confidence);
    EXPECT_GT(got->total_us, 0.0);
  }
  server.stop();
}

TEST(Net, VolumeFileResponseMatchesDirectSubmit) {
  zf::SynthConfig vcfg;
  vcfg.type = zf::SampleType::kCrystalline;
  vcfg.width = 40;
  vcfg.height = 40;
  vcfg.depth = 3;
  vcfg.seed = 5;
  const zf::SyntheticVolume vol = zf::generate_volume(vcfg);
  const std::string path = "test_net_volume.tif";
  zenesis::io::write_volume_tiff(path, vol.volume);

  zs::SegmentService service;
  const zs::Response want =
      service.submit(zs::Request::volume_file(path, kPrompt)).get();
  ASSERT_TRUE(want.ok());
  ASSERT_TRUE(want.volume.has_value());

  zn::Server server(service);
  auto [client, server_fd] = zn::Client::loopback_pair();
  server.adopt(server_fd);
  ASSERT_TRUE(client.hello(1));
  const std::uint64_t rid = client.submit_volume_file(path, kPrompt);
  ASSERT_NE(rid, 0u);
  const auto got = client.wait_for(rid, 60000ms);
  ASSERT_TRUE(got.has_value());
  ASSERT_EQ(got->type, zn::FrameType::kResponse) << got->error.message;
  const std::vector<zi::Mask> want_masks = want.volume->masks();
  ASSERT_EQ(got->volume_masks.size(), want_masks.size());
  for (std::size_t z = 0; z < got->volume_masks.size(); ++z) {
    expect_masks_equal(got->volume_masks[z], want_masks[z]);
  }
  EXPECT_EQ(got->replaced_count, want.volume->replaced_count);
  server.stop();
  std::remove(path.c_str());
}

// (c) Trace ids flow wire → obs spans → terminal frame.
TEST(Net, TraceIdPropagatesThroughSpans) {
  zo::set_enabled(true);
  zo::TraceCollector::global().clear();
  const std::uint64_t kTraceId = 0x5EEDF00Dull;

  {
    zs::SegmentService service;
    zn::Server server(service);
    auto [client, server_fd] = zn::Client::loopback_pair();
    server.adopt(server_fd);
    ASSERT_TRUE(client.hello(9));
    zn::WireRequestOptions opts;
    opts.trace_id = kTraceId;
    const std::uint64_t rid =
        client.submit_slice(zi::AnyImage(make_slice(32, 3).raw), kPrompt, opts);
    const auto got = client.wait_for(rid);
    ASSERT_TRUE(got.has_value());
    ASSERT_EQ(got->type, zn::FrameType::kResponse);
    EXPECT_EQ(got->trace_id, kTraceId);  // client-chosen id echoed back
    server.stop();
  }

  // The wire-level span and the service's spans carry the same id — the
  // whole request stitches into one trace.
  bool saw_net_request = false;
  bool saw_service_span = false;
  for (const zo::SpanEvent& ev : zo::TraceCollector::global().snapshot()) {
    if (ev.trace_id != kTraceId) continue;
    const std::string name = ev.name;
    if (name == "net.request") saw_net_request = true;
    if (name.rfind("serve.", 0) == 0 || name == "net.submit") {
      saw_service_span = true;
    }
  }
  zo::set_enabled(false);
  EXPECT_TRUE(saw_net_request);
  EXPECT_TRUE(saw_service_span);
}

// (d) Service admission sheds map onto the wire reasons clients know.
TEST(Net, ServiceAdmissionShedsAsWireRejects) {
  zs::ServiceConfig scfg;
  scfg.queue_capacity = 3;
  scfg.tenants[1] = {1, 2};  // quota: 2 queued requests
  zs::SegmentService service(scfg);
  service.pause();
  zn::Server server(service);

  auto [c1, fd1] = zn::Client::loopback_pair();
  auto [c2, fd2] = zn::Client::loopback_pair();
  server.adopt(fd1);
  server.adopt(fd2);
  ASSERT_TRUE(c1.hello(1));
  ASSERT_TRUE(c2.hello(2));
  const auto img = zi::AnyImage(make_slice(24, 4).raw);

  // Tenant 1 fills its quota of 2, then sheds with TenantQuota.
  const std::uint64_t a = c1.submit_slice(img, kPrompt);
  const std::uint64_t b = c1.submit_slice(img, kPrompt);
  const std::uint64_t over_quota = c1.submit_slice(img, kPrompt);
  const auto rq = c1.wait_for(over_quota);
  ASSERT_TRUE(rq.has_value());
  EXPECT_EQ(rq->type, zn::FrameType::kRejected);
  EXPECT_EQ(rq->reject, zn::WireReject::kTenantQuota);
  EXPECT_EQ(rq->error.code, zenesis::core::ErrorCode::kQueueFull);

  // Tenant 2 fills the service queue to queue_capacity, then sheds with
  // Overloaded.
  const std::uint64_t c = c2.submit_slice(img, kPrompt);
  const std::uint64_t overload = c2.submit_slice(img, kPrompt);
  const auto ro = c2.wait_for(overload);
  ASSERT_TRUE(ro.has_value());
  EXPECT_EQ(ro->type, zn::FrameType::kRejected);
  EXPECT_EQ(ro->reject, zn::WireReject::kOverloaded);
  EXPECT_EQ(ro->error.code, zenesis::core::ErrorCode::kQueueFull);

  service.resume();
  for (const std::uint64_t rid : {a, b}) {
    const auto r = c1.wait_for(rid);
    ASSERT_TRUE(r.has_value());
    EXPECT_EQ(r->type, zn::FrameType::kResponse);
  }
  {
    const auto r = c2.wait_for(c);
    ASSERT_TRUE(r.has_value());
    EXPECT_EQ(r->type, zn::FrameType::kResponse);
  }
  server.stop();

  const zn::NetStats nstats = server.stats();
  EXPECT_EQ(nstats.shed_tenant_quota, 1u);
  EXPECT_EQ(nstats.shed_overloaded, 1u);
  EXPECT_EQ(nstats.rejected_sent, 2u);
  EXPECT_EQ(nstats.tenants.at(1).shed, 1u);
  EXPECT_EQ(nstats.tenants.at(1).completed, 2u);
  // One admission point: the wire sheds are the service's own rejects.
  const zs::ServiceStats sstats = service.stats();
  EXPECT_EQ(sstats.rejected_queue_full, 1u);
  EXPECT_EQ(sstats.rejected_tenant_quota, 1u);
  EXPECT_EQ(sstats.admitted, 3u);
}

// (e) Counters: NetStats and dashboard keys.
TEST(Net, StatsFlowIntoDashboard) {
  zenesis::core::Session session;
  zs::SegmentService service;
  zn::Server server(service);

  {
    auto [client, server_fd] = zn::Client::loopback_pair();
    server.adopt(server_fd);
    ASSERT_TRUE(client.hello(4));
    const std::uint64_t rid =
        client.submit_slice(zi::AnyImage(make_slice(24, 2).raw), kPrompt);
    const auto r = client.wait_for(rid);
    ASSERT_TRUE(r.has_value());
    EXPECT_EQ(r->type, zn::FrameType::kResponse);
  }  // client destructor closes the connection

  // Wait until the event loop notices the disconnect.
  const auto deadline = std::chrono::steady_clock::now() + 10s;
  while (server.stats().connections_active > 0 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(1ms);
  }
  EXPECT_EQ(server.stats().connections_accepted, 1u);
  EXPECT_EQ(server.stats().connections_active, 0u);

  server.publish_stats(session.dashboard());
  service.publish_stats(session.dashboard());
  const auto& published = session.dashboard().stats();
  ASSERT_NE(published.count("net_connections_accepted"), 0u);
  EXPECT_EQ(published.at("net_connections_accepted"), 1.0);
  ASSERT_NE(published.count("net_responses_sent"), 0u);
  EXPECT_EQ(published.at("net_responses_sent"), 1.0);
  ASSERT_NE(published.count("net_wire_us_p50"), 0u);
  ASSERT_NE(published.count("serve_completed"), 0u);
  EXPECT_EQ(published.at("serve_completed"), 1.0);

  server.stop();
  const zn::NetStats nstats = server.stats();
  EXPECT_EQ(nstats.requests_received, 1u);
  EXPECT_EQ(nstats.responses_sent, 1u);
  EXPECT_EQ(nstats.frames_in, 2u);  // hello + slice request
  EXPECT_GE(nstats.bytes_in, 2u * zn::kHeaderBytes);
}

TEST(Net, ConfigValidationSurfacesEveryIssue) {
  zn::ServerConfig cfg;
  cfg.max_connections = 0;
  cfg.partial_frame_timeout = std::chrono::milliseconds(0);
  cfg.drain_timeout = std::chrono::milliseconds(-1);
  cfg.limits.max_frame_bytes = 1;
  EXPECT_EQ(cfg.validate().size(), 4u);
  zs::SegmentService service;
  EXPECT_THROW(zn::Server(service, cfg), std::invalid_argument);
}

// A connection over max_connections gets one Error{LimitExceeded} frame
// and EOF, counted as a refused connection — not as a shed request.
TEST(Net, ConnectionOverLimitIsRefusedAndCounted) {
  zs::SegmentService service;
  zn::ServerConfig cfg;
  cfg.max_connections = 1;
  zn::Server server(service, cfg);

  auto [first, fd1] = zn::Client::loopback_pair();
  server.adopt(fd1);
  ASSERT_TRUE(first.hello(1));
  auto [second, fd2] = zn::Client::loopback_pair();
  server.adopt(fd2);

  std::vector<zn::ServerMessage> seen;
  const auto deadline = std::chrono::steady_clock::now() + 5s;
  while (!second.peer_closed() && std::chrono::steady_clock::now() < deadline) {
    if (auto msg = second.recv(50ms)) seen.push_back(std::move(*msg));
  }
  EXPECT_TRUE(second.peer_closed());
  ASSERT_EQ(seen.size(), 1u);
  EXPECT_EQ(seen[0].type, zn::FrameType::kError);
  EXPECT_EQ(seen[0].error.code, zenesis::core::ErrorCode::kLimitExceeded);

  // The first connection keeps working.
  const std::uint64_t rid =
      first.submit_slice(zi::AnyImage(make_slice(24, 12).raw), kPrompt);
  const auto r = first.wait_for(rid);
  ASSERT_TRUE(r.has_value());
  EXPECT_EQ(r->type, zn::FrameType::kResponse);

  const zn::NetStats ns = server.stats();
  EXPECT_EQ(ns.connections_refused, 1u);
  EXPECT_EQ(ns.connections_accepted, 1u);
  EXPECT_EQ(ns.shed_overloaded, 0u);
  server.stop();
}

TEST(Net, TcpListenerServesClients) {
  zs::SegmentService service;
  zn::Server server(service);
  std::uint16_t port = 0;
  try {
    port = server.listen_tcp(0);
  } catch (const std::runtime_error&) {
    GTEST_SKIP() << "loopback TCP unavailable in this environment";
  }
  ASSERT_NE(port, 0);

  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(fd, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  ASSERT_EQ(::connect(fd, reinterpret_cast<const sockaddr*>(&addr),
                      sizeof(addr)),
            0);
  zn::Client client(fd);
  ASSERT_TRUE(client.hello(11));
  const std::uint64_t rid =
      client.submit_slice(zi::AnyImage(make_slice(24, 6).raw), kPrompt);
  const auto r = client.wait_for(rid);
  ASSERT_TRUE(r.has_value());
  EXPECT_EQ(r->type, zn::FrameType::kResponse);
  server.stop();
}
