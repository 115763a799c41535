// Thousand-client soak for zenesis::net (ISSUE-9 satellite): 1000
// concurrent loopback connections across 8 weighted tenants submit 2000
// mixed-priority slice requests against one poll() event loop, and every
// response must be byte-identical to a direct SegmentService::submit of
// the same image. The image pool is small on purpose — repeats exercise
// the feature-cache/memoization path exactly like production fan-in.
// Passing under ASAN (zero leaks) and TSAN is part of the acceptance
// criteria; tools/ci.sh runs this binary in both stages.
#include <gtest/gtest.h>

#include <chrono>
#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

#include "zenesis/eval/dashboard.hpp"
#include "zenesis/fibsem/synth.hpp"
#include "zenesis/net/client.hpp"
#include "zenesis/net/frame.hpp"
#include "zenesis/net/server.hpp"
#include "zenesis/serve/service.hpp"

namespace ze = zenesis::eval;
namespace zf = zenesis::fibsem;
namespace zi = zenesis::image;
namespace zn = zenesis::net;
namespace zs = zenesis::serve;

using namespace std::chrono_literals;

namespace {

constexpr std::size_t kClients = 1000;
constexpr std::size_t kRequestsPerClient = 2;
constexpr std::size_t kTenants = 8;
constexpr const char* kPrompt = "bright needle-like crystalline catalyst";

std::vector<zi::AnyImage> make_image_pool() {
  std::vector<zi::AnyImage> pool;
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    zf::SynthConfig cfg;
    cfg.type = zf::SampleType::kCrystalline;
    cfg.width = 24;
    cfg.height = 24;
    cfg.seed = seed;
    pool.emplace_back(zf::generate_slice(cfg, 0).raw);
  }
  return pool;
}

}  // namespace

TEST(NetSoak, ThousandClientsByteIdenticalToDirectSubmit) {
  zs::ServiceConfig scfg;
  // Quotas sized so nothing sheds: the assertion below is that a fully
  // loaded but in-spec swarm is served completely, not throttled.
  scfg.default_tenant = {/*weight=*/1, /*max_queued=*/4096};
  for (std::uint32_t t = 0; t < kTenants; ++t) {
    scfg.tenants[t + 1] = {/*weight=*/1 + t % 3, /*max_queued=*/4096};
  }
  scfg.queue_capacity = 4096;
  zs::SegmentService service(scfg);
  zn::Server server(service);

  const std::vector<zi::AnyImage> pool = make_image_pool();

  // Reference outputs straight from the service (same instance, so the
  // wire path and the direct path share every cache the service owns).
  std::vector<zs::Response> want;
  for (const zi::AnyImage& img : pool) {
    want.push_back(service.submit(zs::Request::slice(img, kPrompt)).get());
    ASSERT_EQ(want.back().status, zs::Response::Status::kOk);
    ASSERT_TRUE(want.back().slice.has_value());
  }

  // Phase 1: connect + hello everyone. 1000 live fds on one poll loop.
  std::vector<zn::Client> clients;
  clients.reserve(kClients);
  for (std::size_t i = 0; i < kClients; ++i) {
    auto [client, server_fd] = zn::Client::loopback_pair();
    server.adopt(server_fd);
    clients.push_back(std::move(client));
  }
  for (std::size_t i = 0; i < kClients; ++i) {
    ASSERT_TRUE(clients[i].hello(static_cast<std::uint32_t>(i % kTenants) + 1))
        << "client " << i;
  }

  // Phase 2: everyone submits, mixed priorities, before anyone reads —
  // maximal concurrent backlog through the fairness machinery.
  std::vector<std::vector<std::uint64_t>> rids(kClients);
  for (std::size_t r = 0; r < kRequestsPerClient; ++r) {
    for (std::size_t i = 0; i < kClients; ++i) {
      const std::size_t img = (i + r) % pool.size();
      zn::WireRequestOptions opts;
      opts.priority = static_cast<std::int32_t>(i % 5) - 2;
      const std::uint64_t rid = clients[i].submit_slice(pool[img], kPrompt, opts);
      ASSERT_NE(rid, 0u) << "client " << i << " request " << r;
      rids[i].push_back(rid);
    }
  }

  // Phase 3: collect and compare byte-for-byte against the direct path.
  for (std::size_t i = 0; i < kClients; ++i) {
    for (std::size_t r = 0; r < kRequestsPerClient; ++r) {
      const auto resp = clients[i].wait_for(rids[i][r], 120000ms);
      ASSERT_TRUE(resp.has_value()) << "client " << i << " request " << r;
      ASSERT_EQ(resp->type, zn::FrameType::kResponse)
          << "client " << i << " request " << r;
      const zs::Response& ref = want[(i + r) % pool.size()];
      EXPECT_EQ(resp->confidence, ref.slice->confidence);
      const auto got_px = resp->mask.pixels();
      const auto ref_px = ref.slice->mask.pixels();
      ASSERT_EQ(got_px.size(), ref_px.size());
      EXPECT_EQ(std::memcmp(got_px.data(), ref_px.data(), got_px.size()), 0)
          << "client " << i << " request " << r;
    }
  }

  // The swarm was in-spec: everything served, nothing shed, no errors.
  zn::NetStats ns = server.stats();
  EXPECT_EQ(ns.connections_accepted, kClients);
  EXPECT_EQ(ns.connections_active, kClients);
  EXPECT_EQ(ns.requests_received, kClients * kRequestsPerClient);
  EXPECT_EQ(ns.responses_sent, kClients * kRequestsPerClient);
  EXPECT_EQ(ns.rejected_sent, 0u);
  EXPECT_EQ(ns.errors_sent, 0u);
  EXPECT_EQ(ns.shed_tenant_quota, 0u);
  EXPECT_EQ(ns.shed_overloaded, 0u);
  EXPECT_EQ(ns.protocol_errors, 0u);
  EXPECT_EQ(ns.tenants.size(), kTenants);
  EXPECT_EQ(service.stats().rejected_queue_full, 0u);
  EXPECT_GE(ns.wire_us.count(), kClients * kRequestsPerClient);

  // Wire-level latency histogram flows into the Mode-C dashboard.
  ze::Dashboard dashboard;
  server.publish_stats(dashboard);
  const auto& stats = dashboard.stats();
  ASSERT_TRUE(stats.count("net_connections_accepted"));
  EXPECT_EQ(stats.at("net_connections_accepted"), double(kClients));
  EXPECT_EQ(stats.at("net_responses_sent"),
            double(kClients * kRequestsPerClient));
  EXPECT_TRUE(stats.count("net_wire_us_p99"));

  clients.clear();  // all 1000 disconnect at once
  server.stop();
  EXPECT_EQ(service.queue_depth(), 0u);
  EXPECT_EQ(server.inflight(), 0u);
}
