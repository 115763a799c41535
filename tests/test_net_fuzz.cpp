// Protocol fuzz replay for zenesis::net — see tests/net_fuzz_harness.hpp
// for the contract the mutants enforce. The same harness is replayed by
// tools/ci.sh under TSAN/ASAN/UBSan.

#include <gtest/gtest.h>

#include <chrono>

#include "tests/net_fuzz_harness.hpp"
#include "zenesis/net/client.hpp"
#include "zenesis/net/server.hpp"
#include "zenesis/serve/service.hpp"

namespace zn = zenesis::net;
namespace zs = zenesis::serve;
using namespace std::chrono_literals;

namespace {

/// Tight limits so length-bomb mutants are refused before allocation and
/// thousands of conversations stay cheap even under sanitizers.
zn::NetLimits fuzz_limits() {
  zn::NetLimits limits;
  limits.max_frame_bytes = 1u << 20;  // 1 MiB
  limits.max_pixels = 64 * 64;
  limits.max_prompt_bytes = 256;
  limits.max_path_bytes = 256;
  limits.max_ping_bytes = 64;
  return limits;
}

zn::ServerConfig fuzz_config() {
  zn::ServerConfig cfg;
  cfg.limits = fuzz_limits();
  // Mutants that desync the stream leave half a frame buffered; a short
  // partial-frame timeout turns those into bounded kTimeout closes
  // instead of watchdog hangs.
  cfg.partial_frame_timeout = 300ms;
  return cfg;
}

}  // namespace

TEST(NetFuzz, MutantsDecodeOrFailCleanly) {
  zs::SegmentService service;
  zn::Server server(service, fuzz_config());

  const std::size_t kMutantsPerEntry = 256;  // x8 corpus entries = 2048
  const zn::fuzz::FuzzStats stats = zn::fuzz::run_fuzz(
      server, fuzz_limits(), /*seed=*/0x5EED5EEDull, kMutantsPerEntry,
      /*watchdog=*/10000ms);

  for (const std::string& f : stats.failures) ADD_FAILURE() << f;
  EXPECT_TRUE(stats.failures.empty());
  EXPECT_GE(stats.mutants, 2000u);
  // The pristine corpus entries alone guarantee real traffic; mutants add
  // more. If these are zero the harness is not actually talking to the
  // server.
  EXPECT_GT(stats.responses, 0u);
  EXPECT_GT(stats.errors, 0u);
  EXPECT_GT(stats.acks_pongs, 0u);
  EXPECT_GT(stats.clean_eof, 0u);

  // After the storm the server must still serve a well-formed client.
  auto [client, server_fd] = zn::Client::loopback_pair(fuzz_limits());
  server.adopt(server_fd);
  ASSERT_TRUE(client.hello(1));
  ASSERT_TRUE(client.ping({1, 2, 3}));

  // And the queue must be fully drained: every decoded request got its
  // terminal frame, nothing leaked a slot.
  server.stop();
  EXPECT_EQ(service.queue_depth(), 0u);
  EXPECT_EQ(server.inflight(), 0u);

  const zn::NetStats ns = server.stats();
  RecordProperty("mutants", static_cast<int>(stats.mutants));
  RecordProperty("protocol_errors", static_cast<int>(ns.protocol_errors));
  // Mutant streams necessarily trip protocol errors.
  EXPECT_GT(ns.protocol_errors, 0u);
}

TEST(NetFuzz, SameSeedSameOutcome) {
  const auto run_once = [] {
    zs::SegmentService service;
    zn::Server server(service, fuzz_config());
    return zn::fuzz::run_fuzz(server, fuzz_limits(), /*seed=*/42,
                              /*mutants_per_entry=*/24, /*watchdog=*/10000ms);
  };
  const zn::fuzz::FuzzStats a = run_once();
  const zn::fuzz::FuzzStats b = run_once();
  EXPECT_TRUE(a.failures.empty());
  EXPECT_TRUE(b.failures.empty());
  EXPECT_EQ(a.mutants, b.mutants);
  // Byte-stream determinism: the same seed replays the same mutants, so
  // per-frame-deterministic tallies must match exactly. Acks/pongs and
  // terminal-frame *totals* are functions of the byte stream alone; only
  // the Response/Rejected split can drift (a cancel racing an in-flight
  // request), so those are compared summed.
  EXPECT_EQ(a.acks_pongs, b.acks_pongs);
  EXPECT_EQ(a.responses + a.rejected + a.errors,
            b.responses + b.rejected + b.errors);
}
