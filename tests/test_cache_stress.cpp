// Contention stress for the cache hierarchy, designed to run under TSAN
// and ASAN (tools/ci.sh stages 3–4): mixed get/put/erase workloads at 8,
// 16 and 64 threads, a concurrent sampler asserting the byte-budget
// invariant mid-mutation, racing FeatureCache encodes, and the
// determinism sweep — masks must be byte-identical with caching off,
// single-shard, sharded, disk-tiered, and with the mask cache on.
#include <gtest/gtest.h>

#include <unistd.h>

#include <atomic>
#include <filesystem>
#include <memory>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include "zenesis/cache/feature_cache.hpp"
#include "zenesis/cache/sharded_lru.hpp"
#include "zenesis/core/pipeline.hpp"
#include "zenesis/fibsem/synth.hpp"

namespace {

using namespace zenesis;
using cache::Key128;
using IntCache = cache::ShardedLruCache<int>;

namespace fs = std::filesystem;

Key128 key(std::uint64_t n) {
  return Key128{n, n * 0x9e3779b97f4a7c15ull + 1};
}

/// Mixed-operation stress: every thread hammers a shared cache with a
/// deterministic per-thread RNG; the cache must stay within budget and
/// never serve a value that was not put for that key.
void run_mixed_stress(std::size_t threads, std::size_t shards,
                      int ops_per_thread) {
  cache::ShardedCacheConfig cfg;
  cfg.shards = shards;
  cfg.capacity = 64;
  cfg.byte_budget = 16 * 1024;
  IntCache cache(cfg);
  constexpr std::uint64_t kKeySpace = 256;

  std::atomic<bool> stop{false};
  std::atomic<std::uint64_t> value_mismatches{0};
  // Concurrent invariant sampler: the budget bound must hold at every
  // instant, not just at quiescence.
  std::thread sampler([&] {
    while (!stop.load(std::memory_order_acquire)) {
      const auto s = cache.stats();
      if (s.resident_bytes > cfg.byte_budget) {
        value_mismatches.fetch_add(1'000'000, std::memory_order_relaxed);
        return;
      }
    }
  });

  std::vector<std::thread> workers;
  for (std::size_t t = 0; t < threads; ++t) {
    workers.emplace_back([&, t] {
      std::mt19937_64 rng(0x5eed + t);
      for (int i = 0; i < ops_per_thread; ++i) {
        const std::uint64_t n = rng() % kKeySpace;
        switch (rng() % 4) {
          case 0:
          case 1: {
            // Values encode their key, so any cross-key leak is visible.
            const auto hit = cache.get(key(n));
            if (hit != nullptr && static_cast<std::uint64_t>(*hit) != n) {
              value_mismatches.fetch_add(1, std::memory_order_relaxed);
            }
            break;
          }
          case 2:
            (void)cache.put(key(n), std::make_shared<const int>(
                                        static_cast<int>(n)),
                            1 + n % 512);
            break;
          case 3:
            (void)cache.erase(key(n));
            break;
        }
      }
    });
  }
  for (auto& w : workers) w.join();
  stop.store(true, std::memory_order_release);
  sampler.join();

  EXPECT_EQ(value_mismatches.load(), 0u);
  const auto s = cache.stats();
  EXPECT_LE(s.resident_bytes, cfg.byte_budget);
  EXPECT_LE(s.resident_entries, cfg.capacity + cache.shard_count())
      << "per-shard ceil split may exceed capacity by at most one per shard";
}

TEST(CacheStress, MixedOps8Threads) { run_mixed_stress(8, 8, 3000); }
TEST(CacheStress, MixedOps16Threads) { run_mixed_stress(16, 8, 1500); }
TEST(CacheStress, MixedOps64Threads) { run_mixed_stress(64, 16, 400); }
TEST(CacheStress, MixedOpsSingleShard) { run_mixed_stress(16, 1, 1000); }

TEST(CacheStress, ConcurrentSameKeyPutsConvergeToOneValue) {
  cache::ShardedCacheConfig cfg;
  cfg.shards = 4;
  IntCache cache(cfg);
  const Key128 k = key(42);
  std::vector<std::thread> workers;
  std::atomic<std::uint64_t> bad_values{0};
  for (int t = 0; t < 8; ++t) {
    workers.emplace_back([&, t] {
      for (int i = 0; i < 500; ++i) {
        (void)cache.put(k, std::make_shared<const int>(t), 8);
        const auto hit = cache.get(k);
        // Whatever is resident must be some writer's value, intact.
        if (hit != nullptr && (*hit < 0 || *hit >= 8)) {
          bad_values.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  }
  for (auto& w : workers) w.join();
  EXPECT_EQ(bad_values.load(), 0u);
  const auto s = cache.stats();
  EXPECT_EQ(s.resident_entries, 1u);
  EXPECT_EQ(s.resident_bytes, 8u);
}

TEST(CacheStress, ConcurrentFeatureCacheEncodesShareOneEntryPerImage) {
  cache::FeatureCacheConfig cfg;
  cfg.capacity = 16;
  cfg.shards = 4;
  cache::FeatureCache cache(cfg);
  const models::VisionBackbone backbone;
  constexpr int kImages = 3;
  std::vector<image::ImageF32> images;
  for (int i = 0; i < kImages; ++i) {
    image::ImageF32 img(24, 24, 1);
    img.fill(0.1f * static_cast<float>(i + 1));
    images.push_back(std::move(img));
  }

  std::vector<std::thread> workers;
  std::atomic<std::uint64_t> divergences{0};
  for (int t = 0; t < 8; ++t) {
    workers.emplace_back([&, t] {
      std::mt19937_64 rng(t);
      for (int i = 0; i < 12; ++i) {
        const auto& img = images[rng() % kImages];
        const auto enc = cache.encode(img, backbone);
        // Every thread must observe the same encoding for an image.
        const auto again = cache.encode(img, backbone);
        const auto a = enc->enc.tokens.flat();
        const auto b = again->enc.tokens.flat();
        if (a.size() != b.size()) {
          divergences.fetch_add(1, std::memory_order_relaxed);
          continue;
        }
        for (std::size_t p = 0; p < a.size(); ++p) {
          if (a[p] != b[p]) {
            divergences.fetch_add(1, std::memory_order_relaxed);
            break;
          }
        }
      }
    });
  }
  for (auto& w : workers) w.join();
  EXPECT_EQ(divergences.load(), 0u);
  const auto s = cache.stats();
  // Concurrent cold misses may duplicate compute, but the steady state is
  // one entry per distinct image.
  EXPECT_EQ(s.resident_bytes > 0, true);
  EXPECT_GT(s.hits, 0u);
}

// --- Determinism sweep: every cache topology, byte-identical masks ---

class DeterminismSweep : public ::testing::Test {
 protected:
  static void expect_equal(const core::VolumeResult& a,
                           const core::VolumeResult& b, const char* what) {
    ASSERT_EQ(a.slices.size(), b.slices.size()) << what;
    ASSERT_EQ(a.replaced, b.replaced) << what;
    for (std::size_t i = 0; i < a.slices.size(); ++i) {
      const auto pa = a.slices[i].mask.pixels();
      const auto pb = b.slices[i].mask.pixels();
      ASSERT_EQ(pa.size(), pb.size()) << what << " slice " << i;
      for (std::size_t p = 0; p < pa.size(); ++p) {
        ASSERT_EQ(pa[p], pb[p])
            << what << " slice " << i << " pixel " << p;
      }
      ASSERT_EQ(a.slices[i].confidence, b.slices[i].confidence)
          << what << " slice " << i;
    }
  }
};

TEST_F(DeterminismSweep, MasksAreByteIdenticalAcrossCacheTopologies) {
  fibsem::SynthConfig synth;
  synth.type = fibsem::SampleType::kCrystalline;
  synth.width = 64;
  synth.height = 64;
  synth.depth = 4;
  synth.seed = 515;
  const fibsem::SyntheticVolume vol = fibsem::generate_volume(synth);
  const char* prompt = "bright needle-like crystalline catalyst";
  const auto run = [&](const core::PipelineConfig& cfg) {
    const core::ZenesisPipeline pipe(cfg);
    // Twice through the same pipeline: the second pass exercises warm
    // mask/feature caches and must change nothing.
    (void)pipe.segment_volume(core::VolumeRequest::view(vol.volume, prompt));
    return pipe.segment_volume(core::VolumeRequest::view(vol.volume, prompt));
  };

  core::PipelineConfig baseline;
  baseline.volume_threads = 1;
  baseline.feature_cache.capacity = 0;
  baseline.mask_cache.capacity = 0;
  const core::VolumeResult want = run(baseline);

  {
    core::PipelineConfig cfg;
    cfg.volume_threads = 2;
    cfg.feature_cache.shards = 1;
    cfg.mask_cache.capacity = 0;
    expect_equal(want, run(cfg), "single-shard feature cache");
  }
  {
    core::PipelineConfig cfg;
    cfg.volume_threads = 2;
    cfg.feature_cache.shards = 8;
    cfg.mask_cache.capacity = 0;
    expect_equal(want, run(cfg), "sharded feature cache");
  }
  {
    core::PipelineConfig cfg;
    cfg.volume_threads = 2;  // defaults: both caches on
    expect_equal(want, run(cfg), "mask cache on");
  }
  {
    const fs::path dir =
        fs::temp_directory_path() /
        ("zenesis_determinism_" + std::to_string(::getpid()));
    core::PipelineConfig cfg;
    cfg.volume_threads = 2;
    cfg.feature_cache.disk_path = dir.string();
    expect_equal(want, run(cfg), "disk-tiered, cold store");
    // A second pipeline over the now-warm store (deserialized encodings).
    expect_equal(want, run(cfg), "disk-tiered, warm store");
    std::error_code ec;
    fs::remove_all(dir, ec);
  }
}

}  // namespace
