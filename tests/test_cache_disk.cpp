// The persistent cache tier: record round-trips, crash/corruption
// recovery (truncation, bit flips, stale versions, wrong keys, orphaned
// temps), concurrent readers racing an atomic writer, the hardened
// SamEncoded codec under fuzzed input, and the obs-verified warm-restart
// contract: a fresh process on a warm disk store runs zero sam.encode
// spans.
#include <gtest/gtest.h>

#include <unistd.h>

#include <atomic>
#include <cstdio>
#include <filesystem>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include "zenesis/cache/disk_store.hpp"
#include "zenesis/cache/serialize.hpp"
#include "zenesis/core/pipeline.hpp"
#include "zenesis/fibsem/synth.hpp"
#include "zenesis/obs/trace.hpp"

namespace {

using namespace zenesis;
using cache::DiskStore;
using cache::DiskStoreConfig;
using cache::Key128;

namespace fs = std::filesystem;

/// Unique on-disk scratch directory, removed on scope exit.
class TempDir {
 public:
  TempDir() {
    static std::atomic<int> counter{0};
    path_ = fs::temp_directory_path() /
            ("zenesis_cache_test_" + std::to_string(::getpid()) + "_" +
             std::to_string(counter.fetch_add(1)));
    fs::create_directories(path_);
  }
  ~TempDir() {
    std::error_code ec;
    fs::remove_all(path_, ec);
  }
  const fs::path& path() const { return path_; }
  std::string str() const { return path_.string(); }

 private:
  fs::path path_;
};

std::vector<std::byte> make_payload(std::size_t n, unsigned seed) {
  std::vector<std::byte> p(n);
  std::mt19937 rng(seed);
  for (auto& b : p) b = static_cast<std::byte>(rng() & 0xFF);
  return p;
}

std::vector<std::byte> read_raw(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  EXPECT_NE(f, nullptr);
  std::fseek(f, 0, SEEK_END);
  std::vector<std::byte> out(static_cast<std::size_t>(std::ftell(f)));
  std::fseek(f, 0, SEEK_SET);
  EXPECT_EQ(std::fread(out.data(), 1, out.size(), f), out.size());
  std::fclose(f);
  return out;
}

void write_raw(const std::string& path, const std::vector<std::byte>& data) {
  std::FILE* f = std::fopen(path.c_str(), "wb");
  ASSERT_NE(f, nullptr);
  ASSERT_EQ(std::fwrite(data.data(), 1, data.size(), f), data.size());
  std::fclose(f);
}

models::SamEncoded real_encoding() {
  image::ImageF32 img(40, 32, 1);
  for (std::int64_t y = 0; y < img.height(); ++y) {
    for (std::int64_t x = 0; x < img.width(); ++x) {
      img.at(x, y) = static_cast<float>((3 * x + 5 * y) % 17) / 17.0f;
    }
  }
  return models::SamModel().encode(img);
}

// --- Round trips ---

TEST(DiskStore, PayloadRoundTripsByteForByte) {
  TempDir dir;
  DiskStore store(DiskStoreConfig{dir.str()});
  const Key128 key{0x1234, 0x5678};
  const auto payload = make_payload(4096, 11);
  ASSERT_TRUE(store.put(key, payload));
  const auto got = store.get(key);
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(*got, payload);
  const auto s = store.stats();
  EXPECT_EQ(s.hits, 1u);
  EXPECT_EQ(s.writes, 1u);
  EXPECT_EQ(s.corrupt_drops, 0u);
}

TEST(DiskStore, EmptyPayloadAndMissingKeyBehave) {
  TempDir dir;
  DiskStore store(DiskStoreConfig{dir.str()});
  EXPECT_FALSE(store.get(Key128{1, 2}).has_value());
  EXPECT_EQ(store.stats().misses, 1u);
  ASSERT_TRUE(store.put(Key128{1, 2}, {}));
  const auto got = store.get(Key128{1, 2});
  ASSERT_TRUE(got.has_value());
  EXPECT_TRUE(got->empty());
}

TEST(SerializeEncoded, SamEncodedRoundTripsBitExactly) {
  const models::SamEncoded enc = real_encoding();
  const auto payload = cache::serialize_encoded(enc);
  EXPECT_FALSE(payload.empty());
  const auto back = cache::deserialize_encoded(payload);
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(back->maps.width, enc.maps.width);
  EXPECT_EQ(back->maps.height, enc.maps.height);
  for (std::size_t c = 0; c < enc.maps.channels.size(); ++c) {
    const auto a = enc.maps.channels[c].pixels();
    const auto b = back->maps.channels[c].pixels();
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i) {
      ASSERT_EQ(a[i], b[i]) << "channel " << c << " pixel " << i;
    }
  }
  const auto ta = enc.enc.tokens.flat();
  const auto tb = back->enc.tokens.flat();
  ASSERT_EQ(ta.size(), tb.size());
  for (std::size_t i = 0; i < ta.size(); ++i) ASSERT_EQ(ta[i], tb[i]);
  EXPECT_EQ(back->enc.grid_h, enc.enc.grid_h);
  EXPECT_EQ(back->enc.grid_w, enc.enc.grid_w);
  EXPECT_EQ(back->enc.patch_size, enc.enc.patch_size);
  // The byte charge covers the real float payload.
  EXPECT_GT(cache::encoded_bytes(enc), payload.size() / 2);
}

// --- Corruption recovery ---

TEST(DiskStore, TruncatedRecordIsACleanMissAndIsDropped) {
  const auto payload = make_payload(512, 3);
  const Key128 key{7, 9};
  // Sweep truncation lengths across the header and into the payload.
  for (const std::size_t keep :
       {std::size_t{0}, std::size_t{3}, std::size_t{8}, std::size_t{24},
        std::size_t{39}, std::size_t{40}, std::size_t{41}, std::size_t{300},
        std::size_t{551}}) {
    TempDir dir;
    DiskStore store(DiskStoreConfig{dir.str()});
    ASSERT_TRUE(store.put(key, payload));
    auto raw = read_raw(store.path_for(key));
    ASSERT_EQ(raw.size(), DiskStore::kHeaderBytes + payload.size());
    raw.resize(keep);
    write_raw(store.path_for(key), raw);
    EXPECT_FALSE(store.get(key).has_value()) << "keep=" << keep;
    EXPECT_EQ(store.stats().corrupt_drops, 1u) << "keep=" << keep;
    EXPECT_FALSE(fs::exists(store.path_for(key)))
        << "corrupt record must be deleted (keep=" << keep << ")";
    // The slot is free again: the next put rewrites and serves.
    ASSERT_TRUE(store.put(key, payload));
    EXPECT_EQ(store.get(key), payload);
  }
}

TEST(DiskStore, EveryByteFlipIsDetectedNeverWrongData) {
  const auto payload = make_payload(256, 5);
  const Key128 key{0xAB, 0xCD};
  TempDir dir;
  DiskStore store(DiskStoreConfig{dir.str()});
  ASSERT_TRUE(store.put(key, payload));
  const auto pristine = read_raw(store.path_for(key));
  for (std::size_t off = 0; off < pristine.size(); ++off) {
    auto raw = pristine;
    raw[off] ^= std::byte{0x40};
    write_raw(store.path_for(key), raw);
    const auto got = store.get(key);
    // A flip in the reserved header word is the only tolerable survivor;
    // anywhere else the record must be rejected, and a served payload
    // must always equal what was written.
    if (got.has_value()) {
      EXPECT_TRUE(off >= 36 && off < 40)
          << "flip at offset " << off << " served a record";
      EXPECT_EQ(*got, payload);
    } else {
      EXPECT_FALSE(fs::exists(store.path_for(key)));
    }
    write_raw(store.path_for(key), pristine);  // restore for the next flip
  }
}

TEST(DiskStore, VersionMismatchIsIgnoredAndRewritten) {
  const auto payload = make_payload(128, 9);
  const Key128 key{21, 42};
  TempDir dir;
  DiskStore store(DiskStoreConfig{dir.str()});
  ASSERT_TRUE(store.put(key, payload));
  auto raw = read_raw(store.path_for(key));
  raw[4] = std::byte{0x7F};  // future format version
  write_raw(store.path_for(key), raw);
  EXPECT_FALSE(store.get(key).has_value());
  const auto s = store.stats();
  EXPECT_EQ(s.version_mismatches, 1u);
  EXPECT_EQ(s.corrupt_drops, 0u) << "stale version is not corruption";
  EXPECT_FALSE(fs::exists(store.path_for(key)))
      << "stale record must yield its slot for the rewrite";
  ASSERT_TRUE(store.put(key, payload));
  EXPECT_EQ(store.get(key), payload);
}

TEST(DiskStore, RecordUnderTheWrongFilenameIsRejected) {
  const auto payload = make_payload(64, 2);
  const Key128 key{100, 200};
  const Key128 other{300, 400};
  TempDir dir;
  DiskStore store(DiskStoreConfig{dir.str()});
  ASSERT_TRUE(store.put(key, payload));
  // Simulate a misplaced/renamed record: valid bytes, wrong slot.
  fs::copy_file(store.path_for(key), store.path_for(other));
  EXPECT_FALSE(store.get(other).has_value())
      << "embedded key must guard against renamed records";
  EXPECT_EQ(store.stats().corrupt_drops, 1u);
  EXPECT_EQ(store.get(key), payload) << "the rightful record is untouched";
}

TEST(DiskStore, OrphanedTempFilesAreSweptAtOpen) {
  TempDir dir;
  const fs::path crash_temp =
      dir.path() / "0000000000000001-0000000000000002.zfe.tmp-999-0";
  write_raw(crash_temp.string(), make_payload(100, 1));
  ASSERT_TRUE(fs::exists(crash_temp));
  DiskStore store(DiskStoreConfig{dir.str()});
  EXPECT_FALSE(fs::exists(crash_temp))
      << "a crashed writer's temp must not accumulate";
}

TEST(DiskStore, ScanReportsValidityAndPurgeEmptiesTheStore) {
  TempDir dir;
  DiskStore store(DiskStoreConfig{dir.str()});
  ASSERT_TRUE(store.put(Key128{1, 1}, make_payload(64, 1)));
  ASSERT_TRUE(store.put(Key128{2, 2}, make_payload(64, 2)));
  auto raw = read_raw(store.path_for(Key128{2, 2}));
  raw.back() ^= std::byte{0xFF};
  write_raw(store.path_for(Key128{2, 2}), raw);

  const auto records = store.scan();
  ASSERT_EQ(records.size(), 2u);
  int valid = 0, invalid = 0;
  for (const auto& r : records) {
    if (r.valid) {
      ++valid;
      EXPECT_EQ(r.payload_bytes, 64u);
      EXPECT_TRUE(r.problem.empty());
    } else {
      ++invalid;
      EXPECT_FALSE(r.problem.empty());
    }
  }
  EXPECT_EQ(valid, 1);
  EXPECT_EQ(invalid, 1);
  EXPECT_EQ(store.stats().hits + store.stats().misses, 0u)
      << "scan must not touch traffic counters";

  EXPECT_EQ(store.purge(), 2u);
  EXPECT_TRUE(store.scan().empty());
}

TEST(DiskStore, UnusableDirectoryThrowsAtConstruction) {
  EXPECT_THROW(DiskStore(DiskStoreConfig{""}), std::invalid_argument);
  TempDir dir;
  const std::string file_path = (dir.path() / "a_file").string();
  write_raw(file_path, make_payload(4, 1));
  EXPECT_THROW(DiskStore(DiskStoreConfig{file_path}), std::invalid_argument);
}

// --- Concurrency: readers race an atomic writer ---

TEST(DiskStore, ConcurrentReadersSeeOnlyCompleteRecords) {
  TempDir dir;
  DiskStore store(DiskStoreConfig{dir.str()});
  const Key128 key{77, 88};
  const auto a = make_payload(32 * 1024, 1);
  const auto b = make_payload(48 * 1024, 2);
  ASSERT_TRUE(store.put(key, a));

  std::atomic<bool> done{false};
  std::atomic<int> torn_reads{0};
  std::atomic<std::uint64_t> good_reads{0};
  std::vector<std::thread> readers;
  for (int t = 0; t < 3; ++t) {
    readers.emplace_back([&] {
      while (!done.load(std::memory_order_acquire)) {
        const auto got = store.get(key);
        if (!got.has_value()) continue;  // mid-rename on non-POSIX only
        if (*got == a || *got == b) {
          good_reads.fetch_add(1, std::memory_order_relaxed);
        } else {
          torn_reads.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  }
  for (int i = 0; i < 120; ++i) {
    ASSERT_TRUE(store.put(key, (i % 2 == 0) ? b : a));
  }
  done.store(true, std::memory_order_release);
  for (auto& th : readers) th.join();
  EXPECT_EQ(torn_reads.load(), 0)
      << "a reader saw a torn record despite temp+rename";
  EXPECT_GT(good_reads.load(), 0u);
  EXPECT_EQ(store.stats().corrupt_drops, 0u);
}

// --- The hardened codec under hostile bytes ---

TEST(SerializeEncoded, FuzzedPayloadsNeverCrashTheParser) {
  const auto valid = cache::serialize_encoded(real_encoding());
  // Every strict truncation must fail cleanly (the format is
  // fully-consuming), including cuts inside dimension fields.
  for (std::size_t keep = 0; keep < valid.size();
       keep += 1 + keep / 7) {
    const auto got = cache::deserialize_encoded(valid.data(), keep);
    EXPECT_FALSE(got.has_value()) << "truncation at " << keep << " parsed";
  }
  // Random mutations: must never crash or over-allocate; parsing to a
  // value is acceptable when the damage lands in float payloads.
  std::mt19937_64 rng(99);
  for (int round = 0; round < 300; ++round) {
    auto fuzzed = valid;
    const int flips = 1 + static_cast<int>(rng() % 8);
    for (int f = 0; f < flips; ++f) {
      fuzzed[rng() % fuzzed.size()] ^= static_cast<std::byte>(1 + rng() % 255);
    }
    (void)cache::deserialize_encoded(fuzzed);
  }
  // Pure noise of various sizes.
  for (const std::size_t n : {0u, 1u, 7u, 39u, 40u, 41u, 1000u, 65536u}) {
    const auto noise = make_payload(n, static_cast<unsigned>(n) + 1);
    (void)cache::deserialize_encoded(noise);
  }
}

// --- Warm restart: the acceptance criterion ---

TEST(WarmRestart, SecondProcessSkipsEveryEncodeAndMatchesMasks) {
  TempDir dir;
  fibsem::SynthConfig synth;
  synth.type = fibsem::SampleType::kCrystalline;
  synth.width = 64;
  synth.height = 64;
  synth.depth = 3;
  synth.seed = 902;
  const fibsem::SyntheticVolume vol = fibsem::generate_volume(synth);
  const char* prompt = "bright needle-like crystalline catalyst";

  core::PipelineConfig cfg;
  cfg.volume_threads = 1;
  cfg.feature_cache.disk_path = dir.str();

  // Cold process: every slice is encoded once and persisted.
  const core::ZenesisPipeline cold(cfg);
  const core::VolumeResult first =
      cold.segment_volume(core::VolumeRequest::view(vol.volume, prompt));
  const auto cold_stats = cold.cache_stats();
  EXPECT_EQ(cold_stats.misses, static_cast<std::uint64_t>(synth.depth));
  EXPECT_EQ(cold_stats.disk_writes, static_cast<std::uint64_t>(synth.depth));

  // "Fresh process": a new pipeline (empty L1, empty mask cache) pointed
  // at the same directory. Obs-verified: the retained trace window must
  // contain zero sam.encode spans — the disk tier absorbed them all.
  const core::ZenesisPipeline warm(cfg);
  obs::TraceCollector::global().clear();
  obs::set_enabled(true);
  const core::VolumeResult second =
      warm.segment_volume(core::VolumeRequest::view(vol.volume, prompt));
  obs::set_enabled(false);
  std::uint64_t encodes = 0, disk_reads = 0;
  for (const auto& span : obs::TraceCollector::global().snapshot()) {
    if (std::string(span.name) == "sam.encode") ++encodes;
    if (std::string(span.name) == "cache.disk_read") ++disk_reads;
  }
  EXPECT_EQ(encodes, 0u)
      << "warm restart must serve every encoding from the disk tier";
  EXPECT_GT(disk_reads, 0u);
  const auto warm_stats = warm.cache_stats();
  EXPECT_EQ(warm_stats.misses, 0u);
  EXPECT_EQ(warm_stats.disk_hits, static_cast<std::uint64_t>(synth.depth));

  // Determinism across the restart: byte-identical masks.
  ASSERT_EQ(first.slices.size(), second.slices.size());
  for (std::size_t i = 0; i < first.slices.size(); ++i) {
    const auto pa = first.slices[i].mask.pixels();
    const auto pb = second.slices[i].mask.pixels();
    ASSERT_EQ(pa.size(), pb.size());
    for (std::size_t p = 0; p < pa.size(); ++p) {
      ASSERT_EQ(pa[p], pb[p]) << "slice " << i << " pixel " << p;
    }
  }
}

TEST(WarmRestart, PrehashedEntryHitsRecordsOfTheHashingEntry) {
  TempDir dir;
  image::ImageF32 img(40, 32, 1);
  for (std::int64_t y = 0; y < img.height(); ++y) {
    for (std::int64_t x = 0; x < img.width(); ++x) {
      img.at(x, y) = static_cast<float>((7 * x + 3 * y) % 19) / 19.0f;
    }
  }
  const models::SamModel sam;
  cache::FeatureCacheConfig cfg;
  cfg.disk_path = dir.str();
  {
    cache::FeatureCache writer(cfg);
    (void)writer.encode(img, sam.backbone());  // hashes the image itself
    EXPECT_EQ(writer.stats().disk_writes, 1u);
  }
  // A fresh cache on the same directory: the caller's hash names the
  // same record, so the encoder does not run.
  cache::FeatureCache reader(cfg);
  const auto enc = reader.encode(img, sam.backbone(), cache::hash_image(img));
  EXPECT_EQ(reader.stats().disk_hits, 1u);
  EXPECT_EQ(reader.stats().misses, 0u);
  EXPECT_EQ(cache::serialize_encoded(*enc), cache::serialize_encoded(sam.encode(img)));

  // The pipeline passes its mask key's image hash; with the mask cache
  // off it has none and the feature cache hashes the image. Both find
  // the record.
  for (const std::size_t mask_capacity : {std::size_t{64}, std::size_t{0}}) {
    core::PipelineConfig pcfg;
    pcfg.feature_cache.disk_path = dir.str();
    pcfg.mask_cache.capacity = mask_capacity;
    const core::ZenesisPipeline pipe(pcfg);
    (void)pipe.segment_ready(img, "bright particles");
    (void)pipe.segment_with_box(img, {4, 4, 30, 24});
    const auto st = pipe.cache_stats();
    EXPECT_EQ(st.misses, 0u) << "mask cache capacity " << mask_capacity;
    EXPECT_EQ(st.disk_hits, 1u) << "mask cache capacity " << mask_capacity;
    EXPECT_EQ(st.hits, 1u) << "mask cache capacity " << mask_capacity;
  }
}

TEST(WarmRestart, UnusableDiskPathDegradesToMemoryOnly) {
  TempDir dir;
  const std::string file_path = (dir.path() / "not_a_dir").string();
  write_raw(file_path, make_payload(4, 1));
  core::PipelineConfig cfg;
  cfg.feature_cache.disk_path = file_path;  // a file, not a directory
  // Must not throw: the cache downgrades and counts the error.
  const core::ZenesisPipeline pipe(cfg);
  image::ImageF32 img(32, 32, 1);
  img.fill(0.3f);
  (void)pipe.segment_ready(img, "anything");
  EXPECT_GT(pipe.cache_stats().disk_errors, 0u);
}

}  // namespace
