#pragma once
// Lock-striped, byte-budgeted, approximately-LRU in-memory cache.
//
// A single-mutex LRU serializes every lookup the moment the serving
// layer drives real concurrency. This template splits it into N
// independent shards, each its own mutex + hash map, selected by the top
// bits of an avalanched key mix — two threads touching different shards
// never contend.
//
// Budgeting: the global byte budget and entry capacity are split across
// the shards (byte budgets sum EXACTLY to the configured budget, so a
// budget of B can never admit more than B resident bytes; entry caps are
// split as ceil(capacity / shards), exact when shards == 1). An entry
// larger than its shard's byte budget is rejected outright rather than
// evicting the whole shard for a value that may never be reused.
//
// Eviction: approximate LRU via per-shard clocks. Every hit stamps the
// entry with the shard's monotonically increasing tick; when a put
// overflows the shard's budget or cap, the smallest-tick (least recently
// used) entries of THAT shard are dropped until it fits. Within a shard
// the order is exact LRU; globally it is approximate because recency is
// never compared across shards. There is no time-based invalidation:
// values are pure functions of their keys.
//
// Concurrency: all methods are thread-safe. get/put/erase take exactly
// one shard mutex; stats()/clear() visit shards one at a time, so a
// snapshot is per-shard consistent and — because each shard's byte
// invariant holds under its own lock at all times — the aggregated
// resident_bytes can never exceed the budget, even mid-mutation.
//
// Values are shared_ptr<const V>: a hit shares the stored object, and an
// entry evicted while a reader still holds the pointer stays alive until
// the last reader drops it.

#include <algorithm>
#include <cstdint>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <vector>

#include "zenesis/cache/hash.hpp"

namespace zenesis::cache {

struct ShardedCacheConfig {
  /// Lock stripes; clamped to [1, 4096] and rounded up to a power of two.
  std::size_t shards = 8;
  /// Maximum resident entries, split as ceil(capacity / shards) per shard
  /// (exact when shards == 1). 0 is the off switch: the cache admits
  /// nothing and records no traffic.
  std::size_t capacity = 64;
  /// Global byte budget; resident bytes never exceed it (see
  /// ZENESIS_CACHE_BUDGET in hash.hpp for the default's sizing knob).
  std::size_t byte_budget = default_byte_budget();
};

struct LruCacheStats {
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  std::uint64_t evictions = 0;
  std::uint64_t inserts = 0;
  /// Entries rejected because they alone exceed a shard's byte budget.
  std::uint64_t oversized_rejects = 0;
  std::uint64_t evicted_bytes = 0;
  std::uint64_t resident_bytes = 0;
  std::uint64_t resident_entries = 0;

  double hit_rate() const noexcept {
    const std::uint64_t total = hits + misses;
    return total == 0 ? 0.0
                      : static_cast<double>(hits) / static_cast<double>(total);
  }
};

template <typename V>
class ShardedLruCache {
 public:
  explicit ShardedLruCache(const ShardedCacheConfig& cfg) : cfg_(cfg) {
    cfg_.shards = std::clamp<std::size_t>(cfg_.shards, 1, 4096);
    std::size_t rounded = 1;
    while (rounded < cfg_.shards) rounded <<= 1;
    cfg_.shards = rounded;
    shards_ = std::vector<Shard>(cfg_.shards);
    shard_shift_ = 64;
    for (std::size_t s = cfg_.shards; s > 1; s >>= 1) --shard_shift_;
    const std::size_t n = cfg_.shards;
    for (std::size_t i = 0; i < n; ++i) {
      shards_[i].byte_budget =
          cfg_.byte_budget / n + (i < cfg_.byte_budget % n ? 1 : 0);
      shards_[i].capacity = cfg_.capacity / n + (cfg_.capacity % n != 0);
    }
  }

  /// Shared value for `key`, or nullptr (recorded as a miss). A hit
  /// refreshes the entry's recency.
  std::shared_ptr<const V> get(const Key128& key) {
    if (cfg_.capacity == 0) return nullptr;
    Shard& sh = shards_[shard_of(key)];
    std::lock_guard lock(sh.mutex);
    const auto it = sh.map.find(key);
    if (it == sh.map.end()) {
      ++sh.misses;
      return nullptr;
    }
    ++sh.hits;
    it->second.tick = ++sh.clock;
    return it->second.value;
  }

  /// Lookup without touching recency or the hit/miss counters (tests,
  /// inspection tooling).
  std::shared_ptr<const V> peek(const Key128& key) const {
    if (cfg_.capacity == 0) return nullptr;
    const Shard& sh = shards_[shard_of(key)];
    std::lock_guard lock(sh.mutex);
    const auto it = sh.map.find(key);
    return it == sh.map.end() ? nullptr : it->second.value;
  }

  /// Admits `value` (`bytes` = its resident size) and evicts the shard's
  /// least-recently-used entries until budget and capacity hold again.
  /// Returns false when the cache is off or the value alone exceeds
  /// its shard's byte budget. An existing entry for `key` is replaced
  /// (last writer wins, matching the old FeatureCache contract for
  /// concurrent misses of one key).
  bool put(const Key128& key, std::shared_ptr<const V> value,
           std::size_t bytes) {
    if (cfg_.capacity == 0 || value == nullptr) return false;
    Shard& sh = shards_[shard_of(key)];
    std::lock_guard lock(sh.mutex);
    if (bytes > sh.byte_budget) {
      ++sh.oversized_rejects;
      return false;
    }
    const auto it = sh.map.find(key);
    if (it != sh.map.end()) {
      sh.bytes -= it->second.bytes;
      it->second = Entry{std::move(value), bytes, ++sh.clock};
      sh.bytes += bytes;
    } else {
      sh.map.emplace(key, Entry{std::move(value), bytes, ++sh.clock});
      sh.bytes += bytes;
      ++sh.inserts;
    }
    evict_locked(sh);
    return true;
  }

  /// Drops `key` if resident; returns whether anything was removed.
  bool erase(const Key128& key) {
    if (cfg_.capacity == 0) return false;
    Shard& sh = shards_[shard_of(key)];
    std::lock_guard lock(sh.mutex);
    const auto it = sh.map.find(key);
    if (it == sh.map.end()) return false;
    sh.bytes -= it->second.bytes;
    sh.map.erase(it);
    return true;
  }

  /// Drops every entry; counters and clocks survive (matching the old
  /// FeatureCache::clear contract).
  void clear() {
    for (Shard& sh : shards_) {
      std::lock_guard lock(sh.mutex);
      sh.map.clear();
      sh.bytes = 0;
    }
  }

  LruCacheStats stats() const {
    LruCacheStats s;
    for (const Shard& sh : shards_) {
      std::lock_guard lock(sh.mutex);
      s.hits += sh.hits;
      s.misses += sh.misses;
      s.evictions += sh.evictions;
      s.inserts += sh.inserts;
      s.oversized_rejects += sh.oversized_rejects;
      s.evicted_bytes += sh.evicted_bytes;
      s.resident_bytes += sh.bytes;
      s.resident_entries += sh.map.size();
    }
    return s;
  }

  /// Which stripe `key` lands in (exposed so eviction tests can construct
  /// per-shard workloads).
  std::size_t shard_of(const Key128& key) const noexcept {
    return cfg_.shards == 1
               ? 0
               : static_cast<std::size_t>(mix_key(key) >> shard_shift_);
  }

  /// This shard's slice of the global byte budget.
  std::size_t shard_byte_budget(std::size_t shard) const {
    return shards_[shard].byte_budget;
  }

  std::size_t shard_count() const noexcept { return cfg_.shards; }
  const ShardedCacheConfig& config() const noexcept { return cfg_; }

 private:
  struct Entry {
    std::shared_ptr<const V> value;
    std::size_t bytes = 0;
    std::uint64_t tick = 0;  ///< shard-clock stamp of the last access
  };
  struct KeyHash {
    std::size_t operator()(const Key128& k) const noexcept {
      return static_cast<std::size_t>(mix_key(k));
    }
  };
  struct Shard {
    mutable std::mutex mutex;
    std::unordered_map<Key128, Entry, KeyHash> map;
    std::uint64_t clock = 0;  ///< per-shard recency clock
    std::size_t bytes = 0;
    std::size_t byte_budget = 0;
    std::size_t capacity = 0;
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
    std::uint64_t evictions = 0;
    std::uint64_t inserts = 0;
    std::uint64_t oversized_rejects = 0;
    std::uint64_t evicted_bytes = 0;
  };

  /// Caller holds sh.mutex. Evicts in ascending tick order (exact LRU
  /// within the shard) until both bounds hold.
  void evict_locked(Shard& sh) {
    if (sh.map.size() <= sh.capacity && sh.bytes <= sh.byte_budget) return;
    // One ordered pass instead of a min-scan per victim: puts that
    // overflow are rare relative to gets, and shards are small.
    std::vector<std::pair<std::uint64_t, Key128>> by_tick;
    by_tick.reserve(sh.map.size());
    for (const auto& [key, entry] : sh.map) by_tick.emplace_back(entry.tick, key);
    std::sort(by_tick.begin(), by_tick.end(),
              [](const auto& a, const auto& b) { return a.first < b.first; });
    for (const auto& [tick, key] : by_tick) {
      if (sh.bytes <= sh.byte_budget && sh.map.size() <= sh.capacity) break;
      const auto it = sh.map.find(key);
      sh.bytes -= it->second.bytes;
      sh.evicted_bytes += it->second.bytes;
      sh.map.erase(it);
      ++sh.evictions;
    }
  }

  ShardedCacheConfig cfg_;
  std::vector<Shard> shards_;
  unsigned shard_shift_ = 64;
};

}  // namespace zenesis::cache
