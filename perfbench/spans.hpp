#pragma once
// Span bookkeeping for traced runs: drains zenesis::obs::TraceCollector,
// rebuilds each thread's span nesting from the recorded depths, and keeps
// per-stage durations with work stealing subtracted plus self times (a
// span's duration minus what its direct children cover).

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

struct SpanSample {
  double dur_ms = 0.0;   ///< end - start
  double net_ms = 0.0;   ///< duration minus nested pool.steal work
  double self_ms = 0.0;  ///< duration minus direct children
  std::uint64_t arg = 0;
};

class SpanLog {
 public:
  /// Moves every retained span out of the global collector (snapshot +
  /// clear) and accumulates it. Counts overwritten ring slots as dropped.
  void drain();

  /// Drops everything accumulated (and the collector's window).
  void reset();

  const std::vector<SpanSample>& of(const std::string& name) const;
  std::vector<double> net_ms(const std::string& name) const;
  std::vector<double> dur_ms(const std::string& name) const;
  double total_net_ms(const std::string& name) const;
  double total_self_ms(const std::string& name) const;
  double mean_net_ms(const std::string& name) const;
  std::size_t count(const std::string& name) const { return of(name).size(); }

  std::uint64_t dropped() const noexcept { return dropped_; }

 private:
  std::map<std::string, std::vector<SpanSample>> spans_;
  std::uint64_t dropped_ = 0;
};

}  // namespace perfbench
