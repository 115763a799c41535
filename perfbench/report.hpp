#pragma once
// Result bookkeeping shared by the three workloads: the metric tables
// (the names BENCHMARK.json lists), correctness gates, sample statistics
// and the final one-line JSON result.

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}
inline double ms_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string work_dir;  ///< scratch directory for generated files
};

/// One metric's declared name and unit.
struct MetricSpec {
  const char* name;
  const char* unit;
};

/// End-to-end metrics, reported by every workload from untraced runs.
const std::vector<MetricSpec>& end_to_end_metrics();
/// Per-layer metrics, reported by every workload from --trace 1 runs
/// (0 where the workload does not exercise the layer).
const std::vector<MetricSpec>& per_layer_metrics();

/// What one run produced.
class Result {
 public:
  /// Records a metric value with the sample count it summarizes
  /// (0 = not a sample statistic). The name must be in one of the tables.
  void set(const std::string& name, double value, std::int64_t samples = 0);

  /// A correctness gate: a failure counts one failed operation.
  void gate(bool ok, const std::string& what);

  void add_attempted(std::int64_t n) { attempted_ += n; }
  void add_failed(std::int64_t n) { failed_ += n; }

  bool correct() const { return gate_failures_.empty() && failed_ == 0; }

  /// Free-form facts printed in the report line (sample counts, exact
  /// bypass counts, host block).
  void note(const std::string& key, const std::string& value) {
    notes_[key] = value;
  }

  /// Prints the human-readable metric lines, a report JSON line, and as
  /// the last line the result object for `table`.
  void print(const std::vector<MetricSpec>& table) const;

 private:
  struct Value {
    double value = 0.0;
    std::int64_t samples = 0;
  };
  std::map<std::string, Value> values_;
  std::map<std::string, std::string> notes_;
  std::vector<std::string> gate_failures_;
  std::int64_t attempted_ = 0;
  std::int64_t failed_ = 0;
};

// --- sample statistics -----------------------------------------------------

/// Linear-interpolation percentile (p in [0, 100]); 0 for no samples.
double percentile(std::vector<double> values, double p);
double median(const std::vector<double>& values);
double mean(const std::vector<double>& values);

/// VmHWM of this process in MiB (0 when /proc is unavailable).
double peak_rss_mb();

/// Host CPU ticks from /proc/stat: {steal, total}. A run's share of
/// stolen ticks says how much a shared host slowed it.
std::pair<std::uint64_t, std::uint64_t> cpu_steal_ticks();

/// Host block: resolved kernel backend and precision, TIFF source kind,
/// hardware threads, AVX2/FMA, compiler and build type.
void note_host(Result& result);

/// splitmix64 — derives independent sub-seeds from the workload seed.
std::uint64_t mix_seed(std::uint64_t seed, std::uint64_t stream);

}  // namespace perfbench
