#include "report.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <numeric>
#include <stdexcept>
#include <string_view>
#include <thread>

#include "zenesis/io/tiff_stream.hpp"
#include "zenesis/tensor/kernels.hpp"
#include "zenesis/tensor/quant.hpp"

namespace perfbench {

const std::vector<MetricSpec>& end_to_end_metrics() {
  static const std::vector<MetricSpec> kTable = {
      {"setup_s", "s"},
      {"peak_rss_mb", "MB"},
      {"mean_iou", "iou"},
      {"latency_ms_p50", "ms"},
      {"throughput_per_s", "1/s"},
  };
  return kTable;
}

const std::vector<MetricSpec>& per_layer_metrics() {
  static const std::vector<MetricSpec> kTable = {
      // Workload-specific end-to-end figures, from the untraced phase.
      {"volume_s_p50", "s"},
      {"volume_slices_per_s", "1/s"},
      {"reprompt_text_ms_p50", "ms"},
      {"reprompt_text_ms_p90", "ms"},
      {"reprompt_box_ms_p50", "ms"},
      {"reprompt_box_ms_p90", "ms"},
      {"wire_ms_p50", "ms"},
      {"wire_ms_p99", "ms"},
      {"wire_capacity_per_s", "1/s"},
      // io
      {"io.open_ms", "ms"},
      {"io.read_page_ms", "ms"},
      {"io.decode_mb_per_s", "MB/s"},
      // image
      {"image.readiness_ms", "ms"},
      // models
      {"models.encode_ms", "ms"},
      {"models.encodes", "count"},
      {"models.detect_ms", "ms"},
      {"models.decode_ms_p50", "ms"},
      {"models.decode_ms_p90", "ms"},
      {"models.decode_boxes_mean", "count"},
      // tensor
      {"tensor.encode_gflop", "GFLOP"},
      {"tensor.encode_gflops", "GFLOP/s"},
      // cache
      {"cache.feature_hit_ratio", "ratio"},
      {"cache.feature_lookups", "count"},
      {"cache.mask_hit_ratio", "ratio"},
      {"cache.mask_lookups", "count"},
      {"cache.mask_hits", "count"},
      {"cache.mask_hits_expected", "count"},
      {"cache.feature_resident_mb", "MB"},
      {"cache.mask_resident_mb", "MB"},
      {"cache.evictions", "count"},
      {"cache.hit_request_ms_p50", "ms"},
      {"cache.miss_request_ms_p50", "ms"},
      // parallel
      {"parallel.efficiency", "ratio"},
      {"parallel.steals", "count"},
      // volume3d / core
      {"volume3d.refine_ms", "ms"},
      {"volume3d.replaced_slices", "count"},
      {"core.rectify_ms", "ms"},
      {"core.slice_ms_p50", "ms"},
      {"core.slice_ms_p90", "ms"},
      {"core.unattributed_pct", "%"},
      // serve
      {"serve.queue_ms_p50", "ms"},
      {"serve.queue_ms_p99", "ms"},
      {"serve.batch_size_mean", "count"},
      {"serve.encode_ms", "ms"},
      {"serve.decode_ms_p50", "ms"},
      {"serve.total_ms_p50", "ms"},
      {"serve.total_ms_p99", "ms"},
      {"serve.rejected", "count"},
      // net
      {"net.wire_ms_p50", "ms"},
      {"net.wire_ms_p99", "ms"},
      {"net.outside_service_ms_p50", "ms"},
      {"net.outside_service_ms_p99", "ms"},
      {"net.bytes_in_per_req", "B"},
      {"net.bytes_out_per_req", "B"},
      {"net.shed", "count"},
      {"net.protocol_errors", "count"},
      // load generator
      {"load.offered_per_s", "1/s"},
      {"load.achieved_per_s", "1/s"},
      {"load.late_ms_p99", "ms"},
      // obs
      {"obs.trace_overhead_pct", "%"},
      {"obs.spans_dropped", "count"},
  };
  return kTable;
}

namespace {

bool known_metric(const std::string& name) {
  for (const auto* table : {&end_to_end_metrics(), &per_layer_metrics()}) {
    for (const auto& m : *table) {
      if (name == m.name) return true;
    }
  }
  return false;
}

std::string json_escape(std::string_view s) {
  std::string out;
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out;
}

std::string json_number(double v) {
  if (!std::isfinite(v)) return "0";
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

}  // namespace

void Result::set(const std::string& name, double value, std::int64_t samples) {
  if (!known_metric(name)) {
    throw std::logic_error("perfbench: undeclared metric " + name);
  }
  values_[name] = {value, samples};
}

void Result::gate(bool ok, const std::string& what) {
  if (ok) return;
  gate_failures_.push_back(what);
  failed_ += 1;
  std::fprintf(stderr, "perfbench: gate failed: %s\n", what.c_str());
}

void Result::print(const std::vector<MetricSpec>& table) const {
  // Human-readable lines first: every metric by name with its unit.
  for (const auto& m : table) {
    const auto it = values_.find(m.name);
    const Value v = it == values_.end() ? Value{} : it->second;
    if (v.samples > 0) {
      std::printf("%-28s %14.4f %-8s (n=%lld)\n", m.name, v.value, m.unit,
                  static_cast<long long>(v.samples));
    } else {
      std::printf("%-28s %14.4f %s\n", m.name, v.value, m.unit);
    }
  }
  std::printf("attempted %lld, failed %lld\n",
              static_cast<long long>(attempted_),
              static_cast<long long>(failed_));

  // Report line: notes (host block, exact counts), sample counts, gates.
  std::string report = "{\"report\": {";
  bool first = true;
  for (const auto& [k, v] : notes_) {
    report += (first ? "" : ", ") + std::string("\"") + json_escape(k) +
              "\": \"" + json_escape(v) + "\"";
    first = false;
  }
  report += "}, \"samples\": {";
  first = true;
  for (const auto& m : table) {
    const auto it = values_.find(m.name);
    if (it == values_.end() || it->second.samples == 0) continue;
    report += (first ? "" : ", ") + std::string("\"") + m.name +
              "\": " + std::to_string(it->second.samples);
    first = false;
  }
  report += "}, \"gate_failures\": [";
  for (std::size_t i = 0; i < gate_failures_.size(); ++i) {
    report += (i ? ", \"" : "\"") + json_escape(gate_failures_[i]) + "\"";
  }
  report += "]}";
  std::printf("%s\n", report.c_str());

  // Last line: the result object.
  std::string line = "{\"correct\": ";
  line += correct() ? "true" : "false";
  line += ", \"attempted\": " + std::to_string(std::max<std::int64_t>(attempted_, 1));
  line += ", \"failed\": " + std::to_string(failed_);
  line += ", \"metrics\": {";
  first = true;
  for (const auto& m : table) {
    const auto it = values_.find(m.name);
    const double v = it == values_.end() ? 0.0 : it->second.value;
    line += (first ? "" : ", ") + std::string("\"") + m.name +
            "\": {\"value\": " + json_number(v) + ", \"unit\": \"" + m.unit +
            "\"}";
    first = false;
  }
  line += "}}";
  std::printf("%s\n", line.c_str());
  std::fflush(stdout);
}

double percentile(std::vector<double> values, double p) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double rank = std::clamp(p, 0.0, 100.0) / 100.0 *
                      static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(rank));
  const auto hi = std::min(lo + 1, values.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

double median(const std::vector<double>& values) {
  return percentile(values, 50.0);
}

double mean(const std::vector<double>& values) {
  if (values.empty()) return 0.0;
  return std::accumulate(values.begin(), values.end(), 0.0) /
         static_cast<double>(values.size());
}

double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;  // kB → MiB
    }
  }
  return 0.0;
}

std::pair<std::uint64_t, std::uint64_t> cpu_steal_ticks() {
  std::ifstream stat("/proc/stat");
  std::string cpu;
  stat >> cpu;
  if (cpu != "cpu") return {0, 0};
  // user nice system idle iowait irq softirq steal
  std::uint64_t v[8] = {};
  for (auto& x : v) stat >> x;
  std::uint64_t total = 0;
  for (const auto x : v) total += x;
  return {v[7], total};
}

void note_host(Result& result) {
  result.note("host.kernel_backend", zenesis::tensor::backend_name());
  result.note("host.precision", zenesis::tensor::quant::precision_name());
  result.note("host.tiff_source",
              zenesis::io::to_string(zenesis::io::default_source_kind()));
  result.note("host.nproc", std::to_string(std::thread::hardware_concurrency()));
#if defined(__x86_64__) || defined(__i386__)
  result.note("host.avx2", __builtin_cpu_supports("avx2") ? "1" : "0");
  result.note("host.fma", __builtin_cpu_supports("fma") ? "1" : "0");
#else
  result.note("host.avx2", "0");
  result.note("host.fma", "0");
#endif
  result.note("host.compiler", __VERSION__);
  result.note("host.build_type", PERFBENCH_BUILD_TYPE);
}

std::uint64_t mix_seed(std::uint64_t seed, std::uint64_t stream) {
  std::uint64_t z = seed + 0x9E3779B97F4A7C15ull * (stream + 1);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

}  // namespace perfbench
