#include "spans.hpp"

#include <algorithm>
#include <cstring>
#include <numeric>
#include <unordered_map>

#include "zenesis/obs/trace.hpp"

namespace perfbench {

namespace {

/// Spans recorded with explicit timestamps (obs::record_span) rather than
/// as scopes: their depth says nothing about nesting, so they never take
/// part in parent/child matching.
bool explicit_timestamps(const char* name) {
  return std::strcmp(name, "serve.queue") == 0 ||
         std::strcmp(name, "net.request") == 0;
}

}  // namespace

void SpanLog::drain() {
  auto& collector = zenesis::obs::TraceCollector::global();
  dropped_ += collector.overwritten();
  std::vector<zenesis::obs::SpanEvent> ev = collector.snapshot();
  collector.clear();

  // Per thread, in start order (parents first on ties: lower depth).
  std::vector<std::size_t> order(ev.size());
  std::iota(order.begin(), order.end(), std::size_t{0});
  std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    if (ev[a].tid != ev[b].tid) return ev[a].tid < ev[b].tid;
    if (ev[a].start_ns != ev[b].start_ns) return ev[a].start_ns < ev[b].start_ns;
    return ev[a].depth < ev[b].depth;
  });

  constexpr std::size_t kNone = static_cast<std::size_t>(-1);
  std::vector<std::size_t> parent(ev.size(), kNone);
  std::vector<std::size_t> stack;
  std::uint64_t tid = 0;
  for (const std::size_t i : order) {
    if (ev[i].name == nullptr || explicit_timestamps(ev[i].name)) continue;
    if (ev[i].tid != tid) {
      stack.clear();
      tid = ev[i].tid;
    }
    while (!stack.empty() && (ev[stack.back()].depth >= ev[i].depth ||
                              ev[stack.back()].end_ns < ev[i].end_ns)) {
      stack.pop_back();
    }
    if (!stack.empty() && ev[stack.back()].depth + 1 == ev[i].depth) {
      parent[i] = stack.back();
    }
    stack.push_back(i);
  }

  // Children after parents in `order`, so a reverse sweep sees every child
  // before its parent.
  std::vector<std::int64_t> child_ns(ev.size(), 0);
  std::vector<std::int64_t> stolen_ns(ev.size(), 0);
  for (auto it = order.rbegin(); it != order.rend(); ++it) {
    const std::size_t i = *it;
    const std::size_t p = parent[i];
    if (p == kNone) continue;
    const std::int64_t dur = ev[i].end_ns - ev[i].start_ns;
    child_ns[p] += dur;
    stolen_ns[p] +=
        std::strcmp(ev[i].name, "pool.steal") == 0 ? dur : stolen_ns[i];
  }

  for (std::size_t i = 0; i < ev.size(); ++i) {
    if (ev[i].name == nullptr) continue;
    const std::int64_t dur = ev[i].end_ns - ev[i].start_ns;
    SpanSample s;
    s.dur_ms = static_cast<double>(dur) / 1e6;
    s.net_ms = static_cast<double>(dur - stolen_ns[i]) / 1e6;
    s.self_ms = static_cast<double>(dur - child_ns[i]) / 1e6;
    s.arg = ev[i].arg;
    spans_[ev[i].name].push_back(s);
  }
}

void SpanLog::reset() {
  auto& collector = zenesis::obs::TraceCollector::global();
  collector.clear();
  spans_.clear();
  dropped_ = 0;
}

const std::vector<SpanSample>& SpanLog::of(const std::string& name) const {
  static const std::vector<SpanSample> kEmpty;
  const auto it = spans_.find(name);
  return it == spans_.end() ? kEmpty : it->second;
}

std::vector<double> SpanLog::net_ms(const std::string& name) const {
  std::vector<double> out;
  for (const auto& s : of(name)) out.push_back(s.net_ms);
  return out;
}

std::vector<double> SpanLog::dur_ms(const std::string& name) const {
  std::vector<double> out;
  for (const auto& s : of(name)) out.push_back(s.dur_ms);
  return out;
}

double SpanLog::total_net_ms(const std::string& name) const {
  double total = 0.0;
  for (const auto& s : of(name)) total += s.net_ms;
  return total;
}

double SpanLog::total_self_ms(const std::string& name) const {
  double total = 0.0;
  for (const auto& s : of(name)) total += s.self_ms;
  return total;
}

double SpanLog::mean_net_ms(const std::string& name) const {
  const auto& v = of(name);
  return v.empty() ? 0.0 : total_net_ms(name) / static_cast<double>(v.size());
}

}  // namespace perfbench
