// Tests for zenesis::obs — span recording, nesting, trace-id stitching
// across ThreadPool and SegmentService threads, the disabled-mode hot-path
// contract (no recording, no allocation) and the Chrome trace export.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <new>
#include <set>
#include <string>
#include <vector>

#include "zenesis/fibsem/synth.hpp"
#include "zenesis/obs/trace.hpp"
#include "zenesis/parallel/thread_pool.hpp"
#include "zenesis/serve/service.hpp"

namespace zo = zenesis::obs;
namespace zf = zenesis::fibsem;
namespace zi = zenesis::image;
namespace zs = zenesis::serve;

// Global allocation counter for the disabled-mode no-allocation check.
// Plain new/delete pair with malloc/free; aligned forms keep the default
// implementation (they pair with the default aligned delete). noinline
// keeps the malloc/free internals opaque to the optimizer, which would
// otherwise flag a false -Wmismatched-new-delete at inlined call sites.
namespace {
std::atomic<std::uint64_t> g_allocations{0};
}  // namespace

#if defined(__GNUC__)
#define ZEN_TEST_NOINLINE __attribute__((noinline))
#else
#define ZEN_TEST_NOINLINE
#endif

ZEN_TEST_NOINLINE void* operator new(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}
ZEN_TEST_NOINLINE void* operator new[](std::size_t size) {
  return ::operator new(size);
}
ZEN_TEST_NOINLINE void operator delete(void* p) noexcept { std::free(p); }
ZEN_TEST_NOINLINE void operator delete(void* p, std::size_t) noexcept {
  std::free(p);
}
ZEN_TEST_NOINLINE void operator delete[](void* p) noexcept { std::free(p); }
ZEN_TEST_NOINLINE void operator delete[](void* p, std::size_t) noexcept {
  std::free(p);
}

#if !defined(ZENESIS_OBS_DISABLED)
namespace {

/// Re-enables the previous tracing state on scope exit so a failing test
/// cannot leak "enabled" into unrelated suites.
class TracingOn {
 public:
  TracingOn() {
    zo::set_enabled(true);
    zo::TraceCollector::global().clear();
  }
  ~TracingOn() { zo::set_enabled(false); }
};

const zo::SpanEvent* find_event(const std::vector<zo::SpanEvent>& events,
                                const std::string& name) {
  for (const auto& ev : events) {
    if (ev.name != nullptr && name == ev.name) return &ev;
  }
  return nullptr;
}

std::vector<const zo::SpanEvent*> find_all(
    const std::vector<zo::SpanEvent>& events, const std::string& name) {
  std::vector<const zo::SpanEvent*> out;
  for (const auto& ev : events) {
    if (ev.name != nullptr && name == ev.name) out.push_back(&ev);
  }
  return out;
}

zf::SynthConfig small_config() {
  zf::SynthConfig cfg;
  cfg.type = zf::SampleType::kCrystalline;
  cfg.width = 64;
  cfg.height = 64;
  cfg.depth = 2;
  cfg.seed = 909;
  return cfg;
}

}  // namespace

TEST(Obs, NestedSpansRecordDepthTimingAndTraceId) {
  TracingOn tracing;
  const std::uint64_t id = zo::new_trace_id();
  ASSERT_NE(id, 0u);
  {
    zo::TraceScope trace(id);
    zo::Span outer("obs.test.outer");
    {
      zo::Span inner("obs.test.inner");
      inner.set_arg(42);
    }
  }
  const auto events = zo::TraceCollector::global().snapshot();
  const zo::SpanEvent* outer = find_event(events, "obs.test.outer");
  const zo::SpanEvent* inner = find_event(events, "obs.test.inner");
  ASSERT_NE(outer, nullptr);
  ASSERT_NE(inner, nullptr);
  EXPECT_EQ(outer->trace_id, id);
  EXPECT_EQ(inner->trace_id, id);
  EXPECT_EQ(outer->tid, inner->tid);
  EXPECT_EQ(inner->depth, outer->depth + 1);
  EXPECT_EQ(inner->arg, 42u);
  // The inner span nests strictly inside the outer one in time.
  EXPECT_GE(inner->start_ns, outer->start_ns);
  EXPECT_LE(inner->end_ns, outer->end_ns);
  EXPECT_GE(outer->end_ns, outer->start_ns);

  const auto stages = zo::TraceCollector::global().aggregate();
  ASSERT_TRUE(stages.count("obs.test.outer"));
  ASSERT_TRUE(stages.count("obs.test.inner"));
  const zo::StageStats& st = stages.at("obs.test.outer");
  EXPECT_EQ(st.count, 1u);
  EXPECT_GE(st.max_us, st.min_us);
  EXPECT_GE(st.mean_us(), 0.0);
}

TEST(Obs, ThreadPoolStitchesSubmitterTraceIdAcrossThreads) {
  TracingOn tracing;
  constexpr int kTasks = 8;
  const std::uint64_t id = zo::new_trace_id();
  std::uint64_t main_tid = 0;
  {
    zo::TraceScope trace(id);
    zo::Span main_span("obs.test.main");
    zenesis::parallel::ThreadPool pool(2);
    for (int i = 0; i < kTasks; ++i) {
      pool.submit([] { zo::Span span("obs.test.pool_item"); });
    }
    pool.wait_idle();
  }
  const auto events = zo::TraceCollector::global().snapshot();
  const zo::SpanEvent* main_ev = find_event(events, "obs.test.main");
  ASSERT_NE(main_ev, nullptr);
  main_tid = main_ev->tid;

  const auto items = find_all(events, "obs.test.pool_item");
  ASSERT_EQ(items.size(), static_cast<std::size_t>(kTasks));
  bool off_main = false;
  for (const zo::SpanEvent* ev : items) {
    // The submitter's trace id travels with each task even though the
    // span records on a worker thread.
    EXPECT_EQ(ev->trace_id, id);
    // Every task runs nested inside the pool's own pool.run span.
    EXPECT_GE(ev->depth, 1u);
    if (ev->tid != main_tid) off_main = true;
  }
  EXPECT_TRUE(off_main) << "no task span recorded on a worker thread";
  // The pool's own scheduling spans carry the same stitched id.
  bool pool_span_seen = false;
  for (const auto& ev : events) {
    if (ev.name == nullptr) continue;
    const std::string name = ev.name;
    if (name == "pool.run") {
      pool_span_seen = true;
      EXPECT_EQ(ev.trace_id, id);
    }
  }
  EXPECT_TRUE(pool_span_seen);
}

TEST(Obs, ServiceStitchesOneRequestAcrossSubmitQueueAndDecode) {
  TracingOn tracing;
  const auto s = zf::generate_slice(small_config(), 0);

  zs::SegmentService service;
  auto future = service.submit(zs::Request::slice(
      zi::AnyImage(s.raw), zf::default_prompt(zf::SampleType::kCrystalline)));
  const zs::Response r = future.get();
  service.shutdown();

  ASSERT_TRUE(r.ok());
  ASSERT_NE(r.trace_id, 0u);

  const auto events = zo::TraceCollector::global().snapshot();
  std::set<std::string> stages_for_request;
  std::set<std::uint64_t> tids_for_request;
  for (const auto& ev : events) {
    if (ev.trace_id != r.trace_id || ev.name == nullptr) continue;
    stages_for_request.insert(ev.name);
    tids_for_request.insert(ev.tid);
    EXPECT_GE(ev.end_ns, ev.start_ns);
  }
  // submit (caller thread) → queue wait (closed at dispatch) → decode
  // (fan-out substrate): one id stitches all of them.
  EXPECT_TRUE(stages_for_request.count("serve.submit"));
  EXPECT_TRUE(stages_for_request.count("serve.queue"));
  EXPECT_TRUE(stages_for_request.count("serve.decode"));
  // The request crossed the async boundary: spans from at least two
  // distinct threads share the response's trace id.
  EXPECT_GE(tids_for_request.size(), 2u);
}

TEST(Obs, DecodeSubSpansNestUnderSamDecodeWithRequestTraceId) {
  TracingOn tracing;
  const auto s = zf::generate_slice(small_config(), 0);
  const zenesis::core::ZenesisPipeline pipe;
  const zi::ImageF32 ready = pipe.make_ready(zi::AnyImage(s.raw));
  const std::uint64_t id = zo::new_trace_id();
  {
    zo::TraceScope trace(id);
    // Min side >= 48: fine, coarse and rim scales, six candidates.
    (void)pipe.segment_with_box(ready, {4, 6, 56, 52});
  }
  const auto events = zo::TraceCollector::global().snapshot();
  const zo::SpanEvent* decode = find_event(events, "sam.decode");
  ASSERT_NE(decode, nullptr);
  EXPECT_EQ(decode->trace_id, id);
  std::size_t counts[4] = {};
  const char* stages[4] = {"sam.decode.context", "sam.decode.grow",
                           "sam.decode.cleanup", "sam.decode.score"};
  for (int k = 0; k < 4; ++k) {
    for (const zo::SpanEvent* ev : find_all(events, stages[k])) {
      ++counts[k];
      // Fanned out over pool threads, yet stitched to the request and
      // contained in the decode that spawned it.
      EXPECT_EQ(ev->trace_id, id) << stages[k];
      EXPECT_GE(ev->start_ns, decode->start_ns) << stages[k];
      EXPECT_LE(ev->end_ns, decode->end_ns) << stages[k];
    }
  }
  EXPECT_EQ(counts[0], 3u);  // one context per scale
  EXPECT_EQ(counts[1], 6u);  // one grow per (scale, polarity)
  EXPECT_GE(counts[2], 1u);  // cleanup/score only for surviving candidates
  EXPECT_EQ(counts[3], counts[2]);
}

TEST(Obs, ChromeTraceJsonIsWellFormed) {
  TracingOn tracing;
  {
    zo::TraceScope trace(zo::new_trace_id());
    zo::Span outer("obs.test.chrome");
    { zo::Span inner("obs.test.chrome_inner"); }
  }
  const std::int64_t t0 = zo::now_ns();
  zo::record_span("obs.test.manual", 123, t0, t0 + 5000, 9);

  const auto events = zo::TraceCollector::global().snapshot();
  ASSERT_GE(events.size(), 3u);
  for (const auto& ev : events) {
    ASSERT_NE(ev.name, nullptr);
    EXPECT_LE(ev.start_ns, ev.end_ns);
    EXPECT_GT(ev.tid, 0u);
  }

  const std::string json = zo::TraceCollector::global().chrome_trace_json();
  EXPECT_NE(json.find("\"traceEvents\":["), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(json.find("\"pid\":1"), std::string::npos);
  EXPECT_NE(json.find("\"tid\":"), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"obs.test.manual\""), std::string::npos);
  EXPECT_NE(json.find("\"trace_id\":123"), std::string::npos);
  // Braces and brackets balance, so chrome://tracing can parse it.
  std::int64_t braces = 0;
  std::int64_t brackets = 0;
  bool in_string = false;
  for (std::size_t i = 0; i < json.size(); ++i) {
    const char c = json[i];
    if (c == '"' && (i == 0 || json[i - 1] != '\\')) in_string = !in_string;
    if (in_string) continue;
    braces += (c == '{') - (c == '}');
    brackets += (c == '[') - (c == ']');
    EXPECT_GE(braces, 0);
    EXPECT_GE(brackets, 0);
  }
  EXPECT_EQ(braces, 0);
  EXPECT_EQ(brackets, 0);
}

#endif  // !ZENESIS_OBS_DISABLED

TEST(Obs, DisabledSpansRecordNothingAndDoNotAllocate) {
  zo::set_enabled(false);
  zo::TraceCollector::global().clear();
  const std::size_t threads_before = zo::TraceCollector::global().threads_seen();

  const std::uint64_t allocs_before =
      g_allocations.load(std::memory_order_relaxed);
  for (int i = 0; i < 1000; ++i) {
    zo::Span span("obs.test.disabled");
    span.set_arg(static_cast<std::uint64_t>(i));
  }
  const std::uint64_t allocs_after =
      g_allocations.load(std::memory_order_relaxed);

  EXPECT_EQ(allocs_after, allocs_before)
      << "disabled Span must not touch the heap";
  EXPECT_TRUE(zo::TraceCollector::global().snapshot().empty());
  EXPECT_EQ(zo::TraceCollector::global().threads_seen(), threads_before)
      << "disabled Span must not register its thread";
}

TEST(Obs, TraceScopeRestoresPreviousIdAndSurvivesObsOff) {
  // Trace-id plumbing stays real even when recording is disabled (or the
  // whole subsystem is compiled out) — serve request ids depend on it.
  EXPECT_EQ(zo::current_trace_id(), 0u);
  const std::uint64_t a = zo::new_trace_id();
  const std::uint64_t b = zo::new_trace_id();
  EXPECT_NE(a, 0u);
  EXPECT_NE(b, a);
  {
    zo::TraceScope outer(a);
    EXPECT_EQ(zo::current_trace_id(), a);
    {
      zo::TraceScope inner(b);
      EXPECT_EQ(zo::current_trace_id(), b);
    }
    EXPECT_EQ(zo::current_trace_id(), a);
  }
  EXPECT_EQ(zo::current_trace_id(), 0u);
}
