// reprompt_warm — Mode A re-prompting (HITL). One interactive caller
// alternates text re-prompts (segment_ready with a phrase from a fixed
// concept vocabulary) and box prompts (segment_with_box with a seeded
// random box and text ranking) over 16 AI-ready 256^2 slices encoded
// during set-up. Every (slice, prompt/box) pair is issued at most once
// per pipeline, so the feature cache always hits and the mask cache
// always misses: decode and grounding only.
#include <algorithm>
#include <cmath>
#include <random>
#include <set>
#include <string>
#include <tuple>
#include <vector>

#include "zenesis/core/pipeline.hpp"
#include "zenesis/eval/metrics.hpp"
#include "zenesis/fibsem/synth.hpp"
#include "zenesis/image/normalize.hpp"
#include "zenesis/obs/trace.hpp"
#include "spans.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

using namespace zenesis;

constexpr std::int64_t kEdge = 256;
constexpr int kSlices = 16;
constexpr int kSetupReps = 5;
/// Request rounds scheduled per second of --seconds: an upper bound on
/// the round rate, so the timed loop never runs out of requests.
constexpr double kRoundsPerSecond = 50.0;
/// mean_iou gate for the text re-prompts (vocabulary phrases vary in how
/// well they name the catalyst phase, so this sits below volume_cold's).
constexpr double kIouFloor = 0.3;

struct SliceInput {
  image::ImageF32 ready;
  image::Mask ground_truth;
  std::string prompt;                ///< the sample type's default prompt
  std::vector<std::string> phrases;  ///< seeded order, each used once
};

/// Vocabulary phrases naming the catalyst phase of one sample type: every
/// modifier pair and single modifier in front of every noun.
std::vector<std::string> vocabulary(fibsem::SampleType type) {
  const bool crystalline = type == fibsem::SampleType::kCrystalline;
  const std::vector<std::string> modifiers =
      crystalline ? std::vector<std::string>{"bright", "white", "dense", "elongated",
                                             "crystalline", "needle", "loaded"}
                  : std::vector<std::string>{"bright", "white", "dense", "amorphous",
                                             "textured", "loaded", "particle"};
  const std::vector<std::string> nouns =
      crystalline ? std::vector<std::string>{"needles", "crystal", "catalyst", "fiber",
                                             "iridium oxide", "crystalline catalyst"}
                  : std::vector<std::string>{"particles", "blob", "catalyst", "grain",
                                             "iridium oxide", "catalyst particles"};
  std::vector<std::string> out;
  for (std::size_t a = 0; a < modifiers.size(); ++a) {
    for (const auto& noun : nouns) {
      out.push_back(modifiers[a] + " " + noun);
      for (std::size_t b = a + 1; b < modifiers.size(); ++b) {
        out.push_back(modifiers[a] + " " + modifiers[b] + " " + noun);
      }
    }
  }
  // "dense crystalline" + "catalyst" spells "dense" + "crystalline catalyst".
  std::sort(out.begin(), out.end());
  out.erase(std::unique(out.begin(), out.end()), out.end());
  return out;
}

struct Request {
  bool text = true;
  int slice = 0;
  std::string phrase;  ///< text requests
  image::Box box;      ///< box requests
};

/// The seeded request schedule: text, box, text, box, ... Slices are
/// visited in a seeded order that covers all 16 before repeating (for
/// text and box requests separately), so every run spreads its requests
/// evenly over the slices. Each text request takes its slice's next
/// unused phrase; each box is new for its slice.
std::vector<Request> make_schedule(std::uint64_t seed, const std::vector<SliceInput>& slices,
                                   std::size_t rounds) {
  std::mt19937_64 rng(mix_seed(seed, 7));
  std::uniform_int_distribution<std::int64_t> side(48, 160);
  std::vector<std::size_t> cursor(slices.size(), 0);
  std::set<std::tuple<int, std::int64_t, std::int64_t, std::int64_t, std::int64_t>> boxes;
  std::vector<int> text_order, box_order;
  const auto next_slice = [&](std::vector<int>& order) {
    if (order.empty()) {
      for (int i = 0; i < kSlices; ++i) order.push_back(i);
      std::shuffle(order.begin(), order.end(), rng);
    }
    const int s = order.back();
    order.pop_back();
    return s;
  };
  std::vector<Request> out;
  for (std::size_t r = 0; r < rounds; ++r) {
    Request t;
    t.slice = next_slice(text_order);
    const auto s = static_cast<std::size_t>(t.slice);
    if (cursor[s] >= slices[s].phrases.size()) break;  // vocabulary exhausted
    t.phrase = slices[s].phrases[cursor[s]++];
    out.push_back(t);

    Request b;
    b.text = false;
    b.slice = next_slice(box_order);
    for (;;) {
      b.box.w = side(rng);
      b.box.h = side(rng);
      b.box.x = std::uniform_int_distribution<std::int64_t>(0, kEdge - b.box.w)(rng);
      b.box.y = std::uniform_int_distribution<std::int64_t>(0, kEdge - b.box.h)(rng);
      if (boxes.emplace(b.slice, b.box.x, b.box.y, b.box.w, b.box.h).second) break;
    }
    out.push_back(b);
  }
  return out;
}

std::vector<SliceInput> make_slices(std::uint64_t seed) {
  std::vector<SliceInput> slices;
  for (int i = 0; i < kSlices; ++i) {
    fibsem::SynthConfig cfg;
    cfg.type = i % 2 == 0 ? fibsem::SampleType::kCrystalline
                          : fibsem::SampleType::kAmorphous;
    cfg.width = kEdge;
    cfg.height = kEdge;
    cfg.seed = mix_seed(seed, 100 + static_cast<std::uint64_t>(i));
    fibsem::SyntheticSlice synth = fibsem::generate_slice(cfg, 0);
    SliceInput in;
    in.ready = image::make_ai_ready(synth.raw);
    in.ground_truth = std::move(synth.ground_truth);
    in.prompt = fibsem::default_prompt(cfg.type);
    in.phrases = vocabulary(cfg.type);
    std::shuffle(in.phrases.begin(), in.phrases.end(),
                 std::mt19937_64(mix_seed(seed, 200 + static_cast<std::uint64_t>(i))));
    slices.push_back(std::move(in));
  }
  return slices;
}

/// Builds a pipeline and encodes every slice into its feature cache.
std::unique_ptr<core::ZenesisPipeline> set_up(const std::vector<SliceInput>& slices) {
  auto pipeline = std::make_unique<core::ZenesisPipeline>();
  for (const auto& s : slices) pipeline->encode_cached(s.ready);
  return pipeline;
}

struct Pass {
  std::vector<double> text_ms, box_ms;
  std::vector<double> round_ms;  ///< mean latency of each text + box pair
  std::vector<double> iou;  ///< text requests
  std::size_t requests = 0;
  std::int64_t errors = 0;
};

/// Issues schedule[0..] until `budget_s` has elapsed (checked between
/// rounds) or `limit` requests are done. With `log`, each call runs under
/// a harness span and spans are drained after every request.
Pass run_pass(const core::ZenesisPipeline& pipeline, const std::vector<SliceInput>& slices,
              const std::vector<Request>& schedule, double budget_s, std::size_t limit,
              SpanLog* log) {
  Pass pass;
  const Clock::time_point start = Clock::now();
  double round = 0.0;
  for (std::size_t i = 0; i < schedule.size() && i < limit; ++i) {
    if (i % 2 == 0 && seconds_between(start, Clock::now()) >= budget_s) break;
    const Request& req = schedule[i];
    const SliceInput& in = slices[static_cast<std::size_t>(req.slice)];
    core::SliceResult res;
    const Clock::time_point t0 = Clock::now();
    try {
      if (req.text) {
        obs::Span span("bench.text_prompt");
        res = pipeline.segment_ready(in.ready, req.phrase);
      } else {
        obs::Span span("bench.box_prompt");
        core::BoxPromptOptions opts;
        opts.prompt = in.prompt;
        res = pipeline.segment_with_box(in.ready, req.box, opts);
      }
    } catch (const std::exception& e) {
      std::fprintf(stderr, "reprompt_warm: request %zu failed: %s\n", i, e.what());
      pass.errors += 1;
      continue;
    }
    const double ms = ms_between(t0, Clock::now());
    pass.requests += 1;
    round += ms;
    if (req.text) {
      pass.text_ms.push_back(ms);
      pass.iou.push_back(eval::compute_metrics(res.mask, in.ground_truth).iou);
    } else {
      pass.box_ms.push_back(ms);
      pass.round_ms.push_back(round / 2.0);
      round = 0.0;
    }
    if (log != nullptr) log->drain();
  }
  return pass;
}

double sum(const std::vector<double>& v) {
  double s = 0.0;
  for (const double x : v) s += x;
  return s;
}

}  // namespace

void run_reprompt_warm(const Options& opt, Result& result) {
  std::vector<SliceInput> slices = make_slices(opt.seed);
  const std::vector<Request> schedule = make_schedule(
      opt.seed, slices,
      static_cast<std::size_t>(std::ceil(opt.seconds * kRoundsPerSecond)));

  std::vector<double> setup_s;
  std::unique_ptr<core::ZenesisPipeline> pipeline;
  for (int k = 0; k < kSetupReps; ++k) {
    pipeline.reset();
    const Clock::time_point t0 = Clock::now();
    pipeline = set_up(slices);
    setup_s.push_back(seconds_between(t0, Clock::now()));
  }

  const double budget = opt.trace ? opt.seconds / 2.0 : opt.seconds;
  const auto feat0 = pipeline->cache_stats();
  const auto mask0 = pipeline->mask_cache_stats();
  const Pass pass = run_pass(*pipeline, slices, schedule, budget, schedule.size(), nullptr);
  const auto feat1 = pipeline->cache_stats();
  const auto mask1 = pipeline->mask_cache_stats();

  result.add_attempted(static_cast<std::int64_t>(pass.requests) + pass.errors);
  result.add_failed(pass.errors);
  result.note("reprompt_warm.requests", std::to_string(pass.requests));
  result.note("reprompt_warm.encodes", std::to_string(feat1.misses - feat0.misses));
  result.note("reprompt_warm.mask_cache_hits", std::to_string(mask1.hits - mask0.hits));
  result.gate(!pass.round_ms.empty(), "reprompt_warm: no complete round in the budget");
  result.gate(pass.requests < schedule.size(), "reprompt_warm: request schedule exhausted");
  result.gate(feat1.misses == feat0.misses, "reprompt_warm: encoder ran in the timed phase");
  result.gate(mask1.hits == mask0.hits, "reprompt_warm: mask-cache hits in the timed phase");
  result.gate(mean(pass.iou) >= kIouFloor, "reprompt_warm: mean_iou below floor");

  const double request_ms = sum(pass.text_ms) + sum(pass.box_ms);
  if (!opt.trace) {
    result.set("setup_s", median(setup_s), kSetupReps);
    result.set("peak_rss_mb", peak_rss_mb());
    result.set("mean_iou", mean(pass.iou), static_cast<std::int64_t>(pass.iou.size()));
    result.set("latency_ms_p50", median(pass.round_ms),
               static_cast<std::int64_t>(pass.round_ms.size()));
    // Prompts per second of each round (a text and a box prompt), median
    // over rounds: a transient stall moves one round, not the figure.
    std::vector<double> round_rate;
    for (const double ms : pass.round_ms) round_rate.push_back(1000.0 / ms);
    result.set("throughput_per_s", median(round_rate), static_cast<std::int64_t>(pass.requests));
    return;
  }

  const auto n_text = static_cast<std::int64_t>(pass.text_ms.size());
  const auto n_box = static_cast<std::int64_t>(pass.box_ms.size());
  result.set("reprompt_text_ms_p50", median(pass.text_ms), n_text);
  result.set("reprompt_text_ms_p90", percentile(pass.text_ms, 90), n_text);
  result.set("reprompt_box_ms_p50", median(pass.box_ms), n_box);
  result.set("reprompt_box_ms_p90", percentile(pass.box_ms, 90), n_box);

  // Traced replay of the same requests on a fresh, re-warmed pipeline.
  pipeline.reset();
  pipeline = set_up(slices);
  SpanLog log;
  obs::set_enabled(true);
  log.reset();
  const auto tfeat0 = pipeline->cache_stats();
  const auto tmask0 = pipeline->mask_cache_stats();
  const Pass traced = run_pass(*pipeline, slices, schedule, 1e9, pass.requests, &log);
  obs::set_enabled(false);
  const auto tfeat1 = pipeline->cache_stats();
  const auto tmask1 = pipeline->mask_cache_stats();

  CacheTraffic traffic;
  traffic.add(tfeat0, tfeat1, tmask0, tmask1);
  result.gate(log.dropped() == 0, "reprompt_warm: trace ring overwrote spans");
  result.gate(traffic.feature_misses == 0 && traffic.mask_hits == 0,
              "reprompt_warm: cache bypass prediction failed in the traced pass");

  std::vector<double> request_net = log.net_ms("bench.text_prompt");
  for (const double ms : log.net_ms("bench.box_prompt")) request_net.push_back(ms);
  const double blocking = log.total_net_ms("bench.text_prompt") +
                          log.total_net_ms("bench.box_prompt");
  const double unattributed =
      blocking > 0.0 ? 100.0 *
                           (log.total_self_ms("bench.text_prompt") +
                            log.total_self_ms("bench.box_prompt")) /
                           blocking
                     : 0.0;
  result.gate(unattributed <= kUnattributedTolerancePct,
              "reprompt_warm: core.unattributed_pct above tolerance");
  const double traced_ms = sum(traced.text_ms) + sum(traced.box_ms);

  set_model_metrics(result, log, kEdge, traffic);
  set_cache_metrics(result, traffic, 0);
  result.set("cache.miss_request_ms_p50", median(request_net),
             static_cast<std::int64_t>(request_net.size()));
  result.set("core.unattributed_pct", unattributed);
  result.set("obs.trace_overhead_pct",
             request_ms > 0.0 ? 100.0 * (traced_ms / request_ms - 1.0) : 0.0);
  result.set("obs.spans_dropped", static_cast<double>(log.dropped()));
}

}  // namespace perfbench
