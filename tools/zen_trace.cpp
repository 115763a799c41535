// zen_trace — capture a traced run of the zenesis stack and export it.
//
// Forces tracing on (equivalent to ZENESIS_TRACE=1), drives a synthetic
// workload through the serving layer and/or the Mode-B volume pipeline,
// then exports what the TraceCollector saw:
//
//   zen_trace dump  [--out PATH] [--workload serve|volume|both] [--prompt T]
//       Chrome trace-event JSON (chrome://tracing, Perfetto) + stage table.
//       Default output: zen_trace.json.
//   zen_trace stats [--workload serve|volume|both] [--prompt T]
//       Aggregated per-stage table only, no file written.
//
// The dump stitches each serve request across its submitter, the
// dispatcher and the fan-out workers via the trace_id each span carries
// (also echoed in Response::trace_id), so one slow request can be
// followed thread-to-thread in the viewer.
#include <cstdio>
#include <cstring>
#include <future>
#include <string>
#include <vector>

#include "zenesis/core/pipeline.hpp"
#include "zenesis/fibsem/synth.hpp"
#include "zenesis/obs/trace.hpp"
#include "zenesis/serve/service.hpp"

using namespace zenesis;

#if !defined(ZENESIS_OBS_DISABLED)
namespace {

// Returns the number of responses that were not ok.
int run_serve_workload(const std::string& prompt) {
  std::vector<image::AnyImage> slices;
  for (std::uint64_t seed : {61u, 62u, 63u}) {
    fibsem::SynthConfig cfg;
    cfg.type = fibsem::SampleType::kCrystalline;
    cfg.width = 96;
    cfg.height = 96;
    cfg.seed = seed;
    slices.emplace_back(fibsem::generate_slice(cfg, 0).raw);
  }
  serve::ServiceConfig cfg;
  cfg.queue_capacity = 32;
  serve::SegmentService service(cfg);
  std::vector<std::future<serve::Response>> futures;
  for (int i = 0; i < 9; ++i) {
    futures.push_back(service.submit(
        serve::Request::slice(slices[static_cast<std::size_t>(i % 3)], prompt)));
  }
  int ok = 0;
  int failed = 0;
  for (auto& f : futures) {
    const serve::Response r = f.get();
    if (r.ok()) {
      ok += 1;
    } else {
      failed += 1;
      std::fprintf(stderr, "serve request failed: %s\n",
                   r.error.message.c_str());
    }
  }
  service.shutdown();
  std::printf("responses: %d ok, %d failed\n", ok, failed);
  return failed;
}

void run_volume_workload(const std::string& prompt) {
  fibsem::SynthConfig cfg;
  cfg.type = fibsem::SampleType::kCrystalline;
  cfg.width = 96;
  cfg.height = 96;
  cfg.depth = 4;
  cfg.seed = 17;
  const auto vol = fibsem::generate_volume(cfg);
  const core::ZenesisPipeline pipe;
  (void)pipe.segment_volume(core::VolumeRequest::view(vol.volume, prompt));
}

void print_stage_table() {
  const auto stages = obs::TraceCollector::global().aggregate();
  std::printf("%-24s %8s %12s %12s %12s\n", "stage", "count", "mean_us",
              "min_us", "max_us");
  for (const auto& [name, st] : stages) {
    std::printf("%-24s %8llu %12.1f %12.1f %12.1f\n", name.c_str(),
                static_cast<unsigned long long>(st.count), st.mean_us(),
                st.min_us, st.max_us);
  }
  const auto& collector = obs::TraceCollector::global();
  std::printf("threads seen: %zu; spans dropped by ring window: %llu\n",
              collector.threads_seen(),
              static_cast<unsigned long long>(collector.overwritten()));
}

}  // namespace
#endif  // !ZENESIS_OBS_DISABLED

namespace {

int usage() {
  std::fprintf(stderr,
               "usage: zen_trace <dump|stats> [--out PATH] "
               "[--workload serve|volume|both] [--prompt TEXT]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return usage();
  const std::string mode = argv[1];
  if (mode != "dump" && mode != "stats") return usage();

  std::string out = "zen_trace.json";
  std::string workload = "both";
  std::string prompt =
      fibsem::default_prompt(fibsem::SampleType::kCrystalline);
  for (int i = 2; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--out" && i + 1 < argc) {
      out = argv[++i];
    } else if (arg == "--workload" && i + 1 < argc) {
      workload = argv[++i];
    } else if (arg == "--prompt" && i + 1 < argc) {
      prompt = argv[++i];
    } else {
      return usage();
    }
  }
  if (workload != "serve" && workload != "volume" && workload != "both") {
    return usage();
  }

#if defined(ZENESIS_OBS_DISABLED)
  std::fprintf(stderr,
               "zen_trace: tracing was compiled out (ZENESIS_OBS=OFF); "
               "rebuild with -DZENESIS_OBS=ON\n");
  return 1;
#else
  obs::set_enabled(true);
  obs::TraceCollector::global().clear();

  int failed = 0;
  if (workload == "serve" || workload == "both") {
    failed = run_serve_workload(prompt);
  }
  if (workload == "volume" || workload == "both") run_volume_workload(prompt);

  print_stage_table();
  if (mode == "dump") {
    obs::TraceCollector::global().write_chrome_trace(out);
    std::printf("chrome trace written to %s (open in chrome://tracing)\n",
                out.c_str());
  }
  return failed == 0 ? 0 : 1;
#endif
}
