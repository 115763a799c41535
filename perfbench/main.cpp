// zen_perfbench — the repository benchmark's binary.
//
//   zen_perfbench --workload <volume_cold|reprompt_warm|wire_mixed>
//                 --seed N --seconds S --trace <0|1> --work-dir DIR
//
// Prints every metric of the reported table by name with its unit, a
// report line (host block, exact counts, sample counts, gate failures)
// and, as the last line, {"correct", "attempted", "failed", "metrics"}.
// --trace 0 reports the end-to-end table from untraced runs; --trace 1
// reports the per-layer table from a traced replay. Exits 1 when a
// correctness gate fails, 2 on bad arguments.
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <string>

#include "zenesis/obs/trace.hpp"
#include "report.hpp"
#include "workloads.hpp"

namespace {

int usage() {
  std::fprintf(stderr,
               "usage: zen_perfbench --workload NAME --seed N --seconds S "
               "--trace 0|1 --work-dir DIR\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Options opt;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string value = argv[i + 1];
    if (key == "--workload") {
      opt.workload = value;
    } else if (key == "--seed") {
      opt.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (key == "--seconds") {
      opt.seconds = std::strtod(value.c_str(), nullptr);
    } else if (key == "--trace") {
      opt.trace = value == "1";
    } else if (key == "--work-dir") {
      opt.work_dir = value;
    } else {
      return usage();
    }
  }
  if (argc % 2 == 0 || opt.work_dir.empty() || !(opt.seconds > 0.0)) {
    return usage();
  }

  // Untraced until a workload's traced phase turns spans on.
  zenesis::obs::set_enabled(false);
  std::filesystem::create_directories(opt.work_dir);

  perfbench::Result result;
  const auto steal0 = perfbench::cpu_steal_ticks();
  int code = 0;
  try {
    if (opt.workload == "volume_cold") {
      perfbench::run_volume_cold(opt, result);
    } else if (opt.workload == "reprompt_warm") {
      perfbench::run_reprompt_warm(opt, result);
    } else if (opt.workload == "wire_mixed") {
      perfbench::run_wire_mixed(opt, result);
    } else {
      std::fprintf(stderr, "zen_perfbench: unknown workload %s\n",
                   opt.workload.c_str());
      code = 2;
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "zen_perfbench: %s\n", e.what());
    code = 1;
  }
  std::error_code ec;
  std::filesystem::remove_all(opt.work_dir, ec);
  if (code != 0) return code;

  perfbench::note_host(result);
  const auto steal1 = perfbench::cpu_steal_ticks();
  if (steal1.second > steal0.second) {
    const double pct = 100.0 * static_cast<double>(steal1.first - steal0.first) /
                       static_cast<double>(steal1.second - steal0.second);
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%.2f", pct);
    result.note("host.steal_pct", buf);
  }
  result.print(opt.trace ? perfbench::per_layer_metrics()
                         : perfbench::end_to_end_metrics());
  return result.correct() ? 0 : 1;
}
