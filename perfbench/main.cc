// cgq_perfbench: one end-to-end benchmark of the compliant geo-distributed
// query processor, with a per-layer breakdown in traced runs.
//
//   cgq_perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//                 [--work-dir DIR] [--commit SHA] [--corrupt-reference]
//
// Workloads: adhoc_compile, analytics_disk, analytics_wire (see
// perfbench/workloads.json). The last stdout line is
// one JSON object {"correct", "attempted", "failed", "metrics"}; with
// --trace 0 the metrics are the end-to-end set, with --trace 1 the
// per-layer set. The exit code is non-zero when a correctness gate fails.

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <thread>

#include "bench.h"
#include "layers.h"

namespace perfbench {
namespace {

/// Mount point and filesystem type holding `path` (longest mount prefix
/// in /proc/self/mounts).
std::string FilesystemOf(const std::string& path) {
  std::error_code ec;
  const std::string real = std::filesystem::weakly_canonical(path, ec).string();
  std::ifstream mounts("/proc/self/mounts");
  std::string line, best_mount, best_type;
  while (std::getline(mounts, line)) {
    std::istringstream in(line);
    std::string dev, mount, type;
    if (!(in >> dev >> mount >> type)) continue;
    const bool prefix =
        real.compare(0, mount.size(), mount) == 0 &&
        (real.size() == mount.size() || mount == "/" ||
         real[mount.size()] == '/');
    if (prefix && mount.size() >= best_mount.size()) {
      best_mount = mount;
      best_type = type;
    }
  }
  return best_type + " at " + best_mount;
}

void PrintProvenance(const RunConfig& cfg, const std::string& commit) {
  std::printf(
      "# provenance {\"workload\": %s, \"seed\": %llu, \"seconds\": %s, "
      "\"trace\": %d, \"nproc\": %u, \"build_type\": %s, "
      "\"cgq_tracing\": \"ON\", \"cgq_failpoints\": \"ON\", "
      "\"compiler\": %s, \"commit\": %s, \"storage_fs\": %s, "
      "\"note\": %s}\n",
      JsonString(cfg.workload).c_str(),
      static_cast<unsigned long long>(cfg.seed),
      JsonNumber(cfg.seconds).c_str(), cfg.trace ? 1 : 0,
      std::thread::hardware_concurrency(),
      JsonString(PERFBENCH_BUILD_TYPE).c_str(),
      JsonString(PERFBENCH_COMPILER).c_str(), JsonString(commit).c_str(),
      JsonString(FilesystemOf(cfg.work_dir)).c_str(),
      JsonString("latencies are measured on the machine running this "
                 "benchmark: storage files sit in the page cache of the "
                 "filesystem above and the wire workload runs over loopback "
                 "TCP, not a storage device or a real WAN; modeled_wan_ms is "
                 "the alpha+beta*bytes network model and is never added to "
                 "wall time")
          .c_str());
}

int Usage(const char* why) {
  std::fprintf(stderr,
               "cgq_perfbench: %s\nusage: cgq_perfbench --workload NAME "
               "--seed N --seconds S --trace 0|1 [--work-dir DIR] "
               "[--commit SHA] [--corrupt-reference]\n",
               why);
  return 2;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;  // NOLINT
  RunConfig cfg;
  std::string commit = "unknown";
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    auto value = [&]() -> std::string {
      if (i + 1 >= argc) return "";
      return argv[++i];
    };
    if (a == "--workload") {
      cfg.workload = value();
    } else if (a == "--seed") {
      cfg.seed = std::strtoull(value().c_str(), nullptr, 10);
    } else if (a == "--seconds") {
      cfg.seconds = std::atof(value().c_str());
    } else if (a == "--trace") {
      cfg.trace = value() == "1";
    } else if (a == "--work-dir") {
      cfg.work_dir = value();
    } else if (a == "--commit") {
      commit = value();
    } else if (a == "--corrupt-reference") {
      cfg.corrupt_reference = true;
    } else {
      return Usage(("unknown argument " + a).c_str());
    }
  }
  if (cfg.seconds <= 0) return Usage("--seconds must be positive");
  if (cfg.work_dir.empty()) {
    cfg.work_dir = ".bench_build/perfbench";
  }
  std::error_code ec;
  std::filesystem::create_directories(cfg.work_dir, ec);
  if (ec) return Usage(("cannot create " + cfg.work_dir).c_str());

  using Runner = Tally (*)(const RunConfig&, MetricSink*);
  const std::map<std::string, Runner> runners = {
      {"adhoc_compile", RunAdhocCompile},
      {"analytics_disk", RunAnalyticsDisk},
      {"analytics_wire", RunAnalyticsWire},
  };
  auto it = runners.find(cfg.workload);
  if (it == runners.end()) return Usage("unknown workload");

  PrintProvenance(cfg, commit);
  std::fflush(stdout);
  MetricSink metrics;
  Tally tally;
  try {
    tally = it->second(cfg, &metrics);
  } catch (const SetupError& e) {
    std::fprintf(stderr, "cgq_perfbench: set-up failed: %s\n", e.what());
    return 1;
  }

  const std::vector<std::string>& names =
      cfg.trace ? PerLayerMetricNames() : EndToEndMetricNames();
  for (const std::string& name : names) {
    if (!metrics.Has(name)) {
      std::fprintf(stderr, "cgq_perfbench: metric %s was not measured\n",
                   name.c_str());
      return 1;
    }
  }
  metrics.Set("info.failed_frac",
              tally.attempted > 0 ? static_cast<double>(tally.failed) /
                                        static_cast<double>(tally.attempted)
                                  : 0,
              "ratio");
  metrics.PrintTable(cfg.trace ? "per-layer metrics (traced run)"
                               : "end-to-end metrics (untraced run)");
  for (const std::string& p : tally.problems) {
    std::printf("# GATE FAILED: %s\n", p.c_str());
  }
  const bool correct = tally.failed == 0 && tally.attempted > 0;
  std::printf("{\"correct\": %s, \"attempted\": %lld, \"failed\": %lld, "
              "\"metrics\": %s}\n",
              correct ? "true" : "false",
              static_cast<long long>(tally.attempted),
              static_cast<long long>(tally.failed),
              metrics.JsonObject(names).c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}
