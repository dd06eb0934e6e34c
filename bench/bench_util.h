#ifndef CGQ_BENCH_BENCH_UTIL_H_
#define CGQ_BENCH_BENCH_UTIL_H_

#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <string>
#include <vector>

namespace cgq {
namespace bench {

struct TimingStats {
  double mean_ms = 0;
  double stderr_ms = 0;
  double min_ms = 0;
};

/// Runs `fn` `reps` times (default 7, as in the paper) and reports the mean
/// and standard error in milliseconds.
inline TimingStats TimeRepeated(const std::function<void()>& fn,
                                int reps = 7) {
  std::vector<double> samples;
  samples.reserve(static_cast<size_t>(reps));
  for (int i = 0; i < reps; ++i) {
    auto start = std::chrono::steady_clock::now();
    fn();
    samples.push_back(std::chrono::duration<double, std::milli>(
                          std::chrono::steady_clock::now() - start)
                          .count());
  }
  TimingStats out;
  out.min_ms = samples.empty() ? 0 : samples[0];
  for (double s : samples) {
    out.mean_ms += s;
    if (s < out.min_ms) out.min_ms = s;
  }
  out.mean_ms /= reps;
  double var = 0;
  for (double s : samples) var += (s - out.mean_ms) * (s - out.mean_ms);
  if (reps > 1) {
    out.stderr_ms = std::sqrt(var / (reps - 1)) / std::sqrt(reps);
  }
  return out;
}

inline void PrintHeader(const std::string& title) {
  std::printf("\n================================================================\n");
  std::printf("%s\n", title.c_str());
  std::printf("================================================================\n");
}

/// Which executor backends an execution bench measures. `kBoth` means
/// every *in-process* backend (row and fragment); the
/// distributed backend is opt-in (it needs servers — a --connect hosts
/// file or the bench's own loopback deployment).
enum class ExecModeArg { kRow, kFragment, kDistributed, kBoth };

inline const char* ExecModeArgToString(ExecModeArg m) {
  switch (m) {
    case ExecModeArg::kRow:
      return "row";
    case ExecModeArg::kFragment:
      return "fragment";
    case ExecModeArg::kDistributed:
      return "distributed";
    case ExecModeArg::kBoth:
      return "both";
  }
  return "?";
}

/// Injected-fault profile for execution benches: `none` runs on healthy
/// links; `lossy` drops a small fraction of batches on every cross-site
/// link (plus a little extra latency), with retries sized so both
/// backends always recover — results stay byte-identical while the
/// recovery counters show the reattempted traffic.
enum class FaultProfileArg { kNone, kLossy };

inline const char* FaultProfileArgToString(FaultProfileArg p) {
  return p == FaultProfileArg::kLossy ? "lossy" : "none";
}

/// Shared bench command line:
///   --threads=N        pool width for the parallel configuration (default 4)
///   --reps=N           timed repetitions per cell (default 7)
///   --tiny             CI smoke mode: smallest scales only, fewer reps
///   --json=PATH        append one JSON object per result row to PATH
///   --exec-mode=M      row | fragment | distributed | both
///                      (default both = the in-process backends)
///   --connect=PATH     hosts file (host:port loc[,loc] lines) for
///                      --exec-mode=distributed; without it the bench
///                      deploys its own loopback servers
///   --listen=L[,L...]  run as a location server for the given location
///                      ids instead of benchmarking (ephemeral port,
///                      printed on stdout; exits on stdin EOF)
///   --batch-size=N     rows per batch of the fragment runtime
///   --storage=S        memory | disk (default memory): where the bench
///                      store keeps its fragments. disk routes every
///                      scan through the per-location storage engine
///                      (checksummed blocks under a temp dir)
///   --fault-profile=P  none | lossy (default none)
///   --fault-seed=N     seed of the deterministic fault schedule
///   --trace-out=PATH   write one Chrome trace_event JSON file to PATH
///   --plan-cache       also run the plan-cache service bench (bench_micro)
///   --clients=N        concurrent service clients for --plan-cache (default 4)
struct BenchOptions {
  int threads = 4;
  int reps = 7;
  bool tiny = false;
  std::string json_path;
  ExecModeArg exec_mode = ExecModeArg::kBoth;
  std::string connect_hosts;
  std::string listen_locations;
  int batch_size = 1024;
  std::string storage = "memory";
  FaultProfileArg fault_profile = FaultProfileArg::kNone;
  uint64_t fault_seed = 20260807;
  std::string trace_out;
  bool plan_cache = false;
  int clients = 4;

  static BenchOptions Parse(int argc, char** argv) {
    BenchOptions o;
    for (int i = 1; i < argc; ++i) {
      const char* a = argv[i];
      if (std::strncmp(a, "--threads=", 10) == 0) {
        o.threads = std::atoi(a + 10);
      } else if (std::strncmp(a, "--reps=", 7) == 0) {
        o.reps = std::atoi(a + 7);
      } else if (std::strcmp(a, "--tiny") == 0) {
        o.tiny = true;
        o.reps = 3;
      } else if (std::strncmp(a, "--json=", 7) == 0) {
        o.json_path = a + 7;
      } else if (std::strncmp(a, "--exec-mode=", 12) == 0) {
        const char* m = a + 12;
        if (std::strcmp(m, "row") == 0) {
          o.exec_mode = ExecModeArg::kRow;
        } else if (std::strcmp(m, "fragment") == 0) {
          o.exec_mode = ExecModeArg::kFragment;
        } else if (std::strcmp(m, "distributed") == 0) {
          o.exec_mode = ExecModeArg::kDistributed;
        } else if (std::strcmp(m, "both") == 0) {
          o.exec_mode = ExecModeArg::kBoth;
        } else {
          std::fprintf(
              stderr,
              "bad --exec-mode '%s' "
              "(row|fragment|distributed|both)\n",
              m);
          std::exit(2);
        }
      } else if (std::strncmp(a, "--connect=", 10) == 0) {
        o.connect_hosts = a + 10;
      } else if (std::strncmp(a, "--listen=", 9) == 0) {
        o.listen_locations = a + 9;
      } else if (std::strncmp(a, "--batch-size=", 13) == 0) {
        o.batch_size = std::atoi(a + 13);
      } else if (std::strncmp(a, "--storage=", 10) == 0) {
        o.storage = a + 10;
        if (o.storage != "memory" && o.storage != "disk") {
          std::fprintf(stderr, "bad --storage '%s' (memory|disk)\n",
                       o.storage.c_str());
          std::exit(2);
        }
      } else if (std::strncmp(a, "--fault-profile=", 16) == 0) {
        const char* p = a + 16;
        if (std::strcmp(p, "none") == 0) {
          o.fault_profile = FaultProfileArg::kNone;
        } else if (std::strcmp(p, "lossy") == 0) {
          o.fault_profile = FaultProfileArg::kLossy;
        } else {
          std::fprintf(stderr, "bad --fault-profile '%s' (none|lossy)\n",
                       p);
          std::exit(2);
        }
      } else if (std::strncmp(a, "--fault-seed=", 13) == 0) {
        o.fault_seed = std::strtoull(a + 13, nullptr, 10);
      } else if (std::strncmp(a, "--trace-out=", 12) == 0) {
        o.trace_out = a + 12;
      } else if (std::strcmp(a, "--plan-cache") == 0) {
        o.plan_cache = true;
      } else if (std::strncmp(a, "--clients=", 10) == 0) {
        o.clients = std::atoi(a + 10);
      } else {
        std::fprintf(stderr,
                     "unknown argument '%s' "
                     "(--threads=N --reps=N --tiny --json=PATH "
                     "--exec-mode=row|fragment|distributed|both "
                     "--connect=PATH --listen=L[,L] --batch-size=N "
                     "--storage=memory|disk "
                     "--fault-profile=none|lossy --fault-seed=N "
                     "--trace-out=PATH --plan-cache --clients=N)\n",
                     a);
        std::exit(2);
      }
    }
    if (o.threads < 1) o.threads = 1;
    if (o.reps < 1) o.reps = 1;
    if (o.batch_size < 1) o.batch_size = 1;
    if (o.clients < 1) o.clients = 1;
    return o;
  }

  /// The ExecModeArg expanded to concrete backends.
  std::vector<const char*> ExecModes() const {
    switch (exec_mode) {
      case ExecModeArg::kRow:
        return {"row"};
      case ExecModeArg::kFragment:
        return {"fragment"};
      case ExecModeArg::kDistributed:
        return {"distributed"};
      case ExecModeArg::kBoth:
        // Deliberately excludes "distributed": the in-process pair is
        // what the default bench (and the checked-in BENCH_micro.json
        // baseline) covers; distributed runs land in their own JSON.
        return {"row", "fragment"};
    }
    return {};
  }
};

class JsonRow;

/// Adds the per-phase timing breakdown of one optimized + executed query
/// to a result row (alongside, never instead of, the aggregate fields a
/// bench already emits). `opt` is an OptimizationStats, `metrics` an
/// ExecMetrics; templated so this header stays free of engine includes.
template <typename Row, typename OptStats, typename Metrics>
inline void SetPhaseTimings(Row& row, const OptStats& opt,
                            const Metrics& metrics) {
  row.Set("opt_prepare_ms", opt.prepare_ms)
      .Set("opt_explore_ms", opt.explore_ms)
      .Set("opt_annotate_ms", opt.annotate_ms)
      .Set("opt_site_ms", opt.site_ms)
      .Set("opt_total_ms", opt.total_ms)
      .Set("exec_wall_ms", metrics.exec_wall_ms)
      .Set("network_ms", metrics.network_ms);
}

/// Builds one flat JSON object ({"k": v, ...}); values typed per setter.
class JsonRow {
 public:
  JsonRow& Set(const std::string& key, const std::string& value) {
    const std::string escaped = Escaped(value);
    return Raw(key, "\"" + escaped + "\"");
  }
  JsonRow& Set(const std::string& key, const char* value) {
    return Set(key, std::string(value));
  }
  JsonRow& Set(const std::string& key, double value) {
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.6g", value);
    return Raw(key, buf);
  }
  JsonRow& Set(const std::string& key, int64_t value) {
    return Raw(key, std::to_string(value));
  }
  JsonRow& Set(const std::string& key, size_t value) {
    return Raw(key, std::to_string(value));
  }
  JsonRow& Set(const std::string& key, int value) {
    return Raw(key, std::to_string(value));
  }
  JsonRow& Set(const std::string& key, bool value) {
    return Raw(key, value ? "true" : "false");
  }

  std::string ToString() const { return "{" + body_ + "}"; }

 private:
  JsonRow& Raw(const std::string& key, const std::string& value) {
    if (!body_.empty()) body_ += ", ";
    const std::string escaped = Escaped(key);
    body_ += "\"" + escaped + "\": " + value;
    return *this;
  }
  static std::string Escaped(const std::string& s) {
    std::string out;
    for (char c : s) {
      if (c == '"' || c == '\\') out += '\\';
      out += c;
    }
    return out;
  }
  std::string body_;
};

/// Collects rows and writes them as a JSON array on Flush (no-op when the
/// path is empty, i.e. --json was not given).
class JsonReport {
 public:
  explicit JsonReport(std::string path) : path_(std::move(path)) {}

  void Add(const JsonRow& row) { rows_.push_back(row.ToString()); }

  /// Returns false when the file could not be written.
  bool Flush() const {
    if (path_.empty()) return true;
    std::FILE* f = std::fopen(path_.c_str(), "w");
    if (f == nullptr) {
      std::fprintf(stderr, "cannot write %s\n", path_.c_str());
      return false;
    }
    std::fprintf(f, "[\n");
    for (size_t i = 0; i < rows_.size(); ++i) {
      std::fprintf(f, "  %s%s\n", rows_[i].c_str(),
                   i + 1 < rows_.size() ? "," : "");
    }
    std::fprintf(f, "]\n");
    std::fclose(f);
    return true;
  }

 private:
  std::string path_;
  std::vector<std::string> rows_;
};

}  // namespace bench
}  // namespace cgq

#endif  // CGQ_BENCH_BENCH_UTIL_H_
