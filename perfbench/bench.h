// Shared pieces of the end-to-end benchmark program: run configuration,
// timing helpers, result digests, process counters, the in-memory span
// recorder used by traced runs, and the metric sink that prints the
// result line.
//
// Everything here lives in the benchmark. The library is driven only
// through its public API; spans are recorded around the calls the
// benchmark makes, never inside src/.

#ifndef CGQ_PERFBENCH_BENCH_H_
#define CGQ_PERFBENCH_BENCH_H_

#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <stdexcept>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "exec/executor.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double MsBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}
inline double MsSince(Clock::time_point t0) {
  return MsBetween(t0, Clock::now());
}

/// Command-line configuration of one run.
struct RunConfig {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  /// Self-check hook: perturbs every expected result digest so the
  /// correctness gates must fail the run.
  bool corrupt_reference = false;
  /// Scratch directory owned by this run (storage directories live here).
  std::string work_dir;
};

/// Linear-interpolated percentile (p in [0, 1]) of `v`; 0 when empty.
double Percentile(std::vector<double> v, double p);
inline double Median(std::vector<double> v) {
  return Percentile(std::move(v), 0.5);
}
/// The highest of {0.99, 0.9, 0.75, 0.5} with at least ten samples above
/// it; returns the chosen percentile in *p.
double SupportedTail(const std::vector<double>& v, double* p);
double GeoMean(const std::vector<double>& v);
double Mean(const std::vector<double>& v);

/// FNV-1a over the full-precision rendering of a result (column names and
/// rows, order included): equal digests mean byte-identical results.
uint64_t ResultDigest(const cgq::QueryResult& r);
uint64_t RowsDigest(const std::vector<cgq::Row>& rows);

/// Ship accounting a result must share with its reference.
struct ShipAccount {
  int64_t ships = 0;
  int64_t rows_shipped = 0;
  double bytes_shipped = 0;
  bool operator==(const ShipAccount&) const = default;
};
ShipAccount ShipAccountOf(const cgq::ExecMetrics& m);

/// Process counters.
double ProcessCpuMs();  ///< user + sys (getrusage)
double PeakRssMb();     ///< ru_maxrss
int64_t ProcWriteBytes();  ///< /proc/self/io write_bytes (0 if unreadable)
/// Machine-wide CPU time from /proc/stat, in clock ticks: the share the
/// hypervisor stole between two readings shows when a run measured a
/// contended host rather than the program.
struct CpuTicks {
  int64_t steal = 0;
  int64_t total = 0;
};
CpuTicks ProcStatTicks();  ///< zeros if unreadable
double StealShare(const CpuTicks& a, const CpuTicks& b);
int64_t DirectoryBytes(const std::string& dir);

/// Value of a MetricsRegistry counter/gauge (0 when never registered).
int64_t RegistryValue(const std::string& name);

/// Name of the span around one QueryService::Session::Run call.
inline constexpr const char* kSessionSpan = "service.session";

/// In-memory span recorder of the traced run. A span belongs to the layer
/// named by its prefix before the first '.', e.g. "sql.parse" -> sql.
/// Spans of one client iteration nest under a root span named
/// "client.<...>" that holds the session span; "derived" spans carry a
/// duration the library reported through its own stats
/// (OptimizationStats, ExecMetrics) and are placed inside the span whose
/// call returned them.
class Tracer {
 public:
  struct Span {
    std::string name;
    int64_t parent = -1;
    double start_ms = 0;  ///< since the tracer was created
    double dur_ms = 0;
    int thread = 0;
    bool derived = false;
  };

  /// Starts a span under `parent` (-1 for a root); returns its id.
  int64_t Begin(const std::string& name, int64_t parent, int thread);
  void End(int64_t id);
  /// Records a child of `parent` whose duration came from library stats;
  /// returns its id so derived spans can nest.
  int64_t Derived(const std::string& name, int64_t parent, double dur_ms);
  /// Records a completed span of a known duration ending now; returns its
  /// id.
  int64_t Complete(const std::string& name, int64_t parent, double dur_ms,
                int thread);

  std::vector<Span> spans() const;
  /// Writes the spans as Chrome trace_event JSON.
  bool WriteChromeJson(const std::string& path) const;

  /// Per-layer self time (span duration minus the durations of its direct
  /// children), summed over all spans of the layer. The benchmark's own
  /// "client" and "probe" spans are not layers and are left out, and so is
  /// the session span's self time, which UncoveredShare counts.
  std::map<std::string, double> LayerSelfMs() const;
  /// Share of session-span time that no layer span directly under it
  /// covers.
  double UncoveredShare() const;

 private:
  Clock::time_point origin_ = Clock::now();
  mutable std::mutex mu_;
  std::vector<Span> spans_;
};

/// RAII span; a no-op when `tracer` is null (untraced runs).
class ScopedSpan {
 public:
  ScopedSpan(Tracer* tracer, const std::string& name, int64_t parent,
             int thread = 0)
      : tracer_(tracer),
        id_(tracer ? tracer->Begin(name, parent, thread) : -1) {}
  ~ScopedSpan() { End(); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;
  void End() {
    if (tracer_ != nullptr && id_ >= 0) tracer_->End(id_);
    tracer_ = nullptr;
  }
  int64_t id() const { return id_; }

 private:
  Tracer* tracer_;
  int64_t id_;
};

/// Outcome counters of a run's queries.
struct Tally {
  int64_t attempted = 0;
  int64_t failed = 0;
  std::vector<std::string> problems;  ///< first few gate failures

  void Fail(const std::string& why);
  void Merge(const Tally& other);
};

/// Collects named metrics with units and prints them.
class MetricSink {
 public:
  void Set(const std::string& name, double value, const std::string& unit);
  bool Has(const std::string& name) const { return values_.count(name) > 0; }
  /// Human-readable lines ("name value unit"), one per metric.
  void PrintTable(const std::string& heading) const;
  /// JSON object of the metrics whose names are in `names`, in that order.
  std::string JsonObject(const std::vector<std::string>& names) const;

 private:
  std::map<std::string, std::pair<double, std::string>> values_;
};

/// How often a run repeats its set-up for setup_s: at least kMinSetups
/// times and until kMinSetupSeconds have been spent, at most kMaxSetups.
inline constexpr int kMinSetups = 3;
inline constexpr int kMaxSetups = 25;
inline constexpr double kMinSetupSeconds = 2.0;

/// Repeats `setup(i)` per the rule above (once when `once`), timing each
/// call, and returns the median seconds. `setup` must build a fresh
/// fixture every call; the caller keeps the last one. A `setup` that
/// returns a double reports its own duration (to leave out work that is
/// not set-up, such as computing references).
template <typename F>
double MedianSetupSeconds(bool once, F&& setup) {
  std::vector<double> s;
  double total = 0;
  for (int i = 0; i < kMaxSetups; ++i) {
    const auto t0 = Clock::now();
    double secs = 0;
    if constexpr (std::is_same_v<decltype(setup(i)), double>) {
      secs = setup(i);
    } else {
      setup(i);
      secs = MsSince(t0) / 1000.0;
    }
    s.push_back(secs);
    total += MsSince(t0) / 1000.0;
    if (once || (i + 1 >= kMinSetups && total >= kMinSetupSeconds)) break;
  }
  return Median(s);
}

/// Set-up step failure: aborts the run (exit code 1, no result line).
struct SetupError : std::runtime_error {
  using std::runtime_error::runtime_error;
};
void Require(const cgq::Status& s, const std::string& what);

/// Number of tables in the FROM list and whether the query aggregates:
/// the query class whose median latency enters geomean_ms.
std::string QueryClass(const std::string& sql);

/// Shortest "%g" rendering of a parameter value, e.g. 0.0002 or 500.
std::string Fmt(double v);

/// Formats a double with all its digits for JSON.
std::string JsonNumber(double v);
std::string JsonString(const std::string& s);

// Workload entry points. Each fills `out` with the end-to-end metrics
// (untraced run) or the per-layer metrics (traced run) and returns the
// query tally; correctness-gate failures land in the tally.
Tally RunAdhocCompile(const RunConfig& cfg, MetricSink* out);
Tally RunAnalyticsDisk(const RunConfig& cfg, MetricSink* out);
Tally RunAnalyticsWire(const RunConfig& cfg, MetricSink* out);

/// The fixed parameters a workload ran with, printed for provenance and
/// compared against perfbench/workloads.json by the self-check.
void PrintParams(const std::string& workload,
                 const std::vector<std::pair<std::string, std::string>>& kv);

}  // namespace perfbench

#endif  // CGQ_PERFBENCH_BENCH_H_
