// Per-layer accounting of a traced run. The probe gathers what the API
// already returns per query (OptimizationStats, PolicyEvalStats,
// ExecMetrics / ChannelStats), the timings of the benchmark's own calls
// into each layer's public functions, and deltas of PlanCacheStats and
// MetricsRegistry counters, then emits the full per-layer metric set.
//
// Every workload emits every per-layer metric; a layer the workload does
// not load reports 0.

#ifndef CGQ_PERFBENCH_LAYERS_H_
#define CGQ_PERFBENCH_LAYERS_H_

#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "bench.h"
#include "service/plan_cache.h"

namespace perfbench {

/// Names of every per-layer metric, in BENCHMARK.json order.
const std::vector<std::string>& PerLayerMetricNames();
/// Names of every end-to-end metric, in BENCHMARK.json order.
const std::vector<std::string>& EndToEndMetricNames();

/// Timings of the benchmark's own calls into layer functions for one
/// query, and estimated shares of its exec time (traced runs). Each is 0
/// when the workload does not probe it.
struct ProbeShares {
  double parse_ms = 0;      ///< ParseQuery on the query text
  double bind_ms = 0;       ///< BindQuery + BuildLogicalPlan
  double normalize_ms = 0;  ///< ParameterizeSql
  double rebind_ms = 0;     ///< ClonePlan + BindPlanParams of the cached plan
  double check_ms = 0;      ///< CheckCompliance on the rebound plan
  double net_ms = 0;        ///< exec wall time spent on the wire
  double storage_ms = 0;    ///< exec wall time spent in storage reads
};

class LayerProbe {
 public:
  explicit LayerProbe(Tracer* tracer);

  /// Snapshots the counters the probe reports as deltas; call when the
  /// traced window starts.
  void StartWindow(const cgq::PlanCacheStats& cache);
  void EndWindow(const cgq::PlanCacheStats& cache);

  /// Accounts one query the service completed. `session_span` is the
  /// span around Session::Run; the layer spans derived from the library's
  /// stats are attached under it, split by the probe timings in `p`.
  /// Session time none of them covers is the run's uncovered time.
  void Observe(const cgq::QueryResult& r, double session_ms,
               int64_t session_span, const ProbeShares& p);

  /// A sample of one probe call, e.g. ("sql.parse_ms", 0.05).
  void Sample(const std::string& metric, double value);
  /// Sets a metric measured once per run (setup timings, ratios).
  void Set(const std::string& metric, double value);
  void Add(const std::string& metric, double value);

  /// Fills every per-layer metric into `out`. `overhead_frac` is the
  /// traced run's slowdown against the untraced window of the same run.
  void Emit(double overhead_frac, int64_t client_iterations,
            MetricSink* out) const;

 private:
  Tracer* tracer_;
  mutable std::mutex mu_;
  std::map<std::string, std::vector<double>> samples_;
  std::map<std::string, double> scalars_;
  cgq::PlanCacheStats cache_before_, cache_after_;
  std::map<std::string, int64_t> registry_before_, registry_after_;
};

}  // namespace perfbench

#endif  // CGQ_PERFBENCH_LAYERS_H_
