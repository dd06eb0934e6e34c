#include "layers.h"

#include <algorithm>
#include <utility>

#include "common/trace.h"

namespace perfbench {

namespace {

const char* const kLayers[] = {"service", "sql",  "plan",
                               "optimizer", "core", "expr",
                               "exec",    "net",  "storage"};

/// Registry counters reported as deltas over the traced window.
const char* const kRegistryCounters[] = {
    "site_selector.memo_hits", "site_selector.memo_misses",
    "storage.blocks_written",  "storage.checkpoint_failures",
    "storage.blocks_read"};

std::map<std::string, int64_t> SnapshotRegistry() {
  std::map<std::string, int64_t> out;
  for (const char* name : kRegistryCounters) out[name] = RegistryValue(name);
  return out;
}

double Ratio(double num, double den) { return den > 0 ? num / den : 0; }

}  // namespace

const std::vector<std::string>& EndToEndMetricNames() {
  static const std::vector<std::string> names = {
      "setup_s", "qps", "p50_ms", "geomean_ms", "cpu_ms_per_query",
      "modeled_wan_ms"};
  return names;
}

const std::vector<std::string>& PerLayerMetricNames() {
  static const std::vector<std::string> names = [] {
    std::vector<std::string> n = {
        "service.queue_wait_p50_ms",
        "service.queue_wait_p99_ms",
        "service.cache_hit_ratio",
        "service.cache_param_hit_ratio",
        "service.cache_evictions",
        "service.cache_bytes",
        "service.cache_revalidations",
        "sql.parse_ms",
        "sql.normalize_ms",
        "plan.bind_ms",
        "plan.rebind_ms",
        "optimizer.prepare_ms",
        "optimizer.explore_ms",
        "optimizer.memo_exprs",
        "core.annotate_ms",
        "core.policy_eval_ms",
        "core.policy_candidates",
        "core.policy_eta_ratio",
        "core.prefilter_skips",
        "core.site_select_ms",
        "core.site_memo_hit_ratio",
        "core.compliance_check_ms",
        "expr.implication_tests",
        "expr.implication_cache_hit_ratio",
        "exec.wall_ms",
        "exec.slowest_fragment_ms",
        "exec.fragment_skew",
        "exec.rows_scanned",
        "exec.cpu_ms",
        "exec.bytes_shipped",
        "exec.rows_shipped",
        "exec.ship_batches",
        "exec.channel_peak_in_flight",
        "net.connect_ms",
        "net.deploy_s",
        "net.wire_overhead_ms",
        "storage.append_p50_ms",
        "storage.append_p99_ms",
        "storage.blocks_written",
        "storage.checkpoint_failures",
        "storage.write_amp",
        "storage.scan_ms",
        "storage.scan_mb_per_s",
        "storage.blocks_read",
        "storage.space_amp",
        "storage.recovery_replays",
        "storage.load_s",
        "loadgen.lag_p99_ms",
    };
    for (const char* layer : kLayers) {
      n.push_back(std::string(layer) + ".self_ms");
    }
    n.push_back("trace.uncovered_share");
    n.push_back("trace.overhead_frac");
    return n;
  }();
  return names;
}

LayerProbe::LayerProbe(Tracer* tracer) : tracer_(tracer) {}

void LayerProbe::StartWindow(const cgq::PlanCacheStats& cache) {
  std::lock_guard<std::mutex> lock(mu_);
  cache_before_ = cache;
  registry_before_ = SnapshotRegistry();
}

void LayerProbe::EndWindow(const cgq::PlanCacheStats& cache) {
  std::lock_guard<std::mutex> lock(mu_);
  cache_after_ = cache;
  registry_after_ = SnapshotRegistry();
}

void LayerProbe::Observe(const cgq::QueryResult& r, double session_ms,
                         int64_t session_span, const ProbeShares& p) {
  const cgq::OptimizationStats& o = r.opt_stats;
  const cgq::ExecMetrics& m = r.metrics;
  const double queue_wait =
      std::max(0.0, session_ms - o.total_ms - m.exec_wall_ms);

  // Layer spans under the session span, derived from the library's stats.
  // A plan-cache hit reports the hit path's cost (ParameterizeSql, lookup
  // + rebind, CheckCompliance re-proof) as total_ms; a miss reports the
  // optimizer run, whose prepare phase (parse + bind + normalize) is split
  // into sql / plan shares by the probe timings of the same text, and
  // runs ParameterizeSql before it, outside total_ms.
  if (o.cache_hit) {
    const int64_t hit = tracer_->Derived("service.plan_cache_hit",
                                         session_span, o.total_ms);
    double left = o.total_ms;
    auto part = [&](const char* name, double ms) {
      const double d = std::min(ms, left);
      if (d <= 0) return;
      tracer_->Derived(name, hit, d);
      left -= d;
    };
    part("sql.normalize", p.normalize_ms);
    part("plan.rebind", p.rebind_ms);
    part("core.compliance_check", p.check_ms);
  } else {
    const double normalize = std::min(p.normalize_ms, queue_wait);
    if (normalize > 0) {
      tracer_->Derived("sql.normalize", session_span, normalize);
    }
    const int64_t opt = tracer_->Derived("optimizer.optimize", session_span,
                                         o.total_ms);
    const double sql_part = std::min(p.parse_ms, o.prepare_ms);
    const double plan_part = std::min(p.bind_ms, o.prepare_ms - sql_part);
    if (sql_part > 0) tracer_->Derived("sql.parse", opt, sql_part);
    if (plan_part > 0) tracer_->Derived("plan.bind", opt, plan_part);
    const int64_t ann = tracer_->Derived("core.annotate", opt, o.annotate_ms);
    tracer_->Derived("core.policy_eval", ann,
                     std::min(o.policy.eval_ms, o.annotate_ms));
    tracer_->Derived("core.site_select", opt, o.site_ms);
  }
  const int64_t ex =
      tracer_->Derived("exec.execute", session_span, m.exec_wall_ms);
  if (p.net_ms > 0) {
    tracer_->Derived("net.wire", ex, std::min(p.net_ms, m.exec_wall_ms));
  }
  if (p.storage_ms > 0) {
    tracer_->Derived("storage.read", ex,
                     std::min(p.storage_ms, m.exec_wall_ms));
  }

  std::lock_guard<std::mutex> lock(mu_);
  samples_["service.queue_wait_ms"].push_back(queue_wait);
  if (!o.cache_hit) {
    samples_["optimizer.prepare_ms"].push_back(o.prepare_ms);
    samples_["optimizer.explore_ms"].push_back(o.explore_ms);
    samples_["optimizer.memo_exprs"].push_back(
        static_cast<double>(o.memo_exprs));
    samples_["core.annotate_ms"].push_back(o.annotate_ms);
    samples_["core.policy_eval_ms"].push_back(o.policy.eval_ms);
    samples_["core.site_select_ms"].push_back(o.site_ms);
    scalars_["core.candidates_sum"] += static_cast<double>(o.policy.candidates);
    scalars_["core.eta_sum"] += static_cast<double>(o.policy.eta);
    scalars_["core.prefilter_sum"] +=
        static_cast<double>(o.policy.prefilter_skips);
    scalars_["expr.tests_sum"] +=
        static_cast<double>(o.policy.implication_tests);
    scalars_["expr.cache_hits_sum"] +=
        static_cast<double>(o.policy.implication_cache_hits);
    scalars_["optimized"] += 1;
  }
  samples_["exec.wall_ms"].push_back(m.exec_wall_ms);
  samples_["exec.rows_scanned"].push_back(static_cast<double>(m.rows_scanned));
  samples_["exec.bytes_shipped"].push_back(m.bytes_shipped);
  samples_["exec.rows_shipped"].push_back(static_cast<double>(m.rows_shipped));
  double batches = 0, peak = 0;
  for (const cgq::ChannelStats& e : m.edges) {
    batches += static_cast<double>(e.batches);
    peak = std::max(peak, static_cast<double>(e.peak_in_flight));
  }
  samples_["exec.ship_batches"].push_back(batches);
  scalars_["exec.peak_in_flight"] =
      std::max(scalars_["exec.peak_in_flight"], peak);
  if (!m.fragments.empty()) {
    std::vector<double> walls;
    for (const cgq::FragmentMetrics& f : m.fragments) {
      walls.push_back(f.wall_ms);
    }
    const double slowest = *std::max_element(walls.begin(), walls.end());
    samples_["exec.slowest_fragment_ms"].push_back(slowest);
    samples_["exec.fragment_skew"].push_back(Ratio(slowest, Median(walls)));
  }
}

void LayerProbe::Sample(const std::string& metric, double value) {
  std::lock_guard<std::mutex> lock(mu_);
  samples_[metric].push_back(value);
}

void LayerProbe::Set(const std::string& metric, double value) {
  std::lock_guard<std::mutex> lock(mu_);
  scalars_[metric] = value;
}

void LayerProbe::Add(const std::string& metric, double value) {
  std::lock_guard<std::mutex> lock(mu_);
  scalars_[metric] += value;
}

void LayerProbe::Emit(double overhead_frac, int64_t client_iterations,
                      MetricSink* out) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto samples = [this](const std::string& k) -> std::vector<double> {
    auto it = samples_.find(k);
    return it == samples_.end() ? std::vector<double>() : it->second;
  };
  auto scalar = [this](const std::string& k) {
    auto it = scalars_.find(k);
    return it == scalars_.end() ? 0.0 : it->second;
  };
  auto delta = [this](const std::string& k) {
    auto a = registry_after_.find(k);
    auto b = registry_before_.find(k);
    if (a == registry_after_.end() || b == registry_before_.end()) return 0.0;
    return static_cast<double>(a->second - b->second);
  };
  auto mean = [&](const std::string& k) { return Mean(samples(k)); };

  const double lookups =
      static_cast<double>((cache_after_.hits - cache_before_.hits) +
                          (cache_after_.misses - cache_before_.misses));
  const double qw_p50 = Percentile(samples("service.queue_wait_ms"), 0.5);
  const double qw_p99 = Percentile(samples("service.queue_wait_ms"), 0.99);
  out->Set("service.queue_wait_p50_ms", qw_p50, "ms");
  out->Set("service.queue_wait_p99_ms", qw_p99, "ms");
  out->Set("service.cache_hit_ratio",
           Ratio(static_cast<double>(cache_after_.hits - cache_before_.hits),
                 lookups),
           "ratio");
  out->Set("service.cache_param_hit_ratio",
           Ratio(static_cast<double>(cache_after_.param_hits -
                                     cache_before_.param_hits),
                 lookups),
           "ratio");
  out->Set("service.cache_evictions",
           static_cast<double>(cache_after_.evictions -
                               cache_before_.evictions),
           "count");
  out->Set("service.cache_bytes",
           static_cast<double>(cache_after_.bytes) / (1024.0 * 1024.0),
           "MiB");
  out->Set("service.cache_revalidations",
           static_cast<double>(cache_after_.revalidations -
                               cache_before_.revalidations),
           "count");

  out->Set("sql.parse_ms", mean("sql.parse_ms"), "ms");
  out->Set("sql.normalize_ms", mean("sql.normalize_ms"), "ms");
  out->Set("plan.bind_ms", mean("plan.bind_ms"), "ms");
  out->Set("plan.rebind_ms", mean("plan.rebind_ms"), "ms");

  const double optimized = scalar("optimized");
  out->Set("optimizer.prepare_ms", mean("optimizer.prepare_ms"), "ms");
  out->Set("optimizer.explore_ms", mean("optimizer.explore_ms"), "ms");
  out->Set("optimizer.memo_exprs", mean("optimizer.memo_exprs"),
           "count/query");
  out->Set("core.annotate_ms", mean("core.annotate_ms"), "ms");
  out->Set("core.policy_eval_ms", mean("core.policy_eval_ms"), "ms");
  out->Set("core.policy_candidates",
           Ratio(scalar("core.candidates_sum"), optimized), "count/query");
  out->Set("core.policy_eta_ratio",
           Ratio(scalar("core.eta_sum"), scalar("core.candidates_sum")),
           "ratio");
  out->Set("core.prefilter_skips",
           Ratio(scalar("core.prefilter_sum"), optimized), "count/query");
  out->Set("core.site_select_ms", mean("core.site_select_ms"), "ms");
  out->Set("core.site_memo_hit_ratio",
           Ratio(delta("site_selector.memo_hits"),
                 delta("site_selector.memo_hits") +
                     delta("site_selector.memo_misses")),
           "ratio");
  out->Set("core.compliance_check_ms", mean("core.compliance_check_ms"),
           "ms");
  out->Set("expr.implication_tests",
           Ratio(scalar("expr.tests_sum"), optimized), "count/query");
  out->Set("expr.implication_cache_hit_ratio",
           Ratio(scalar("expr.cache_hits_sum"), scalar("expr.tests_sum")),
           "ratio");

  out->Set("exec.wall_ms", mean("exec.wall_ms"), "ms");
  out->Set("exec.slowest_fragment_ms", mean("exec.slowest_fragment_ms"),
           "ms");
  out->Set("exec.fragment_skew", mean("exec.fragment_skew"), "ratio");
  out->Set("exec.rows_scanned", mean("exec.rows_scanned"), "count/query");
  out->Set("exec.cpu_ms", mean("exec.cpu_ms"), "ms");
  out->Set("exec.bytes_shipped", mean("exec.bytes_shipped"), "bytes/query");
  out->Set("exec.rows_shipped", mean("exec.rows_shipped"), "count/query");
  out->Set("exec.ship_batches", mean("exec.ship_batches"), "count/query");
  out->Set("exec.channel_peak_in_flight", scalar("exec.peak_in_flight"),
           "count");

  out->Set("net.connect_ms", scalar("net.connect_ms"), "ms");
  out->Set("net.deploy_s", scalar("net.deploy_s"), "s");
  out->Set("net.wire_overhead_ms", mean("net.wire_overhead_ms"), "ms");

  out->Set("storage.append_p50_ms",
           Percentile(samples("storage.append_ms"), 0.5), "ms");
  out->Set("storage.append_p99_ms",
           Percentile(samples("storage.append_ms"), 0.99), "ms");
  out->Set("storage.blocks_written", delta("storage.blocks_written"),
           "count");
  out->Set("storage.checkpoint_failures",
           delta("storage.checkpoint_failures"), "count");
  out->Set("storage.write_amp", scalar("storage.write_amp"), "ratio");
  out->Set("storage.scan_ms", mean("storage.scan_ms"), "ms");
  out->Set("storage.scan_mb_per_s",
           Ratio(scalar("storage.scan_bytes") / (1024.0 * 1024.0),
                 scalar("storage.scan_ms_total") / 1000.0),
           "MB/s");
  out->Set("storage.blocks_read", delta("storage.blocks_read"), "count");
  out->Set("storage.space_amp", scalar("storage.space_amp"), "ratio");
  out->Set("storage.recovery_replays", scalar("storage.recovery_replays"),
           "count");
  out->Set("storage.load_s", scalar("storage.load_s"), "s");

  out->Set("loadgen.lag_p99_ms", Percentile(samples("loadgen.lag_ms"), 0.99),
           "ms");

  const std::map<std::string, double> self = tracer_->LayerSelfMs();
  for (const char* layer : kLayers) {
    auto it = self.find(layer);
    const double total = it == self.end() ? 0 : it->second;
    out->Set(std::string(layer) + ".self_ms",
             Ratio(total, static_cast<double>(client_iterations)), "ms");
  }
  out->Set("trace.uncovered_share", tracer_->UncoveredShare(), "ratio");
  out->Set("trace.overhead_frac", overhead_frac, "ratio");
}

}  // namespace perfbench
