#ifndef CGQ_CORE_ENGINE_H_
#define CGQ_CORE_ENGINE_H_

#include <memory>
#include <string>

#include "catalog/catalog.h"
#include "common/trace.h"
#include "core/optimizer.h"
#include "core/policy.h"
#include "exec/executor.h"
#include "exec/table_store.h"
#include "net/cluster_client.h"
#include "net/network_model.h"

namespace cgq {

class PlanCache;

/// The compliance-based query processor of Fig. 2: policy catalog +
/// compliance-based optimizer (plan annotator, policy evaluator, site
/// selector) + query executor over the geo-distributed table store.
///
/// Typical use:
///
///   Engine engine(std::move(catalog), NetworkModel::DefaultGeo(5));
///   engine.AddPolicy("europe", "ship name from customer to asia");
///   engine.LoadTable(...);                    // or via tpch::GenerateData
///   auto result = engine.Run("SELECT ...");   // rejected if non-compliant
///
/// Non-compliant queries are rejected with StatusCode::kNonCompliant
/// *before* any data moves.
class Engine {
 public:
  Engine(Catalog catalog, NetworkModel net)
      : catalog_(std::make_unique<Catalog>(std::move(catalog))),
        net_(std::make_unique<NetworkModel>(std::move(net))),
        policies_(std::make_unique<PolicyCatalog>(catalog_.get())) {}

  Catalog& catalog() { return *catalog_; }
  const Catalog& catalog() const { return *catalog_; }
  PolicyCatalog& policies() { return *policies_; }
  TableStore& store() { return store_; }
  const NetworkModel& net() const { return *net_; }
  /// Mutable access for fault injection (NetworkModel::SetLinkFault /
  /// ApplyLossyProfile): configure faults between queries, never while
  /// one runs.
  NetworkModel& mutable_net() { return *net_; }

  /// Registers a dataflow policy (offline step of Fig. 2).
  Status AddPolicy(const std::string& location, const std::string& text) {
    return policies_->AddPolicyText(location, text);
  }

  /// Selects the policy-index layout (the `--policy-index` knob). Flat is
  /// the reference; hierarchical buckets policies by predicate signature
  /// and merges subsumed ones, with identical decisions. Only legal before
  /// any policy is installed.
  Status set_policy_index_mode(PolicyIndexMode mode) {
    return policies_->set_index_mode(mode);
  }

  /// Default optimizer configuration applied by the no-options overloads of
  /// Optimize()/Run(). Mutate to configure the engine once, e.g.
  /// `engine.default_options().threads = 8;`.
  OptimizerOptions& default_options() { return default_options_; }
  const OptimizerOptions& default_options() const { return default_options_; }

  /// Fan-out width for policy evaluation during optimization (the
  /// `--threads` knob of the bench harness). 1 = sequential, 0 = one per
  /// hardware thread. Results are identical at every setting.
  void set_threads(int threads) { default_options_.threads = threads; }

  /// Default executor configuration applied by Run(). Mutate to select the
  /// runtime once, e.g. `engine.default_exec_options().mode =
  /// ExecMode::kFragment;`.
  ExecutorOptions& default_exec_options() { return default_exec_options_; }
  const ExecutorOptions& default_exec_options() const {
    return default_exec_options_;
  }

  /// Selects the execution backend for Run() (see ExecMode). Results are
  /// identical for both backends.
  void set_exec_mode(ExecMode mode) { default_exec_options_.mode = mode; }

  /// Recovery knobs applied by Run(): send/recv timeouts, bounded retries
  /// with exponential backoff, and the deterministic fault seed.
  void set_retry_policy(const RetryPolicy& retry) {
    default_exec_options_.retry = retry;
  }

  /// Connects this engine to a deployed cluster of location servers and
  /// routes ExecMode::kDistributed runs to it. The endpoint map
  /// (location -> server address) is handshake-verified against each
  /// server's hosted set.
  Status ConnectCluster(
      const std::map<LocationId, net::Endpoint>& endpoints) {
    CGQ_RETURN_NOT_OK(cluster_.Connect(endpoints));
    default_exec_options_.cluster = &cluster_;
    return Status::OK();
  }

  /// Pushes the engine's local store, sliced per location, to the
  /// connected servers (the deployment step before distributed runs).
  Status DeployStore() { return cluster_.Deploy(store_); }

  /// Switches the store to disk-backed StorageMode::kDisk under `dir`
  /// (recovering whatever a previous engine persisted there, then
  /// migrating current RAM fragments). See TableStore::EnableDiskStorage.
  Status EnableDiskStorage(const std::string& dir,
                           storage::StorageOptions options = {}) {
    return store_.EnableDiskStorage(dir, options);
  }

  /// Reads every fragment back into RAM and returns to memory mode; the
  /// on-disk state is checkpointed and left intact.
  Status DisableDiskStorage() { return store_.DisableDiskStorage(); }

  net::ClusterClient& cluster() { return cluster_; }
  const net::ClusterClient& cluster() const { return cluster_; }

  /// Enables per-query tracing: each Run() records a TraceSession whose
  /// spans cover parse, policy evaluation, annotation (AR1-AR4), site
  /// selection, the compliance check, per-fragment execution and every
  /// ship edge. Retrieve via last_trace()/DumpTrace(). Requires a build
  /// with CGQ_TRACING=ON (the default); a no-op otherwise.
  void set_tracing(bool enabled) { tracing_ = enabled; }
  bool tracing() const { return tracing_; }

  /// Timestamp mode for recorded traces. The default, kDeterministic,
  /// renumbers spans with virtual ticks at dump time so the serialized
  /// trace is byte-identical across runs with the same seed and thread
  /// count; kWall records microseconds.
  void set_trace_clock(TraceClock clock) { trace_clock_ = clock; }

  /// The trace of the most recent traced Run(); nullptr before the first
  /// one (or when tracing is off).
  const TraceSession* last_trace() const { return last_trace_.get(); }

  /// Serializes the last trace as Chrome trace_event JSON (load in
  /// chrome://tracing or https://ui.perfetto.dev). Empty event list when
  /// no traced query has run.
  std::string DumpTrace() const;
  Status DumpTraceToFile(const std::string& path) const;

  /// Installs a compliant plan cache (non-owning; see
  /// service/plan_cache.h) consulted by Run() before the optimizer. On a
  /// hit the engine re-runs the Definition-1 checker against the live
  /// policy catalog before executing (belt-and-braces); on a compliant
  /// miss the optimized plan is inserted. nullptr (the default) disables
  /// caching.
  void set_plan_cache(PlanCache* cache) { plan_cache_ = cache; }
  PlanCache* plan_cache() const { return plan_cache_; }

  /// Optimizes under the compliance-based optimizer. Fails with
  /// kNonCompliant when no compliant plan exists.
  Result<OptimizedQuery> Optimize(const std::string& sql) const {
    return Optimize(sql, default_options_);
  }
  Result<OptimizedQuery> Optimize(const std::string& sql,
                                  OptimizerOptions options) const {
    QueryOptimizer optimizer(catalog_.get(), policies_.get(), net_.get(),
                             options);
    return optimizer.Optimize(sql);
  }

  /// Optimize + execute. The compliant path of Fig. 2: reject or run.
  Result<QueryResult> Run(const std::string& sql) const {
    return Run(sql, default_options_);
  }
  Result<QueryResult> Run(const std::string& sql,
                          OptimizerOptions options) const {
    return Run(sql, options, default_exec_options_);
  }
  Result<QueryResult> Run(const std::string& sql, OptimizerOptions options,
                          ExecutorOptions exec_options) const;

 private:
  /// Optimize() fronted by the installed plan cache (or a plain
  /// Optimize() when none is installed). Implements the hit protocol:
  /// lookup → compliance re-check → serve, or optimize → insert.
  Result<OptimizedQuery> OptimizeMaybeCached(const std::string& sql,
                                             const OptimizerOptions& options)
      const;

  OptimizerOptions default_options_;
  ExecutorOptions default_exec_options_;
  std::unique_ptr<Catalog> catalog_;
  std::unique_ptr<NetworkModel> net_;
  std::unique_ptr<PolicyCatalog> policies_;
  TableStore store_;
  net::ClusterClient cluster_;
  PlanCache* plan_cache_ = nullptr;
  bool tracing_ = false;
  TraceClock trace_clock_ = TraceClock::kDeterministic;
  /// Owned by the engine so shells/benches can dump after Run returns;
  /// mutable because tracing is observability, not query semantics.
  mutable std::unique_ptr<TraceSession> last_trace_;
};

}  // namespace cgq

#endif  // CGQ_CORE_ENGINE_H_
