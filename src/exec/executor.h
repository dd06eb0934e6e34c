#ifndef CGQ_EXEC_EXECUTOR_H_
#define CGQ_EXEC_EXECUTOR_H_

#include <atomic>
#include <memory>
#include <string>
#include <vector>

#include "common/result.h"
#include "core/optimizer.h"
#include "exec/channel.h"
#include "exec/table_store.h"
#include "net/network_model.h"
#include "plan/plan_node.h"

namespace cgq {

namespace net {
class ClusterClient;
}  // namespace net

/// Which runtime executes located plans.
enum class ExecMode {
  /// Row-at-a-time interpreter: every operator materializes its output on
  /// one thread. The reference backend.
  kRow,
  /// Fragmented runtime: the plan is split at its SHIP edges into
  /// per-site fragments that run concurrently on the columnar operator
  /// core (exec/batch_ops.h: typed column vectors with null bitmaps,
  /// selection-vector kernels) and exchange bounded column batches
  /// through ship channels. Byte-identical results and identical ship metrics to
  /// the row backend.
  kFragment,
  /// Wire-level deployment: fragments are dispatched over TCP to
  /// per-location servers (ExecutorOptions::cluster), which run the same
  /// columnar core, and their result batches streamed back; every SHIP
  /// edge still runs through the coordinator's in-process channel, so
  /// results AND ship metrics stay byte-identical to the in-process
  /// backends (see exec/distributed_executor.h).
  kDistributed,
};

const char* ExecModeToString(ExecMode mode);

/// Runtime configuration of the executor (the execution-side counterpart
/// of OptimizerOptions).
struct ExecutorOptions {
  ExecMode mode = ExecMode::kRow;
  /// Rows per batch in the fragment runtime (kFragment, kDistributed):
  /// the size of every operator's output batches and so of the batches
  /// each SHIP edge charges one message for. Ignored by kRow.
  int batch_size = kDefaultBatchSize;
  /// Fragment scheduling: 1 = run fragments sequentially bottom-up
  /// (channels buffer whole intermediates, like the row backend's
  /// materialization); any other value = pipelined, one worker per
  /// fragment on a thread pool, channels bounded at 4 batches in flight.
  /// Results are identical at every setting.
  int threads = 0;
  /// Send/recv timeouts, bounded retries with exponential backoff, and
  /// the deterministic fault seed — the recovery knobs of both backends.
  /// `retry.max_retries` also bounds restarts of a failed source
  /// fragment.
  RetryPolicy retry;
  /// Cooperative cancellation token (set by QueryService::Cancel).
  /// Checked at operator boundaries and inside join/batch loops; when it
  /// flips to true the query aborts with StatusCode::kCancelled. nullptr
  /// = not cancellable.
  std::shared_ptr<std::atomic<bool>> cancel;
  /// Connected deployment for ExecMode::kDistributed (required there,
  /// ignored by the in-process backends). Not owned.
  net::ClusterClient* cluster = nullptr;
  /// Per-query memory budget for blocking operators. 0 = unlimited.
  /// When the build side of a hash join exceeds the budget, the join
  /// switches to the grace/partitioned spill path (exec/spill_join.h):
  /// both sides are partitioned to spill files of checksummed frames
  /// (one per input batch and partition; a damaged file fails the query
  /// kDataLoss) and joined partition-pairwise, with byte-identical
  /// output. Scans are already out-of-core in StorageMode::kDisk
  /// regardless of this knob.
  uint64_t memory_budget_bytes = 0;
  /// Directory for spill partition files; empty = a per-query directory
  /// under the system temp dir, removed when the query finishes.
  std::string spill_dir;
};

/// Wall time and output volume of one executed fragment.
struct FragmentMetrics {
  int id = 0;
  LocationId site = 0;
  double wall_ms = 0;
  int64_t rows_out = 0;
  int64_t rows_scanned = 0;
  /// Times the fragment was restarted after a transient failure. Every
  /// restart re-ran at the same compliant site (`site`); recovery never
  /// re-places a fragment.
  int64_t restarts = 0;
};

/// Observed execution-side costs, driven by actual intermediate sizes (the
/// quality metric of §7.4 / Fig. 6g,h), plus per-edge and per-fragment
/// breakdowns from the fragmented runtime.
struct ExecMetrics {
  int64_t ships = 0;
  int64_t rows_shipped = 0;
  double bytes_shipped = 0;
  /// Simulated wall-clock of all transfers under the message cost model.
  double network_ms = 0;
  /// Real wall-clock of Execute() (optimizer time excluded). Filled by
  /// Executor::Execute, not ExecutePlan.
  double exec_wall_ms = 0;
  int64_t rows_scanned = 0;
  /// Recovery accounting, aggregated over all edges and fragments. All
  /// zero on a fault-free run; under injected faults, `rows_shipped` /
  /// `bytes_shipped` above include every reattempted transmission.
  int64_t send_retries = 0;
  int64_t dropped_batches = 0;
  int64_t send_timeouts = 0;
  int64_t recv_timeouts = 0;
  int64_t fragment_restarts = 0;
  double backoff_ms = 0;
  /// Storage-engine accounting (all zero for in-memory fault-free runs):
  /// checksummed data blocks streamed by disk-mode scans, and the
  /// grace-hash-join spill volume under `memory_budget_bytes`.
  int64_t storage_blocks_read = 0;
  int64_t spill_partitions = 0;
  int64_t spill_bytes = 0;
  /// Largest hash-join build side seen, in estimated row bytes. Row
  /// backend only (the reference interpreter pays the extra pass); used
  /// to derive spill-sweep budgets as fractions of the build side.
  int64_t max_build_bytes = 0;
  /// One entry per SHIP edge, in plan post-order (row backend: one
  /// single-batch entry per executed SHIP).
  std::vector<ChannelStats> edges;
  /// One entry per fragment (fragment mode only).
  std::vector<FragmentMetrics> fragments;

  /// Folds the traffic of one SHIP edge into the totals above and appends
  /// it to `edges` — the one place every backend records a ship.
  void AddShipEdge(const ChannelStats& edge);
};

/// Human-readable per-site / per-channel breakdown of `metrics`, appended
/// to result footers (cgq_shell, analyze output). `locations` may be null.
std::string FormatExecMetrics(const ExecMetrics& metrics,
                              const LocationCatalog* locations);

/// Rows of a query result plus transfer metrics.
struct QueryResult {
  std::vector<std::string> column_names;
  std::vector<Row> rows;
  ExecMetrics metrics;
  /// Per-phase optimizer timing of the query that produced this result
  /// (copied by Executor::Execute; zeroed for bare ExecutePlan calls).
  OptimizationStats opt_stats;
};

/// One-line EXPLAIN ANALYZE-style per-phase breakdown: optimizer phases
/// (parse+bind, explore, annotate, site selection) and, when
/// `metrics.exec_wall_ms` is non-zero, executor wall time with the
/// simulated WAN component. Appended to result footers next to
/// FormatExecMetrics.
std::string FormatPhaseTimings(const OptimizationStats& opt,
                               const ExecMetrics& metrics);

/// Multi-site executor for located physical plans. Two operator cores
/// (see ExecMode): the row-at-a-time reference interpreter and the
/// columnar fragment runtime, run in-process or over the wire. SHIP
/// operators charge the network model with the measured byte volume in
/// every mode.
class Executor {
 public:
  Executor(const TableStore* store, const NetworkModel* net)
      : store_(store), net_(net) {}
  Executor(const TableStore* store, const NetworkModel* net,
           ExecutorOptions options)
      : store_(store), net_(net), options_(options) {}

  const ExecutorOptions& options() const { return options_; }

  /// Executes an optimized query, applying its ORDER BY / LIMIT at the
  /// result site.
  Result<QueryResult> Execute(const OptimizedQuery& query) const;

  /// Executes a bare plan tree (no presentation steps).
  Result<QueryResult> ExecutePlan(const PlanNode& plan) const;

 private:
  const TableStore* store_;
  const NetworkModel* net_;
  ExecutorOptions options_;
};

}  // namespace cgq

#endif  // CGQ_EXEC_EXECUTOR_H_
