#ifndef CGQ_EXEC_FRAGMENT_EXECUTOR_H_
#define CGQ_EXEC_FRAGMENT_EXECUTOR_H_

#include <atomic>
#include <functional>
#include <memory>
#include <mutex>
#include <vector>

#include "common/result.h"
#include "exec/channel.h"
#include "exec/executor.h"
#include "exec/fragmenter.h"
#include "exec/table_store.h"
#include "net/network_model.h"
#include "plan/plan_node.h"

namespace cgq {

/// Fragmented runtime: splits `plan` at its SHIP edges into per-site
/// fragments (see exec/fragmenter.h) and runs each fragment's columnar
/// operator tree (exec/batch_ops.h) in-process against `store`.
/// Scheduling, ship channels, recovery and accounting are the shared
/// fragment scheduler's (exec_internal::RunFragments below). Results and
/// ship metrics are identical to the row interpreter in every
/// configuration.
Result<QueryResult> ExecuteFragmentedPlan(const PlanNode& plan,
                                          const TableStore* store,
                                          const NetworkModel* net,
                                          const ExecutorOptions& options);

namespace exec_internal {

/// Storage accounting of one fragment (disk scans + spill joins); folded
/// into ExecMetrics after all fragments finish. Like rows_scanned, the
/// counts accumulate across restart attempts.
struct StorageCounters {
  int64_t blocks_read = 0;
  int64_t spill_partitions = 0;
  int64_t spill_bytes = 0;
};

/// Shared state of one fragmented execution, owned by RunFragments and
/// handed to every fragment attempt.
struct RunState {
  const ExecutorOptions* options = nullptr;
  const FragmentedPlan* fp = nullptr;
  /// One channel per SHIP edge, indexed by channel id.
  std::vector<std::unique_ptr<ShipChannel>> channels;
  /// Per-fragment accounting, indexed by fragment id.
  std::vector<FragmentMetrics> fragments;
  std::vector<StorageCounters> storage;
  /// Rows of the top fragment (the query result).
  std::vector<Row> result_rows;
  std::atomic<bool> failed{false};

  /// Hands one output batch of `fragment` to its consumer: the SHIP
  /// channel it feeds, or the query result (in row form) for the top
  /// fragment.
  Status Emit(const PlanFragment& fragment, vec::ColumnBatch batch);

  /// Records the first (temporally) failure and aborts every channel with
  /// it, so blocked siblings wake up carrying the original structured
  /// status rather than a generic secondary error.
  void Fail(const Status& status);
  Status FirstError();

 private:
  std::mutex error_mu_;
  Status first_error_;
};

/// One attempt of one fragment — the only backend-specific step of a
/// fragmented run. It produces the fragment's output through
/// `RunState::Emit` and adds to the fragment's metrics and storage
/// counters. A kUnavailable return marks a transient failure the
/// scheduler may restart.
using FragmentAttemptFn =
    std::function<Status(const PlanFragment& fragment, RunState* st)>;

/// The fragment scheduler of ExecMode::kFragment and kDistributed. Splits
/// `plan` at its SHIP edges, connects the fragments with ship channels
/// that charge `net` per batch, and drives `attempt` for every fragment:
///
///  - Schedule: one worker per fragment on a dedicated thread pool with
///    bounded channels (backpressure), or — with `options.threads == 1`,
///    a single fragment, or a call from inside a pool worker — bottom-up
///    on the calling thread with channels buffering whole intermediates.
///  - Compliance: every attempt first re-checks CheckFragmentPlacement.
///  - Recovery: a source fragment (no input channels) restarts after a
///    kUnavailable failure, at most `options.retry.max_retries` times;
///    its output channel replays (or the partial result is dropped).
///  - Errors: the first failure aborts every channel and is returned.
///  - Accounting: channel stats, fragment metrics and storage counters
///    are folded into the result's ExecMetrics.
Result<QueryResult> RunFragments(const PlanNode& plan,
                                 const NetworkModel* net,
                                 const ExecutorOptions& options,
                                 const FragmentAttemptFn& attempt);

}  // namespace exec_internal
}  // namespace cgq

#endif  // CGQ_EXEC_FRAGMENT_EXECUTOR_H_
