#ifndef CGQ_EXEC_BATCH_OPS_H_
#define CGQ_EXEC_BATCH_OPS_H_

#include <atomic>
#include <functional>
#include <memory>
#include <optional>
#include <string>

#include "common/result.h"
#include "exec/batch.h"
#include "exec/table_store.h"
#include "exec/vector/column_batch.h"
#include "plan/plan_node.h"

namespace cgq {

struct ExecutorOptions;

namespace exec_internal {

using OptBatch = std::optional<vec::ColumnBatch>;

/// Pull-based columnar operator: Next() returns the next batch of at most
/// `batch_size` rows, an empty optional at end-of-stream, or an error.
/// Expressions run through the vector kernels (exec/vector/kernels.h).
class BatchOp {
 public:
  virtual ~BatchOp() = default;
  virtual Result<OptBatch> Next() = 0;
  /// Static output layout (known before any batch is produced).
  virtual const RowLayout& layout() const = 0;
};

using BatchOpPtr = std::unique_ptr<BatchOp>;

/// Blocks until the next batch of the SHIP edge whose leaf is `ship`:
/// a batch, end-of-stream (an empty optional) or an error. In-process it
/// reads the edge's ShipChannel; on a site server (src/net), the input
/// queue the coordinator relays that edge into.
using ShipRecv = std::function<Result<OptBatch>(const PlanNode& ship)>;

/// Environment one fragment's operator tree is built against. Scans,
/// filters, projections, joins, aggregation, unions and the SHIP-leaf
/// source are one core on both ends of the wire, which is what makes the
/// loopback deployment byte-identical to the in-process backends.
/// RunFragmentTree builds it; tests may build one by hand.
struct BatchOpEnv {
  const TableStore* store = nullptr;
  size_t batch_size = static_cast<size_t>(kDefaultBatchSize);
  /// Cooperative cancellation token; nullptr = not cancellable.
  const std::atomic<bool>* cancel = nullptr;
  /// The fragment's counters: scans add rows scanned and disk blocks
  /// read, spilling joins their partitions and bytes. Never null; must
  /// outlive the operator tree.
  FragmentCounters* counters = nullptr;
  /// Per-query memory budget (ExecutorOptions::memory_budget_bytes):
  /// hash joins whose left (build) side exceeds it take the grace spill
  /// path.
  /// 0 = unlimited.
  uint64_t memory_budget_bytes = 0;
  /// Spill directory base (ExecutorOptions::spill_dir; empty = temp dir).
  std::string spill_dir;
  /// Feeds the SHIP leaves inside the fragment subtree (their producing
  /// subtrees belong to other fragments). Every leaf reads it through one
  /// source operator, which refuses a batch whose attrs differ from the
  /// leaf's own layout (LayoutOf(ship)): operators above it resolve
  /// columns by that layout.
  ShipRecv ship_recv;
};

using BatchSink = std::function<Status(vec::ColumnBatch)>;

/// Pulls `op` to end-of-stream, checking `cancel` before every pull and
/// handing each non-empty batch to `sink` after adding its rows to
/// `*rows_out`.
Status DrainBatchOp(BatchOp* op, const std::atomic<bool>* cancel,
                    int64_t* rows_out, const BatchSink& sink);

/// Builds the batch-operator tree of one fragment rooted at `node`.
/// `env` must outlive the construction call; the returned operators keep
/// only the store/cancel/counter pointers, not `env` itself. A disk-mode
/// scan whose consumers are Filter* then Project decodes only the
/// columns that chain reads; every other scan decodes all of them.
Result<BatchOpPtr> BuildBatchOp(const PlanNode& node, const BatchOpEnv& env);

/// Runs one attempt of the fragment rooted at `root`, on either end of
/// the wire: the coordinator's in-process attempt (ExecMode::kFragment)
/// and a site server's session worker (src/net) both run through here.
/// Builds the BatchOpEnv from `options` (batch size, cancellation,
/// memory budget, spill directory), feeds the SHIP leaves from `recv`,
/// and drains the tree into `sink`. Adds to `*counters`, which therefore
/// accumulate across attempts, so the batches that reach a SHIP edge,
/// the per-edge ship accounting and the counters are the same in every
/// backend.
Status RunFragmentTree(const PlanNode& root, const TableStore* store,
                       const ExecutorOptions& options, ShipRecv recv,
                       FragmentCounters* counters, const BatchSink& sink);

}  // namespace exec_internal
}  // namespace cgq

#endif  // CGQ_EXEC_BATCH_OPS_H_
