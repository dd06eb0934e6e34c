#ifndef CGQ_EXEC_BATCH_OPS_H_
#define CGQ_EXEC_BATCH_OPS_H_

#include <atomic>
#include <functional>
#include <memory>
#include <optional>

#include "common/result.h"
#include "exec/batch.h"
#include "exec/table_store.h"
#include "exec/vector/column_batch.h"
#include "plan/plan_node.h"

namespace cgq {
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

/// Environment one fragment's operator tree is built against. The
/// fragmented runtime supplies SHIP sources backed by in-process
/// `ShipChannel`s; the location server (src/net) supplies sources fed by
/// decoded wire frames. Everything else — scans, filters, projections,
/// joins, aggregation, unions — is this shared core, which is what makes
/// the loopback deployment byte-identical to the in-process backends.
struct BatchOpEnv {
  const TableStore* store = nullptr;
  size_t batch_size = static_cast<size_t>(kDefaultBatchSize);
  /// Cooperative cancellation token; nullptr = not cancellable.
  const std::atomic<bool>* cancel = nullptr;
  /// Incremented by scan operators; must outlive the operator tree.
  int64_t* rows_scanned = nullptr;
  /// Storage accounting sinks (disk-mode scans and spilling joins add to
  /// them when non-null); must outlive the operator tree.
  int64_t* storage_blocks_read = nullptr;
  int64_t* spill_partitions = nullptr;
  int64_t* spill_bytes = nullptr;
  /// Per-query memory budget (ExecutorOptions::memory_budget_bytes):
  /// hash joins whose left (build) side exceeds it take the grace spill
  /// path.
  /// 0 = unlimited.
  uint64_t memory_budget_bytes = 0;
  /// Spill directory base (ExecutorOptions::spill_dir; empty = temp dir).
  std::string spill_dir;
  /// Creates the source operator of a SHIP leaf inside the fragment
  /// subtree (its producing subtree belongs to another fragment).
  std::function<Result<BatchOpPtr>(const PlanNode&)> ship_source;
};

/// Pulls `op` to end-of-stream, checking `cancel` before every pull and
/// handing each non-empty batch to `sink` after adding its rows to
/// `*rows_out`. The fragmented runtime and the location server
/// (src/net) both drain through here, so the batches that reach a SHIP
/// edge — and with them the per-edge ship accounting — are the same in
/// every backend.
Status DrainBatchOp(BatchOp* op, const std::atomic<bool>* cancel,
                    int64_t* rows_out,
                    const std::function<Status(vec::ColumnBatch)>& sink);

/// Builds the batch-operator tree of one fragment rooted at `node`.
/// `env` must outlive the construction call; the returned operators keep
/// only the store/cancel/counter pointers, not `env` itself. A disk-mode
/// scan whose consumers are Filter* then Project decodes only the
/// columns that chain reads; every other scan decodes all of them.
Result<BatchOpPtr> BuildBatchOp(const PlanNode& node, const BatchOpEnv& env);

}  // namespace exec_internal
}  // namespace cgq

#endif  // CGQ_EXEC_BATCH_OPS_H_
