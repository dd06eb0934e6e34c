#ifndef CGQ_EXEC_BATCH_H_
#define CGQ_EXEC_BATCH_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "expr/eval.h"
#include "types/value.h"

namespace cgq {

/// Default number of rows per batch in the fragmented runtime. Small enough
/// to keep intermediates cache-resident, large enough to amortize the
/// per-batch channel hand-off.
inline constexpr int kDefaultBatchSize = 1024;

/// Rows positioned per `layout`: the row interpreter's whole-operator
/// intermediate, and the form the fragment runtime's query result takes
/// (its SHIP edges, channels and wire frames carry vec::ColumnBatch).
struct RowBatch {
  RowLayout layout;
  std::vector<Row> rows;

  size_t NumRows() const { return rows.size(); }
  bool Empty() const { return rows.empty(); }

  /// Serialized volume of all rows (the quantity charged to the network
  /// model when the batch crosses a SHIP edge).
  double ByteSize() const {
    double bytes = 0;
    for (const Row& row : rows) {
      for (const Value& v : row) bytes += static_cast<double>(v.ByteSize());
    }
    return bytes;
  }
};

/// What one fragment attempt counts, on either end of the wire: its
/// operators add to it, a site server returns it in kOutputEnd, and the
/// coordinator folds it into FragmentMetrics and ExecMetrics. Adding a
/// counter means adding a field here (and its wire encoding).
struct FragmentCounters {
  int64_t rows_out = 0;
  int64_t rows_scanned = 0;
  /// Checksummed data blocks streamed by disk-mode scans.
  int64_t blocks_read = 0;
  /// Grace-hash-join spill volume under the memory budget.
  int64_t spill_partitions = 0;
  int64_t spill_bytes = 0;

  FragmentCounters& operator+=(const FragmentCounters& o) {
    rows_out += o.rows_out;
    rows_scanned += o.rows_scanned;
    blocks_read += o.blocks_read;
    spill_partitions += o.spill_partitions;
    spill_bytes += o.spill_bytes;
    return *this;
  }
};

}  // namespace cgq

#endif  // CGQ_EXEC_BATCH_H_
