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

}  // namespace cgq

#endif  // CGQ_EXEC_BATCH_H_
