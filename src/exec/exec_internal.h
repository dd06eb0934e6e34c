#ifndef CGQ_EXEC_EXEC_INTERNAL_H_
#define CGQ_EXEC_EXEC_INTERNAL_H_

#include <atomic>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/result.h"
#include "exec/batch.h"
#include "exec/vector/column_batch.h"
#include "expr/eval.h"
#include "plan/plan_node.h"

namespace cgq {
namespace exec_internal {

/// Operator machinery shared by the executor backends. The columnar
/// fragment runtime (exec/batch_ops.h) keys every hash structure on one
/// KeyIndex over typed columns: the hash join's match finder
/// (ColumnJoinTable), the grace spill's partitioning (spill_join.h) and
/// group-by all number keys with it. Hash probes, nested loops and the
/// spill's partitions feed (build row, probe row) pairs into one
/// gather-and-residual step (JoinGather). The row interpreter (the kRow
/// oracle) runs on RowKey, JoinHashTable, EmitIfMatch and HashAggregator.
/// Both take JoinSpec. The two can only be validated byte-for-byte
/// because the orders below are *defined*, not accidents of hash
/// containers:
///
///  - Hash join: right (probe) rows in input order; per right row,
///    matching left (build) rows in input order, whichever input the
///    join indexes.
///  - Nested loop: left (build) rows in input order; per left row,
///    right rows in input order.
///  - Aggregation: groups emitted in first-seen order of their keys.
///
/// Both match keys structurally (NULL = NULL for groups, int64 1 != double
/// 1.0), which is why only same-family `col = col` conjuncts are hash
/// keys (IsHashJoinKey). (See DESIGN.md §12, "the row-reference
/// validation contract".)

/// Cooperative cancellation (ExecutorOptions::cancel), checked per batch
/// and inside materialized-join loops. nullptr = not cancellable.
Status CheckCancelled(const std::atomic<bool>* cancel);

/// Layout of an operator's output rows.
RowLayout LayoutOf(const PlanNode& node);

/// The row oracle's hash-table key: a row with structural equality.
struct RowKey {
  Row values;
  bool operator==(const RowKey& other) const {
    return RowsStructurallyEqual(values, other.values);
  }
};
struct RowKeyHash {
  size_t operator()(const RowKey& k) const { return HashRow(k.values); }
};

/// Positions of `ids` inside `layout`; error mentions `context` when an
/// attribute is missing.
Result<std::vector<size_t>> PositionsOf(const std::vector<AttrId>& ids,
                                        const RowLayout& layout,
                                        const char* context);

/// True when the row passes every conjunct (NULL-rejecting).
Result<bool> KeepRow(const std::vector<ExprPtr>& conjuncts, const Row& row,
                     const RowLayout& layout);

/// A join's physical recipe against concrete child layouts: equi-key
/// positions usable for hashing, residual conjuncts, and the
/// mapping from the concatenated (left ++ right) row to the node's
/// canonical output order.
struct JoinSpec {
  std::vector<std::pair<size_t, size_t>> key_positions;  // (left, right)
  std::vector<ExprPtr> residual;
  RowLayout combined;                // left ++ right
  std::vector<size_t> out_positions; // combined position per output attr

  static Result<JoinSpec> Make(const PlanNode& node, const RowLayout& left,
                               const RowLayout& right);

  /// True when the join has no usable equi-keys: it runs as a nested
  /// loop.
  bool RequiresNestedLoop() const { return key_positions.empty(); }

  /// The key columns of the left (build) or right (probe) input.
  std::vector<size_t> KeyColumns(bool left) const;

  /// Row oracle: applies the residual conjuncts to l ++ r; on success
  /// appends the reordered output row to `*out` and returns true.
  Result<bool> EmitIfMatch(const Row& l, const Row& r,
                           std::vector<Row>* out) const;
};

/// Rearranges column handles into `layout` (projection, union branches,
/// join output).
vec::ColumnBatch Remap(vec::ColumnBatch in,
                       const std::vector<size_t>& positions,
                       const RowLayout& layout);

/// Appends rows [begin, end) of `batch` (through its selection) to
/// `cols`, one per column.
void AppendRows(const vec::ColumnBatch& batch, size_t begin, size_t end,
                std::vector<vec::ColumnVector>* cols);

/// The columnar core's one key index. It numbers the distinct keys of
/// ColumnBatch rows (their cells in a list of key columns) in
/// first-insertion order, in one open-addressing table at most half full
/// that grows by doubling. Cells hash and compare on their columns' tags
/// (int64/date and double as words, strings over their bytes, kValue
/// through its Value), so a cell hashes and compares the same whatever
/// its column's tag. Equality is RowKey's: NULL equals NULL, int64 never
/// equals double, -0.0 equals 0.0, NaN equals nothing.
class KeyIndex {
 public:
  static constexpr uint32_t kNone = static_cast<uint32_t>(-1);
  /// kGroup numbers every key; kBuild every key without a NULL cell;
  /// kProbe finds keys without a NULL cell and numbers none.
  enum class Mode { kGroup, kBuild, kProbe };

  /// For each row batch.sel[k]: the hash of its key, and whether a key
  /// cell is NULL. Each key column is hashed in one pass typed by its
  /// tag.
  static void HashRows(const vec::ColumnBatch& batch,
                       const std::vector<size_t>& keys,
                       std::vector<uint64_t>* hashes, std::vector<bool>* nulls);

  /// Sizes the table for `n` distinct keys.
  void Reserve(size_t n);
  /// (*ids)[k] = the id of row batch.sel[k]'s key (unseen keys take the
  /// next ids), or kNone where `mode` numbers none. A key column whose
  /// tag equals its stored keys' (and that holds no NULL a lookup must
  /// match) compares on payloads; kValue columns, mixed tags and NULL
  /// group keys compare cell by cell.
  void Lookup(const vec::ColumnBatch& batch, const std::vector<size_t>& keys,
              Mode mode, std::vector<uint32_t>* ids);

  size_t size() const { return hashes_.size(); }
  /// The keys' first-seen cells in id order, one column per key column.
  std::vector<vec::ColumnVector>& keys() { return keys_; }

 private:
  /// How one Lookup compares a key column's cells with the stored keys'.
  struct KeyMatch;

  /// One table slot: a key's id (kNone: empty) and the low half of its
  /// hash, so that a probe reads a stored key only on a likely match.
  struct Entry {
    uint32_t id = kNone;
    uint32_t check = 0;
  };

  /// The slot holding `row`'s key's id, or the empty slot it would take.
  size_t Slot(const std::vector<KeyMatch>& match, uint32_t row,
              uint64_t hash) const;

  std::vector<Entry> slots_;  ///< at the top bits of their key's hash
  int shift_ = 64;
  std::vector<uint64_t> hashes_;  ///< per id
  std::vector<vec::ColumnVector> keys_;
};

/// Equi-join match finder over columns, with the defined match order of
/// JoinHashTable: probe rows in input order; per probe row, build rows in
/// build (insertion) order. Rows with a NULL key do not participate. A
/// KeyIndex numbers the indexed keys; each key chains its indexed rows.
/// The join indexes its smaller input: FlippedMatches indexes the right
/// one and returns the pairs in this same order.
class ColumnJoinTable {
 public:
  /// Indexes the left input's rows; `build` must be dense (its selection
  /// the identity).
  void Build(const vec::ColumnBatch& build, const JoinSpec& spec) {
    Index(&build, 1, spec.KeyColumns(/*left=*/true));
  }

  /// Appends every match of the right input's batch `probe` as (build
  /// row, probe column row) pairs to `li` / `ri`.
  Status Probe(const vec::ColumnBatch& probe, const JoinSpec& spec,
               const std::atomic<bool>* cancel, vec::SelVec* li,
               vec::SelVec* ri) {
    return Match(probe, spec.KeyColumns(/*left=*/false), cancel, li, ri);
  }

  /// The matches of Build(left) then Probe of each `right` batch, found
  /// the other way round: indexes the right rows, probes with the left
  /// ones, and restores the order above with a stable counting sort by
  /// right row. (*li)[b] / (*ri)[b] hold batch b's pairs, as Probe of
  /// that batch would append them. `left` must be dense.
  static Status FlippedMatches(const vec::ColumnBatch& left,
                               const std::vector<vec::ColumnBatch>& right,
                               const JoinSpec& spec,
                               const std::atomic<bool>* cancel,
                               std::vector<vec::SelVec>* li,
                               std::vector<vec::SelVec>* ri);

 private:
  /// Indexes the rows of batches[0..n) on their `keys` columns, numbered
  /// across the batches in order.
  void Index(const vec::ColumnBatch* batches, size_t n,
             const std::vector<size_t>& keys);
  /// Appends (indexed row, probe column row) pairs, probe rows in input
  /// order, per probe row its indexed rows in number order.
  Status Match(const vec::ColumnBatch& probe, const std::vector<size_t>& keys,
               const std::atomic<bool>* cancel, vec::SelVec* built,
               vec::SelVec* probed);

  KeyIndex index_;
  /// Per key id, its first indexed row; per indexed row, its key's next
  /// one.
  std::vector<uint32_t> heads_;
  std::vector<uint32_t> next_;
};

/// The step every columnar join path ends in. Given matched (build row,
/// probe row) pairs, it gathers only the columns the output or the
/// residual reference out of the conceptual combined (build ++ probe)
/// batch, narrows the selection with the residual conjuncts and remaps
/// the columns to the join's output order. The result's selection
/// indexes the pairs: output row k is pair sel[k].
class JoinGather {
 public:
  JoinGather() = default;
  explicit JoinGather(const JoinSpec& spec);

  /// `build` holds the build-side columns; `probe` the probe-side
  /// columns, possibly followed by more (the spill's ordinals), which
  /// are never gathered. `li`/`ri` index their column rows.
  Result<vec::ColumnBatch> Gather(const vec::ColumnBatch& build,
                                  const vec::ColumnBatch& probe,
                                  const vec::SelVec& li,
                                  const vec::SelVec& ri) const;

  /// The join's output layout.
  const RowLayout& layout() const { return out_layout_; }

 private:
  std::vector<ExprPtr> residual_;
  /// Combined positions gathered per match, their layout, and the
  /// gathered position of every output column.
  std::vector<size_t> gathered_;
  RowLayout gathered_layout_;
  std::vector<size_t> out_columns_;
  RowLayout out_layout_;
};

/// The row oracle's build/probe hash table over the left input of an
/// equi-join. Building inserts left rows in index order; Probe emits
/// matches in build order per key (the defined order every backend must
/// reproduce).
class JoinHashTable {
 public:
  void Build(const std::vector<Row>& left, const JoinSpec& spec);

  /// Invokes `fn(left_row)` for every left row whose keys match
  /// `right_row` (skipping NULL keys), in build (insertion) order.
  template <typename Fn>
  Status Probe(const Row& right_row, const JoinSpec& spec,
               const Fn& fn) const {
    RowKey key;
    bool has_null = false;
    for (auto [lp, rp] : spec.key_positions) {
      has_null |= right_row[rp].is_null();
      key.values.push_back(right_row[rp]);
    }
    if (has_null) return Status::OK();
    auto it = table_.find(key);
    if (it == table_.end()) return Status::OK();
    for (size_t index : it->second) {
      CGQ_RETURN_NOT_OK(fn((*left_)[index]));
    }
    return Status::OK();
  }

 private:
  const std::vector<Row>* left_ = nullptr;
  /// Key -> left row indices in build order.
  std::unordered_map<RowKey, std::vector<size_t>, RowKeyHash> table_;
};

/// Streaming hash aggregation with the exact accumulation and output-order
/// semantics every backend must reproduce: rows are folded one at a time
/// in input order, and Finish() emits groups in first-seen order of their
/// keys.
class HashAggregator {
 public:
  /// `node` must outlive the aggregator.
  explicit HashAggregator(const PlanNode* node) : node_(node) {}

  Status Init(const RowLayout& in_layout);
  Status Add(const Row& row);
  /// SQL semantics: a global aggregate over an empty input yields one row.
  std::vector<Row> Finish();

 private:
  struct GroupState {
    Row key;
    std::vector<AggAccumulator> accs;
  };

  const PlanNode* node_;
  RowLayout in_layout_;
  std::vector<size_t> group_positions_;
  /// Key -> index into `groups_` (which keeps first-seen order).
  std::unordered_map<RowKey, size_t, RowKeyHash> group_index_;
  std::vector<GroupState> groups_;
};

}  // namespace exec_internal
}  // namespace cgq

#endif  // CGQ_EXEC_EXEC_INTERNAL_H_
