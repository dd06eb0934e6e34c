#ifndef CGQ_EXEC_VECTOR_COLUMN_BATCH_H_
#define CGQ_EXEC_VECTOR_COLUMN_BATCH_H_

#include <bit>
#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/result.h"
#include "exec/batch.h"
#include "expr/eval.h"
#include "types/value.h"

namespace cgq {
namespace vec {

/// Bit-packed validity companion of one column: bit i set means row i is
/// NULL. Mostly-zero words make the common no-nulls case branch-free to
/// test, and all-null columns cost one bit per row regardless of type.
class NullBitmap {
 public:
  NullBitmap() = default;
  explicit NullBitmap(size_t size) : size_(size), words_((size + 63) / 64) {}

  /// A bitmap of `size` bits over `words` (the layout words() returns:
  /// ceil(size/64) words, bit i of word i/64 for row i, no bit set at or
  /// past `size`); the null count is their popcount.
  static NullBitmap FromWords(std::vector<uint64_t> words, size_t size) {
    NullBitmap out;
    out.size_ = size;
    for (uint64_t w : words) out.null_count_ += std::popcount(w);
    out.words_ = std::move(words);
    return out;
  }

  size_t size() const { return size_; }

  void Resize(size_t size) {
    size_ = size;
    words_.resize((size + 63) / 64);
  }

  bool IsNull(size_t i) const {
    return (words_[i >> 6] >> (i & 63)) & 1u;
  }
  void SetNull(size_t i) {
    words_[i >> 6] |= uint64_t{1} << (i & 63);
    ++null_count_;
  }
  void AppendBit(bool is_null) {
    size_t i = size_++;
    if ((i & 63) == 0) words_.push_back(0);
    if (is_null) {
      words_[i >> 6] |= uint64_t{1} << (i & 63);
      ++null_count_;
    }
  }

  /// Appends bit sel[k] of `src` for each k < n: zero words when `src`
  /// has no NULL, shifted words when `sel` is a run of consecutive rows,
  /// bit by bit otherwise.
  void AppendSelected(const NullBitmap& src, const uint32_t* sel, size_t n);

  int64_t null_count() const { return null_count_; }
  const std::vector<uint64_t>& words() const { return words_; }
  bool AnyNull() const { return null_count_ != 0; }
  bool AllNull() const {
    return size_ != 0 && null_count_ == static_cast<int64_t>(size_);
  }

 private:
  size_t size_ = 0;
  int64_t null_count_ = 0;
  std::vector<uint64_t> words_;
};

/// Physical representation of one column vector. Dates share kInt64 (as in
/// Value); kValue is the lossless fallback for columns that are not
/// type-uniform (it stores the original Values and every kernel degrades
/// to the scalar reference semantics elementwise).
enum class ColumnTag { kInt64, kDouble, kString, kValue };

/// One column of a ColumnBatch: a contiguous typed vector plus a null
/// bitmap. NULL slots of typed columns hold a zero / empty payload; the
/// bitmap is authoritative. An all-null column (no non-null value to
/// infer a type from) is kInt64 with every bit set.
struct ColumnVector {
  ColumnTag tag = ColumnTag::kInt64;
  NullBitmap nulls;
  std::vector<int64_t> i64;
  std::vector<double> f64;
  std::vector<std::string> str;
  std::vector<Value> vals;  ///< kValue fallback only

  size_t size() const { return nulls.size(); }

  /// Reserves payload capacity for `n` rows under the current tag.
  void Reserve(size_t n);

  /// Materializes row `i` as a Value, byte-identical to the Value the
  /// column was built from.
  Value GetValue(size_t i) const {
    if (tag != ColumnTag::kValue && nulls.IsNull(i)) return Value::Null();
    switch (tag) {
      case ColumnTag::kInt64:
        return Value::Int64(i64[i]);
      case ColumnTag::kDouble:
        return Value::Double(f64[i]);
      case ColumnTag::kString:
        return Value::String(str[i]);
      case ColumnTag::kValue:
        return vals[i];
    }
    return Value::Null();
  }

  /// Appends one Value, demoting the whole column to the kValue fallback
  /// when the value does not fit the current tag (first non-null value
  /// decides the tag of a fresh column).
  void AppendValue(const Value& v);

  /// Typed appends, equal to AppendValue of the same value; they build
  /// a Value only to retag an all-null column or demote a mixed one.
  void AppendNull();
  void AppendInt64(int64_t v) {
    if (tag != ColumnTag::kInt64) return AppendValue(Value::Int64(v));
    i64.push_back(v);
    nulls.AppendBit(false);
  }
  void AppendDouble(double v) {
    if (tag != ColumnTag::kDouble) return AppendValue(Value::Double(v));
    f64.push_back(v);
    nulls.AppendBit(false);
  }
  void AppendString(std::string v) {
    if (tag != ColumnTag::kString) return AppendValue(Value::String(v));
    str.push_back(std::move(v));
    nulls.AppendBit(false);
  }

  /// Appends row `i` of `other` (same-tag fast path, generic otherwise).
  void AppendFrom(const ColumnVector& other, size_t i);

  /// Appends rows sel[0..n) of `other`, equal to AppendFrom of each. Once
  /// the tags agree (at once, or after a first value retags a column that
  /// holds only NULLs) the rest is copied in bulk; kValue and mixed tags
  /// go cell by cell.
  void AppendSelected(const ColumnVector& other, const uint32_t* sel,
                      size_t n);

  /// New column holding rows `sel` of this one, in selection order.
  ColumnVector Gather(const std::vector<uint32_t>& sel) const;

  /// Serialized volume of rows `sel`, computed in place — exactly what
  /// RowBatch::ByteSize would report for this column after ToRowBatch,
  /// without materializing any row.
  size_t ByteSize(const std::vector<uint32_t>& sel) const;

 private:
  /// Converts a typed column (with however many rows it already has) to
  /// the kValue representation.
  void DemoteToValues();
};

/// Shared immutable column handle. Operators build a ColumnVector, then
/// freeze it behind a shared_ptr; downstream operators that keep a column
/// unchanged (projection, filters, the scan cache) share the handle
/// instead of copying the payload.
using ColumnPtr = std::shared_ptr<const ColumnVector>;

inline ColumnPtr MakeColumn(ColumnVector&& col) {
  return std::make_shared<ColumnVector>(std::move(col));
}

/// Row positions into a batch's columns. A batch's own selection is in
/// row order; filters narrow one, gathers materialize one.
using SelVec = std::vector<uint32_t>;

/// The positions [begin, end).
SelVec RangeSel(size_t begin, size_t end);

/// Columnar counterpart of RowBatch: shared per-column vectors + null
/// bitmaps positioned per `layout`, and the selection `sel` naming which
/// column rows the batch holds. The fragment runtime's operators, ship
/// channels and wire frames all exchange these: a SHIP edge never
/// converts to RowBatch, the query result does (see DESIGN.md §12).
///
/// Operators narrow or window `sel` instead of copying columns: a scan
/// serves windows of the store's cached columns, a filter keeps the
/// survivors, a projection remaps handles. Joins, aggregation and the
/// row boundary read through the selection.
struct ColumnBatch {
  RowLayout layout;
  std::vector<ColumnPtr> columns;  ///< parallel to layout.attrs()
  SelVec sel;                      ///< the batch's rows, in order

  size_t NumRows() const { return sel.size(); }
  size_t NumColumns() const { return columns.size(); }

  /// New dense batch holding column rows `rows` (positions into
  /// `columns`, not into `sel`), in order.
  ColumnBatch Gather(const SelVec& rows) const;

  /// New batch sharing the columns, holding rows [begin, end) of this
  /// batch.
  ColumnBatch Slice(size_t begin, size_t end) const;

  /// Serialized volume of the batch's rows, equal to
  /// ToRowBatch(*this).ByteSize() but computed from the columns.
  double ByteSize() const;
};

/// Which stored columns a decode materializes, by stored position: a
/// masked decode (wire::Reader::ReadColumns, storage scans) yields only
/// the columns marked true, in stored order.
using ColumnMask = std::vector<bool>;

/// Narrows a positional batch (empty layout) to the columns `keep`
/// marks, keeping its rows; kInvalidArgument when the mask's width
/// differs from the batch's.
Status KeepColumns(const ColumnMask& keep, ColumnBatch* batch);

/// A dense batch over freshly built columns of `num_rows` rows each.
ColumnBatch DenseBatch(RowLayout layout, std::vector<ColumnVector> cols,
                       size_t num_rows);

/// Row -> column conversion. Column tags are inferred from the first
/// non-null value of each column; mixed columns fall back to kValue.
/// Fails only on a row/layout width mismatch.
Result<ColumnBatch> FromRowBatch(const RowBatch& batch);

/// Same, directly from rows (skips the RowBatch).
Result<ColumnBatch> FromRows(const RowLayout& layout,
                             const std::vector<Row>& rows);

/// Same, for stored rows, which carry no attr ids: `n` rows of `width`
/// values each, as a dense batch with an empty layout.
ColumnBatch FromRows(const Row* rows, size_t n, size_t width);

/// FromRows of `rows` from *pos up to the next change of row width;
/// advances *pos past them (a stored or shipped batch has one width).
ColumnBatch NextWidthRun(const std::vector<Row>& rows, size_t* pos);

/// Column -> row conversion of the batch's rows, value-identical to what
/// FromRowBatch consumed: round-tripping any RowBatch reproduces it
/// byte-for-byte.
RowBatch ToRowBatch(const ColumnBatch& batch);

}  // namespace vec
}  // namespace cgq

#endif  // CGQ_EXEC_VECTOR_COLUMN_BATCH_H_
