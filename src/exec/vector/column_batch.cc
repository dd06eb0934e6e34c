#include "exec/vector/column_batch.h"

namespace cgq {
namespace vec {

const char* ColumnTagToString(ColumnTag tag) {
  switch (tag) {
    case ColumnTag::kInt64:
      return "int64";
    case ColumnTag::kDouble:
      return "double";
    case ColumnTag::kString:
      return "string";
    case ColumnTag::kValue:
      return "value";
  }
  return "?";
}

void ColumnVector::Reserve(size_t n) {
  switch (tag) {
    case ColumnTag::kInt64:
      i64.reserve(n);
      break;
    case ColumnTag::kDouble:
      f64.reserve(n);
      break;
    case ColumnTag::kString:
      str.reserve(n);
      break;
    case ColumnTag::kValue:
      vals.reserve(n);
      break;
  }
}

void ColumnVector::DemoteToValues() {
  std::vector<Value> out;
  out.reserve(size());
  for (size_t i = 0; i < size(); ++i) out.push_back(GetValue(i));
  vals = std::move(out);
  i64.clear();
  f64.clear();
  str.clear();
  tag = ColumnTag::kValue;
}

void ColumnVector::AppendNull() {
  // A leading run of NULLs stays typed (kInt64 by default); the first
  // non-null value may still retag an all-null column in AppendValue.
  switch (tag) {
    case ColumnTag::kInt64:
      i64.push_back(0);
      break;
    case ColumnTag::kDouble:
      f64.push_back(0);
      break;
    case ColumnTag::kString:
      str.emplace_back();
      break;
    case ColumnTag::kValue:
      vals.emplace_back();
      break;
  }
  nulls.AppendBit(true);
}

void ColumnVector::AppendValue(const Value& v) {
  if (tag == ColumnTag::kValue) {
    vals.push_back(v);
    nulls.AppendBit(v.is_null());
    return;
  }
  if (v.is_null()) return AppendNull();
  // A column that has only seen NULLs (or nothing) has no committed type
  // yet: adopt the tag of the first non-null value.
  const bool uncommitted =
      nulls.null_count() == static_cast<int64_t>(size());
  if (uncommitted && tag == ColumnTag::kInt64 && !v.is_int64()) {
    if (v.is_double()) {
      f64.assign(i64.size(), 0);
      i64.clear();
      tag = ColumnTag::kDouble;
    } else {
      str.assign(i64.size(), std::string());
      i64.clear();
      tag = ColumnTag::kString;
    }
  }
  switch (tag) {
    case ColumnTag::kInt64:
      if (v.is_int64()) {
        i64.push_back(v.int64());
        nulls.AppendBit(false);
        return;
      }
      break;
    case ColumnTag::kDouble:
      if (v.is_double()) {
        f64.push_back(v.dbl());
        nulls.AppendBit(false);
        return;
      }
      break;
    case ColumnTag::kString:
      if (v.is_string()) {
        str.push_back(v.str());
        nulls.AppendBit(false);
        return;
      }
      break;
    case ColumnTag::kValue:
      break;
  }
  // Type mismatch within one column: lossless fallback.
  DemoteToValues();
  vals.push_back(v);
  nulls.AppendBit(false);
}

void ColumnVector::AppendFrom(const ColumnVector& other, size_t i) {
  if (tag == other.tag && tag != ColumnTag::kValue) {
    bool is_null = other.nulls.IsNull(i);
    if (is_null && nulls.AllNull() && other.tag != ColumnTag::kInt64) {
      // Keep the generic retagging path in charge of all-null columns.
      AppendValue(Value::Null());
      return;
    }
    switch (tag) {
      case ColumnTag::kInt64:
        i64.push_back(is_null ? 0 : other.i64[i]);
        break;
      case ColumnTag::kDouble:
        f64.push_back(is_null ? 0 : other.f64[i]);
        break;
      case ColumnTag::kString:
        str.push_back(is_null ? std::string() : other.str[i]);
        break;
      case ColumnTag::kValue:
        break;
    }
    nulls.AppendBit(is_null);
    return;
  }
  AppendValue(other.GetValue(i));
}

ColumnVector ColumnVector::Gather(const std::vector<uint32_t>& sel) const {
  ColumnVector out;
  out.tag = tag;
  out.nulls = NullBitmap(sel.size());
  switch (tag) {
    case ColumnTag::kInt64:
      out.i64.resize(sel.size());
      for (size_t k = 0; k < sel.size(); ++k) out.i64[k] = i64[sel[k]];
      break;
    case ColumnTag::kDouble:
      out.f64.resize(sel.size());
      for (size_t k = 0; k < sel.size(); ++k) out.f64[k] = f64[sel[k]];
      break;
    case ColumnTag::kString:
      out.str.resize(sel.size());
      for (size_t k = 0; k < sel.size(); ++k) out.str[k] = str[sel[k]];
      break;
    case ColumnTag::kValue:
      out.vals.resize(sel.size());
      for (size_t k = 0; k < sel.size(); ++k) out.vals[k] = vals[sel[k]];
      break;
  }
  if (nulls.AnyNull()) {
    for (size_t k = 0; k < sel.size(); ++k) {
      if (nulls.IsNull(sel[k])) out.nulls.SetNull(k);
    }
  }
  return out;
}

size_t ColumnVector::ByteSize(const std::vector<uint32_t>& sel) const {
  // Mirrors Value::ByteSize per row: 1 byte for NULL, 8 for numerics,
  // size+4 for strings.
  size_t bytes = 0;
  for (uint32_t i : sel) {
    if (nulls.IsNull(i)) {
      bytes += 1;
      continue;
    }
    switch (tag) {
      case ColumnTag::kInt64:
      case ColumnTag::kDouble:
        bytes += 8;
        break;
      case ColumnTag::kString:
        bytes += str[i].size() + 4;
        break;
      case ColumnTag::kValue:
        bytes += vals[i].ByteSize();
        break;
    }
  }
  return bytes;
}

SelVec RangeSel(size_t begin, size_t end) {
  SelVec sel(end - begin);
  for (size_t k = 0; k < sel.size(); ++k) {
    sel[k] = static_cast<uint32_t>(begin + k);
  }
  return sel;
}

ColumnBatch ColumnBatch::Gather(const SelVec& rows) const {
  ColumnBatch out;
  out.layout = layout;
  out.columns.reserve(columns.size());
  for (const ColumnPtr& c : columns) {
    out.columns.push_back(MakeColumn(c->Gather(rows)));
  }
  out.sel = RangeSel(0, rows.size());
  return out;
}

ColumnBatch ColumnBatch::Slice(size_t begin, size_t end) const {
  ColumnBatch out;
  out.layout = layout;
  out.columns = columns;
  out.sel.assign(sel.begin() + static_cast<ptrdiff_t>(begin),
                 sel.begin() + static_cast<ptrdiff_t>(end));
  return out;
}

double ColumnBatch::ByteSize() const {
  double bytes = 0;
  for (const ColumnPtr& c : columns) {
    bytes += static_cast<double>(c->ByteSize(sel));
  }
  return bytes;
}

ColumnBatch DenseBatch(RowLayout layout, std::vector<ColumnVector> cols,
                       size_t num_rows) {
  ColumnBatch out;
  out.layout = std::move(layout);
  out.columns.reserve(cols.size());
  for (ColumnVector& c : cols) out.columns.push_back(MakeColumn(std::move(c)));
  out.sel = RangeSel(0, num_rows);
  return out;
}

ColumnBatch FromRows(const Row* rows, size_t n, size_t width) {
  std::vector<ColumnVector> cols(width);
  for (ColumnVector& c : cols) c.Reserve(n);
  for (size_t r = 0; r < n; ++r) {
    for (size_t c = 0; c < width; ++c) cols[c].AppendValue(rows[r][c]);
  }
  return DenseBatch(RowLayout(), std::move(cols), n);
}

Result<ColumnBatch> FromRows(const RowLayout& layout,
                             const std::vector<Row>& rows) {
  for (const Row& row : rows) {
    if (row.size() != layout.size()) {
      return Status::Internal("row width " + std::to_string(row.size()) +
                              " does not match layout width " +
                              std::to_string(layout.size()));
    }
  }
  ColumnBatch out = FromRows(rows.data(), rows.size(), layout.size());
  out.layout = layout;
  return out;
}

ColumnBatch NextWidthRun(const std::vector<Row>& rows, size_t* pos) {
  const size_t begin = *pos;
  const size_t width = rows[begin].size();
  size_t end = begin + 1;
  while (end < rows.size() && rows[end].size() == width) ++end;
  *pos = end;
  return FromRows(rows.data() + begin, end - begin, width);
}

Status KeepColumns(const ColumnMask& keep, ColumnBatch* batch) {
  if (keep.size() != batch->NumColumns()) {
    return Status::InvalidArgument(
        "column mask of " + std::to_string(keep.size()) +
        " columns for a batch of " + std::to_string(batch->NumColumns()));
  }
  size_t kept = 0;
  for (size_t c = 0; c < keep.size(); ++c) {
    if (keep[c]) batch->columns[kept++] = std::move(batch->columns[c]);
  }
  batch->columns.resize(kept);
  return Status::OK();
}

Result<ColumnBatch> FromRowBatch(const RowBatch& batch) {
  return FromRows(batch.layout, batch.rows);
}

RowBatch ToRowBatch(const ColumnBatch& batch) {
  RowBatch out;
  out.layout = batch.layout;
  out.rows.resize(batch.NumRows());
  for (size_t k = 0; k < out.rows.size(); ++k) {
    const uint32_t i = batch.sel[k];
    Row& row = out.rows[k];
    row.reserve(batch.columns.size());
    for (const ColumnPtr& c : batch.columns) {
      row.push_back(c->GetValue(i));
    }
  }
  return out;
}

}  // namespace vec
}  // namespace cgq
