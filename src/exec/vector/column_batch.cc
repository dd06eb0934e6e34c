#include "exec/vector/column_batch.h"

namespace cgq {
namespace vec {

void NullBitmap::AppendSelected(const NullBitmap& src, const uint32_t* sel,
                                size_t n) {
  if (n == 0) return;
  const size_t at = size_;
  Resize(size_ + n);  // new words are zero
  if (!src.AnyNull()) return;
  bool run = true;
  for (size_t k = 1; k < n && run; ++k) run = sel[k] == sel[0] + k;
  if (!run) {
    for (size_t k = 0; k < n; ++k) {
      if (src.IsNull(sel[k])) SetNull(at + k);
    }
    return;
  }
  // Bits [sel[0], sel[0] + n) of src land at [at, at + n), 64 at a time.
  for (size_t k = 0; k < n; k += 64) {
    const size_t from = sel[0] + k;
    const size_t w = from >> 6, off = from & 63;
    uint64_t bits = src.words_[w] >> off;
    if (off != 0 && w + 1 < src.words_.size()) {
      bits |= src.words_[w + 1] << (64 - off);
    }
    if (n - k < 64) bits &= (uint64_t{1} << (n - k)) - 1;
    if (bits == 0) continue;
    null_count_ += std::popcount(bits);
    const size_t to = at + k, tw = to >> 6, toff = to & 63;
    words_[tw] |= bits << toff;
    if (toff != 0 && tw + 1 < words_.size()) {
      words_[tw + 1] |= bits >> (64 - toff);
    }
  }
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

void ColumnVector::AppendSelected(const ColumnVector& other,
                                  const uint32_t* sel, size_t n) {
  size_t k = 0;
  for (; k < n && (tag != other.tag || tag == ColumnTag::kValue); ++k) {
    AppendFrom(other, sel[k]);
  }
  sel += k;
  n -= k;
  if (n == 0) return;
  // NULL slots take a zero / empty payload, whatever `other` holds there.
  const bool any_null = other.nulls.AnyNull();
  auto copy = [&](auto& dst, const auto& src) {
    const size_t base = dst.size();
    dst.resize(base + n);
    for (size_t j = 0; j < n; ++j) dst[base + j] = src[sel[j]];
    if (!any_null) return;
    for (size_t j = 0; j < n; ++j) {
      if (other.nulls.IsNull(sel[j])) dst[base + j] = {};
    }
  };
  switch (tag) {
    case ColumnTag::kInt64:
      copy(i64, other.i64);
      break;
    case ColumnTag::kDouble:
      copy(f64, other.f64);
      break;
    case ColumnTag::kString:
      copy(str, other.str);
      break;
    case ColumnTag::kValue:
      break;
  }
  nulls.AppendSelected(other.nulls, sel, n);
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
  const bool any_null = nulls.AnyNull();
  size_t null_rows = 0;
  if (any_null) {
    for (uint32_t i : sel) null_rows += nulls.IsNull(i);
  }
  size_t bytes = null_rows;
  switch (tag) {
    case ColumnTag::kInt64:
    case ColumnTag::kDouble:
      return bytes + 8 * (sel.size() - null_rows);
    case ColumnTag::kString:
      for (uint32_t i : sel) {
        if (!any_null || !nulls.IsNull(i)) bytes += str[i].size() + 4;
      }
      return bytes;
    case ColumnTag::kValue:
      for (uint32_t i : sel) {
        if (!any_null || !nulls.IsNull(i)) bytes += vals[i].ByteSize();
      }
      return bytes;
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
