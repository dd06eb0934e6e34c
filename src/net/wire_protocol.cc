#include "net/wire_protocol.h"

#include <bit>
#include <cstring>
#include <utility>

namespace cgq {
namespace wire {

const char* FrameTypeToString(FrameType type) {
  switch (type) {
    case FrameType::kHello: return "HELLO";
    case FrameType::kHelloAck: return "HELLO_ACK";
    case FrameType::kLoadTable: return "LOAD_TABLE";
    case FrameType::kLoadAck: return "LOAD_ACK";
    case FrameType::kStartFragment: return "START_FRAGMENT";
    case FrameType::kStartAck: return "START_ACK";
    case FrameType::kInputBatch: return "INPUT_BATCH";
    case FrameType::kInputEnd: return "INPUT_END";
    case FrameType::kOutputBatch: return "OUTPUT_BATCH";
    case FrameType::kOutputEnd: return "OUTPUT_END";
    case FrameType::kError: return "ERROR";
    case FrameType::kCancel: return "CANCEL";
  }
  return "UNKNOWN";
}

uint64_t Fnv1a(const uint8_t* data, size_t len) {
  uint64_t h = 14695981039346656037ull;
  for (size_t i = 0; i < len; ++i) {
    h ^= data[i];
    h *= 1099511628211ull;
  }
  return h;
}

namespace {

void AppendLe(std::string* out, uint64_t v, size_t bytes) {
  for (size_t i = 0; i < bytes; ++i) {
    out->push_back(static_cast<char>((v >> (8 * i)) & 0xff));
  }
}

uint64_t ReadLe(const uint8_t* data, size_t bytes) {
  uint64_t v = 0;
  for (size_t i = 0; i < bytes; ++i) {
    v |= static_cast<uint64_t>(data[i]) << (8 * i);
  }
  return v;
}

constexpr bool kLittleEndian = std::endian::native == std::endian::little;

uint64_t ByteSwap64(uint64_t v) {
  uint64_t out = 0;
  for (int i = 0; i < 8; ++i) out = (out << 8) | ((v >> (8 * i)) & 0xff);
  return out;
}

uint64_t LoadLe64(const uint8_t* p) {
  uint64_t v;
  std::memcpy(&v, p, sizeof(v));
  return kLittleEndian ? v : ByteSwap64(v);
}

void StoreLe64(char* p, uint64_t v) {
  if (!kLittleEndian) v = ByteSwap64(v);
  std::memcpy(p, &v, sizeof(v));
}

void StoreLe32(char* p, uint32_t v) {
  for (int i = 0; i < 4; ++i) p[i] = static_cast<char>((v >> (8 * i)) & 0xff);
}

/// `n` 8-byte little-endian values into `dst` (int64, double or u64).
template <typename T>
void LoadLeArray(T* dst, const uint8_t* src, size_t n) {
  static_assert(sizeof(T) == 8);
  if constexpr (kLittleEndian) {
    if (n != 0) std::memcpy(dst, src, n * 8);
  } else {
    for (size_t i = 0; i < n; ++i) {
      const uint64_t bits = LoadLe64(src + 8 * i);
      std::memcpy(&dst[i], &bits, 8);
    }
  }
}

// The odd multipliers of xxHash64: a product by either is a bijection.
constexpr uint64_t kPrime1 = 0x9E3779B185EBCA87ull;
constexpr uint64_t kPrime2 = 0xC2B2AE3D27D4EB4Full;
constexpr uint64_t kPrime3 = 0x165667B19E3779F9ull;

/// A bijection of `acc` for a fixed `word` and of `word` for a fixed
/// `acc`, so a changed input word always changes the result.
uint64_t ChecksumStep(uint64_t acc, uint64_t word) {
  return std::rotl(acc + word * kPrime2, 31) * kPrime1;
}

}  // namespace

uint64_t Checksum64(const uint8_t* data, size_t len) {
  uint64_t lanes[4] = {kPrime1, kPrime2, kPrime3, ~kPrime1};
  size_t i = 0;
  for (; len - i >= 32; i += 32) {
    lanes[0] = ChecksumStep(lanes[0], LoadLe64(data + i));
    lanes[1] = ChecksumStep(lanes[1], LoadLe64(data + i + 8));
    lanes[2] = ChecksumStep(lanes[2], LoadLe64(data + i + 16));
    lanes[3] = ChecksumStep(lanes[3], LoadLe64(data + i + 24));
  }
  uint64_t h = ChecksumStep(kPrime3, len);
  for (uint64_t lane : lanes) h = ChecksumStep(h, lane);
  for (; len - i >= 8; i += 8) h = ChecksumStep(h, LoadLe64(data + i));
  if (i < len) {
    uint64_t tail = 0;
    for (size_t k = 0; i + k < len; ++k) {
      tail |= static_cast<uint64_t>(data[i + k]) << (8 * k);
    }
    h = ChecksumStep(h, tail);
  }
  // Final avalanche (MurmurHash3's fmix64, itself a bijection).
  h ^= h >> 33;
  h *= 0xff51afd7ed558ccdull;
  h ^= h >> 33;
  h *= 0xc4ceb9fe1a85ec53ull;
  h ^= h >> 33;
  return h;
}

std::string EncodeFrame(FrameType type, const std::string& payload) {
  std::string out;
  out.reserve(kHeaderSize + payload.size());
  AppendLe(&out, kMagic, 4);
  AppendLe(&out, kVersion, 2);
  AppendLe(&out, static_cast<uint16_t>(type), 2);
  AppendLe(&out, static_cast<uint32_t>(payload.size()), 4);
  AppendLe(&out,
           Checksum64(reinterpret_cast<const uint8_t*>(payload.data()),
                      payload.size()),
           8);
  out.append(payload);
  return out;
}

Result<FrameHeader> DecodeFrameHeader(const uint8_t* data, size_t len) {
  if (len < kHeaderSize) {
    return Status::InvalidArgument("truncated frame header (" +
                                   std::to_string(len) + " bytes)");
  }
  uint32_t magic = static_cast<uint32_t>(ReadLe(data, 4));
  if (magic != kMagic) {
    return Status::InvalidArgument("bad frame magic");
  }
  FrameHeader h;
  h.version = static_cast<uint16_t>(ReadLe(data + 4, 2));
  h.type = static_cast<uint16_t>(ReadLe(data + 6, 2));
  h.payload_len = static_cast<uint32_t>(ReadLe(data + 8, 4));
  h.checksum = ReadLe(data + 12, 8);
  if (h.version != kVersion) {
    return Status::Unsupported(
        "wire protocol version mismatch: peer speaks v" +
        std::to_string(h.version) + ", this build speaks v" +
        std::to_string(kVersion));
  }
  if (h.payload_len > kMaxPayloadBytes) {
    return Status::InvalidArgument(
        "oversized frame: " + std::to_string(h.payload_len) +
        " bytes exceeds the " + std::to_string(kMaxPayloadBytes) +
        "-byte limit");
  }
  return h;
}

Status VerifyPayload(const FrameHeader& header, const uint8_t* payload) {
  if (Checksum64(payload, header.payload_len) != header.checksum) {
    return Status::InvalidArgument("frame checksum mismatch");
  }
  return Status::OK();
}

// --- Writer ---------------------------------------------------------------

void Writer::PutU16(uint16_t v) { AppendLe(&buf_, v, 2); }
void Writer::PutU32(uint32_t v) { AppendLe(&buf_, v, 4); }
void Writer::PutU64(uint64_t v) { AppendLe(&buf_, v, 8); }

void Writer::PutDouble(double v) {
  uint64_t bits;
  std::memcpy(&bits, &v, sizeof(bits));
  PutU64(bits);
}

void Writer::PutString(const std::string& s) {
  PutU32(static_cast<uint32_t>(s.size()));
  buf_.append(s);
}

void Writer::PutValue(const Value& v) {
  // A single value always takes a typed tag (never kValue).
  vec::ColumnVector col;
  col.AppendValue(v);
  PutCell(col, 0);
}

void Writer::PutCell(const vec::ColumnVector& col, size_t i) {
  if (col.tag == vec::ColumnTag::kValue) return PutValue(col.vals[i]);
  if (col.nulls.IsNull(i)) return PutU8(0);
  switch (col.tag) {
    case vec::ColumnTag::kInt64:
      PutU8(1);
      return PutI64(col.i64[i]);
    case vec::ColumnTag::kDouble:
      PutU8(2);
      return PutDouble(col.f64[i]);
    default:
      PutU8(3);
      return PutString(col.str[i]);
  }
}

char* Writer::Grow(size_t n) {
  const size_t at = buf_.size();
  buf_.resize(at + n);
  return buf_.data() + at;
}

void Writer::PutColumn(const vec::ColumnVector& col, const vec::SelVec& sel) {
  const size_t rows = sel.size();
  if (col.tag == vec::ColumnTag::kValue) {
    PutU8(static_cast<uint8_t>(vec::ColumnTag::kValue));
    PutU8(0);
    for (uint32_t i : sel) PutValue(col.vals[i]);
    return;
  }
  // The NULL words of the selected rows, in selection order.
  std::vector<uint64_t> null_words;
  size_t nulls = 0;
  if (col.nulls.AnyNull()) {
    null_words.assign((rows + 63) / 64, 0);
    for (size_t k = 0; k < rows; ++k) {
      if (col.nulls.IsNull(sel[k])) {
        null_words[k >> 6] |= uint64_t{1} << (k & 63);
        ++nulls;
      }
    }
  }
  auto is_null = [&](size_t k) {
    return nulls != 0 && ((null_words[k >> 6] >> (k & 63)) & 1u);
  };
  const vec::ColumnTag tag = nulls == rows ? vec::ColumnTag::kInt64 : col.tag;
  PutU8(static_cast<uint8_t>(tag));
  PutU8(nulls != 0 ? 1 : 0);
  if (nulls != 0) {
    char* out = Grow(null_words.size() * 8);
    for (size_t w = 0; w < null_words.size(); ++w) {
      StoreLe64(out + 8 * w, null_words[w]);
    }
  }
  if (nulls == rows) {
    Grow(rows * 8);  // an all-NULL int64 payload: zeros
    return;
  }
  switch (tag) {
    case vec::ColumnTag::kInt64:
    case vec::ColumnTag::kDouble: {
      char* out = Grow(rows * 8);
      const void* base = tag == vec::ColumnTag::kInt64
                             ? static_cast<const void*>(col.i64.data())
                             : static_cast<const void*>(col.f64.data());
      for (size_t k = 0; k < rows; ++k) {
        uint64_t bits = 0;
        if (!is_null(k)) {
          std::memcpy(&bits, static_cast<const char*>(base) + 8 * sel[k], 8);
        }
        StoreLe64(out + 8 * k, bits);
      }
      return;
    }
    case vec::ColumnTag::kString: {
      char* offsets = Grow(rows * 4);
      uint32_t end = 0;
      for (size_t k = 0; k < rows; ++k) {
        if (!is_null(k)) end += static_cast<uint32_t>(col.str[sel[k]].size());
        StoreLe32(offsets + 4 * k, end);
      }
      buf_.reserve(buf_.size() + end);
      for (size_t k = 0; k < rows; ++k) {
        if (!is_null(k)) buf_.append(col.str[sel[k]]);
      }
      return;
    }
    case vec::ColumnTag::kValue:
      return;  // handled above
  }
}

void Writer::PutColumns(const vec::ColumnBatch& batch) {
  PutU32(static_cast<uint32_t>(batch.NumRows()));
  PutU32(static_cast<uint32_t>(batch.NumColumns()));
  for (const vec::ColumnPtr& col : batch.columns) PutColumn(*col, batch.sel);
}

void Writer::PutBatch(const vec::ColumnBatch& batch) {
  PutU32(static_cast<uint32_t>(batch.layout.attrs().size()));
  for (AttrId id : batch.layout.attrs()) PutU32(id);
  PutColumns(batch);
}

void Writer::PutExpr(const Expr& e) {
  switch (e.op()) {
    case ExprOp::kLiteral:
      PutU8(0);
      PutValue(e.literal());
      return;
    case ExprOp::kColumnRef:
      PutU8(1);
      PutU32(e.attr_id());
      PutString(e.qualifier());
      PutString(e.column());
      PutString(e.base_table());
      PutU8(static_cast<uint8_t>(e.type()));
      return;
    case ExprOp::kNot:
      PutU8(2);
      PutU8(static_cast<uint8_t>(e.op()));
      PutExpr(*e.child(0));
      return;
    case ExprOp::kIn:
      PutU8(4);
      PutExpr(*e.child(0));
      PutU32(static_cast<uint32_t>(e.in_list().size()));
      for (const Value& v : e.in_list()) PutValue(v);
      return;
    default:
      PutU8(3);
      PutU8(static_cast<uint8_t>(e.op()));
      PutExpr(*e.child(0));
      PutExpr(*e.child(1));
      return;
  }
}

namespace {

void PutOutputs(Writer* w, const std::vector<OutputCol>& outputs) {
  w->PutU32(static_cast<uint32_t>(outputs.size()));
  for (const OutputCol& c : outputs) {
    w->PutU32(c.id);
    w->PutString(c.name);
    w->PutU8(static_cast<uint8_t>(c.type));
  }
}

}  // namespace

Status Writer::PutPlan(
    const PlanNode& node,
    const std::unordered_map<const PlanNode*, int>& channel_of_ship) {
  PutU8(static_cast<uint8_t>(node.kind()));
  PutU32(node.location);
  PutU64(node.exec_trait.bits());
  PutU64(node.ship_trait.bits());
  if (node.kind() == PlanKind::kShip) {
    // SHIP leaves carry their *child's* output columns (the layout of the
    // batches that will arrive on the channel) — the producing subtree
    // belongs to another fragment and is not shipped.
    PutOutputs(this, node.child(0)->outputs);
  } else {
    PutOutputs(this, node.outputs);
  }
  switch (node.kind()) {
    case PlanKind::kScan:
      PutString(node.table);
      PutU32(node.scan_location);
      break;
    case PlanKind::kFilter:
      PutU32(static_cast<uint32_t>(node.conjuncts.size()));
      for (const ExprPtr& c : node.conjuncts) PutExpr(*c);
      break;
    case PlanKind::kProject:
      PutU32(static_cast<uint32_t>(node.project_ids.size()));
      for (AttrId id : node.project_ids) PutU32(id);
      PutU32(static_cast<uint32_t>(node.project_names.size()));
      for (const std::string& name : node.project_names) PutString(name);
      break;
    case PlanKind::kJoin:
      PutU8(static_cast<uint8_t>(node.join_method));
      PutU32(static_cast<uint32_t>(node.conjuncts.size()));
      for (const ExprPtr& c : node.conjuncts) PutExpr(*c);
      break;
    case PlanKind::kAggregate:
      PutU32(static_cast<uint32_t>(node.group_ids.size()));
      for (AttrId id : node.group_ids) PutU32(id);
      PutU32(static_cast<uint32_t>(node.agg_calls.size()));
      for (const AggCall& call : node.agg_calls) {
        PutU8(static_cast<uint8_t>(call.fn));
        PutExpr(*call.arg);
        PutU8(call.merges_counts ? 1 : 0);
      }
      PutU32(static_cast<uint32_t>(node.agg_out_ids.size()));
      for (AttrId id : node.agg_out_ids) PutU32(id);
      PutU8(node.is_partial_agg ? 1 : 0);
      break;
    case PlanKind::kUnion:
      break;
    case PlanKind::kShip: {
      auto it = channel_of_ship.find(&node);
      if (it == channel_of_ship.end()) {
        return Status::Internal("SHIP node has no assigned channel");
      }
      PutU32(node.ship_from);
      PutU32(node.ship_to);
      PutI32(it->second);
      break;
    }
  }
  if (node.kind() == PlanKind::kShip) {
    PutU32(0);  // childless on the wire
    return Status::OK();
  }
  PutU32(static_cast<uint32_t>(node.children().size()));
  for (const PlanNodePtr& child : node.children()) {
    CGQ_RETURN_NOT_OK(PutPlan(*child, channel_of_ship));
  }
  return Status::OK();
}

// --- Reader ---------------------------------------------------------------

Status Reader::Need(size_t n) {
  if (len_ - pos_ < n) {
    return Status::InvalidArgument("truncated payload");
  }
  return Status::OK();
}

Result<const uint8_t*> Reader::Bytes(size_t n) {
  CGQ_RETURN_NOT_OK(Need(n));
  const uint8_t* p = data_ + pos_;
  pos_ += n;
  return p;
}

Result<uint8_t> Reader::U8() {
  CGQ_RETURN_NOT_OK(Need(1));
  return data_[pos_++];
}

Result<uint16_t> Reader::U16() {
  CGQ_RETURN_NOT_OK(Need(2));
  uint16_t v = static_cast<uint16_t>(ReadLe(data_ + pos_, 2));
  pos_ += 2;
  return v;
}

Result<uint32_t> Reader::U32() {
  CGQ_RETURN_NOT_OK(Need(4));
  uint32_t v = static_cast<uint32_t>(ReadLe(data_ + pos_, 4));
  pos_ += 4;
  return v;
}

Result<uint64_t> Reader::U64() {
  CGQ_RETURN_NOT_OK(Need(8));
  uint64_t v = ReadLe(data_ + pos_, 8);
  pos_ += 8;
  return v;
}

Result<int32_t> Reader::I32() {
  CGQ_ASSIGN_OR_RETURN(uint32_t v, U32());
  return static_cast<int32_t>(v);
}

Result<int64_t> Reader::I64() {
  CGQ_ASSIGN_OR_RETURN(uint64_t v, U64());
  return static_cast<int64_t>(v);
}

Result<double> Reader::Double() {
  CGQ_ASSIGN_OR_RETURN(uint64_t bits, U64());
  double v;
  std::memcpy(&v, &bits, sizeof(v));
  return v;
}

Result<std::string> Reader::String() {
  CGQ_ASSIGN_OR_RETURN(uint32_t len, U32());
  CGQ_RETURN_NOT_OK(Need(len));
  std::string s(reinterpret_cast<const char*>(data_ + pos_), len);
  pos_ += len;
  return s;
}

Result<Value> Reader::ReadValue() {
  vec::ColumnVector col;
  CGQ_RETURN_NOT_OK(ReadCell(&col));
  return col.GetValue(0);
}

Status Reader::ReadCell(vec::ColumnVector* col) {
  CGQ_ASSIGN_OR_RETURN(uint8_t tag, U8());
  switch (tag) {
    case 0:
      if (col != nullptr) col->AppendNull();
      return Status::OK();
    case 1:
    case 2: {
      CGQ_ASSIGN_OR_RETURN(uint64_t bits, U64());
      if (col == nullptr) return Status::OK();
      if (tag == 1) {
        col->AppendInt64(static_cast<int64_t>(bits));
      } else {
        double v;
        std::memcpy(&v, &bits, sizeof(v));
        col->AppendDouble(v);
      }
      return Status::OK();
    }
    case 3: {
      CGQ_ASSIGN_OR_RETURN(uint32_t len, U32());
      CGQ_ASSIGN_OR_RETURN(const uint8_t* p, Bytes(len));
      if (col != nullptr) {
        col->AppendString(std::string(reinterpret_cast<const char*>(p), len));
      }
      return Status::OK();
    }
    default:
      return Status::InvalidArgument("bad value tag " + std::to_string(tag));
  }
}

Status Reader::ReadColumn(uint32_t rows, vec::ColumnVector* col) {
  CGQ_ASSIGN_OR_RETURN(uint8_t tag_byte, U8());
  CGQ_ASSIGN_OR_RETURN(uint8_t flags, U8());
  if (tag_byte > static_cast<uint8_t>(vec::ColumnTag::kValue)) {
    return Status::InvalidArgument("bad column tag " +
                                   std::to_string(tag_byte));
  }
  const auto tag = static_cast<vec::ColumnTag>(tag_byte);
  const bool has_nulls = flags == 1;
  if (flags > 1 || (has_nulls && tag == vec::ColumnTag::kValue)) {
    return Status::InvalidArgument("bad column flags " +
                                   std::to_string(flags));
  }
  if (tag == vec::ColumnTag::kValue) {
    // Tagged values, at least a byte each; the typed appends infer the
    // column's tag exactly as FromRows does.
    if (remaining() < rows) return Status::InvalidArgument("truncated payload");
    for (uint32_t i = 0; i < rows; ++i) CGQ_RETURN_NOT_OK(ReadCell(col));
    return Status::OK();
  }

  const uint8_t* null_words = nullptr;
  const size_t num_words = (size_t{rows} + 63) / 64;
  if (has_nulls) {
    CGQ_ASSIGN_OR_RETURN(null_words, Bytes(num_words * 8));
    if (rows % 64 != 0 &&
        (ReadLe(null_words + 8 * (num_words - 1), 8) >> (rows % 64)) != 0) {
      return Status::InvalidArgument("NULL bit past row " +
                                     std::to_string(rows));
    }
  }
  if (col != nullptr) {
    if (has_nulls) {
      std::vector<uint64_t> words(num_words);
      LoadLeArray(words.data(), null_words, num_words);
      col->nulls = vec::NullBitmap::FromWords(std::move(words), rows);
    } else {
      col->nulls = vec::NullBitmap(rows);
    }
    col->tag = tag;
  }
  auto is_null = [&](size_t i) { return has_nulls && col->nulls.IsNull(i); };

  switch (tag) {
    case vec::ColumnTag::kInt64:
    case vec::ColumnTag::kDouble: {
      CGQ_ASSIGN_OR_RETURN(const uint8_t* p, Bytes(size_t{rows} * 8));
      if (col == nullptr) break;
      if (tag == vec::ColumnTag::kInt64) {
        col->i64.resize(rows);
        LoadLeArray(col->i64.data(), p, rows);
      } else {
        col->f64.resize(rows);
        LoadLeArray(col->f64.data(), p, rows);
      }
      if (has_nulls) {
        // NULL slots hold zero whatever the bytes say.
        for (size_t i = 0; i < rows; ++i) {
          if (!is_null(i)) continue;
          if (tag == vec::ColumnTag::kInt64) {
            col->i64[i] = 0;
          } else {
            col->f64[i] = 0;
          }
        }
      }
      break;
    }
    case vec::ColumnTag::kString: {
      CGQ_ASSIGN_OR_RETURN(const uint8_t* offsets, Bytes(size_t{rows} * 4));
      uint32_t end = 0;
      for (uint32_t i = 0; i < rows; ++i) {
        const uint32_t next = static_cast<uint32_t>(ReadLe(offsets + 4 * i, 4));
        if (next < end) {
          return Status::InvalidArgument("decreasing string offset at row " +
                                         std::to_string(i));
        }
        end = next;
      }
      if (end > remaining()) {
        return Status::InvalidArgument("string offsets past the payload");
      }
      CGQ_ASSIGN_OR_RETURN(const uint8_t* bytes, Bytes(end));
      if (col == nullptr) break;
      col->str.reserve(rows);
      uint32_t begin = 0;
      for (uint32_t i = 0; i < rows; ++i) {
        const uint32_t next = static_cast<uint32_t>(ReadLe(offsets + 4 * i, 4));
        if (is_null(i)) {
          col->str.emplace_back();
        } else {
          col->str.emplace_back(reinterpret_cast<const char*>(bytes + begin),
                                next - begin);
        }
        begin = next;
      }
      break;
    }
    case vec::ColumnTag::kValue:
      break;  // handled above
  }
  if (col == nullptr) return Status::OK();
  if (col->nulls.null_count() == static_cast<int64_t>(rows) &&
      tag != vec::ColumnTag::kInt64) {
    // No value to type the column by: all-NULL columns are int64.
    col->f64.clear();
    col->str.clear();
    col->i64.assign(rows, 0);
    col->tag = vec::ColumnTag::kInt64;
  }
  return Status::OK();
}

Result<vec::ColumnBatch> Reader::ReadColumns(const vec::ColumnMask* keep) {
  CGQ_ASSIGN_OR_RETURN(uint32_t num_rows, U32());
  CGQ_ASSIGN_OR_RETURN(uint32_t num_cols, U32());
  if (keep != nullptr && keep->size() != num_cols) {
    return Status::InvalidArgument(
        "column mask of " + std::to_string(keep->size()) +
        " columns for a batch of " + std::to_string(num_cols));
  }
  if (num_cols == 0) {
    // Nothing bounds a batch without columns but the payload limit on
    // the selection it allocates.
    if (uint64_t{num_rows} * sizeof(uint32_t) > kMaxPayloadBytes) {
      return Status::InvalidArgument("truncated payload");
    }
    return vec::DenseBatch(RowLayout(), {}, num_rows);
  }
  // Every column holds at least its tag and flag bytes and a byte per
  // row: counts the payload cannot hold fail here, before anything is
  // allocated for them.
  if (remaining() / num_cols < 2 + uint64_t{num_rows}) {
    return Status::InvalidArgument("truncated payload");
  }
  std::vector<vec::ColumnVector> cols;
  cols.reserve(num_cols);
  for (uint32_t c = 0; c < num_cols; ++c) {
    if (keep != nullptr && !(*keep)[c]) {
      CGQ_RETURN_NOT_OK(ReadColumn(num_rows, nullptr));
      continue;
    }
    CGQ_RETURN_NOT_OK(ReadColumn(num_rows, &cols.emplace_back()));
  }
  return vec::DenseBatch(RowLayout(), std::move(cols), num_rows);
}

Result<vec::ColumnBatch> Reader::ReadBatch() {
  CGQ_ASSIGN_OR_RETURN(uint32_t num_attrs, U32());
  if (remaining() / 4 < num_attrs) {
    return Status::InvalidArgument("truncated payload");
  }
  std::vector<AttrId> attrs;
  attrs.reserve(num_attrs);
  for (uint32_t i = 0; i < num_attrs; ++i) {
    CGQ_ASSIGN_OR_RETURN(uint32_t id, U32());
    attrs.push_back(id);
  }
  CGQ_ASSIGN_OR_RETURN(vec::ColumnBatch batch, ReadColumns());
  if (batch.NumColumns() != num_attrs) {
    return Status::InvalidArgument(
        "batch of " + std::to_string(batch.NumColumns()) +
        " columns for " + std::to_string(num_attrs) + " attrs");
  }
  batch.layout = RowLayout(std::move(attrs));
  return batch;
}

namespace {

/// Holds one level of ReadExpr/ReadPlan recursion for its scope.
class DepthScope {
 public:
  explicit DepthScope(int* depth) : depth_(depth) { ++*depth_; }
  ~DepthScope() { --*depth_; }
  Status Check() const {
    if (*depth_ <= kMaxDecodeDepth) return Status::OK();
    return Status::InvalidArgument("payload nests deeper than " +
                                   std::to_string(kMaxDecodeDepth) +
                                   " levels");
  }

 private:
  int* depth_;
};

}  // namespace

Result<ExprPtr> Reader::ReadExpr() {
  const DepthScope scope(&depth_);
  CGQ_RETURN_NOT_OK(scope.Check());
  CGQ_ASSIGN_OR_RETURN(uint8_t tag, U8());
  switch (tag) {
    case 0: {
      CGQ_ASSIGN_OR_RETURN(Value v, ReadValue());
      return Expr::Literal(std::move(v));
    }
    case 1: {
      CGQ_ASSIGN_OR_RETURN(uint32_t attr_id, U32());
      CGQ_ASSIGN_OR_RETURN(std::string qualifier, String());
      CGQ_ASSIGN_OR_RETURN(std::string column, String());
      CGQ_ASSIGN_OR_RETURN(std::string base_table, String());
      CGQ_ASSIGN_OR_RETURN(uint8_t type, U8());
      if (type > static_cast<uint8_t>(DataType::kDate)) {
        return Status::InvalidArgument("bad data type " +
                                       std::to_string(type));
      }
      return Expr::BoundColumn(attr_id, std::move(qualifier),
                               std::move(column), std::move(base_table),
                               static_cast<DataType>(type));
    }
    case 2: {
      CGQ_ASSIGN_OR_RETURN(uint8_t op, U8());
      if (op != static_cast<uint8_t>(ExprOp::kNot)) {
        return Status::InvalidArgument("bad unary operator " +
                                       std::to_string(op));
      }
      CGQ_ASSIGN_OR_RETURN(ExprPtr child, ReadExpr());
      return Expr::Unary(ExprOp::kNot, std::move(child));
    }
    case 3: {
      CGQ_ASSIGN_OR_RETURN(uint8_t op, U8());
      if (op > static_cast<uint8_t>(ExprOp::kIn) ||
          op == static_cast<uint8_t>(ExprOp::kLiteral) ||
          op == static_cast<uint8_t>(ExprOp::kColumnRef) ||
          op == static_cast<uint8_t>(ExprOp::kNot) ||
          op == static_cast<uint8_t>(ExprOp::kIn)) {
        return Status::InvalidArgument("bad binary operator " +
                                       std::to_string(op));
      }
      CGQ_ASSIGN_OR_RETURN(ExprPtr left, ReadExpr());
      CGQ_ASSIGN_OR_RETURN(ExprPtr right, ReadExpr());
      return Expr::Binary(static_cast<ExprOp>(op), std::move(left),
                          std::move(right));
    }
    case 4: {
      CGQ_ASSIGN_OR_RETURN(ExprPtr needle, ReadExpr());
      CGQ_ASSIGN_OR_RETURN(uint32_t n, U32());
      if (remaining() < n) {
        return Status::InvalidArgument("truncated payload");
      }
      std::vector<Value> literals;
      literals.reserve(n);
      for (uint32_t i = 0; i < n; ++i) {
        CGQ_ASSIGN_OR_RETURN(Value v, ReadValue());
        literals.push_back(std::move(v));
      }
      return Expr::InList(std::move(needle), std::move(literals));
    }
    default:
      return Status::InvalidArgument("bad expression tag " +
                                     std::to_string(tag));
  }
}

namespace {

Result<std::vector<OutputCol>> ReadOutputs(Reader* r) {
  CGQ_ASSIGN_OR_RETURN(uint32_t n, r->U32());
  if (r->remaining() < n) {
    return Status::InvalidArgument("truncated payload");
  }
  std::vector<OutputCol> outputs;
  outputs.reserve(n);
  for (uint32_t i = 0; i < n; ++i) {
    OutputCol c;
    CGQ_ASSIGN_OR_RETURN(c.id, r->U32());
    CGQ_ASSIGN_OR_RETURN(c.name, r->String());
    CGQ_ASSIGN_OR_RETURN(uint8_t type, r->U8());
    if (type > static_cast<uint8_t>(DataType::kDate)) {
      return Status::InvalidArgument("bad data type " + std::to_string(type));
    }
    c.type = static_cast<DataType>(type);
    outputs.push_back(std::move(c));
  }
  return outputs;
}

}  // namespace

Result<PlanNodePtr> Reader::ReadPlan(std::vector<int>* input_channels) {
  const DepthScope scope(&depth_);
  CGQ_RETURN_NOT_OK(scope.Check());
  CGQ_ASSIGN_OR_RETURN(uint8_t kind_tag, U8());
  if (kind_tag > static_cast<uint8_t>(PlanKind::kShip)) {
    return Status::InvalidArgument("bad plan kind " +
                                   std::to_string(kind_tag));
  }
  const PlanKind kind = static_cast<PlanKind>(kind_tag);
  auto node = std::make_shared<PlanNode>(kind);
  CGQ_ASSIGN_OR_RETURN(node->location, U32());
  CGQ_ASSIGN_OR_RETURN(uint64_t exec_bits, U64());
  node->exec_trait = LocationSet(exec_bits);
  CGQ_ASSIGN_OR_RETURN(uint64_t ship_bits, U64());
  node->ship_trait = LocationSet(ship_bits);
  CGQ_ASSIGN_OR_RETURN(node->outputs, ReadOutputs(this));
  switch (kind) {
    case PlanKind::kScan: {
      CGQ_ASSIGN_OR_RETURN(node->table, String());
      CGQ_ASSIGN_OR_RETURN(node->scan_location, U32());
      break;
    }
    case PlanKind::kFilter: {
      CGQ_ASSIGN_OR_RETURN(uint32_t n, U32());
      if (remaining() < n) {
        return Status::InvalidArgument("truncated payload");
      }
      for (uint32_t i = 0; i < n; ++i) {
        CGQ_ASSIGN_OR_RETURN(ExprPtr c, ReadExpr());
        node->conjuncts.push_back(std::move(c));
      }
      break;
    }
    case PlanKind::kProject: {
      CGQ_ASSIGN_OR_RETURN(uint32_t n, U32());
      if (remaining() < 4ull * n) {
        return Status::InvalidArgument("truncated payload");
      }
      for (uint32_t i = 0; i < n; ++i) {
        CGQ_ASSIGN_OR_RETURN(uint32_t id, U32());
        node->project_ids.push_back(id);
      }
      CGQ_ASSIGN_OR_RETURN(uint32_t num_names, U32());
      if (remaining() < num_names) {
        return Status::InvalidArgument("truncated payload");
      }
      for (uint32_t i = 0; i < num_names; ++i) {
        CGQ_ASSIGN_OR_RETURN(std::string name, String());
        node->project_names.push_back(std::move(name));
      }
      break;
    }
    case PlanKind::kJoin: {
      CGQ_ASSIGN_OR_RETURN(uint8_t method, U8());
      if (method > static_cast<uint8_t>(JoinMethod::kNestedLoop)) {
        return Status::InvalidArgument("bad join method " +
                                       std::to_string(method));
      }
      node->join_method = static_cast<JoinMethod>(method);
      CGQ_ASSIGN_OR_RETURN(uint32_t n, U32());
      if (remaining() < n) {
        return Status::InvalidArgument("truncated payload");
      }
      for (uint32_t i = 0; i < n; ++i) {
        CGQ_ASSIGN_OR_RETURN(ExprPtr c, ReadExpr());
        node->conjuncts.push_back(std::move(c));
      }
      break;
    }
    case PlanKind::kAggregate: {
      CGQ_ASSIGN_OR_RETURN(uint32_t num_groups, U32());
      if (remaining() < 4ull * num_groups) {
        return Status::InvalidArgument("truncated payload");
      }
      for (uint32_t i = 0; i < num_groups; ++i) {
        CGQ_ASSIGN_OR_RETURN(uint32_t id, U32());
        node->group_ids.push_back(id);
      }
      CGQ_ASSIGN_OR_RETURN(uint32_t num_calls, U32());
      if (remaining() < num_calls) {
        return Status::InvalidArgument("truncated payload");
      }
      for (uint32_t i = 0; i < num_calls; ++i) {
        CGQ_ASSIGN_OR_RETURN(uint8_t fn, U8());
        if (fn > static_cast<uint8_t>(AggFn::kCount)) {
          return Status::InvalidArgument("bad aggregate function " +
                                         std::to_string(fn));
        }
        AggCall call;
        call.fn = static_cast<AggFn>(fn);
        CGQ_ASSIGN_OR_RETURN(call.arg, ReadExpr());
        CGQ_ASSIGN_OR_RETURN(uint8_t merges_counts, U8());
        if (merges_counts > 1) {
          return Status::InvalidArgument("bad count-merge flag " +
                                         std::to_string(merges_counts));
        }
        call.merges_counts = merges_counts == 1;
        node->agg_calls.push_back(std::move(call));
      }
      CGQ_ASSIGN_OR_RETURN(uint32_t num_outs, U32());
      if (remaining() < 4ull * num_outs) {
        return Status::InvalidArgument("truncated payload");
      }
      for (uint32_t i = 0; i < num_outs; ++i) {
        CGQ_ASSIGN_OR_RETURN(uint32_t id, U32());
        node->agg_out_ids.push_back(id);
      }
      CGQ_ASSIGN_OR_RETURN(uint8_t partial, U8());
      node->is_partial_agg = partial != 0;
      break;
    }
    case PlanKind::kUnion:
      break;
    case PlanKind::kShip: {
      CGQ_ASSIGN_OR_RETURN(node->ship_from, U32());
      CGQ_ASSIGN_OR_RETURN(node->ship_to, U32());
      CGQ_ASSIGN_OR_RETURN(int32_t channel, I32());
      // The channel id rides in fragment_ordinal (unused by SHIP nodes):
      // the server's ship-source factory reads it back to pick the right
      // input queue without a side table.
      node->fragment_ordinal = channel;
      if (input_channels != nullptr) input_channels->push_back(channel);
      break;
    }
  }
  CGQ_ASSIGN_OR_RETURN(uint32_t num_children, U32());
  if (remaining() < num_children) {
    return Status::InvalidArgument("truncated payload");
  }
  for (uint32_t i = 0; i < num_children; ++i) {
    CGQ_ASSIGN_OR_RETURN(PlanNodePtr child, ReadPlan(input_channels));
    node->children().push_back(std::move(child));
  }
  return PlanNodePtr(std::move(node));
}

// --- Typed payloads -------------------------------------------------------

std::string Hello::Encode() const {
  Writer w;
  w.PutU16(version);
  return w.Take();
}

Result<Hello> Hello::Decode(const std::string& payload) {
  Reader r(payload);
  Hello h;
  CGQ_ASSIGN_OR_RETURN(h.version, r.U16());
  return h;
}

std::string HelloAck::Encode() const {
  Writer w;
  w.PutU16(version);
  w.PutU32(static_cast<uint32_t>(locations.size()));
  for (LocationId l : locations) w.PutU32(l);
  return w.Take();
}

Result<HelloAck> HelloAck::Decode(const std::string& payload) {
  Reader r(payload);
  HelloAck ack;
  CGQ_ASSIGN_OR_RETURN(ack.version, r.U16());
  CGQ_ASSIGN_OR_RETURN(uint32_t n, r.U32());
  if (r.remaining() < 4ull * n) {
    return Status::InvalidArgument("truncated payload");
  }
  for (uint32_t i = 0; i < n; ++i) {
    CGQ_ASSIGN_OR_RETURN(uint32_t l, r.U32());
    ack.locations.push_back(l);
  }
  return ack;
}

std::string LoadTable::Encode() const {
  Writer w;
  w.PutU32(location);
  w.PutString(table);
  w.PutU8(replace ? 1 : 0);
  w.PutColumns(batch);
  return w.Take();
}

Result<LoadTable> LoadTable::Decode(const std::string& payload) {
  Reader r(payload);
  LoadTable load;
  CGQ_ASSIGN_OR_RETURN(load.location, r.U32());
  CGQ_ASSIGN_OR_RETURN(load.table, r.String());
  CGQ_ASSIGN_OR_RETURN(uint8_t replace, r.U8());
  load.replace = replace != 0;
  CGQ_ASSIGN_OR_RETURN(load.batch, r.ReadColumns());
  return load;
}

std::string LoadAck::Encode() const {
  Writer w;
  w.PutI64(fragment_rows);
  return w.Take();
}

Result<LoadAck> LoadAck::Decode(const std::string& payload) {
  Reader r(payload);
  LoadAck ack;
  CGQ_ASSIGN_OR_RETURN(ack.fragment_rows, r.I64());
  return ack;
}

Result<std::string> StartFragment::Encode(
    const std::unordered_map<const PlanNode*, int>& channel_of_ship) const {
  Writer w;
  w.PutI32(fragment_id);
  w.PutU32(site);
  w.PutU32(batch_size);
  w.PutU8(has_output_ship ? 1 : 0);
  w.PutU32(ship_to);
  w.PutU64(ship_trait_bits);
  w.PutU64(memory_budget_bytes);
  CGQ_RETURN_NOT_OK(w.PutPlan(*root, channel_of_ship));
  return w.Take();
}

Result<StartFragment> StartFragment::Decode(const std::string& payload) {
  Reader r(payload);
  StartFragment start;
  CGQ_ASSIGN_OR_RETURN(start.fragment_id, r.I32());
  CGQ_ASSIGN_OR_RETURN(start.site, r.U32());
  CGQ_ASSIGN_OR_RETURN(start.batch_size, r.U32());
  CGQ_ASSIGN_OR_RETURN(uint8_t has_ship, r.U8());
  start.has_output_ship = has_ship != 0;
  CGQ_ASSIGN_OR_RETURN(start.ship_to, r.U32());
  CGQ_ASSIGN_OR_RETURN(start.ship_trait_bits, r.U64());
  CGQ_ASSIGN_OR_RETURN(start.memory_budget_bytes, r.U64());
  CGQ_ASSIGN_OR_RETURN(start.root, r.ReadPlan(&start.input_channels));
  return start;
}

std::string InputBatch::Encode() const {
  Writer w;
  w.PutI32(channel);
  w.PutBatch(batch);
  return w.Take();
}

Result<InputBatch> InputBatch::Decode(const std::string& payload) {
  Reader r(payload);
  InputBatch in;
  CGQ_ASSIGN_OR_RETURN(in.channel, r.I32());
  CGQ_ASSIGN_OR_RETURN(in.batch, r.ReadBatch());
  return in;
}

std::string InputEnd::Encode() const {
  Writer w;
  w.PutI32(channel);
  return w.Take();
}

Result<InputEnd> InputEnd::Decode(const std::string& payload) {
  Reader r(payload);
  InputEnd end;
  CGQ_ASSIGN_OR_RETURN(end.channel, r.I32());
  return end;
}

std::string OutputBatch::Encode() const {
  Writer w;
  w.PutBatch(batch);
  return w.Take();
}

Result<OutputBatch> OutputBatch::Decode(const std::string& payload) {
  Reader r(payload);
  OutputBatch out;
  CGQ_ASSIGN_OR_RETURN(out.batch, r.ReadBatch());
  return out;
}

std::string OutputEnd::Encode() const {
  Writer w;
  w.PutI64(rows_out);
  w.PutI64(rows_scanned);
  w.PutI64(blocks_read);
  w.PutI64(spill_partitions);
  w.PutI64(spill_bytes);
  return w.Take();
}

Result<OutputEnd> OutputEnd::Decode(const std::string& payload) {
  Reader r(payload);
  OutputEnd end;
  CGQ_ASSIGN_OR_RETURN(end.rows_out, r.I64());
  CGQ_ASSIGN_OR_RETURN(end.rows_scanned, r.I64());
  CGQ_ASSIGN_OR_RETURN(end.blocks_read, r.I64());
  CGQ_ASSIGN_OR_RETURN(end.spill_partitions, r.I64());
  CGQ_ASSIGN_OR_RETURN(end.spill_bytes, r.I64());
  return end;
}

std::string ErrorMsg::Encode() const {
  Writer w;
  w.PutU16(code);
  w.PutString(message);
  return w.Take();
}

Result<ErrorMsg> ErrorMsg::Decode(const std::string& payload) {
  Reader r(payload);
  ErrorMsg err;
  CGQ_ASSIGN_OR_RETURN(err.code, r.U16());
  CGQ_ASSIGN_OR_RETURN(err.message, r.String());
  return err;
}

Status ErrorMsg::ToStatus() const {
  if (code == static_cast<uint16_t>(StatusCode::kOk) ||
      code > static_cast<uint16_t>(StatusCode::kDataLoss)) {
    return Status::Internal("malformed error frame (code " +
                            std::to_string(code) + "): " + message);
  }
  return Status(static_cast<StatusCode>(code), message);
}

ErrorMsg ErrorMsg::FromStatus(const Status& s) {
  ErrorMsg err;
  err.code = static_cast<uint16_t>(s.code());
  err.message = s.message();
  return err;
}

}  // namespace wire
}  // namespace cgq
