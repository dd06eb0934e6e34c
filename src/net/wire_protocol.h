#ifndef CGQ_NET_WIRE_PROTOCOL_H_
#define CGQ_NET_WIRE_PROTOCOL_H_

#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "catalog/location.h"
#include "common/result.h"
#include "exec/batch.h"
#include "exec/vector/column_batch.h"
#include "plan/plan_node.h"

namespace cgq {
namespace wire {

/// The length-prefixed binary wire protocol of the deployment layer
/// (DESIGN.md §13). Every message is one *frame*:
///
///   offset  size  field
///        0     4  magic     0x57514743 ("CGQW" as little-endian bytes)
///        4     2  version   protocol version (kVersion)
///        6     2  type      FrameType
///        8     4  len       payload length in bytes
///       12     8  checksum  Checksum64 over the payload bytes
///       20   len  payload
///
/// All integers are little-endian; doubles travel as their IEEE-754 bit
/// pattern (lossless); strings as u32 length + bytes; batches in the
/// typed column layout of Writer::PutColumns. The encoding is
/// byte-stable across platforms — the golden tests pin exact frames.
/// The coordinator and the location servers ship from one build, so a
/// peer speaks exactly kVersion or is refused at the handshake.
inline constexpr uint32_t kMagic = 0x57514743u;
inline constexpr uint16_t kVersion = 6;
inline constexpr size_t kHeaderSize = 20;
/// Upper bound on one payload; larger frames are rejected as corrupt
/// before any allocation happens (a resource guard against garbage
/// length prefixes).
inline constexpr uint32_t kMaxPayloadBytes = 64u << 20;
/// Deepest ReadExpr/ReadPlan recursion the decoder admits, counting plan
/// operators and expression levels along one path: twice the parser's
/// kMaxExprDepth, so every plan the planner builds from a parsed query
/// decodes (its operators stay shallow, and it wraps an expression in
/// at most a few levels, e.g. SUM(x) -> SUM(x * count)), while a hostile
/// payload is refused before it exhausts the stack.
inline constexpr int kMaxDecodeDepth = 2 * kMaxExprDepth;

/// Message kinds of the coordinator <-> location-server protocol.
enum class FrameType : uint16_t {
  kHello = 1,          ///< client -> server: version handshake
  kHelloAck = 2,       ///< server -> client: version + hosted locations
  kLoadTable = 3,      ///< client -> server: one chunk of a table fragment
  kLoadAck = 4,        ///< server -> client: chunk applied
  kStartFragment = 5,  ///< client -> server: execute a plan fragment
  kStartAck = 6,       ///< server -> client: placement checked, running
  kInputBatch = 7,     ///< client -> server: rows for one input channel
  kInputEnd = 8,       ///< client -> server: input channel exhausted
  kOutputBatch = 9,    ///< server -> client: fragment output rows
  kOutputEnd = 10,     ///< server -> client: fragment done + accounting
  kError = 11,         ///< either way: typed abort
  kCancel = 12,        ///< client -> server: cooperative cancellation
};

const char* FrameTypeToString(FrameType type);

/// FNV-1a over `len` bytes: the checksum of file frames of format
/// versions 1 and 2 (storage/format.h), kept only to verify them.
uint64_t Fnv1a(const uint8_t* data, size_t len);

/// The payload checksum of wire frames and of file frames from format
/// version 3 on. Portable and word-at-a-time: four lanes each take
/// every fourth little-endian 8-byte word through a step that is a
/// bijection of both the lane and the word; the length, the lanes, the
/// leftover words and the zero-padded tail bytes then fold into one
/// value through the same step, and a final avalanche mixes it. Any
/// change confined to one 8-byte word (every single-bit flip) changes
/// the result.
uint64_t Checksum64(const uint8_t* data, size_t len);

/// Decoded frame header. `type` is left as raw u16 so unknown types can
/// be diagnosed (the payload checks reject them).
struct FrameHeader {
  uint16_t version = 0;
  uint16_t type = 0;
  uint32_t payload_len = 0;
  uint64_t checksum = 0;
};

/// One complete frame: header + payload, ready to write to a socket.
std::string EncodeFrame(FrameType type, const std::string& payload);

/// Parses a frame header from exactly kHeaderSize bytes. Rejects bad
/// magic and oversized payloads with kInvalidArgument and a version
/// mismatch with kUnsupported (the handshake refusal).
Result<FrameHeader> DecodeFrameHeader(const uint8_t* data, size_t len);

/// Verifies the payload checksum against the header.
Status VerifyPayload(const FrameHeader& header, const uint8_t* payload);

/// Append-only little-endian encoder for payloads.
class Writer {
 public:
  void PutU8(uint8_t v) { buf_.push_back(static_cast<char>(v)); }
  void PutU16(uint16_t v);
  void PutU32(uint32_t v);
  void PutU64(uint64_t v);
  void PutI32(int32_t v) { PutU32(static_cast<uint32_t>(v)); }
  void PutI64(int64_t v) { PutU64(static_cast<uint64_t>(v)); }
  void PutDouble(double v);
  void PutString(const std::string& s);
  void PutValue(const Value& v);
  /// The batch codec of every stored or shipped batch (blocks, commit-
  /// log records, spill frames, LoadTable and SHIP frames), written
  /// from the batch's selected rows (a filtered batch gathers here):
  ///
  ///   u32 rows, u32 columns, then per column:
  ///     u8 tag    0 int64 (dates too), 1 double, 2 string, 3 value
  ///     u8 flags  bit 0: the column has NULLs (always 0 for value)
  ///     [bit 0]   ceil(rows/64) u64 null words, bit i = row i is NULL
  ///     payload   int64 / double: rows x 8 bytes, NULL slots zero;
  ///               string: rows u32 end offsets, then the bytes;
  ///               value: rows tagged values (PutValue), NULLs inline
  ///
  /// A column whose selected rows are all NULL is written as int64,
  /// which is how FromRows types it; a value column keeps the tagged
  /// form, so decoding infers its tag as FromRows would.
  void PutColumns(const vec::ColumnBatch& batch);
  /// A SHIP batch: u32 attr count, the attrs, then PutColumns.
  void PutBatch(const vec::ColumnBatch& batch);
  void PutExpr(const Expr& e);
  /// A fragment subtree. SHIP leaves are encoded childless, carrying
  /// their channel id (from `channel_of_ship`) and their child's output
  /// columns, so the receiving server can stand up an input source with
  /// the right layout without the producing subtree.
  Status PutPlan(const PlanNode& node,
                 const std::unordered_map<const PlanNode*, int>&
                     channel_of_ship);

  const std::string& buffer() const { return buf_; }
  std::string Take() { return std::move(buf_); }

 private:
  /// Row `i` of `col` as one tagged value, read from the typed column.
  void PutCell(const vec::ColumnVector& col, size_t i);
  /// One column of PutColumns over rows `sel` of `col`.
  void PutColumn(const vec::ColumnVector& col, const vec::SelVec& sel);
  /// Appends `n` zero bytes and returns where they start.
  char* Grow(size_t n);

  std::string buf_;
};

/// Bounds-checked little-endian decoder; every read fails with
/// kInvalidArgument on truncation (never reads past the payload).
class Reader {
 public:
  Reader(const uint8_t* data, size_t len) : data_(data), len_(len) {}
  explicit Reader(const std::string& payload)
      : Reader(reinterpret_cast<const uint8_t*>(payload.data()),
               payload.size()) {}

  Result<uint8_t> U8();
  Result<uint16_t> U16();
  Result<uint32_t> U32();
  Result<uint64_t> U64();
  Result<int32_t> I32();
  Result<int64_t> I64();
  Result<double> Double();
  Result<std::string> String();
  Result<Value> ReadValue();
  /// Inverse of PutColumns: a dense batch with an empty layout whose
  /// columns equal what vec::FromRows builds from the same rows (tags,
  /// null bits, null counts, payloads). Every count is checked against
  /// the bytes left before anything is sized for it; an unknown tag or
  /// flag, a NULL bit past the row count, or a decreasing or past-end
  /// string offset is refused.
  ///
  /// With `keep`, only the columns it marks are materialized, in stored
  /// order; the batch keeps its row count even when none is kept. A
  /// skipped column is still read through and validated exactly as a
  /// kept one (tag, flag, NULL bits, string offsets, tagged values), so
  /// a malformed body is refused whether or not its column is decoded.
  /// A mask whose width differs from the batch's column count is
  /// refused before any column is read.
  Result<vec::ColumnBatch> ReadColumns(const vec::ColumnMask* keep = nullptr);
  /// Inverse of PutBatch; refuses a column count that differs from the
  /// attr count.
  Result<vec::ColumnBatch> ReadBatch();
  /// Refuses nesting past kMaxDecodeDepth (kInvalidArgument), as does
  /// ReadPlan.
  Result<ExprPtr> ReadExpr();
  /// Inverse of Writer::PutPlan. Decoded SHIP leaves have no children;
  /// their channel id is appended to `*input_channels` in encounter
  /// (pre-order) order and also stored in the node's fragment_ordinal.
  Result<PlanNodePtr> ReadPlan(std::vector<int>* input_channels);

  bool AtEnd() const { return pos_ >= len_; }
  size_t remaining() const { return len_ - pos_; }

 private:
  Status Need(size_t n);
  /// Appends one tagged value to `col` (ColumnVector's typed appends);
  /// a null `col` validates and skips the value.
  Status ReadCell(vec::ColumnVector* col);
  /// One column of ReadColumns, `rows` rows long; a null `col` validates
  /// and skips the column without building it.
  Status ReadColumn(uint32_t rows, vec::ColumnVector* col);
  /// Borrows the next `n` bytes (bounds-checked).
  Result<const uint8_t*> Bytes(size_t n);

  const uint8_t* data_;
  size_t len_;
  size_t pos_ = 0;
  int depth_ = 0;  // ReadExpr/ReadPlan recursion
};

// --- Typed payloads -------------------------------------------------------

struct Hello {
  uint16_t version = kVersion;

  std::string Encode() const;
  static Result<Hello> Decode(const std::string& payload);
};

struct HelloAck {
  uint16_t version = kVersion;
  std::vector<LocationId> locations;  ///< locations hosted by the server

  std::string Encode() const;
  static Result<HelloAck> Decode(const std::string& payload);
};

/// One chunk of a table fragment pushed to the hosting server. The first
/// chunk of a fragment sets `replace`; later chunks append. Stored rows
/// carry no attr ids, so the batch travels as PutColumns (positional).
struct LoadTable {
  LocationId location = 0;
  std::string table;
  bool replace = true;
  vec::ColumnBatch batch;

  std::string Encode() const;
  static Result<LoadTable> Decode(const std::string& payload);
};

struct LoadAck {
  int64_t fragment_rows = 0;  ///< rows now stored for the fragment

  std::string Encode() const;
  static Result<LoadAck> Decode(const std::string& payload);
};

/// Everything a location server needs to run one fragment attempt:
/// identity, placement facts for the receiving-end compliance re-check,
/// and the operator subtree (SHIP leaves childless, see Writer::PutPlan).
struct StartFragment {
  int32_t fragment_id = 0;
  LocationId site = 0;
  uint32_t batch_size = 0;
  /// The SHIP this fragment feeds, if any: the server re-checks
  /// ship_to against the shipping trait before acknowledging.
  bool has_output_ship = false;
  LocationId ship_to = 0;
  uint64_t ship_trait_bits = 0;
  /// The query's ExecutorOptions::memory_budget_bytes (0 = unlimited):
  /// hash joins on the server spill under it as they would in-process.
  uint64_t memory_budget_bytes = 0;
  PlanNodePtr root;
  /// Channel ids of the SHIP leaves inside `root`, pre-order.
  std::vector<int> input_channels;

  Result<std::string> Encode(
      const std::unordered_map<const PlanNode*, int>& channel_of_ship)
      const;
  static Result<StartFragment> Decode(const std::string& payload);
};

struct InputBatch {
  int32_t channel = 0;
  vec::ColumnBatch batch;

  std::string Encode() const;
  static Result<InputBatch> Decode(const std::string& payload);
};

struct InputEnd {
  int32_t channel = 0;

  std::string Encode() const;
  static Result<InputEnd> Decode(const std::string& payload);
};

struct OutputBatch {
  vec::ColumnBatch batch;

  std::string Encode() const;
  static Result<OutputBatch> Decode(const std::string& payload);
};

/// End of a fragment's output stream: the fragment's counters on the
/// server, which the coordinator adds to its own record of the fragment.
/// Encoded as five little-endian i64s in field order.
struct OutputEnd : FragmentCounters {
  std::string Encode() const;
  static Result<OutputEnd> Decode(const std::string& payload);
};

/// A typed Status on the wire.
struct ErrorMsg {
  uint16_t code = 0;  ///< StatusCode
  std::string message;

  std::string Encode() const;
  static Result<ErrorMsg> Decode(const std::string& payload);
  /// The transported status (kInternal for out-of-range codes).
  Status ToStatus() const;
  static ErrorMsg FromStatus(const Status& s);
};

}  // namespace wire
}  // namespace cgq

#endif  // CGQ_NET_WIRE_PROTOCOL_H_
