#ifndef CGQ_STORAGE_WAL_H_
#define CGQ_STORAGE_WAL_H_

#include <cstdint>
#include <cstdio>
#include <functional>
#include <string>
#include <vector>

#include "catalog/location.h"
#include "common/result.h"
#include "exec/vector/column_batch.h"

namespace cgq {
namespace storage {

/// Write-ahead commit log (`wal-<v>.log`): a sequence of file frames
/// with kWalMagic, one per mutation, appended and flushed before the
/// mutation is acknowledged. The frame `type` field is the record type;
/// the payload is
///
///   u32 location, string table, one batch (wire::Writer::PutColumns)
///
/// so a record's rows share one width: the engine starts a new record
/// wherever the row width changes. Version-2 records hold the batch as
/// tagged values and still replay (a log may mix versions 2 and 3
/// after an upgrade). Records of format version 1 held rows instead and
/// are refused at replay (kUnsupported, naming the file); they are never
/// misparsed.
///
/// Recovery replays records after the manifest: kPut replaces the
/// fragment's unflushed tail (and drops its manifest blocks), kAppend
/// extends it. A record cut short at end-of-file is a *torn tail* —
/// the write it logged was never acknowledged — so replay stops there
/// cleanly and truncates it; corruption anywhere else (bad magic, bad
/// checksum on a complete record) is typed kDataLoss.
enum class WalRecordType : uint16_t {
  kPut = 1,     ///< replace the fragment with these rows
  kAppend = 2,  ///< append these rows to the fragment
};

struct WalRecord {
  WalRecordType type = WalRecordType::kPut;
  LocationId location = 0;
  std::string table;
  vec::ColumnBatch batch;  ///< positional (empty layout)
};

/// Encodes one record as a complete file frame. kInvalidArgument when
/// the payload would exceed kMaxFrameBytes (LogAndApply chunks records
/// by rows *and* bytes, so only a single enormous row can hit this).
Result<std::string> EncodeWalRecord(const WalRecord& rec);

/// Appender over one log file. Every Append is flushed to the OS before
/// returning, so a SIGKILL after an acknowledged mutation never loses
/// it. Carries the `storage.commit` failpoint: when armed and fired, a
/// torn prefix of the record is written (simulating a crash mid-commit)
/// and the append fails kUnavailable — the writer is then *wounded* and
/// refuses further appends until reopened, exactly like a crashed
/// process.
class WalWriter {
 public:
  WalWriter() = default;
  ~WalWriter() { Close(); }
  WalWriter(const WalWriter&) = delete;
  WalWriter& operator=(const WalWriter&) = delete;

  /// Opens `path` for appending (created if absent).
  Status Open(const std::string& path);
  Status Append(const WalRecord& rec);
  void Close();

  bool is_open() const { return file_ != nullptr; }
  /// Bytes appended through this writer (drives checkpoint scheduling).
  size_t bytes_written() const { return bytes_written_; }

 private:
  FILE* file_ = nullptr;
  std::string path_;
  size_t bytes_written_ = 0;
  bool wounded_ = false;
};

/// Replays every complete record of `path` through `fn`, in order.
/// A torn tail stops replay and truncates the file to the last complete
/// record so later appends never follow garbage; a missing file replays
/// zero records. Returns the number of records replayed.
Result<size_t> ReplayWal(const std::string& path,
                         const std::function<Status(WalRecord)>& fn);

}  // namespace storage
}  // namespace cgq

#endif  // CGQ_STORAGE_WAL_H_
