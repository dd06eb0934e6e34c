#ifndef CGQ_STORAGE_STORAGE_ENGINE_H_
#define CGQ_STORAGE_STORAGE_ENGINE_H_

#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "catalog/location.h"
#include "common/result.h"
#include "storage/manifest.h"
#include "storage/wal.h"
#include "types/value.h"

namespace cgq {
namespace storage {

/// Knobs of the per-location store. The defaults suit production; tests
/// shrink them to force many blocks and frequent checkpoints.
struct StorageOptions {
  /// Target size of one data block; a fragment's unflushed tail is cut
  /// into blocks of roughly this many payload bytes.
  size_t block_target_bytes = 256 * 1024;
  /// Commit-log bytes that trigger an automatic checkpoint (tail flush +
  /// new manifest + log switch). 0 disables automatic checkpoints.
  size_t wal_checkpoint_bytes = 8 * 1024 * 1024;
};

/// Per-location, per-table on-disk columnar-block store (DESIGN.md §16):
/// append-only checksummed blocks + a write-ahead commit log + a
/// versioned manifest. One StorageEngine owns one directory:
///
///   CURRENT        -> "MANIFEST-<v>"   (tmp+rename, always valid)
///   MANIFEST-<v>   live block set + paired commit-log version
///   wal-<w>.log    mutations since MANIFEST-<v>
///   b<id>.blk      immutable data blocks
///
/// Every Put/Append is logged and flushed before it returns, so a
/// SIGKILL never loses an acknowledged mutation: recovery loads the
/// manifest, replays log-after-manifest, truncates a torn log tail
/// cleanly, and types real corruption (checksum mismatch, missing
/// manifest over live data) as kDataLoss — never silent wrong rows.
///
/// Thread safety: none here. TableStore serializes access under its own
/// mutex; Cursors snapshot the block list + tail at Scan() time and read
/// immutable block files afterwards, so they may outlive the lock.
class StorageEngine {
 public:
  StorageEngine() = default;
  StorageEngine(const StorageEngine&) = delete;
  StorageEngine& operator=(const StorageEngine&) = delete;

  /// Opens (empty or missing dir) or recovers (existing dir) the store.
  Status Open(const std::string& dir, StorageOptions options = {});

  /// Replaces the fragment's rows. Durable (logged + flushed) on OK.
  Status Put(LocationId location, const std::string& table,
             const std::vector<Row>& rows);
  /// Appends rows to the fragment. Durable (logged + flushed) on OK.
  Status Append(LocationId location, const std::string& table,
                const std::vector<Row>& rows);

  /// Flushes every unflushed tail to blocks, writes the next manifest,
  /// switches to a fresh commit log and collects dead files. Failure
  /// leaves the previous manifest + log authoritative (recoverable).
  Status Checkpoint();

  struct FragmentInfo {
    LocationId location = 0;
    std::string table;
    size_t rows = 0;
  };
  /// Live fragments sorted by (location, table).
  std::vector<FragmentInfo> ListFragments() const;
  bool Contains(LocationId location, const std::string& table) const;
  Result<size_t> FragmentRows(LocationId location,
                              const std::string& table) const;
  size_t TotalRows() const;

  /// Streaming reader over one fragment: one Next() call yields one
  /// block, decoded straight into columns, or one same-width run of the
  /// unflushed tail, as a positional batch (empty layout). Snapshot
  /// semantics: mutations after Scan() are not observed.
  ///
  /// A cursor scanned with a column mask yields only the marked columns:
  /// blocks skip the others while still verifying and validating them
  /// (DecodeBlockFile), tail runs are narrowed after conversion.
  class Cursor {
   public:
    /// Sets *out to the next batch (never empty). False when the
    /// fragment is exhausted. Block corruption is typed kDataLoss; a
    /// block or tail run whose width differs from the column mask is
    /// kInvalidArgument.
    Result<bool> Next(vec::ColumnBatch* out);
    int64_t blocks_read() const { return blocks_read_; }

   private:
    friend class StorageEngine;
    std::string dir_;
    std::vector<ManifestBlock> blocks_;
    std::vector<Row> tail_;
    std::optional<vec::ColumnMask> keep_;  ///< unset: every column
    size_t next_block_ = 0;
    size_t tail_pos_ = 0;
    int64_t blocks_read_ = 0;
  };
  /// `keep` (one entry per stored column), when given, is the cursor's
  /// column mask.
  Result<Cursor> Scan(LocationId location, const std::string& table,
                      const vec::ColumnMask* keep = nullptr) const;

  /// Reads a whole fragment into *out (the disk -> RAM migration path).
  Status ReadAll(LocationId location, const std::string& table,
                 std::vector<Row>* out) const;

  const std::string& dir() const { return dir_; }
  bool is_open() const { return wal_ != nullptr; }
  /// Data blocks written since Open (flushes + checkpoints).
  int64_t blocks_written() const { return blocks_written_; }
  /// Commit-log records replayed by the last Open (0 = clean start).
  int64_t recovery_replays() const { return recovery_replays_; }

 private:
  struct FragmentState {
    std::vector<ManifestBlock> blocks;
    std::vector<Row> tail;  ///< logged rows not yet flushed to a block
    size_t tail_bytes = 0;
  };
  using FragmentKey = std::pair<LocationId, std::string>;

  std::string PathOf(const std::string& name) const;
  /// Applies one logged record's rows to the in-memory state.
  void ApplyRows(WalRecordType type, const FragmentKey& key,
                 std::vector<Row> rows);
  /// Logs one mutation (chunked) and applies it to the in-memory state
  /// chunk-by-chunk, exactly mirroring what replay would reconstruct.
  Status LogAndApply(WalRecordType type, LocationId location,
                     const std::string& table, const std::vector<Row>& rows);
  Status FlushTail(FragmentState* frag);
  Status MaybeCheckpoint();
  /// Deletes on-disk files not referenced by `manifest` (interrupted
  /// checkpoints leave orphans behind; recovery sweeps them).
  void CollectOrphans(const Manifest& manifest);

  std::string dir_;
  StorageOptions options_;
  std::map<FragmentKey, FragmentState> fragments_;
  uint64_t manifest_version_ = 0;
  uint64_t wal_version_ = 0;
  uint64_t next_block_id_ = 1;
  std::unique_ptr<WalWriter> wal_;
  /// Blocks dropped by Put but still named by the current manifest;
  /// deletable only after the next manifest lands.
  std::vector<uint64_t> gc_blocks_;
  int64_t blocks_written_ = 0;
  int64_t recovery_replays_ = 0;
};

}  // namespace storage
}  // namespace cgq

#endif  // CGQ_STORAGE_STORAGE_ENGINE_H_
