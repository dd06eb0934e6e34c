#ifndef CGQ_EXEC_TABLE_STORE_H_
#define CGQ_EXEC_TABLE_STORE_H_

#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "catalog/location.h"
#include "common/result.h"
#include "exec/vector/column_batch.h"
#include "storage/storage_engine.h"
#include "types/value.h"

namespace cgq {

/// Where a TableStore keeps its fragments. kMemory is the default and
/// the byte-identical reference; kDisk routes every fragment through the
/// per-location storage engine (src/storage/) so data survives restarts
/// and scans stream block-by-block instead of pinning tables in RAM.
enum class StorageMode {
  kMemory,
  kDisk,
};

/// In-process stand-in for the geo-distributed databases: each location
/// holds the rows of its table fragments (rows are in base-schema column
/// order). The executor's Scan operators read from here; SHIP operators
/// model the transfer between locations.
///
/// Thread safety: all members are safe against concurrent Put/Append/
/// readers (one internal mutex). `Get` returns a pointer into the store,
/// so its *referent* is only stable while no concurrent mutation runs —
/// the executor upholds that (loads never overlap queries on the same
/// fragment). Cursors snapshot at Scan() time and stay valid regardless.
class TableStore {
 public:
  TableStore() = default;
  // Copies transfer the fragments but not the columnar cache (it
  // regenerates on demand) and materialize disk-backed stores back into
  // a memory-mode copy: a StorageEngine owns its directory exclusively.
  // Both sides' mutexes are held, so copying from a store under
  // concurrent mutation is well-defined.
  TableStore(const TableStore& other);
  TableStore(TableStore&& other) noexcept;
  TableStore& operator=(const TableStore& other);
  TableStore& operator=(TableStore&& other) noexcept;

  /// Switches to StorageMode::kDisk backed by `dir`: recovers whatever a
  /// previous engine persisted there (manifest + commit-log replay),
  /// then migrates any fragments currently in RAM onto disk (same-name
  /// fragments are replaced by the RAM content). On error the store
  /// stays in memory mode, untouched.
  Status EnableDiskStorage(const std::string& dir,
                           storage::StorageOptions options = {});

  /// Reads every fragment back into RAM and returns to kMemory mode.
  /// The on-disk state is checkpointed first and left behind intact.
  Status DisableDiskStorage();

  StorageMode storage_mode() const;
  /// The storage directory; empty in memory mode.
  std::string data_dir() const;

  /// Registers the rows of `table`'s fragment at `location` (replaces any
  /// previous content). In disk mode the rows are logged + flushed before
  /// OK is returned (durable against SIGKILL).
  Status Put(LocationId location, const std::string& table,
             std::vector<Row> rows);

  /// Appends one row to a fragment (durable in disk mode, like Put).
  Status Append(LocationId location, const std::string& table, Row row);

  /// Appends many rows in one durable commit-log record (the bulk-load
  /// path; equivalent to appending each row, but one fsync-equivalent
  /// instead of N).
  Status AppendRows(LocationId location, const std::string& table,
                    std::vector<Row> rows);

  /// Rows of the fragment; error when no fragment was loaded there.
  /// Memory mode only — disk-backed fragments are not pinned in RAM, so
  /// callers stream them with Scan() instead.
  Result<const std::vector<Row>*> Get(LocationId location,
                                      const std::string& table) const;

  /// Row count of the fragment (both modes; no materialization).
  Result<size_t> FragmentRows(LocationId location,
                              const std::string& table) const;

  /// Streaming reader over one fragment, usable in both modes. Memory
  /// mode yields the fragment's cached same-width column runs (shared,
  /// not copied); disk mode yields one checksummed block per Next() and
  /// counts them.
  class Cursor {
   public:
    /// Fills *out (cleared first) with the next chunk as rows; false
    /// when the fragment is exhausted. Disk corruption is typed
    /// kDataLoss.
    Result<bool> Next(std::vector<Row>* out);
    /// The columnar form: the next chunk as a positional batch (empty
    /// layout) of one row width. A ragged fragment yields one batch per
    /// same-width run; a chunk whose width differs from the cursor's
    /// column mask is kInvalidArgument.
    Result<bool> Next(vec::ColumnBatch* out);
    /// Data blocks read so far (0 in memory mode).
    int64_t blocks_read() const;
    /// Total rows this cursor will yield.
    size_t total_rows() const { return total_rows_; }

   private:
    friend class TableStore;
    /// Memory mode: the fragment's column runs; null in disk mode.
    std::shared_ptr<const std::vector<vec::ColumnBatch>> runs_;
    size_t next_run_ = 0;
    std::optional<vec::ColumnMask> keep_;
    storage::StorageEngine::Cursor disk_;
    size_t total_rows_ = 0;
  };
  /// `keep` (one entry per stored column) makes the cursor yield only
  /// the marked columns, in stored order. Snapshot semantics in both
  /// modes: mutations after Scan() are not observed.
  Result<Cursor> Scan(LocationId location, const std::string& table,
                      const vec::ColumnMask* keep = nullptr) const;

  size_t TotalRows() const;

  /// One stored table fragment, for enumeration (deployment pushes every
  /// fragment to the server hosting its location; rows stream via Scan).
  struct FragmentRef {
    LocationId location = 0;
    std::string table;
    size_t row_count = 0;
  };

  /// All stored fragments, sorted by (location, table) so deployment
  /// order is deterministic.
  std::vector<FragmentRef> ListFragments() const;

 private:
  /// A memory fragment in columnar form: its rows cut into same-width
  /// runs (vec::NextWidthRun), immutable and shared by every cursor.
  using ColumnRuns = std::vector<vec::ColumnBatch>;

  static std::string Key(LocationId location, const std::string& table) {
    return std::to_string(location) + "/" + table;
  }
  Status PutLocked(LocationId location, std::string table,
                   std::vector<Row> rows);

  /// Guards every member, the mode included.
  mutable std::mutex mu_;
  std::unordered_map<std::string, std::vector<Row>> fragments_;
  std::unique_ptr<storage::StorageEngine> engine_;
  /// Memory mode: column runs built on a fragment's first Scan, dropped
  /// when the fragment is replaced or appended to.
  mutable std::unordered_map<std::string, std::shared_ptr<const ColumnRuns>>
      columnar_;
};

}  // namespace cgq

#endif  // CGQ_EXEC_TABLE_STORE_H_
