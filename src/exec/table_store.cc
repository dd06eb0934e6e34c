#include "exec/table_store.h"

#include <algorithm>
#include <utility>

#include "common/str_util.h"
#include "common/trace.h"

namespace cgq {

TableStore::TableStore(const TableStore& other) {
  std::lock_guard<std::mutex> lock(other.mu_);
  if (other.engine_ != nullptr) {
    // A StorageEngine owns its directory exclusively, so a copy
    // materializes the disk contents into a memory-mode store.
    for (const auto& frag : other.engine_->ListFragments()) {
      std::vector<Row> rows;
      if (other.engine_->ReadAll(frag.location, frag.table, &rows).ok()) {
        fragments_[Key(frag.location, frag.table)] = std::move(rows);
      }
    }
  } else {
    fragments_ = other.fragments_;
  }
}

TableStore::TableStore(TableStore&& other) noexcept {
  std::lock_guard<std::mutex> lock(other.mu_);
  fragments_ = std::move(other.fragments_);
  engine_ = std::move(other.engine_);
}

TableStore& TableStore::operator=(const TableStore& other) {
  if (this != &other) {
    std::scoped_lock lock(mu_, other.mu_);
    fragments_.clear();
    engine_.reset();
    if (other.engine_ != nullptr) {
      for (const auto& frag : other.engine_->ListFragments()) {
        std::vector<Row> rows;
        if (other.engine_->ReadAll(frag.location, frag.table, &rows).ok()) {
          fragments_[Key(frag.location, frag.table)] = std::move(rows);
        }
      }
    } else {
      fragments_ = other.fragments_;
    }
    columnar_.clear();
  }
  return *this;
}

TableStore& TableStore::operator=(TableStore&& other) noexcept {
  if (this != &other) {
    std::scoped_lock lock(mu_, other.mu_);
    fragments_ = std::move(other.fragments_);
    engine_ = std::move(other.engine_);
    columnar_.clear();
  }
  return *this;
}

Status TableStore::EnableDiskStorage(const std::string& dir,
                                     storage::StorageOptions options) {
  std::lock_guard<std::mutex> lock(mu_);
  if (engine_ != nullptr) {
    if (engine_->dir() == dir) return Status::OK();
    return Status::InvalidArgument("disk storage already enabled at '" +
                                   engine_->dir() + "'");
  }
  auto engine = std::make_unique<storage::StorageEngine>();
  CGQ_RETURN_NOT_OK(engine->Open(dir, options));
  CGQ_COUNTER_ADD("storage.recovery_replays", engine->recovery_replays());
  // Migrate what RAM holds; fragments recovered from disk that RAM does
  // not shadow stay as recovered.
  for (const auto& [key, rows] : fragments_) {
    const size_t slash = key.find('/');
    const LocationId location =
        static_cast<LocationId>(std::stoul(key.substr(0, slash)));
    CGQ_RETURN_NOT_OK(engine->Put(location, key.substr(slash + 1), rows));
  }
  CGQ_RETURN_NOT_OK(engine->Checkpoint());
  engine_ = std::move(engine);
  fragments_.clear();
  columnar_.clear();
  return Status::OK();
}

Status TableStore::DisableDiskStorage() {
  std::lock_guard<std::mutex> lock(mu_);
  if (engine_ == nullptr) return Status::OK();
  CGQ_RETURN_NOT_OK(engine_->Checkpoint());
  std::unordered_map<std::string, std::vector<Row>> restored;
  for (const auto& frag : engine_->ListFragments()) {
    std::vector<Row> rows;
    CGQ_RETURN_NOT_OK(engine_->ReadAll(frag.location, frag.table, &rows));
    restored[Key(frag.location, frag.table)] = std::move(rows);
  }
  fragments_ = std::move(restored);
  engine_.reset();
  columnar_.clear();
  return Status::OK();
}

StorageMode TableStore::storage_mode() const {
  std::lock_guard<std::mutex> lock(mu_);
  return engine_ == nullptr ? StorageMode::kMemory : StorageMode::kDisk;
}

std::string TableStore::data_dir() const {
  std::lock_guard<std::mutex> lock(mu_);
  return engine_ == nullptr ? std::string() : engine_->dir();
}

Status TableStore::PutLocked(LocationId location, std::string table,
                             std::vector<Row> rows) {
  std::string key = Key(location, table);
  if (engine_ != nullptr) {
    const int64_t before = engine_->blocks_written();
    CGQ_RETURN_NOT_OK(engine_->Put(location, table, rows));
    CGQ_COUNTER_ADD("storage.blocks_written",
                    engine_->blocks_written() - before);
  } else {
    fragments_[key] = std::move(rows);
  }
  columnar_.erase(key);
  return Status::OK();
}

Status TableStore::Put(LocationId location, const std::string& table,
                       std::vector<Row> rows) {
  std::lock_guard<std::mutex> lock(mu_);
  return PutLocked(location, ToLower(table), std::move(rows));
}

Status TableStore::Append(LocationId location, const std::string& table,
                          Row row) {
  std::vector<Row> rows;
  rows.push_back(std::move(row));
  return AppendRows(location, table, std::move(rows));
}

Status TableStore::AppendRows(LocationId location, const std::string& table,
                              std::vector<Row> rows) {
  std::lock_guard<std::mutex> lock(mu_);
  std::string lowered = ToLower(table);
  std::string key = Key(location, lowered);
  if (engine_ != nullptr) {
    const int64_t before = engine_->blocks_written();
    CGQ_RETURN_NOT_OK(engine_->Append(location, lowered, rows));
    CGQ_COUNTER_ADD("storage.blocks_written",
                    engine_->blocks_written() - before);
  } else {
    std::vector<Row>& frag = fragments_[key];
    for (Row& row : rows) frag.push_back(std::move(row));
  }
  columnar_.erase(key);
  return Status::OK();
}

Result<const std::vector<Row>*> TableStore::Get(
    LocationId location, const std::string& table) const {
  std::lock_guard<std::mutex> lock(mu_);
  if (engine_ != nullptr) {
    return Status::Unsupported(
        "TableStore::Get pins rows in RAM and requires StorageMode::kMemory; "
        "stream disk-backed fragments with Scan()");
  }
  auto it = fragments_.find(Key(location, ToLower(table)));
  if (it == fragments_.end()) {
    return Status::NotFound("no fragment of table '" + table +
                            "' at location " + std::to_string(location));
  }
  return &it->second;
}

Result<size_t> TableStore::FragmentRows(LocationId location,
                                        const std::string& table) const {
  std::lock_guard<std::mutex> lock(mu_);
  std::string lowered = ToLower(table);
  if (engine_ != nullptr) return engine_->FragmentRows(location, lowered);
  auto it = fragments_.find(Key(location, lowered));
  if (it == fragments_.end()) {
    return Status::NotFound("no fragment of table '" + table +
                            "' at location " + std::to_string(location));
  }
  return it->second.size();
}

Result<TableStore::Cursor> TableStore::Scan(
    LocationId location, const std::string& table,
    const vec::ColumnMask* keep) const {
  std::lock_guard<std::mutex> lock(mu_);
  std::string lowered = ToLower(table);
  Cursor cursor;
  if (engine_ != nullptr) {
    CGQ_ASSIGN_OR_RETURN(cursor.disk_, engine_->Scan(location, lowered, keep));
    CGQ_ASSIGN_OR_RETURN(cursor.total_rows_,
                         engine_->FragmentRows(location, lowered));
    return cursor;
  }
  std::string key = Key(location, lowered);
  auto it = fragments_.find(key);
  if (it == fragments_.end()) {
    return Status::NotFound("no fragment of table '" + table +
                            "' at location " + std::to_string(location));
  }
  std::shared_ptr<const ColumnRuns>& runs = columnar_[key];
  if (runs == nullptr) {
    auto built = std::make_shared<ColumnRuns>();
    for (size_t pos = 0; pos < it->second.size();) {
      built->push_back(vec::NextWidthRun(it->second, &pos));
    }
    runs = std::move(built);
  }
  cursor.runs_ = runs;  // shared and immutable: valid past the lock
  cursor.total_rows_ = it->second.size();
  if (keep != nullptr) cursor.keep_ = *keep;
  return cursor;
}

Result<bool> TableStore::Cursor::Next(std::vector<Row>* out) {
  out->clear();
  vec::ColumnBatch batch;
  CGQ_ASSIGN_OR_RETURN(bool more, Next(&batch));
  if (more) *out = vec::ToRowBatch(batch).rows;
  return more;
}

Result<bool> TableStore::Cursor::Next(vec::ColumnBatch* out) {
  if (runs_ == nullptr) return disk_.Next(out);
  if (next_run_ == runs_->size()) return false;
  *out = (*runs_)[next_run_++];
  if (keep_) CGQ_RETURN_NOT_OK(vec::KeepColumns(*keep_, out));
  return true;
}

int64_t TableStore::Cursor::blocks_read() const { return disk_.blocks_read(); }

std::vector<TableStore::FragmentRef> TableStore::ListFragments() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<FragmentRef> out;
  if (engine_ != nullptr) {
    for (const auto& frag : engine_->ListFragments()) {
      out.push_back(FragmentRef{frag.location, frag.table, frag.rows});
    }
    return out;  // engine enumeration is already (location, table) sorted
  }
  out.reserve(fragments_.size());
  for (const auto& [key, rows] : fragments_) {
    const size_t slash = key.find('/');
    FragmentRef ref;
    ref.location =
        static_cast<LocationId>(std::stoul(key.substr(0, slash)));
    ref.table = key.substr(slash + 1);
    ref.row_count = rows.size();
    out.push_back(std::move(ref));
  }
  std::sort(out.begin(), out.end(),
            [](const FragmentRef& a, const FragmentRef& b) {
              return a.location != b.location ? a.location < b.location
                                              : a.table < b.table;
            });
  return out;
}

size_t TableStore::TotalRows() const {
  std::lock_guard<std::mutex> lock(mu_);
  if (engine_ != nullptr) return engine_->TotalRows();
  size_t n = 0;
  for (const auto& [k, rows] : fragments_) n += rows.size();
  return n;
}

}  // namespace cgq
