#include "storage/storage_engine.h"

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <set>

#include "common/failpoint.h"
#include "common/trace.h"
#include "storage/block.h"
#include "storage/format.h"

namespace cgq {
namespace storage {

namespace {

namespace fs = std::filesystem;

/// Bounds on one commit-log record, so huge Puts stream in frames
/// instead of one giant allocation at replay. The byte bound keeps every
/// multi-row record far under kMaxFrameBytes, so an acknowledged record
/// can always be re-read (only a single over-limit row can fail, and it
/// fails loudly at encode time, before the ack). A record also ends
/// where the row width changes: it holds one batch.
constexpr size_t kWalChunkRows = 8192;
constexpr size_t kWalChunkBytes = 64 * 1024 * 1024;

size_t RowBytes(const Row& row) {
  size_t bytes = sizeof(Row);
  for (const Value& v : row) bytes += v.ByteSize();
  return bytes;
}

Result<std::string> ReadCurrent(const std::string& path) {
  CGQ_ASSIGN_OR_RETURN(std::string bytes, ReadFile(path));
  while (!bytes.empty() && (bytes.back() == '\n' || bytes.back() == '\r')) {
    bytes.pop_back();
  }
  if (bytes.empty() || bytes.rfind("MANIFEST-", 0) != 0) {
    return Status::DataLoss(path + ": CURRENT names no manifest");
  }
  return bytes;
}

}  // namespace

std::string StorageEngine::PathOf(const std::string& name) const {
  return dir_ + "/" + name;
}

Status StorageEngine::Open(const std::string& dir, StorageOptions options) {
  if (is_open()) return Status::Internal("StorageEngine::Open called twice");
  dir_ = dir;
  options_ = options;
  fragments_.clear();
  gc_blocks_.clear();
  recovery_replays_ = 0;

  std::error_code ec;
  fs::create_directories(dir_, ec);
  if (ec) {
    return Status::Unavailable(dir_ + ": create failed: " + ec.message());
  }

  const std::string current_path = PathOf("CURRENT");
  auto current_or = ReadCurrent(current_path);
  if (current_or.status().IsNotFound()) {
    // No CURRENT pointer. Real state (a data block, a non-empty commit
    // log, a manifest naming fragments) without its root pointer is data
    // loss — refuse to guess. But a crash during a *fresh* init can only
    // leave benign leftovers (an empty commit log, a manifest naming no
    // fragments); those are swept and the init restarted rather than
    // bricking an empty store.
    std::vector<fs::path> leftovers;
    for (const auto& entry : fs::directory_iterator(dir_, ec)) {
      const std::string name = entry.path().filename().string();
      const bool is_manifest = name.rfind("MANIFEST-", 0) == 0;
      const bool is_wal = name.rfind("wal-", 0) == 0;
      const bool is_block =
          name.size() > 4 && name.compare(name.size() - 4, 4, ".blk") == 0;
      if (!is_manifest && !is_wal && !is_block) continue;
      bool benign = false;
      if (is_wal) {
        std::error_code size_ec;
        benign = fs::file_size(entry.path(), size_ec) == 0 && !size_ec;
      } else if (is_manifest) {
        auto bytes = ReadFile(entry.path().string());
        if (bytes.ok()) {
          auto decoded = Manifest::Decode(*bytes, entry.path().string());
          benign = decoded.ok() && decoded->fragments.empty();
        }
      }
      if (!benign) {
        return Status::DataLoss(dir_ +
                                ": CURRENT missing but storage files exist "
                                "(first: " +
                                name + ")");
      }
      leftovers.push_back(entry.path());
    }
    for (const fs::path& leftover : leftovers) fs::remove(leftover, ec);
    manifest_version_ = 1;
    wal_version_ = 1;
    next_block_id_ = 1;
    Manifest fresh;
    fresh.version = manifest_version_;
    fresh.wal_version = wal_version_;
    fresh.next_block_id = next_block_id_;
    // Manifest, then CURRENT, then the commit log: a kill after CURRENT
    // lands recovers through the normal path (a missing log replays as
    // empty); a kill before it finds only the benign leftovers above.
    CGQ_ASSIGN_OR_RETURN(std::string fresh_bytes, fresh.Encode());
    CGQ_RETURN_NOT_OK(WriteFileAtomic(PathOf(ManifestFileName(fresh.version)),
                                      fresh_bytes));
    CGQ_RETURN_NOT_OK(WriteFileAtomic(
        current_path, ManifestFileName(manifest_version_) + "\n"));
    auto wal = std::make_unique<WalWriter>();
    CGQ_RETURN_NOT_OK(wal->Open(PathOf(WalFileName(wal_version_))));
    wal_ = std::move(wal);
    return Status::OK();
  }
  CGQ_ASSIGN_OR_RETURN(std::string current, std::move(current_or));

  CGQ_ASSIGN_OR_RETURN(std::string manifest_bytes,
                       [&]() -> Result<std::string> {
                         auto bytes = ReadFile(PathOf(current));
                         if (bytes.status().IsNotFound()) {
                           return Status::DataLoss(
                               dir_ + ": CURRENT names missing " + current);
                         }
                         return bytes;
                       }());
  CGQ_ASSIGN_OR_RETURN(Manifest manifest,
                       Manifest::Decode(manifest_bytes, PathOf(current)));
  manifest_version_ = manifest.version;
  wal_version_ = manifest.wal_version;
  next_block_id_ = manifest.next_block_id;
  for (const ManifestFragment& frag : manifest.fragments) {
    FragmentState& state = fragments_[{frag.location, frag.table}];
    state.blocks = frag.blocks;
  }

  // Replay acknowledged mutations since the manifest; a torn tail (the
  // in-flight write of the crash) is truncated, anything else corrupt is
  // typed kDataLoss before a single wrong row can be served.
  CGQ_ASSIGN_OR_RETURN(
      size_t replayed,
      ReplayWal(PathOf(WalFileName(wal_version_)), [this](WalRecord rec) {
        ApplyRows(rec.type, {rec.location, rec.table},
                  vec::ToRowBatch(rec.batch).rows);
        return Status::OK();
      }));
  recovery_replays_ = static_cast<int64_t>(replayed);

  CollectOrphans(manifest);

  auto wal = std::make_unique<WalWriter>();
  CGQ_RETURN_NOT_OK(wal->Open(PathOf(WalFileName(wal_version_))));
  wal_ = std::move(wal);
  return Status::OK();
}

void StorageEngine::CollectOrphans(const Manifest& manifest) {
  std::set<std::string> live;
  live.insert("CURRENT");
  live.insert(ManifestFileName(manifest.version));
  live.insert(WalFileName(manifest.wal_version));
  for (const ManifestFragment& frag : manifest.fragments) {
    for (const ManifestBlock& block : frag.blocks) {
      live.insert(BlockFileName(block.id));
    }
  }
  std::error_code ec;
  for (const auto& entry : fs::directory_iterator(dir_, ec)) {
    const std::string name = entry.path().filename().string();
    const bool storage_file =
        name.rfind("MANIFEST-", 0) == 0 || name.rfind("wal-", 0) == 0 ||
        (name.size() > 4 && name.compare(name.size() - 4, 4, ".blk") == 0) ||
        name.rfind("CURRENT.tmp", 0) == 0 ||
        (name.size() > 4 && name.compare(name.size() - 4, 4, ".tmp") == 0);
    if (storage_file && live.count(name) == 0) {
      fs::remove(entry.path(), ec);
    }
  }
}

void StorageEngine::ApplyRows(WalRecordType type, const FragmentKey& key,
                              std::vector<Row> rows) {
  FragmentState& frag = fragments_[key];
  if (type == WalRecordType::kPut) {
    for (const ManifestBlock& block : frag.blocks) {
      gc_blocks_.push_back(block.id);
    }
    frag.blocks.clear();
    frag.tail.clear();
    frag.tail_bytes = 0;
  }
  for (Row& row : rows) {
    frag.tail_bytes += RowBytes(row);
    frag.tail.push_back(std::move(row));
  }
}

Status StorageEngine::LogAndApply(WalRecordType type, LocationId location,
                                  const std::string& table,
                                  const std::vector<Row>& rows) {
  if (!is_open()) return Status::Internal("storage engine not open");
  // Chunked: each record is logged, then applied, so the in-memory state
  // always equals what replaying the log so far would rebuild — a failed
  // chunk leaves the acknowledged prefix applied, same as a crash there.
  size_t offset = 0;
  bool first = true;
  do {
    const size_t width = offset < rows.size() ? rows[offset].size() : 0;
    size_t n = 0;
    size_t chunk_bytes = 0;
    while (offset + n < rows.size() && n < kWalChunkRows &&
           chunk_bytes < kWalChunkBytes && rows[offset + n].size() == width) {
      chunk_bytes += RowBytes(rows[offset + n]);
      ++n;
    }
    WalRecord rec;
    rec.type = first ? type : WalRecordType::kAppend;
    rec.location = location;
    rec.table = table;
    rec.batch = vec::FromRows(rows.data() + offset, n, width);
    CGQ_RETURN_NOT_OK(wal_->Append(rec));
    ApplyRows(rec.type, {location, table}, vec::ToRowBatch(rec.batch).rows);
    offset += n;
    first = false;
  } while (offset < rows.size());

  // The mutation is durable (and applied) once its records are in the
  // commit log; a failing size-triggered flush or checkpoint must not
  // retract that acknowledgment — recovery would replay the record and
  // "resurrect" an op the caller was told failed. A failed flush leaves
  // the rows in the tail (still log-covered) and a failed checkpoint
  // leaves the old manifest + log authoritative, so the engine just
  // retries both at the next trigger.
  FragmentState& frag = fragments_[{location, table}];
  if (frag.tail_bytes >= options_.block_target_bytes) {
    Status flushed = FlushTail(&frag);
    if (!flushed.ok()) CGQ_COUNTER_ADD("storage.checkpoint_failures", 1);
  }
  Status compacted = MaybeCheckpoint();
  if (!compacted.ok()) CGQ_COUNTER_ADD("storage.checkpoint_failures", 1);
  return Status::OK();
}

Status StorageEngine::Put(LocationId location, const std::string& table,
                          const std::vector<Row>& rows) {
  return LogAndApply(WalRecordType::kPut, location, table, rows);
}

Status StorageEngine::Append(LocationId location, const std::string& table,
                             const std::vector<Row>& rows) {
  if (rows.empty()) return Status::OK();
  return LogAndApply(WalRecordType::kAppend, location, table, rows);
}

Status StorageEngine::FlushTail(FragmentState* frag) {
  // Cut the tail into blocks of ~block_target_bytes and one row width,
  // front first. Rows leave the tail only once their block is fully on
  // disk, so a failed write (ENOSPC, injected fault) leaves the fragment
  // exactly as if the flush had stopped between blocks: the remaining
  // tail is intact and still covered by the commit log. A crash
  // mid-flush leaves only orphan files, never lost rows.
  while (!frag->tail.empty()) {
    const size_t width = frag->tail.front().size();
    size_t bytes = 0;
    size_t end = 0;
    while (end < frag->tail.size() && bytes < options_.block_target_bytes &&
           frag->tail[end].size() == width) {
      bytes += RowBytes(frag->tail[end]);
      ++end;
    }
    const std::string path = PathOf(BlockFileName(next_block_id_));
    Status written = [&]() -> Status {
      if (CGQ_FAILPOINT("storage.flush")) {
        return Status::Unavailable(path +
                                   ": injected block-write failure (site "
                                   "storage.flush)");
      }
      CGQ_ASSIGN_OR_RETURN(
          const std::string bytes_out,
          EncodeBlockFile(vec::FromRows(frag->tail.data(), end, width)));
      std::ofstream out(path, std::ios::binary | std::ios::trunc);
      if (!out) return Status::Unavailable(path + ": open failed");
      out.write(bytes_out.data(),
                static_cast<std::streamsize>(bytes_out.size()));
      out.flush();
      if (!out) return Status::Unavailable(path + ": write failed");
      return Status::OK();
    }();
    if (!written.ok()) {
      std::error_code ec;
      fs::remove(path, ec);
      return written;
    }
    frag->blocks.push_back(
        ManifestBlock{next_block_id_++, static_cast<uint32_t>(end)});
    ++blocks_written_;
    frag->tail.erase(frag->tail.begin(),
                     frag->tail.begin() + static_cast<ptrdiff_t>(end));
    frag->tail_bytes -= std::min(frag->tail_bytes, bytes);
  }
  frag->tail_bytes = 0;
  return Status::OK();
}

Status StorageEngine::MaybeCheckpoint() {
  if (options_.wal_checkpoint_bytes == 0) return Status::OK();
  if (wal_ == nullptr ||
      wal_->bytes_written() < options_.wal_checkpoint_bytes) {
    return Status::OK();
  }
  return Checkpoint();
}

Status StorageEngine::Checkpoint() {
  if (!is_open()) return Status::Internal("storage engine not open");
  for (auto& [key, frag] : fragments_) {
    if (!frag.tail.empty()) CGQ_RETURN_NOT_OK(FlushTail(&frag));
  }

  Manifest next;
  next.version = manifest_version_ + 1;
  next.wal_version = wal_version_ + 1;
  next.next_block_id = next_block_id_;
  for (const auto& [key, frag] : fragments_) {
    ManifestFragment out;
    out.location = key.first;
    out.table = key.second;
    out.blocks = frag.blocks;
    next.fragments.push_back(std::move(out));
  }
  CGQ_ASSIGN_OR_RETURN(std::string next_bytes, next.Encode());
  CGQ_RETURN_NOT_OK(WriteFileAtomic(PathOf(ManifestFileName(next.version)),
                                    next_bytes));
  if (CGQ_FAILPOINT("storage.commit")) {
    // Simulated crash between the new manifest and the CURRENT switch:
    // the old manifest + old log stay authoritative, both on disk and in
    // this process (versions are only bumped below).
    return Status::Unavailable(dir_ +
                               ": injected checkpoint failure (site "
                               "storage.commit) before CURRENT switch");
  }
  auto new_wal = std::make_unique<WalWriter>();
  CGQ_RETURN_NOT_OK(new_wal->Open(PathOf(WalFileName(next.wal_version))));
  CGQ_RETURN_NOT_OK(WriteFileAtomic(PathOf("CURRENT"),
                                    ManifestFileName(next.version) + "\n"));

  // The new manifest is authoritative; retire the old generation.
  std::error_code ec;
  fs::remove(PathOf(WalFileName(wal_version_)), ec);
  fs::remove(PathOf(ManifestFileName(manifest_version_)), ec);
  for (uint64_t id : gc_blocks_) fs::remove(PathOf(BlockFileName(id)), ec);
  gc_blocks_.clear();
  manifest_version_ = next.version;
  wal_version_ = next.wal_version;
  wal_ = std::move(new_wal);
  return Status::OK();
}

std::vector<StorageEngine::FragmentInfo> StorageEngine::ListFragments()
    const {
  std::vector<FragmentInfo> out;
  out.reserve(fragments_.size());
  for (const auto& [key, frag] : fragments_) {
    size_t rows = frag.tail.size();
    for (const ManifestBlock& block : frag.blocks) rows += block.rows;
    out.push_back(FragmentInfo{key.first, key.second, rows});
  }
  return out;
}

bool StorageEngine::Contains(LocationId location,
                             const std::string& table) const {
  return fragments_.count({location, table}) > 0;
}

Result<size_t> StorageEngine::FragmentRows(LocationId location,
                                           const std::string& table) const {
  auto it = fragments_.find({location, table});
  if (it == fragments_.end()) {
    return Status::NotFound("no fragment of '" + table + "' at location " +
                            std::to_string(location));
  }
  size_t rows = it->second.tail.size();
  for (const ManifestBlock& block : it->second.blocks) rows += block.rows;
  return rows;
}

size_t StorageEngine::TotalRows() const {
  size_t rows = 0;
  for (const FragmentInfo& frag : ListFragments()) rows += frag.rows;
  return rows;
}

Result<StorageEngine::Cursor> StorageEngine::Scan(
    LocationId location, const std::string& table,
    const vec::ColumnMask* keep) const {
  auto it = fragments_.find({location, table});
  if (it == fragments_.end()) {
    return Status::NotFound("no fragment of '" + table + "' at location " +
                            std::to_string(location));
  }
  Cursor cursor;
  cursor.dir_ = dir_;
  cursor.blocks_ = it->second.blocks;
  cursor.tail_ = it->second.tail;
  if (keep != nullptr) cursor.keep_ = *keep;
  return cursor;
}

Result<bool> StorageEngine::Cursor::Next(vec::ColumnBatch* out) {
  if (next_block_ < blocks_.size()) {
    const ManifestBlock& block = blocks_[next_block_++];
    const std::string path = dir_ + "/" + BlockFileName(block.id);
    TraceSpan span("block_read");
    auto bytes = ReadFile(path);
    if (bytes.status().IsNotFound()) {
      return Status::DataLoss(path + ": live block file missing");
    }
    CGQ_ASSIGN_OR_RETURN(std::string raw, std::move(bytes));
    CGQ_ASSIGN_OR_RETURN(
        *out, DecodeBlockFile(raw, path, keep_ ? &*keep_ : nullptr));
    span.AddArg("bytes", static_cast<int64_t>(raw.size()));
    span.AddArg("rows", static_cast<int64_t>(out->NumRows()));
    span.AddArg("columns", static_cast<int64_t>(out->NumColumns()));
    if (out->NumRows() != block.rows) {
      return Status::DataLoss(path + ": block holds " +
                              std::to_string(out->NumRows()) +
                              " rows, manifest names " +
                              std::to_string(block.rows));
    }
    ++blocks_read_;
    CGQ_COUNTER_ADD("storage.blocks_read", 1);
    return true;
  }
  if (tail_pos_ < tail_.size()) {
    *out = vec::NextWidthRun(tail_, &tail_pos_);
    if (keep_) CGQ_RETURN_NOT_OK(vec::KeepColumns(*keep_, out));
    return true;
  }
  return false;
}

Status StorageEngine::ReadAll(LocationId location, const std::string& table,
                              std::vector<Row>* out) const {
  out->clear();
  CGQ_ASSIGN_OR_RETURN(Cursor cursor, Scan(location, table));
  vec::ColumnBatch batch;
  while (true) {
    CGQ_ASSIGN_OR_RETURN(bool more, cursor.Next(&batch));
    if (!more) break;
    for (Row& row : vec::ToRowBatch(batch).rows) {
      out->push_back(std::move(row));
    }
  }
  return Status::OK();
}

}  // namespace storage
}  // namespace cgq
