#include "exec/spill_join.h"

#include <unistd.h>

#include <algorithm>
#include <filesystem>

#include "common/trace.h"
#include "net/wire_protocol.h"
#include "storage/format.h"

namespace cgq {
namespace exec_internal {

namespace {

namespace fs = std::filesystem;

/// The `type` of every spill frame (a flipped type bit is corruption).
constexpr uint16_t kSpillFrameType = 1;

}  // namespace

Result<std::string> EncodeSpillFrame(const vec::ColumnBatch& batch) {
  wire::Writer w;
  w.PutColumns(batch);
  return storage::EncodeFileFrame(storage::kSpillMagic, kSpillFrameType,
                                  w.Take());
}

Status ForEachSpillFrame(const std::string& path,
                         const std::function<Status(vec::ColumnBatch)>& fn) {
  CGQ_ASSIGN_OR_RETURN(const std::string bytes, storage::ReadFile(path));
  const uint8_t* data = reinterpret_cast<const uint8_t*>(bytes.data());
  for (size_t pos = 0; pos < bytes.size();) {
    CGQ_ASSIGN_OR_RETURN(storage::FileFrameHeader header,
                         storage::DecodeFileFrame(storage::kSpillMagic,
                                                  data + pos,
                                                  bytes.size() - pos, path));
    if (header.type != kSpillFrameType) {
      return Status::DataLoss(path + ": unknown spill frame type " +
                              std::to_string(header.type));
    }
    wire::Reader r(data + pos + storage::kFrameHeaderSize,
                   header.payload_len);
    auto batch = storage::ReadFrameColumns(header.version, &r);
    if (!batch.ok()) {
      return Status::DataLoss(path + ": " + batch.status().message());
    }
    if (!r.AtEnd()) {
      return Status::DataLoss(path + ": trailing bytes in spill frame");
    }
    CGQ_RETURN_NOT_OK(fn(std::move(*batch)));
    pos += storage::kFrameHeaderSize + header.payload_len;
  }
  return Status::OK();
}

SpillHashJoin::SpillHashJoin(const JoinSpec* spec, std::string dir,
                             int num_partitions,
                             const std::atomic<bool>* cancel)
    : spec_(spec),
      dir_(std::move(dir)),
      num_partitions_(std::max(2, num_partitions)),
      cancel_(cancel) {}

SpillHashJoin::~SpillHashJoin() {
  std::error_code ec;
  fs::remove_all(dir_, ec);
}

int SpillHashJoin::PickPartitions(uint64_t build_bytes, uint64_t budget) {
  const uint64_t per_partition = std::max<uint64_t>(budget / 2, 1);
  const uint64_t wanted = build_bytes / per_partition + 1;
  return static_cast<int>(std::clamp<uint64_t>(wanted, 2, 64));
}

std::string SpillHashJoin::MakeSpillDir(const std::string& base) {
  static std::atomic<uint64_t> counter{0};
  std::string root = base;
  if (root.empty()) {
    std::error_code ec;
    root = (fs::temp_directory_path(ec) / "cgq-spill").string();
  }
  return root + "/sj-" + std::to_string(::getpid()) + "-" +
         std::to_string(counter.fetch_add(1));
}

Status SpillHashJoin::Init() {
  std::error_code ec;
  fs::create_directories(dir_, ec);
  if (ec) {
    return Status::Unavailable(dir_ + ": create spill dir failed: " +
                               ec.message());
  }
  build_files_.resize(static_cast<size_t>(num_partitions_));
  probe_files_.resize(static_cast<size_t>(num_partitions_));
  for (int64_t p = 0; p < num_partitions_; ++p) {
    for (auto [files, tag] : {std::pair{&build_files_, "build"},
                              std::pair{&probe_files_, "probe"}}) {
      SpillFile& f = (*files)[static_cast<size_t>(p)];
      f.path = dir_ + "/" + tag + "-" + std::to_string(p) + ".spl";
      f.file.reset(std::fopen(f.path.c_str(), "wb"));
      if (f.file == nullptr) {
        return Status::Unavailable(f.path + ": open spill file failed");
      }
    }
  }
  initialized_ = true;
  CGQ_COUNTER_ADD("storage.spill_partitions", num_partitions_);
  return Status::OK();
}

Status SpillHashJoin::Partition(const vec::ColumnBatch& batch, bool is_build,
                                std::vector<SpillFile>* files) {
  if (!initialized_) return Status::Internal("spill join not initialized");
  CGQ_RETURN_NOT_OK(CheckCancelled(cancel_));
  vec::ColumnBatch part;
  part.columns = batch.columns;
  if (!is_build) {
    // Probe frames carry each row's global ordinal as a last column.
    vec::ColumnVector ordinals;
    ordinals.i64.resize(batch.columns.front()->size());
    ordinals.nulls.Resize(ordinals.i64.size());
    for (uint32_t i : batch.sel) {
      ordinals.i64[i] = static_cast<int64_t>(next_ordinal_++);
    }
    part.columns.push_back(vec::MakeColumn(std::move(ordinals)));
  }
  // Equal keys hash alike on both sides, whatever their columns' tags.
  std::vector<uint64_t> hashes;
  std::vector<bool> nulls;
  KeyIndex::HashRows(batch, spec_->KeyColumns(is_build), &hashes, &nulls);
  std::vector<vec::SelVec> sels(files->size());
  for (size_t k = 0; k < batch.NumRows(); ++k) {
    // A NULL key matches nothing, as in ColumnJoinTable.
    if (!nulls[k]) sels[hashes[k] % sels.size()].push_back(batch.sel[k]);
  }
  for (size_t p = 0; p < sels.size(); ++p) {
    if (sels[p].empty()) continue;
    part.sel = std::move(sels[p]);
    CGQ_ASSIGN_OR_RETURN(const std::string frame, EncodeSpillFrame(part));
    SpillFile& file = (*files)[p];
    if (std::fwrite(frame.data(), 1, frame.size(), file.file.get()) !=
        frame.size()) {
      return Status::Unavailable(file.path + ": spill write failed");
    }
    spill_bytes_ += static_cast<int64_t>(frame.size());
    CGQ_COUNTER_ADD("storage.spill_bytes", static_cast<int64_t>(frame.size()));
  }
  return Status::OK();
}

Status SpillHashJoin::AddBuild(const vec::ColumnBatch& batch) {
  return Partition(batch, /*is_build=*/true, &build_files_);
}

Status SpillHashJoin::AddProbe(const vec::ColumnBatch& batch) {
  return Partition(batch, /*is_build=*/false, &probe_files_);
}

Status SpillHashJoin::Finish(
    const std::function<Status(vec::ColumnBatch)>& emit) {
  if (!initialized_) return Status::Internal("spill join not initialized");
  // Close every partition file; each is read back whole below.
  for (auto* files : {&build_files_, &probe_files_}) {
    for (SpillFile& f : *files) {
      if (std::fflush(f.file.get()) != 0) {
        return Status::Unavailable(f.path + ": spill flush failed");
      }
      f.file.reset();
    }
  }
  // Join each partition pair. Every output row keeps its probe row's
  // ordinal; a probe row's matches all come from one partition, in build
  // insertion order, so a stable sort by ordinal restores the reference
  // order. Nothing is emitted before every partition has been read.
  const JoinGather gather(*spec_);
  std::vector<vec::ColumnVector> out(gather.layout().size());
  std::vector<uint64_t> out_ordinals;
  for (size_t p = 0; p < build_files_.size(); ++p) {
    CGQ_RETURN_NOT_OK(CheckCancelled(cancel_));
    std::vector<vec::ColumnVector> build_cols;
    size_t build_rows = 0;
    auto add_build = [&](vec::ColumnBatch frame) -> Status {
      if (build_rows == 0) build_cols.resize(frame.NumColumns());
      if (frame.NumColumns() != build_cols.size()) {
        return Status::DataLoss(build_files_[p].path +
                                ": build frames of different widths");
      }
      AppendRows(frame, 0, frame.NumRows(), &build_cols);
      build_rows += frame.NumRows();
      return Status::OK();
    };
    CGQ_RETURN_NOT_OK(ForEachSpillFrame(build_files_[p].path, add_build));
    if (build_rows == 0) continue;  // no probe row of the partition matches
    const vec::ColumnBatch build =
        vec::DenseBatch(RowLayout(), std::move(build_cols), build_rows);
    ColumnJoinTable table;
    table.Build(build, *spec_);
    // A probe frame holds the probe columns and then the ordinals (see
    // Partition).
    const size_t probe_width = spec_->combined.size() - build.NumColumns();
    auto probe = [&](vec::ColumnBatch frame) -> Status {
      CGQ_RETURN_NOT_OK(CheckCancelled(cancel_));
      if (frame.NumColumns() != probe_width + 1 ||
          frame.columns.back()->tag != vec::ColumnTag::kInt64) {
        return Status::DataLoss(probe_files_[p].path +
                                ": probe frame without its ordinals");
      }
      vec::SelVec li, ri;
      CGQ_RETURN_NOT_OK(table.Probe(frame, *spec_, cancel_, &li, &ri));
      if (li.empty()) return Status::OK();
      CGQ_ASSIGN_OR_RETURN(vec::ColumnBatch matched,
                           gather.Gather(build, frame, li, ri));
      const std::vector<int64_t>& ordinals = frame.columns.back()->i64;
      for (uint32_t k : matched.sel) {
        out_ordinals.push_back(static_cast<uint64_t>(ordinals[ri[k]]));
      }
      AppendRows(matched, 0, matched.NumRows(), &out);
      return Status::OK();
    };
    CGQ_RETURN_NOT_OK(ForEachSpillFrame(probe_files_[p].path, probe));
  }
  if (out_ordinals.empty()) return Status::OK();
  vec::SelVec order = vec::RangeSel(0, out_ordinals.size());
  std::stable_sort(order.begin(), order.end(), [&](uint32_t a, uint32_t b) {
    return out_ordinals[a] < out_ordinals[b];
  });
  return emit(vec::DenseBatch(gather.layout(), std::move(out),
                              out_ordinals.size())
                  .Gather(order));
}

}  // namespace exec_internal
}  // namespace cgq
