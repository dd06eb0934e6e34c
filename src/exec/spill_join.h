#ifndef CGQ_EXEC_SPILL_JOIN_H_
#define CGQ_EXEC_SPILL_JOIN_H_

#include <atomic>
#include <cstdint>
#include <cstdio>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "common/result.h"
#include "exec/exec_internal.h"
#include "exec/vector/column_batch.h"

namespace cgq {
namespace exec_internal {

/// Grace (partitioned) hash join: the out-of-core path every backend
/// takes when a hash join's build side exceeds
/// ExecutorOptions::memory_budget_bytes.
///
/// Both sides are hash-partitioned on the equi-key into P spill files
/// (the same key always lands in the same partition), then each
/// partition pair is joined independently on columns, with the
/// ColumnJoinTable and JoinGather of the in-memory hash join — so the
/// resident input is ~1/P of both sides, beside the join's output,
/// which every caller materializes. Each (input
/// batch, partition) pair is one checksummed spill frame (see
/// EncodeSpillFrame), so a torn or corrupted spill file fails kDataLoss
/// instead of yielding rows. The reference output order (probe rows in
/// input order, matches per probe row in build-insertion order;
/// DESIGN.md §12) is reproduced exactly:
///
///  - build rows are written to their partition in arrival order, so
///    per-key build order inside a partition equals the global one
///    (equal keys share a partition);
///  - every probe row is tagged with its global arrival ordinal, and a
///    probe row's matches live in exactly one partition;
///  - Finish() stable-sorts the output by ordinal and applies the
///    order as one gather.
///
/// Byte-identical to the non-spilled join, pinned by spill_join_test.
class SpillHashJoin {
 public:
  /// `spec` must outlive the join. `dir` is created by Init() and
  /// removed (with every spill file) by the destructor. `cancel` may be
  /// null; when set, long loops abort with kCancelled once it flips.
  SpillHashJoin(const JoinSpec* spec, std::string dir, int num_partitions,
                const std::atomic<bool>* cancel);
  ~SpillHashJoin();
  SpillHashJoin(const SpillHashJoin&) = delete;
  SpillHashJoin& operator=(const SpillHashJoin&) = delete;

  /// Partition count for a build side of `build_bytes` under `budget`:
  /// enough that one partition's build rows fit in roughly half the
  /// budget, clamped to [2, 64].
  static int PickPartitions(uint64_t build_bytes, uint64_t budget);

  Status Init();
  /// Routes the batch's build-side rows to their partition files
  /// (NULL-key rows are dropped: they match nothing).
  Status AddBuild(const vec::ColumnBatch& batch);
  /// Routes the batch's probe-side rows, tagging each with the next
  /// global ordinal (NULL-key rows are dropped: they match nothing).
  Status AddProbe(const vec::ColumnBatch& batch);
  /// Joins every partition pair, then passes the whole output (in the
  /// exact reference order, laid out as the spec's output) to `emit` as
  /// one dense batch; nothing when the join has no output. `spec`'s
  /// `combined` layout must name the build then the probe columns. A
  /// torn or corrupt spill frame is kDataLoss, before anything is
  /// emitted.
  Status Finish(const std::function<Status(vec::ColumnBatch)>& emit);

  int64_t partitions() const { return num_partitions_; }
  /// Bytes written across all spill files (both sides).
  int64_t spill_bytes() const { return spill_bytes_; }

  /// A process-unique spill directory under `base` (or the system temp
  /// dir when `base` is empty) for one spilling operator.
  static std::string MakeSpillDir(const std::string& base);

 private:
  using FilePtr = std::unique_ptr<FILE, int (*)(FILE*)>;
  /// One append-then-rescan spill file of spill frames.
  struct SpillFile {
    std::string path;
    FilePtr file{nullptr, &std::fclose};  // write handle until Finish
  };

  /// Splits the batch's non-NULL-key rows by partition and writes one
  /// frame per partition that got rows; probe rows take ordinals.
  Status Partition(const vec::ColumnBatch& batch, bool is_build,
                   std::vector<SpillFile>* files);

  const JoinSpec* spec_;
  std::string dir_;
  int64_t num_partitions_;
  const std::atomic<bool>* cancel_;
  std::vector<SpillFile> build_files_;
  std::vector<SpillFile> probe_files_;
  uint64_t next_ordinal_ = 0;
  int64_t spill_bytes_ = 0;
  bool initialized_ = false;
};

/// One spill frame: a storage file frame (storage/format.h) with
/// kSpillMagic whose payload is one batch in the batch codec
/// (wire::Writer::PutColumns). A probe frame's last column holds each
/// row's global probe ordinal.
Result<std::string> EncodeSpillFrame(const vec::ColumnBatch& batch);

/// Decodes the spill file at `path` frame by frame, passing each as a
/// positional batch to `fn`. A torn, corrupt or malformed frame is
/// kDataLoss.
Status ForEachSpillFrame(const std::string& path,
                         const std::function<Status(vec::ColumnBatch)>& fn);

}  // namespace exec_internal
}  // namespace cgq

#endif  // CGQ_EXEC_SPILL_JOIN_H_
