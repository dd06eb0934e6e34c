#include "storage/wal.h"

#include <filesystem>

#include "common/failpoint.h"
#include "net/wire_protocol.h"
#include "storage/format.h"

namespace cgq {
namespace storage {

namespace {

/// Commit-log records of format version 1 held rows, not batches.
constexpr uint16_t kFirstBatchWalVersion = 2;

}  // namespace

Result<std::string> EncodeWalRecord(const WalRecord& rec) {
  wire::Writer w;
  w.PutU32(rec.location);
  w.PutString(rec.table);
  w.PutColumns(rec.batch);
  return EncodeFileFrame(kWalMagic, static_cast<uint16_t>(rec.type),
                         w.Take());
}

Status WalWriter::Open(const std::string& path) {
  Close();
  file_ = std::fopen(path.c_str(), "ab");
  if (file_ == nullptr) {
    return Status::Unavailable(path + ": open for append failed");
  }
  path_ = path;
  bytes_written_ = 0;
  wounded_ = false;
  return Status::OK();
}

Status WalWriter::Append(const WalRecord& rec) {
  if (file_ == nullptr) {
    return Status::Internal("WalWriter::Append on a closed log");
  }
  if (wounded_) {
    return Status::Unavailable(path_ +
                               ": commit log needs recovery after a failed "
                               "append");
  }
  // An encode failure (over-limit record) writes nothing, so it does
  // not wound the log — the caller just sees the mutation refused.
  CGQ_ASSIGN_OR_RETURN(const std::string frame, EncodeWalRecord(rec));
  if (CGQ_FAILPOINT("storage.commit")) {
    // Simulate a crash mid-commit: a torn prefix reaches the disk, the
    // acknowledgement never happens. Recovery must replay cleanly past
    // (i.e. stop at) this tail.
    wounded_ = true;
    const size_t torn = frame.size() / 2;
    std::fwrite(frame.data(), 1, torn, file_);
    std::fflush(file_);
    return Status::Unavailable(path_ + ": injected commit failure (site "
                               "storage.commit), wrote torn " +
                               std::to_string(torn) + "/" +
                               std::to_string(frame.size()) + " bytes");
  }
  const size_t wrote = std::fwrite(frame.data(), 1, frame.size(), file_);
  if (wrote != frame.size() || std::fflush(file_) != 0) {
    wounded_ = true;
    return Status::Unavailable(path_ + ": commit log append failed after " +
                               std::to_string(wrote) + "/" +
                               std::to_string(frame.size()) + " bytes");
  }
  bytes_written_ += frame.size();
  return Status::OK();
}

void WalWriter::Close() {
  if (file_ != nullptr) {
    std::fclose(file_);
    file_ = nullptr;
  }
}

Result<size_t> ReplayWal(const std::string& path,
                         const std::function<Status(WalRecord)>& fn) {
  auto bytes_or = ReadFile(path);
  if (bytes_or.status().IsNotFound()) return size_t{0};
  CGQ_ASSIGN_OR_RETURN(std::string bytes, std::move(bytes_or));

  const uint8_t* data = reinterpret_cast<const uint8_t*>(bytes.data());
  size_t pos = 0;
  size_t replayed = 0;
  while (pos < bytes.size()) {
    if (bytes.size() - pos < kFrameHeaderSize) break;  // torn header at tail
    CGQ_ASSIGN_OR_RETURN(
        FileFrameHeader header,
        DecodeFileFrameHeader(kWalMagic, data + pos, kFrameHeaderSize,
                              path + " @" + std::to_string(pos)));
    if (bytes.size() - pos - kFrameHeaderSize < header.payload_len) {
      break;  // torn payload at tail: the mutation was never acknowledged
    }
    const std::string what = path + " @" + std::to_string(pos);
    if (header.version < kFirstBatchWalVersion) {
      return Status::Unsupported(
          what + ": commit-log record of format version " +
          std::to_string(header.version) + " holds rows; this build reads " +
          "versions " + std::to_string(kFirstBatchWalVersion) + " to " +
          std::to_string(kFormatVersion) +
          " (checkpoint the store with the release that wrote it)");
    }
    const uint8_t* payload = data + pos + kFrameHeaderSize;
    CGQ_RETURN_NOT_OK(VerifyFilePayload(header, payload, what));
    if (header.type != static_cast<uint16_t>(WalRecordType::kPut) &&
        header.type != static_cast<uint16_t>(WalRecordType::kAppend)) {
      return Status::DataLoss(what + ": unknown commit-log record type " +
                              std::to_string(header.type));
    }

    WalRecord rec;
    rec.type = static_cast<WalRecordType>(header.type);
    wire::Reader r(payload, header.payload_len);
    Status decoded = [&]() -> Status {
      CGQ_ASSIGN_OR_RETURN(rec.location, r.U32());
      CGQ_ASSIGN_OR_RETURN(rec.table, r.String());
      CGQ_ASSIGN_OR_RETURN(rec.batch, ReadFrameColumns(header.version, &r));
      if (!r.AtEnd()) {
        return Status::InvalidArgument(std::to_string(r.remaining()) +
                                       " trailing bytes in commit-log record");
      }
      return Status::OK();
    }();
    if (!decoded.ok()) return Status::DataLoss(what + ": " + decoded.message());

    CGQ_RETURN_NOT_OK(fn(std::move(rec)));
    pos += kFrameHeaderSize + header.payload_len;
    ++replayed;
  }

  if (pos < bytes.size()) {
    // Torn tail: drop it so later appends never follow garbage.
    std::error_code ec;
    std::filesystem::resize_file(path, pos, ec);
    if (ec) {
      return Status::Unavailable(path + ": truncating torn tail failed: " +
                                 ec.message());
    }
  }
  return replayed;
}

}  // namespace storage
}  // namespace cgq
