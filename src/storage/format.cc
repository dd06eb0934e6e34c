#include "storage/format.h"

#include <cerrno>
#include <cstdio>
#include <filesystem>
#include <fstream>

#include "net/wire_protocol.h"

namespace cgq {
namespace storage {

namespace {

std::string MagicName(uint32_t magic) {
  switch (magic) {
    case kBlockMagic:
      return "block";
    case kWalMagic:
      return "commit log";
    case kManifestMagic:
      return "manifest";
    case kSpillMagic:
      return "spill";
  }
  return "frame";
}

uint64_t PayloadChecksum(uint16_t version, const uint8_t* payload,
                         size_t len) {
  return version >= kTypedColumnsVersion ? wire::Checksum64(payload, len)
                                         : wire::Fnv1a(payload, len);
}

/// The batch layout of format versions 1 and 2: u32 rows, u32 columns,
/// then column-major tagged values. Read-only; nothing writes it.
Result<vec::ColumnBatch> ReadTaggedColumns(wire::Reader* r) {
  CGQ_ASSIGN_OR_RETURN(uint32_t num_rows, r->U32());
  CGQ_ASSIGN_OR_RETURN(uint32_t num_cols, r->U32());
  // Every value is at least its tag byte; a batch without values can
  // allocate no more than the payload limit.
  const uint64_t values = uint64_t{num_rows} * num_cols;
  const uint64_t empty_bytes = uint64_t{num_rows} * sizeof(uint32_t) +
                               uint64_t{num_cols} * sizeof(vec::ColumnVector);
  if (values == 0 ? empty_bytes > wire::kMaxPayloadBytes
                  : r->remaining() < values) {
    return Status::InvalidArgument("truncated payload");
  }
  std::vector<vec::ColumnVector> cols(num_cols);
  for (vec::ColumnVector& col : cols) {
    for (uint32_t i = 0; i < num_rows; ++i) {
      CGQ_ASSIGN_OR_RETURN(Value v, r->ReadValue());
      col.AppendValue(v);
    }
  }
  return vec::DenseBatch(RowLayout(), std::move(cols), num_rows);
}

}  // namespace

Result<std::string> EncodeFileFrame(uint32_t magic, uint16_t type,
                                    const std::string& payload) {
  if (payload.size() > kMaxFrameBytes) {
    return Status::InvalidArgument(
        MagicName(magic) + " payload of " + std::to_string(payload.size()) +
        " bytes exceeds the " + std::to_string(kMaxFrameBytes) +
        "-byte frame limit");
  }
  wire::Writer w;
  w.PutU32(magic);
  w.PutU16(kFormatVersion);
  w.PutU16(type);
  w.PutU32(static_cast<uint32_t>(payload.size()));
  w.PutU64(PayloadChecksum(kFormatVersion,
                           reinterpret_cast<const uint8_t*>(payload.data()),
                           payload.size()));
  std::string frame = w.Take();
  frame += payload;
  return frame;
}

Result<FileFrameHeader> DecodeFileFrameHeader(uint32_t magic,
                                              const uint8_t* data, size_t len,
                                              const std::string& what) {
  wire::Reader r(data, len);
  CGQ_ASSIGN_OR_RETURN(uint32_t got_magic, r.U32());
  if (got_magic != magic) {
    return Status::DataLoss(what + ": bad " + MagicName(magic) + " magic 0x" +
                            [&] {
                              char buf[16];
                              std::snprintf(buf, sizeof(buf), "%08x",
                                            got_magic);
                              return std::string(buf);
                            }());
  }
  FileFrameHeader header;
  CGQ_ASSIGN_OR_RETURN(header.version, r.U16());
  CGQ_ASSIGN_OR_RETURN(header.type, r.U16());
  CGQ_ASSIGN_OR_RETURN(header.payload_len, r.U32());
  CGQ_ASSIGN_OR_RETURN(header.checksum, r.U64());
  if (header.version == 0) {
    return Status::DataLoss(what + ": " + MagicName(magic) +
                            " claims format version 0");
  }
  if (header.version > kFormatVersion) {
    return Status::Unsupported(what + ": " + MagicName(magic) +
                               " format version " +
                               std::to_string(header.version) +
                               " is newer than " +
                               std::to_string(kFormatVersion));
  }
  if (header.payload_len > kMaxFrameBytes) {
    return Status::DataLoss(what + ": " + MagicName(magic) + " claims " +
                            std::to_string(header.payload_len) +
                            " payload bytes (limit " +
                            std::to_string(kMaxFrameBytes) + ")");
  }
  return header;
}

Status VerifyFilePayload(const FileFrameHeader& header, const uint8_t* payload,
                         const std::string& what) {
  uint64_t got = PayloadChecksum(header.version, payload, header.payload_len);
  if (got != header.checksum) {
    return Status::DataLoss(what + ": checksum mismatch (stored " +
                            std::to_string(header.checksum) + ", computed " +
                            std::to_string(got) + ")");
  }
  return Status::OK();
}

Result<vec::ColumnBatch> ReadFrameColumns(uint16_t version, wire::Reader* r,
                                          const vec::ColumnMask* keep) {
  if (version >= kTypedColumnsVersion) return r->ReadColumns(keep);
  CGQ_ASSIGN_OR_RETURN(vec::ColumnBatch batch, ReadTaggedColumns(r));
  if (keep != nullptr) CGQ_RETURN_NOT_OK(vec::KeepColumns(*keep, &batch));
  return batch;
}

Result<FileFrameHeader> DecodeFileFrame(uint32_t magic, const uint8_t* data,
                                        size_t len, const std::string& what) {
  auto torn = [&] {
    return Status::DataLoss(what + ": " + MagicName(magic) + " torn after " +
                            std::to_string(len) + " bytes");
  };
  if (len < kFrameHeaderSize) return torn();
  CGQ_ASSIGN_OR_RETURN(
      FileFrameHeader header,
      DecodeFileFrameHeader(magic, data, kFrameHeaderSize, what));
  if (len - kFrameHeaderSize < header.payload_len) return torn();
  CGQ_RETURN_NOT_OK(VerifyFilePayload(header, data + kFrameHeaderSize, what));
  return header;
}

Result<std::string> ReadFile(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) {
    if (errno == ENOENT || errno == ENOTDIR) {
      return Status::NotFound(path + ": no such file");
    }
    return Status::Unavailable(path + ": open failed");
  }
  std::string bytes;
  long size = -1;
  if (std::fseek(f, 0, SEEK_END) == 0) size = std::ftell(f);
  bool ok = size >= 0 && std::fseek(f, 0, SEEK_SET) == 0;
  if (ok) {
    bytes.resize(static_cast<size_t>(size));
    bytes.resize(std::fread(bytes.data(), 1, bytes.size(), f));
    ok = !std::ferror(f);
  }
  std::fclose(f);
  if (!ok) return Status::Unavailable(path + ": read failed");
  return bytes;
}

Status WriteFileAtomic(const std::string& path, const std::string& bytes) {
  const std::string tmp = path + ".tmp";
  {
    std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
    if (!out) return Status::Unavailable(tmp + ": open failed");
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
    out.flush();
    if (!out) return Status::Unavailable(tmp + ": write failed");
  }
  std::error_code ec;
  std::filesystem::rename(tmp, path, ec);
  if (ec) {
    return Status::Unavailable(path + ": rename failed: " + ec.message());
  }
  return Status::OK();
}

}  // namespace storage
}  // namespace cgq
