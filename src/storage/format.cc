#include "storage/format.h"

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>

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
  w.PutU64(wire::Fnv1a(reinterpret_cast<const uint8_t*>(payload.data()),
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
  uint64_t got = wire::Fnv1a(payload, header.payload_len);
  if (got != header.checksum) {
    return Status::DataLoss(what + ": checksum mismatch (stored " +
                            std::to_string(header.checksum) + ", computed " +
                            std::to_string(got) + ")");
  }
  return Status::OK();
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
  std::error_code ec;
  if (!std::filesystem::exists(path, ec)) {
    return Status::NotFound(path + ": no such file");
  }
  std::ifstream in(path, std::ios::binary);
  if (!in) return Status::Unavailable(path + ": open failed");
  std::ostringstream buf;
  buf << in.rdbuf();
  if (in.bad()) return Status::Unavailable(path + ": read failed");
  return buf.str();
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
