#include "storage/manifest.h"

#include "net/wire_protocol.h"
#include "storage/format.h"

namespace cgq {
namespace storage {

Result<std::string> Manifest::Encode() const {
  wire::Writer w;
  w.PutU64(version);
  w.PutU64(wal_version);
  w.PutU64(next_block_id);
  w.PutU32(static_cast<uint32_t>(fragments.size()));
  for (const ManifestFragment& frag : fragments) {
    w.PutU32(frag.location);
    w.PutString(frag.table);
    w.PutU32(static_cast<uint32_t>(frag.blocks.size()));
    for (const ManifestBlock& block : frag.blocks) {
      w.PutU64(block.id);
      w.PutU32(block.rows);
    }
  }
  return EncodeFileFrame(kManifestMagic, 0, w.Take());
}

Result<Manifest> Manifest::Decode(const std::string& bytes,
                                  const std::string& what) {
  const uint8_t* data = reinterpret_cast<const uint8_t*>(bytes.data());
  CGQ_ASSIGN_OR_RETURN(
      FileFrameHeader header,
      DecodeFileFrame(kManifestMagic, data, bytes.size(), what));
  if (bytes.size() != kFrameHeaderSize + header.payload_len) {
    return Status::DataLoss(what + ": trailing bytes after the manifest");
  }
  wire::Reader r(data + kFrameHeaderSize, header.payload_len);
  Manifest m;
  CGQ_ASSIGN_OR_RETURN(m.version, r.U64());
  CGQ_ASSIGN_OR_RETURN(m.wal_version, r.U64());
  CGQ_ASSIGN_OR_RETURN(m.next_block_id, r.U64());
  CGQ_ASSIGN_OR_RETURN(uint32_t nfrags, r.U32());
  m.fragments.reserve(nfrags);
  for (uint32_t i = 0; i < nfrags; ++i) {
    ManifestFragment frag;
    CGQ_ASSIGN_OR_RETURN(frag.location, r.U32());
    CGQ_ASSIGN_OR_RETURN(frag.table, r.String());
    CGQ_ASSIGN_OR_RETURN(uint32_t nblocks, r.U32());
    frag.blocks.reserve(nblocks);
    for (uint32_t b = 0; b < nblocks; ++b) {
      ManifestBlock block;
      CGQ_ASSIGN_OR_RETURN(block.id, r.U64());
      CGQ_ASSIGN_OR_RETURN(block.rows, r.U32());
      frag.blocks.push_back(block);
    }
    m.fragments.push_back(std::move(frag));
  }
  if (!r.AtEnd()) {
    return Status::DataLoss(what + ": " + std::to_string(r.remaining()) +
                            " trailing bytes in manifest");
  }
  return m;
}

std::string ManifestFileName(uint64_t version) {
  return "MANIFEST-" + std::to_string(version);
}

std::string WalFileName(uint64_t version) {
  return "wal-" + std::to_string(version) + ".log";
}

std::string BlockFileName(uint64_t id) {
  const std::string n = std::to_string(id);
  return "b" + n + ".blk";
}

}  // namespace storage
}  // namespace cgq
