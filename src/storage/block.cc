#include "storage/block.h"

#include "net/wire_protocol.h"

namespace cgq {
namespace storage {

Result<std::string> EncodeBlockFile(const vec::ColumnBatch& batch) {
  wire::Writer w;
  w.PutColumns(batch);
  return EncodeFileFrame(kBlockMagic, kBlockColumnar, w.Take());
}

Result<vec::ColumnBatch> DecodeBlockFile(const std::string& bytes,
                                         const std::string& what,
                                         const vec::ColumnMask* keep) {
  const uint8_t* data = reinterpret_cast<const uint8_t*>(bytes.data());
  CGQ_ASSIGN_OR_RETURN(FileFrameHeader header,
                       DecodeFileFrame(kBlockMagic, data, bytes.size(), what));
  if (bytes.size() != kFrameHeaderSize + header.payload_len) {
    return Status::DataLoss(what + ": trailing bytes after the block");
  }
  if (header.type == 0) {
    return Status::Unsupported(what +
                               ": row-major block of ragged rows is no "
                               "longer readable");
  }
  if (header.type != kBlockColumnar) {
    return Status::DataLoss(what + ": unknown block flags " +
                            std::to_string(header.type));
  }

  if (keep != nullptr && header.payload_len >= 8) {
    // Every layout opens with u32 rows, u32 columns.
    wire::Reader counts(data + kFrameHeaderSize + 4, 4);
    const uint32_t cols = counts.U32().ValueOrDie();
    if (cols != keep->size()) {
      return Status::InvalidArgument(
          what + ": block of " + std::to_string(cols) +
          " columns read with a column mask of " +
          std::to_string(keep->size()));
    }
  }
  wire::Reader r(data + kFrameHeaderSize, header.payload_len);
  auto batch = ReadFrameColumns(header.version, &r, keep);
  if (!batch.ok()) {
    return Status::DataLoss(what + ": " + batch.status().message());
  }
  if (!r.AtEnd()) {
    return Status::DataLoss(what + ": " + std::to_string(r.remaining()) +
                            " trailing bytes after block rows");
  }
  return batch;
}

}  // namespace storage
}  // namespace cgq
