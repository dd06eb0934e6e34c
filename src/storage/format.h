#ifndef CGQ_STORAGE_FORMAT_H_
#define CGQ_STORAGE_FORMAT_H_

#include <cstdint>
#include <string>

#include "common/result.h"
#include "exec/vector/column_batch.h"

namespace cgq {
namespace wire {
class Reader;
}  // namespace wire

namespace storage {

/// On-disk framing of the per-location storage engine and the spill
/// join (DESIGN.md §16). Every persistent artifact — data block,
/// commit-log record, manifest, spill frame — is one *file frame* with
/// the same 20-byte header shape as the wire protocol (DESIGN.md §13),
/// distinguished by magic:
///
///   offset  size  field
///        0     4  magic     kBlockMagic / kWalMagic / kManifestMagic /
///                           kSpillMagic
///        4     2  version   format version (kFormatVersion)
///        6     2  type      artifact-specific (block flags, WAL record
///                           type, 1 for spill frames, 0 for manifests)
///        8     4  len       payload length in bytes
///       12     8  checksum  over the payload bytes, chosen by version
///       20   len  payload
///
/// All integers little-endian via wire::Writer/Reader, so the encoding is
/// byte-stable across platforms. A checksum mismatch on a complete frame
/// is typed kDataLoss; a frame cut short at end-of-file is *torn* and the
/// caller decides (clean replay stop for the commit-log tail, kDataLoss
/// for blocks, manifests and spill files, which are only read once
/// fully written).
///
/// The version selects both the checksum and the batch layout:
///   3  wire::Checksum64; batches in the typed column layout
///      (wire::Writer::PutColumns) — the only version written.
///   2  FNV-1a (wire::Fnv1a); batches as tagged values, one per cell,
///      column-major. Still read, through a legacy decoder.
///   1  as 2 for blocks and manifests; a version-1 commit-log record
///      held rows and is refused.
inline constexpr uint32_t kBlockMagic = 0x42514743u;     // "CGQB"
inline constexpr uint32_t kWalMagic = 0x4C514743u;       // "CGQL"
inline constexpr uint32_t kManifestMagic = 0x4D514743u;  // "CGQM"
inline constexpr uint32_t kSpillMagic = 0x53514743u;     // "CGQS"
inline constexpr uint16_t kFormatVersion = 3;
/// The first version in the typed column layout and wire::Checksum64.
inline constexpr uint16_t kTypedColumnsVersion = 3;
inline constexpr size_t kFrameHeaderSize = 20;
/// Resource guard against garbage length prefixes (far above any frame
/// the engine writes: blocks target ~256 KiB, WAL records are chunked).
inline constexpr uint32_t kMaxFrameBytes = 1u << 30;

struct FileFrameHeader {
  uint16_t version = 0;
  uint16_t type = 0;
  uint32_t payload_len = 0;
  uint64_t checksum = 0;
};

/// One complete file frame: header + payload. A payload over
/// kMaxFrameBytes is rejected here (kInvalidArgument) rather than
/// written: the length field is a u32 and the read side enforces the
/// same limit, so an oversized frame would be acknowledged on disk but
/// unreadable (kDataLoss) at recovery.
Result<std::string> EncodeFileFrame(uint32_t magic, uint16_t type,
                                    const std::string& payload);

/// Parses a header from exactly kFrameHeaderSize bytes. Wrong magic,
/// version 0 or an over-limit length is kDataLoss (`what` names the
/// artifact in the message); a version from the future is kUnsupported.
Result<FileFrameHeader> DecodeFileFrameHeader(uint32_t magic,
                                              const uint8_t* data, size_t len,
                                              const std::string& what);

/// Verifies the payload checksum of the header's version; kDataLoss on
/// mismatch.
Status VerifyFilePayload(const FileFrameHeader& header, const uint8_t* payload,
                         const std::string& what);

/// Reads one batch from the payload of a frame of format `version`: the
/// typed column layout (wire::Reader::ReadColumns) from
/// kTypedColumnsVersion on, tagged values before it. Errors are the
/// reader's kInvalidArgument; the caller types them kDataLoss. With
/// `keep`, only the marked columns are returned: the typed layout skips
/// the others while validating them, tagged values decode in full and
/// are then narrowed.
Result<vec::ColumnBatch> ReadFrameColumns(uint16_t version, wire::Reader* r,
                                          const vec::ColumnMask* keep = nullptr);

/// Decodes the frame of `magic` at the front of `data` (`len` bytes, maybe
/// followed by more frames): header, whole payload present, checksum;
/// kDataLoss otherwise. The payload follows at kFrameHeaderSize.
Result<FileFrameHeader> DecodeFileFrame(uint32_t magic, const uint8_t* data,
                                        size_t len, const std::string& what);

/// Reads a whole file; kNotFound when absent, kUnavailable on I/O error.
Result<std::string> ReadFile(const std::string& path);

/// Writes a whole file via `<path>.tmp` + rename, so readers never see a
/// half-written manifest or CURRENT pointer.
Status WriteFileAtomic(const std::string& path, const std::string& bytes);

}  // namespace storage
}  // namespace cgq

#endif  // CGQ_STORAGE_FORMAT_H_
