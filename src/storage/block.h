#ifndef CGQ_STORAGE_BLOCK_H_
#define CGQ_STORAGE_BLOCK_H_

#include <string>

#include "common/result.h"
#include "exec/vector/column_batch.h"
#include "storage/format.h"

namespace cgq {
namespace storage {

/// Immutable checksummed data block (`b<id>.blk`): one file frame with
/// kBlockMagic whose payload is one batch in the batch codec
/// (wire::Writer::PutColumns):
///
///   u32 rows, u32 cols, then per column its tag, its NULL words and
///   its typed array (format version 3; versions 1 and 2 held
///   column-major tagged values and still decode)
///
/// The header `type` field is a flag word. Every block the engine
/// writes has one row width and sets exactly kBlockColumnar. A block
/// with no flag is the row-major form older stores used for ragged
/// rows, refused as kUnsupported rather than decoded; any other flag
/// word is kDataLoss.
inline constexpr uint16_t kBlockColumnar = 1;  ///< bit 0: columnar payload

/// Encodes a batch as a complete block file (header + payload).
/// kInvalidArgument when the payload would exceed kMaxFrameBytes (the
/// engine cuts blocks far smaller; only a single enormous row can hit
/// this, and it must fail here, not at read time).
Result<std::string> EncodeBlockFile(const vec::ColumnBatch& batch);

/// Decodes and checksum-verifies a whole block file into a positional
/// batch (empty layout). Corruption — wrong magic, bad checksum,
/// truncation, trailing garbage — is typed kDataLoss; a block is never
/// partially decoded into wrong rows.
///
/// With `keep`, only the marked columns are materialized (see
/// ReadFrameColumns); the checksum still covers the whole payload and
/// every skipped column is still validated. A block whose column count
/// differs from the mask's width is kInvalidArgument: its bytes are
/// intact, the reader's schema disagrees with them.
Result<vec::ColumnBatch> DecodeBlockFile(const std::string& bytes,
                                         const std::string& what,
                                         const vec::ColumnMask* keep = nullptr);

}  // namespace storage
}  // namespace cgq

#endif  // CGQ_STORAGE_BLOCK_H_
