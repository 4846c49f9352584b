// Canonical view checkpoints: the periodic full-state snapshots that bound
// WAL replay at recovery.
//
// A checkpoint file is a small text header followed by the canonical view
// image (parser::SerializeView):
//
//   mmv-checkpoint v1
//   epoch <e>            -- view epoch the image corresponds to
//   ext_counter <c>      -- external-support counter at that epoch
//   program <8 hex>      -- CRC32C of Program::ToString(): recovery refuses
//                           to replay against a different clause set
//   wal_offset <n>       -- end offset of the WAL segment at write time
//   atoms <n>            -- atom count (diagnostic)
//   checksum <8 hex>     -- CRC32C of the whole file minus this line
//   ---
//   <SerializeView body>
//
// The checksum line covers every other byte of the file (header AND body),
// so a torn or bit-flipped checkpoint is detected as a unit and skipped in
// favour of an older one. Files are written to a ".tmp" sibling and
// atomically renamed, so a crash mid-write never shadows a good
// checkpoint with a partial one.
//
// DELTA checkpoints ("dckpt-<epoch>.mmv", magic "mmv-checkpoint-delta v2")
// amortize the full image: between full-image cadence boundaries the
// writer records only what changed since the PARENT checkpoint (the
// immediately preceding one, full or delta). Same header discipline plus a
// `parent <epoch>` field; the body is line-oriented against the parent's
// composed image:
//
//   removed <pred>           -- the predicate vanished entirely
//   seg <pred> <n>           -- the predicate's segment changed: the next
//   at <start>+<len> ...        line lists its atoms' view positions as
//   <n atom lines>              ascending ranges (lengths sum to n), then
//                               n lines are its full new contents
//
// Segments the frame does not name keep the parent's atoms AND positions.
// Composition places every atom at its position: each slot in
// [0, header atoms) must be filled exactly once. Recovery composes newest
// full + descendant deltas + WAL tail; any invalid member fails the whole
// chain, falling back to an older head.

#ifndef MMV_DURABILITY_CHECKPOINT_H_
#define MMV_DURABILITY_CHECKPOINT_H_

#include <cstdint>
#include <string>
#include <string_view>

#include "common/result.h"

namespace mmv {
namespace durability {

/// \brief Header fields of one checkpoint file.
struct CheckpointMeta {
  uint64_t epoch = 0;
  int ext_counter = 0;
  uint32_t program_crc = 0;
  uint64_t wal_offset = 0;
  uint64_t atoms = 0;
};

/// \brief Renders a checkpoint file (header + checksum + body).
std::string EncodeCheckpoint(const CheckpointMeta& meta,
                             std::string_view body);

/// \brief Parses and VALIDATES a checkpoint file: structure, version and
/// whole-file checksum. On success the serialized view body is copied into
/// \p body. Failures name what broke — the caller decides whether to fall
/// back to an older checkpoint or fail recovery loudly.
Result<CheckpointMeta> DecodeCheckpoint(std::string_view file,
                                        std::string* body);

/// \brief Header fields of one DELTA checkpoint file ("dckpt-*.mmv").
struct DeltaCheckpointMeta {
  uint64_t epoch = 0;
  uint64_t parent = 0;  ///< epoch of the checkpoint this delta diffs against
  int ext_counter = 0;
  uint32_t program_crc = 0;
  uint64_t wal_offset = 0;
  uint64_t atoms = 0;  ///< atom count of the COMPOSED image (diagnostic +
                       ///  composition cross-check at recovery)
};

/// \brief Renders a delta checkpoint file (header + checksum + body).
std::string EncodeDeltaCheckpoint(const DeltaCheckpointMeta& meta,
                                  std::string_view body);

/// \brief Parses and VALIDATES a delta checkpoint file, like
/// DecodeCheckpoint (same whole-file checksum discipline).
Result<DeltaCheckpointMeta> DecodeDeltaCheckpoint(std::string_view file,
                                                  std::string* body);

/// \brief "ckpt-<epoch, zero-padded>.mmv" — zero padding keeps
/// lexicographic file order equal to epoch order.
std::string CheckpointFileName(uint64_t epoch);

/// \brief "dckpt-<epoch, zero-padded>.mmv": a delta frame against the
/// checkpoint named by its `parent` header field.
std::string DeltaCheckpointFileName(uint64_t epoch);

/// \brief "wal-<base, zero-padded>.log": the segment holding records with
/// seq > base (a fresh segment starts at every checkpoint).
std::string WalSegmentFileName(uint64_t base);

/// \brief Extracts the epoch/base out of a file name produced by the
/// helpers above; error if \p name has a different shape, including any
/// digit count other than the 20 they write (".tmp" siblings and foreign
/// files are NOT valid checkpoint/segment names).
Result<uint64_t> ParseCheckpointFileName(std::string_view name);
Result<uint64_t> ParseDeltaCheckpointFileName(std::string_view name);
Result<uint64_t> ParseWalSegmentFileName(std::string_view name);

/// \brief Parses a non-empty decimal digit string; a ParseError naming
/// \p what on any other character or on uint64_t overflow.
Result<uint64_t> ParseU64(std::string_view s, std::string_view what);

}  // namespace durability
}  // namespace mmv

#endif  // MMV_DURABILITY_CHECKPOINT_H_
