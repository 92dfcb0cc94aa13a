// Durable checkpointing of aggregator state: a versioned binary container
// for the per-shard AggregatorSnapshots of every collection, so a
// Collector can restart without replaying the wire stream
// (docs/wire-format.md specifies every byte). engine::Collector is the only
// writer and reader of checkpoint files; ShardedAggregator only hands out
// and takes back snapshots.
//
// Two container versions share the 20-byte header (all integers
// little-endian, mirroring the u32 length-prefix framing of
// protocols/wire.h):
//
//   header (20 bytes)
//     [0,8)    magic "LDPMCKPT"
//     [8,12)   u32 format version (1 or 2)
//     [12,16)  u32 record count (v1: snapshots S; v2: collections C)
//     [16,20)  u32 CRC-32C over bytes [0,16)
//
// Version 1 — one anonymous collection (written by older builds; still
// restored, and produced by EncodeCheckpoint for fixtures):
//   record, S times
//     u32      payload length L
//     L bytes  snapshot payload (SerializeSnapshot encoding)
//     u32      CRC-32C over the L payload bytes
//
// Version 2 — the multi-collection container (what Collector writes):
//   collection block, C times
//     u16      collection id byte length (>= 1)
//     bytes    collection id
//     u32      snapshot count S for this collection
//     u32      CRC-32C over this block's preceding bytes (id length
//              prefix, id, snapshot count)
//     record, S times — identical to the v1 record layout
//
// Both versions end exactly after the last record; trailing bytes are
// treated as corruption. Loading validates magic, header CRC, version
// (files with a newer version are rejected rather than misparsed —
// forward compat), record framing, and every CRC, so truncation and bit
// flips anywhere in the file surface as a Status error instead of
// silently restoring biased state. V2 readers restore v1 files as a
// single collection with an empty id.
//
// The snapshot payload is protocol-agnostic (the flattened accumulator
// arrays of AggregatorSnapshot), so the container also checkpoints
// protocols without a wire format (InpOLH, InpHTCMS).

#ifndef LDPM_ENGINE_CHECKPOINT_H_
#define LDPM_ENGINE_CHECKPOINT_H_

#include <cstdint>
#include <string>
#include <vector>

#include "protocols/protocol.h"

namespace ldpm {
namespace engine {

/// Newest checkpoint file format version this build reads and writes
/// (the multi-collection container).
inline constexpr uint32_t kCheckpointFormatVersion = 2;

/// The single-collection container version (EncodeCheckpoint's output).
/// No production path writes it any more; the decoders keep reading it so
/// files from older builds still restore.
inline constexpr uint32_t kCheckpointFormatVersionV1 = 1;

/// The 8 magic bytes at offset 0 of every checkpoint file.
inline constexpr char kCheckpointMagic[8] = {'L', 'D', 'P', 'M',
                                             'C', 'K', 'P', 'T'};

/// One named collection's worth of checkpoint state: the per-shard
/// snapshots of the engine backing it.
struct CollectionCheckpoint {
  std::string id;
  std::vector<AggregatorSnapshot> snapshots;
};

/// Serializes one snapshot into a record payload (the bytes a checkpoint
/// record length-prefixes and checksums).
std::vector<uint8_t> SerializeSnapshot(const AggregatorSnapshot& snapshot);

/// Parses a record payload back into a snapshot; the inverse of
/// SerializeSnapshot. Rejects truncated or over-long payloads and
/// out-of-range enum encodings with a precise error.
StatusOr<AggregatorSnapshot> DeserializeSnapshot(const uint8_t* data,
                                                 size_t size);

/// Encodes a single-collection (version 1) checkpoint image (header +
/// records + checksums) — the legacy format, kept for compatibility
/// fixtures and fuzz seeds. InvalidArgument if the snapshot count or a
/// record payload overflows the u32 framing fields (nothing unrestorable
/// is ever produced).
StatusOr<std::vector<uint8_t>> EncodeCheckpoint(
    const std::vector<AggregatorSnapshot>& snapshots);

/// Decodes and validates a single-collection checkpoint image; the inverse
/// of EncodeCheckpoint. Also accepts a version-2 image that holds exactly
/// one collection (the id is dropped); a multi-collection image is
/// rejected with a message pointing at Collector::RestoreFrom. Any
/// framing, version, or checksum violation is an InvalidArgument naming
/// the failing byte offset.
StatusOr<std::vector<AggregatorSnapshot>> DecodeCheckpoint(const uint8_t* data,
                                                           size_t size);

/// Encodes a multi-collection (version 2) checkpoint image. Collection ids
/// must be non-empty, unique, and fit the u16 length prefix.
StatusOr<std::vector<uint8_t>> EncodeCollectorCheckpoint(
    const std::vector<CollectionCheckpoint>& collections);

/// Decodes and validates either container version: a version-1 image
/// yields one collection with an empty id; version 2 yields every
/// collection in file order.
StatusOr<std::vector<CollectionCheckpoint>> DecodeCollectorCheckpoint(
    const uint8_t* data, size_t size);

/// Reads and validates the checkpoint at `path` in either container
/// version (see DecodeCollectorCheckpoint). NotFound if the file does not
/// exist; InvalidArgument on any corruption.
StatusOr<std::vector<CollectionCheckpoint>> ReadCollectorCheckpoint(
    const std::string& path);

// ---- Checkpoint generations --------------------------------------------
//
// With N generations configured, a checkpoint write first rotates the
// existing files (path.N-2 -> path.N-1, ..., path -> path.1, newest
// first) and then atomically installs the new image at `path` — so the
// last N successful checkpoints coexist on disk. Restore walks newest to
// oldest: a generation that fails validation (truncation, bit flips) is
// quarantined by renaming it to `<file>.corrupt` — out of the rotation,
// available for inspection — and the walk falls back to the next older
// generation. A crash between the rotation renames is safe: restore
// simply finds the previous newest at `path.1`.

/// The on-disk name of generation `generation` (0 = `path` itself, the
/// newest; k > 0 = `path.k`).
std::string CheckpointGenerationPath(const std::string& path, int generation);

/// Rotates existing generation files to make room for a new write of
/// `path` (see above). Missing generations are skipped; a rename failure
/// is an Internal error. A no-op when `generations` <= 1.
Status RotateCheckpointGenerations(const std::string& path, int generations);

/// How a fallback restore found its file (all fields valid on success).
struct CheckpointFallbackInfo {
  /// Generation index actually restored (0 = the newest).
  int generation = 0;
  /// File actually restored.
  std::string path;
  /// Corrupt generation files renamed to `*.corrupt` during the walk.
  std::vector<std::string> quarantined;
};

/// Reads the newest restorable generation of a checkpoint in either
/// container version, quarantining corrupt generations along the way (see
/// above). NotFound when no generation file exists at all; otherwise the
/// last validation error when every existing generation is corrupt.
StatusOr<std::vector<CollectionCheckpoint>>
ReadCollectorCheckpointWithFallback(const std::string& path, int generations,
                                    CheckpointFallbackInfo* info = nullptr);

}  // namespace engine
}  // namespace ldpm

#endif  // LDPM_ENGINE_CHECKPOINT_H_
