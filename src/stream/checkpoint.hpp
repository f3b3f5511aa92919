// Periodic engine checkpoints inside a journal directory, so recovery is
// checkpoint-load plus bounded tail replay instead of full-journal replay.
//
// A checkpoint file checkpoint-<records>.ckpt captures the engine state
// after exactly <records> journal records were applied; recovery picks the
// newest checkpoint whose record count is covered by the valid journal
// prefix and replays only the records past it.  Files are written through
// util::write_file_durably (tmp + fsync + rename + directory fsync), and
// every byte is validated on load: the header fields are checked one by
// one and the payload against its XXH64.
//
//   offset  size  field
//   0       8     magic "BGPIJCKP"
//   8       4     format version (u32, = kCheckpointVersion)
//   12      8     XXH64 of the payload bytes (u64)
//   20      8     payload size in bytes (u64)
//   28      ...   payload (WindowConfig + EngineState, little-endian)
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "stream/engine.hpp"

namespace bgpintent::stream {

/// The checkpoint format version this build writes; readers accept
/// exactly this version.
inline constexpr std::uint32_t kCheckpointVersion = 2;

/// Bytes of a checkpoint header (magic + version + checksum + size).
inline constexpr std::size_t kCheckpointHeaderBytes = 28;

struct CheckpointData {
  /// The WindowConfig the state was captured under — restoring into an
  /// engine with a different config would silently reclassify differently,
  /// so recovery verifies it (and it wins over CLI flags, like the serve
  /// snapshot config does).
  WindowConfig config;
  EngineState state;
};

/// Encodes / decodes the checkpoint payload (header excluded).
/// decode_checkpoint_payload throws JournalError on malformed input.
[[nodiscard]] std::vector<std::uint8_t> encode_checkpoint_payload(
    const CheckpointData& data);
[[nodiscard]] CheckpointData decode_checkpoint_payload(
    std::span<const std::uint8_t> payload);

/// "checkpoint-<records>.ckpt" (zero-padded so lexicographic order is
/// record order) under `directory`.
[[nodiscard]] std::string checkpoint_file_name(std::uint64_t records);
[[nodiscard]] std::string checkpoint_path(const std::string& directory,
                                          std::uint64_t records);

/// Durably writes checkpoint-<records>.ckpt into `directory`.  Throws
/// JournalError on IO failure.
void save_checkpoint(const std::string& directory, std::uint64_t records,
                     const CheckpointData& data);

/// Loads and verifies one checkpoint file.  Throws JournalError on IO
/// failure, bad magic/version, checksum mismatch, or malformed payload.
[[nodiscard]] CheckpointData load_checkpoint(const std::string& path);

/// Every checkpoint-*.ckpt of `directory` as (records covered, path),
/// ascending.  Missing directories list as empty.
[[nodiscard]] std::vector<std::pair<std::uint64_t, std::string>>
list_checkpoints(const std::string& directory);

}  // namespace bgpintent::stream
