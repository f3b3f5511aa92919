// Periodic engine checkpoints inside a journal directory, so recovery is
// checkpoint-load plus bounded tail replay instead of full-journal replay.
//
// A checkpoint file checkpoint-<records>.ckpt is the engine's state image
// (stream/image.hpp) after exactly <records> journal records were applied;
// recovery picks the newest checkpoint whose record count is covered by
// the valid journal prefix and replays only the records past it.  Files
// are written through util::write_file_durably (tmp + fsync + rename +
// directory fsync), and every byte is validated on load by the image
// reader.  A checkpoint is also a snapshot: `bgpintent serve --snapshot`
// serves one as it stands.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "stream/image.hpp"

namespace bgpintent::stream {

/// "checkpoint-<records>.ckpt" (zero-padded so lexicographic order is
/// record order) under `directory`.
[[nodiscard]] std::string checkpoint_file_name(std::uint64_t records);
[[nodiscard]] std::string checkpoint_path(const std::string& directory,
                                          std::uint64_t records);

/// Durably writes `image` as checkpoint-<records>.ckpt into `directory`.
/// Throws JournalError on IO failure.
void save_checkpoint(const std::string& directory, std::uint64_t records,
                     std::span<const std::uint8_t> image);

/// Loads and decodes one checkpoint file.  Throws JournalError on IO
/// failure or on any image the reader refuses.
[[nodiscard]] StateImage load_checkpoint(const std::string& path);

/// Every checkpoint-*.ckpt of `directory` as (records covered, path),
/// ascending.  Missing directories list as empty.
[[nodiscard]] std::vector<std::pair<std::uint64_t, std::string>>
list_checkpoints(const std::string& directory);

}  // namespace bgpintent::stream
