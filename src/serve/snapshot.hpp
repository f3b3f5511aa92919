// Serve-side access to state images (stream/image.hpp): the file a
// `bgpintent serve --snapshot` daemon restarts from, the SNAPSHOT verb
// writes, and a journal checkpoint already is.
//
// A restart either decodes the image onto the heap (load_snapshot) or maps
// it (MappedSnapshot): a mapped image's label columns become the daemon's
// first label epoch with zero decode work — pages fault in lazily, and N
// processes mapping one image share one physical copy — and the engine is
// restored from the mapping only when a request first needs it
// (docs/SERVING.md §3).  Saving goes through util::write_file_durably, so
// readers never observe a half-written file and the rename survives power
// loss.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <string>

#include "mrt/source.hpp"
#include "stream/image.hpp"

namespace bgpintent::serve {

/// Thrown on any malformed, corrupt, unsupported, or unreadable image.
using SnapshotError = stream::ImageError;

/// The only image version this build reads and writes.
inline constexpr std::uint32_t kSnapshotVersion = stream::kImageVersion;

/// Settles `engine` (one reclassification pass, whose label changes
/// publish as events) and durably writes its image to `path`.
void save_snapshot(stream::StreamEngine& engine, const std::string& path);

/// Reads and decodes an image file onto the heap.
[[nodiscard]] stream::StateImage load_snapshot(const std::string& path);

/// An image opened by mmap.  Open runs every check parse_image runs —
/// header, footer, segment table, every segment checksum, column shapes —
/// and decodes nothing; decode() runs the rest when the engine is needed.
class MappedSnapshot {
 public:
  [[nodiscard]] static std::shared_ptr<const MappedSnapshot> open(
      const std::string& path);

  [[nodiscard]] const stream::WindowConfig& config() const noexcept {
    return view_.config;
  }
  /// False for an image written with dirty alphas pending (a mid-stream
  /// checkpoint): its label columns predate the next reclassification.
  [[nodiscard]] bool settled() const noexcept { return view_.settled; }
  [[nodiscard]] std::uint64_t as_of_seq() const noexcept {
    return view_.as_of_seq;
  }

  /// The cached labels as two parallel columns: community wires
  /// (alpha<<16|beta, ascending) and their intents.
  [[nodiscard]] std::span<const std::uint32_t> label_wires() const noexcept {
    return view_.label_wires;
  }
  [[nodiscard]] std::span<const core::Intent> label_intents() const noexcept {
    return view_.label_intents;
  }

  /// The whole image, decoded onto the heap.
  [[nodiscard]] stream::StateImage decode() const;

 private:
  struct Private {};

 public:
  MappedSnapshot(Private, std::unique_ptr<const mrt::ByteSource> source,
                 stream::ImageView view) noexcept
      : source_(std::move(source)), view_(view) {}

 private:
  std::unique_ptr<const mrt::ByteSource> source_;
  stream::ImageView view_;
};

}  // namespace bgpintent::serve
