// The one persisted state format: a StreamEngine as a self-describing
// columnar image.  Journal checkpoints, `bgpintent serve --snapshot` files
// and the SNAPSHOT verb all write it; load_checkpoint, `serve --snapshot`
// and serve::MappedSnapshot all read it (docs/SERVING.md §3 spells out the
// layout):
//
//     offset  size  field
//     0       8     magic "BGPISNAP"
//     8       4     format version (u32 LE, = kImageVersion)
//     12      4     flags (u32 LE, reserved, must be 0)
//     16..    —     zero pad to 64
//     64..    —     segments, each 64-byte aligned, zero pad between
//     ...     —     segment table: one 32-byte entry per segment
//                   {kind u32, elem_width u32, offset u64, byte_size u64,
//                    XXH64 checksum u64}
//     end-32  32    footer {segment table offset u64, segment count u32,
//                   footer magic "SNP3" u32, segment table XXH64 u64,
//                   total file size u64}
//
// The segments, in file order: `meta` (the WindowConfig, whether the label
// cache is settled, and the event sequence it is settled at); the 11
// bgp::PathTable columns, which the reader hands to PathTable::from_columns
// instead of re-interning paths; the cached labels as two wire-sorted
// columns, `label_wires` and `label_intents`, which a mapped reader serves
// as the first label epoch without decoding anything else; and
// `engine_state`, the rest of the EngineState (epoch ring keys, dirty set,
// counters, event log) as a little-endian byte stream.
//
// Every byte is validated on load: header, footer, segment table, zero
// padding, every segment's XXH64, and every column shape.  Any version but
// kImageVersion is refused; snapshot versions 1-4 and checkpoint format 2
// get re-ingest guidance and are left as they are.
#pragma once

#include <cstdint>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

#include "bgp/path_table.hpp"
#include "stream/engine.hpp"

namespace bgpintent::stream {

/// Thrown on any malformed, corrupt, or unsupported image.
class ImageError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// The only version this build reads and writes.  It follows snapshot
/// format 4 and checkpoint format 2 (counted as a checkpoint format, it is
/// format 3).
inline constexpr std::uint32_t kImageVersion = 5;

/// A decoded image: what an engine restores from.
struct StateImage {
  WindowConfig config;
  /// `state.window.paths` is empty: the paths are `paths`.
  EngineState state;
  /// The interned paths, with the PathIds the ring keys reference.
  bgp::PathTable paths;
};

/// Serializes an engine image.  `state.window.paths` is ignored; `paths`
/// is the table its ring keys index.
[[nodiscard]] std::vector<std::uint8_t> encode_image(
    const WindowConfig& config, const EngineState& state,
    const bgp::PathTable& paths);

/// Validates and decodes an image onto the heap.  Throws ImageError.
[[nodiscard]] StateImage decode_image(std::span<const std::uint8_t> bytes);

/// A validated image before decoding: the spans alias the image bytes.
struct ImageView {
  WindowConfig config;
  /// True when the engine had no dirty alphas: the label columns answer
  /// exactly as the restored engine does.
  bool settled = false;
  /// The last event sequence the label columns reflect.
  std::uint64_t as_of_seq = 0;
  std::span<const std::uint32_t> label_wires;  ///< ascending
  std::span<const core::Intent> label_intents;
};

/// Runs every check decode_image runs on the columns (all of them but the
/// engine_state decode) without decoding.  Throws ImageError.
[[nodiscard]] ImageView parse_image(std::span<const std::uint8_t> bytes);

/// One named byte region of an image (a segment, the segment table, or the
/// footer).  Exposed so corruption tests can aim damage at every region;
/// the names match the region named in the rejection message.
struct ImageRegion {
  std::string name;
  std::size_t offset = 0;
  std::size_t length = 0;
};

/// Enumerates the regions of a well-formed image (throws ImageError if
/// `bytes` is not one).
[[nodiscard]] std::vector<ImageRegion> image_regions(
    std::span<const std::uint8_t> bytes);

}  // namespace bgpintent::stream
