// Versioned binary persistence for IncrementalClassifier state.
//
// The serve daemon must survive restarts without replaying weeks of BGP
// data, so the complete classifier state — configs, per-community path-hash
// accumulators, cached labels, dirty set, interned-path arenas, ingest
// counter — round-trips through one self-describing columnar image
// (docs/SERVING.md §3 spells out the layout):
//
//     offset  size  field
//     0       8     magic "BGPISNAP"
//     8       4     format version (u32 LE, = kSnapshotVersion)
//     12      4     flags (u32 LE, reserved, must be 0)
//     16..    —     zero pad to 64
//     64..    —     column segments, each 64-byte aligned, zero pad between
//     ...     —     segment table: one 32-byte entry per segment
//                   {kind u32, elem_width u32, offset u64, byte_size u64,
//                    XXH64 checksum u64}
//     end-32  32    footer {segment table offset u64, segment count u32,
//                   footer magic "SNP3" u32, segment table XXH64 u64,
//                   total file size u64}
//
// Every column is a flat array of fixed-width little-endian elements, so a
// reader on a little-endian host can serve straight out of an mmap of the
// file — no per-record decode, pages fault in lazily, and N processes
// mapping one snapshot share one physical copy (serve::MappedSnapshot +
// core::StateView).
//
// Loading rejects, with a SnapshotError that names the problem and the
// failing region: wrong magic, any version but kSnapshotVersion, checksum
// mismatches (bit rot, torn writes), truncated input, trailing bytes, and
// any structural inconsistency between columns.  save_snapshot() writes
// through util::write_file_durably, so readers never observe a
// half-written file and the rename survives power loss.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/incremental.hpp"
#include "core/state_view.hpp"
#include "mrt/source.hpp"

namespace bgpintent::serve {

/// Thrown on any malformed, corrupt, or unsupported snapshot input.
class SnapshotError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// The only version this build reads and writes.  Older versions (1-3)
/// are refused with re-ingest guidance and left as they are.
inline constexpr std::uint32_t kSnapshotVersion = 4;

/// Serializes the classifier (configs + full state, interned-path arenas
/// included, so a restart skips re-interning).
[[nodiscard]] std::vector<std::uint8_t> encode_snapshot(
    const core::IncrementalClassifier& classifier);

/// Reconstructs a classifier from encode_snapshot() output onto the heap.
/// The org map is not persisted — re-attach it with set_org_map() after
/// loading.  Throws SnapshotError on corrupt or unsupported input.
[[nodiscard]] core::IncrementalClassifier decode_snapshot(
    std::span<const std::uint8_t> bytes);

/// File variants; both throw SnapshotError on IO failure.  Saving goes
/// through util::write_file_durably, so a crash mid-write never corrupts
/// the previous snapshot.
void save_snapshot(const core::IncrementalClassifier& classifier,
                   const std::string& path);
[[nodiscard]] core::IncrementalClassifier load_snapshot(
    const std::string& path);

/// A snapshot opened by mmap: the file's columns become borrowed
/// core::StateColumns with zero decode work, and the mapping stays alive
/// for as long as any StateView handed out by state_view() is referenced.
/// Open runs the same validation as decode_snapshot(): header, footer,
/// segment table, every segment checksum, and column shapes.
class MappedSnapshot : public std::enable_shared_from_this<MappedSnapshot> {
 public:
  [[nodiscard]] static std::shared_ptr<MappedSnapshot> open(
      const std::string& path);

  [[nodiscard]] const core::ClassifierConfig& classifier_config()
      const noexcept {
    return config_;
  }
  [[nodiscard]] const core::ObservationConfig& observation_config()
      const noexcept {
    return observation_;
  }

  /// The snapshot's columns as a borrowed view; the returned view keeps
  /// this MappedSnapshot (and thus the mapping) alive.  Hand it to
  /// IncrementalClassifier::restore_view.
  [[nodiscard]] std::shared_ptr<const core::StateView> state_view() const;

  /// The pre-flattened serve columns — label_snapshot() as two parallel
  /// arrays of (alpha<<16|beta) wires (sorted ascending) and intents —
  /// for building the initial RCU label epoch without touching any other
  /// column.
  [[nodiscard]] std::span<const std::uint32_t> label_wires() const noexcept {
    return columns_.serve_wires;
  }
  [[nodiscard]] std::span<const core::Intent> label_intents() const noexcept {
    return columns_.serve_intents;
  }

 private:
  struct Private {};

 public:
  MappedSnapshot(Private, std::unique_ptr<const mrt::ByteSource> source,
                 core::ClassifierConfig config,
                 core::ObservationConfig observation,
                 core::StateColumns columns) noexcept
      : source_(std::move(source)),
        config_(config),
        observation_(observation),
        columns_(columns) {}

 private:
  std::unique_ptr<const mrt::ByteSource> source_;
  core::ClassifierConfig config_;
  core::ObservationConfig observation_;
  core::StateColumns columns_;
};

/// One named byte region of an image (a column segment, the segment
/// table, or the footer).  Exposed so corruption tests can aim damage at
/// every region and assert each one is individually defended; the names
/// match the region named in the rejection message.
struct SnapshotRegion {
  std::string name;
  std::size_t offset = 0;
  std::size_t length = 0;
};

/// Enumerates the regions of a well-formed image (throws SnapshotError if
/// `bytes` is not one).
[[nodiscard]] std::vector<SnapshotRegion> snapshot_regions(
    std::span<const std::uint8_t> bytes);

}  // namespace bgpintent::serve
