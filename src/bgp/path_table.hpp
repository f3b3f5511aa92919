// Path interning: each unique AS path is stored exactly once in a flat
// arena and referenced everywhere else by a dense 32-bit PathId.
//
// The paper's method operates on unique (AS path, community) tuples, and
// real routes carry many communities: materializing one AsPath copy per
// community multiplies both memory and per-tuple work (hashing, unique-ASN
// extraction, on-path scans) by the community count.  PathTable collapses
// that duplication at the ingestion boundary:
//
//   * All ASN slots live in one contiguous arena (`std::vector<Asn>`);
//     a path is an (offset, length) span into it plus a span of segment
//     descriptors, so interning N paths costs N spans, not N vectors of
//     vectors.
//   * Per-path facts are computed once at intern time: the structural
//     64-bit hash (identical to AsPath::hash()) and the sorted unique-ASN
//     span that makes contains() a binary search and unique-ASN iteration
//     an allocation-free span walk.
//   * Tuples shrink to trivially-copyable (PathId, Community) records —
//     8 bytes instead of a full AsPath copy.
//
// PathTable is append-only and single-writer; established ids and spans
// are never invalidated by later intern() calls from the same thread, and
// a const table is safe to read from many threads (the parallel
// observation build shards over a table interned up front).
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "bgp/aspath.hpp"
#include "bgp/community.hpp"
#include "bgp/route.hpp"

namespace bgpintent::bgp {

/// Dense index into a PathTable; ids are assigned 0, 1, 2, ... in intern
/// order, so parallel consumers can use plain vectors keyed by PathId.
using PathId = std::uint32_t;

/// The interned pipeline record: one unique path reference + one community.
struct InternedTuple {
  PathId path = 0;
  Community community;

  friend bool operator==(const InternedTuple&, const InternedTuple&) = default;
};

class PathTable {
 public:
  /// Interns `path`, returning the existing id when the identical path
  /// (full segment structure) was interned before.
  PathId intern(const AsPath& path);

  /// Interns a plain ASN sequence (one kSequence segment; empty sequence is
  /// the empty path) without materializing an AsPath.  Ids, hashes, and
  /// dedup behaviour are exactly as if `AsPath(std::vector<Asn>(...))` had
  /// been interned — the routing simulator's compact RIBs use this to fold
  /// per-AS best paths straight out of working vectors.
  PathId intern_sequence(std::span<const Asn> sequence);

  /// Id of an already-interned path; nullopt when never interned.
  [[nodiscard]] std::optional<PathId> find(const AsPath& path) const noexcept;

  /// Number of unique paths interned.
  [[nodiscard]] std::size_t size() const noexcept { return meta_.size(); }
  [[nodiscard]] bool empty() const noexcept { return meta_.empty(); }

  /// Structural hash, identical to AsPath::hash() of the interned path.
  [[nodiscard]] std::uint64_t hash(PathId id) const noexcept {
    return meta_[id].hash;
  }

  /// Every ASN slot of the path in order (prepends preserved), flattened
  /// across segments.
  [[nodiscard]] std::span<const Asn> asns(PathId id) const noexcept;

  /// Distinct ASNs of the path, ascending (computed once at intern time).
  [[nodiscard]] std::span<const Asn> unique_asns(PathId id) const noexcept;

  /// True if `asn` appears anywhere in the path (binary search over the
  /// sorted unique-ASN span).
  [[nodiscard]] bool contains(PathId id, Asn asn) const noexcept;

  /// Mirrors AsPath::next_toward_origin over the interned representation.
  [[nodiscard]] std::optional<Asn> next_toward_origin(PathId id,
                                                      Asn asn) const noexcept;

  /// Reconstructs a full AsPath value (tests / debugging; the hot path
  /// never needs it).
  [[nodiscard]] AsPath materialize(PathId id) const;

  /// Bytes held by the arenas and per-path metadata (capacity, not size, so
  /// the figure matches what the allocator is actually charged for).  The
  /// dedup index is included.  This is the "tuple storage" number the
  /// observation-core bench reports against the legacy per-tuple AsPath
  /// copies (docs/PERFORMANCE.md).
  [[nodiscard]] std::size_t memory_bytes() const noexcept;

  // --- arena export / import (columnar snapshot, docs/SERVING.md §3) ---
  //
  // The table's backing storage decomposed into flat primitive columns:
  // the two ASN arenas are borrowed straight from the live vectors, the
  // per-segment and per-path metadata are flattened into freshly built
  // parallel columns.  from_columns() is the exact inverse — PathIds,
  // hashes, spans, and dedup behaviour of the rebuilt table are identical
  // to the exported one, so evidence keyed by id or hash survives a
  // snapshot round-trip untouched.

  /// Owned/borrowed mix produced by export_columns(); the spans borrow the
  /// live arenas and stay valid only while the table is unmodified.
  struct ExportedColumns {
    std::span<const Asn> asn_arena;
    std::span<const Asn> uniq_arena;
    std::vector<std::uint8_t> seg_types;    ///< SegmentType per segment
    std::vector<std::uint32_t> seg_counts;  ///< ASN slots per segment
    // Per-path metadata, one entry per PathId in id order.
    std::vector<std::uint32_t> asn_begin, asn_count;
    std::vector<std::uint32_t> seg_begin, seg_count;
    std::vector<std::uint32_t> uniq_begin, uniq_count;
    std::vector<std::uint64_t> hashes;
  };
  [[nodiscard]] ExportedColumns export_columns() const;

  /// Borrowed views handed to from_columns(); the caller (the snapshot
  /// reader) owns the backing bytes and has already checksummed them.
  struct ImportColumns {
    std::span<const Asn> asn_arena;
    std::span<const Asn> uniq_arena;
    std::span<const std::uint8_t> seg_types;
    std::span<const std::uint32_t> seg_counts;
    std::span<const std::uint32_t> asn_begin, asn_count;
    std::span<const std::uint32_t> seg_begin, seg_count;
    std::span<const std::uint32_t> uniq_begin, uniq_count;
    std::span<const std::uint64_t> hashes;
  };
  /// Rebuilds a table from exported columns: arenas are copied, metadata is
  /// re-assembled, and the dedup index is reseeded from the persisted
  /// hashes, so intern() of an already-known path returns its original id.
  /// Throws std::invalid_argument when the column shapes are inconsistent
  /// (mismatched per-path column lengths, spans outside the arenas, or an
  /// invalid segment type byte).
  [[nodiscard]] static PathTable from_columns(const ImportColumns& columns);

 private:
  /// One AS_PATH segment of an interned path: `count` ASN slots of `type`,
  /// consumed in order from the path's flattened ASN span.
  struct SegmentSpan {
    SegmentType type = SegmentType::kSequence;
    std::uint32_t count = 0;
  };
  struct Meta {
    std::uint32_t asn_begin = 0;   // into asn_arena_
    std::uint32_t asn_count = 0;
    std::uint32_t seg_begin = 0;   // into seg_arena_
    std::uint32_t seg_count = 0;
    std::uint32_t uniq_begin = 0;  // into uniq_arena_
    std::uint32_t uniq_count = 0;
    std::uint64_t hash = 0;
  };

  /// Structural equality between an interned path and a candidate.
  [[nodiscard]] bool equals(PathId id, const AsPath& path) const noexcept;

  /// Structural equality against a single-sequence candidate.
  [[nodiscard]] bool equals_sequence(PathId id,
                                     std::span<const Asn> sequence)
      const noexcept;

  /// Grows the probe table to `capacity` slots (a power of two) and
  /// re-seeds it from meta_.
  void rehash(std::size_t capacity);
  /// First probe slot for `hash` (finalizer over the FNV hash so nearby
  /// hashes do not cluster in the table).
  [[nodiscard]] std::size_t probe_start(std::uint64_t hash) const noexcept;

  std::vector<Asn> asn_arena_;          // all slots, path after path
  std::vector<SegmentSpan> seg_arena_;  // all segments, path after path
  std::vector<Asn> uniq_arena_;         // sorted unique ASNs, path after path
  std::vector<Meta> meta_;              // indexed by PathId
  // Open-addressing dedup index: a flat power-of-two slot array holding
  // PathIds (kEmptySlot marks free), probed linearly.  intern() is the
  // hottest call in streaming ingest — one flat array beats a node-based
  // map by keeping the whole probe sequence in one or two cache lines.
  // Structurally distinct paths sharing a hash simply occupy separate
  // slots (full equality is checked before a hit is returned).
  static constexpr PathId kEmptySlot = 0xffffffffu;
  std::vector<PathId> slots_;
  std::size_t slot_mask_ = 0;
};

/// Expands RIB entries into interned tuples against `table`: each route's
/// path is interned once, then referenced by every community it carries.
/// The result vector is reserve()d from a counting pre-pass.  This is the
/// tuple-expansion helper behind Pipeline::run(entries); the streaming
/// twin is core::MrtIngest's sink.
[[nodiscard]] std::vector<InternedTuple> intern_entries(
    PathTable& table, std::span<const RibEntry> entries);

}  // namespace bgpintent::bgp
