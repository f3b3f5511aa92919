#include "bgp/path_table.hpp"

#include <algorithm>
#include <stdexcept>

namespace bgpintent::bgp {

bool PathTable::equals(PathId id, const AsPath& path) const noexcept {
  const Meta& m = meta_[id];
  const auto& segments = path.segments();
  if (segments.size() != m.seg_count) return false;
  const Asn* slot = asn_arena_.data() + m.asn_begin;
  for (std::uint32_t s = 0; s < m.seg_count; ++s) {
    const SegmentSpan& seg = seg_arena_[m.seg_begin + s];
    if (segments[s].type != seg.type || segments[s].asns.size() != seg.count)
      return false;
    if (!std::equal(segments[s].asns.begin(), segments[s].asns.end(), slot))
      return false;
    slot += seg.count;
  }
  return true;
}

std::size_t PathTable::probe_start(std::uint64_t hash) const noexcept {
  // Fibonacci finalizer: the FNV path hash is well mixed in the low bits,
  // but one multiply costs nothing and keeps the linear probe sequences
  // short even for adversarial inputs.
  return static_cast<std::size_t>((hash * 0x9e3779b97f4a7c15ULL) >> 32) &
         slot_mask_;
}

void PathTable::rehash(std::size_t capacity) {
  slots_.assign(capacity, kEmptySlot);
  slot_mask_ = capacity - 1;
  for (PathId id = 0; id < meta_.size(); ++id) {
    std::size_t slot = probe_start(meta_[id].hash);
    while (slots_[slot] != kEmptySlot) slot = (slot + 1) & slot_mask_;
    slots_[slot] = id;
  }
}

std::optional<PathId> PathTable::find(const AsPath& path) const noexcept {
  if (slots_.empty()) return std::nullopt;
  const std::uint64_t h = path.hash();
  for (std::size_t slot = probe_start(h);; slot = (slot + 1) & slot_mask_) {
    const PathId id = slots_[slot];
    if (id == kEmptySlot) return std::nullopt;
    if (meta_[id].hash == h && equals(id, path)) return id;
  }
}

PathId PathTable::intern(const AsPath& path) {
  // Grow at 7/8 load so probe sequences stay short.
  if (slots_.size() - meta_.size() <= slots_.size() / 8)
    rehash(slots_.empty() ? 64 : slots_.size() * 2);
  const std::uint64_t h = path.hash();
  std::size_t slot = probe_start(h);
  for (;; slot = (slot + 1) & slot_mask_) {
    const PathId id = slots_[slot];
    if (id == kEmptySlot) break;
    if (meta_[id].hash == h && equals(id, path)) return id;
  }
  slots_[slot] = static_cast<PathId>(meta_.size());

  Meta m;
  m.hash = h;
  m.asn_begin = static_cast<std::uint32_t>(asn_arena_.size());
  m.seg_begin = static_cast<std::uint32_t>(seg_arena_.size());
  for (const PathSegment& seg : path.segments()) {
    seg_arena_.push_back(
        SegmentSpan{seg.type, static_cast<std::uint32_t>(seg.asns.size())});
    asn_arena_.insert(asn_arena_.end(), seg.asns.begin(), seg.asns.end());
  }
  m.asn_count = static_cast<std::uint32_t>(asn_arena_.size()) - m.asn_begin;
  m.seg_count = static_cast<std::uint32_t>(seg_arena_.size()) - m.seg_begin;

  m.uniq_begin = static_cast<std::uint32_t>(uniq_arena_.size());
  uniq_arena_.insert(uniq_arena_.end(), asn_arena_.begin() + m.asn_begin,
                     asn_arena_.end());
  const auto uniq_begin = uniq_arena_.begin() + m.uniq_begin;
  std::sort(uniq_begin, uniq_arena_.end());
  uniq_arena_.erase(std::unique(uniq_begin, uniq_arena_.end()),
                    uniq_arena_.end());
  m.uniq_count = static_cast<std::uint32_t>(uniq_arena_.size()) - m.uniq_begin;

  const PathId id = static_cast<PathId>(meta_.size());
  meta_.push_back(m);
  return id;
}

bool PathTable::equals_sequence(PathId id,
                                std::span<const Asn> sequence) const noexcept {
  const Meta& m = meta_[id];
  if (sequence.empty()) return m.seg_count == 0;
  if (m.seg_count != 1) return false;
  const SegmentSpan& seg = seg_arena_[m.seg_begin];
  if (seg.type != SegmentType::kSequence || seg.count != sequence.size())
    return false;
  return std::equal(sequence.begin(), sequence.end(),
                    asn_arena_.data() + m.asn_begin);
}

PathId PathTable::intern_sequence(std::span<const Asn> sequence) {
  if (slots_.size() - meta_.size() <= slots_.size() / 8)
    rehash(slots_.empty() ? 64 : slots_.size() * 2);
  // FNV-1a, byte-for-byte the AsPath::hash() of a single kSequence segment
  // (AsPath drops empty segments, so an empty sequence hashes to the basis).
  std::uint64_t h = 0xcbf29ce484222325ULL;
  auto mix = [&h](std::uint64_t v) {
    h ^= v;
    h *= 0x100000001b3ULL;
  };
  if (!sequence.empty()) {
    mix(static_cast<std::uint64_t>(SegmentType::kSequence) << 32 |
        sequence.size());
    for (Asn a : sequence) mix(a);
  }
  std::size_t slot = probe_start(h);
  for (;; slot = (slot + 1) & slot_mask_) {
    const PathId id = slots_[slot];
    if (id == kEmptySlot) break;
    if (meta_[id].hash == h && equals_sequence(id, sequence)) return id;
  }
  slots_[slot] = static_cast<PathId>(meta_.size());

  Meta m;
  m.hash = h;
  m.asn_begin = static_cast<std::uint32_t>(asn_arena_.size());
  m.seg_begin = static_cast<std::uint32_t>(seg_arena_.size());
  if (!sequence.empty()) {
    seg_arena_.push_back(SegmentSpan{
        SegmentType::kSequence, static_cast<std::uint32_t>(sequence.size())});
    asn_arena_.insert(asn_arena_.end(), sequence.begin(), sequence.end());
  }
  m.asn_count = static_cast<std::uint32_t>(asn_arena_.size()) - m.asn_begin;
  m.seg_count = static_cast<std::uint32_t>(seg_arena_.size()) - m.seg_begin;

  m.uniq_begin = static_cast<std::uint32_t>(uniq_arena_.size());
  uniq_arena_.insert(uniq_arena_.end(), sequence.begin(), sequence.end());
  const auto uniq_begin = uniq_arena_.begin() + m.uniq_begin;
  std::sort(uniq_begin, uniq_arena_.end());
  uniq_arena_.erase(std::unique(uniq_begin, uniq_arena_.end()),
                    uniq_arena_.end());
  m.uniq_count = static_cast<std::uint32_t>(uniq_arena_.size()) - m.uniq_begin;

  const PathId id = static_cast<PathId>(meta_.size());
  meta_.push_back(m);
  return id;
}

std::span<const Asn> PathTable::asns(PathId id) const noexcept {
  const Meta& m = meta_[id];
  return {asn_arena_.data() + m.asn_begin, m.asn_count};
}

std::span<const Asn> PathTable::unique_asns(PathId id) const noexcept {
  const Meta& m = meta_[id];
  return {uniq_arena_.data() + m.uniq_begin, m.uniq_count};
}

bool PathTable::contains(PathId id, Asn asn) const noexcept {
  const std::span<const Asn> uniq = unique_asns(id);
  return std::binary_search(uniq.begin(), uniq.end(), asn);
}

std::optional<Asn> PathTable::next_toward_origin(PathId id,
                                                 Asn asn) const noexcept {
  const Meta& m = meta_[id];
  const Asn* slot = asn_arena_.data() + m.asn_begin;
  for (std::uint32_t s = 0; s < m.seg_count; ++s) {
    const SegmentSpan& seg = seg_arena_[m.seg_begin + s];
    if (seg.type != SegmentType::kSequence) {
      slot += seg.count;
      continue;
    }
    for (std::uint32_t i = 0; i < seg.count; ++i) {
      if (slot[i] != asn) continue;
      // Skip prepends of asn itself.
      std::uint32_t j = i;
      while (j < seg.count && slot[j] == asn) ++j;
      if (j < seg.count) return slot[j];
      // Next element is in the following segment.
      if (s + 1 < m.seg_count) {
        const SegmentSpan& next = seg_arena_[m.seg_begin + s + 1];
        if (next.type == SegmentType::kSequence && next.count > 0)
          return slot[seg.count];
      }
      return std::nullopt;
    }
    slot += seg.count;
  }
  return std::nullopt;
}

AsPath PathTable::materialize(PathId id) const {
  const Meta& m = meta_[id];
  std::vector<PathSegment> segments;
  segments.reserve(m.seg_count);
  const Asn* slot = asn_arena_.data() + m.asn_begin;
  for (std::uint32_t s = 0; s < m.seg_count; ++s) {
    const SegmentSpan& seg = seg_arena_[m.seg_begin + s];
    segments.push_back(
        PathSegment{seg.type, std::vector<Asn>(slot, slot + seg.count)});
    slot += seg.count;
  }
  return AsPath(std::move(segments));
}

PathTable::ExportedColumns PathTable::export_columns() const {
  ExportedColumns out;
  out.asn_arena = asn_arena_;
  out.uniq_arena = uniq_arena_;
  out.seg_types.reserve(seg_arena_.size());
  out.seg_counts.reserve(seg_arena_.size());
  for (const SegmentSpan& seg : seg_arena_) {
    out.seg_types.push_back(static_cast<std::uint8_t>(seg.type));
    out.seg_counts.push_back(seg.count);
  }
  const std::size_t n = meta_.size();
  out.asn_begin.reserve(n);
  out.asn_count.reserve(n);
  out.seg_begin.reserve(n);
  out.seg_count.reserve(n);
  out.uniq_begin.reserve(n);
  out.uniq_count.reserve(n);
  out.hashes.reserve(n);
  for (const Meta& m : meta_) {
    out.asn_begin.push_back(m.asn_begin);
    out.asn_count.push_back(m.asn_count);
    out.seg_begin.push_back(m.seg_begin);
    out.seg_count.push_back(m.seg_count);
    out.uniq_begin.push_back(m.uniq_begin);
    out.uniq_count.push_back(m.uniq_count);
    out.hashes.push_back(m.hash);
  }
  return out;
}

PathTable PathTable::from_columns(const ImportColumns& columns) {
  const std::size_t n = columns.hashes.size();
  if (columns.asn_begin.size() != n || columns.asn_count.size() != n ||
      columns.seg_begin.size() != n || columns.seg_count.size() != n ||
      columns.uniq_begin.size() != n || columns.uniq_count.size() != n)
    throw std::invalid_argument("path columns: per-path column length mismatch");
  if (columns.seg_types.size() != columns.seg_counts.size())
    throw std::invalid_argument("path columns: segment column length mismatch");

  PathTable table;
  table.asn_arena_.assign(columns.asn_arena.begin(), columns.asn_arena.end());
  table.uniq_arena_.assign(columns.uniq_arena.begin(),
                           columns.uniq_arena.end());
  table.seg_arena_.reserve(columns.seg_types.size());
  for (std::size_t s = 0; s < columns.seg_types.size(); ++s) {
    const std::uint8_t type = columns.seg_types[s];
    if (type != static_cast<std::uint8_t>(SegmentType::kSet) &&
        type != static_cast<std::uint8_t>(SegmentType::kSequence))
      throw std::invalid_argument("path columns: invalid segment type");
    table.seg_arena_.push_back(
        SegmentSpan{static_cast<SegmentType>(type), columns.seg_counts[s]});
  }
  table.meta_.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    Meta m;
    m.asn_begin = columns.asn_begin[i];
    m.asn_count = columns.asn_count[i];
    m.seg_begin = columns.seg_begin[i];
    m.seg_count = columns.seg_count[i];
    m.uniq_begin = columns.uniq_begin[i];
    m.uniq_count = columns.uniq_count[i];
    m.hash = columns.hashes[i];
    if (std::uint64_t{m.asn_begin} + m.asn_count > table.asn_arena_.size() ||
        std::uint64_t{m.seg_begin} + m.seg_count > table.seg_arena_.size() ||
        std::uint64_t{m.uniq_begin} + m.uniq_count > table.uniq_arena_.size())
      throw std::invalid_argument("path columns: span outside arena");
    table.meta_.push_back(m);
  }
  // Rebuild the dedup index at the same load factor intern() maintains, so
  // the first post-import intern() neither rehashes eagerly nor probes an
  // over-full table.
  if (n > 0) {
    // Grow while free slots (capacity - n) would be <= capacity/8, written
    // without the subtraction so n > capacity cannot underflow and leave
    // the probe table over-full (a full table makes rehash() spin forever).
    std::size_t capacity = 64;
    while (n + capacity / 8 >= capacity) capacity *= 2;
    table.rehash(capacity);
  }
  return table;
}

std::size_t PathTable::memory_bytes() const noexcept {
  return asn_arena_.capacity() * sizeof(Asn) +
         seg_arena_.capacity() * sizeof(SegmentSpan) +
         uniq_arena_.capacity() * sizeof(Asn) +
         meta_.capacity() * sizeof(Meta) +
         slots_.capacity() * sizeof(PathId);
}

std::vector<InternedTuple> intern_entries(PathTable& table,
                                          std::span<const RibEntry> entries) {
  std::size_t tuple_count = 0;
  for (const RibEntry& entry : entries)
    tuple_count += entry.route.communities.size();
  std::vector<InternedTuple> tuples;
  tuples.reserve(tuple_count);
  for (const RibEntry& entry : entries) {
    if (entry.route.communities.empty()) continue;  // contributes no tuples
    const PathId id = table.intern(entry.route.path);
    for (const Community community : entry.route.communities)
      tuples.push_back(InternedTuple{id, community});
  }
  return tuples;
}

}  // namespace bgpintent::bgp
