#include "stream/image.hpp"

#include <array>
#include <bit>
#include <cstring>

#include "util/bytes.hpp"
#include "util/checksum.hpp"
#include "util/strings.hpp"

namespace bgpintent::stream {

// The mapped reader hands out typed spans straight into the file image, so
// it only works where the in-memory representation *is* the on-disk one.
static_assert(std::endian::native == std::endian::little,
              "state image mmap reading requires a little-endian host");

namespace {

using Cursor = util::ByteReader<ImageError>;
using util::put;
using util::put_double;

constexpr char kMagic[8] = {'B', 'G', 'P', 'I', 'S', 'N', 'A', 'P'};
/// The magic of the row-format checkpoints (format 2) this image replaced.
constexpr char kLegacyCheckpointMagic[8] = {'B', 'G', 'P', 'I',
                                            'J', 'C', 'K', 'P'};

constexpr std::size_t kHeaderBytes = 16;
constexpr std::size_t kAlign = 64;
constexpr std::size_t kEntryBytes = 32;
constexpr std::size_t kFooterBytes = 32;
constexpr std::size_t kMetaBytes = 40;
constexpr std::uint32_t kFooterMagic = 0x33504e53;  // "SNP3" little-endian

// Segment kinds, in the exact order they appear in the file and in the
// segment table.  The reader insists on exactly this set in this order so
// a corrupt table cannot silently drop or duplicate a column.
enum SegmentKind : std::uint32_t {
  kSegMeta = 1,
  kSegPathAsnArena,
  kSegPathUniqArena,
  kSegPathSegTypes,
  kSegPathSegCounts,
  kSegPathAsnBegin,
  kSegPathAsnCount,
  kSegPathSegBegin,
  kSegPathSegCount,
  kSegPathUniqBegin,
  kSegPathUniqCount,
  kSegPathHashes,
  kSegLabelWires,
  kSegLabelIntents,
  kSegEngineState,
};

struct KindInfo {
  const char* name;
  std::size_t width;  ///< element width in bytes
};
constexpr KindInfo kSegmentKinds[] = {
    {"meta", kMetaBytes},
    {"path_asn_arena", 4},
    {"path_uniq_arena", 4},
    {"path_seg_types", 1},
    {"path_seg_counts", 4},
    {"path_asn_begin", 4},
    {"path_asn_count", 4},
    {"path_seg_begin", 4},
    {"path_seg_count", 4},
    {"path_uniq_begin", 4},
    {"path_uniq_count", 4},
    {"path_hashes", 8},
    {"label_wires", 4},
    {"label_intents", 1},
    {"engine_state", 1},
};
constexpr std::size_t kSegmentCount = std::size(kSegmentKinds);

[[nodiscard]] ImageError region_error(SegmentKind kind, const char* what) {
  return ImageError(util::format("state image segment '%s' %s",
                                 kSegmentKinds[kind - 1].name, what));
}

[[nodiscard]] Intent get_intent(Cursor& cursor) {
  const std::uint8_t raw = cursor.get<std::uint8_t>();
  if (raw > static_cast<std::uint8_t>(Intent::kUnclassified))
    throw region_error(kSegEngineState, "holds an invalid intent byte");
  return static_cast<Intent>(raw);
}

/// The EngineState minus its paths (columns) and cached labels (the label
/// columns).
void put_engine_state(std::vector<std::uint8_t>& out,
                      const EngineState& state) {
  const WindowState& window = state.window;
  put<std::uint64_t>(out, window.ring.size());
  for (const WindowState::EpochState& epoch : window.ring) {
    put<std::uint64_t>(out, epoch.id);
    put<std::uint64_t>(out, epoch.tuples.size());
    for (const auto& [key, count] : epoch.tuples) put<std::uint64_t>(out, key);
  }
  put<std::uint64_t>(out, window.dirty.size());
  for (const std::uint16_t alpha : window.dirty) put<std::uint16_t>(out, alpha);
  put<std::uint8_t>(out, window.started ? 1 : 0);
  put<std::uint64_t>(out, window.current_epoch);
  put<std::uint32_t>(out, window.latest_timestamp);
  put<std::uint64_t>(out, window.announces);
  put<std::uint64_t>(out, window.withdraws);
  put<std::uint64_t>(out, window.expired_epochs);
  put<std::uint64_t>(out, window.reclassified_communities);

  put<std::uint64_t>(out, state.events.size());
  for (const Event& event : state.events) {
    put<std::uint64_t>(out, event.seq);
    put<std::uint32_t>(out, event.change.community.wire());
    put<std::uint8_t>(out, static_cast<std::uint8_t>(event.change.previous));
    put<std::uint8_t>(out, static_cast<std::uint8_t>(event.change.current));
    put<std::uint64_t>(out, event.change.epoch);
  }
  put<std::uint64_t>(out, state.next_seq);
  put<std::uint64_t>(out, state.decode_ok);
  put<std::uint64_t>(out, state.decode_errors);
  put<std::uint64_t>(out, state.updates_since_reclassify);
}

[[nodiscard]] EngineState get_engine_state(std::span<const std::uint8_t> bytes,
                                           std::size_t paths) {
  Cursor cursor(bytes, "state image engine_state");
  EngineState state;
  WindowState& window = state.window;
  const std::size_t ring = cursor.get_count(8 + 8);
  window.ring.reserve(ring);
  for (std::size_t i = 0; i < ring; ++i) {
    WindowState::EpochState epoch;
    epoch.id = cursor.get<std::uint64_t>();
    if (!window.ring.empty() && epoch.id <= window.ring.back().id)
      throw region_error(kSegEngineState, "epochs are not ascending");
    const std::size_t keys = cursor.get_count(8);
    epoch.tuples.reserve(keys);
    for (std::size_t k = 0; k < keys; ++k) {
      const std::uint64_t key = cursor.get<std::uint64_t>();
      if ((key >> 32) >= paths)
        throw region_error(kSegEngineState, "names a path the image lacks");
      if (!epoch.tuples.empty() && key <= epoch.tuples.back().first)
        throw region_error(kSegEngineState, "epoch keys are not sorted");
      epoch.tuples.emplace_back(key, 1);
    }
    window.ring.push_back(std::move(epoch));
  }
  const std::size_t dirty = cursor.get_count(2);
  window.dirty.reserve(dirty);
  for (std::size_t i = 0; i < dirty; ++i) {
    window.dirty.push_back(cursor.get<std::uint16_t>());
    if (i > 0 && window.dirty[i] <= window.dirty[i - 1])
      throw region_error(kSegEngineState, "dirty alphas are not sorted");
  }
  window.started = cursor.get<std::uint8_t>() != 0;
  window.current_epoch = cursor.get<std::uint64_t>();
  window.latest_timestamp = cursor.get<std::uint32_t>();
  window.announces = cursor.get<std::uint64_t>();
  window.withdraws = cursor.get<std::uint64_t>();
  window.expired_epochs = cursor.get<std::uint64_t>();
  window.reclassified_communities = cursor.get<std::uint64_t>();

  const std::size_t events = cursor.get_count(8 + 4 + 1 + 1 + 8);
  state.events.reserve(events);
  for (std::size_t i = 0; i < events; ++i) {
    Event event;
    event.seq = cursor.get<std::uint64_t>();
    event.change.community = Community::from_wire(cursor.get<std::uint32_t>());
    event.change.previous = get_intent(cursor);
    event.change.current = get_intent(cursor);
    event.change.epoch = cursor.get<std::uint64_t>();
    state.events.push_back(event);
  }
  state.next_seq = cursor.get<std::uint64_t>();
  state.decode_ok = cursor.get<std::uint64_t>();
  state.decode_errors = cursor.get<std::uint64_t>();
  state.updates_since_reclassify = cursor.get<std::uint64_t>();
  cursor.expect_end("state image engine_state");
  return state;
}

/// One parsed segment: its mapped byte range and element count.
struct Segment {
  std::span<const std::uint8_t> bytes;
  std::size_t count = 0;
};

struct Parsed {
  ImageView view;
  bgp::PathTable::ImportColumns paths;
  std::array<Segment, kSegmentCount> segments;
  std::size_t table_offset = 0;
};

template <typename T>
[[nodiscard]] std::span<const T> typed(const Segment& segment) noexcept {
  return {reinterpret_cast<const T*>(segment.bytes.data()), segment.count};
}

/// Full parse + validation of an image except the engine_state decode.
/// The returned spans alias `bytes`.
[[nodiscard]] Parsed parse(std::span<const std::uint8_t> bytes) {
  if (bytes.size() < kHeaderBytes)
    throw ImageError(
        util::format("state image header truncated (%zu of %zu bytes)",
                     bytes.size(), kHeaderBytes));
  Cursor header(bytes.subspan(sizeof kMagic, 8), "state image");
  if (std::memcmp(bytes.data(), kLegacyCheckpointMagic, sizeof kMagic) == 0)
    throw ImageError(util::format(
        "checkpoint format %u is no longer supported (this build reads "
        "state image version %u only; re-ingest the source data to produce "
        "a fresh one)",
        header.get<std::uint32_t>(), kImageVersion));
  if (std::memcmp(bytes.data(), kMagic, sizeof kMagic) != 0)
    throw ImageError("not a bgpintent state image (bad magic)");
  const std::uint32_t version = header.get<std::uint32_t>();
  if (version > kImageVersion)
    throw ImageError(util::format(
        "state image version %u is newer than supported version %u", version,
        kImageVersion));
  if (version < kImageVersion)
    throw ImageError(util::format(
        "state image version %u is no longer supported (this build reads "
        "version %u only; re-ingest the source data to produce a fresh "
        "snapshot)",
        version, kImageVersion));
  const std::uint32_t flags = header.get<std::uint32_t>();
  if (flags != 0)
    throw ImageError(util::format(
        "state image header has unsupported flags 0x%x", flags));
  if (bytes.size() < kHeaderBytes + kSegmentCount * kEntryBytes + kFooterBytes)
    throw ImageError(
        util::format("state image truncated (%zu bytes)", bytes.size()));

  Cursor footer(bytes.subspan(bytes.size() - kFooterBytes), "state image");
  const std::uint64_t table_offset = footer.get<std::uint64_t>();
  const std::uint32_t seg_count = footer.get<std::uint32_t>();
  const std::uint32_t footer_magic = footer.get<std::uint32_t>();
  const std::uint64_t table_checksum = footer.get<std::uint64_t>();
  const std::uint64_t total_size = footer.get<std::uint64_t>();
  if (footer_magic != kFooterMagic)
    throw ImageError("state image footer magic mismatch");
  if (total_size != bytes.size())
    throw ImageError(util::format(
        "state image footer promises %llu bytes but the image has %zu "
        "(truncated or trailing bytes)",
        static_cast<unsigned long long>(total_size), bytes.size()));
  if (seg_count != kSegmentCount)
    throw ImageError(util::format(
        "state image footer declares %u segments, expected %zu", seg_count,
        kSegmentCount));
  if (table_offset < kHeaderBytes ||
      table_offset + kSegmentCount * kEntryBytes !=
          bytes.size() - kFooterBytes)
    throw ImageError("state image segment table offset out of place");
  const auto table_bytes = bytes.subspan(static_cast<std::size_t>(table_offset),
                                         kSegmentCount * kEntryBytes);
  if (util::xxh64(table_bytes) != table_checksum)
    throw ImageError("state image segment table checksum mismatch");

  Parsed parsed;
  parsed.table_offset = static_cast<std::size_t>(table_offset);
  Cursor table(table_bytes, "state image");
  std::size_t previous_end = kHeaderBytes;
  for (std::size_t i = 0; i < kSegmentCount; ++i) {
    const auto kind = static_cast<SegmentKind>(i + 1);
    const std::uint32_t stored_kind = table.get<std::uint32_t>();
    const std::uint32_t width = table.get<std::uint32_t>();
    const std::uint64_t offset = table.get<std::uint64_t>();
    const std::uint64_t size = table.get<std::uint64_t>();
    const std::uint64_t checksum = table.get<std::uint64_t>();
    if (stored_kind != kind)
      throw region_error(kind, "has an unexpected kind in the segment table");
    if (width != kSegmentKinds[i].width)
      throw region_error(kind, "has an unexpected element width");
    if (offset % kAlign != 0)
      throw region_error(kind, "is not 64-byte aligned");
    if (offset < previous_end || offset > table_offset ||
        size > table_offset - offset)
      throw region_error(kind, "overlaps a neighbouring region");
    if (size % width != 0)
      throw region_error(kind, "byte size is not a whole element count");
    // The gaps between regions are alignment padding; insisting they are
    // zero means no byte of the file escapes validation.
    for (std::size_t pad = previous_end; pad < offset; ++pad)
      if (bytes[pad] != 0)
        throw region_error(kind, "has non-zero padding before it");
    const auto segment_bytes = bytes.subspan(static_cast<std::size_t>(offset),
                                             static_cast<std::size_t>(size));
    if (util::xxh64(segment_bytes) != checksum)
      throw region_error(kind, "checksum mismatch (corrupt file)");
    parsed.segments[i] =
        Segment{segment_bytes, static_cast<std::size_t>(size / width)};
    previous_end = static_cast<std::size_t>(offset + size);
  }
  for (std::size_t pad = previous_end; pad < table_offset; ++pad)
    if (bytes[pad] != 0)
      throw ImageError(
          "state image has non-zero padding before the segment table");
  const auto segment = [&parsed](SegmentKind kind) -> const Segment& {
    return parsed.segments[kind - 1];
  };

  // Meta: one fixed-size record.
  if (segment(kSegMeta).count != 1)
    throw region_error(kSegMeta, "must hold exactly one record");
  Cursor meta(segment(kSegMeta).bytes, "state image meta");
  ImageView& view = parsed.view;
  view.config.epoch_seconds = meta.get<std::uint32_t>();
  view.config.window_epochs = meta.get<std::uint32_t>();
  view.config.classifier.min_gap = meta.get<std::uint32_t>();
  const std::uint8_t mean_of_ratios = meta.get<std::uint8_t>();
  const std::uint8_t sibling_aware = meta.get<std::uint8_t>();
  const std::uint8_t settled = meta.get<std::uint8_t>();
  if (mean_of_ratios > 1 || sibling_aware > 1 || settled > 1 ||
      meta.get<std::uint8_t>() != 0)
    throw region_error(kSegMeta, "has an invalid flag or reserved byte");
  view.config.classifier.mean_of_ratios = mean_of_ratios != 0;
  view.config.observation.sibling_aware = sibling_aware != 0;
  view.settled = settled != 0;
  view.config.classifier.ratio_threshold = meta.get_double();
  view.as_of_seq = meta.get<std::uint64_t>();
  if (meta.get<std::uint64_t>() != 0)
    throw region_error(kSegMeta, "has an invalid flag or reserved byte");

  bgp::PathTable::ImportColumns& paths = parsed.paths;
  paths.asn_arena = typed<bgp::Asn>(segment(kSegPathAsnArena));
  paths.uniq_arena = typed<bgp::Asn>(segment(kSegPathUniqArena));
  paths.seg_types = typed<std::uint8_t>(segment(kSegPathSegTypes));
  paths.seg_counts = typed<std::uint32_t>(segment(kSegPathSegCounts));
  paths.asn_begin = typed<std::uint32_t>(segment(kSegPathAsnBegin));
  paths.asn_count = typed<std::uint32_t>(segment(kSegPathAsnCount));
  paths.seg_begin = typed<std::uint32_t>(segment(kSegPathSegBegin));
  paths.seg_count = typed<std::uint32_t>(segment(kSegPathSegCount));
  paths.uniq_begin = typed<std::uint32_t>(segment(kSegPathUniqBegin));
  paths.uniq_count = typed<std::uint32_t>(segment(kSegPathUniqCount));
  paths.hashes = typed<std::uint64_t>(segment(kSegPathHashes));
  const std::size_t n_path = paths.hashes.size();
  if (paths.asn_begin.size() != n_path || paths.asn_count.size() != n_path ||
      paths.seg_begin.size() != n_path || paths.seg_count.size() != n_path ||
      paths.uniq_begin.size() != n_path || paths.uniq_count.size() != n_path)
    throw region_error(kSegPathHashes, "disagrees with the per-path columns");
  if (paths.seg_types.size() != paths.seg_counts.size())
    throw region_error(kSegPathSegTypes, "length mismatch");
  for (std::size_t p = 0; p < n_path; ++p)
    if (std::uint64_t{paths.asn_begin[p]} + paths.asn_count[p] >
            paths.asn_arena.size() ||
        std::uint64_t{paths.seg_begin[p]} + paths.seg_count[p] >
            paths.seg_types.size() ||
        std::uint64_t{paths.uniq_begin[p]} + paths.uniq_count[p] >
            paths.uniq_arena.size())
      throw region_error(kSegPathAsnBegin, "spans outside its arena");

  view.label_wires = typed<std::uint32_t>(segment(kSegLabelWires));
  view.label_intents = typed<Intent>(segment(kSegLabelIntents));
  if (view.label_intents.size() != view.label_wires.size())
    throw region_error(kSegLabelIntents, "length mismatch");
  for (std::size_t i = 1; i < view.label_wires.size(); ++i)
    if (view.label_wires[i] <= view.label_wires[i - 1])
      throw region_error(kSegLabelWires, "wires are not sorted");
  for (const std::uint8_t raw : segment(kSegLabelIntents).bytes)
    if (raw > static_cast<std::uint8_t>(Intent::kUnclassified))
      throw region_error(kSegLabelIntents, "holds an invalid intent byte");
  return parsed;
}

}  // namespace

std::vector<std::uint8_t> encode_image(const WindowConfig& config,
                                       const EngineState& state,
                                       const bgp::PathTable& paths) {
  const bgp::PathTable::ExportedColumns columns = paths.export_columns();

  // The cached labels, flattened: alphas and their betas are both
  // ascending, so the wires come out sorted.
  std::vector<std::uint32_t> label_wires;
  std::vector<std::uint8_t> label_intents;
  for (const WindowState::AlphaLabels& alpha : state.window.alphas)
    for (const auto& [beta, intent] : alpha.labels) {
      label_wires.push_back(static_cast<std::uint32_t>(alpha.alpha) << 16 |
                            beta);
      label_intents.push_back(static_cast<std::uint8_t>(intent));
    }

  std::vector<std::uint8_t> meta;
  meta.reserve(kMetaBytes);
  put<std::uint32_t>(meta, config.epoch_seconds);
  put<std::uint32_t>(meta, config.window_epochs);
  put<std::uint32_t>(meta, config.classifier.min_gap);
  put<std::uint8_t>(meta, config.classifier.mean_of_ratios ? 1 : 0);
  put<std::uint8_t>(meta, config.observation.sibling_aware ? 1 : 0);
  put<std::uint8_t>(meta, state.window.dirty.empty() ? 1 : 0);
  put<std::uint8_t>(meta, 0);  // reserved
  put_double(meta, config.classifier.ratio_threshold);
  put<std::uint64_t>(meta, state.next_seq - 1);
  put<std::uint64_t>(meta, 0);  // reserved

  std::vector<std::uint8_t> engine_state;
  put_engine_state(engine_state, state);

  std::vector<std::uint8_t> out;
  for (const char c : kMagic) out.push_back(static_cast<std::uint8_t>(c));
  put<std::uint32_t>(out, kImageVersion);
  put<std::uint32_t>(out, 0);  // flags, reserved

  struct Entry {
    std::uint64_t offset = 0;
    std::uint64_t size = 0;
    std::uint64_t checksum = 0;
  };
  std::vector<Entry> entries;
  entries.reserve(kSegmentCount);
  const auto append = [&](const auto& column) {
    const auto* p = reinterpret_cast<const std::uint8_t*>(column.data());
    const std::size_t size = column.size() * sizeof(*column.data());
    while (out.size() % kAlign != 0) out.push_back(0);
    entries.push_back(Entry{out.size(), size, util::xxh64({p, size})});
    if (size != 0) out.insert(out.end(), p, p + size);
  };
  // In SegmentKind order.
  append(meta);
  append(columns.asn_arena);
  append(columns.uniq_arena);
  append(columns.seg_types);
  append(columns.seg_counts);
  append(columns.asn_begin);
  append(columns.asn_count);
  append(columns.seg_begin);
  append(columns.seg_count);
  append(columns.uniq_begin);
  append(columns.uniq_count);
  append(columns.hashes);
  append(label_wires);
  append(label_intents);
  append(engine_state);

  while (out.size() % 8 != 0) out.push_back(0);
  const std::uint64_t table_offset = out.size();
  std::vector<std::uint8_t> table;
  table.reserve(kSegmentCount * kEntryBytes);
  for (std::size_t i = 0; i < entries.size(); ++i) {
    put<std::uint32_t>(table, static_cast<std::uint32_t>(i + 1));
    put<std::uint32_t>(table,
                       static_cast<std::uint32_t>(kSegmentKinds[i].width));
    put<std::uint64_t>(table, entries[i].offset);
    put<std::uint64_t>(table, entries[i].size);
    put<std::uint64_t>(table, entries[i].checksum);
  }
  out.insert(out.end(), table.begin(), table.end());

  put<std::uint64_t>(out, table_offset);
  put<std::uint32_t>(out, static_cast<std::uint32_t>(kSegmentCount));
  put<std::uint32_t>(out, kFooterMagic);
  put<std::uint64_t>(out, util::xxh64(table));
  put<std::uint64_t>(out, out.size() + 8);  // total size incl. this field
  return out;
}

ImageView parse_image(std::span<const std::uint8_t> bytes) {
  return parse(bytes).view;
}

StateImage decode_image(std::span<const std::uint8_t> bytes) {
  const Parsed parsed = parse(bytes);
  StateImage image;
  image.config = parsed.view.config;
  try {
    image.paths = bgp::PathTable::from_columns(parsed.paths);
  } catch (const std::invalid_argument& error) {
    throw ImageError(util::format(
        "state image path columns are inconsistent: %s", error.what()));
  }
  image.state = get_engine_state(
      parsed.segments[kSegEngineState - 1].bytes, image.paths.size());

  // The label columns are the label cache, grouped back by alpha.
  auto& alphas = image.state.window.alphas;
  for (std::size_t i = 0; i < parsed.view.label_wires.size(); ++i) {
    const Community community =
        Community::from_wire(parsed.view.label_wires[i]);
    if (alphas.empty() || alphas.back().alpha != community.alpha())
      alphas.push_back(WindowState::AlphaLabels{community.alpha(), {}});
    alphas.back().labels.emplace_back(community.beta(),
                                      parsed.view.label_intents[i]);
  }
  if (parsed.view.settled != image.state.window.dirty.empty())
    throw region_error(kSegMeta, "disagrees with the dirty set");
  if (parsed.view.as_of_seq != image.state.next_seq - 1)
    throw region_error(kSegMeta, "disagrees with the event sequence");
  return image;
}

std::vector<ImageRegion> image_regions(std::span<const std::uint8_t> bytes) {
  const Parsed parsed = parse(bytes);
  std::vector<ImageRegion> regions;
  regions.reserve(kSegmentCount + 2);
  for (std::size_t i = 0; i < kSegmentCount; ++i) {
    const Segment& segment = parsed.segments[i];
    regions.push_back(ImageRegion{
        kSegmentKinds[i].name,
        static_cast<std::size_t>(segment.bytes.data() - bytes.data()),
        segment.bytes.size()});
  }
  regions.push_back(ImageRegion{"segment_table", parsed.table_offset,
                                kSegmentCount * kEntryBytes});
  regions.push_back(
      ImageRegion{"footer", bytes.size() - kFooterBytes, kFooterBytes});
  return regions;
}

}  // namespace bgpintent::stream
