#include "serve/snapshot.hpp"

#include <algorithm>
#include <array>
#include <bit>
#include <cstring>

#include "util/bytes.hpp"
#include "util/checksum.hpp"
#include "util/file.hpp"
#include "util/strings.hpp"

namespace bgpintent::serve {

// The mapped reader hands out typed spans straight into the file image, so
// it only works where the in-memory representation *is* the on-disk one.
static_assert(std::endian::native == std::endian::little,
              "snapshot mmap reading requires a little-endian host");

namespace {

using Cursor = util::ByteReader<SnapshotError>;
using util::put;
using util::put_double;

constexpr char kMagic[8] = {'B', 'G', 'P', 'I', 'S', 'N', 'A', 'P'};

constexpr std::size_t kHeaderBytes = 16;
constexpr std::size_t kAlign = 64;
constexpr std::size_t kEntryBytes = 32;
constexpr std::size_t kFooterBytes = 32;
constexpr std::size_t kMetaBytes = 40;
constexpr std::uint32_t kFooterMagic = 0x33504e53;  // "SNP3" little-endian

// Segment kinds, in the exact order they appear in the file and in the
// segment table.  The table of one entry per kind is what makes the image
// self-describing; the reader insists on exactly this set in this order so
// a corrupt table cannot silently drop or duplicate a column.
enum SegmentKind : std::uint32_t {
  kSegMeta = 1,
  kSegAsnsOnPaths,
  kSegDirtyAlphas,
  kSegAlphaIds,
  kSegAlphaBetaBegin,
  kSegAlphaLabelBegin,
  kSegBetaIds,
  kSegBetaOnBegin,
  kSegBetaOffBegin,
  kSegOnPathHashes,
  kSegOffPathHashes,
  kSegLabelBetas,
  kSegLabelIntents,
  kSegServeWires,
  kSegServeIntents,
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
};

struct KindInfo {
  const char* name;
  std::size_t width;  ///< element width in bytes
};
constexpr KindInfo kSegmentKinds[] = {
    {"meta", kMetaBytes},
    {"asns_on_paths", 4},
    {"dirty_alphas", 2},
    {"alpha_ids", 2},
    {"alpha_beta_begin", 4},
    {"alpha_label_begin", 4},
    {"beta_ids", 2},
    {"beta_on_begin", 8},
    {"beta_off_begin", 8},
    {"on_path_hashes", 8},
    {"off_path_hashes", 8},
    {"label_betas", 2},
    {"label_intents", 1},
    {"serve_wires", 4},
    {"serve_intents", 1},
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
};
constexpr std::size_t kSegmentCount = std::size(kSegmentKinds);

[[nodiscard]] SnapshotError region_error(std::size_t kind_index,
                                         const char* what) {
  return SnapshotError(util::format("snapshot segment '%s' %s",
                                    kSegmentKinds[kind_index].name, what));
}

}  // namespace

std::vector<std::uint8_t> encode_snapshot(
    const core::IncrementalClassifier& classifier) {
  const core::ClassifierConfig& config = classifier.classifier_config();
  const core::ObservationConfig& observation =
      classifier.observation_config();
  const auto state = classifier.export_state();
  const auto paths = classifier.path_columns();

  // Flatten the sorted owned state into the column builders.  The serve
  // columns are label_snapshot() precomputed: one slot per evidence beta,
  // globally sorted by wire because alphas and per-alpha betas are.
  std::vector<std::uint16_t> alpha_ids;
  std::vector<std::uint32_t> alpha_beta_begin{0};
  std::vector<std::uint32_t> alpha_label_begin{0};
  std::vector<std::uint16_t> beta_ids;
  std::vector<std::uint64_t> beta_on_begin{0};
  std::vector<std::uint64_t> beta_off_begin{0};
  std::vector<std::uint64_t> on_hashes;
  std::vector<std::uint64_t> off_hashes;
  std::vector<std::uint16_t> label_betas;
  std::vector<std::uint8_t> label_intents;
  std::vector<std::uint32_t> serve_wires;
  std::vector<std::uint8_t> serve_intents;
  for (const auto& alpha : state.alphas) {
    alpha_ids.push_back(alpha.alpha);
    for (const auto& evidence : alpha.betas) {
      beta_ids.push_back(evidence.beta);
      on_hashes.insert(on_hashes.end(), evidence.on_paths.begin(),
                       evidence.on_paths.end());
      off_hashes.insert(off_hashes.end(), evidence.off_paths.begin(),
                        evidence.off_paths.end());
      beta_on_begin.push_back(on_hashes.size());
      beta_off_begin.push_back(off_hashes.size());
      serve_wires.push_back(static_cast<std::uint32_t>(alpha.alpha) << 16 |
                            evidence.beta);
      const auto label = std::lower_bound(
          alpha.labels.begin(), alpha.labels.end(), evidence.beta,
          [](const std::pair<std::uint16_t, core::Intent>& l,
             std::uint16_t b) { return l.first < b; });
      serve_intents.push_back(static_cast<std::uint8_t>(
          label == alpha.labels.end() || label->first != evidence.beta
              ? core::Intent::kUnclassified
              : label->second));
    }
    alpha_beta_begin.push_back(static_cast<std::uint32_t>(beta_ids.size()));
    for (const auto& [beta, intent] : alpha.labels) {
      label_betas.push_back(beta);
      label_intents.push_back(static_cast<std::uint8_t>(intent));
    }
    alpha_label_begin.push_back(
        static_cast<std::uint32_t>(label_betas.size()));
  }

  std::vector<std::uint8_t> meta;
  meta.reserve(kMetaBytes);
  put<std::uint32_t>(meta, config.min_gap);
  put<std::uint8_t>(meta, config.mean_of_ratios ? 1 : 0);
  put<std::uint8_t>(meta, observation.sibling_aware ? 1 : 0);
  put<std::uint16_t>(meta, 0);  // reserved, must read back zero
  put_double(meta, config.ratio_threshold);
  put<std::uint64_t>(meta, state.entries_ingested);
  put<std::uint64_t>(meta, state.decode_records_ok);
  put<std::uint64_t>(meta, state.decode_records_skipped);

  std::vector<std::uint8_t> out;
  for (const char c : kMagic) out.push_back(static_cast<std::uint8_t>(c));
  put<std::uint32_t>(out, kSnapshotVersion);
  put<std::uint32_t>(out, 0);  // flags, reserved

  struct Entry {
    std::uint32_t kind = 0;
    std::uint64_t offset = 0;
    std::uint64_t size = 0;
    std::uint64_t checksum = 0;
  };
  std::vector<Entry> entries;
  entries.reserve(kSegmentCount);
  const auto append_segment = [&](SegmentKind kind, const void* data,
                                  std::size_t byte_size) {
    while (out.size() % kAlign != 0) out.push_back(0);
    const auto* p = static_cast<const std::uint8_t*>(data);
    entries.push_back(Entry{kind, out.size(), byte_size,
                            util::xxh64({p, byte_size})});
    if (byte_size != 0) out.insert(out.end(), p, p + byte_size);
  };
  const auto append_column = [&](SegmentKind kind, const auto& column) {
    append_segment(kind, column.data(),
                   column.size() * sizeof(*column.data()));
  };

  append_segment(kSegMeta, meta.data(), meta.size());
  append_column(kSegAsnsOnPaths, state.asns_on_paths);
  append_column(kSegDirtyAlphas, state.dirty);
  append_column(kSegAlphaIds, alpha_ids);
  append_column(kSegAlphaBetaBegin, alpha_beta_begin);
  append_column(kSegAlphaLabelBegin, alpha_label_begin);
  append_column(kSegBetaIds, beta_ids);
  append_column(kSegBetaOnBegin, beta_on_begin);
  append_column(kSegBetaOffBegin, beta_off_begin);
  append_column(kSegOnPathHashes, on_hashes);
  append_column(kSegOffPathHashes, off_hashes);
  append_column(kSegLabelBetas, label_betas);
  append_column(kSegLabelIntents, label_intents);
  append_column(kSegServeWires, serve_wires);
  append_column(kSegServeIntents, serve_intents);
  append_column(kSegPathAsnArena, paths.asn_arena);
  append_column(kSegPathUniqArena, paths.uniq_arena);
  append_column(kSegPathSegTypes, paths.seg_types);
  append_column(kSegPathSegCounts, paths.seg_counts);
  append_column(kSegPathAsnBegin, paths.asn_begin);
  append_column(kSegPathAsnCount, paths.asn_count);
  append_column(kSegPathSegBegin, paths.seg_begin);
  append_column(kSegPathSegCount, paths.seg_count);
  append_column(kSegPathUniqBegin, paths.uniq_begin);
  append_column(kSegPathUniqCount, paths.uniq_count);
  append_column(kSegPathHashes, paths.hashes);

  while (out.size() % 8 != 0) out.push_back(0);
  const std::uint64_t table_offset = out.size();
  std::vector<std::uint8_t> table;
  table.reserve(kSegmentCount * kEntryBytes);
  for (std::size_t i = 0; i < entries.size(); ++i) {
    put<std::uint32_t>(table, entries[i].kind);
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

namespace {

/// One parsed segment: its table entry plus the mapped byte range.
struct Segment {
  std::span<const std::uint8_t> bytes;
  std::size_t count = 0;  ///< element count (bytes / width)
};

struct ParsedImage {
  core::ClassifierConfig config;
  core::ObservationConfig observation;
  core::StateColumns columns;
  std::array<Segment, kSegmentCount> segments;
  std::size_t table_offset = 0;
};

template <typename T>
[[nodiscard]] std::span<const T> typed(const Segment& segment) noexcept {
  return {reinterpret_cast<const T*>(segment.bytes.data()), segment.count};
}

/// Validates a begin-offsets column: begin[0] == 0, non-decreasing, and
/// ending exactly at `total` (the element count of the column it indexes).
template <typename T>
void check_begin_column(std::span<const T> begin, std::size_t total,
                        std::size_t kind_index) {
  if (begin.empty() || begin.front() != 0)
    throw region_error(kind_index, "does not start at zero");
  for (std::size_t i = 1; i < begin.size(); ++i)
    if (begin[i] < begin[i - 1])
      throw region_error(kind_index, "offsets decrease");
  if (static_cast<std::size_t>(begin.back()) != total)
    throw region_error(kind_index, "does not cover its target column");
}

template <typename T>
void check_sorted_unique(std::span<const T> ids, std::size_t kind_index) {
  for (std::size_t i = 1; i < ids.size(); ++i)
    if (ids[i] <= ids[i - 1])
      throw region_error(kind_index, "ids are not sorted");
}

void check_intent_bytes(std::span<const std::uint8_t> bytes,
                        std::size_t kind_index) {
  for (const std::uint8_t raw : bytes)
    if (raw > static_cast<std::uint8_t>(core::Intent::kUnclassified))
      throw region_error(kind_index, "holds an invalid intent byte");
}

/// Full parse + validation of an image.  The returned columns alias
/// `bytes`.  Every version but kSnapshotVersion is refused; older ones get
/// re-ingest guidance, because their layouts or checksums differ and
/// reading them as this version would misinterpret evidence rather than
/// fail.
[[nodiscard]] ParsedImage parse_image(std::span<const std::uint8_t> bytes) {
  if (bytes.size() < kHeaderBytes)
    throw SnapshotError(
        util::format("snapshot header truncated (%zu of %zu bytes)",
                     bytes.size(), kHeaderBytes));
  if (std::memcmp(bytes.data(), kMagic, sizeof kMagic) != 0)
    throw SnapshotError("not a bgpintent snapshot (bad magic)");
  Cursor header(bytes.subspan(sizeof kMagic, 8), "snapshot");
  const std::uint32_t version = header.get<std::uint32_t>();
  if (version > kSnapshotVersion)
    throw SnapshotError(util::format(
        "snapshot format version %u is newer than supported version %u",
        version, kSnapshotVersion));
  if (version < kSnapshotVersion)
    throw SnapshotError(util::format(
        "snapshot format version %u is no longer supported (this build "
        "reads version %u only; re-ingest the source data to produce a "
        "fresh snapshot)",
        version, kSnapshotVersion));
  const std::uint32_t flags = header.get<std::uint32_t>();
  if (flags != 0)
    throw SnapshotError(util::format(
        "snapshot header has unsupported flags 0x%x", flags));
  if (bytes.size() <
      kHeaderBytes + kSegmentCount * kEntryBytes + kFooterBytes)
    throw SnapshotError(util::format(
        "snapshot image truncated (%zu bytes)", bytes.size()));

  Cursor footer(bytes.subspan(bytes.size() - kFooterBytes), "snapshot");
  const std::uint64_t table_offset = footer.get<std::uint64_t>();
  const std::uint32_t seg_count = footer.get<std::uint32_t>();
  const std::uint32_t footer_magic = footer.get<std::uint32_t>();
  const std::uint64_t table_checksum = footer.get<std::uint64_t>();
  const std::uint64_t total_size = footer.get<std::uint64_t>();
  if (footer_magic != kFooterMagic)
    throw SnapshotError("snapshot footer magic mismatch");
  if (total_size != bytes.size())
    throw SnapshotError(util::format(
        "snapshot footer promises %llu bytes but the image has %zu "
        "(truncated or trailing bytes)",
        static_cast<unsigned long long>(total_size), bytes.size()));
  if (seg_count != kSegmentCount)
    throw SnapshotError(util::format(
        "snapshot footer declares %u segments, expected %zu", seg_count,
        kSegmentCount));
  if (table_offset < kHeaderBytes ||
      table_offset + kSegmentCount * kEntryBytes !=
          bytes.size() - kFooterBytes)
    throw SnapshotError("snapshot segment table offset out of place");
  const auto table_bytes = bytes.subspan(
      static_cast<std::size_t>(table_offset), kSegmentCount * kEntryBytes);
  if (util::xxh64(table_bytes) != table_checksum)
    throw SnapshotError("snapshot segment table checksum mismatch");

  ParsedImage parsed;
  parsed.table_offset = static_cast<std::size_t>(table_offset);
  Cursor table(table_bytes, "snapshot");
  std::size_t previous_end = kHeaderBytes;
  for (std::size_t i = 0; i < kSegmentCount; ++i) {
    const std::uint32_t kind = table.get<std::uint32_t>();
    const std::uint32_t width = table.get<std::uint32_t>();
    const std::uint64_t offset = table.get<std::uint64_t>();
    const std::uint64_t size = table.get<std::uint64_t>();
    const std::uint64_t checksum = table.get<std::uint64_t>();
    if (kind != i + 1)
      throw region_error(i, "has an unexpected kind in the segment table");
    if (width != kSegmentKinds[i].width)
      throw region_error(i, "has an unexpected element width");
    if (offset % kAlign != 0)
      throw region_error(i, "is not 64-byte aligned");
    if (offset < previous_end || offset > table_offset ||
        size > table_offset - offset)
      throw region_error(i, "overlaps a neighbouring region");
    if (size % width != 0)
      throw region_error(i, "byte size is not a whole element count");
    // The gaps between regions are alignment padding; insisting they are
    // zero means no byte of the file escapes validation.
    for (std::size_t pad = previous_end; pad < offset; ++pad)
      if (bytes[pad] != 0)
        throw region_error(i, "has non-zero padding before it");
    const auto segment_bytes =
        bytes.subspan(static_cast<std::size_t>(offset),
                      static_cast<std::size_t>(size));
    if (util::xxh64(segment_bytes) != checksum)
      throw region_error(i, "checksum mismatch (corrupt file)");
    parsed.segments[i] =
        Segment{segment_bytes, static_cast<std::size_t>(size / width)};
    previous_end = static_cast<std::size_t>(offset + size);
  }
  for (std::size_t pad = previous_end; pad < table_offset; ++pad)
    if (bytes[pad] != 0)
      throw SnapshotError(
          "snapshot has non-zero padding before the segment table");

  // Meta: fixed-size scalar block.
  const Segment& meta = parsed.segments[kSegMeta - 1];
  if (meta.count != 1)
    throw region_error(kSegMeta - 1, "must hold exactly one record");
  Cursor meta_cursor(meta.bytes, "snapshot");
  parsed.config.min_gap = meta_cursor.get<std::uint32_t>();
  parsed.config.mean_of_ratios = meta_cursor.get<std::uint8_t>() != 0;
  parsed.observation.sibling_aware = meta_cursor.get<std::uint8_t>() != 0;
  if (meta_cursor.get<std::uint16_t>() != 0)
    throw region_error(kSegMeta - 1, "has non-zero reserved bytes");
  parsed.config.ratio_threshold = meta_cursor.get_double();

  core::StateColumns& c = parsed.columns;
  c.entries_ingested = meta_cursor.get<std::uint64_t>();
  c.decode_records_ok = meta_cursor.get<std::uint64_t>();
  c.decode_records_skipped = meta_cursor.get<std::uint64_t>();

  c.asns_on_paths = typed<bgp::Asn>(parsed.segments[kSegAsnsOnPaths - 1]);
  c.dirty = typed<std::uint16_t>(parsed.segments[kSegDirtyAlphas - 1]);
  c.alpha_ids = typed<std::uint16_t>(parsed.segments[kSegAlphaIds - 1]);
  c.alpha_beta_begin =
      typed<std::uint32_t>(parsed.segments[kSegAlphaBetaBegin - 1]);
  c.alpha_label_begin =
      typed<std::uint32_t>(parsed.segments[kSegAlphaLabelBegin - 1]);
  c.beta_ids = typed<std::uint16_t>(parsed.segments[kSegBetaIds - 1]);
  c.beta_on_begin =
      typed<std::uint64_t>(parsed.segments[kSegBetaOnBegin - 1]);
  c.beta_off_begin =
      typed<std::uint64_t>(parsed.segments[kSegBetaOffBegin - 1]);
  c.on_path_hashes =
      typed<std::uint64_t>(parsed.segments[kSegOnPathHashes - 1]);
  c.off_path_hashes =
      typed<std::uint64_t>(parsed.segments[kSegOffPathHashes - 1]);
  c.label_betas = typed<std::uint16_t>(parsed.segments[kSegLabelBetas - 1]);
  c.label_intents =
      typed<core::Intent>(parsed.segments[kSegLabelIntents - 1]);
  c.serve_wires = typed<std::uint32_t>(parsed.segments[kSegServeWires - 1]);
  c.serve_intents =
      typed<core::Intent>(parsed.segments[kSegServeIntents - 1]);
  c.paths.asn_arena = typed<bgp::Asn>(parsed.segments[kSegPathAsnArena - 1]);
  c.paths.uniq_arena =
      typed<bgp::Asn>(parsed.segments[kSegPathUniqArena - 1]);
  c.paths.seg_types =
      typed<std::uint8_t>(parsed.segments[kSegPathSegTypes - 1]);
  c.paths.seg_counts =
      typed<std::uint32_t>(parsed.segments[kSegPathSegCounts - 1]);
  c.paths.asn_begin =
      typed<std::uint32_t>(parsed.segments[kSegPathAsnBegin - 1]);
  c.paths.asn_count =
      typed<std::uint32_t>(parsed.segments[kSegPathAsnCount - 1]);
  c.paths.seg_begin =
      typed<std::uint32_t>(parsed.segments[kSegPathSegBegin - 1]);
  c.paths.seg_count =
      typed<std::uint32_t>(parsed.segments[kSegPathSegCount - 1]);
  c.paths.uniq_begin =
      typed<std::uint32_t>(parsed.segments[kSegPathUniqBegin - 1]);
  c.paths.uniq_count =
      typed<std::uint32_t>(parsed.segments[kSegPathUniqCount - 1]);
  c.paths.hashes = typed<std::uint64_t>(parsed.segments[kSegPathHashes - 1]);

  // Cross-column shape validation.  Everything the serve fast path and
  // the borrowed classifier index into without bounds checks is proven
  // consistent here, once, so a structurally corrupt file that slipped
  // past the checksums (or was opened with them off) still cannot cause
  // out-of-bounds reads — only the sortedness of the hash columns is
  // taken on faith from the writer (the checksums cover it).
  const std::size_t n_alpha = c.alpha_ids.size();
  const std::size_t n_beta = c.beta_ids.size();
  if (c.alpha_beta_begin.size() != n_alpha + 1)
    throw region_error(kSegAlphaBetaBegin - 1, "length mismatch");
  if (c.alpha_label_begin.size() != n_alpha + 1)
    throw region_error(kSegAlphaLabelBegin - 1, "length mismatch");
  if (c.beta_on_begin.size() != n_beta + 1)
    throw region_error(kSegBetaOnBegin - 1, "length mismatch");
  if (c.beta_off_begin.size() != n_beta + 1)
    throw region_error(kSegBetaOffBegin - 1, "length mismatch");
  if (c.label_intents.size() != c.label_betas.size())
    throw region_error(kSegLabelIntents - 1, "length mismatch");
  if (c.serve_wires.size() != n_beta)
    throw region_error(kSegServeWires - 1, "length mismatch");
  if (c.serve_intents.size() != n_beta)
    throw region_error(kSegServeIntents - 1, "length mismatch");
  check_begin_column(c.alpha_beta_begin, n_beta, kSegAlphaBetaBegin - 1);
  check_begin_column(c.alpha_label_begin, c.label_betas.size(),
                     kSegAlphaLabelBegin - 1);
  check_begin_column(c.beta_on_begin, c.on_path_hashes.size(),
                     kSegBetaOnBegin - 1);
  check_begin_column(c.beta_off_begin, c.off_path_hashes.size(),
                     kSegBetaOffBegin - 1);
  check_sorted_unique(c.asns_on_paths, kSegAsnsOnPaths - 1);
  check_sorted_unique(c.dirty, kSegDirtyAlphas - 1);
  check_sorted_unique(c.alpha_ids, kSegAlphaIds - 1);
  for (std::size_t a = 0; a < n_alpha; ++a) {
    check_sorted_unique(
        c.beta_ids.subspan(c.alpha_beta_begin[a],
                           c.alpha_beta_begin[a + 1] - c.alpha_beta_begin[a]),
        kSegBetaIds - 1);
    check_sorted_unique(
        c.label_betas.subspan(
            c.alpha_label_begin[a],
            c.alpha_label_begin[a + 1] - c.alpha_label_begin[a]),
        kSegLabelBetas - 1);
  }
  check_intent_bytes(parsed.segments[kSegLabelIntents - 1].bytes,
                     kSegLabelIntents - 1);
  check_intent_bytes(parsed.segments[kSegServeIntents - 1].bytes,
                     kSegServeIntents - 1);
  {
    std::size_t slot = 0;
    for (std::size_t a = 0; a < n_alpha; ++a)
      for (std::uint32_t b = c.alpha_beta_begin[a];
           b < c.alpha_beta_begin[a + 1]; ++b, ++slot)
        if (c.serve_wires[slot] !=
            (static_cast<std::uint32_t>(c.alpha_ids[a]) << 16 |
             c.beta_ids[slot]))
          throw region_error(kSegServeWires - 1,
                             "disagrees with the alpha/beta columns");
  }

  const std::size_t n_path = c.paths.hashes.size();
  if (c.paths.asn_begin.size() != n_path ||
      c.paths.asn_count.size() != n_path ||
      c.paths.seg_begin.size() != n_path ||
      c.paths.seg_count.size() != n_path ||
      c.paths.uniq_begin.size() != n_path ||
      c.paths.uniq_count.size() != n_path)
    throw region_error(kSegPathHashes - 1,
                       "disagrees with the per-path columns");
  if (c.paths.seg_types.size() != c.paths.seg_counts.size())
    throw region_error(kSegPathSegTypes - 1, "length mismatch");
  for (std::size_t p = 0; p < n_path; ++p) {
    if (std::uint64_t{c.paths.asn_begin[p]} + c.paths.asn_count[p] >
            c.paths.asn_arena.size() ||
        std::uint64_t{c.paths.seg_begin[p]} + c.paths.seg_count[p] >
            c.paths.seg_types.size() ||
        std::uint64_t{c.paths.uniq_begin[p]} + c.paths.uniq_count[p] >
            c.paths.uniq_arena.size())
      throw region_error(kSegPathAsnBegin - 1, "spans outside its arena");
  }

  return parsed;
}

}  // namespace

core::IncrementalClassifier decode_snapshot(
    std::span<const std::uint8_t> bytes) {
  const ParsedImage parsed = parse_image(bytes);
  // Heap decode: materialize owned state + the interned-path table from a
  // throwaway view over the caller's bytes.
  const core::StateView view(parsed.columns, nullptr);
  bgp::PathTable paths;
  try {
    paths = view.materialize_paths();
  } catch (const std::invalid_argument& error) {
    throw SnapshotError(
        util::format("snapshot path columns are inconsistent: %s",
                     error.what()));
  }
  core::IncrementalClassifier classifier(parsed.config, parsed.observation);
  classifier.restore_state(view.materialize(), std::move(paths));
  return classifier;
}

void save_snapshot(const core::IncrementalClassifier& classifier,
                   const std::string& path) {
  util::write_file_durably<SnapshotError>(path, encode_snapshot(classifier));
}

core::IncrementalClassifier load_snapshot(const std::string& path) {
  return decode_snapshot(util::read_file<SnapshotError>(path));
}

std::shared_ptr<MappedSnapshot> MappedSnapshot::open(const std::string& path) {
  std::unique_ptr<const mrt::ByteSource> source;
  try {
    source = mrt::open_source(path, /*allow_mmap=*/true);
  } catch (const mrt::MrtError& error) {
    throw SnapshotError(util::format("cannot map snapshot %s: %s",
                                     path.c_str(), error.what()));
  }
  ParsedImage parsed = parse_image(source->data());
  return std::make_shared<MappedSnapshot>(Private{}, std::move(source),
                                          parsed.config, parsed.observation,
                                          parsed.columns);
}

std::shared_ptr<const core::StateView> MappedSnapshot::state_view() const {
  return std::make_shared<core::StateView>(columns_, shared_from_this());
}

std::vector<SnapshotRegion> snapshot_regions(
    std::span<const std::uint8_t> bytes) {
  const ParsedImage parsed = parse_image(bytes);
  std::vector<SnapshotRegion> regions;
  regions.reserve(kSegmentCount + 2);
  for (std::size_t i = 0; i < kSegmentCount; ++i) {
    const Segment& segment = parsed.segments[i];
    regions.push_back(SnapshotRegion{
        kSegmentKinds[i].name,
        static_cast<std::size_t>(segment.bytes.data() - bytes.data()),
        segment.bytes.size()});
  }
  regions.push_back(SnapshotRegion{"segment_table", parsed.table_offset,
                                   kSegmentCount * kEntryBytes});
  regions.push_back(SnapshotRegion{
      "footer", bytes.size() - kFooterBytes, kFooterBytes});
  return regions;
}

}  // namespace bgpintent::serve
