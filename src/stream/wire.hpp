// Stream-specific field codecs of the journal record codec (journal.cpp)
// and recovery's config check, on top of the util::put / util::ByteReader
// integer codec.  Internal to src/stream — the public surface is
// journal.hpp.
#pragma once

#include <cstdint>
#include <vector>

#include "bgp/aspath.hpp"
#include "stream/journal.hpp"
#include "util/bytes.hpp"
#include "util/strings.hpp"

namespace bgpintent::stream::wire {

using util::put;
using util::put_double;

/// Reader over one journal record payload; constructed with the
/// subject "journal", so failures read "truncated journal payload".
using Cursor = util::ByteReader<JournalError>;

/// AS path as segments: count u32, then per segment type u8 + ASN count
/// u32 + ASNs u32 each (kAnnounce records).
inline void put_aspath(std::vector<std::uint8_t>& out, const bgp::AsPath& path) {
  const auto& segments = path.segments();
  put<std::uint32_t>(out, static_cast<std::uint32_t>(segments.size()));
  for (const bgp::PathSegment& segment : segments) {
    put<std::uint8_t>(out, static_cast<std::uint8_t>(segment.type));
    put<std::uint32_t>(out, static_cast<std::uint32_t>(segment.asns.size()));
    for (const bgp::Asn asn : segment.asns) put<std::uint32_t>(out, asn);
  }
}

[[nodiscard]] inline bgp::AsPath get_aspath(Cursor& cursor) {
  const std::uint32_t segment_count = cursor.get<std::uint32_t>();
  std::vector<bgp::PathSegment> segments;
  segments.reserve(segment_count);
  for (std::uint32_t i = 0; i < segment_count; ++i) {
    bgp::PathSegment segment;
    const std::uint8_t type = cursor.get<std::uint8_t>();
    if (type != static_cast<std::uint8_t>(bgp::SegmentType::kSet) &&
        type != static_cast<std::uint8_t>(bgp::SegmentType::kSequence))
      throw JournalError(
          util::format("journal path segment type %u is invalid", type));
    segment.type = static_cast<bgp::SegmentType>(type);
    const std::uint32_t asn_count = cursor.get<std::uint32_t>();
    if (asn_count == 0 || asn_count > cursor.remaining() / sizeof(std::uint32_t))
      throw JournalError("journal path segment count exceeds payload");
    segment.asns.reserve(asn_count);
    for (std::uint32_t a = 0; a < asn_count; ++a)
      segment.asns.push_back(cursor.get<std::uint32_t>());
    segments.push_back(std::move(segment));
  }
  return bgp::AsPath(std::move(segments));
}

/// WindowConfig payload: window shape plus the classifier and observation
/// knobs replay needs to regenerate identical labels.
inline void put_window_config(std::vector<std::uint8_t>& out,
                              const WindowConfig& config) {
  put<std::uint32_t>(out, config.epoch_seconds);
  put<std::uint32_t>(out, config.window_epochs);
  put<std::uint32_t>(out, config.classifier.min_gap);
  put_double(out, config.classifier.ratio_threshold);
  put<std::uint8_t>(out, config.classifier.mean_of_ratios ? 1 : 0);
  put<std::uint8_t>(out, config.observation.sibling_aware ? 1 : 0);
}

[[nodiscard]] inline WindowConfig get_window_config(Cursor& cursor) {
  WindowConfig config;
  config.epoch_seconds = cursor.get<std::uint32_t>();
  config.window_epochs = cursor.get<std::uint32_t>();
  config.classifier.min_gap = cursor.get<std::uint32_t>();
  config.classifier.ratio_threshold = cursor.get_double();
  config.classifier.mean_of_ratios = cursor.get<std::uint8_t>() != 0;
  config.observation.sibling_aware = cursor.get<std::uint8_t>() != 0;
  return config;
}

[[nodiscard]] inline bool same_window_config(const WindowConfig& a,
                                             const WindowConfig& b) noexcept {
  return a.epoch_seconds == b.epoch_seconds &&
         a.window_epochs == b.window_epochs &&
         a.classifier.min_gap == b.classifier.min_gap &&
         a.classifier.ratio_threshold == b.classifier.ratio_threshold &&
         a.classifier.mean_of_ratios == b.classifier.mean_of_ratios &&
         a.observation.sibling_aware == b.observation.sibling_aware;
}

[[nodiscard]] inline Intent get_intent(Cursor& cursor) {
  const std::uint8_t raw = cursor.get<std::uint8_t>();
  if (raw > static_cast<std::uint8_t>(Intent::kUnclassified))
    throw JournalError(
        util::format("journal intent byte %u is not a valid intent", raw));
  return static_cast<Intent>(raw);
}

}  // namespace bgpintent::stream::wire
