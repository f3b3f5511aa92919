#include "mrt/bgp_message.hpp"

namespace bgpintent::mrt {

namespace {

constexpr std::uint8_t kBgpMessageUpdate = 2;
constexpr std::uint8_t kBgpMessageKeepalive = 4;
constexpr std::size_t kBgpHeaderSize = 19;  // marker(16) + length(2) + type(1)

/// Writes one attribute with automatic extended-length selection.
void put_attribute(ByteWriter& out, std::uint8_t flags, std::uint8_t type,
                   const std::vector<std::uint8_t>& body) {
  const bool extended = body.size() > 0xff;
  out.put_u8(static_cast<std::uint8_t>(
      flags | (extended ? kFlagExtendedLength : 0)));
  out.put_u8(type);
  if (extended)
    out.put_u16(static_cast<std::uint16_t>(body.size()));
  else
    out.put_u8(static_cast<std::uint8_t>(body.size()));
  out.put_bytes(body);
}

}  // namespace

void encode_nlri_prefix(ByteWriter& out, const bgp::Prefix& prefix) {
  out.put_u8(prefix.length());
  const std::uint32_t addr = prefix.address();
  const int bytes = (prefix.length() + 7) / 8;
  for (int i = 0; i < bytes; ++i)
    out.put_u8(static_cast<std::uint8_t>(addr >> (24 - 8 * i)));
}

bgp::Prefix decode_nlri_prefix(ByteReader& in) {
  const std::uint8_t len = in.get_u8();
  if (len > 32) throw MrtError("NLRI prefix length > 32");
  const int bytes = (len + 7) / 8;
  std::uint32_t addr = 0;
  for (int i = 0; i < bytes; ++i)
    addr |= static_cast<std::uint32_t>(in.get_u8()) << (24 - 8 * i);
  return bgp::Prefix(addr, len);
}

void encode_path_attributes(ByteWriter& out, const PathAttributes& attrs) {
  {
    std::vector<std::uint8_t> body{
        static_cast<std::uint8_t>(attrs.origin)};
    put_attribute(out, kFlagTransitive, kAttrOrigin, body);
  }
  {
    ByteWriter body;
    for (const auto& seg : attrs.as_path.segments()) {
      if (seg.asns.size() > 255)
        throw MrtError("AS_PATH segment longer than 255");
      body.put_u8(static_cast<std::uint8_t>(seg.type));
      body.put_u8(static_cast<std::uint8_t>(seg.asns.size()));
      for (const bgp::Asn asn : seg.asns) body.put_u32(asn);
    }
    put_attribute(out, kFlagTransitive, kAttrAsPath, body.bytes());
  }
  {
    ByteWriter body;
    body.put_u32(attrs.next_hop);
    put_attribute(out, kFlagTransitive, kAttrNextHop, body.bytes());
  }
  if (attrs.med) {
    ByteWriter body;
    body.put_u32(*attrs.med);
    put_attribute(out, kFlagOptional, kAttrMed, body.bytes());
  }
  if (attrs.local_pref) {
    ByteWriter body;
    body.put_u32(*attrs.local_pref);
    put_attribute(out, kFlagTransitive, kAttrLocalPref, body.bytes());
  }
  if (!attrs.communities.empty()) {
    ByteWriter body;
    for (const bgp::Community c : attrs.communities) body.put_u32(c.wire());
    put_attribute(out, kFlagOptional | kFlagTransitive, kAttrCommunities,
                  body.bytes());
  }
  if (!attrs.ext_communities.empty()) {
    ByteWriter body;
    for (const bgp::ExtCommunity c : attrs.ext_communities)
      body.put_u64(c.wire());
    put_attribute(out, kFlagOptional | kFlagTransitive, kAttrExtCommunities,
                  body.bytes());
  }
  if (!attrs.large_communities.empty()) {
    ByteWriter body;
    for (const bgp::LargeCommunity& c : attrs.large_communities) {
      body.put_u32(c.alpha());
      body.put_u32(c.beta());
      body.put_u32(c.gamma());
    }
    put_attribute(out, kFlagOptional | kFlagTransitive, kAttrLargeCommunities,
                  body.bytes());
  }
}

PathAttributes decode_path_attributes(ByteReader& in, std::size_t length,
                                      bool asn16) {
  PathAttributes attrs;
  decode_path_attributes(in, length, asn16, attrs);
  return attrs;
}

void decode_path_attributes(ByteReader& in, std::size_t length, bool asn16,
                            PathAttributes& attrs) {
  attrs.origin = bgp::Origin::kIgp;
  attrs.next_hop = 0;
  attrs.med.reset();
  attrs.local_pref.reset();
  attrs.communities.clear();
  attrs.ext_communities.clear();
  attrs.large_communities.clear();
  // Path segments are recycled slot by slot so their ASN buffers survive
  // across records; `seg_used` is resized away at the end, which also
  // clears the path when no AS_PATH attribute is present.
  std::size_t seg_used = 0;
  ByteReader block = in.sub_reader(length);
  while (!block.exhausted()) {
    const std::uint8_t flags = block.get_u8();
    const std::uint8_t type = block.get_u8();
    const std::size_t body_len = (flags & kFlagExtendedLength) != 0
                                     ? block.get_u16()
                                     : block.get_u8();
    ByteReader body = block.sub_reader(body_len);
    switch (type) {
      case kAttrOrigin: {
        const std::uint8_t value = body.get_u8();
        if (value > 2) throw MrtError("bad ORIGIN value");
        attrs.origin = static_cast<bgp::Origin>(value);
        break;
      }
      case kAttrAsPath: {
        std::vector<bgp::PathSegment>& segments =
            attrs.as_path.mutable_segments();
        seg_used = 0;  // a repeated AS_PATH attribute replaces the first
        while (!body.exhausted()) {
          const std::uint8_t seg_type = body.get_u8();
          if (seg_type != 1 && seg_type != 2)
            throw MrtError("bad AS_PATH segment type");
          const std::uint8_t count = body.get_u8();
          if (count == 0) continue;  // AsPath drops empty segments
          if (seg_used == segments.size()) segments.emplace_back();
          bgp::PathSegment& segment = segments[seg_used++];
          segment.type = static_cast<bgp::SegmentType>(seg_type);
          segment.asns.clear();
          segment.asns.reserve(count);
          for (std::uint8_t i = 0; i < count; ++i)
            segment.asns.push_back(asn16 ? body.get_u16() : body.get_u32());
        }
        break;
      }
      case kAttrNextHop:
        attrs.next_hop = body.get_u32();
        break;
      case kAttrMed:
        attrs.med = body.get_u32();
        break;
      case kAttrLocalPref:
        attrs.local_pref = body.get_u32();
        break;
      case kAttrCommunities:
        if (body_len % 4 != 0) throw MrtError("bad COMMUNITIES length");
        while (!body.exhausted())
          attrs.communities.push_back(bgp::Community::from_wire(body.get_u32()));
        break;
      case kAttrExtCommunities:
        if (body_len % 8 != 0)
          throw MrtError("bad EXTENDED_COMMUNITIES length");
        while (!body.exhausted())
          attrs.ext_communities.push_back(
              bgp::ExtCommunity::from_wire(body.get_u64()));
        break;
      case kAttrLargeCommunities: {
        if (body_len % 12 != 0)
          throw MrtError("bad LARGE_COMMUNITIES length");
        while (!body.exhausted()) {
          const std::uint32_t alpha = body.get_u32();
          const std::uint32_t beta = body.get_u32();
          const std::uint32_t gamma = body.get_u32();
          attrs.large_communities.emplace_back(alpha, beta, gamma);
        }
        break;
      }
      default:
        // Unknown attribute: acceptable only if optional (RFC 4271 §5).
        if ((flags & kFlagOptional) == 0)
          throw MrtError("unknown well-known attribute " +
                         std::to_string(type));
        break;  // body already consumed via sub_reader
    }
  }
  attrs.as_path.mutable_segments().resize(seg_used);
}

void encode_bgp_update(ByteWriter& out, const BgpUpdate& update) {
  const std::size_t start = out.size();
  for (int i = 0; i < 16; ++i) out.put_u8(0xff);  // marker
  out.put_u16(0);                                 // length, patched below
  out.put_u8(kBgpMessageUpdate);

  ByteWriter withdrawn;
  for (const bgp::Prefix& prefix : update.withdrawn)
    encode_nlri_prefix(withdrawn, prefix);
  out.put_u16(static_cast<std::uint16_t>(withdrawn.size()));
  out.put_bytes(withdrawn.bytes());

  ByteWriter attrs;
  if (update.has_announcements())
    encode_path_attributes(attrs, update.attrs);
  out.put_u16(static_cast<std::uint16_t>(attrs.size()));
  out.put_bytes(attrs.bytes());

  for (const bgp::Prefix& prefix : update.announced)
    encode_nlri_prefix(out, prefix);

  const std::size_t total = out.size() - start;
  if (total > 4096) throw MrtError("BGP message exceeds 4096 bytes");
  out.patch_u16(start + 16, static_cast<std::uint16_t>(total));
}

BgpUpdate decode_bgp_message(ByteReader& in, bool asn16) {
  BgpUpdate update;
  decode_bgp_message(in, asn16, update);
  return update;
}

void decode_bgp_message(ByteReader& in, bool asn16, BgpUpdate& update) {
  for (int i = 0; i < 16; ++i)
    if (in.get_u8() != 0xff) throw MrtError("bad BGP marker");
  const std::uint16_t total = in.get_u16();
  if (total < kBgpHeaderSize) throw MrtError("bad BGP message length");
  const std::uint8_t type = in.get_u8();
  ByteReader body = in.sub_reader(total - kBgpHeaderSize);
  if (type != kBgpMessageKeepalive && type != kBgpMessageUpdate)
    throw MrtError("unexpected BGP message type " + std::to_string(type));

  update.withdrawn.clear();
  update.announced.clear();
  if (type == kBgpMessageKeepalive) {
    // No attribute block: reset the attributes as an empty block does.
    ByteReader none(std::span<const std::uint8_t>{});
    decode_path_attributes(none, 0, asn16, update.attrs);
    return;
  }

  const std::uint16_t withdrawn_len = body.get_u16();
  ByteReader withdrawn = body.sub_reader(withdrawn_len);
  while (!withdrawn.exhausted())
    update.withdrawn.push_back(decode_nlri_prefix(withdrawn));

  const std::uint16_t attr_len = body.get_u16();
  decode_path_attributes(body, attr_len, asn16, update.attrs);

  while (!body.exhausted())
    update.announced.push_back(decode_nlri_prefix(body));
}

}  // namespace bgpintent::mrt
