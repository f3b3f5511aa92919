#include "mrt/bgp_message.hpp"

#include <gtest/gtest.h>

#include <utility>
#include <vector>

namespace bgpintent::mrt {
namespace {

PathAttributes sample_attrs() {
  PathAttributes attrs;
  attrs.origin = bgp::Origin::kEgp;
  attrs.as_path = bgp::AsPath({701, 1299, 64496});
  attrs.next_hop = 0xc0000201;
  attrs.med = 10;
  attrs.local_pref = 200;
  attrs.communities = {bgp::Community(1299, 2569), bgp::Community(1299, 35130)};
  attrs.large_communities = {bgp::LargeCommunity(212483, 1, 42)};
  return attrs;
}

TEST(NlriPrefix, RoundTripVariousLengths) {
  for (const char* text :
       {"0.0.0.0/0", "10.0.0.0/8", "10.32.0.0/11", "192.0.2.0/24",
        "203.0.113.5/32", "128.0.0.0/1"}) {
    const auto prefix = bgp::Prefix::parse(text);
    ASSERT_TRUE(prefix) << text;
    ByteWriter w;
    encode_nlri_prefix(w, *prefix);
    ByteReader r(w.bytes());
    EXPECT_EQ(decode_nlri_prefix(r), *prefix) << text;
    EXPECT_TRUE(r.exhausted());
  }
}

TEST(NlriPrefix, UsesMinimalBytes) {
  ByteWriter w;
  encode_nlri_prefix(w, *bgp::Prefix::parse("10.0.0.0/8"));
  EXPECT_EQ(w.size(), 2u);  // len byte + 1 address byte
  ByteWriter w2;
  encode_nlri_prefix(w2, *bgp::Prefix::parse("0.0.0.0/0"));
  EXPECT_EQ(w2.size(), 1u);
}

TEST(NlriPrefix, RejectsBadLength) {
  const std::uint8_t bad[] = {33, 1, 2, 3, 4, 5};
  ByteReader r(bad);
  EXPECT_THROW((void)decode_nlri_prefix(r), MrtError);
}

TEST(PathAttributes, RoundTrip) {
  const PathAttributes attrs = sample_attrs();
  ByteWriter w;
  encode_path_attributes(w, attrs);
  ByteReader r(w.bytes());
  const PathAttributes decoded = decode_path_attributes(r, w.size());
  EXPECT_EQ(decoded.origin, attrs.origin);
  EXPECT_EQ(decoded.as_path, attrs.as_path);
  EXPECT_EQ(decoded.next_hop, attrs.next_hop);
  EXPECT_EQ(decoded.med, attrs.med);
  EXPECT_EQ(decoded.local_pref, attrs.local_pref);
  EXPECT_EQ(decoded.communities, attrs.communities);
  EXPECT_EQ(decoded.large_communities, attrs.large_communities);
}

TEST(PathAttributes, RoundTripMinimal) {
  PathAttributes attrs;
  attrs.as_path = bgp::AsPath(std::vector<bgp::Asn>{65000});
  ByteWriter w;
  encode_path_attributes(w, attrs);
  ByteReader r(w.bytes());
  const PathAttributes decoded = decode_path_attributes(r, w.size());
  EXPECT_EQ(decoded.as_path, attrs.as_path);
  EXPECT_FALSE(decoded.med);
  EXPECT_FALSE(decoded.local_pref);
  EXPECT_TRUE(decoded.communities.empty());
}

TEST(PathAttributes, RoundTripWithAsSet) {
  PathAttributes attrs;
  attrs.as_path = bgp::AsPath(std::vector<bgp::PathSegment>{
      {bgp::SegmentType::kSequence, {701, 1299}},
      {bgp::SegmentType::kSet, {64496, 64497}},
  });
  ByteWriter w;
  encode_path_attributes(w, attrs);
  ByteReader r(w.bytes());
  EXPECT_EQ(decode_path_attributes(r, w.size()).as_path, attrs.as_path);
}

TEST(PathAttributes, ExtendedLengthForManyCommunities) {
  PathAttributes attrs;
  attrs.as_path = bgp::AsPath(std::vector<bgp::Asn>{1});
  for (std::uint16_t beta = 0; beta < 100; ++beta)
    attrs.communities.emplace_back(1299, beta);  // 400 bytes > 255
  ByteWriter w;
  encode_path_attributes(w, attrs);
  ByteReader r(w.bytes());
  const PathAttributes decoded = decode_path_attributes(r, w.size());
  EXPECT_EQ(decoded.communities.size(), 100u);
  EXPECT_EQ(decoded.communities, attrs.communities);
}

TEST(PathAttributes, TwoByteAsnMode) {
  PathAttributes attrs;
  attrs.as_path = bgp::AsPath({701, 1299});
  ByteWriter w;
  // Hand-encode a 2-octet AS_PATH.
  ByteWriter body;
  body.put_u8(2);  // AS_SEQUENCE
  body.put_u8(2);
  body.put_u16(701);
  body.put_u16(1299);
  w.put_u8(kFlagTransitive);
  w.put_u8(kAttrAsPath);
  w.put_u8(static_cast<std::uint8_t>(body.size()));
  w.put_bytes(body.bytes());
  ByteReader r(w.bytes());
  const PathAttributes decoded =
      decode_path_attributes(r, w.size(), /*asn16=*/true);
  EXPECT_EQ(decoded.as_path, attrs.as_path);
}

TEST(PathAttributes, UnknownOptionalAttributeSkipped) {
  ByteWriter w;
  w.put_u8(kFlagOptional | kFlagTransitive);
  w.put_u8(99);  // unknown type
  w.put_u8(2);
  w.put_u16(0xbeef);
  ByteReader r(w.bytes());
  EXPECT_NO_THROW((void)decode_path_attributes(r, w.size()));
}

TEST(PathAttributes, UnknownWellKnownAttributeThrows) {
  ByteWriter w;
  w.put_u8(kFlagTransitive);  // well-known (not optional)
  w.put_u8(99);
  w.put_u8(0);
  ByteReader r(w.bytes());
  EXPECT_THROW((void)decode_path_attributes(r, w.size()), MrtError);
}

TEST(PathAttributes, MalformedCommunitiesLengthThrows) {
  ByteWriter w;
  w.put_u8(kFlagOptional | kFlagTransitive);
  w.put_u8(kAttrCommunities);
  w.put_u8(3);  // not divisible by 4
  w.put_u8(0);
  w.put_u8(0);
  w.put_u8(0);
  ByteReader r(w.bytes());
  EXPECT_THROW((void)decode_path_attributes(r, w.size()), MrtError);
}

TEST(PathAttributes, BadOriginValueThrows) {
  ByteWriter w;
  w.put_u8(kFlagTransitive);
  w.put_u8(kAttrOrigin);
  w.put_u8(1);
  w.put_u8(7);  // invalid origin
  ByteReader r(w.bytes());
  EXPECT_THROW((void)decode_path_attributes(r, w.size()), MrtError);
}

TEST(PathAttributes, TruncatedBlockThrows) {
  const PathAttributes attrs = sample_attrs();
  ByteWriter w;
  encode_path_attributes(w, attrs);
  ByteReader r(w.bytes());
  EXPECT_THROW((void)decode_path_attributes(r, w.size() + 10), MrtError);
}

TEST(BgpUpdate, RoundTrip) {
  BgpUpdate update;
  update.attrs = sample_attrs();
  update.announced = {*bgp::Prefix::parse("192.0.2.0/24"),
                      *bgp::Prefix::parse("198.51.100.0/24")};
  update.withdrawn = {*bgp::Prefix::parse("203.0.113.0/24")};
  ByteWriter w;
  encode_bgp_update(w, update);
  ByteReader r(w.bytes());
  const BgpUpdate decoded = decode_bgp_message(r);
  EXPECT_EQ(decoded.announced, update.announced);
  EXPECT_EQ(decoded.withdrawn, update.withdrawn);
  EXPECT_EQ(decoded.attrs.as_path, update.attrs.as_path);
  EXPECT_EQ(decoded.attrs.communities, update.attrs.communities);
  EXPECT_TRUE(r.exhausted());
}

TEST(BgpUpdate, WithdrawOnly) {
  BgpUpdate update;
  update.withdrawn = {*bgp::Prefix::parse("192.0.2.0/24")};
  ByteWriter w;
  encode_bgp_update(w, update);
  ByteReader r(w.bytes());
  const BgpUpdate decoded = decode_bgp_message(r);
  EXPECT_TRUE(decoded.announced.empty());
  EXPECT_EQ(decoded.withdrawn.size(), 1u);
}

TEST(BgpUpdate, BadMarkerThrows) {
  BgpUpdate update;
  update.announced = {*bgp::Prefix::parse("192.0.2.0/24")};
  update.attrs.as_path = bgp::AsPath(std::vector<bgp::Asn>{1});
  ByteWriter w;
  encode_bgp_update(w, update);
  auto bytes = w.take();
  bytes[3] = 0x00;  // corrupt marker
  ByteReader r(bytes);
  EXPECT_THROW((void)decode_bgp_message(r), MrtError);
}

TEST(BgpUpdate, MessageLengthIsPatched) {
  BgpUpdate update;
  update.announced = {*bgp::Prefix::parse("192.0.2.0/24")};
  update.attrs.as_path = bgp::AsPath(std::vector<bgp::Asn>{64500});
  ByteWriter w;
  encode_bgp_update(w, update);
  const auto& b = w.bytes();
  const std::size_t declared = static_cast<std::size_t>(b[16]) << 8 | b[17];
  EXPECT_EQ(declared, b.size());
}

// --- Scratch-reuse decode (the in-place overload behind RowScratch) ---

namespace scratch_reuse {

/// Hand-encodes one AS_PATH attribute from (type, asns) segment pairs,
/// including shapes the encoder refuses to emit (empty segments).
void put_as_path(ByteWriter& out,
                 const std::vector<std::pair<std::uint8_t,
                                             std::vector<bgp::Asn>>>& segs) {
  ByteWriter body;
  for (const auto& [type, asns] : segs) {
    body.put_u8(type);
    body.put_u8(static_cast<std::uint8_t>(asns.size()));
    for (const bgp::Asn asn : asns) body.put_u32(asn);
  }
  out.put_u8(kFlagTransitive);
  out.put_u8(kAttrAsPath);
  out.put_u8(static_cast<std::uint8_t>(body.size()));
  out.put_bytes(body.bytes());
}

TEST(PathAttributesInPlace, RepeatedAsPathReplacesFirst) {
  ByteWriter w;
  put_as_path(w, {{2, {701, 1299}}});
  put_as_path(w, {{2, {64496}}});
  ByteReader r(w.bytes());
  PathAttributes attrs;
  decode_path_attributes(r, w.size(), /*asn16=*/false, attrs);
  EXPECT_EQ(attrs.as_path, bgp::AsPath(std::vector<bgp::Asn>{64496}));
}

TEST(PathAttributesInPlace, EmptySegmentsAreDropped) {
  // AsPath's invariant is "no empty segments"; the wire may carry them.
  ByteWriter w;
  put_as_path(w, {{1, {}}, {2, {701, 1299}}, {1, {}}});
  ByteReader r(w.bytes());
  PathAttributes attrs;
  decode_path_attributes(r, w.size(), /*asn16=*/false, attrs);
  EXPECT_EQ(attrs.as_path, bgp::AsPath({701, 1299}));
}

TEST(PathAttributesInPlace, AllSegmentsEmptyYieldsEmptyPath) {
  ByteWriter w;
  put_as_path(w, {{2, {}}});
  ByteReader r(w.bytes());
  PathAttributes attrs;
  decode_path_attributes(r, w.size(), /*asn16=*/false, attrs);
  EXPECT_TRUE(attrs.as_path.segments().empty());
}

TEST(PathAttributesInPlace, ReuseResetsEveryField) {
  // First decode fills every optional field; the second block carries
  // only ORIGIN + a shorter AS_PATH, so everything else must come back
  // reset, not leak through from the previous record.
  PathAttributes attrs;
  {
    ByteWriter w;
    encode_path_attributes(w, sample_attrs());
    ByteReader r(w.bytes());
    decode_path_attributes(r, w.size(), /*asn16=*/false, attrs);
  }
  ASSERT_TRUE(attrs.med);
  ASSERT_FALSE(attrs.communities.empty());

  ByteWriter w;
  {
    ByteWriter body;
    body.put_u8(static_cast<std::uint8_t>(bgp::Origin::kIgp));
    w.put_u8(kFlagTransitive);
    w.put_u8(kAttrOrigin);
    w.put_u8(1);
    w.put_bytes(body.bytes());
  }
  put_as_path(w, {{2, {64500}}});
  ByteReader r(w.bytes());
  decode_path_attributes(r, w.size(), /*asn16=*/false, attrs);

  EXPECT_EQ(attrs.origin, bgp::Origin::kIgp);
  EXPECT_EQ(attrs.as_path, bgp::AsPath(std::vector<bgp::Asn>{64500}));
  EXPECT_FALSE(attrs.med);
  EXPECT_FALSE(attrs.local_pref);
  EXPECT_TRUE(attrs.communities.empty());
  EXPECT_TRUE(attrs.large_communities.empty());
  EXPECT_TRUE(attrs.ext_communities.empty());
}

TEST(PathAttributesInPlace, SegmentSlotRecyclingShrinksPath) {
  // Two-segment path first, then a one-segment path into the same
  // scratch: the recycled slot vector must shrink to one segment.
  PathAttributes attrs;
  {
    ByteWriter w;
    put_as_path(w, {{2, {701, 1299}}, {1, {64496, 64497}}});
    ByteReader r(w.bytes());
    decode_path_attributes(r, w.size(), /*asn16=*/false, attrs);
    ASSERT_EQ(attrs.as_path.segments().size(), 2u);
  }
  ByteWriter w;
  put_as_path(w, {{2, {3356}}});
  ByteReader r(w.bytes());
  decode_path_attributes(r, w.size(), /*asn16=*/false, attrs);
  EXPECT_EQ(attrs.as_path, bgp::AsPath(std::vector<bgp::Asn>{3356}));
}

/// Every field of two decoded UPDATEs, compared one by one.
void expect_same_update(const BgpUpdate& got, const BgpUpdate& want) {
  EXPECT_EQ(got.withdrawn, want.withdrawn);
  EXPECT_EQ(got.announced, want.announced);
  EXPECT_EQ(got.attrs.origin, want.attrs.origin);
  EXPECT_EQ(got.attrs.as_path, want.attrs.as_path);
  EXPECT_EQ(got.attrs.next_hop, want.attrs.next_hop);
  EXPECT_EQ(got.attrs.med, want.attrs.med);
  EXPECT_EQ(got.attrs.local_pref, want.attrs.local_pref);
  EXPECT_EQ(got.attrs.communities, want.attrs.communities);
  EXPECT_EQ(got.attrs.ext_communities, want.attrs.ext_communities);
  EXPECT_EQ(got.attrs.large_communities, want.attrs.large_communities);
}

TEST(BgpMessageInPlace, ReuseResetsEveryField) {
  // A full UPDATE, a KEEPALIVE and a bare UPDATE through one BgpUpdate:
  // each must decode exactly as a fresh object would, with nothing left
  // over from the message before it.
  std::vector<std::vector<std::uint8_t>> messages;
  {
    BgpUpdate full;
    full.withdrawn = {*bgp::Prefix::parse("203.0.113.0/24"),
                      *bgp::Prefix::parse("198.18.0.0/15")};
    full.attrs = sample_attrs();
    full.attrs.ext_communities = {bgp::ExtCommunity::from_wire(0x0002fde800000064ull)};
    full.announced = {*bgp::Prefix::parse("192.0.2.0/24"),
                      *bgp::Prefix::parse("198.51.100.0/24")};
    ByteWriter w;
    encode_bgp_update(w, full);
    messages.push_back(w.take());
  }
  {
    ByteWriter w;
    for (int i = 0; i < 16; ++i) w.put_u8(0xff);
    w.put_u16(19);
    w.put_u8(4);  // KEEPALIVE
    messages.push_back(w.take());
  }
  {
    BgpUpdate bare;
    bare.attrs.as_path = bgp::AsPath(std::vector<bgp::Asn>{64500});
    bare.announced = {*bgp::Prefix::parse("10.0.0.0/8")};
    ByteWriter w;
    encode_bgp_update(w, bare);
    messages.push_back(w.take());
  }

  BgpUpdate reused;
  for (std::size_t i = 0; i < messages.size(); ++i) {
    SCOPED_TRACE(i);
    ByteReader fresh_reader(messages[i]);
    const BgpUpdate fresh = decode_bgp_message(fresh_reader);
    ByteReader reused_reader(messages[i]);
    decode_bgp_message(reused_reader, /*asn16=*/false, reused);
    EXPECT_EQ(reused_reader.remaining(), fresh_reader.remaining());
    expect_same_update(reused, fresh);
  }
  // The first message set every field the later ones must have cleared.
  EXPECT_TRUE(reused.withdrawn.empty());
  EXPECT_FALSE(reused.attrs.med);
  EXPECT_TRUE(reused.attrs.ext_communities.empty());
}

}  // namespace scratch_reuse

}  // namespace
}  // namespace bgpintent::mrt
