// BGP UPDATE wire format (RFC 4271 §4.3) with the path attributes the
// pipeline consumes: ORIGIN, AS_PATH (4-octet, RFC 6793), NEXT_HOP, MED,
// LOCAL_PREF, COMMUNITIES (RFC 1997) and LARGE_COMMUNITIES (RFC 8092).
// Unknown attributes are skipped on decode (flags permitting), matching
// how collectors treat partial/unknown optional attributes.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "bgp/route.hpp"
#include "mrt/buffer.hpp"

namespace bgpintent::mrt {

// Path attribute type codes.
inline constexpr std::uint8_t kAttrOrigin = 1;
inline constexpr std::uint8_t kAttrAsPath = 2;
inline constexpr std::uint8_t kAttrNextHop = 3;
inline constexpr std::uint8_t kAttrMed = 4;
inline constexpr std::uint8_t kAttrLocalPref = 5;
inline constexpr std::uint8_t kAttrCommunities = 8;
inline constexpr std::uint8_t kAttrExtCommunities = 16;
inline constexpr std::uint8_t kAttrLargeCommunities = 32;

// Attribute flag bits.
inline constexpr std::uint8_t kFlagOptional = 0x80;
inline constexpr std::uint8_t kFlagTransitive = 0x40;
inline constexpr std::uint8_t kFlagPartial = 0x20;
inline constexpr std::uint8_t kFlagExtendedLength = 0x10;

/// Decoded path-attribute block.
struct PathAttributes {
  bgp::Origin origin = bgp::Origin::kIgp;
  bgp::AsPath as_path;
  std::uint32_t next_hop = 0;
  std::optional<std::uint32_t> med;
  std::optional<std::uint32_t> local_pref;
  std::vector<bgp::Community> communities;
  std::vector<bgp::ExtCommunity> ext_communities;
  std::vector<bgp::LargeCommunity> large_communities;
};

/// Serializes the path-attribute block (4-octet AS_PATH encoding).
/// Extended length is used automatically when an attribute exceeds 255
/// bytes.
void encode_path_attributes(ByteWriter& out, const PathAttributes& attrs);

/// Parses a path-attribute block of exactly `length` bytes from `in`.
/// Throws MrtError on malformed data.  `asn16` selects 2-octet AS_PATH
/// parsing (legacy peers); default is 4-octet.
[[nodiscard]] PathAttributes decode_path_attributes(ByteReader& in,
                                                    std::size_t length,
                                                    bool asn16 = false);

/// In-place variant: fully (re)assigns `attrs`, reusing its heap buffers
/// (path segments, community vectors).  A decode loop that keeps one
/// PathAttributes scratch across records reaches a steady state where
/// attribute parsing allocates nothing (docs/PERFORMANCE.md); the
/// returning variant above simply wraps this with a fresh object.
void decode_path_attributes(ByteReader& in, std::size_t length, bool asn16,
                            PathAttributes& attrs);

/// A decoded BGP UPDATE.
struct BgpUpdate {
  std::vector<bgp::Prefix> withdrawn;
  PathAttributes attrs;
  std::vector<bgp::Prefix> announced;

  [[nodiscard]] bool has_announcements() const noexcept {
    return !announced.empty();
  }
};

/// Serializes a full BGP UPDATE message including the 16-byte marker
/// header (RFC 4271 §4.1).
void encode_bgp_update(ByteWriter& out, const BgpUpdate& update);

/// Parses one BGP message; throws MrtError unless it is a well-formed
/// UPDATE.  KEEPALIVEs yield an empty update.
[[nodiscard]] BgpUpdate decode_bgp_message(ByteReader& in, bool asn16 = false);

/// In-place variant: fully (re)assigns `update`, reusing its prefix lists
/// and attribute buffers as decode_path_attributes' in-place overload
/// does, so one BgpUpdate kept across records (RowScratch) decodes an
/// update stream without allocating.  On throw `update` holds unspecified
/// contents.  The returning variant above wraps this with a fresh object.
void decode_bgp_message(ByteReader& in, bool asn16, BgpUpdate& update);

/// NLRI helpers (prefix encoding is shared by UPDATE and TABLE_DUMP_V2).
void encode_nlri_prefix(ByteWriter& out, const bgp::Prefix& prefix);
[[nodiscard]] bgp::Prefix decode_nlri_prefix(ByteReader& in);

}  // namespace bgpintent::mrt
