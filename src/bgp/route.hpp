// Route records as observed at a BGP vantage point.  The paper's unit of
// input, the unique (AS path, community) tuple (§4), is
// bgp::InternedTuple (bgp/path_table.hpp): a RibEntry expands into one
// tuple per community it carries.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "bgp/aspath.hpp"
#include "bgp/community.hpp"
#include "bgp/extcommunity.hpp"
#include "bgp/prefix.hpp"

namespace bgpintent::bgp {

/// BGP ORIGIN attribute (RFC 4271 §4.3).
enum class Origin : std::uint8_t { kIgp = 0, kEgp = 1, kIncomplete = 2 };

/// A best route as dumped by a collector RIB or carried in an update.
struct Route {
  Prefix prefix;
  AsPath path;
  std::vector<Community> communities;
  std::vector<LargeCommunity> large_communities;
  std::vector<ExtCommunity> ext_communities;
  std::uint32_t next_hop = 0;  // IPv4, host byte order
  Origin origin_attr = Origin::kIgp;
  std::optional<std::uint32_t> med;
  std::optional<std::uint32_t> local_pref;

  /// True if the regular community list contains `c`.
  [[nodiscard]] bool has_community(Community c) const noexcept;

  /// Sorts and deduplicates both community lists (canonical form for
  /// comparisons; BGP community order is not semantically meaningful).
  void canonicalize_communities();

  friend bool operator==(const Route&, const Route&) = default;
};

/// Identity of the collector peer (vantage point) that exported a route.
struct VantagePointId {
  Asn asn = 0;
  std::uint32_t address = 0;  // peer IP, host byte order

  friend auto operator<=>(const VantagePointId&, const VantagePointId&) = default;
};

/// One RIB row: which vantage point saw which route.
struct RibEntry {
  VantagePointId vantage_point;
  Route route;

  friend bool operator==(const RibEntry&, const RibEntry&) = default;
};

}  // namespace bgpintent::bgp
