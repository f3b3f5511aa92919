// AS-to-organization mapping (the CAIDA as2org substitute).
//
// The paper's method counts a community alpha as "on-path" when alpha or an
// organizational *sibling* of alpha appears in the AS path; this map answers
// those sibling queries.
#pragma once

#include <optional>
#include <span>
#include <unordered_map>
#include <vector>

#include "bgp/asn.hpp"

namespace bgpintent::topo {

using bgp::Asn;
using OrgId = std::uint32_t;

class OrgMap {
 public:
  /// Associates `asn` with `org`; re-assigning an ASN overwrites.
  void assign(Asn asn, OrgId org);

  /// Org of `asn`; nullopt if unmapped.
  [[nodiscard]] std::optional<OrgId> org_of(Asn asn) const noexcept;

  /// All ASNs in the same org as `asn`, `asn` included (ascending), as a
  /// view into the org's member list: no allocation, valid until the next
  /// assign().  An unmapped ASN has no org and yields an empty span, so
  /// callers test the ASN itself before walking its siblings.
  [[nodiscard]] std::span<const Asn> siblings(Asn asn) const noexcept;

  /// True when the two ASNs map to the same org (an ASN is always its own
  /// sibling, mapped or not).
  [[nodiscard]] bool are_siblings(Asn a, Asn b) const noexcept;

  [[nodiscard]] std::size_t asn_count() const noexcept { return org_.size(); }
  [[nodiscard]] std::size_t org_count() const noexcept { return members_.size(); }

 private:
  std::unordered_map<Asn, OrgId> org_;
  std::unordered_map<OrgId, std::vector<Asn>> members_;
};

}  // namespace bgpintent::topo
