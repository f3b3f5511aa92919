#include "topo/org_map.hpp"

#include <algorithm>

namespace bgpintent::topo {

void OrgMap::assign(Asn asn, OrgId org) {
  auto it = org_.find(asn);
  if (it != org_.end()) {
    auto& old_members = members_[it->second];
    std::erase(old_members, asn);
    if (old_members.empty()) members_.erase(it->second);
    it->second = org;
  } else {
    org_.emplace(asn, org);
  }
  auto& member_list = members_[org];
  member_list.insert(
      std::lower_bound(member_list.begin(), member_list.end(), asn), asn);
}

std::optional<OrgId> OrgMap::org_of(Asn asn) const noexcept {
  auto it = org_.find(asn);
  if (it == org_.end()) return std::nullopt;
  return it->second;
}

std::span<const Asn> OrgMap::siblings(Asn asn) const noexcept {
  const auto org = org_.find(asn);
  if (org == org_.end()) return {};
  return members_.find(org->second)->second;
}

bool OrgMap::are_siblings(Asn a, Asn b) const noexcept {
  if (a == b) return true;
  const auto org_a = org_of(a);
  const auto org_b = org_of(b);
  return org_a && org_b && *org_a == *org_b;
}

}  // namespace bgpintent::topo
