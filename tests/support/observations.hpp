// Fixture helpers for tests that state evidence as (AS path, community)
// observations: each observation is one RIB row carrying one community,
// interned and indexed exactly as Pipeline::run(entries) does.
#pragma once

#include <span>
#include <utility>
#include <vector>

#include "bgp/path_table.hpp"
#include "core/observations.hpp"

namespace bgpintent::test_support {

/// One RIB row that observed `community` on `path`.
inline bgp::RibEntry observed(std::vector<bgp::Asn> path,
                              bgp::Community community) {
  bgp::RibEntry entry;
  entry.route.path = bgp::AsPath(std::move(path));
  entry.route.communities = {community};
  return entry;
}

/// bgp::intern_entries + ObservationIndex::build_interned.
inline core::ObservationIndex index_of(
    std::span<const bgp::RibEntry> entries,
    const topo::OrgMap* orgs = nullptr,
    const rel::RelationshipDataset* relationships = nullptr,
    const core::ObservationConfig& config = {}) {
  bgp::PathTable paths;
  const std::vector<bgp::InternedTuple> tuples =
      bgp::intern_entries(paths, entries);
  return core::ObservationIndex::build_interned(paths, tuples, orgs,
                                                relationships, config);
}

}  // namespace bgpintent::test_support
