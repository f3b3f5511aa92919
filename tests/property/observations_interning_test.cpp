// Property: the interned observation core (PathTable + sort-based
// accumulation, sequential or sharded-parallel at any pool size) produces
// exactly the CommunityStats the seed implementation produced — per-tuple
// AsPath hashing into per-community unordered_set accumulators — on
// randomized tuple sets (one RIB row per tuple), with and without
// org-sibling expansion and relationship votes.  Two cases aim at the
// build's first-sight filter, which drops repeated keys before the sort:
// a repeated stream with more distinct keys than the filter has slots, so
// repeats get past it, and the keys at both ends of the packed key space.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <map>
#include <span>
#include <unordered_set>
#include <vector>

#include "bgp/aspath.hpp"
#include "bgp/path_table.hpp"
#include "bgp/route.hpp"
#include "core/observations.hpp"
#include "rel/dataset.hpp"
#include "support/observations.hpp"
#include "topo/org_map.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"

namespace bgpintent::core {
namespace {

struct ReferenceStats {
  std::size_t on = 0;
  std::size_t off = 0;
  std::size_t customer = 0;
  std::size_t peer = 0;
  std::size_t provider = 0;
};

struct ReferenceIndex {
  std::map<Community, ReferenceStats> stats;
  std::size_t unique_paths = 0;
};

/// Replica of the pre-interning observation build: one full AsPath per
/// tuple, hash-set accumulators, on-path recomputed per tuple, one
/// relationship vote per unique on-path path.
ReferenceIndex reference_build(
    const std::vector<bgp::RibEntry>& tuples,
    const topo::OrgMap* orgs, const rel::RelationshipDataset* relationships,
    const ObservationConfig& config) {
  struct Acc {
    std::unordered_set<std::uint64_t> on_paths;
    std::unordered_set<std::uint64_t> off_paths;
    ReferenceStats votes;
  };
  std::map<Community, Acc> acc;
  std::unordered_set<std::uint64_t> unique_paths;
  for (const bgp::RibEntry& tuple : tuples) {
    const bgp::AsPath& path = tuple.route.path;
    const Community community = tuple.route.communities.front();
    const std::uint64_t hash = path.hash();
    unique_paths.insert(hash);
    const std::uint16_t alpha = community.alpha();
    bool on = path.contains(alpha);
    if (!on && config.sibling_aware && orgs != nullptr)
      for (const bgp::Asn sibling : orgs->siblings(alpha))
        if (sibling != alpha && path.contains(sibling)) on = true;
    Acc& a = acc[community];
    if (!on) {
      a.off_paths.insert(hash);
      continue;
    }
    if (!a.on_paths.insert(hash).second || relationships == nullptr) continue;
    if (const auto next = path.next_toward_origin(alpha))
      if (const auto rel = relationships->relationship(alpha, *next))
        switch (*rel) {
          case topo::RelFrom::kCustomer: ++a.votes.customer; break;
          case topo::RelFrom::kPeer: ++a.votes.peer; break;
          case topo::RelFrom::kProvider: ++a.votes.provider; break;
          case topo::RelFrom::kSibling: break;
        }
  }
  ReferenceIndex index;
  index.unique_paths = unique_paths.size();
  for (const auto& [community, a] : acc) {
    ReferenceStats s = a.votes;
    s.on = a.on_paths.size();
    s.off = a.off_paths.size();
    index.stats.emplace(community, s);
  }
  return index;
}

void expect_matches_reference(const ObservationIndex& index,
                              const ReferenceIndex& reference) {
  EXPECT_EQ(index.unique_path_count(), reference.unique_paths);
  ASSERT_EQ(index.community_count(), reference.stats.size());
  // index.all() is sorted by community; std::map iterates in the same order.
  std::size_t i = 0;
  for (const auto& [community, ref] : reference.stats) {
    const CommunityStats& got = index.all()[i++];
    ASSERT_EQ(got.community, community);
    EXPECT_EQ(got.on_path_paths, ref.on) << community.to_string();
    EXPECT_EQ(got.off_path_paths, ref.off) << community.to_string();
    EXPECT_EQ(got.customer_votes, ref.customer) << community.to_string();
    EXPECT_EQ(got.peer_votes, ref.peer) << community.to_string();
    EXPECT_EQ(got.provider_votes, ref.provider) << community.to_string();
  }
}

/// A random path over ASNs 100-139, with prepends and occasional AS_SETs.
bgp::AsPath random_path(util::Rng& rng) {
  const std::size_t hops = 2 + rng.uniform(0, 3);
  std::vector<bgp::Asn> asns;
  for (std::size_t h = 0; h < hops; ++h) {
    const bgp::Asn asn = 100 + static_cast<bgp::Asn>(rng.uniform(0, 39));
    asns.push_back(asn);
    if (rng.uniform(0, 5) == 0) asns.push_back(asn);  // prepend
  }
  if (rng.uniform(0, 7) != 0) return bgp::AsPath(std::move(asns));
  std::vector<bgp::PathSegment> segments;
  segments.push_back(
      bgp::PathSegment{bgp::SegmentType::kSequence, std::move(asns)});
  segments.push_back(bgp::PathSegment{
      bgp::SegmentType::kSet,
      {200 + static_cast<bgp::Asn>(rng.uniform(0, 9)),
       220 + static_cast<bgp::Asn>(rng.uniform(0, 9))}});
  return bgp::AsPath(std::move(segments));
}

/// A random community: alphas overlap the path ASN range (on-path), its
/// sibling groups, and a disjoint range (always off-path).
Community random_community(util::Rng& rng, std::uint16_t max_beta) {
  const std::uint16_t alpha =
      rng.uniform(0, 1) == 0
          ? static_cast<std::uint16_t>(100 + rng.uniform(0, 49))
          : static_cast<std::uint16_t>(5000 + rng.uniform(0, 9));
  return Community(alpha, static_cast<std::uint16_t>(rng.uniform(0, max_beta)));
}

/// Randomized tuple set, one single-community RIB row per tuple: a small
/// path pool replayed with repetition, alphas drawn so that on-path,
/// sibling-expanded and off-path cases all occur.
std::vector<bgp::RibEntry> random_tuples(std::uint64_t seed) {
  util::Rng rng(seed);
  const std::size_t pool_size = 20 + rng.uniform(0, 20);
  std::vector<bgp::AsPath> pool;
  pool.reserve(pool_size);
  for (std::size_t p = 0; p < pool_size; ++p) pool.push_back(random_path(rng));
  const std::size_t tuple_count = 200 + rng.uniform(0, 600);
  std::vector<bgp::RibEntry> tuples;
  tuples.reserve(tuple_count);
  for (std::size_t i = 0; i < tuple_count; ++i) {
    bgp::RibEntry tuple;
    tuple.route.path =
        pool[rng.uniform(0, static_cast<std::uint64_t>(pool_size - 1))];
    tuple.route.communities = {random_community(rng, 30)};
    tuples.push_back(std::move(tuple));
  }
  return tuples;
}

/// Sibling groups across the alpha/path ASN range, so sibling expansion
/// changes answers for some (path, alpha) pairs.
topo::OrgMap random_orgs(std::uint64_t seed) {
  util::Rng rng(seed ^ 0x9e3779b97f4a7c15ull);
  topo::OrgMap orgs;
  for (bgp::Asn asn = 100; asn < 150; ++asn)
    if (rng.uniform(0, 1) == 0)
      orgs.assign(asn, static_cast<topo::OrgId>(rng.uniform(0, 11)));
  return orgs;
}

/// Random relationships over the ASN range used by paths.
rel::RelationshipDataset random_relationships(std::uint64_t seed) {
  util::Rng rng(seed ^ 0xdeadbeefull);
  rel::RelationshipDataset rels;
  for (int i = 0; i < 120; ++i) {
    const bgp::Asn a = 100 + static_cast<bgp::Asn>(rng.uniform(0, 49));
    const bgp::Asn b = 100 + static_cast<bgp::Asn>(rng.uniform(0, 49));
    if (a == b) continue;
    if (rng.uniform(0, 2) == 0)
      rels.set_p2p(a, b);
    else
      rels.set_p2c(a, b);
  }
  return rels;
}

/// The sequential build and the parallel build at pool sizes 1, 2 and 8
/// all match `reference`.
void expect_every_build_matches(const bgp::PathTable& paths,
                                std::span<const bgp::InternedTuple> tuples,
                                const topo::OrgMap* orgs,
                                const rel::RelationshipDataset* relationships,
                                const ReferenceIndex& reference) {
  const ObservationConfig config;
  expect_matches_reference(ObservationIndex::build_interned(
                               paths, tuples, orgs, relationships, config),
                           reference);
  for (const unsigned threads : {1u, 2u, 8u}) {
    util::ThreadPool pool(threads);
    expect_matches_reference(
        ObservationIndex::build_parallel_interned(paths, tuples, pool, orgs,
                                                  relationships, config),
        reference);
  }
}

class ObservationInterningProperty
    : public ::testing::TestWithParam<std::uint64_t> {};

INSTANTIATE_TEST_SUITE_P(Seeds, ObservationInterningProperty,
                         ::testing::Values(1, 2, 3, 5, 8, 13, 21, 34));

TEST_P(ObservationInterningProperty, MatchesReferenceWithoutOrgMap) {
  const auto tuples = random_tuples(GetParam());
  const ObservationConfig config;
  const auto reference = reference_build(tuples, nullptr, nullptr, config);
  expect_matches_reference(
      test_support::index_of(tuples, nullptr, nullptr, config), reference);
}

TEST_P(ObservationInterningProperty, MatchesReferenceWithSiblings) {
  const auto tuples = random_tuples(GetParam());
  const topo::OrgMap orgs = random_orgs(GetParam());
  const ObservationConfig config;
  const auto reference = reference_build(tuples, &orgs, nullptr, config);
  expect_matches_reference(
      test_support::index_of(tuples, &orgs, nullptr, config), reference);
}

TEST_P(ObservationInterningProperty, MatchesReferenceSiblingAwareOff) {
  const auto tuples = random_tuples(GetParam());
  const topo::OrgMap orgs = random_orgs(GetParam());
  ObservationConfig config;
  config.sibling_aware = false;
  const auto reference = reference_build(tuples, &orgs, nullptr, config);
  expect_matches_reference(
      test_support::index_of(tuples, &orgs, nullptr, config), reference);
}

TEST_P(ObservationInterningProperty, MatchesReferenceWithRelationshipVotes) {
  const auto tuples = random_tuples(GetParam());
  const topo::OrgMap orgs = random_orgs(GetParam());
  const rel::RelationshipDataset rels = random_relationships(GetParam());
  const ObservationConfig config;
  const auto reference = reference_build(tuples, &orgs, &rels, config);
  expect_matches_reference(
      test_support::index_of(tuples, &orgs, &rels, config), reference);
}

TEST_P(ObservationInterningProperty, ParallelMatchesReferenceAtAnyPoolSize) {
  const auto tuples = random_tuples(GetParam());
  const topo::OrgMap orgs = random_orgs(GetParam());
  const rel::RelationshipDataset rels = random_relationships(GetParam());
  const ObservationConfig config;
  const auto reference = reference_build(tuples, &orgs, &rels, config);
  bgp::PathTable paths;
  const auto interned = bgp::intern_entries(paths, tuples);
  expect_every_build_matches(paths, interned, &orgs, &rels, reference);
}

// The first-sight filter holds at most 2^16 keys.  80,000 distinct keys,
// each repeated 5-20 times in shuffled order, overflow it: most repeats
// find their slot taken by another key and reach the sort, which must
// still count every (community, path) pair once.
TEST(ObservationFirstSightFilter, RepeatsPastTheFilterAreCountedOnce) {
  constexpr std::size_t kDistinct = 80'000;
  util::Rng rng(0x5eed);
  bgp::PathTable paths;
  std::vector<bgp::AsPath> pool;
  std::vector<bgp::PathId> ids;
  for (int p = 0; p < 600; ++p) {
    pool.push_back(random_path(rng));
    ids.push_back(paths.intern(pool.back()));
  }
  std::unordered_set<std::uint64_t> keys;
  std::vector<bgp::RibEntry> distinct;  // one row per key, for the reference
  std::vector<bgp::InternedTuple> stream;
  while (distinct.size() < kDistinct) {
    const std::size_t p = rng.uniform(0, pool.size() - 1);
    const Community community = random_community(rng, 199);
    if (!keys.insert(std::uint64_t{community.wire()} << 32 | ids[p]).second)
      continue;
    bgp::RibEntry row;
    row.route.path = pool[p];
    row.route.communities = {community};
    distinct.push_back(std::move(row));
    stream.insert(stream.end(), rng.uniform(5, 20),
                  bgp::InternedTuple{ids[p], community});
  }
  std::shuffle(stream.begin(), stream.end(), rng);

  const topo::OrgMap orgs = random_orgs(7);
  const rel::RelationshipDataset rels = random_relationships(7);
  expect_every_build_matches(
      paths, stream, &orgs, &rels,
      reference_build(distinct, &orgs, &rels, ObservationConfig{}));
}

// The lowest and highest packed keys: community 0:0 on PathId 0 packs to 0,
// and 65535:65535 on the table's last PathId sits next to the filter's
// empty-slot marker ~0.  Both are real keys and must be counted.
TEST(ObservationFirstSightFilter, KeysAtBothEndsOfTheKeySpaceAreCounted) {
  std::vector<bgp::RibEntry> tuples = random_tuples(7);
  tuples.insert(tuples.begin(),
                test_support::observed({64990, 64991}, Community(0, 0)));
  const bgp::RibEntry top =
      test_support::observed({64992, 64993, 64994}, Community(65535, 65535));
  tuples.insert(tuples.end(), 3, top);

  bgp::PathTable paths;
  const auto interned = bgp::intern_entries(paths, tuples);
  ASSERT_EQ(interned.front().path, 0u);
  ASSERT_EQ(interned.front().community.wire(), 0u);
  ASSERT_EQ(interned.back().path, paths.size() - 1);
  ASSERT_EQ(interned.back().community.wire(), 0xffffffffu);

  const topo::OrgMap orgs = random_orgs(7);
  const rel::RelationshipDataset rels = random_relationships(7);
  expect_every_build_matches(
      paths, interned, &orgs, &rels,
      reference_build(tuples, &orgs, &rels, ObservationConfig{}));
}

}  // namespace
}  // namespace bgpintent::core
