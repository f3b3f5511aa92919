#include "core/observations.hpp"

#include <gtest/gtest.h>

#include "support/observations.hpp"

namespace bgpintent::core {
namespace {

using test_support::index_of;
using test_support::observed;

TEST(ObservationIndex, CountsOnAndOffPath) {
  const Community c(1299, 2569);
  const std::vector<bgp::RibEntry> tuples{
      observed({65541, 3356, 1299, 64496}, c),  // on-path
      observed({65432, 64496}, c),              // off-path
      observed({65269, 7018, 1299, 64496}, c),  // on-path
  };
  const auto index = index_of(tuples);
  const CommunityStats* stats = index.find(c);
  ASSERT_NE(stats, nullptr);
  EXPECT_EQ(stats->on_path_paths, 2u);
  EXPECT_EQ(stats->off_path_paths, 1u);
  EXPECT_EQ(stats->total_paths(), 3u);
  EXPECT_FALSE(stats->pure_on());
  EXPECT_FALSE(stats->pure_off());
}

TEST(ObservationIndex, UniquePathsCountedOnce) {
  const Community c(1299, 35130);
  const std::vector<bgp::RibEntry> tuples{
      observed({701, 1299, 64496}, c),
      observed({701, 1299, 64496}, c),  // duplicate path
      observed({701, 1299, 64496}, c),
  };
  const auto index = index_of(tuples);
  EXPECT_EQ(index.find(c)->on_path_paths, 1u);
  EXPECT_EQ(index.unique_path_count(), 1u);
}

TEST(ObservationIndex, PrependVariantsAreDistinctPaths) {
  const Community c(1299, 35130);
  const std::vector<bgp::RibEntry> tuples{
      observed({701, 1299, 64496}, c),
      observed({701, 1299, 1299, 64496}, c),
  };
  const auto index = index_of(tuples);
  EXPECT_EQ(index.find(c)->on_path_paths, 2u);
}

TEST(ObservationIndex, RatioComputation) {
  CommunityStats stats;
  stats.on_path_paths = 320;
  stats.off_path_paths = 2;
  EXPECT_DOUBLE_EQ(stats.on_off_ratio(), 160.0);
  stats.off_path_paths = 0;
  EXPECT_DOUBLE_EQ(stats.on_off_ratio(), 320.0);  // floored denominator
  EXPECT_TRUE(stats.pure_on());
}

TEST(ObservationIndex, SiblingAwareOnPath) {
  topo::OrgMap orgs;
  orgs.assign(1299, 1);
  orgs.assign(1300, 1);  // sibling of 1299
  const Community c(1299, 100);
  const std::vector<bgp::RibEntry> tuples{
      observed({701, 1300, 64496}, c),  // sibling on path
  };
  const auto with_siblings = index_of(tuples, &orgs);
  EXPECT_EQ(with_siblings.find(c)->on_path_paths, 1u);
  EXPECT_EQ(with_siblings.find(c)->off_path_paths, 0u);

  const auto without = index_of(tuples, &orgs, nullptr,
                                               ObservationConfig{false});
  EXPECT_EQ(without.find(c)->on_path_paths, 0u);
  EXPECT_EQ(without.find(c)->off_path_paths, 1u);
}

TEST(ObservationIndex, RelationshipVotes) {
  rel::RelationshipDataset rels;
  rels.set_p2c(1299, 64496);  // 64496 is 1299's customer
  rels.set_p2p(1299, 7018);
  const Community c(1299, 2569);
  const std::vector<bgp::RibEntry> tuples{
      observed({701, 1299, 64496}, c),         // next after 1299 = customer
      observed({3356, 1299, 7018, 64496}, c),  // next after 1299 = peer
      observed({65000, 64496}, c),             // off-path: no vote
  };
  const auto index = index_of(tuples, nullptr, &rels);
  const CommunityStats* stats = index.find(c);
  EXPECT_EQ(stats->customer_votes, 1u);
  EXPECT_EQ(stats->peer_votes, 1u);
  EXPECT_EQ(stats->provider_votes, 0u);
  EXPECT_DOUBLE_EQ(stats->customer_peer_ratio(), 1.0);
}

TEST(ObservationIndex, RelationshipVotesOncePerUniquePath) {
  rel::RelationshipDataset rels;
  rels.set_p2c(1299, 64496);
  const Community c(1299, 2569);
  const std::vector<bgp::RibEntry> tuples{
      observed({701, 1299, 64496}, c),
      observed({701, 1299, 64496}, c),  // duplicate
  };
  const auto index = index_of(tuples, nullptr, &rels);
  EXPECT_EQ(index.find(c)->customer_votes, 1u);
}

TEST(ObservationIndex, ObservedBetasSortedPerAlpha) {
  const std::vector<bgp::RibEntry> tuples{
      observed({701, 64496}, Community(1299, 300)),
      observed({701, 64496}, Community(1299, 100)),
      observed({701, 64496}, Community(1299, 200)),
      observed({701, 64496}, Community(3356, 5)),
  };
  const auto index = index_of(tuples);
  EXPECT_EQ(index.observed_betas(1299),
            (std::vector<std::uint16_t>{100, 200, 300}));
  EXPECT_EQ(index.observed_betas(3356), (std::vector<std::uint16_t>{5}));
  EXPECT_TRUE(index.observed_betas(9999).empty());
  EXPECT_EQ(index.alphas(), (std::vector<std::uint16_t>{1299, 3356}));
}

TEST(ObservationIndex, AlphaOnAnyPath) {
  const std::vector<bgp::RibEntry> tuples{
      observed({701, 1299, 64496}, Community(60000, 5)),  // IXP-style tag
  };
  const auto index = index_of(tuples);
  EXPECT_TRUE(index.alpha_on_any_path(1299));
  EXPECT_TRUE(index.alpha_on_any_path(701));
  EXPECT_FALSE(index.alpha_on_any_path(60000));  // never in a path
}

TEST(ObservationIndex, AlphaOnAnyPathViaSibling) {
  topo::OrgMap orgs;
  orgs.assign(1299, 1);
  orgs.assign(1300, 1);
  const std::vector<bgp::RibEntry> tuples{
      observed({701, 1300, 64496}, Community(1299, 5)),
  };
  const auto index = index_of(tuples, &orgs);
  EXPECT_TRUE(index.alpha_on_any_path(1299));
}

TEST(ObservationIndex, FromEntriesExpandsCommunities) {
  bgp::RibEntry entry;
  entry.route.path = bgp::AsPath({701, 1299, 64496});
  entry.route.communities = {Community(1299, 100), Community(701, 5)};
  const auto index = index_of(std::vector<bgp::RibEntry>{entry});
  EXPECT_EQ(index.community_count(), 2u);
  EXPECT_NE(index.find(Community(701, 5)), nullptr);
}

TEST(ObservationIndex, FindMissingCommunity) {
  const auto index = index_of({});
  EXPECT_EQ(index.find(Community(1, 1)), nullptr);
  EXPECT_TRUE(index.all().empty());
  EXPECT_TRUE(index.alphas().empty());
}

}  // namespace
}  // namespace bgpintent::core
