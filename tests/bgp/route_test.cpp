#include "bgp/route.hpp"

#include <gtest/gtest.h>

namespace bgpintent::bgp {
namespace {

Route make_route() {
  Route r;
  r.prefix = *Prefix::parse("192.0.2.0/24");
  r.path = AsPath({701, 1299, 64496});
  r.communities = {Community(1299, 35130), Community(1299, 2569)};
  return r;
}

TEST(Route, HasCommunity) {
  const Route r = make_route();
  EXPECT_TRUE(r.has_community(Community(1299, 35130)));
  EXPECT_FALSE(r.has_community(Community(1299, 1)));
}

TEST(Route, CanonicalizeSortsAndDedupes) {
  Route r = make_route();
  r.communities.push_back(Community(1299, 2569));  // duplicate
  r.large_communities = {LargeCommunity(2, 0, 0), LargeCommunity(1, 0, 0),
                         LargeCommunity(1, 0, 0)};
  r.canonicalize_communities();
  ASSERT_EQ(r.communities.size(), 2u);
  EXPECT_EQ(r.communities[0], Community(1299, 2569));
  EXPECT_EQ(r.communities[1], Community(1299, 35130));
  ASSERT_EQ(r.large_communities.size(), 2u);
  EXPECT_EQ(r.large_communities[0], LargeCommunity(1, 0, 0));
}

TEST(Route, EqualityIsStructural) {
  EXPECT_EQ(make_route(), make_route());
  Route other = make_route();
  other.local_pref = 200;
  EXPECT_NE(make_route(), other);
}

TEST(VantagePointId, Ordering) {
  const VantagePointId a{65000, 1};
  const VantagePointId b{65000, 2};
  const VantagePointId c{65001, 0};
  EXPECT_LT(a, b);
  EXPECT_LT(b, c);
}

}  // namespace
}  // namespace bgpintent::bgp
