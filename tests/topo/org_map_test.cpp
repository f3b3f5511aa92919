#include "topo/org_map.hpp"

#include <gtest/gtest.h>

#include <span>
#include <vector>

namespace bgpintent::topo {
namespace {

TEST(OrgMap, AssignAndQuery) {
  OrgMap m;
  m.assign(1299, 7);
  m.assign(1300, 7);
  m.assign(3356, 8);
  EXPECT_EQ(m.org_of(1299), 7u);
  EXPECT_EQ(m.org_of(3356), 8u);
  EXPECT_FALSE(m.org_of(701));
  EXPECT_EQ(m.asn_count(), 3u);
  EXPECT_EQ(m.org_count(), 2u);
}

TEST(OrgMap, SiblingsSorted) {
  OrgMap m;
  m.assign(20, 1);
  m.assign(10, 1);
  m.assign(30, 1);
  const std::span<const Asn> siblings = m.siblings(20);
  EXPECT_EQ(std::vector<Asn>(siblings.begin(), siblings.end()),
            (std::vector<Asn>{10, 20, 30}));
}

TEST(OrgMap, UnmappedAsnIsItsOwnSibling) {
  OrgMap m;
  // No org, so no member list: the sibling walk is empty and callers test
  // the ASN itself first.
  EXPECT_TRUE(m.siblings(42).empty());
  EXPECT_TRUE(m.are_siblings(42, 42));
  EXPECT_FALSE(m.are_siblings(42, 43));
}

TEST(OrgMap, AreSiblings) {
  OrgMap m;
  m.assign(1, 100);
  m.assign(2, 100);
  m.assign(3, 200);
  EXPECT_TRUE(m.are_siblings(1, 2));
  EXPECT_TRUE(m.are_siblings(2, 1));
  EXPECT_FALSE(m.are_siblings(1, 3));
  EXPECT_TRUE(m.are_siblings(3, 3));
  EXPECT_FALSE(m.are_siblings(1, 999));  // unmapped partner
}

TEST(OrgMap, ReassignMovesAsn) {
  OrgMap m;
  m.assign(1, 100);
  m.assign(2, 100);
  m.assign(1, 200);
  EXPECT_EQ(m.org_of(1), 200u);
  EXPECT_FALSE(m.are_siblings(1, 2));
  const std::span<const Asn> old_org = m.siblings(2);
  const std::span<const Asn> new_org = m.siblings(1);
  EXPECT_EQ(std::vector<Asn>(old_org.begin(), old_org.end()),
            (std::vector<Asn>{2}));
  EXPECT_EQ(std::vector<Asn>(new_org.begin(), new_org.end()),
            (std::vector<Asn>{1}));
}

TEST(OrgMap, ReassignCleansEmptyOrg) {
  OrgMap m;
  m.assign(1, 100);
  m.assign(1, 200);
  EXPECT_EQ(m.org_count(), 1u);
}

}  // namespace
}  // namespace bgpintent::topo
