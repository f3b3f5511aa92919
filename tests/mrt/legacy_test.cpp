#include <gtest/gtest.h>

#include <sstream>

#include "mrt/mrt_file.hpp"
#include "support/rib_entries.hpp"

namespace bgpintent::mrt {
namespace {

bgp::RibEntry make_entry(std::uint32_t peer_asn, const char* prefix,
                         std::vector<bgp::Asn> path,
                         std::vector<bgp::Community> communities = {}) {
  bgp::RibEntry entry;
  entry.vantage_point.asn = peer_asn;
  entry.vantage_point.address = 0xc0000000u | peer_asn;
  entry.route.prefix = *bgp::Prefix::parse(prefix);
  entry.route.path = bgp::AsPath(std::move(path));
  entry.route.communities = std::move(communities);
  entry.route.next_hop = entry.vantage_point.address;
  return entry;
}

TEST(LegacyTableDump, RoundTrip) {
  std::vector<bgp::RibEntry> entries;
  entries.push_back(make_entry(65001, "10.0.0.0/24", {65001, 1299, 64496},
                               {bgp::Community(1299, 35130)}));
  entries.push_back(make_entry(65002, "10.0.1.0/24", {65002, 701}));
  std::ostringstream out;
  MrtWriter writer(out);
  writer.write_legacy_rib(entries, 1082000000);

  std::istringstream in(out.str());
  const auto decoded = test_support::decode_entries(in);
  ASSERT_EQ(decoded.size(), 2u);
  EXPECT_EQ(decoded[0].vantage_point, entries[0].vantage_point);
  EXPECT_EQ(decoded[0].route.prefix, entries[0].route.prefix);
  EXPECT_EQ(decoded[0].route.path, entries[0].route.path);
  EXPECT_EQ(decoded[0].route.communities, entries[0].route.communities);
  EXPECT_EQ(decoded[1].route.path, entries[1].route.path);
}

TEST(LegacyTableDump, Rejects4OctetAsns) {
  std::ostringstream out;
  MrtWriter writer(out);
  EXPECT_THROW(
      writer.write_legacy_rib(
          {make_entry(65001, "10.0.0.0/24", {65001, 212483})}, 0),
      MrtError);
  EXPECT_THROW(
      writer.write_legacy_rib(
          {make_entry(212483, "10.0.0.0/24", {65001, 701})}, 0),
      MrtError);
}

TEST(LegacyTableDump, ManyCommunitiesUseExtendedLength) {
  std::vector<bgp::Community> many;
  for (std::uint16_t beta = 0; beta < 100; ++beta)
    many.emplace_back(1299, beta);
  const auto entry =
      make_entry(65001, "10.0.0.0/24", {65001, 1299}, std::move(many));
  std::ostringstream out;
  MrtWriter writer(out);
  writer.write_legacy_rib({entry}, 0);
  std::istringstream in(out.str());
  const auto decoded = test_support::decode_entries(in);
  ASSERT_EQ(decoded.size(), 1u);
  EXPECT_EQ(decoded[0].route.communities.size(), 100u);
  EXPECT_EQ(decoded[0].route.communities, entry.route.communities);
}

TEST(StateChange, WrittenAndSkippedOnRead) {
  const auto entry = make_entry(65001, "10.0.0.0/24", {65001, 701});
  std::ostringstream out;
  MrtWriter writer(out);
  writer.write_state_change(entry.vantage_point, 6, 1, 100);  // Established->Idle
  writer.write_update(entry.vantage_point, entry.route, 101);
  writer.write_state_change(entry.vantage_point, 1, 6, 102);

  std::istringstream raw(out.str());
  MrtReader reader(raw);
  MrtRecord record;
  std::size_t state_changes = 0;
  while (reader.next(record))
    if (record.type == kTypeBgp4mp &&
        record.subtype == kSubtypeBgp4mpStateChangeAs4)
      ++state_changes;
  EXPECT_EQ(state_changes, 2u);

  std::istringstream in(out.str());
  const auto decoded = test_support::decode_entries(in);
  ASSERT_EQ(decoded.size(), 1u);  // only the update contributes routes
  EXPECT_EQ(decoded[0].route.path, entry.route.path);
}

TEST(LegacyTableDump, MixedWithV2InOneStream) {
  const auto a = make_entry(65001, "10.0.0.0/24", {65001, 701});
  const auto b = make_entry(65002, "10.0.1.0/24", {65002, 1299});
  std::ostringstream out;
  MrtWriter writer(out);
  writer.write_legacy_rib({a}, 100);
  writer.write_rib_snapshot({b}, 0x7f000001, 200);
  std::istringstream in(out.str());
  const auto decoded = test_support::decode_entries(in);
  EXPECT_EQ(decoded.size(), 2u);
}

}  // namespace
}  // namespace bgpintent::mrt
