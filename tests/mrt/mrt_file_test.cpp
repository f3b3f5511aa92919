#include "mrt/mrt_file.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <sstream>

#include "routing/scenario.hpp"
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

TEST(MrtRecord, RawRoundTrip) {
  std::ostringstream out;
  MrtWriter writer(out);
  writer.write_record(MrtRecord{1234, 13, 1, {1, 2, 3}});
  writer.write_record(MrtRecord{1235, 16, 4, {}});

  std::istringstream in(out.str());
  MrtReader reader(in);
  MrtRecord record;
  ASSERT_TRUE(reader.next(record));
  EXPECT_EQ(record.timestamp, 1234u);
  EXPECT_EQ(record.type, 13u);
  EXPECT_EQ(record.subtype, 1u);
  EXPECT_EQ(record.body, (std::vector<std::uint8_t>{1, 2, 3}));
  ASSERT_TRUE(reader.next(record));
  EXPECT_EQ(record.timestamp, 1235u);
  EXPECT_TRUE(record.body.empty());
  EXPECT_FALSE(reader.next(record));
}

TEST(MrtReader, TruncatedHeaderThrows) {
  std::istringstream in(std::string("\x00\x01\x02", 3));
  MrtReader reader(in);
  MrtRecord record;
  EXPECT_THROW((void)reader.next(record), MrtError);
}

TEST(MrtReader, TruncatedBodyThrows) {
  std::ostringstream out;
  MrtWriter writer(out);
  writer.write_record(MrtRecord{0, 13, 1, {1, 2, 3, 4}});
  std::string data = out.str();
  data.resize(data.size() - 2);
  std::istringstream in(data);
  MrtReader reader(in);
  MrtRecord record;
  EXPECT_THROW((void)reader.next(record), MrtError);
}

TEST(RibSnapshot, RoundTripPreservesEntries) {
  std::vector<bgp::RibEntry> entries;
  entries.push_back(make_entry(65001, "10.0.0.0/24", {65001, 1299, 64496},
                               {bgp::Community(1299, 35130)}));
  entries.push_back(make_entry(65002, "10.0.0.0/24", {65002, 701, 64496},
                               {bgp::Community(1299, 2569)}));
  entries.push_back(make_entry(65001, "10.0.1.0/24", {65001, 64497}));

  std::ostringstream out;
  MrtWriter writer(out);
  writer.write_rib_snapshot(entries, 0x0a0a0a0a, 1700000000);

  std::istringstream in(out.str());
  auto decoded = test_support::decode_entries(in);
  ASSERT_EQ(decoded.size(), entries.size());
  // Reader groups by prefix; compare as multisets via sorting.
  auto key = [](const bgp::RibEntry& e) {
    return std::make_tuple(e.route.prefix, e.vantage_point.asn);
  };
  std::sort(entries.begin(), entries.end(),
            [&](const auto& a, const auto& b) { return key(a) < key(b); });
  std::sort(decoded.begin(), decoded.end(),
            [&](const auto& a, const auto& b) { return key(a) < key(b); });
  for (std::size_t i = 0; i < entries.size(); ++i) {
    EXPECT_EQ(decoded[i].vantage_point, entries[i].vantage_point);
    EXPECT_EQ(decoded[i].route.prefix, entries[i].route.prefix);
    EXPECT_EQ(decoded[i].route.path, entries[i].route.path);
    EXPECT_EQ(decoded[i].route.communities, entries[i].route.communities);
  }
}

TEST(RibSnapshot, EmptySnapshotYieldsPeerTableOnly) {
  std::ostringstream out;
  MrtWriter writer(out);
  writer.write_rib_snapshot({}, 1, 0);
  std::istringstream in(out.str());
  EXPECT_TRUE(test_support::decode_entries(in).empty());
}

TEST(Updates, RoundTripThroughBgp4mp) {
  const auto entry = make_entry(65001, "10.7.0.0/24", {65001, 1299, 64496},
                                {bgp::Community(1299, 430)});
  std::ostringstream out;
  MrtWriter writer(out);
  writer.write_update(entry.vantage_point, entry.route, 1700000001);

  std::istringstream in(out.str());
  const auto decoded = test_support::decode_entries(in);
  ASSERT_EQ(decoded.size(), 1u);
  EXPECT_EQ(decoded[0].vantage_point, entry.vantage_point);
  EXPECT_EQ(decoded[0].route.prefix, entry.route.prefix);
  EXPECT_EQ(decoded[0].route.path, entry.route.path);
  EXPECT_EQ(decoded[0].route.communities, entry.route.communities);
}

TEST(Updates, MixedSnapshotAndUpdatesInOneStream) {
  const auto a = make_entry(65001, "10.0.0.0/24", {65001, 64496});
  const auto b = make_entry(65002, "10.0.1.0/24", {65002, 64497});
  std::ostringstream out;
  MrtWriter writer(out);
  writer.write_rib_snapshot({a}, 1, 100);
  writer.write_update(b.vantage_point, b.route, 101);
  std::istringstream in(out.str());
  const auto decoded = test_support::decode_entries(in);
  EXPECT_EQ(decoded.size(), 2u);
}

TEST(Updates, UnknownRecordTypesSkipped) {
  std::ostringstream out;
  MrtWriter writer(out);
  writer.write_record(MrtRecord{0, 99, 0, {1, 2, 3}});
  const auto a = make_entry(65001, "10.0.0.0/24", {65001, 64496});
  writer.write_update(a.vantage_point, a.route, 1);
  std::istringstream in(out.str());
  EXPECT_EQ(test_support::decode_entries(in).size(), 1u);
}

TEST(Updates, ReadFromByteVector) {
  const auto a = make_entry(65001, "10.0.0.0/24", {65001, 64496});
  std::ostringstream out;
  MrtWriter writer(out);
  writer.write_update(a.vantage_point, a.route, 1);
  const std::string s = out.str();
  std::vector<std::uint8_t> bytes(s.begin(), s.end());
  EXPECT_EQ(test_support::decode_entries(bytes).size(), 1u);
}

// Integration: a full simulated collector RIB survives the MRT round trip
// bit-exactly (the pipeline can run from MRT files instead of memory).
TEST(MrtIntegration, ScenarioRibSurvivesRoundTrip) {
  routing::ScenarioConfig cfg;
  cfg.topology.seed = 21;
  cfg.topology.tier1_count = 4;
  cfg.topology.tier2_count = 12;
  cfg.topology.stub_count = 30;
  cfg.vantage_point_count = 8;
  const auto scenario = routing::Scenario::build(cfg);
  auto entries = scenario.entries();
  ASSERT_GT(entries.size(), 50u);

  std::ostringstream out;
  MrtWriter writer(out);
  writer.write_rib_snapshot(entries, 0x7f000001, 1684886400);
  std::istringstream in(out.str());
  auto decoded = test_support::decode_entries(in);
  ASSERT_EQ(decoded.size(), entries.size());

  auto key = [](const bgp::RibEntry& e) {
    return std::make_tuple(e.route.prefix, e.vantage_point.asn,
                           e.route.path.to_string());
  };
  std::sort(entries.begin(), entries.end(),
            [&](const auto& x, const auto& y) { return key(x) < key(y); });
  std::sort(decoded.begin(), decoded.end(),
            [&](const auto& x, const auto& y) { return key(x) < key(y); });
  for (std::size_t i = 0; i < entries.size(); ++i) {
    EXPECT_EQ(decoded[i].route.path, entries[i].route.path);
    EXPECT_EQ(decoded[i].route.communities, entries[i].route.communities);
  }
}

}  // namespace
}  // namespace bgpintent::mrt
