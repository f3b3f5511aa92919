#include "bgp/path_table.hpp"

#include <gtest/gtest.h>

#include <span>
#include <vector>

#include "bgp/aspath.hpp"
#include "bgp/route.hpp"

namespace bgpintent::bgp {
namespace {

AsPath seq(std::vector<Asn> asns) { return AsPath(std::move(asns)); }

TEST(PathTable, InternDedupesIdenticalPaths) {
  PathTable table;
  EXPECT_TRUE(table.empty());
  const PathId a = table.intern(seq({701, 1299, 64496}));
  const PathId b = table.intern(seq({701, 1299, 64496}));
  const PathId c = table.intern(seq({701, 3356, 64496}));
  EXPECT_EQ(a, b);
  EXPECT_NE(a, c);
  EXPECT_EQ(table.size(), 2u);
}

TEST(PathTable, IdsAreDenseInInternOrder) {
  PathTable table;
  EXPECT_EQ(table.intern(seq({1, 2})), 0u);
  EXPECT_EQ(table.intern(seq({3, 4})), 1u);
  EXPECT_EQ(table.intern(seq({1, 2})), 0u);
  EXPECT_EQ(table.intern(seq({5})), 2u);
}

TEST(PathTable, FindReturnsInternedIdOrNullopt) {
  PathTable table;
  const PathId id = table.intern(seq({701, 1299}));
  EXPECT_EQ(table.find(seq({701, 1299})), id);
  EXPECT_EQ(table.find(seq({701, 3356})), std::nullopt);
  EXPECT_EQ(PathTable().find(seq({701})), std::nullopt);
}

TEST(PathTable, HashMatchesAsPathHash) {
  PathTable table;
  const AsPath path = seq({701, 1299, 1299, 64496});
  EXPECT_EQ(table.hash(table.intern(path)), path.hash());
}

TEST(PathTable, AsnsPreservePrependsAndOrder) {
  PathTable table;
  const AsPath path = seq({701, 1299, 1299, 1299, 64496});
  const PathId id = table.intern(path);
  const std::span<const Asn> asns = table.asns(id);
  ASSERT_EQ(asns.size(), 5u);
  EXPECT_EQ(asns[0], 701u);
  EXPECT_EQ(asns[2], 1299u);
  EXPECT_EQ(asns[4], 64496u);
}

TEST(PathTable, UniqueAsnsSortedAndDeduplicated) {
  PathTable table;
  const PathId id = table.intern(seq({701, 1299, 1299, 174, 64496}));
  const std::span<const Asn> uniq = table.unique_asns(id);
  EXPECT_EQ(std::vector<Asn>(uniq.begin(), uniq.end()),
            (std::vector<Asn>{174, 701, 1299, 64496}));
}

TEST(PathTable, ContainsMatchesAsPath) {
  PathTable table;
  const AsPath path(std::vector<PathSegment>{
      PathSegment{SegmentType::kSequence, {701, 1299}},
      PathSegment{SegmentType::kSet, {174, 3356}},
  });
  const PathId id = table.intern(path);
  for (const Asn asn : {701u, 1299u, 174u, 3356u, 65000u, 1u})
    EXPECT_EQ(table.contains(id, asn), path.contains(asn)) << asn;
}

TEST(PathTable, NextTowardOriginMatchesAsPath) {
  PathTable table;
  // Prepends, plus a trailing AS_SET, to exercise the skip rules.
  const AsPath path(std::vector<PathSegment>{
      PathSegment{SegmentType::kSequence, {701, 1299, 1299, 174}},
      PathSegment{SegmentType::kSet, {64496, 64497}},
  });
  const PathId id = table.intern(path);
  for (const Asn asn : {701u, 1299u, 174u, 64496u, 65000u})
    EXPECT_EQ(table.next_toward_origin(id, asn), path.next_toward_origin(asn))
        << asn;
}

TEST(PathTable, SegmentStructureDistinguishesPaths) {
  PathTable table;
  const AsPath one_segment = seq({701, 1299});
  const AsPath two_segments(std::vector<PathSegment>{
      PathSegment{SegmentType::kSequence, {701}},
      PathSegment{SegmentType::kSequence, {1299}},
  });
  const AsPath as_set(std::vector<PathSegment>{
      PathSegment{SegmentType::kSet, {701, 1299}},
  });
  const PathId a = table.intern(one_segment);
  const PathId b = table.intern(two_segments);
  const PathId c = table.intern(as_set);
  EXPECT_NE(a, b);
  EXPECT_NE(a, c);
  EXPECT_NE(b, c);
}

TEST(PathTable, MaterializeRoundTrips) {
  PathTable table;
  const AsPath path(std::vector<PathSegment>{
      PathSegment{SegmentType::kSequence, {701, 1299, 1299}},
      PathSegment{SegmentType::kSet, {174, 3356}},
      PathSegment{SegmentType::kSequence, {64496}},
  });
  EXPECT_EQ(table.materialize(table.intern(path)), path);
}

TEST(PathTable, MemoryBytesGrowsWithContent) {
  PathTable table;
  const std::size_t empty_bytes = table.memory_bytes();
  for (Asn asn = 1; asn <= 64; ++asn) table.intern(seq({asn, asn + 1, asn + 2}));
  EXPECT_GT(table.memory_bytes(), empty_bytes);
}

TEST(InternEntries, ExpandsEachCommunityAndSkipsBareRoutes) {
  std::vector<RibEntry> entries(3);
  entries[0].route.path = seq({701, 1299});
  entries[0].route.communities = {Community(1299, 100), Community(1299, 200)};
  entries[1].route.path = seq({701, 174});  // no communities: contributes nothing
  entries[2].route.path = seq({701, 1299});
  entries[2].route.communities = {Community(174, 300)};

  PathTable table;
  const std::vector<InternedTuple> tuples = intern_entries(table, entries);
  ASSERT_EQ(tuples.size(), 3u);
  // Both community-bearing entries share one interned path; the bare route
  // is not interned at all (seed semantics: it contributes nothing).
  EXPECT_EQ(table.size(), 1u);
  EXPECT_EQ(tuples[0].path, tuples[2].path);
  EXPECT_EQ(tuples[0].community, Community(1299, 100));
  EXPECT_EQ(tuples[2].community, Community(174, 300));
}

TEST(PathTable, InternSequenceMatchesAsPathInterning) {
  // intern_sequence must land in the same slot (same id, same hash) as
  // interning the equivalent single-sequence AsPath — the simulator's
  // compact RIBs and the observation core share tables through this.
  PathTable table;
  const PathId a = table.intern(seq({701, 1299, 64496}));
  const std::vector<Asn> raw = {701, 1299, 64496};
  EXPECT_EQ(table.intern_sequence(raw), a);
  EXPECT_EQ(table.hash(a), seq({701, 1299, 64496}).hash());

  // And the other direction: sequence first, AsPath second.
  PathTable fresh;
  const std::vector<Asn> longer = {3356, 3356, 174};
  const PathId b = fresh.intern_sequence(longer);
  EXPECT_EQ(fresh.intern(seq({3356, 3356, 174})), b);
  EXPECT_EQ(fresh.hash(b), seq({3356, 3356, 174}).hash());
}

TEST(PathTable, InternSequenceEmptyMatchesEmptyPath) {
  PathTable table;
  const PathId a = table.intern_sequence(std::span<const Asn>{});
  EXPECT_EQ(table.intern(AsPath()), a);
  EXPECT_TRUE(table.asns(a).empty());
}

TEST(PathTable, ColumnRoundTripPreservesIdsAtEverySize) {
  // from_columns() once sized its dedup index with an unsigned subtraction
  // that underflowed past 64 paths, leaving the probe table over-full and
  // rehash() spinning forever.  Sweep across that boundary and well beyond
  // it: ids, hashes, spans, and dedup must all survive the round trip.
  for (const std::size_t n : {1u, 56u, 57u, 64u, 65u, 200u, 500u}) {
    PathTable table;
    for (std::uint32_t i = 0; i < n; ++i)
      table.intern(seq({100 + i, 200, 300 + i}));
    const auto exported = table.export_columns();
    const PathTable rebuilt = PathTable::from_columns(PathTable::ImportColumns{
        exported.asn_arena, exported.uniq_arena, exported.seg_types,
        exported.seg_counts, exported.asn_begin, exported.asn_count,
        exported.seg_begin, exported.seg_count, exported.uniq_begin,
        exported.uniq_count, exported.hashes});
    ASSERT_EQ(rebuilt.size(), n);
    for (std::uint32_t i = 0; i < n; ++i) {
      const AsPath path = seq({100 + i, 200, 300 + i});
      EXPECT_EQ(rebuilt.find(path), i) << "n=" << n;
      EXPECT_EQ(rebuilt.hash(i), path.hash());
    }
    // The reseeded index must dedup new interns against imported paths.
    PathTable fresh = PathTable::from_columns(PathTable::ImportColumns{
        exported.asn_arena, exported.uniq_arena, exported.seg_types,
        exported.seg_counts, exported.asn_begin, exported.asn_count,
        exported.seg_begin, exported.seg_count, exported.uniq_begin,
        exported.uniq_count, exported.hashes});
    EXPECT_EQ(fresh.intern(seq({100, 200, 300})), 0u) << "n=" << n;
    EXPECT_EQ(fresh.intern(seq({1, 2, 3})), n) << "n=" << n;
  }
}

TEST(PathTable, InternSequenceDedupesAndGrows) {
  PathTable table;
  std::vector<Asn> path(3);
  for (std::uint32_t i = 0; i < 500; ++i) {
    path[0] = 100 + (i % 250);
    path[1] = 200;
    path[2] = 300 + i;
    table.intern_sequence(path);
  }
  EXPECT_EQ(table.size(), 500u);
  path[0] = 100;
  path[2] = 300;
  EXPECT_EQ(table.intern_sequence(path), 0u);
  EXPECT_EQ(table.unique_asns(0).size(), 3u);
}

}  // namespace
}  // namespace bgpintent::bgp
