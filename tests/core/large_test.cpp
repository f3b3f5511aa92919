#include "core/large.hpp"

#include <gtest/gtest.h>

#include "core/pipeline.hpp"
#include "routing/scenario.hpp"

namespace bgpintent::core {
namespace {

bgp::RibEntry entry(std::uint32_t vp, std::vector<bgp::Asn> path,
                    std::vector<bgp::LargeCommunity> large) {
  bgp::RibEntry e;
  e.vantage_point.asn = vp;
  e.vantage_point.address = vp;
  e.route.prefix = *bgp::Prefix::parse("10.0.0.0/24");
  e.route.path = bgp::AsPath(std::move(path));
  e.route.large_communities = std::move(large);
  return e;
}

TEST(LargeObservationIndex, PoolsOverGamma) {
  std::vector<bgp::RibEntry> entries;
  entries.push_back(entry(61, {61, 100, 201}, {{100, 10, 1}, {100, 10, 2}}));
  entries.push_back(entry(62, {62, 100, 202}, {{100, 10, 3}}));
  entries.push_back(entry(63, {63, 999}, {{100, 10, 1}}));  // off-path
  const auto index = LargeObservationIndex::from_entries(entries);
  const auto* stats = index.find(100, 10);
  ASSERT_NE(stats, nullptr);
  EXPECT_EQ(stats->gamma_count, 3u);
  EXPECT_EQ(stats->on_path_paths, 2u);
  EXPECT_EQ(stats->off_path_paths, 1u);
  EXPECT_EQ(index.value_count(), 3u);  // (10,1), (10,2), (10,3)
  EXPECT_EQ(index.observed_betas(100), (std::vector<std::uint32_t>{10}));
  EXPECT_TRUE(index.alpha_on_any_path(100));
  EXPECT_FALSE(index.alpha_on_any_path(777));
}

TEST(LargeObservationIndex, ValueCountIsExact) {
  // Two distinct values that collide when gamma is XORed into the 64-bit
  // (alpha, beta) key at bit 17: each must still count once.
  std::vector<bgp::RibEntry> entries;
  entries.push_back(
      entry(61, {61, 1000, 201}, {{1000, 500, 0}, {1001, 500, 32768}}));
  const auto index = LargeObservationIndex::from_entries(entries);
  EXPECT_EQ(index.all().size(), 2u);
  EXPECT_EQ(index.value_count(), 2u);
}

TEST(LargeObservationIndex, FindMiss) {
  const auto index =
      LargeObservationIndex::from_entries(std::vector<bgp::RibEntry>{});
  EXPECT_EQ(index.find(1, 1), nullptr);
  EXPECT_TRUE(index.alphas().empty());
}

TEST(ClassifyLarge, PureOnIsInformation) {
  std::vector<bgp::RibEntry> entries;
  for (std::uint32_t vp = 61; vp < 66; ++vp)
    entries.push_back(entry(vp, {vp, 100, 201}, {{100, 10, vp}}));
  const auto index = LargeObservationIndex::from_entries(entries);
  const auto result = classify_large(index);
  EXPECT_EQ(result.label_of(bgp::LargeCommunity(100, 10, 61)),
            Intent::kInformation);
  EXPECT_EQ(result.information_count, 5u);  // five gammas
  EXPECT_EQ(result.action_count, 0u);
}

TEST(ClassifyLarge, MostlyOffPathIsAction) {
  std::vector<bgp::RibEntry> entries;
  entries.push_back(entry(61, {61, 100, 201}, {{100, 20, 7}}));
  for (std::uint32_t vp = 62; vp < 70; ++vp)
    entries.push_back(entry(vp, {vp, 999, 201}, {{100, 20, 7}}));
  // Alpha 100 must appear somewhere on a path to avoid exclusion.
  const auto index = LargeObservationIndex::from_entries(entries);
  const auto result = classify_large(index);
  EXPECT_EQ(result.label_of(bgp::LargeCommunity(100, 20, 7)),
            Intent::kAction);
}

TEST(ClassifyLarge, GapClusteringGroupsFunctions) {
  std::vector<bgp::RibEntry> entries;
  // Functions 10 and 11: info (pure on).  Function 500: action-ish.
  for (std::uint32_t vp = 61; vp < 64; ++vp)
    entries.push_back(
        entry(vp, {vp, 100, 201}, {{100, 10, 1}, {100, 11, 2}}));
  entries.push_back(entry(71, {71, 100, 202}, {{100, 500, 9}}));
  entries.push_back(entry(72, {72, 999}, {{100, 500, 9}}));
  entries.push_back(entry(73, {73, 998}, {{100, 500, 9}}));
  const auto index = LargeObservationIndex::from_entries(entries);
  const auto result = classify_large(index);
  // 10 and 11 cluster together (gap 1), function 500 is separate.
  EXPECT_EQ(result.label_of(bgp::LargeCommunity(100, 10, 1)),
            Intent::kInformation);
  EXPECT_EQ(result.label_of(bgp::LargeCommunity(100, 11, 2)),
            Intent::kInformation);
  EXPECT_EQ(result.label_of(bgp::LargeCommunity(100, 500, 9)),
            Intent::kAction);
}

TEST(ClassifyLarge, NeverOnPathExcluded) {
  std::vector<bgp::RibEntry> entries;
  entries.push_back(entry(61, {61, 999}, {{777, 10, 1}}));
  const auto index = LargeObservationIndex::from_entries(entries);
  const auto result = classify_large(index);
  EXPECT_EQ(result.label_of(bgp::LargeCommunity(777, 10, 1)),
            Intent::kUnclassified);
  EXPECT_EQ(result.excluded_never_on_path, 1u);
}

TEST(ClassifyLarge, PrivateAlphaExcluded) {
  std::vector<bgp::RibEntry> entries;
  entries.push_back(
      entry(61, {61, 4200000001U, 201}, {{4200000001U, 10, 1}}));
  const auto index = LargeObservationIndex::from_entries(entries);
  const auto result = classify_large(index);
  EXPECT_EQ(result.label_of(bgp::LargeCommunity(4200000001U, 10, 1)),
            Intent::kUnclassified);
}

// End-to-end: the simulator's large-community usage mirrors regular usage,
// so the extension should classify geo/rel functions info and the
// no-export function action for most adopting ASes.
TEST(ClassifyLarge, EndToEndOnScenario) {
  routing::ScenarioConfig cfg;
  cfg.topology.seed = 71;
  cfg.topology.tier1_count = 6;
  cfg.topology.tier2_count = 40;
  cfg.topology.stub_count = 250;
  cfg.vantage_point_count = 60;
  const auto scenario = routing::Scenario::build(cfg);
  const auto entries = scenario.entries();
  const auto index = LargeObservationIndex::from_entries(entries);
  ASSERT_GT(index.value_count(), 100u);
  const auto result = classify_large(index);
  ASSERT_GT(result.information_count + result.action_count, 50u);

  // Score against the constructed semantics: geo/rel functions are
  // information, the no-export function is action.
  std::size_t correct = 0;
  std::size_t total = 0;
  for (const auto& stats : index.all()) {
    const auto intent =
        result.label_of(bgp::LargeCommunity(stats.alpha, stats.beta, 0));
    if (intent == Intent::kUnclassified) continue;
    const bool is_info = stats.beta == routing::kLargeGeoFunction ||
                         stats.beta == routing::kLargeRelFunction;
    const bool is_action = stats.beta == routing::kLargeNoExportFunction;
    if (!is_info && !is_action) continue;
    ++total;
    if ((is_info && intent == Intent::kInformation) ||
        (is_action && intent == Intent::kAction))
      ++correct;
  }
  ASSERT_GT(total, 20u);
  EXPECT_GT(static_cast<double>(correct) / static_cast<double>(total), 0.85)
      << correct << "/" << total;
}

}  // namespace
}  // namespace bgpintent::core
