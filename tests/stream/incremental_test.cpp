// The non-expiring window `bgpintent serve` runs, fed one entry at a time:
// labels appear and flip as evidence arrives, exclusions lift, repeated
// evidence is free, and the result matches the batch Pipeline.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <tuple>
#include <vector>

#include "core/pipeline.hpp"
#include "routing/scenario.hpp"
#include "stream/engine.hpp"

namespace bgpintent::stream {
namespace {

bgp::RibEntry entry(std::uint32_t vp, std::vector<bgp::Asn> path,
                    std::vector<Community> communities) {
  bgp::RibEntry e;
  e.vantage_point.asn = vp;
  e.vantage_point.address = vp;
  e.route.prefix = *bgp::Prefix::parse("10.0.0.0/24");
  e.route.path = bgp::AsPath(std::move(path));
  e.route.communities = std::move(communities);
  return e;
}

/// serve's window: nothing ever expires.
WindowConfig non_expiring() {
  WindowConfig config;
  config.window_epochs = UINT32_MAX;
  return config;
}

/// The exported evidence as (path, community) values: PathIds follow
/// intern order, so two ingest orders agree on these, not on the ids.
std::vector<std::tuple<bgp::AsPath, std::uint32_t>> evidence(
    const EngineState& state) {
  std::vector<std::tuple<bgp::AsPath, std::uint32_t>> out;
  for (const auto& epoch : state.window.ring)
    for (const auto& [key, count] : epoch.tuples)
      out.emplace_back(state.window.paths[key >> 32],
                       static_cast<std::uint32_t>(key));
  std::sort(out.begin(), out.end(), [](const auto& a, const auto& b) {
    return std::tuple(std::get<0>(a).to_string(), std::get<1>(a)) <
           std::tuple(std::get<0>(b).to_string(), std::get<1>(b));
  });
  return out;
}

TEST(Incremental, EmptyStateTotalsAreZero) {
  StreamEngine engine(non_expiring());
  const auto totals = engine.totals();
  EXPECT_EQ(totals.communities, 0u);
  EXPECT_EQ(totals.information, 0u);
  EXPECT_EQ(totals.action, 0u);
  EXPECT_EQ(totals.unclassified, 0u);
  EXPECT_EQ(engine.announces(), 0u);
  EXPECT_EQ(engine.stats().dirty_alphas, 0u);
  EXPECT_TRUE(engine.export_state().window.alphas.empty());
}

TEST(Incremental, ExportStateIsIngestOrderInsensitive) {
  const std::vector<bgp::RibEntry> entries{
      entry(61, {61, 100, 201}, {Community(100, 20000)}),
      entry(62, {62, 100, 201}, {Community(100, 20000), Community(200, 1)}),
      entry(70, {70, 999, 201}, {Community(100, 2569)}),
  };
  StreamEngine forward(non_expiring());
  for (const auto& e : entries) forward.announce(e);
  StreamEngine backward(non_expiring());
  for (auto it = entries.rbegin(); it != entries.rend(); ++it)
    backward.announce(*it);
  forward.reclassify();
  backward.reclassify();
  const EngineState a = forward.export_state();
  const EngineState b = backward.export_state();
  EXPECT_EQ(evidence(a), evidence(b));
  EXPECT_EQ(a.window.alphas, b.window.alphas);
  EXPECT_EQ(a.window.dirty, b.window.dirty);
  EXPECT_EQ(a.window.announces, b.window.announces);
}

TEST(Incremental, RestoreStateReplacesEverything) {
  StreamEngine source(non_expiring());
  source.announce(entry(61, {61, 100, 201}, {Community(100, 20000)}));
  (void)source.label_of(Community(100, 20000));  // cache a label

  StreamEngine target(non_expiring());
  target.announce(entry(99, {99, 500, 201}, {Community(500, 1)}));
  target.restore_state(source.export_state());
  EXPECT_EQ(target.export_state(), source.export_state());
  // The pre-restore community is gone, the restored one is present.
  EXPECT_EQ(target.label_of(Community(500, 1)), Intent::kUnclassified);
  EXPECT_EQ(target.label_of(Community(100, 20000)),
            source.label_of(Community(100, 20000)));
}

TEST(Incremental, LabelsAppearAsEvidenceArrives) {
  StreamEngine engine(non_expiring());
  EXPECT_EQ(engine.label_of(Community(100, 20000)), Intent::kUnclassified);
  for (std::uint32_t vp = 61; vp < 66; ++vp)
    engine.announce(entry(vp, {vp, 100, 201}, {Community(100, 20000)}));
  EXPECT_EQ(engine.label_of(Community(100, 20000)), Intent::kInformation);
  EXPECT_EQ(engine.announces(), 5u);
}

TEST(Incremental, LabelCanFlipWithNewEvidence) {
  StreamEngine engine(non_expiring());
  // First evidence: one on-path observation -> information (pure on).
  engine.announce(entry(61, {61, 100, 201}, {Community(100, 2569)}));
  EXPECT_EQ(engine.label_of(Community(100, 2569)), Intent::kInformation);
  // Then a flood of off-path observations flips it to action.
  for (std::uint32_t vp = 70; vp < 90; ++vp)
    engine.announce(entry(vp, {vp, 999, 201}, {Community(100, 2569)}));
  EXPECT_EQ(engine.label_of(Community(100, 2569)), Intent::kAction);
}

TEST(Incremental, NeverOnPathExclusionLiftsDynamically) {
  StreamEngine engine(non_expiring());
  // Route-server-style value: alpha 777 not on any path yet.
  engine.announce(entry(61, {61, 100, 201}, {Community(777, 5)}));
  EXPECT_EQ(engine.label_of(Community(777, 5)), Intent::kUnclassified);
  // A later path contains 777: the exclusion lifts and the (off-path-
  // dominated) value classifies.
  engine.announce(entry(62, {62, 777, 201}, {Community(777, 5)}));
  EXPECT_NE(engine.label_of(Community(777, 5)), Intent::kUnclassified);
}

TEST(Incremental, DuplicatePathsDoNotRedirty) {
  StreamEngine engine(non_expiring());
  const auto e = entry(61, {61, 100, 201}, {Community(100, 20000)});
  engine.announce(e);
  (void)engine.totals();  // settles the dirty set
  EXPECT_EQ(engine.stats().dirty_alphas, 0u);
  engine.announce(e);  // identical path & community: no new evidence
  EXPECT_EQ(engine.stats().dirty_alphas, 0u);
  EXPECT_FALSE(engine.has_pending_dirty());
}

TEST(Incremental, PrivateAlphaStaysUnclassified) {
  StreamEngine engine(non_expiring());
  engine.announce(entry(61, {61, 64512, 201}, {Community(64512, 100)}));
  EXPECT_EQ(engine.label_of(Community(64512, 100)), Intent::kUnclassified);
  const auto totals = engine.totals();
  EXPECT_EQ(totals.unclassified, 1u);
  EXPECT_EQ(totals.communities, 1u);
}

TEST(Incremental, SiblingAwareness) {
  topo::OrgMap orgs;
  orgs.assign(1299, 1);
  orgs.assign(1300, 1);
  StreamEngine engine(non_expiring(), &orgs);
  // Only the sibling 1300 appears in paths; 1299's value still counts as
  // on-path and is classifiable.
  engine.announce(entry(61, {61, 1300, 201}, {Community(1299, 20000)}));
  EXPECT_EQ(engine.label_of(Community(1299, 20000)), Intent::kInformation);
}

// serve's engine must agree with the batch pipeline when fed the same data
// (same config, same context).
TEST(Incremental, MatchesBatchPipelineOnScenario) {
  routing::ScenarioConfig cfg;
  cfg.topology.seed = 81;
  cfg.topology.tier1_count = 5;
  cfg.topology.tier2_count = 20;
  cfg.topology.stub_count = 100;
  cfg.vantage_point_count = 25;
  const auto scenario = routing::Scenario::build(cfg);
  const auto entries = scenario.entries();

  core::Pipeline batch;
  batch.set_org_map(&scenario.topology().orgs);
  const auto batch_result = batch.run(entries);

  StreamEngine streaming(non_expiring(), &scenario.topology().orgs);
  for (const auto& e : entries) streaming.announce(e);

  std::size_t compared = 0;
  for (const auto& stats : batch_result.observations.all()) {
    ++compared;
    EXPECT_EQ(streaming.label_of(stats.community),
              batch_result.inference.label_of(stats.community))
        << stats.community.to_string();
  }
  EXPECT_GT(compared, 300u);

  const auto totals = streaming.totals();
  EXPECT_EQ(totals.information, batch_result.inference.information_count);
  EXPECT_EQ(totals.action, batch_result.inference.action_count);
}

TEST(Incremental, IncrementalIngestMatchesBulkIngest) {
  routing::ScenarioConfig cfg;
  cfg.topology.seed = 83;
  cfg.topology.tier1_count = 4;
  cfg.topology.tier2_count = 15;
  cfg.topology.stub_count = 60;
  cfg.vantage_point_count = 12;
  const auto scenario = routing::Scenario::build(cfg);
  const auto entries = scenario.entries();

  StreamEngine bulk(non_expiring());
  for (const auto& e : entries) bulk.announce(e);
  StreamEngine one_by_one(non_expiring());
  for (const auto& e : entries) {
    one_by_one.announce(e);
    // Interleave queries to exercise partial reclassification.
    (void)one_by_one.label_of(e.route.communities.empty()
                                  ? Community(1, 1)
                                  : e.route.communities.front());
  }
  const auto a = bulk.totals();
  const auto b = one_by_one.totals();
  EXPECT_EQ(a.communities, b.communities);
  EXPECT_EQ(a.information, b.information);
  EXPECT_EQ(a.action, b.action);
  EXPECT_EQ(a.unclassified, b.unclassified);
  std::uint64_t seq = 0;
  EXPECT_EQ(bulk.label_snapshot(seq), one_by_one.label_snapshot(seq));
}

}  // namespace
}  // namespace bgpintent::stream
