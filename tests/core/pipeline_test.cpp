#include "core/pipeline.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <sstream>

#include "mrt/mrt_file.hpp"
#include "rel/asrank.hpp"
#include "routing/scenario.hpp"
#include "support/observations.hpp"

namespace bgpintent::core {
namespace {

routing::ScenarioConfig default_scenario(std::uint64_t seed = 41) {
  routing::ScenarioConfig cfg;
  cfg.topology.seed = seed;
  cfg.topology.tier1_count = 6;
  cfg.topology.tier2_count = 40;
  cfg.topology.stub_count = 250;
  cfg.policy.seed = seed + 1;
  cfg.workload_seed = seed + 2;
  cfg.vantage_point_count = 150;
  return cfg;
}

class PipelineIntegration : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    scenario_ = new routing::Scenario(
        routing::Scenario::build(default_scenario()));
    entries_ = new std::vector<bgp::RibEntry>(scenario_->entries());
  }
  static void TearDownTestSuite() {
    delete entries_;
    delete scenario_;
    entries_ = nullptr;
    scenario_ = nullptr;
  }
  static routing::Scenario* scenario_;
  static std::vector<bgp::RibEntry>* entries_;
};

routing::Scenario* PipelineIntegration::scenario_ = nullptr;
std::vector<bgp::RibEntry>* PipelineIntegration::entries_ = nullptr;

TEST_F(PipelineIntegration, HighAccuracyAgainstGroundTruth) {
  Pipeline pipeline;
  pipeline.set_org_map(&scenario_->topology().orgs);
  const auto result = pipeline.run(*entries_);
  const auto eval = result.score(scenario_->ground_truth());
  ASSERT_GT(eval.labeled_observed, 300u);
  EXPECT_GT(eval.coverage(), 0.9);
  // This test topology is deliberately small (fast); the calibrated
  // bench-scale scenario reaches ~96% (see bench/eval_overall).  At this
  // scale the scale-dependent noise terms cost a few points.
  EXPECT_GT(eval.accuracy(), 0.85)
      << "accuracy " << eval.accuracy() << " over " << eval.classified
      << " classified communities";
}

TEST_F(PipelineIntegration, ClusteringBeatsNoClustering) {
  Pipeline clustered;
  clustered.set_org_map(&scenario_->topology().orgs);
  const auto with_clusters = clustered.run(*entries_);

  PipelineConfig no_cluster_cfg;
  no_cluster_cfg.classifier.min_gap = 0;
  Pipeline isolated(no_cluster_cfg);
  isolated.set_org_map(&scenario_->topology().orgs);
  const auto without = isolated.run(*entries_);

  const double acc_clustered =
      with_clusters.score(scenario_->ground_truth()).accuracy();
  const double acc_isolated =
      without.score(scenario_->ground_truth()).accuracy();
  EXPECT_GT(acc_clustered, acc_isolated)
      << "clustered " << acc_clustered << " vs isolated " << acc_isolated;
}

TEST_F(PipelineIntegration, RouteServerCommunitiesExcluded) {
  Pipeline pipeline;
  pipeline.set_org_map(&scenario_->topology().orgs);
  const auto result = pipeline.run(*entries_);
  // Every observed route-server community must be unclassified.
  std::size_t rs_seen = 0;
  for (const auto& ixp : scenario_->topology().ixps) {
    const auto rs_alpha = static_cast<std::uint16_t>(ixp.route_server);
    for (const std::uint16_t beta :
         result.observations.observed_betas(rs_alpha)) {
      ++rs_seen;
      EXPECT_EQ(result.inference.label_of(Community(rs_alpha, beta)),
                Intent::kUnclassified);
    }
  }
  EXPECT_GT(rs_seen, 0u);
  EXPECT_GT(result.inference.excluded_never_on_path, 0u);
}

TEST_F(PipelineIntegration, MrtRoundTripGivesIdenticalInferences) {
  Pipeline pipeline;
  pipeline.set_org_map(&scenario_->topology().orgs);
  const auto direct = pipeline.run(*entries_);

  std::ostringstream mrt_bytes;
  mrt::MrtWriter writer(mrt_bytes);
  writer.write_rib_snapshot(*entries_, 0x7f000001, 1684886400);
  std::istringstream in(mrt_bytes.str());
  const auto via_mrt = pipeline.run_mrt(in);

  EXPECT_EQ(via_mrt.inference.information_count,
            direct.inference.information_count);
  EXPECT_EQ(via_mrt.inference.action_count, direct.inference.action_count);
  EXPECT_EQ(via_mrt.inference.labels, direct.inference.labels);
}

TEST_F(PipelineIntegration, MostCommunitiesInformation) {
  // The paper infers ~69% information / ~31% action; our scenario should
  // produce an information-majority split as well.
  Pipeline pipeline;
  pipeline.set_org_map(&scenario_->topology().orgs);
  const auto result = pipeline.run(*entries_);
  EXPECT_GT(result.inference.information_count,
            result.inference.action_count);
  EXPECT_GT(result.inference.action_count, 0u);
}

TEST_F(PipelineIntegration, CustomerPeerFeatureIsWorse) {
  // Fig. 7: the customer:peer feature peaks at ~80% while the on/off-path
  // feature reaches ~96%.  Verify the ordering (not absolute values): the
  // best customer:peer threshold over the dictionary clusters stays below
  // the on/off classifier's accuracy.
  std::vector<bgp::AsPath> paths;
  for (const auto& entry : *entries_) paths.push_back(entry.route.path);
  const auto rels = rel::infer_relationships(paths);

  const auto index =
      test_support::index_of(*entries_, &scenario_->topology().orgs, &rels);
  const double acc_on_off =
      evaluate(index, classify(index), scenario_->ground_truth()).accuracy();
  double best_cust_peer = 0.0;
  for (const ThresholdSweepPoint& point : sweep_ratio_threshold(
           baseline_clusters(index, scenario_->ground_truth()),
           {0.5, 1, 2, 3, 5, 8, 12, 20, 50, 100},
           ClusterFeature::kCustomerPeer))
    best_cust_peer = std::max(best_cust_peer, point.accuracy);
  EXPECT_GT(acc_on_off, best_cust_peer)
      << "on/off " << acc_on_off << " vs customer:peer " << best_cust_peer;
}

TEST(Pipeline, EmptyInput) {
  Pipeline pipeline;
  const auto result = pipeline.run(std::vector<bgp::RibEntry>{});
  EXPECT_EQ(result.inference.classified_count(), 0u);
  EXPECT_EQ(result.observations.community_count(), 0u);
}

TEST_F(PipelineIntegration, ThreadCountDoesNotChangeOutput) {
  // The contract of the parallel pipeline (docs/THREADING.md): for any
  // thread count the observation index AND the inference are identical to
  // the sequential reference path, field by field.
  PipelineConfig sequential_cfg;
  sequential_cfg.threads = 1;
  Pipeline sequential(sequential_cfg);
  sequential.set_org_map(&scenario_->topology().orgs);
  const auto reference = sequential.run(*entries_);

  for (const unsigned threads : {2u, 8u}) {
    PipelineConfig cfg;
    cfg.threads = threads;
    Pipeline parallel(cfg);
    parallel.set_org_map(&scenario_->topology().orgs);
    const auto result = parallel.run(*entries_);

    // Observation index: same stats in the same (sorted) order.
    EXPECT_EQ(result.observations.all(), reference.observations.all())
        << "threads=" << threads;
    EXPECT_EQ(result.observations.unique_path_count(),
              reference.observations.unique_path_count());
    EXPECT_EQ(result.observations.alphas(), reference.observations.alphas());

    // Inference: same clusters in the same order, same labels and counts.
    EXPECT_EQ(result.inference.clusters, reference.inference.clusters)
        << "threads=" << threads;
    EXPECT_EQ(result.inference.labels, reference.inference.labels);
    EXPECT_EQ(result.inference.information_count,
              reference.inference.information_count);
    EXPECT_EQ(result.inference.action_count, reference.inference.action_count);
    EXPECT_EQ(result.inference.excluded_private,
              reference.inference.excluded_private);
    EXPECT_EQ(result.inference.excluded_never_on_path,
              reference.inference.excluded_never_on_path);
  }
}

TEST_F(PipelineIntegration, ParallelMrtPathMatchesSequential) {
  std::ostringstream mrt_bytes;
  mrt::MrtWriter writer(mrt_bytes);
  writer.write_rib_snapshot(*entries_, 0x7f000001, 1684886400);

  PipelineConfig sequential_cfg;
  sequential_cfg.threads = 1;
  Pipeline sequential(sequential_cfg);
  sequential.set_org_map(&scenario_->topology().orgs);
  std::istringstream seq_in(mrt_bytes.str());
  const auto reference = sequential.run_mrt(seq_in);

  PipelineConfig parallel_cfg;
  parallel_cfg.threads = 4;
  Pipeline parallel(parallel_cfg);
  parallel.set_org_map(&scenario_->topology().orgs);
  std::istringstream par_in(mrt_bytes.str());
  const auto result = parallel.run_mrt(par_in);

  EXPECT_EQ(result.observations.all(), reference.observations.all());
  EXPECT_EQ(result.inference.clusters, reference.inference.clusters);
  EXPECT_EQ(result.inference.labels, reference.inference.labels);
}

TEST(Pipeline, ThreadsZeroResolvesToHardwareConcurrency) {
  // threads = 0 must behave like "some valid worker count", not crash or
  // change results on any machine.
  routing::ScenarioConfig cfg = default_scenario(99);
  cfg.topology.stub_count = 40;
  cfg.vantage_point_count = 8;
  const auto scenario = routing::Scenario::build(cfg);
  const auto entries = scenario.entries();

  PipelineConfig auto_cfg;
  auto_cfg.threads = 0;
  const auto via_auto = Pipeline(auto_cfg).run(entries);
  const auto via_sequential = Pipeline().run(entries);
  EXPECT_EQ(via_auto.inference.labels, via_sequential.inference.labels);
  EXPECT_EQ(via_auto.observations.all(), via_sequential.observations.all());
}

}  // namespace
}  // namespace bgpintent::core
