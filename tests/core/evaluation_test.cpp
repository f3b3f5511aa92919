#include "core/evaluation.hpp"

#include <gtest/gtest.h>

#include "support/observations.hpp"

namespace bgpintent::core {
namespace {

using test_support::index_of;
using test_support::observed;

void add_observations(std::vector<bgp::RibEntry>& tuples,
                      Community community, std::size_t on, std::size_t off) {
  for (std::size_t i = 0; i < on; ++i)
    tuples.push_back(observed({static_cast<Asn>(60000 + i),
                               community.alpha(), 64496},
                              community));
  for (std::size_t i = 0; i < off; ++i)
    tuples.push_back(observed({static_cast<Asn>(61000 + i), 64496}, community));
}

dict::DictionaryStore truth_for_100() {
  dict::DictionaryStore truth;
  auto& d = truth.dictionary_for(100);
  d.add(dict::CommunityPattern::compile("100:1000-1999"),
        dict::Category::kLocationCity, "geo");
  d.add(dict::CommunityPattern::compile("100:5000-5999"),
        dict::Category::kSuppressToAs, "suppress");
  return truth;
}

TEST(Evaluate, CountsCorrectAndMisclassified) {
  std::vector<bgp::RibEntry> tuples;
  add_observations(tuples, Community(100, 1000), 10, 0);  // info, inferred info
  add_observations(tuples, Community(100, 5000), 0, 5);   // action, inferred action
  add_observations(tuples, Community(100, 5500), 300, 1); // action, inferred info (wrong)
  add_observations(tuples, Community(100, 9999), 5, 0);   // not in dictionary
  const auto index = index_of(tuples);
  const auto result = classify(index);
  const auto eval = evaluate(index, result, truth_for_100());
  EXPECT_EQ(eval.labeled_observed, 3u);
  EXPECT_EQ(eval.classified, 3u);
  EXPECT_EQ(eval.correct, 2u);
  EXPECT_EQ(eval.action_as_info, 1u);
  EXPECT_EQ(eval.info_as_action, 0u);
  EXPECT_NEAR(eval.accuracy(), 2.0 / 3.0, 1e-9);
  EXPECT_DOUBLE_EQ(eval.coverage(), 1.0);
}

TEST(Evaluate, UnclassifiedCountedSeparately) {
  std::vector<bgp::RibEntry> tuples;
  // Covered by dictionary but alpha never on-path -> excluded.
  tuples.push_back(observed({701, 1299, 64496}, Community(100, 1000)));
  const auto index = index_of(tuples);
  const auto result = classify(index);
  const auto eval = evaluate(index, result, truth_for_100());
  EXPECT_EQ(eval.labeled_observed, 1u);
  EXPECT_EQ(eval.classified, 0u);
  EXPECT_EQ(eval.unclassified, 1u);
  EXPECT_DOUBLE_EQ(eval.accuracy(), 0.0);
}

TEST(Evaluate, EmptyEverything) {
  const auto index = index_of({});
  const auto result = classify(index);
  const auto eval = evaluate(index, result, dict::DictionaryStore{});
  EXPECT_EQ(eval.labeled_observed, 0u);
  EXPECT_DOUBLE_EQ(eval.accuracy(), 0.0);
  EXPECT_DOUBLE_EQ(eval.coverage(), 0.0);
}

TEST(BaselineClusters, BuiltPerDictionaryEntry) {
  std::vector<bgp::RibEntry> tuples;
  add_observations(tuples, Community(100, 1000), 10, 0);
  add_observations(tuples, Community(100, 1001), 10, 0);
  add_observations(tuples, Community(100, 5000), 1, 5);
  const auto index = index_of(tuples);
  const auto clusters = baseline_clusters(index, truth_for_100());
  ASSERT_EQ(clusters.size(), 2u);
  const auto& info = clusters[0];
  EXPECT_EQ(info.truth, Intent::kInformation);
  EXPECT_EQ(info.member_count, 2u);
  EXPECT_TRUE(info.pure_on);
  EXPECT_FALSE(info.mixed());
  const auto& action = clusters[1];
  EXPECT_EQ(action.truth, Intent::kAction);
  EXPECT_EQ(action.member_count, 1u);
  EXPECT_TRUE(action.mixed());
  EXPECT_NEAR(action.mean_on_off_ratio, 0.2, 1e-9);
}

TEST(BaselineClusters, EntriesWithoutObservationsSkipped) {
  const auto index = index_of({});
  EXPECT_TRUE(baseline_clusters(index, truth_for_100()).empty());
}

TEST(BaselineClusters, OverlappingPatternsStayDisjoint) {
  dict::DictionaryStore truth;
  auto& d = truth.dictionary_for(100);
  d.add(dict::CommunityPattern::compile("100:1000"),
        dict::Category::kBlackhole, "specific");
  d.add(dict::CommunityPattern::compile("100:1000-1010"),
        dict::Category::kLocationCity, "broad");
  std::vector<bgp::RibEntry> tuples;
  add_observations(tuples, Community(100, 1000), 3, 0);
  add_observations(tuples, Community(100, 1005), 3, 0);
  const auto index = index_of(tuples);
  const auto clusters = baseline_clusters(index, truth);
  ASSERT_EQ(clusters.size(), 2u);
  EXPECT_EQ(clusters[0].member_count, 1u);  // specific owns 1000
  EXPECT_EQ(clusters[1].member_count, 1u);  // broad owns only 1005
}

TEST(SweepRatioThreshold, OnOffDirection) {
  std::vector<BaselineCluster> clusters;
  BaselineCluster info;
  info.truth = Intent::kInformation;
  info.mean_on_off_ratio = 500;
  clusters.push_back(info);
  BaselineCluster action;
  action.truth = Intent::kAction;
  action.mean_on_off_ratio = 3;
  clusters.push_back(action);
  const auto points = sweep_ratio_threshold(clusters, {1.0, 160.0, 1000.0},
                                            ClusterFeature::kMeanOnOff);
  ASSERT_EQ(points.size(), 3u);
  EXPECT_DOUBLE_EQ(points[0].accuracy, 0.5);  // everything info
  EXPECT_DOUBLE_EQ(points[1].accuracy, 1.0);  // separates perfectly
  EXPECT_DOUBLE_EQ(points[2].accuracy, 0.5);  // everything action
}

TEST(SweepRatioThreshold, CustomerPeerDirectionInverted) {
  std::vector<BaselineCluster> clusters;
  BaselineCluster info;
  info.truth = Intent::kInformation;
  info.mean_customer_peer_ratio = 1.0;
  clusters.push_back(info);
  BaselineCluster action;
  action.truth = Intent::kAction;
  action.mean_customer_peer_ratio = 20.0;
  clusters.push_back(action);
  const auto points =
      sweep_ratio_threshold(clusters, {5.0}, ClusterFeature::kCustomerPeer);
  EXPECT_DOUBLE_EQ(points[0].accuracy, 1.0);
}

TEST(SweepRatioThreshold, PureClustersIgnored) {
  std::vector<BaselineCluster> clusters;
  BaselineCluster pure;
  pure.truth = Intent::kInformation;
  pure.pure_on = true;
  pure.mean_on_off_ratio = 0.0;  // would misclassify if counted
  clusters.push_back(pure);
  const auto points = sweep_ratio_threshold(clusters, {160.0});  // pooled default
  EXPECT_DOUBLE_EQ(points[0].accuracy, 0.0);  // no mixed clusters at all
}

}  // namespace
}  // namespace bgpintent::core
