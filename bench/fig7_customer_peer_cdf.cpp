// Figure 7: CDF of customer:peer ratios of baseline clusters — the
// alternative feature the paper evaluates and rejects.  Paper: a best-case
// threshold of 5:1 reaches only ~80% accuracy because ASes tag information
// communities on customer routes too.  Shapes to match: substantial overlap
// between the info and action CDFs; best sweep accuracy clearly below the
// Fig. 6 feature's.
#include "bench/common.hpp"
#include "rel/asrank.hpp"

using namespace bgpintent;

int main() {
  const auto cfg = bench::default_scenario_config();
  bench::print_banner("fig7 — customer:peer ratio CDF of baseline clusters",
                      cfg);
  const auto scenario = routing::Scenario::build(cfg);
  const auto entries = scenario.entries();

  // The paper uses CAIDA's relationship inferences; we infer from the same
  // paths (rel::infer_relationships ~ AS-Rank).
  std::vector<bgp::AsPath> paths;
  paths.reserve(entries.size());
  for (const auto& entry : entries) paths.push_back(entry.route.path);
  const auto relationships = rel::infer_relationships(paths);
  std::printf("inferred relationships: %zu links (%zu p2c / %zu p2p)\n\n",
              relationships.link_count(), relationships.p2c_count(),
              relationships.p2p_count());

  bgp::PathTable table;
  const auto tuples = bgp::intern_entries(table, entries);
  const auto index = core::ObservationIndex::build_interned(
      table, tuples, &scenario.topology().orgs, &relationships);
  const auto clusters =
      core::baseline_clusters(index, scenario.ground_truth());

  std::vector<double> info_ratios;
  std::vector<double> action_ratios;
  for (const auto& cluster : clusters) {
    if (!cluster.mixed()) continue;
    (cluster.truth == dict::Intent::kInformation ? info_ratios : action_ratios)
        .push_back(cluster.mean_customer_peer_ratio);
  }
  bench::print_cdf("CDF of mixed INFO cluster customer:peer ratios",
                   util::EmpiricalCdf(info_ratios));
  bench::print_cdf("CDF of mixed ACTION cluster customer:peer ratios",
                   util::EmpiricalCdf(action_ratios));

  util::TextTable sweep({"threshold", "mixed-cluster accuracy"});
  const std::vector<double> thresholds{0.5, 1, 2, 3, 5, 8, 12, 20, 50, 100};
  double best = 0.0;
  for (const auto& point : core::sweep_ratio_threshold(
           clusters, thresholds, core::ClusterFeature::kCustomerPeer)) {
    best = std::max(best, point.accuracy);
    sweep.add_row({util::fixed(point.threshold, 1),
                   util::percent(point.accuracy)});
  }
  std::printf("threshold sweep (paper: best ~80%% at 5:1):\n%s",
              sweep.render().c_str());
  std::printf("\nbest customer:peer accuracy: %s  (Fig. 6 feature reaches "
              "near-perfect separation on the same clusters)\n",
              util::percent(best).c_str());
  return 0;
}
