// Figure 4: per-AS community layout — dictionary beta values cluster into
// contiguous purpose-blocks, and BGP data contains additional undocumented
// communities.  The paper plots 30 ASes that define both intents; we print
// the same structure: each AS's dictionary-defined blocks (with intent)
// side by side with what was actually observed in BGP data, including the
// "unknown" (undocumented) values.
#include <algorithm>

#include "bench/common.hpp"
#include "util/strings.hpp"

using namespace bgpintent;

namespace {

std::string render_blocks(const std::vector<core::Cluster>& clusters,
                          const dict::AsDictionary* dictionary) {
  std::string out;
  for (const auto& cluster : clusters) {
    if (!out.empty()) out += "  ";
    char intent_mark = '?';
    if (dictionary != nullptr) {
      const auto intent =
          dictionary->intent(bgp::Community(cluster.alpha, cluster.lo()));
      if (intent == dict::Intent::kAction) intent_mark = 'A';
      if (intent == dict::Intent::kInformation) intent_mark = 'I';
    }
    if (cluster.lo() == cluster.hi())
      out += util::format("%u(%c)", cluster.lo(), intent_mark);
    else
      out += util::format("%u-%u(%c,%zu)", cluster.lo(), cluster.hi(),
                          intent_mark, cluster.size());
  }
  return out;
}

}  // namespace

int main() {
  const auto cfg = bench::default_scenario_config();
  bench::print_banner("fig4 — dictionary vs BGP-observed community clusters",
                      cfg);
  const auto scenario = routing::Scenario::build(cfg);
  bgp::PathTable paths;
  const auto tuples = bgp::intern_entries(paths, scenario.entries());
  const auto index = core::ObservationIndex::build_interned(
      paths, tuples, &scenario.topology().orgs);

  // Pick ASes that (like the paper's 30) define both intents and were
  // observed in BGP data.
  std::vector<std::uint16_t> chosen;
  for (const auto& [alpha, dictionary] : scenario.ground_truth().all()) {
    bool has_info = false;
    bool has_action = false;
    for (const auto& entry : dictionary.entries()) {
      (entry.intent() == dict::Intent::kInformation ? has_info : has_action) =
          true;
    }
    if (has_info && has_action && !index.observed_betas(alpha).empty())
      chosen.push_back(alpha);
    if (chosen.size() >= 12) break;
  }

  std::printf("ASes with both information and action communities: showing "
              "%zu (paper plots 30)\n\n", chosen.size());
  for (const std::uint16_t alpha : chosen) {
    const auto* dictionary = scenario.ground_truth().find(alpha);
    const auto observed = index.observed_betas(alpha);
    // (a) dictionary values observed in BGP, clustered for display.
    std::vector<std::uint16_t> documented;
    std::vector<std::uint16_t> unknown;
    for (const std::uint16_t beta : observed) {
      if (dictionary->lookup(bgp::Community(alpha, beta)) != nullptr)
        documented.push_back(beta);
      else
        unknown.push_back(beta);
    }
    std::printf("AS%u\n", alpha);
    std::printf("  dict-observed : %s\n",
                render_blocks(core::gap_cluster(alpha, documented, 140),
                              dictionary)
                    .c_str());
    if (!unknown.empty())
      std::printf("  undocumented  : %s\n",
                  render_blocks(core::gap_cluster(alpha, unknown, 140), nullptr)
                      .c_str());
  }
  std::printf("\nblocks rendered as lo-hi(intent,count); A=action, "
              "I=information, ?=undocumented\n");
  return 0;
}
