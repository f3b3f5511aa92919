#include "core/clustering.hpp"

namespace bgpintent::core {

std::vector<Cluster> gap_cluster(std::uint16_t alpha,
                                 std::span<const std::uint16_t> betas,
                                 std::uint32_t min_gap) {
  std::vector<Cluster> clusters;
  Cluster current;
  current.alpha = alpha;
  for (const std::uint16_t beta : betas) {
    if (!current.betas.empty() &&
        gap_splits(current.betas.back(), beta, min_gap)) {
      clusters.push_back(std::move(current));
      current = Cluster{};
      current.alpha = alpha;
    }
    current.betas.push_back(beta);
  }
  if (!current.betas.empty()) clusters.push_back(std::move(current));
  return clusters;
}

}  // namespace bgpintent::core
