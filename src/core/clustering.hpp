// Gap clustering of community beta values (§5.2, Fig. 9).
//
// Operators number similar-purpose communities contiguously; the method
// approximates those blocks by splitting the sorted observed beta values of
// one AS wherever the gap between adjacent values exceeds `min_gap`.
// min_gap = 0 degenerates to per-community singletons — the "no
// clustering" baseline of Fig. 9 (73.7% accuracy in the paper).
#pragma once

#include <cstdint>
#include <span>
#include <vector>

namespace bgpintent::core {

/// A contiguous block of observed beta values of one AS.
struct Cluster {
  std::uint16_t alpha = 0;
  std::vector<std::uint16_t> betas;  ///< ascending, non-empty

  [[nodiscard]] std::uint16_t lo() const noexcept { return betas.front(); }
  [[nodiscard]] std::uint16_t hi() const noexcept { return betas.back(); }
  [[nodiscard]] std::size_t size() const noexcept { return betas.size(); }

  friend bool operator==(const Cluster&, const Cluster&) = default;
};

/// The gap rule itself: ascending neighbors `prev` < `next` fall into
/// different clusters when (next - prev) > min_gap.
[[nodiscard]] constexpr bool gap_splits(std::uint16_t prev, std::uint16_t next,
                                        std::uint32_t min_gap) noexcept {
  return static_cast<std::uint32_t>(next) - static_cast<std::uint32_t>(prev) >
         min_gap;
}

/// Splits sorted, deduplicated `betas` into clusters: adjacent values stay
/// together while !gap_splits(prev, next).  Input order is preserved;
/// passing unsorted input is a precondition violation.
[[nodiscard]] std::vector<Cluster> gap_cluster(
    std::uint16_t alpha, std::span<const std::uint16_t> betas,
    std::uint32_t min_gap);

}  // namespace bgpintent::core
