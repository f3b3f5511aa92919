// The paper's coarse-grained intent classifier (§5.2).
//
// For every observed AS alpha: cluster its observed betas (gap clustering),
// compute each cluster's on-path:off-path ratio (pooled, or the mean of its
// members' ratios), and label the cluster — and every community in it — as
//
//   information  if never observed off-path, or ratio >= threshold (160:1)
//   action       if never observed on-path, or ratio < threshold
//
// Exclusions (kUnclassified): alphas that are not public 16-bit ASNs, and
// alphas that never appear in any AS path (transparent IXP route servers).
//
// The rule itself is core::label_alpha_counts (core/labeling.hpp), shared
// with the window classifier behind `stream` and `serve`.  The customer:peer
// feature the paper evaluates and rejects (Fig. 7) is reproduced over
// dictionary clusters by baseline_clusters + sweep_ratio_threshold
// (core/evaluation.hpp), not by a second classifier.
#pragma once

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "core/clustering.hpp"
#include "core/observations.hpp"
#include "dict/intent.hpp"

namespace bgpintent::util {
class ThreadPool;
}

namespace bgpintent::core {

using dict::Intent;

struct ClassifierConfig {
  /// Gap-clustering parameter (Fig. 9; paper uses 140).
  std::uint32_t min_gap = 140;
  /// on:off ratio at or above which a cluster is information (Fig. 6).
  double ratio_threshold = 160.0;
  /// Cluster feature: true averages per-community ratios (the paper's
  /// description), false pools on/off counts across the cluster.  We
  /// default to pooling: with the paper's 174M-tuple input the two are
  /// interchangeable, but at simulator scale the mean is capped by the
  /// number of vantage points and systematically undershoots wide
  /// information clusters (see DESIGN.md §5 and the eval_overall
  /// ablation).
  bool mean_of_ratios = false;
};

/// Why an alpha's communities were not classified (label_alpha_counts'
/// result).
enum class Exclusion : std::uint8_t {
  kNone,
  kPrivateAlpha,    ///< alpha not a public 16-bit ASN
  kAlphaNeverOnPath ///< alpha (and siblings) absent from every AS path
};

/// One cluster with its inferred label.
struct ClusterInference {
  Cluster cluster;
  double mean_ratio = 0.0;    ///< mean of member on:off ratios
  double pooled_ratio = 0.0;  ///< pooled Σon : Σoff ratio
  bool pure_on = false;
  bool pure_off = false;
  Intent intent = Intent::kUnclassified;

  /// The feature value the classifier decided on.
  [[nodiscard]] double decision_ratio(bool mean_of_ratios) const noexcept {
    return mean_of_ratios ? mean_ratio : pooled_ratio;
  }

  friend bool operator==(const ClusterInference&,
                         const ClusterInference&) = default;
};

/// Full classification output.
struct InferenceResult {
  std::vector<ClusterInference> clusters;  ///< classified clusters only
  std::unordered_map<Community, Intent> labels;

  std::size_t information_count = 0;
  std::size_t action_count = 0;
  std::size_t excluded_private = 0;        ///< communities, not alphas
  std::size_t excluded_never_on_path = 0;

  /// Label for `community`; kUnclassified when not inferred.
  [[nodiscard]] Intent label_of(Community community) const noexcept;

  [[nodiscard]] std::size_t classified_count() const noexcept {
    return information_count + action_count;
  }
};

/// Runs clustering + ratio classification over every observed alpha.
/// Alphas are independent (each owns its beta ranges and ratios), so when
/// `pool` is non-null they are classified in parallel; the merged result —
/// including cluster order — is identical to the sequential one.
[[nodiscard]] InferenceResult classify(const ObservationIndex& observations,
                                       const ClassifierConfig& config = {},
                                       util::ThreadPool* pool = nullptr);

}  // namespace bgpintent::core
