// The §5.2 decision rule: the one copy every classifier runs.
//
// The rule only ever consumes the *sizes* of a community's on-path /
// off-path unique-path sets: apply the alpha-level exclusions, gap-cluster
// the betas, then label each cluster pure-on / pure-off / by ratio.  Batch
// classify() feeds it CommunityStats counts, IncrementalClassifier feeds it
// hash-set sizes (or snapshot columns), and the sliding-window classifier
// (src/stream/) feeds it refcounted window counts.  All of them call this
// one function, which is what makes "windowed labels == batch labels" hold
// by construction instead of by parallel maintenance of copies of the
// ratio rule.
//
// Each cluster comes out as a ClusterDecision: its members' counts, both
// ratio features, the purity flags, and the intent.  That is the
// per-cluster record batch classification keeps in
// InferenceResult::clusters.
#pragma once

#include <cstdint>
#include <span>

#include "bgp/asn.hpp"
#include "core/classifier.hpp"
#include "core/clustering.hpp"

namespace bgpintent::core {

/// One community's evidence, reduced to unique-path counts.
struct BetaCounts {
  std::uint16_t beta = 0;
  std::size_t on_paths = 0;   ///< unique paths with alpha on-path
  std::size_t off_paths = 0;  ///< unique paths with alpha off-path

  friend bool operator==(const BetaCounts&, const BetaCounts&) = default;
};

/// One gap cluster's evidence and the decision taken on it.
struct ClusterDecision {
  std::span<const BetaCounts> members;  ///< ascending beta, non-empty
  double mean_ratio = 0.0;    ///< mean of member on:off ratios
  double pooled_ratio = 0.0;  ///< pooled Σon : Σoff ratio
  bool pure_on = true;        ///< no member ever observed off-path
  bool pure_off = true;       ///< no member ever observed on-path
  Intent intent = Intent::kUnclassified;
};

/// Applies the §5.2 rule to every beta of one alpha.  Both inputs are
/// asked for lazily, so an excluded alpha costs its caller nothing:
///
///   alpha_on_any_path()  the caller's answer to "does alpha (or,
///                        sibling-aware, an org sibling) appear in any AS
///                        path"; asked only for public alphas.
///   gather()             the alpha's evidence as a span of BetaCounts,
///                        sorted ascending by beta and deduplicated; asked
///                        only when no exclusion applies.
///
/// Returns the exclusion that applied: kPrivateAlpha when alpha is not a
/// public 16-bit ASN, else kAlphaNeverOnPath when alpha_on_any_path() is
/// false; an excluded alpha emits nothing.  Otherwise returns kNone after
/// calling `emit(const ClusterDecision&)` once per cluster, in ascending
/// beta order.  Ratios floor the off count at 1 (CommunityStats::
/// on_off_ratio()); the mean sums member ratios front to back.  The rule
/// itself allocates nothing.
template <typename OnAnyPath, typename Gather, typename Emit>
Exclusion label_alpha_counts(std::uint16_t alpha, OnAnyPath&& alpha_on_any_path,
                             Gather&& gather, const ClassifierConfig& config,
                             Emit&& emit) {
  if (!bgp::is_public_asn16(alpha)) return Exclusion::kPrivateAlpha;
  if (!alpha_on_any_path()) return Exclusion::kAlphaNeverOnPath;

  const std::span<const BetaCounts> betas = gather();
  const auto floored = [](std::size_t off) {
    return static_cast<double>(off == 0 ? std::size_t{1} : off);
  };
  std::size_t begin = 0;
  while (begin < betas.size()) {
    ClusterDecision decision;
    std::size_t pooled_on = 0;
    std::size_t pooled_off = 0;
    double ratio_sum = 0.0;
    std::size_t end = begin;
    do {
      const BetaCounts& counts = betas[end++];
      pooled_on += counts.on_paths;
      pooled_off += counts.off_paths;
      if (counts.off_paths != 0) decision.pure_on = false;
      if (counts.on_paths != 0) decision.pure_off = false;
      ratio_sum += static_cast<double>(counts.on_paths) /
                   floored(counts.off_paths);
    } while (end < betas.size() &&
             !gap_splits(betas[end - 1].beta, betas[end].beta, config.min_gap));

    decision.members = betas.subspan(begin, end - begin);
    decision.mean_ratio = ratio_sum / static_cast<double>(end - begin);
    decision.pooled_ratio =
        static_cast<double>(pooled_on) / floored(pooled_off);
    if (decision.pure_on)
      decision.intent = Intent::kInformation;
    else if (decision.pure_off)
      decision.intent = Intent::kAction;
    else
      decision.intent = (config.mean_of_ratios ? decision.mean_ratio
                                               : decision.pooled_ratio) >=
                                config.ratio_threshold
                            ? Intent::kInformation
                            : Intent::kAction;
    emit(decision);
    begin = end;
  }
  return Exclusion::kNone;
}

}  // namespace bgpintent::core
