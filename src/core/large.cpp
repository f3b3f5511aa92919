#include "core/large.hpp"

#include <algorithm>
#include <map>

#include "bgp/asn.hpp"

namespace bgpintent::core {

namespace {
std::uint64_t function_key(std::uint32_t alpha, std::uint32_t beta) noexcept {
  return static_cast<std::uint64_t>(alpha) << 32 | beta;
}
}  // namespace

Intent LargeInferenceResult::label_of(
    const bgp::LargeCommunity& c) const noexcept {
  const auto it = function_labels.find(function_key(c.alpha(), c.beta()));
  return it == function_labels.end() ? Intent::kUnclassified : it->second;
}

LargeObservationIndex LargeObservationIndex::from_entries(
    std::span<const bgp::RibEntry> entries) {
  struct Accumulator {
    std::unordered_set<std::uint32_t> gammas;
    std::unordered_set<std::uint64_t> on_paths;
    std::unordered_set<std::uint64_t> off_paths;
  };
  std::map<std::uint64_t, Accumulator> acc;  // ordered for sorted output
  LargeObservationIndex index;

  for (const bgp::RibEntry& entry : entries) {
    const std::uint64_t path_hash = entry.route.path.hash();
    for (const bgp::Asn asn : entry.route.path.unique_asns())
      index.asns_on_paths_.insert(asn);
    for (const bgp::LargeCommunity& community : entry.route.large_communities) {
      Accumulator& a = acc[function_key(community.alpha(), community.beta())];
      a.gammas.insert(community.gamma());
      if (entry.route.path.contains(community.alpha()))
        a.on_paths.insert(path_hash);
      else
        a.off_paths.insert(path_hash);
    }
  }
  index.stats_.reserve(acc.size());
  for (const auto& [key, a] : acc) {
    LargeFunctionStats stats;
    stats.alpha = static_cast<std::uint32_t>(key >> 32);
    stats.beta = static_cast<std::uint32_t>(key & 0xffffffffu);
    stats.gamma_count = a.gammas.size();
    stats.on_path_paths = a.on_paths.size();
    stats.off_path_paths = a.off_paths.size();
    index.values_ += stats.gamma_count;  // distinct values per function
    index.stats_.push_back(stats);
  }
  return index;
}

const LargeFunctionStats* LargeObservationIndex::find(std::uint32_t alpha,
                                                      std::uint32_t beta) const {
  const auto it = std::lower_bound(
      stats_.begin(), stats_.end(), function_key(alpha, beta),
      [](const LargeFunctionStats& s, std::uint64_t key) {
        return function_key(s.alpha, s.beta) < key;
      });
  if (it == stats_.end() || it->alpha != alpha || it->beta != beta)
    return nullptr;
  return &*it;
}

std::vector<std::uint32_t> LargeObservationIndex::observed_betas(
    std::uint32_t alpha) const {
  std::vector<std::uint32_t> out;
  for (const LargeFunctionStats& stats : stats_)
    if (stats.alpha == alpha) out.push_back(stats.beta);
  return out;
}

std::vector<std::uint32_t> LargeObservationIndex::alphas() const {
  std::vector<std::uint32_t> out;
  for (const LargeFunctionStats& stats : stats_)
    if (out.empty() || out.back() != stats.alpha) out.push_back(stats.alpha);
  return out;
}

bool LargeObservationIndex::alpha_on_any_path(std::uint32_t alpha) const {
  return asns_on_paths_.contains(alpha);
}

LargeInferenceResult classify_large(const LargeObservationIndex& observations,
                                    const LargeClassifierConfig& config) {
  LargeInferenceResult result;
  for (const std::uint32_t alpha : observations.alphas()) {
    const auto betas = observations.observed_betas(alpha);
    // Exclusions mirror the regular classifier: reserved/private alphas and
    // alphas absent from every path.
    const bool excluded = bgp::is_reserved_asn(alpha) ||
                          bgp::is_private_asn16(alpha) ||
                          bgp::is_private_asn32(alpha) ||
                          bgp::is_documentation_asn(alpha) ||
                          !observations.alpha_on_any_path(alpha);
    if (excluded) {
      for (const std::uint32_t beta : betas) {
        const LargeFunctionStats* stats = observations.find(alpha, beta);
        result.excluded_never_on_path += stats->gamma_count;
      }
      continue;
    }
    // Gap-cluster the 32-bit beta values.
    std::size_t begin = 0;
    for (std::size_t i = 1; i <= betas.size(); ++i) {
      const bool split =
          i == betas.size() ||
          betas[i] - betas[i - 1] > config.min_gap;
      if (!split) continue;
      // Pool the cluster [begin, i).
      std::size_t pooled_on = 0;
      std::size_t pooled_off = 0;
      for (std::size_t k = begin; k < i; ++k) {
        const LargeFunctionStats* stats = observations.find(alpha, betas[k]);
        pooled_on += stats->on_path_paths;
        pooled_off += stats->off_path_paths;
      }
      Intent intent;
      if (pooled_off == 0)
        intent = Intent::kInformation;
      else if (pooled_on == 0)
        intent = Intent::kAction;
      else
        intent = static_cast<double>(pooled_on) /
                             static_cast<double>(pooled_off) >=
                         config.ratio_threshold
                     ? Intent::kInformation
                     : Intent::kAction;
      for (std::size_t k = begin; k < i; ++k) {
        result.function_labels.emplace(function_key(alpha, betas[k]), intent);
        const LargeFunctionStats* stats = observations.find(alpha, betas[k]);
        if (intent == Intent::kInformation)
          result.information_count += stats->gamma_count;
        else
          result.action_count += stats->gamma_count;
      }
      begin = i;
    }
  }
  return result;
}

}  // namespace bgpintent::core
