#include "core/classifier.hpp"

#include <algorithm>

#include "core/labeling.hpp"
#include "util/thread_pool.hpp"

namespace bgpintent::core {

Intent InferenceResult::label_of(Community community) const noexcept {
  const auto it = labels.find(community);
  return it == labels.end() ? Intent::kUnclassified : it->second;
}

namespace {

/// Classifies one alpha into `result` through the shared §5.2 rule.  This
/// is the parallel unit: an alpha's clusters, ratios, and labels depend
/// only on that alpha's stats, so any partition of the alpha set yields the
/// same per-alpha output.  `counts` is a caller-owned buffer reused across
/// alphas, so a classified cluster costs exactly its Cluster::betas vector.
void classify_into(const ObservationIndex& observations, std::uint16_t alpha,
                   const ClassifierConfig& config,
                   std::vector<BetaCounts>& counts, InferenceResult& result) {
  const std::span<const CommunityStats> range =
      observations.alpha_range(alpha);
  const Exclusion exclusion = label_alpha_counts(
      alpha, [&] { return observations.alpha_on_any_path(alpha); },
      [&] {
        counts.clear();
        for (const CommunityStats& stats : range)
          counts.push_back(BetaCounts{stats.community.beta(),
                                      stats.on_path_paths,
                                      stats.off_path_paths});
        return std::span<const BetaCounts>(counts);
      },
      config,
      [&](const ClusterDecision& decision) {
        ClusterInference inference;
        inference.cluster.alpha = alpha;
        inference.cluster.betas.reserve(decision.members.size());
        for (const BetaCounts& member : decision.members) {
          inference.cluster.betas.push_back(member.beta);
          result.labels.emplace(Community(alpha, member.beta),
                                decision.intent);
        }
        (decision.intent == Intent::kInformation ? result.information_count
                                                 : result.action_count) +=
            decision.members.size();
        inference.mean_ratio = decision.mean_ratio;
        inference.pooled_ratio = decision.pooled_ratio;
        inference.pure_on = decision.pure_on;
        inference.pure_off = decision.pure_off;
        inference.intent = decision.intent;
        result.clusters.push_back(std::move(inference));
      });
  if (exclusion == Exclusion::kPrivateAlpha)
    result.excluded_private += range.size();
  else if (exclusion == Exclusion::kAlphaNeverOnPath)
    result.excluded_never_on_path += range.size();
}

}  // namespace

/// Sequential when `pool` is null (or trivial); otherwise splits the sorted
/// alpha list into contiguous chunks, classifies each chunk into a private
/// InferenceResult on the pool, and concatenates the partial results in
/// chunk order — which reproduces the sequential cluster order and counters
/// exactly (see docs/THREADING.md).
InferenceResult classify(const ObservationIndex& observations,
                         const ClassifierConfig& config,
                         util::ThreadPool* pool) {
  const std::vector<std::uint16_t> alphas = observations.alphas();

  if (pool == nullptr || pool->size() <= 1 || alphas.size() < 2) {
    InferenceResult result;
    std::vector<BetaCounts> counts;
    for (const std::uint16_t alpha : alphas)
      classify_into(observations, alpha, config, counts, result);
    return result;
  }

  const std::size_t chunk_count = std::min(
      alphas.size(), static_cast<std::size_t>(pool->size()) * 4);
  const std::size_t base = alphas.size() / chunk_count;
  const std::size_t extra = alphas.size() % chunk_count;
  std::vector<std::future<InferenceResult>> parts;
  parts.reserve(chunk_count);
  std::size_t begin = 0;
  for (std::size_t chunk = 0; chunk < chunk_count; ++chunk) {
    const std::size_t end = begin + base + (chunk < extra ? 1 : 0);
    // By-reference captures are safe: every future is consumed below
    // before this function returns.
    parts.push_back(pool->submit([&, begin, end]() {
      InferenceResult part;
      std::vector<BetaCounts> counts;
      for (std::size_t i = begin; i < end; ++i)
        classify_into(observations, alphas[i], config, counts, part);
      return part;
    }));
    begin = end;
  }

  InferenceResult result;
  std::exception_ptr first_error;  // drain every future before rethrowing:
                                   // running tasks borrow our stack frame
  for (std::future<InferenceResult>& future : parts) {
    try {
      InferenceResult part = future.get();
      result.clusters.insert(result.clusters.end(),
                             std::make_move_iterator(part.clusters.begin()),
                             std::make_move_iterator(part.clusters.end()));
      result.labels.merge(part.labels);
      result.information_count += part.information_count;
      result.action_count += part.action_count;
      result.excluded_private += part.excluded_private;
      result.excluded_never_on_path += part.excluded_never_on_path;
    } catch (...) {
      if (!first_error) first_error = std::current_exception();
    }
  }
  if (first_error) std::rethrow_exception(first_error);
  return result;
}

}  // namespace bgpintent::core
