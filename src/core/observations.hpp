// Observation index: per-community path statistics extracted from BGP data.
//
// This is step 0 of the paper's method (§4/§5): reduce RIBs and updates to
// unique (AS path, community) tuples, then count, for every community
// alpha:beta, how many *unique* AS paths contain alpha (on-path) vs. do not
// (off-path).  Matching is optionally sibling-aware: a path containing any
// ASN of alpha's organization counts as on-path (CAIDA as2org in the paper,
// topo::OrgMap here).
//
// The index also accumulates the customer/peer/provider votes used by the
// alternative customer:peer feature the paper evaluates and rejects
// (Fig. 7): for each on-path observation, the relationship between alpha
// and the AS that follows it toward the origin.
//
// Interned core (docs/PERFORMANCE.md): inputs are interned into a
// bgp::PathTable first, so every unique AS path is hashed and scanned for
// its distinct ASNs exactly once, tuples are 8-byte (PathId, Community)
// records, and on-path membership — including the org-sibling expansion —
// is memoized per (path, alpha): a route carrying ten betas of one alpha
// resolves the on-path question once, not ten times.  Accumulators are
// plain PathId vectors deduplicated by sort+unique at merge time instead
// of per-community hash sets.
//
// Parallel construction (build_parallel_interned, docs/THREADING.md):
// tuples are sharded by `alpha % shard_count`, so every community — and
// with it every on/off-path set and vote counter — is owned by exactly one
// shard and accumulated without locks.  Shards see their tuples in the
// original input order and the merge sorts stats by community, which makes
// the parallel index identical to the sequential one for any thread count.
//
// Callers holding RIB entries intern them first (bgp::intern_entries);
// MRT input arrives already interned through core::MrtIngest.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <span>
#include <unordered_set>
#include <vector>

#include "bgp/path_table.hpp"
#include "bgp/route.hpp"
#include "rel/dataset.hpp"
#include "topo/org_map.hpp"

namespace bgpintent::util {
class ThreadPool;
}

namespace bgpintent::core {

using bgp::Asn;
using bgp::Community;

/// Per-community statistics over unique AS paths.
struct CommunityStats {
  Community community;
  std::size_t on_path_paths = 0;   ///< unique paths with alpha on-path
  std::size_t off_path_paths = 0;  ///< unique paths with alpha off-path
  // Relationship of the AS following alpha toward the origin (Fig. 7
  // feature), counted once per unique on-path path.
  std::size_t customer_votes = 0;
  std::size_t peer_votes = 0;
  std::size_t provider_votes = 0;

  [[nodiscard]] std::size_t total_paths() const noexcept {
    return on_path_paths + off_path_paths;
  }
  /// on:off ratio with the off count floored at 1 so it is always finite
  /// ("never off-path" is additionally captured by pure_on()).
  [[nodiscard]] double on_off_ratio() const noexcept {
    return static_cast<double>(on_path_paths) /
           static_cast<double>(off_path_paths == 0 ? 1 : off_path_paths);
  }
  [[nodiscard]] bool pure_on() const noexcept { return off_path_paths == 0; }
  [[nodiscard]] bool pure_off() const noexcept { return on_path_paths == 0; }
  /// customer:peer ratio, peer count floored at 1.
  [[nodiscard]] double customer_peer_ratio() const noexcept {
    return static_cast<double>(customer_votes) /
           static_cast<double>(peer_votes == 0 ? 1 : peer_votes);
  }

  friend bool operator==(const CommunityStats&,
                         const CommunityStats&) = default;
};

struct ObservationConfig {
  /// Count a path as on-path when a sibling of alpha appears (§5.2).
  bool sibling_aware = true;
};

/// True when `asn_seen(asn)` holds for alpha or, sibling-aware with an
/// org map, for one of alpha's organisational siblings: the §5.2 on-path
/// test over any ASN universe.  Batch and window both ask it through
/// on_path (one path) and alpha_on_any_path (every path).  Allocates
/// nothing.
template <typename AsnSeen>
[[nodiscard]] bool alpha_or_sibling_seen(std::uint16_t alpha,
                                         const topo::OrgMap* orgs,
                                         bool sibling_aware,
                                         AsnSeen&& asn_seen) {
  if (asn_seen(Asn{alpha})) return true;
  if (!sibling_aware || orgs == nullptr) return false;
  for (const Asn sibling : orgs->siblings(alpha))
    if (sibling != alpha && asn_seen(sibling)) return true;
  return false;
}

/// True when alpha (or, sibling-aware, an org sibling) is in path `id`.
[[nodiscard]] inline bool on_path(const bgp::PathTable& paths, bgp::PathId id,
                                  std::uint16_t alpha,
                                  const topo::OrgMap* orgs,
                                  bool sibling_aware) {
  return alpha_or_sibling_seen(
      alpha, orgs, sibling_aware,
      [&](Asn asn) { return paths.contains(id, asn); });
}

class ObservationIndex {
 public:
  /// Builds the index from interned (path, community) tuples.  `orgs` may
  /// be null (no sibling awareness regardless of config); `relationships`
  /// may be null (customer/peer votes left at zero).  Only `paths` entries
  /// referenced by `tuples` contribute to the unique-path and
  /// ASN-on-path accounting.
  [[nodiscard]] static ObservationIndex build_interned(
      const bgp::PathTable& paths, std::span<const bgp::InternedTuple> tuples,
      const topo::OrgMap* orgs = nullptr,
      const rel::RelationshipDataset* relationships = nullptr,
      const ObservationConfig& config = {});

  /// Sharded parallel build on `pool`; the result is identical to
  /// build_interned() for any pool size (see the file comment for the
  /// sharding argument).  Falls back to the sequential path on a
  /// single-worker pool.
  [[nodiscard]] static ObservationIndex build_parallel_interned(
      const bgp::PathTable& paths, std::span<const bgp::InternedTuple> tuples,
      util::ThreadPool& pool, const topo::OrgMap* orgs = nullptr,
      const rel::RelationshipDataset* relationships = nullptr,
      const ObservationConfig& config = {});

  [[nodiscard]] const CommunityStats* find(Community community) const noexcept;

  /// All stats, ascending by community.
  [[nodiscard]] const std::vector<CommunityStats>& all() const noexcept {
    return stats_;
  }

  /// The contiguous run of stats belonging to `alpha` (stats_ is sorted by
  /// community = (alpha, beta)), without allocating.  Empty span when the
  /// alpha was never observed.  cluster/classify iterate this instead of
  /// materializing beta vectors per call.
  [[nodiscard]] std::span<const CommunityStats> alpha_range(
      std::uint16_t alpha) const noexcept;

  /// Distinct observed beta values of `alpha`, ascending.
  [[nodiscard]] std::vector<std::uint16_t> observed_betas(
      std::uint16_t alpha) const;

  /// Distinct alphas observed, ascending.
  [[nodiscard]] std::vector<std::uint16_t> alphas() const;

  /// True if `alpha` (or, when sibling-aware, any sibling) appears in at
  /// least one AS path of the dataset — the §5.2 exclusion check that
  /// keeps transparent IXP route servers out of classification.
  [[nodiscard]] bool alpha_on_any_path(std::uint16_t alpha) const;

  [[nodiscard]] std::size_t community_count() const noexcept {
    return stats_.size();
  }
  [[nodiscard]] std::size_t unique_path_count() const noexcept {
    return unique_paths_;
  }

 private:
  // Build-time helper (observations.cpp) that assembles the index from
  // per-shard accumulation state.
  friend struct ObservationBuilder;

  std::vector<CommunityStats> stats_;          // sorted by community
  std::unordered_set<Asn> asns_on_paths_;      // every ASN seen in any path
  const topo::OrgMap* orgs_ = nullptr;         // for sibling queries
  bool sibling_aware_ = true;
  std::size_t unique_paths_ = 0;
};

}  // namespace bgpintent::core
