#include "core/observations.hpp"

#include <algorithm>
#include <bit>

#include "util/thread_pool.hpp"

namespace bgpintent::core {

namespace {

/// A tuple packed into one 64-bit key: community wire value (alpha:beta)
/// in the high half, PathId in the low half.  Sorting the packed records
/// groups them by alpha, then beta, then path — which is the entire
/// accumulation data structure: unique (community, path) pairs fall out of
/// sort+unique by adjacency, with zero hash tables on the hot path.
[[nodiscard]] constexpr std::uint64_t pack(const bgp::InternedTuple& t) noexcept {
  return static_cast<std::uint64_t>(t.community.wire()) << 32 | t.path;
}
[[nodiscard]] constexpr std::uint16_t packed_alpha(std::uint64_t rec) noexcept {
  return static_cast<std::uint16_t>(rec >> 48);
}
[[nodiscard]] constexpr std::uint32_t packed_wire(std::uint64_t rec) noexcept {
  return static_cast<std::uint32_t>(rec >> 32);
}
[[nodiscard]] constexpr bgp::PathId packed_path(std::uint64_t rec) noexcept {
  return static_cast<bgp::PathId>(rec);
}

/// First-sight filter applied to packed keys in the sequential packing pass,
/// before anything is sorted.  A week of RIB dumps re-announces every
/// stable route, so the tuple stream repeats its keys many times over
/// (perfbench's batch_infer: 439,546 keys, 20,831 distinct, a 21x repeat);
/// dropping a key its slot already holds lets finalize_shard sort the
/// survivors instead of every tuple.
///
/// Direct-mapped, one key per slot: a key equal to its slot's content is a
/// repeat and is dropped; any other key takes the slot and is kept.  A
/// slot only ever holds a key that was kept, so every dropped key has a
/// kept copy and the filter never loses a distinct key.  It may keep
/// repeats (a key evicted between two sightings passes again), which is
/// why finalize_shard's sort+unique stays the exact step: the index is
/// identical with or without the filter, for any input and pool size.
class FirstSightFilter {
 public:
  /// One slot per tuple up to 2^16 slots (512 KiB): a larger table filters
  /// more but costs peak memory.
  explicit FirstSightFilter(std::size_t key_count)
      : slots_(std::bit_ceil(std::clamp(key_count, kMinSlots, kMaxSlots)),
               kEmpty),
        shift_(64 - std::countr_zero(slots_.size())) {}

  [[nodiscard]] std::size_t slots() const noexcept { return slots_.size(); }

  /// False when `key` is a repeat of its slot's content (drop it); true
  /// when it is kept, in which case it now owns the slot.
  [[nodiscard]] bool first_sight(std::uint64_t key) noexcept {
    std::uint64_t& slot = slots_[(key * 0x9e3779b97f4a7c15ull) >> shift_];
    if (slot == key) return false;
    slot = key;
    return true;
  }

 private:
  // At least 64 slots keeps shift_ below 64 for a tiny input.
  static constexpr std::size_t kMinSlots = std::size_t{1} << 6;
  static constexpr std::size_t kMaxSlots = std::size_t{1} << 16;
  // No key equals ~0: it would be community 65535:65535 on PathId
  // 0xffffffff, and PathTable never assigns that id (it is the table's own
  // empty-slot marker).
  static constexpr std::uint64_t kEmpty = ~std::uint64_t{0};

  std::vector<std::uint64_t> slots_;
  int shift_;
};

/// One shard's accumulation state: the packed records it owns and, after
/// finalize_shard, its per-community stats.  In the parallel build each
/// shard owns the alphas with `alpha % shard_count == shard`, so no
/// community appears in more than one shard; the sequential build is just
/// a single shard over everything.
struct Shard {
  std::vector<std::uint64_t> records;
  std::vector<CommunityStats> stats;  // sorted by community (sort order of
                                      // records), disjoint across shards
};

/// Sorts and deduplicates one shard's records, resolves the (path, alpha)
/// facts once per alpha group, and counts each community's unique on/off
/// paths by walking its contiguous run.  Shared verbatim between the
/// sequential and parallel builds so they cannot diverge.
///
/// Because PathIds are dense, the per-(path, alpha) memo is three flat
/// arrays indexed by id, invalidated per alpha by bumping an epoch stamp —
/// resolving a fact is one array probe, no hashing, no second sort.  The
/// arrays cost ~6 bytes per interned path per concurrently running shard
/// task (bounded by the pool's worker count, not the shard count).
void finalize_shard(const bgp::PathTable& paths, Shard& shard,
                    const topo::OrgMap* orgs,
                    const rel::RelationshipDataset* relationships,
                    bool sibling_aware) {
  constexpr std::uint8_t kNoVote = 0xff;

  std::vector<std::uint64_t>& recs = shard.records;
  std::sort(recs.begin(), recs.end());
  recs.erase(std::unique(recs.begin(), recs.end()), recs.end());

  std::vector<std::uint32_t> fact_epoch(paths.size(), 0);
  std::vector<std::uint8_t> fact_on(paths.size());
  std::vector<std::uint8_t> fact_vote(paths.size());
  std::uint32_t epoch = 0;

  std::size_t i = 0;
  while (i < recs.size()) {
    const std::uint16_t alpha = packed_alpha(recs[i]);
    std::size_t alpha_end = i;
    while (alpha_end < recs.size() && packed_alpha(recs[alpha_end]) == alpha)
      ++alpha_end;
    ++epoch;  // drops every memoized fact of the previous alpha

    // Each community is a contiguous run of strictly ascending ids; a path
    // repeated across the alpha's betas hits the memo after its first
    // resolution.
    std::size_t j = i;
    while (j < alpha_end) {
      const std::uint32_t wire = packed_wire(recs[j]);
      std::size_t run_end = j;
      while (run_end < alpha_end && packed_wire(recs[run_end]) == wire)
        ++run_end;

      CommunityStats stats;
      stats.community = Community::from_wire(wire);
      for (std::size_t k = j; k < run_end; ++k) {
        const bgp::PathId id = packed_path(recs[k]);
        if (fact_epoch[id] != epoch) {
          fact_epoch[id] = epoch;
          fact_on[id] = on_path(paths, id, alpha, orgs, sibling_aware) ? 1 : 0;
          fact_vote[id] = kNoVote;
          if (fact_on[id] != 0 && relationships != nullptr)
            if (const auto next = paths.next_toward_origin(id, alpha))
              if (const auto rel = relationships->relationship(alpha, *next))
                fact_vote[id] = static_cast<std::uint8_t>(*rel);
        }
        if (fact_on[id] != 0) {
          ++stats.on_path_paths;
          switch (fact_vote[id]) {
            case static_cast<std::uint8_t>(topo::RelFrom::kCustomer):
              ++stats.customer_votes;
              break;
            case static_cast<std::uint8_t>(topo::RelFrom::kPeer):
              ++stats.peer_votes;
              break;
            case static_cast<std::uint8_t>(topo::RelFrom::kProvider):
              ++stats.provider_votes;
              break;
            default:  // kNoVote or kSibling: no vote recorded
              break;
          }
        } else {
          ++stats.off_path_paths;
        }
      }
      shard.stats.push_back(stats);
      j = run_end;
    }
    i = alpha_end;
  }
}

}  // namespace

/// Merges finalized shards into the index.  Deterministic: per-shard stats
/// are disjoint by construction and get one global sort; the unique-path /
/// on-path-ASN accounting walks a sorted id list — none of it depends on
/// shard count or completion order.
struct ObservationBuilder {
  static ObservationIndex merge_shards(const bgp::PathTable& paths,
                                       std::vector<Shard>& shards,
                                       const topo::OrgMap* orgs,
                                       const ObservationConfig& config) {
    ObservationIndex index;
    index.orgs_ = orgs;
    index.sibling_aware_ = config.sibling_aware;

    std::size_t community_total = 0;
    for (const Shard& shard : shards) community_total += shard.stats.size();
    index.stats_.reserve(community_total);
    for (Shard& shard : shards)
      index.stats_.insert(index.stats_.end(), shard.stats.begin(),
                          shard.stats.end());
    std::sort(index.stats_.begin(), index.stats_.end(),
              [](const CommunityStats& x, const CommunityStats& y) {
                return x.community < y.community;
              });

    // Unique paths and the ASN-on-path universe come from the tuples, not
    // the table: a table entry no tuple references (possible with a
    // shared/larger table) must not count.  The shards' deduplicated
    // records name every referenced path, and dense ids turn the dedup
    // into a bitvector instead of a sort.
    std::vector<bool> seen(paths.size(), false);
    for (const Shard& shard : shards)
      for (const std::uint64_t rec : shard.records)
        seen[packed_path(rec)] = true;
    for (bgp::PathId id = 0; id < paths.size(); ++id) {
      if (!seen[id]) continue;
      ++index.unique_paths_;
      const std::span<const Asn> uniq = paths.unique_asns(id);
      index.asns_on_paths_.insert(uniq.begin(), uniq.end());
    }
    return index;
  }
};

ObservationIndex ObservationIndex::build_interned(
    const bgp::PathTable& paths, std::span<const bgp::InternedTuple> tuples,
    const topo::OrgMap* orgs, const rel::RelationshipDataset* relationships,
    const ObservationConfig& config) {
  std::vector<Shard> shards(1);
  FirstSightFilter filter(tuples.size());
  // Repeated input leaves a fraction of the tuples (67,009 of 439,546 on
  // batch_infer), so a block sized for every tuple would go mostly
  // untouched; reserve for two filters' worth and let the rest grow.
  shards[0].records.reserve(std::min(tuples.size(), 2 * filter.slots()));
  for (const bgp::InternedTuple& tuple : tuples)
    if (const std::uint64_t key = pack(tuple); filter.first_sight(key))
      shards[0].records.push_back(key);
  finalize_shard(paths, shards[0], orgs, relationships, config.sibling_aware);
  return ObservationBuilder::merge_shards(paths, shards, orgs, config);
}

ObservationIndex ObservationIndex::build_parallel_interned(
    const bgp::PathTable& paths, std::span<const bgp::InternedTuple> tuples,
    util::ThreadPool& pool, const topo::OrgMap* orgs,
    const rel::RelationshipDataset* relationships,
    const ObservationConfig& config) {
  if (pool.size() <= 1 || tuples.size() < 2)
    return build_interned(paths, tuples, orgs, relationships, config);

  // Oversubscribe shards 4x so the work-stealing pool can rebalance skewed
  // alphas; shard count does not affect the result.
  const std::size_t shard_count =
      std::min<std::size_t>(static_cast<std::size_t>(pool.size()) * 4, 256);

  // Bucket the packed records by owning shard (cheap single pass, through
  // the same first-sight filter as the sequential build); each shard task
  // then sorts and counts only its own communities.
  std::vector<Shard> shards(shard_count);
  FirstSightFilter filter(tuples.size());
  for (const bgp::InternedTuple& tuple : tuples)
    if (const std::uint64_t key = pack(tuple); filter.first_sight(key))
      shards[tuple.community.alpha() % shard_count].records.push_back(key);

  pool.parallel_for(shard_count, [&](std::size_t begin, std::size_t end) {
    for (std::size_t s = begin; s < end; ++s)
      finalize_shard(paths, shards[s], orgs, relationships,
                     config.sibling_aware);
  });
  return ObservationBuilder::merge_shards(paths, shards, orgs, config);
}

const CommunityStats* ObservationIndex::find(Community community) const noexcept {
  const auto it = std::lower_bound(
      stats_.begin(), stats_.end(), community,
      [](const CommunityStats& s, Community c) { return s.community < c; });
  if (it == stats_.end() || it->community != community) return nullptr;
  return &*it;
}

std::span<const CommunityStats> ObservationIndex::alpha_range(
    std::uint16_t alpha) const noexcept {
  // stats_ is sorted by (alpha, beta); the alpha's stats are the run in
  // [alpha:0, alpha+1:0).
  const auto lo = std::lower_bound(
      stats_.begin(), stats_.end(), Community(alpha, 0),
      [](const CommunityStats& s, Community c) { return s.community < c; });
  auto hi = lo;
  while (hi != stats_.end() && hi->community.alpha() == alpha) ++hi;
  return {lo, hi};
}

std::vector<std::uint16_t> ObservationIndex::observed_betas(
    std::uint16_t alpha) const {
  std::vector<std::uint16_t> betas;
  const std::span<const CommunityStats> range = alpha_range(alpha);
  betas.reserve(range.size());
  for (const CommunityStats& stats : range)
    betas.push_back(stats.community.beta());
  return betas;
}

std::vector<std::uint16_t> ObservationIndex::alphas() const {
  std::vector<std::uint16_t> out;
  for (const CommunityStats& stats : stats_)
    if (out.empty() || out.back() != stats.community.alpha())
      out.push_back(stats.community.alpha());
  return out;
}

bool ObservationIndex::alpha_on_any_path(std::uint16_t alpha) const {
  return alpha_or_sibling_seen(
      alpha, orgs_, sibling_aware_,
      [this](Asn asn) { return asns_on_paths_.contains(asn); });
}

}  // namespace bgpintent::core
