#include "gen.hpp"

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <set>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "bgp/route.hpp"
#include "mrt/mrt_file.hpp"
#include "serve/protocol.hpp"
#include "util.hpp"

namespace perfbench {

using bgp::Asn;
using bgp::Community;

std::string batch_rib_name(int index) {
  char name[32];
  std::snprintf(name, sizeof name, "rib-%03d.mrt", index);
  return name;
}
std::string serve_rib_name(int index) {
  char name[32];
  std::snprintf(name, sizeof name, "prime-%d.mrt", index);
  return name;
}
std::string stream_file_name(int index) {
  char name[32];
  std::snprintf(name, sizeof name, "updates-%04d.mrt", index);
  return name;
}

namespace {

constexpr std::uint32_t kEpochStart = 1700000000;

// --- Traffic model (DESIGN.md, "Traffic model") ---------------------------
// Every share and size below is an assumption, not a measurement of real
// dumps; DESIGN.md lists the few that have a source.
constexpr int kTier1 = 12;
constexpr int kTier2 = 100;   // transit with tier-1 providers
constexpr int kTier3 = 300;   // transit with tier-2 providers
constexpr int kStubs = 3000;
constexpr int kFourByteStubEvery = 20;      // 5 % of stubs
constexpr int kSiblingEvery = 10;           // 10 % of tier-3 transits
constexpr int kMultihomedPer20 = 9;         // 45 % of ASes have 2 providers
constexpr double kTagProbability = 0.55;     // on-path AS adds its info tag
constexpr double kActionProbability = 0.35;  // origin requests an action
constexpr double kActionStripOnPath = 0.9;   // target strips what it acts on
constexpr double kLeakProbability = 0.003;   // info tag seen off-path
constexpr double kPrivateProbability = 0.12;
constexpr double kLargeProbability = 0.30;
constexpr double kExtProbability = 0.20;
constexpr int kAs2OrgRows = 60000;  // as2org covers the registry, not paths

// batch_infer: 6 collectors x 14 dumps (every 12 h) = one week, 84 files.
constexpr int kBatchCollectors = 6;
constexpr int kBatchVps = 4;
constexpr int kBatchPrefixes = 450;
constexpr double kBatchChurn = 0.03;  // prefixes re-routed per dump
// serve_mixed: 4 collector RIBs priming ~100K rows.
constexpr int kServeVps = 10;
constexpr int kServePrefixes = 2500;
constexpr int kServeWrites = 40000;
constexpr int kServeReads = 65536;
constexpr double kServeMissShare = 0.10;
// stream_journal: one collector's update firehose.
constexpr int kStreamVps = 20;
constexpr int kStreamPrefixes = 3000;
constexpr int kStreamRecordsPerFile = 150;
constexpr double kStreamWithdrawShare = 0.12;
constexpr double kStreamNewPathShare = 0.30;

struct Scheme {
  std::vector<std::pair<std::uint16_t, std::uint16_t>> info;    // lo, width
  std::vector<std::pair<std::uint16_t, std::uint16_t>> action;  // lo, width
};

class World {
 public:
  explicit World(std::uint64_t seed) : seed_(seed) {
    Rng rng(seed);
    std::unordered_set<Asn> used;
    auto fresh16 = [&] {
      for (;;) {
        const auto asn = static_cast<Asn>(rng.range(1, 64495));
        if (asn != 23456 && used.insert(asn).second) return asn;
      }
    };
    for (int i = 0; i < kTier1; ++i) tier1_.push_back(fresh16());
    for (int i = 0; i < kTier2 + kTier3; ++i) transit_.push_back(fresh16());
    // Shares are exact quotas, not coin flips, so every seed yields the
    // same amount of work: the seed picks ASNs, providers and content.
    for (int i = 0; i < kStubs; ++i) {
      if (i % kFourByteStubEvery == 0) {
        for (;;) {
          const auto asn = static_cast<Asn>(rng.range(200000, 399999));
          if (used.insert(asn).second) {
            stubs_.push_back(asn);
            break;
          }
        }
      } else {
        stubs_.push_back(fresh16());
      }
    }
    tier1_set_.insert(tier1_.begin(), tier1_.end());
    int picked = 0;
    auto pick_providers = [&](Asn asn, const std::vector<Asn>& pool,
                              std::size_t lo, std::size_t hi) {
      std::vector<Asn>& ps = providers_[asn];
      const int n = picked++ % 20 < kMultihomedPer20 ? 2 : 1;
      while (static_cast<int>(ps.size()) < n) {
        const Asn p = pool[lo + rng.below(hi - lo)];
        if (std::find(ps.begin(), ps.end(), p) == ps.end()) ps.push_back(p);
      }
    };
    for (int i = 0; i < kTier2; ++i)
      pick_providers(transit_[static_cast<std::size_t>(i)], tier1_, 0,
                     tier1_.size());
    for (int i = kTier2; i < kTier2 + kTier3; ++i)
      pick_providers(transit_[static_cast<std::size_t>(i)], transit_, 0,
                     kTier2);
    for (const Asn stub : stubs_)
      pick_providers(stub, transit_, 0, transit_.size());

    // Community schemes: every tier-1 and transit defines information
    // clusters (ingress tags) and action clusters (requests), on
    // separate beta grids so clusters sit more than the 140 gap apart.
    static constexpr std::uint16_t kInfoBases[] = {1000, 2000, 3000, 5000,
                                                   10000, 20000};
    static constexpr std::uint16_t kActionBases[] = {50, 300, 600};
    std::vector<Asn> taggers = tier1_;
    taggers.insert(taggers.end(), transit_.begin(), transit_.end());
    for (std::size_t i = 0; i < taggers.size(); ++i) {
      const Asn asn = taggers[i];
      const auto alpha = static_cast<std::uint16_t>(asn);
      Scheme& scheme = schemes_[alpha];
      const std::size_t info_n = 1 + i % 3;
      const std::size_t first_info = (i / 3) % (6 - info_n + 1);
      for (std::size_t k = 0; k < info_n; ++k)
        scheme.info.emplace_back(kInfoBases[first_info + k],
                                 static_cast<std::uint16_t>(10 + (i * 7 + k * 13) % 51));
      const std::size_t action_n = 1 + i % 2;
      for (std::size_t k = 0; k < action_n; ++k)
        scheme.action.emplace_back(kActionBases[k],
                                   static_cast<std::uint16_t>(5 + (i * 11 + k * 5) % 36));
      tags_for_[asn] = alpha;
      action_alphas_.push_back(alpha);
    }
    // Sibling orgs: some transits tag with their org's main ASN.
    std::unordered_map<Asn, std::uint32_t> org_of;
    std::uint32_t next_org = 1;
    for (const Asn asn : taggers) org_of[asn] = next_org++;
    for (std::size_t i = kTier2; i < transit_.size(); ++i) {
      if ((i - kTier2) % kSiblingEvery != 0) continue;
      const Asn main = transit_[rng.below(kTier2)];
      tags_for_[transit_[i]] = static_cast<std::uint16_t>(main);
      org_of[transit_[i]] = org_of[main];
    }
    for (const Asn stub : stubs_) org_of[stub] = next_org++;
    // as2org rows: the world's ASes plus registry filler.
    for (const auto& [asn, org] : org_of) as2org_.emplace_back(asn, org);
    while (static_cast<int>(as2org_.size()) < kAs2OrgRows) {
      const auto asn = static_cast<Asn>(rng.range(1, 399999));
      if (used.insert(asn).second) as2org_.emplace_back(asn, next_org++);
    }
    std::sort(as2org_.begin(), as2org_.end());

    // Prefixes: each stub originates 1-4 /24s, listed origin by origin in
    // a shuffled origin order, so a workload's first N prefixes are whole
    // origins drawn from the whole hierarchy.
    std::vector<Asn> origins = stubs_;
    for (std::size_t i = origins.size(); i > 1; --i)
      std::swap(origins[i - 1], origins[rng.below(i)]);
    std::uint32_t address = 0x0B000000;
    for (std::size_t i = 0; i < origins.size(); ++i) {
      const Asn stub = origins[i];
      const std::uint64_t n = 1 + i % 4;
      for (std::uint64_t k = 0; k < n; ++k) {
        prefixes_.emplace_back(address, 24);
        origin_.push_back(stub);
        address += 256;
      }
    }
  }

  /// Vantage points: distinct tier-1/transit ASes, `offset` picks a
  /// disjoint set per collector.
  [[nodiscard]] std::vector<bgp::VantagePointId> vantage_points(
      int count, int offset) const {
    std::vector<bgp::VantagePointId> out;
    for (int i = 0; i < count; ++i) {
      const std::size_t k =
          static_cast<std::size_t>(offset * count + i) % (kTier1 + kTier2 + kTier3);
      const Asn asn = k < tier1_.size() ? tier1_[k] : transit_[k - tier1_.size()];
      out.push_back({asn, 0xC0000200u + static_cast<std::uint32_t>(k)});
    }
    return out;
  }

  /// Index of the i-th prefix.
  [[nodiscard]] std::size_t prefix(std::size_t i) const {
    return i % prefixes_.size();
  }
  [[nodiscard]] const bgp::Prefix& prefix_value(std::size_t p) const {
    return prefixes_[p];
  }

  /// The route `vp` holds for prefix `p` at routing version `version`.
  /// A new version re-draws the provider choices (possibly a new path)
  /// and the communities.
  [[nodiscard]] bgp::Route route(std::size_t p, const bgp::VantagePointId& vp,
                                 std::uint64_t version) const {
    const Asn origin = origin_[p];
    // Provider choices follow the origin, so an origin's prefixes share
    // their path from one VP until a new routing version re-draws it.
    const std::uint64_t h = mix(seed_, std::uint64_t{origin} * 1000003 + version, vp.asn);
    std::vector<Asn> path = join(up_chain(vp.asn, h), up_chain(origin, h >> 20));
    if (mix(seed_, origin) % 20 == 0)
      path.insert(path.end(), 1 + mix(origin, 7) % 3, origin);

    bgp::Route route;
    route.prefix = prefixes_[p];
    route.next_hop = vp.address;
    Rng rng(h ^ 0x5bd1e995);
    std::vector<Community>& comms = route.communities;
    for (std::size_t i = 0; i + 1 < path.size(); ++i) {
      const auto tag = tags_for_.find(path[i]);
      if (tag == tags_for_.end() || !rng.chance(kTagProbability)) continue;
      const Scheme& scheme = schemes_.at(tag->second);
      const auto& [lo, width] =
          scheme.info[mix(path[i], path[i + 1]) % scheme.info.size()];
      const std::uint64_t region = mix(seed_, p >> 4) % 6;
      comms.emplace_back(tag->second, static_cast<std::uint16_t>(
                                          lo + (region * 7 + mix(path[i + 1])) % width));
    }
    if (rng.chance(kActionProbability)) {
      const int n = rng.chance(0.4) ? 2 : 1;
      for (int k = 0; k < n; ++k) {
        const std::uint16_t alpha = action_alphas_[rng.below(action_alphas_.size())];
        const Scheme& scheme = schemes_.at(alpha);
        const auto& [lo, width] = scheme.action[rng.below(scheme.action.size())];
        const auto beta = static_cast<std::uint16_t>(lo + rng.below(width));
        if (std::find(path.begin(), path.end(), alpha) != path.end() &&
            rng.chance(kActionStripOnPath))
          continue;
        comms.emplace_back(alpha, beta);
      }
    }
    if (rng.chance(kLeakProbability)) {
      const std::uint16_t alpha = action_alphas_[rng.below(action_alphas_.size())];
      const auto& [lo, width] = schemes_.at(alpha).info.front();
      comms.emplace_back(alpha, static_cast<std::uint16_t>(lo + rng.below(width)));
    }
    if (rng.chance(kPrivateProbability))
      comms.emplace_back(static_cast<std::uint16_t>(64512 + rng.below(1000)),
                         static_cast<std::uint16_t>(rng.below(1000)));
    std::sort(comms.begin(), comms.end());
    comms.erase(std::unique(comms.begin(), comms.end()), comms.end());
    if (rng.chance(kLargeProbability)) {
      const int n = rng.chance(0.5) ? 2 : 1;
      for (int k = 0; k < n; ++k)
        route.large_communities.emplace_back(
            origin, static_cast<std::uint32_t>(rng.below(100)),
            static_cast<std::uint32_t>(rng.below(1000)));
    }
    if (rng.chance(kExtProbability))
      route.ext_communities.push_back(bgp::ExtCommunity::route_target(
          static_cast<std::uint16_t>(path.front()),
          static_cast<std::uint32_t>(rng.below(1000))));
    route.path = bgp::AsPath(std::move(path));
    return route;
  }

  /// A community that no route carries (a LABEL miss).
  [[nodiscard]] static Community miss(Rng& rng) {
    return Community(static_cast<std::uint16_t>(rng.range(1, 64495)),
                     static_cast<std::uint16_t>(rng.range(60000, 65535)));
  }

  [[nodiscard]] const std::vector<std::pair<Asn, std::uint32_t>>& as2org() const {
    return as2org_;
  }

 private:
  [[nodiscard]] std::vector<Asn> up_chain(Asn asn, std::uint64_t h) const {
    std::vector<Asn> chain{asn};
    while (tier1_set_.count(asn) == 0) {
      const std::vector<Asn>& ps = providers_.at(asn);
      asn = ps[h % ps.size()];
      h = mix(h);
      chain.push_back(asn);
    }
    return chain;
  }

  /// VP's chain up, then down the origin's chain: through the first AS the
  /// two share, else across the tier-1 peering.
  [[nodiscard]] static std::vector<Asn> join(const std::vector<Asn>& up,
                                             const std::vector<Asn>& down) {
    std::vector<Asn> path;
    for (const Asn asn : up) {
      path.push_back(asn);
      const auto it = std::find(down.begin(), down.end(), asn);
      if (it != down.end()) {
        for (auto back = std::make_reverse_iterator(it); back != down.rend(); ++back)
          path.push_back(*back);
        return path;
      }
    }
    path.insert(path.end(), down.rbegin(), down.rend());
    return path;
  }

  std::uint64_t seed_;
  std::vector<Asn> tier1_, transit_, stubs_;
  std::unordered_set<Asn> tier1_set_;
  std::unordered_map<Asn, std::vector<Asn>> providers_;
  std::unordered_map<std::uint16_t, Scheme> schemes_;
  std::unordered_map<Asn, std::uint16_t> tags_for_;
  std::vector<std::uint16_t> action_alphas_;
  std::vector<std::pair<Asn, std::uint32_t>> as2org_;
  std::vector<bgp::Prefix> prefixes_;
  std::vector<Asn> origin_;
};

/// Running tally of the traffic properties DESIGN.md records.
struct Traffic {
  std::uint64_t rows = 0;
  std::uint64_t communities = 0;
  std::uint64_t large_rows = 0;
  std::uint64_t ext_rows = 0;
  std::unordered_set<std::uint64_t> paths;
  std::set<std::uint32_t> distinct;

  void add(const bgp::Route& route) {
    ++rows;
    communities += route.communities.size();
    large_rows += route.large_communities.empty() ? 0 : 1;
    ext_rows += route.ext_communities.empty() ? 0 : 1;
    paths.insert(route.path.hash());
    for (const Community c : route.communities) distinct.insert(c.wire());
  }

  void print(std::FILE* out) const {
    const auto r = static_cast<double>(rows);
    std::fprintf(out, "rows %llu\n", static_cast<unsigned long long>(rows));
    std::fprintf(out, "unique_paths %zu\n", paths.size());
    std::fprintf(out, "rows_per_unique_path %.2f\n",
                 r / static_cast<double>(std::max<std::size_t>(paths.size(), 1)));
    std::fprintf(out, "communities_per_row %.2f\n",
                 static_cast<double>(communities) / r);
    std::fprintf(out, "large_community_row_share %.3f\n",
                 static_cast<double>(large_rows) / r);
    std::fprintf(out, "ext_community_row_share %.3f\n",
                 static_cast<double>(ext_rows) / r);
    std::fprintf(out, "distinct_communities %zu\n", distinct.size());
  }
};

class Output {
 public:
  explicit Output(std::string dir) : dir_(std::move(dir)) {}

  std::ofstream open(const std::string& name) {
    names_.push_back(name);
    return std::ofstream(dir_ + "/" + name, std::ios::binary | std::ios::trunc);
  }

  /// inputs.txt: one line per generated file.
  bool finish(std::FILE* echo) const {
    std::ofstream manifest(dir_ + "/inputs.txt");
    for (const std::string& name : names_) {
      const std::string path = dir_ + "/" + name;
      const std::string digest = file_digest(path);
      if (digest.empty()) return false;
      const auto bytes = std::filesystem::file_size(path);
      manifest << name << ' ' << bytes << ' ' << digest << '\n';
      std::fprintf(echo, "input %s bytes=%llu fnv64=%s\n", name.c_str(),
                   static_cast<unsigned long long>(bytes), digest.c_str());
    }
    return static_cast<bool>(manifest);
  }

 private:
  std::string dir_;
  std::vector<std::string> names_;
};

int generate_batch(const World& world, Output& out, Traffic& traffic,
                   std::FILE* info) {
  std::vector<std::uint64_t> version(kBatchPrefixes, 0);
  std::uint64_t changed_paths = 0;
  // The churn pattern is the same for every seed, which keeps the work per
  // run steady; the seed varies the world the pattern applies to.
  Rng churn(mix(0xba7c4, kBatchPrefixes));
  const int dumps = kBatchFiles / kBatchCollectors;
  for (int dump = 0; dump < dumps; ++dump) {
    if (dump > 0) {
      for (std::uint64_t& v : version)
        if (churn.chance(kBatchChurn)) ++v;
    }
    for (int c = 0; c < kBatchCollectors; ++c) {
      const auto vps = world.vantage_points(kBatchVps, c);
      std::vector<bgp::RibEntry> rows;
      rows.reserve(static_cast<std::size_t>(kBatchVps * kBatchPrefixes));
      for (int i = 0; i < kBatchPrefixes; ++i) {
        const std::size_t p = world.prefix(static_cast<std::size_t>(i));
        for (const auto& vp : vps) {
          bgp::RibEntry row{vp, world.route(p, vp, version[static_cast<std::size_t>(i)])};
          const std::size_t before = traffic.paths.size();
          traffic.add(row.route);
          if (dump > 0 && traffic.paths.size() != before) ++changed_paths;
          rows.push_back(std::move(row));
        }
      }
      std::ofstream file = out.open(batch_rib_name(dump * kBatchCollectors + c));
      mrt::MrtWriter writer(file);
      writer.write_rib_snapshot(rows, static_cast<std::uint32_t>(c + 1),
                                kEpochStart + static_cast<std::uint32_t>(dump) * 43200);
      if (!file) return 1;
    }
  }
  std::fprintf(info, "new_path_share_per_file %.4f\n",
               static_cast<double>(changed_paths) /
                   static_cast<double>(traffic.rows - static_cast<std::uint64_t>(
                                                          kBatchCollectors * kBatchVps *
                                                          kBatchPrefixes)));
  std::ofstream orgs = out.open("as2org.txt");
  orgs << "# aut|org_id\n";
  for (const auto& [asn, org] : world.as2org()) orgs << asn << '|' << org << '\n';
  std::fprintf(info, "as2org_rows %zu\n", world.as2org().size());
  return orgs ? 0 : 1;
}

int generate_stream(const World& world, Output& out, Traffic& traffic,
                    std::FILE* info) {
  const auto vps = world.vantage_points(kStreamVps, 0);
  const std::size_t slots = static_cast<std::size_t>(kStreamVps) * kStreamPrefixes;
  std::vector<std::uint64_t> version(slots, 0);
  // As in batch: a fixed update pattern over a seeded world.
  Rng rng(mix(0x57e4, slots));
  std::uint64_t withdrawals = 0;
  std::uint64_t new_paths = 0;
  for (int f = 0; f < kStreamFiles; ++f) {
    std::ofstream file = out.open(stream_file_name(f));
    mrt::MrtWriter writer(file);
    for (int k = 0; k < kStreamRecordsPerFile; ++k) {
      const std::uint32_t ts = kEpochStart +
                               static_cast<std::uint32_t>(f) * kStreamFileSeconds +
                               static_cast<std::uint32_t>(k) * kStreamFileSeconds /
                                   kStreamRecordsPerFile;
      // Skewed key popularity: squaring a uniform draw favours low slots.
      const double u = static_cast<double>(rng.next() >> 11) * 0x1.0p-53;
      const auto slot = static_cast<std::size_t>(u * u * static_cast<double>(slots));
      const auto& vp = vps[slot % vps.size()];
      const std::size_t p = world.prefix(slot / vps.size());
      if (rng.chance(kStreamWithdrawShare)) {
        const bgp::Prefix prefix = world.prefix_value(p);
        writer.write_withdraw(vp, std::span<const bgp::Prefix>(&prefix, 1), ts);
        ++withdrawals;
        continue;
      }
      if (rng.chance(kStreamNewPathShare)) ++version[slot];
      const bgp::Route route = world.route(p, vp, version[slot]);
      const std::size_t before = traffic.paths.size();
      traffic.add(route);
      if (traffic.paths.size() != before) ++new_paths;
      writer.write_update(vp, route, ts);
    }
    if (!file) return 1;
  }
  const auto records = static_cast<double>(kStreamFiles) * kStreamRecordsPerFile;
  std::fprintf(info, "update_records %.0f\n", records);
  std::fprintf(info, "withdrawal_share %.4f\n", static_cast<double>(withdrawals) / records);
  std::fprintf(info, "new_path_share_of_announcements %.4f\n",
               static_cast<double>(new_paths) / static_cast<double>(traffic.rows));
  std::fprintf(info, "hours_spanned %u\n",
               kStreamFiles * kStreamFileSeconds / 3600);
  return 0;
}

int generate_serve(const World& world, Output& out, Traffic& traffic,
                   std::FILE* info) {
  for (int c = 0; c < kServeRibFiles; ++c) {
    const auto vps = world.vantage_points(kServeVps, c);
    std::vector<bgp::RibEntry> rows;
    for (int i = 0; i < kServePrefixes; ++i) {
      const std::size_t p = world.prefix(static_cast<std::size_t>(i));
      for (const auto& vp : vps) {
        bgp::RibEntry row{vp, world.route(p, vp, 0)};
        traffic.add(row.route);
        rows.push_back(std::move(row));
      }
    }
    std::ofstream file = out.open(serve_rib_name(c));
    mrt::MrtWriter writer(file);
    writer.write_rib_snapshot(rows, static_cast<std::uint32_t>(c + 1), kEpochStart);
    if (!file) return 1;
  }
  const std::vector<std::uint32_t> table(traffic.distinct.begin(),
                                         traffic.distinct.end());
  // INGEST observations: re-routed prefixes seen from any collector's VPs.
  Rng rng(mix(0x5e7e, table.size()));
  std::ofstream writes = out.open("writes.txt");
  std::uint64_t new_paths = 0;
  for (int i = 0; i < kServeWrites; ++i) {
    const auto vps = world.vantage_points(kServeVps, static_cast<int>(rng.below(kServeRibFiles)));
    const auto& vp = vps[rng.below(vps.size())];
    const std::size_t p = world.prefix(rng.below(kServePrefixes));
    const bgp::Route route = world.route(p, vp, 1 + rng.below(1000));
    new_paths += traffic.paths.count(route.path.hash()) == 0 ? 1 : 0;
    writes << *serve::format_path(route.path) << ' '
           << serve::format_communities(route.communities) << '\n';
  }
  std::ofstream reads = out.open("reads.txt");
  std::uint64_t misses = 0;
  for (int i = 0; i < kServeReads; ++i) {
    if (rng.chance(kServeMissShare)) {
      reads << World::miss(rng).to_string() << '\n';
      ++misses;
    } else {
      reads << Community::from_wire(table[rng.below(table.size())]).to_string() << '\n';
    }
  }
  std::fprintf(info, "write_new_path_share %.4f\n",
               static_cast<double>(new_paths) / kServeWrites);
  std::fprintf(info, "label_miss_share %.4f\n",
               static_cast<double>(misses) / kServeReads);
  return writes && reads ? 0 : 1;
}

}  // namespace

int generate(const std::string& workload, std::uint64_t seed,
             const std::string& dir) {
  std::filesystem::create_directories(dir);
  const World world(seed);
  Output out(dir);
  Traffic traffic;
  const std::string info_path = dir + "/traffic.txt";
  std::FILE* info = std::fopen(info_path.c_str(), "w");
  if (info == nullptr) return 1;
  int rc = 1;
  if (workload == "batch_infer") {
    rc = generate_batch(world, out, traffic, info);
  } else if (workload == "stream_journal") {
    rc = generate_stream(world, out, traffic, info);
  } else if (workload == "serve_mixed") {
    rc = generate_serve(world, out, traffic, info);
  } else {
    std::fprintf(stderr, "unknown workload %s\n", workload.c_str());
  }
  traffic.print(info);
  std::fclose(info);
  if (rc != 0) return rc;
  if (!out.finish(stdout)) return 1;
  std::ifstream echo(info_path);
  for (std::string line; std::getline(echo, line);)
    std::printf("traffic %s\n", line.c_str());
  return 0;
}

}  // namespace perfbench
