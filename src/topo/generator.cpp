#include "topo/generator.hpp"

#include <algorithm>
#include <unordered_set>

namespace bgpintent::topo {

namespace {

using util::Rng;

Location random_city(Rng& rng, std::uint8_t region,
                     std::uint16_t cities_per_region) {
  return Location{region,
                  static_cast<std::uint16_t>(rng.index(cities_per_region))};
}

/// A shared location for two ASes; prefers a region both are present in.
Location meeting_point(Rng& rng, const AsNode& a, const AsNode& b,
                       std::uint16_t cities_per_region) {
  for (const Location& loc : a.presence)
    if (b.present_in_region(loc.region))
      return random_city(rng, loc.region, cities_per_region);
  // No overlap (possible for tier-1 <-> remote stub): use a's first region.
  return random_city(rng, a.presence.empty() ? std::uint8_t{0}
                                             : a.presence.front().region,
                     cities_per_region);
}

}  // namespace

std::vector<Asn> Topology::asns_with_tier(Tier tier) const {
  std::vector<Asn> out;
  for (Asn asn : graph.all_asns())
    if (graph.find(asn)->tier == tier) out.push_back(asn);
  return out;
}

Topology generate_topology(const TopologyConfig& config) {
  Topology topo;
  topo.config = config;
  Rng rng(config.seed);
  AsGraph& g = topo.graph;

  OrgId next_org = 1;
  std::vector<Asn> tier1s, tier2s, stubs;

  // --- Tier-1 core: present in every region, full p2p clique. ---
  for (std::uint32_t i = 0; i < config.tier1_count; ++i) {
    AsNode node;
    node.asn = config.tier1_base + i;
    node.tier = Tier::kTier1;
    node.org = next_org++;
    for (std::uint8_t r = 0; r < config.region_count; ++r)
      node.presence.push_back(random_city(rng, r, config.cities_per_region));
    tier1s.push_back(node.asn);
    g.add_as(std::move(node));
    topo.orgs.assign(tier1s.back(), g.find(tier1s.back())->org);
  }
  for (std::size_t i = 0; i < tier1s.size(); ++i)
    for (std::size_t j = i + 1; j < tier1s.size(); ++j)
      g.add_edge(tier1s[i], tier1s[j], Relationship::kP2P,
                 meeting_point(rng, *g.find(tier1s[i]), *g.find(tier1s[j]),
                               config.cities_per_region));

  // --- Tier-2: regional transit, multihomed to tier-1s. ---
  for (std::uint32_t i = 0; i < config.tier2_count; ++i) {
    AsNode node;
    node.asn = config.tier2_base + i;
    node.tier = Tier::kTier2;
    node.org = next_org++;
    node.strips_communities = rng.chance(config.strip_fraction);
    const auto home =
        static_cast<std::uint8_t>(rng.index(config.region_count));
    node.presence.push_back(random_city(rng, home, config.cities_per_region));
    if (config.region_count > 1 && rng.chance(0.3)) {
      auto second = static_cast<std::uint8_t>(rng.index(config.region_count));
      if (second != home)
        node.presence.push_back(
            random_city(rng, second, config.cities_per_region));
    }
    tier2s.push_back(node.asn);
    g.add_as(std::move(node));
    topo.orgs.assign(tier2s.back(), g.find(tier2s.back())->org);
  }
  // Sibling organizations: group runs of tier-2s into shared orgs.
  {
    const auto grouped = static_cast<std::size_t>(
        config.sibling_fraction * static_cast<double>(tier2s.size()));
    std::size_t assigned = 0;
    while (assigned + 1 < grouped) {
      const std::size_t group_size = std::min<std::size_t>(
          2 + rng.index(2), grouped - assigned);  // 2-3 ASes per org
      if (group_size < 2) break;
      const OrgId org = next_org++;
      for (std::size_t k = 0; k < group_size; ++k)
        topo.orgs.assign(tier2s[assigned + k], org);
      assigned += group_size;
    }
  }
  for (Asn asn : tier2s) {
    // Providers: 1..N tier-1s, zipf-weighted so some tier-1s dominate.
    const auto provider_count =
        rng.geometric(1.0 / config.mean_providers, 4);
    std::unordered_set<Asn> chosen;
    while (chosen.size() < provider_count) {
      const Asn provider = tier1s[rng.zipf(tier1s.size(), 1.0)];
      if (chosen.insert(provider).second)
        g.add_edge(provider, asn, Relationship::kP2C,
                   meeting_point(rng, *g.find(provider), *g.find(asn),
                                 config.cities_per_region));
    }
  }
  // Tier-2 <-> tier-2 regional peering.
  for (std::size_t i = 0; i < tier2s.size(); ++i) {
    for (std::size_t j = i + 1; j < tier2s.size(); ++j) {
      const AsNode& a = *g.find(tier2s[i]);
      const AsNode& b = *g.find(tier2s[j]);
      bool share_region = false;
      for (const Location& loc : a.presence)
        if (b.present_in_region(loc.region)) share_region = true;
      if (share_region && rng.chance(config.tier2_peering_prob))
        g.add_edge(tier2s[i], tier2s[j], Relationship::kP2P,
                   meeting_point(rng, a, b, config.cities_per_region));
    }
  }
  // Sibling edges inside orgs (an ASN without an org has no siblings).
  for (Asn asn : tier2s)
    for (const Asn sibling : topo.orgs.siblings(asn))
      if (sibling > asn && !g.relationship(asn, sibling))
        g.add_edge(asn, sibling, Relationship::kS2S,
                   meeting_point(rng, *g.find(asn), *g.find(sibling),
                                 config.cities_per_region));

  // --- Stubs: multihomed customers of regional tier-2s. ---
  for (std::uint32_t i = 0; i < config.stub_count; ++i) {
    AsNode node;
    node.asn = config.stub_base + i;
    node.tier = Tier::kStub;
    node.org = next_org++;
    node.strips_communities = rng.chance(config.strip_fraction);
    const auto home =
        static_cast<std::uint8_t>(rng.index(config.region_count));
    node.presence.push_back(random_city(rng, home, config.cities_per_region));
    stubs.push_back(node.asn);
    g.add_as(std::move(node));
    topo.orgs.assign(stubs.back(), g.find(stubs.back())->org);
  }
  // Region -> tier-2s present there (fallback: all tier-2s).
  std::vector<std::vector<Asn>> region_tier2s(config.region_count);
  for (Asn asn : tier2s)
    for (const Location& loc : g.find(asn)->presence)
      region_tier2s[loc.region].push_back(asn);
  for (Asn asn : stubs) {
    const AsNode& node = *g.find(asn);
    const std::uint8_t home = node.presence.front().region;
    const auto& local = region_tier2s[home].empty() ? tier2s
                                                    : region_tier2s[home];
    std::uint32_t provider_count =
        rng.geometric(1.0 / config.mean_providers, 3);
    if (rng.chance(config.stub_multihome_prob))
      provider_count = std::max(provider_count, 2u);
    std::unordered_set<Asn> chosen;
    std::uint32_t attempts = 0;
    while (chosen.size() < provider_count && attempts++ < 16) {
      // Mostly regional tier-2s; occasionally a tier-1 (direct transit).
      const Asn provider = rng.chance(0.9)
                               ? local[rng.zipf(local.size(), 0.8)]
                               : tier1s[rng.zipf(tier1s.size(), 1.0)];
      if (chosen.insert(provider).second)
        g.add_edge(provider, asn, Relationship::kP2C,
                   meeting_point(rng, *g.find(provider), node,
                                 config.cities_per_region));
    }
  }

  // --- IXPs: transparent route servers with multilateral peering. ---
  Asn next_rs = config.route_server_base;
  for (std::uint8_t region = 0; region < config.region_count; ++region) {
    for (std::uint32_t k = 0; k < config.ixps_per_region; ++k) {
      Ixp ixp;
      ixp.route_server = next_rs++;
      ixp.where = random_city(rng, region, config.cities_per_region);
      AsNode rs;
      rs.asn = ixp.route_server;
      rs.tier = Tier::kRouteServer;
      rs.org = next_org++;
      rs.presence.push_back(ixp.where);
      g.add_as(std::move(rs));
      topo.orgs.assign(ixp.route_server, g.find(ixp.route_server)->org);

      std::vector<Asn> candidates;
      for (Asn asn : tier2s)
        if (g.find(asn)->present_in_region(region)) candidates.push_back(asn);
      for (Asn asn : stubs)
        if (g.find(asn)->present_in_region(region)) candidates.push_back(asn);
      for (Asn asn : candidates)
        if (rng.chance(config.ixp_member_fraction))
          ixp.members.push_back(asn);
      // Multilateral peering: each member peers with a few others through
      // the route server (the RS stays out of the AS path).
      for (std::size_t i = 0; i < ixp.members.size(); ++i) {
        const std::uint32_t want =
            std::min<std::uint32_t>(config.ixp_peers_per_member,
                                    static_cast<std::uint32_t>(
                                        ixp.members.size() - 1));
        std::uint32_t made = 0;
        std::uint32_t attempts = 0;
        while (made < want && attempts++ < 4 * want + 8) {
          const Asn other = ixp.members[rng.index(ixp.members.size())];
          if (other == ixp.members[i]) continue;
          if (g.relationship(ixp.members[i], other)) continue;
          g.add_edge(ixp.members[i], other, Relationship::kP2P, ixp.where,
                     ixp.route_server);
          ++made;
        }
      }
      topo.ixps.push_back(std::move(ixp));
    }
  }

  return topo;
}

TopologyConfig preset_config(ScalePreset preset) {
  TopologyConfig config;  // kTiny == the defaults.
  switch (preset) {
    case ScalePreset::kTiny:
      break;
    case ScalePreset::kSmall:
      config.tier1_count = 12;
      config.tier2_count = 260;
      config.stub_count = 2000;
      config.region_count = 4;
      config.cities_per_region = 8;
      config.tier2_peering_prob = 0.08;
      config.ixp_member_fraction = 0.12;
      break;
    case ScalePreset::kMedium:
      config.tier1_count = 14;
      config.tier2_count = 900;
      config.stub_count = 10000;
      config.region_count = 5;
      config.cities_per_region = 10;
      config.tier2_peering_prob = 0.03;
      config.ixps_per_region = 2;
      config.ixp_member_fraction = 0.08;
      config.ixp_peers_per_member = 6;
      break;
    case ScalePreset::kLarge:
      config.tier1_count = 15;
      config.tier2_count = 1700;
      config.stub_count = 30000;
      config.region_count = 6;
      config.cities_per_region = 12;
      config.tier2_peering_prob = 0.015;
      config.ixps_per_region = 2;
      config.ixp_member_fraction = 0.06;
      config.ixp_peers_per_member = 8;
      config.stub_base = 20000;  // 20000..50000, clear of the RS base.
      break;
    case ScalePreset::kInternet:
      config.tier1_count = 15;
      config.tier2_count = 2600;
      config.stub_count = 72500;
      config.region_count = 8;
      config.cities_per_region = 12;
      config.tier2_peering_prob = 0.01;
      config.ixps_per_region = 2;
      config.ixp_member_fraction = 0.05;
      config.ixp_peers_per_member = 8;
      // 72.5K stubs overflow any 16-bit slot above the transit ranges:
      // park route servers between transit and stubs, and let the stub
      // range run past the 16-bit ASN boundary (20000..92500) the way
      // real 32-bit ASN allocations do.
      config.route_server_base = 15000;
      config.stub_base = 20000;
      break;
  }
  return config;
}

const char* preset_name(ScalePreset preset) noexcept {
  switch (preset) {
    case ScalePreset::kTiny: return "tiny";
    case ScalePreset::kSmall: return "small";
    case ScalePreset::kMedium: return "medium";
    case ScalePreset::kLarge: return "large";
    case ScalePreset::kInternet: return "internet";
  }
  return "?";
}

std::vector<ScalePreset> all_scale_presets() {
  return {ScalePreset::kTiny, ScalePreset::kSmall, ScalePreset::kMedium,
          ScalePreset::kLarge, ScalePreset::kInternet};
}

}  // namespace bgpintent::topo
