// Performance micro-benchmarks (google-benchmark): throughput of the hot
// paths a consumer of this library cares about when pointing it at real
// RouteViews-scale data — path interning, tuple indexing, clustering,
// classification, pattern matching, and MRT encode/decode.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <sstream>

#include "core/pipeline.hpp"
#include "dict/builtin.hpp"
#include "mrt/mrt_file.hpp"
#include "routing/scenario.hpp"
#include "util/rng.hpp"

namespace {

using namespace bgpintent;

const routing::Scenario& shared_scenario() {
  static const routing::Scenario scenario = [] {
    routing::ScenarioConfig cfg;
    cfg.topology.seed = 20230501;
    cfg.topology.tier1_count = 8;
    cfg.topology.tier2_count = 60;
    cfg.topology.stub_count = 400;
    cfg.vantage_point_count = 40;
    return routing::Scenario::build(cfg);
  }();
  return scenario;
}

const std::vector<bgp::RibEntry>& shared_entries() {
  static const std::vector<bgp::RibEntry> entries = shared_scenario().entries();
  return entries;
}

void BM_PathTableIntern(benchmark::State& state) {
  const auto& entries = shared_entries();
  for (auto _ : state) {
    bgp::PathTable table;
    auto tuples = bgp::intern_entries(table, entries);
    benchmark::DoNotOptimize(tuples.size());
    benchmark::DoNotOptimize(table.size());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(entries.size()));
}
BENCHMARK(BM_PathTableIntern);

void BM_ObservationIndexBuildInterned(benchmark::State& state) {
  // The steady-state serving shape: paths interned once up front, the
  // index rebuilt from the 8-byte records.
  const auto& entries = shared_entries();
  bgp::PathTable table;
  const auto tuples = bgp::intern_entries(table, entries);
  for (auto _ : state) {
    auto index = core::ObservationIndex::build_interned(table, tuples);
    benchmark::DoNotOptimize(index.community_count());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(tuples.size()));
}
BENCHMARK(BM_ObservationIndexBuildInterned);

void BM_GapClustering(benchmark::State& state) {
  util::Rng rng(7);
  std::vector<std::uint16_t> betas;
  for (int i = 0; i < 2000; ++i)
    betas.push_back(static_cast<std::uint16_t>(rng.uniform(0, 65535)));
  std::sort(betas.begin(), betas.end());
  betas.erase(std::unique(betas.begin(), betas.end()), betas.end());
  for (auto _ : state) {
    auto clusters = core::gap_cluster(1299, betas, 140);
    benchmark::DoNotOptimize(clusters.size());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(betas.size()));
}
BENCHMARK(BM_GapClustering);

void BM_Classify(benchmark::State& state) {
  bgp::PathTable table;
  const auto tuples = bgp::intern_entries(table, shared_entries());
  const auto index = core::ObservationIndex::build_interned(
      table, tuples, &shared_scenario().topology().orgs);
  for (auto _ : state) {
    auto result = core::classify(index);
    benchmark::DoNotOptimize(result.classified_count());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(index.community_count()));
}
BENCHMARK(BM_Classify);

void BM_FullPipeline(benchmark::State& state) {
  const auto& entries = shared_entries();
  core::Pipeline pipeline;
  pipeline.set_org_map(&shared_scenario().topology().orgs);
  for (auto _ : state) {
    auto result = pipeline.run(entries);
    benchmark::DoNotOptimize(result.inference.classified_count());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(entries.size()));
}
BENCHMARK(BM_FullPipeline);

void BM_PatternMatch(benchmark::State& state) {
  const auto pattern = dict::CommunityPattern::compile("1299:[257]\\d\\d[1239]");
  std::vector<bgp::Community> probe;
  util::Rng rng(11);
  for (int i = 0; i < 4096; ++i)
    probe.emplace_back(1299, static_cast<std::uint16_t>(rng.uniform(0, 65535)));
  for (auto _ : state) {
    std::size_t hits = 0;
    for (const bgp::Community c : probe)
      if (pattern.matches(c)) ++hits;
    benchmark::DoNotOptimize(hits);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(probe.size()));
}
BENCHMARK(BM_PatternMatch);

void BM_DictionaryLookup(benchmark::State& state) {
  const auto store = dict::builtin_dictionary();
  std::vector<bgp::Community> probe;
  util::Rng rng(13);
  for (int i = 0; i < 4096; ++i)
    probe.emplace_back(1299, static_cast<std::uint16_t>(rng.uniform(0, 65535)));
  for (auto _ : state) {
    std::size_t hits = 0;
    for (const bgp::Community c : probe)
      if (store.lookup(c) != nullptr) ++hits;
    benchmark::DoNotOptimize(hits);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(probe.size()));
}
BENCHMARK(BM_DictionaryLookup);

void BM_MrtEncodeRib(benchmark::State& state) {
  const auto& entries = shared_entries();
  for (auto _ : state) {
    std::ostringstream out;
    mrt::MrtWriter writer(out);
    writer.write_rib_snapshot(entries, 0x7f000001, 1684886400);
    benchmark::DoNotOptimize(out.str().size());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(entries.size()));
}
BENCHMARK(BM_MrtEncodeRib);

void BM_MrtDecodeRib(benchmark::State& state) {
  std::ostringstream out;
  mrt::MrtWriter writer(out);
  writer.write_rib_snapshot(shared_entries(), 0x7f000001, 1684886400);
  const std::string bytes = out.str();
  struct CountingSink final : mrt::EntrySink {
    std::size_t rows = 0;
    void on_entry(bgp::RibEntry&) override { ++rows; }
  };
  for (auto _ : state) {
    std::istringstream in(bytes);
    CountingSink sink;
    mrt::decode_rib_stream(in, sink);
    benchmark::DoNotOptimize(sink.rows);
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(bytes.size()));
}
BENCHMARK(BM_MrtDecodeRib);

void BM_RoutePropagation(benchmark::State& state) {
  const auto& scenario = shared_scenario();
  routing::Simulator simulator(scenario.topology(), scenario.policies());
  const auto& announcement = scenario.announcements().front();
  for (auto _ : state) {
    auto rib = simulator.propagate(announcement);
    benchmark::DoNotOptimize(rib.size());
  }
}
BENCHMARK(BM_RoutePropagation);

}  // namespace

BENCHMARK_MAIN();
