// State image equivalence, pinned on the batch Pipeline: an engine decoded
// from an image onto the heap and a server over the mapped image must be
// indistinguishable from the never-serialized engine, and every label any
// of them answers must be the label batch Pipeline::run gives the same
// entries — through the protocol surface (LABEL / BATCH-LABEL / TOTALS) at
// several shard counts, and after INGESTs restore the mapped engine.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "core/pipeline.hpp"
#include "routing/scenario.hpp"
#include "serve/client.hpp"
#include "serve/protocol.hpp"
#include "serve/server.hpp"
#include "serve/snapshot.hpp"
#include "support/serve_engine.hpp"
#include "support/temp_path.hpp"

namespace bgpintent::serve {
namespace {

using dict::Intent;
using stream::StreamEngine;

struct Fixture {
  routing::Scenario scenario;
  std::vector<bgp::RibEntry> entries;
  std::span<const bgp::RibEntry> first_half;
  std::span<const bgp::RibEntry> second_half;
  /// The never-serialized engine: the first half, with the last tenth of
  /// it still dirty.
  std::unique_ptr<StreamEngine> original;
  std::vector<std::uint8_t> image;  ///< original's image (unsettled)
  std::string path;                 ///< the same state, settled, on disk
  core::InferenceResult batch;      ///< Pipeline over the first half
  std::vector<bgp::Community> communities;  ///< every observed community

  explicit Fixture(std::uint64_t seed) : scenario(build_scenario(seed)) {
    entries = scenario.entries();
    first_half = std::span(entries).first(entries.size() / 2);
    second_half = std::span(entries).subspan(entries.size() / 2);

    original = std::make_unique<StreamEngine>(test_support::serve_window(),
                                              orgs());
    const std::size_t settled = first_half.size() * 9 / 10;
    for (std::size_t i = 0; i < first_half.size(); ++i) {
      original->announce(first_half[i]);
      if (i + 1 == settled) original->reclassify();
    }
    image = original->encode_image();
    path = test_support::unique_temp_path("equiv_" + std::to_string(seed) +
                                          ".snap");
    save_snapshot(*restore(image), path);

    core::PipelineResult result = run_batch(first_half);
    for (const auto& stats : result.observations.all())
      communities.push_back(stats.community);
    batch = std::move(result.inference);
  }
  ~Fixture() { std::remove(path.c_str()); }

  static routing::Scenario build_scenario(std::uint64_t seed) {
    routing::ScenarioConfig cfg;
    cfg.topology.seed = seed;
    cfg.topology.tier1_count = 4;
    cfg.topology.tier2_count = 14;
    cfg.topology.stub_count = 70;
    cfg.vantage_point_count = 12;
    return routing::Scenario::build(cfg);
  }

  [[nodiscard]] const topo::OrgMap* orgs() const {
    return &scenario.topology().orgs;
  }

  [[nodiscard]] std::unique_ptr<StreamEngine> restore(
      std::span<const std::uint8_t> bytes) const {
    stream::StateImage decoded = stream::decode_image(bytes);
    auto engine = std::make_unique<StreamEngine>(decoded.config, orgs());
    engine->restore_state(decoded.state, std::move(decoded.paths));
    return engine;
  }

  /// A never-serialized engine fed the first half, like `original`.
  [[nodiscard]] std::unique_ptr<StreamEngine> unserialized() const {
    return test_support::serve_engine(first_half, orgs());
  }

  [[nodiscard]] core::PipelineResult run_batch(
      std::span<const bgp::RibEntry> rows) const {
    core::Pipeline pipeline;
    pipeline.set_org_map(orgs());
    return pipeline.run(rows);
  }
};

/// INGEST lines carrying `rows`, 32 pairs each (rows without communities
/// carry no evidence and are skipped).
std::vector<std::string> ingest_lines(std::span<const bgp::RibEntry> rows) {
  std::vector<std::string> lines;
  std::string line;
  std::size_t pairs = 0;
  for (const bgp::RibEntry& row : rows) {
    if (row.route.communities.empty()) continue;
    const auto path = format_path(row.route.path);
    if (!path) continue;
    if (line.empty()) line = "INGEST";
    line += " " + *path + " " + format_communities(row.route.communities);
    if (++pairs % 32 == 0) {
      lines.push_back(line);
      line.clear();
    }
  }
  if (!line.empty()) lines.push_back(line);
  return lines;
}

TEST(SnapshotV3Equivalence, AllThreeLoadPathsAgreeBitForBit) {
  const Fixture fx(181);
  ASSERT_TRUE(fx.original->has_pending_dirty());

  // Heap decode of the unsettled image, of the settled file, and the
  // mapped file's decode: each is the engine that wrote it.
  const auto from_bytes = fx.restore(fx.image);
  EXPECT_EQ(from_bytes->export_state(), fx.original->export_state());
  stream::StateImage from_file = load_snapshot(fx.path);
  const auto mapped = MappedSnapshot::open(fx.path);
  stream::StateImage from_mapping = mapped->decode();
  EXPECT_EQ(from_file.state, from_mapping.state);
  EXPECT_TRUE(mapped->settled());
  StreamEngine from_mmap(mapped->config(), fx.orgs());
  from_mmap.restore_state(from_mapping.state, std::move(from_mapping.paths));

  // The mapped label columns are batch's labels: every labelled community
  // in order, nothing else.
  const auto wires = mapped->label_wires();
  const auto intents = mapped->label_intents();
  std::size_t labelled = 0;
  for (const auto community : fx.communities) {
    const Intent want = fx.batch.label_of(community);
    const auto it = std::lower_bound(wires.begin(), wires.end(),
                                     community.wire());
    const Intent got =
        it == wires.end() || *it != community.wire()
            ? Intent::kUnclassified
            : intents[static_cast<std::size_t>(it - wires.begin())];
    EXPECT_EQ(got, want) << community.to_string();
    if (it != wires.end() && *it == community.wire()) ++labelled;
  }
  EXPECT_EQ(labelled, wires.size());

  // Every label answer agrees with batch (this reclassifies the dirty
  // alphas of the heap copy and the original).
  ASSERT_GT(fx.communities.size(), 50u);
  for (const auto community : fx.communities) {
    const Intent want = fx.batch.label_of(community);
    EXPECT_EQ(from_bytes->label_of(community), want) << community.to_string();
    EXPECT_EQ(from_mmap.label_of(community), want) << community.to_string();
    EXPECT_EQ(fx.original->label_of(community), want)
        << community.to_string();
  }
  const auto totals = from_mmap.totals();
  EXPECT_EQ(totals.information, fx.batch.information_count);
  EXPECT_EQ(totals.action, fx.batch.action_count);
}

TEST(SnapshotV3Equivalence, DetachAfterIngestMatchesTheOriginal) {
  const Fixture fx(182);
  const auto mapped = MappedSnapshot::open(fx.path);
  StreamEngine engine(mapped->config(), fx.orgs());
  ServerConfig cfg;
  cfg.shards = 2;
  Server server(engine, cfg, mapped);
  server.start();
  auto client = Client::connect("127.0.0.1", server.port());

  // Borrowed answers first, then the INGESTs that restore the engine.
  EXPECT_EQ(client.label(fx.communities.front()),
            fx.batch.label_of(fx.communities.front()));
  EXPECT_EQ(engine.announces(), 0u);
  for (const std::string& line : ingest_lines(fx.second_half))
    ASSERT_TRUE(client.request(line).starts_with("OK ")) << line;

  const auto oracle = fx.unserialized();
  for (const auto& row : fx.second_half)
    if (!row.route.communities.empty()) oracle->announce(row);
  oracle->reclassify();
  EXPECT_EQ(engine.stats().live_tuples, oracle->stats().live_tuples);

  std::vector<bgp::RibEntry> all(fx.first_half.begin(), fx.first_half.end());
  for (const auto& row : fx.second_half)
    if (!row.route.communities.empty()) all.push_back(row);
  const auto want = fx.run_batch(all);
  std::size_t compared = 0;
  for (const auto& stats : want.observations.all()) {
    ++compared;
    EXPECT_EQ(client.label(stats.community),
              want.inference.label_of(stats.community))
        << stats.community.to_string();
  }
  EXPECT_GT(compared, fx.communities.size());
  const auto totals = client.totals();
  EXPECT_EQ(totals.information, want.inference.information_count);
  EXPECT_EQ(totals.action, want.inference.action_count);
  server.request_stop();
  server.wait();
}

TEST(SnapshotV3Equivalence, TwoBorrowersShareOneMappingIndependently) {
  const Fixture fx(183);
  const auto mapped = MappedSnapshot::open(fx.path);
  StreamEngine reader_engine(mapped->config(), fx.orgs());
  StreamEngine writer_engine(mapped->config(), fx.orgs());
  Server reader(reader_engine, ServerConfig{}, mapped);
  Server writer(writer_engine, ServerConfig{}, mapped);
  reader.start();
  writer.start();

  // Mutating one borrower must not disturb the other (the mapped pages
  // are read-only; the writer restores onto its own heap copy).
  auto writer_client = Client::connect("127.0.0.1", writer.port());
  for (const std::string& line : ingest_lines(fx.second_half))
    ASSERT_TRUE(writer_client.request(line).starts_with("OK ")) << line;
  EXPECT_GT(writer_engine.announces(), 0u);

  auto reader_client = Client::connect("127.0.0.1", reader.port());
  for (const auto community : fx.communities)
    EXPECT_EQ(reader_client.label(community), fx.batch.label_of(community))
        << community.to_string();
  EXPECT_EQ(reader_engine.announces(), 0u);  // LABEL never restores

  reader.request_stop();
  writer.request_stop();
  reader.wait();
  writer.wait();
}

// The protocol surface: a server over the never-serialized engine and one
// over the mapping answer LABEL, BATCH-LABEL, and TOTALS as batch does at
// every shard-pool size.
TEST(SnapshotV3Equivalence, ServersAgreeOnLabelBatchLabelAndTotals) {
  const Fixture fx(184);
  std::vector<Intent> want;
  for (const auto community : fx.communities)
    want.push_back(fx.batch.label_of(community));
  for (const unsigned shards : {1u, 2u, 8u}) {
    const auto mapped = MappedSnapshot::open(fx.path);
    ServerConfig cfg;
    cfg.port = 0;
    cfg.shards = shards;
    const auto oracle = fx.unserialized();
    StreamEngine mapped_engine(mapped->config(), fx.orgs());
    Server oracle_server(*oracle, cfg);
    Server v3_server(mapped_engine, cfg, mapped);
    oracle_server.start();
    v3_server.start();

    for (Server* server : {&oracle_server, &v3_server}) {
      auto client = Client::connect("127.0.0.1", server->port());
      for (std::size_t i = 0; i < fx.communities.size(); ++i)
        EXPECT_EQ(client.label(fx.communities[i]), want[i])
            << "shards=" << shards << " "
            << fx.communities[i].to_string();

      // BATCH-LABEL over the binary protocol, one round trip.
      auto batch_client = Client::connect("127.0.0.1", server->port());
      batch_client.negotiate_binary();
      EXPECT_EQ(batch_client.labels(fx.communities), want)
          << "shards=" << shards;

      const auto totals = client.totals();
      EXPECT_EQ(totals.communities, fx.communities.size());
      EXPECT_EQ(totals.information, fx.batch.information_count);
      EXPECT_EQ(totals.action, fx.batch.action_count);
    }

    oracle_server.request_stop();
    v3_server.request_stop();
    oracle_server.wait();
    v3_server.wait();
  }
}

}  // namespace
}  // namespace bgpintent::serve
