// Columnar snapshot equivalence: a heap load and an mmap borrow of a saved
// classifier must be indistinguishable from the never-serialized original
// to every consumer — they answer identically, keep answering identically
// through the protocol surface (LABEL / BATCH-LABEL / TOTALS) at several
// shard counts, and stay identical to a copy of the original that ingests
// the same updates after post-restore INGEST forces the borrowed
// classifier through its copy-on-write detach.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "core/incremental.hpp"
#include "routing/scenario.hpp"
#include "serve/client.hpp"
#include "serve/server.hpp"
#include "serve/snapshot.hpp"
#include "support/temp_path.hpp"

namespace bgpintent::serve {
namespace {

using core::IncrementalClassifier;
using dict::Intent;

struct Fixture {
  routing::Scenario scenario;
  std::vector<bgp::RibEntry> entries;
  IncrementalClassifier original;
  std::vector<std::uint8_t> v3_bytes;
  std::string v3_path;
  std::vector<bgp::Community> communities;  ///< every known community

  explicit Fixture(std::uint64_t seed) : scenario(build_scenario(seed)) {
    entries = scenario.entries();
    original.set_org_map(&scenario.topology().orgs);
    // Ingest the first half only: the second half drives the post-restore
    // detach comparison.
    original.ingest(std::span(entries).first(entries.size() / 2));
    // Query a subset so the state carries settled labels AND dirty alphas.
    std::size_t queried = 0;
    for (const auto& e : entries) {
      if (e.route.communities.empty()) continue;
      (void)original.label_of(e.route.communities.front());
      if (++queried >= 40) break;
    }
    v3_bytes = encode_snapshot(original);
    v3_path = test_support::unique_temp_path("equiv_" +
                                             std::to_string(seed) + ".snap");
    save_snapshot(original, v3_path);

    for (const auto& alpha : original.export_state().alphas)
      for (const auto& beta : alpha.betas)
        communities.emplace_back(alpha.alpha, beta.beta);
  }
  ~Fixture() { std::remove(v3_path.c_str()); }

  static routing::Scenario build_scenario(std::uint64_t seed) {
    routing::ScenarioConfig cfg;
    cfg.topology.seed = seed;
    cfg.topology.tier1_count = 4;
    cfg.topology.tier2_count = 14;
    cfg.topology.stub_count = 70;
    cfg.vantage_point_count = 12;
    return routing::Scenario::build(cfg);
  }

  /// A copy of the never-serialized original: the oracle every load path
  /// is compared against.
  [[nodiscard]] IncrementalClassifier unserialized() const {
    IncrementalClassifier classifier = original;
    classifier.set_org_map(&scenario.topology().orgs);
    return classifier;
  }

  [[nodiscard]] IncrementalClassifier borrow_v3(
      const std::shared_ptr<MappedSnapshot>& mapped) const {
    IncrementalClassifier classifier(mapped->classifier_config(),
                                     mapped->observation_config());
    classifier.set_org_map(&scenario.topology().orgs);
    classifier.restore_view(mapped->state_view());
    return classifier;
  }
};

void expect_totals_equal(IncrementalClassifier& a, IncrementalClassifier& b,
                         const std::string& label) {
  const auto ta = a.totals();
  const auto tb = b.totals();
  EXPECT_EQ(ta.communities, tb.communities) << label;
  EXPECT_EQ(ta.information, tb.information) << label;
  EXPECT_EQ(ta.action, tb.action) << label;
  EXPECT_EQ(ta.unclassified, tb.unclassified) << label;
}

TEST(SnapshotV3Equivalence, AllThreeLoadPathsAgreeBitForBit) {
  const Fixture fx(181);
  auto oracle = fx.unserialized();
  auto from_v3_heap = decode_snapshot(fx.v3_bytes);
  from_v3_heap.set_org_map(&fx.scenario.topology().orgs);
  const auto mapped = MappedSnapshot::open(fx.v3_path);
  auto from_v3_mmap = fx.borrow_v3(mapped);

  EXPECT_EQ(oracle.export_state(), fx.original.export_state());
  EXPECT_EQ(from_v3_heap.export_state(), fx.original.export_state());
  EXPECT_EQ(from_v3_mmap.export_state(), fx.original.export_state());

  // label_snapshot parity (order-insensitive: the borrowed shape iterates
  // wire-sorted, the owned shape iterates its hash maps).
  auto sorted_labels = [](const IncrementalClassifier& c) {
    auto labels = c.label_snapshot();
    std::sort(labels.begin(), labels.end(),
              [](const auto& a, const auto& b) {
                return a.first.wire() < b.first.wire();
              });
    return labels;
  };
  EXPECT_EQ(sorted_labels(from_v3_mmap), sorted_labels(oracle));
  EXPECT_EQ(sorted_labels(from_v3_heap), sorted_labels(oracle));

  // Every label answer agrees (this reclassifies the dirty alphas through
  // both the owned and the borrowed code paths).
  ASSERT_GT(fx.communities.size(), 50u);
  for (const auto community : fx.communities)
    EXPECT_EQ(from_v3_mmap.label_of(community), oracle.label_of(community))
        << community.to_string();
  expect_totals_equal(oracle, from_v3_mmap, "totals-after-labels");
}

TEST(SnapshotV3Equivalence, DetachAfterIngestMatchesTheOriginal) {
  const Fixture fx(182);
  auto oracle = fx.unserialized();
  const auto mapped = MappedSnapshot::open(fx.v3_path);
  auto from_v3_mmap = fx.borrow_v3(mapped);

  // Interleave queries (borrowed answers) with the detaching ingest.
  (void)oracle.label_of(fx.communities.front());
  (void)from_v3_mmap.label_of(fx.communities.front());

  const auto rest = std::span(fx.entries).subspan(fx.entries.size() / 2);
  oracle.ingest(rest);
  from_v3_mmap.ingest(rest);
  EXPECT_FALSE(from_v3_mmap.is_borrowed());

  EXPECT_EQ(from_v3_mmap.export_state(), oracle.export_state());
  for (const auto community : fx.communities)
    EXPECT_EQ(from_v3_mmap.label_of(community), oracle.label_of(community))
        << community.to_string();
  expect_totals_equal(oracle, from_v3_mmap, "totals-after-detach");
}

TEST(SnapshotV3Equivalence, TwoBorrowersShareOneMappingIndependently) {
  const Fixture fx(183);
  const auto mapped = MappedSnapshot::open(fx.v3_path);
  auto reader = fx.borrow_v3(mapped);
  auto writer = fx.borrow_v3(mapped);

  // Mutating one borrower must not disturb the other (the mapped pages
  // are read-only; the writer detaches onto its own heap copy).
  writer.ingest(std::span(fx.entries).subspan(fx.entries.size() / 2));
  EXPECT_TRUE(reader.is_borrowed());
  EXPECT_EQ(reader.export_state(), fx.original.export_state());

  auto oracle = fx.unserialized();
  for (const auto community : fx.communities)
    EXPECT_EQ(reader.label_of(community), oracle.label_of(community))
        << community.to_string();
}

// The protocol surface: a server over the unserialized original and one
// borrowed from the mapping answer LABEL, BATCH-LABEL, and TOTALS
// identically at every shard-pool size.
TEST(SnapshotV3Equivalence, ServersAgreeOnLabelBatchLabelAndTotals) {
  const Fixture fx(184);
  for (const unsigned shards : {1u, 2u, 8u}) {
    const auto mapped = MappedSnapshot::open(fx.v3_path);
    ServerConfig cfg;
    cfg.port = 0;
    cfg.shards = shards;
    Server oracle_server(fx.unserialized(), cfg);
    Server v3_server(fx.borrow_v3(mapped), cfg);
    oracle_server.start();
    v3_server.start();

    auto oracle_client = Client::connect("127.0.0.1", oracle_server.port());
    auto v3_client = Client::connect("127.0.0.1", v3_server.port());
    for (const auto community : fx.communities)
      EXPECT_EQ(v3_client.label(community), oracle_client.label(community))
          << "shards=" << shards << " " << community.to_string();

    // BATCH-LABEL over the binary protocol, one round trip.
    auto oracle_batch = Client::connect("127.0.0.1", oracle_server.port());
    auto v3_batch = Client::connect("127.0.0.1", v3_server.port());
    oracle_batch.negotiate_binary();
    v3_batch.negotiate_binary();
    EXPECT_EQ(v3_batch.labels(fx.communities),
              oracle_batch.labels(fx.communities))
        << "shards=" << shards;

    const auto oracle_totals = oracle_client.totals();
    const auto v3_totals = v3_client.totals();
    EXPECT_EQ(v3_totals.communities, oracle_totals.communities);
    EXPECT_EQ(v3_totals.information, oracle_totals.information);
    EXPECT_EQ(v3_totals.action, oracle_totals.action);
    EXPECT_EQ(v3_totals.unclassified, oracle_totals.unclassified);

    oracle_server.request_stop();
    v3_server.request_stop();
    oracle_server.wait();
    v3_server.wait();
  }
}

}  // namespace
}  // namespace bgpintent::serve
