#include "serve/snapshot.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <iterator>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "core/pipeline.hpp"
#include "routing/scenario.hpp"
#include "serve/client.hpp"
#include "serve/server.hpp"
#include "support/serve_engine.hpp"
#include "support/temp_path.hpp"

namespace bgpintent::serve {
namespace {

using dict::Intent;
using stream::StreamEngine;
using test_support::serve_window;

bgp::RibEntry entry(std::uint32_t vp, std::vector<bgp::Asn> path,
                    std::vector<bgp::Community> communities) {
  bgp::RibEntry e;
  e.vantage_point.asn = vp;
  e.vantage_point.address = vp;
  e.route.prefix = *bgp::Prefix::parse("10.0.0.0/24");
  e.route.path = bgp::AsPath(std::move(path));
  e.route.communities = std::move(communities);
  return e;
}

std::unique_ptr<StreamEngine> populated_engine() {
  auto engine = std::make_unique<StreamEngine>(serve_window());
  for (std::uint32_t vp = 61; vp < 66; ++vp)
    engine->announce(entry(vp, {vp, 100, 201}, {bgp::Community(100, 20000)}));
  // Query one community so part of the state is settled, part dirty.
  (void)engine->label_of(bgp::Community(100, 20000));
  for (std::uint32_t vp = 70; vp < 90; ++vp)
    engine->announce(entry(vp, {vp, 999, 201}, {bgp::Community(100, 2569)}));
  engine->announce(entry(61, {61, 64512, 201}, {bgp::Community(64512, 7)}));
  return engine;
}

/// A fresh engine restored from `bytes` under the image's own config.
std::unique_ptr<StreamEngine> restore(std::span<const std::uint8_t> bytes,
                                      const topo::OrgMap* orgs = nullptr) {
  stream::StateImage image = stream::decode_image(bytes);
  auto engine = std::make_unique<StreamEngine>(image.config, orgs);
  engine->restore_state(image.state, std::move(image.paths));
  return engine;
}

std::string decode_error(std::vector<std::uint8_t> bytes) {
  try {
    (void)stream::decode_image(bytes);
  } catch (const SnapshotError& e) {
    return e.what();
  }
  return "";
}

void expect_same_totals(StreamEngine& a, StreamEngine& b) {
  const auto x = a.totals();
  const auto y = b.totals();
  EXPECT_EQ(x.communities, y.communities);
  EXPECT_EQ(x.information, y.information);
  EXPECT_EQ(x.action, y.action);
  EXPECT_EQ(x.unclassified, y.unclassified);
}

TEST(Snapshot, EmptyStateRoundTrips) {
  StreamEngine empty(serve_window());
  const auto restored = restore(empty.encode_image());
  EXPECT_EQ(restored->export_state(), empty.export_state());
  const auto totals = restored->totals();
  EXPECT_EQ(totals.communities, 0u);
  EXPECT_EQ(totals.information, 0u);
  EXPECT_EQ(totals.action, 0u);
  EXPECT_EQ(totals.unclassified, 0u);
  EXPECT_EQ(restored->label_of(bgp::Community(100, 1)), Intent::kUnclassified);
}

// The acceptance property: save -> load leaves state, totals(), and every
// label_of() bit-identical to the original, and both match batch.
TEST(Snapshot, RoundTripIsLossless) {
  routing::ScenarioConfig cfg;
  cfg.topology.seed = 97;
  cfg.topology.tier1_count = 4;
  cfg.topology.tier2_count = 15;
  cfg.topology.stub_count = 80;
  cfg.vantage_point_count = 15;
  const auto scenario = routing::Scenario::build(cfg);
  const auto entries = scenario.entries();
  const topo::OrgMap* orgs = &scenario.topology().orgs;

  // Settle most of the evidence, then leave the tail dirty, so the image
  // carries a mix of cached labels and still-dirty alphas.
  StreamEngine original(serve_window(), orgs);
  const std::size_t settled = entries.size() * 9 / 10;
  for (std::size_t i = 0; i < settled; ++i) original.announce(entries[i]);
  original.reclassify();
  for (std::size_t i = settled; i < entries.size(); ++i)
    original.announce(entries[i]);
  ASSERT_TRUE(original.has_pending_dirty());

  const auto restored = restore(original.encode_image(), orgs);
  EXPECT_EQ(restored->export_state(), original.export_state());
  EXPECT_EQ(restored->announces(), original.announces());
  EXPECT_EQ(restored->stats().dirty_alphas, original.stats().dirty_alphas);

  // Every label identical (forces reclassification of the dirty alphas on
  // both sides, which must agree too) and equal to batch.
  core::Pipeline batch;
  batch.set_org_map(orgs);
  const auto batch_result = batch.run(entries);
  std::size_t compared = 0;
  for (const auto& stats : batch_result.observations.all()) {
    ++compared;
    const Intent want = batch_result.inference.label_of(stats.community);
    EXPECT_EQ(restored->label_of(stats.community), want)
        << stats.community.to_string();
    EXPECT_EQ(original.label_of(stats.community), want)
        << stats.community.to_string();
  }
  EXPECT_GT(compared, 100u);
  expect_same_totals(original, *restored);
}

// A mid-stream snapshot must behave as if the restart never happened:
// continuing to ingest into the restored engine matches continuing in
// the original.
TEST(Snapshot, MidStreamRestartIsTransparent) {
  routing::ScenarioConfig cfg;
  cfg.topology.seed = 99;
  cfg.topology.tier1_count = 4;
  cfg.topology.tier2_count = 16;
  cfg.topology.stub_count = 50;
  cfg.vantage_point_count = 12;
  const auto scenario = routing::Scenario::build(cfg);
  const auto entries = scenario.entries();
  const std::size_t half = entries.size() / 2;
  const topo::OrgMap* orgs = &scenario.topology().orgs;

  StreamEngine original(serve_window(), orgs);
  for (std::size_t i = 0; i < half; ++i) original.announce(entries[i]);

  const auto restored = restore(original.encode_image(), orgs);
  for (std::size_t i = half; i < entries.size(); ++i) {
    original.announce(entries[i]);
    restored->announce(entries[i]);
  }
  EXPECT_EQ(restored->export_state(), original.export_state());
  expect_same_totals(original, *restored);
}

TEST(Snapshot, NeverOnPathExclusionLiftsAfterRestore) {
  StreamEngine engine(serve_window());
  engine.announce(entry(61, {61, 100, 201}, {bgp::Community(777, 5)}));
  EXPECT_EQ(engine.label_of(bgp::Community(777, 5)), Intent::kUnclassified);

  const auto restored = restore(engine.encode_image());
  EXPECT_EQ(restored->label_of(bgp::Community(777, 5)),
            Intent::kUnclassified);
  // The lifting path arrives only after the restart; the exclusion must
  // still lift.
  restored->announce(entry(62, {62, 777, 201}, {bgp::Community(777, 5)}));
  EXPECT_NE(restored->label_of(bgp::Community(777, 5)),
            Intent::kUnclassified);
}

TEST(Snapshot, PrivateAlphaSurvivesAndStaysUnclassified) {
  StreamEngine engine(serve_window());
  engine.announce(entry(61, {61, 64512, 201}, {bgp::Community(64512, 100)}));
  const auto restored = restore(engine.encode_image());
  EXPECT_EQ(restored->label_of(bgp::Community(64512, 100)),
            Intent::kUnclassified);
  const auto totals = restored->totals();
  EXPECT_EQ(totals.communities, 1u);
  EXPECT_EQ(totals.unclassified, 1u);
}

TEST(Snapshot, ConfigsSurviveRoundTrip) {
  stream::WindowConfig config = serve_window();
  config.epoch_seconds = 900;
  config.classifier.min_gap = 7;
  config.classifier.ratio_threshold = 3.5;
  config.classifier.mean_of_ratios = true;
  config.observation.sibling_aware = false;
  StreamEngine engine(config);
  engine.announce(entry(61, {61, 100, 201}, {bgp::Community(100, 1)}));

  const auto restored = restore(engine.encode_image());
  EXPECT_EQ(restored->config().epoch_seconds, 900u);
  EXPECT_EQ(restored->config().window_epochs, UINT32_MAX);
  EXPECT_EQ(restored->config().classifier.min_gap, 7u);
  EXPECT_DOUBLE_EQ(restored->config().classifier.ratio_threshold, 3.5);
  EXPECT_TRUE(restored->config().classifier.mean_of_ratios);
  EXPECT_FALSE(restored->config().observation.sibling_aware);
}

TEST(Snapshot, FileRoundTripIsAtomic) {
  const auto engine = populated_engine();
  const std::string path = test_support::unique_temp_path("snap.bin");
  save_snapshot(*engine, path);  // settles first
  EXPECT_FALSE(engine->has_pending_dirty());
  stream::StateImage image = load_snapshot(path);
  StreamEngine restored(image.config);
  restored.restore_state(image.state, std::move(image.paths));
  EXPECT_EQ(restored.export_state(), engine->export_state());
  // The temp file used for the atomic rename must be gone.
  std::FILE* tmp = std::fopen((path + ".tmp").c_str(), "rb");
  EXPECT_EQ(tmp, nullptr);
  if (tmp != nullptr) std::fclose(tmp);
  std::remove(path.c_str());
}

TEST(Snapshot, LoadMissingFileThrows) {
  EXPECT_THROW((void)load_snapshot(
                   test_support::unique_temp_path("no_such_snapshot.bin")),
               SnapshotError);
}

// --- corruption fuzzing -------------------------------------------------

TEST(Snapshot, RejectsTruncation) {
  const auto bytes = populated_engine()->encode_image();
  ASSERT_GT(bytes.size(), 64u);
  for (const std::size_t len :
       {std::size_t{0}, std::size_t{7}, std::size_t{8}, std::size_t{12},
        std::size_t{16}, std::size_t{63}, std::size_t{64}, bytes.size() / 2,
        bytes.size() - 1}) {
    std::vector<std::uint8_t> cut(bytes.begin(),
                                  bytes.begin() + static_cast<long>(len));
    EXPECT_THROW((void)stream::decode_image(cut), SnapshotError) << len;
  }
}

TEST(Snapshot, RejectsBadMagic) {
  auto bytes = populated_engine()->encode_image();
  bytes[0] ^= 0xff;
  EXPECT_NE(decode_error(bytes).find("magic"), std::string::npos);
}

TEST(Snapshot, RejectsFutureVersion) {
  auto bytes = populated_engine()->encode_image();
  bytes[8] = static_cast<std::uint8_t>(kSnapshotVersion + 1);  // u32 LE
  EXPECT_NE(decode_error(bytes).find("version"), std::string::npos);
}

TEST(Snapshot, RejectsZeroVersion) {
  auto bytes = populated_engine()->encode_image();
  bytes[8] = 0;
  EXPECT_NE(decode_error(bytes).find("version"), std::string::npos);
}

// Older layouts cannot be read as this one; the rejection must say so and
// tell the operator what to do about it.
TEST(Snapshot, RejectsVersion1WithReingestGuidance) {
  auto bytes = populated_engine()->encode_image();
  ASSERT_GE(kSnapshotVersion, 2u);
  bytes[8] = 1;  // u32 LE version field
  const std::string error = decode_error(bytes);
  EXPECT_NE(error.find("no longer supported"), std::string::npos) << error;
  EXPECT_NE(error.find("re-ingest"), std::string::npos) << error;
}

TEST(Snapshot, DecodeCountersSurviveRoundTrip) {
  const auto engine = populated_engine();
  engine->record_decode(1234, 7);
  engine->record_decode(66, 3);
  const auto restored = restore(engine->encode_image());
  EXPECT_EQ(restored->stats().updates_ok, 1300u);
  EXPECT_EQ(restored->stats().updates_errors, 10u);
}

TEST(Snapshot, RejectsFlippedChecksumByte) {
  auto bytes = populated_engine()->encode_image();
  // The footer's stored segment-table checksum sits 16 bytes into it.
  bytes[stream::image_regions(bytes).back().offset + 16] ^= 0x01;
  EXPECT_NE(decode_error(bytes).find("checksum"), std::string::npos);
}

TEST(Snapshot, RejectsFlippedPayloadByte) {
  auto bytes = populated_engine()->encode_image();
  bytes[stream::image_regions(bytes).front().offset] ^= 0x01;  // meta
  EXPECT_NE(decode_error(bytes).find("checksum"), std::string::npos);
}

TEST(Snapshot, RejectsTrailingBytes) {
  auto bytes = populated_engine()->encode_image();
  bytes.push_back(0);
  EXPECT_THROW((void)stream::decode_image(bytes), SnapshotError);
}

// --- columnar image: version, mapped reading, regions ------------------

TEST(SnapshotV3, EmptyStateRoundTrips) {
  StreamEngine empty(serve_window());
  const auto restored = restore(empty.encode_image());
  EXPECT_EQ(restored->export_state(), empty.export_state());
  EXPECT_EQ(restored->label_of(bgp::Community(100, 1)), Intent::kUnclassified);
}

TEST(SnapshotV3, HeapDecodeRoundTripsLosslessly) {
  const auto engine = populated_engine();
  const auto bytes = engine->encode_image();
  ASSERT_GT(bytes.size(), 12u);
  EXPECT_EQ(bytes[8], kSnapshotVersion);
  const auto restored = restore(bytes);
  EXPECT_EQ(restored->export_state(), engine->export_state());
  EXPECT_EQ(restored->announces(), engine->announces());
  EXPECT_EQ(restored->stats().dirty_alphas, engine->stats().dirty_alphas);
}

TEST(SnapshotV3, ConfigsSurviveRoundTrip) {
  stream::WindowConfig config = serve_window();
  config.classifier.min_gap = 9;
  config.classifier.ratio_threshold = 2.25;
  config.classifier.mean_of_ratios = true;
  config.observation.sibling_aware = false;
  StreamEngine engine(config);
  engine.announce(entry(61, {61, 100, 201}, {bgp::Community(100, 1)}));
  const std::string path = test_support::unique_temp_path("snap_cfg.bin");
  save_snapshot(engine, path);

  const auto mapped = MappedSnapshot::open(path);
  EXPECT_EQ(mapped->config().classifier.min_gap, 9u);
  EXPECT_DOUBLE_EQ(mapped->config().classifier.ratio_threshold, 2.25);
  EXPECT_TRUE(mapped->config().classifier.mean_of_ratios);
  EXPECT_FALSE(mapped->config().observation.sibling_aware);
  EXPECT_EQ(mapped->config().window_epochs, UINT32_MAX);
  std::remove(path.c_str());
}

TEST(SnapshotV3, MappedSnapshotServesBorrowedLabels) {
  const auto engine = populated_engine();
  const std::string path = test_support::unique_temp_path("snap_v3.bin");
  save_snapshot(*engine, path);

  const auto mapped = MappedSnapshot::open(path);
  EXPECT_TRUE(mapped->settled());
  EXPECT_EQ(mapped->as_of_seq(), engine->last_seq());
  // The label columns are the engine's label cache, wire-sorted.
  std::uint64_t seq = 0;
  const auto expected = engine->label_snapshot(seq);
  const auto wires = mapped->label_wires();
  const auto intents = mapped->label_intents();
  ASSERT_EQ(wires.size(), expected.size());
  for (std::size_t i = 0; i < wires.size(); ++i) {
    EXPECT_EQ(wires[i], expected[i].first.wire());
    EXPECT_EQ(intents[i], expected[i].second);
  }

  // The mapping decodes to the engine it was written from.
  stream::StateImage image = mapped->decode();
  StreamEngine decoded(image.config);
  decoded.restore_state(image.state, std::move(image.paths));
  EXPECT_EQ(decoded.export_state(), engine->export_state());
  std::remove(path.c_str());
}

// A server over a mapped image answers LABEL from the label columns with
// the engine still empty; the first INGEST restores the engine from the
// mapping, and from then on it matches the original fed the same entry.
TEST(SnapshotV3, FirstIngestDetachesTheBorrow) {
  const auto original = populated_engine();
  const std::string path = test_support::unique_temp_path("snap_v3d.bin");
  save_snapshot(*original, path);

  const auto mapped = MappedSnapshot::open(path);
  StreamEngine engine(mapped->config());
  Server server(engine, ServerConfig{}, mapped);
  server.start();
  auto client = Client::connect("127.0.0.1", server.port());
  EXPECT_EQ(client.label(bgp::Community(100, 20000)),
            original->label_of(bgp::Community(100, 20000)));
  EXPECT_EQ(engine.announces(), 0u);  // still borrowed

  const auto extra = entry(91, {91, 555, 201}, {bgp::Community(555, 40)});
  client.ingest(extra.route.path, extra.route.communities);
  original->announce(extra);
  original->record_decode(1, 0);  // INGEST counts its well-formed pair
  original->reclassify();
  EXPECT_EQ(engine.export_state(), original->export_state());
  EXPECT_EQ(client.label(bgp::Community(555, 40)),
            original->label_of(bgp::Community(555, 40)));
  server.request_stop();
  server.wait();
  std::remove(path.c_str());
}

// Older versions are refused by both readers with re-ingest guidance, and
// the file is left exactly as it was.
TEST(SnapshotV3, MappedOpenRejectsV2WithResaveGuidance) {
  const std::string path = test_support::unique_temp_path("snap_old.bin");
  for (const int version : {1, 2, 3, 4}) {
    auto bytes = populated_engine()->encode_image();
    bytes[8] = static_cast<std::uint8_t>(version);  // u32 LE version field
    {
      std::ofstream out(path, std::ios::binary | std::ios::trunc);
      out.write(reinterpret_cast<const char*>(bytes.data()),
                static_cast<std::streamsize>(bytes.size()));
    }
    for (const bool mapped : {true, false}) {
      try {
        if (mapped)
          (void)MappedSnapshot::open(path);
        else
          (void)load_snapshot(path);
        FAIL() << "version " << version << " must be refused";
      } catch (const SnapshotError& error) {
        const std::string what = error.what();
        EXPECT_NE(what.find("no longer supported"), std::string::npos) << what;
        EXPECT_NE(what.find("re-ingest"), std::string::npos) << what;
      }
    }
    std::ifstream in(path, std::ios::binary);
    const std::vector<std::uint8_t> after(
        (std::istreambuf_iterator<char>(in)), std::istreambuf_iterator<char>());
    EXPECT_EQ(after, bytes) << "version " << version;
  }
  std::remove(path.c_str());
}

TEST(SnapshotV3, MappedOpenRejectsMissingFile) {
  EXPECT_THROW((void)MappedSnapshot::open(
                   test_support::unique_temp_path("no_such_snapshot_v3.bin")),
               SnapshotError);
}

TEST(SnapshotV3, RegionsCoverTheWholeImage) {
  const auto bytes = populated_engine()->encode_image();
  const auto regions = stream::image_regions(bytes);
  ASSERT_EQ(regions.size(), 17u);  // 15 segments + table + footer
  // Regions are disjoint, in order, and the footer ends the file; the gaps
  // between them are validated-zero alignment padding.
  std::size_t previous_end = 0;
  for (const auto& region : regions) {
    EXPECT_GE(region.offset, previous_end) << region.name;
    previous_end = region.offset + region.length;
  }
  EXPECT_EQ(previous_end, bytes.size());
  EXPECT_EQ(regions.back().name, "footer");
  EXPECT_EQ(regions.back().length, 32u);
}

}  // namespace
}  // namespace bgpintent::serve
