#include "serve/snapshot.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <iterator>
#include <span>
#include <string>
#include <vector>

#include "core/pipeline.hpp"
#include "routing/scenario.hpp"
#include "support/temp_path.hpp"

namespace bgpintent::serve {
namespace {

using core::IncrementalClassifier;
using dict::Intent;

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

IncrementalClassifier populated_classifier() {
  IncrementalClassifier classifier;
  for (std::uint32_t vp = 61; vp < 66; ++vp)
    classifier.ingest(entry(vp, {vp, 100, 201}, {bgp::Community(100, 20000)}));
  for (std::uint32_t vp = 70; vp < 90; ++vp)
    classifier.ingest(entry(vp, {vp, 999, 201}, {bgp::Community(100, 2569)}));
  classifier.ingest(entry(61, {61, 64512, 201}, {bgp::Community(64512, 7)}));
  // Query one community so part of the state is clean, part dirty.
  (void)classifier.label_of(bgp::Community(100, 20000));
  return classifier;
}

std::string decode_error(std::vector<std::uint8_t> bytes) {
  try {
    (void)decode_snapshot(bytes);
  } catch (const SnapshotError& e) {
    return e.what();
  }
  return "";
}

TEST(Snapshot, EmptyStateRoundTrips) {
  IncrementalClassifier empty;
  auto restored = decode_snapshot(encode_snapshot(empty));
  EXPECT_EQ(restored.export_state(), empty.export_state());
  const auto totals = restored.totals();
  EXPECT_EQ(totals.communities, 0u);
  EXPECT_EQ(totals.information, 0u);
  EXPECT_EQ(totals.action, 0u);
  EXPECT_EQ(totals.unclassified, 0u);
  EXPECT_EQ(restored.label_of(bgp::Community(100, 1)), Intent::kUnclassified);
}

// The acceptance property: save -> load leaves state, totals(), and every
// label_of() bit-identical to the original.
TEST(Snapshot, RoundTripIsLossless) {
  routing::ScenarioConfig cfg;
  cfg.topology.seed = 97;
  cfg.topology.tier1_count = 4;
  cfg.topology.tier2_count = 15;
  cfg.topology.stub_count = 80;
  cfg.vantage_point_count = 15;
  const auto scenario = routing::Scenario::build(cfg);
  const auto entries = scenario.entries();

  IncrementalClassifier original;
  original.set_org_map(&scenario.topology().orgs);
  original.ingest(entries);
  // Query a subset so the snapshot carries a mix of cached labels and
  // still-dirty alphas.
  std::size_t queried = 0;
  for (const auto& e : entries) {
    if (e.route.communities.empty()) continue;
    (void)original.label_of(e.route.communities.front());
    if (++queried >= 50) break;
  }

  auto restored = decode_snapshot(encode_snapshot(original));
  restored.set_org_map(&scenario.topology().orgs);

  EXPECT_EQ(restored.export_state(), original.export_state());
  EXPECT_EQ(restored.entries_ingested(), original.entries_ingested());
  EXPECT_EQ(restored.dirty_alpha_count(), original.dirty_alpha_count());
  EXPECT_EQ(restored.classifier_config().min_gap,
            original.classifier_config().min_gap);

  // Every label identical (forces reclassification of the dirty alphas on
  // both sides, which must agree too).
  core::Pipeline batch;
  batch.set_org_map(&scenario.topology().orgs);
  const auto batch_result = batch.run(entries);
  std::size_t compared = 0;
  for (const auto& stats : batch_result.observations.all()) {
    ++compared;
    EXPECT_EQ(restored.label_of(stats.community),
              original.label_of(stats.community))
        << stats.community.to_string();
  }
  EXPECT_GT(compared, 100u);

  const auto a = original.totals();
  const auto b = restored.totals();
  EXPECT_EQ(a.communities, b.communities);
  EXPECT_EQ(a.information, b.information);
  EXPECT_EQ(a.action, b.action);
  EXPECT_EQ(a.unclassified, b.unclassified);
}

// A mid-stream snapshot must behave as if the restart never happened:
// continuing to ingest into the restored classifier matches continuing in
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

  IncrementalClassifier original;
  original.set_org_map(&scenario.topology().orgs);
  original.ingest(std::span(entries).first(half));

  auto restored = decode_snapshot(encode_snapshot(original));
  restored.set_org_map(&scenario.topology().orgs);

  original.ingest(std::span(entries).subspan(half));
  restored.ingest(std::span(entries).subspan(half));

  EXPECT_EQ(restored.export_state(), original.export_state());
  const auto a = original.totals();
  const auto b = restored.totals();
  EXPECT_EQ(a.communities, b.communities);
  EXPECT_EQ(a.information, b.information);
  EXPECT_EQ(a.action, b.action);
  EXPECT_EQ(a.unclassified, b.unclassified);
}

TEST(Snapshot, NeverOnPathExclusionLiftsAfterRestore) {
  IncrementalClassifier classifier;
  classifier.ingest(entry(61, {61, 100, 201}, {bgp::Community(777, 5)}));
  EXPECT_EQ(classifier.label_of(bgp::Community(777, 5)),
            Intent::kUnclassified);

  auto restored = decode_snapshot(encode_snapshot(classifier));
  EXPECT_EQ(restored.label_of(bgp::Community(777, 5)),
            Intent::kUnclassified);
  // The lifting path arrives only after the restart; the exclusion must
  // still lift.
  restored.ingest(entry(62, {62, 777, 201}, {bgp::Community(777, 5)}));
  EXPECT_NE(restored.label_of(bgp::Community(777, 5)),
            Intent::kUnclassified);
}

TEST(Snapshot, PrivateAlphaSurvivesAndStaysUnclassified) {
  IncrementalClassifier classifier;
  classifier.ingest(
      entry(61, {61, 64512, 201}, {bgp::Community(64512, 100)}));
  auto restored = decode_snapshot(encode_snapshot(classifier));
  EXPECT_EQ(restored.label_of(bgp::Community(64512, 100)),
            Intent::kUnclassified);
  const auto totals = restored.totals();
  EXPECT_EQ(totals.communities, 1u);
  EXPECT_EQ(totals.unclassified, 1u);
}

TEST(Snapshot, ConfigsSurviveRoundTrip) {
  core::ClassifierConfig cc;
  cc.min_gap = 7;
  cc.ratio_threshold = 3.5;
  cc.mean_of_ratios = true;
  core::ObservationConfig oc;
  oc.sibling_aware = false;
  IncrementalClassifier classifier(cc, oc);
  classifier.ingest(entry(61, {61, 100, 201}, {bgp::Community(100, 1)}));

  const auto restored = decode_snapshot(encode_snapshot(classifier));
  EXPECT_EQ(restored.classifier_config().min_gap, 7u);
  EXPECT_DOUBLE_EQ(restored.classifier_config().ratio_threshold, 3.5);
  EXPECT_TRUE(restored.classifier_config().mean_of_ratios);
  EXPECT_FALSE(restored.observation_config().sibling_aware);
}

TEST(Snapshot, FileRoundTripIsAtomic) {
  const auto classifier = populated_classifier();
  const std::string path = test_support::unique_temp_path("snap.bin");
  save_snapshot(classifier, path);
  auto restored = load_snapshot(path);
  EXPECT_EQ(restored.export_state(), classifier.export_state());
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
  const auto bytes = encode_snapshot(populated_classifier());
  ASSERT_GT(bytes.size(), 28u);
  for (const std::size_t len :
       {std::size_t{0}, std::size_t{7}, std::size_t{8}, std::size_t{12},
        std::size_t{20}, std::size_t{27}, std::size_t{28}, bytes.size() / 2,
        bytes.size() - 1}) {
    std::vector<std::uint8_t> cut(bytes.begin(),
                                  bytes.begin() + static_cast<long>(len));
    EXPECT_THROW((void)decode_snapshot(cut), SnapshotError) << len;
  }
}

TEST(Snapshot, RejectsBadMagic) {
  auto bytes = encode_snapshot(populated_classifier());
  bytes[0] ^= 0xff;
  EXPECT_NE(decode_error(bytes).find("magic"), std::string::npos);
}

TEST(Snapshot, RejectsFutureVersion) {
  auto bytes = encode_snapshot(populated_classifier());
  bytes[8] = static_cast<std::uint8_t>(kSnapshotVersion + 1);  // u32 LE
  EXPECT_NE(decode_error(bytes).find("version"), std::string::npos);
}

TEST(Snapshot, RejectsZeroVersion) {
  auto bytes = encode_snapshot(populated_classifier());
  bytes[8] = 0;
  EXPECT_NE(decode_error(bytes).find("version"), std::string::npos);
}

// Version 2 added the persisted decode counters mid-payload, so version-1
// images cannot be read; the rejection must say so and tell the operator
// what to do about it.
TEST(Snapshot, RejectsVersion1WithReingestGuidance) {
  auto bytes = encode_snapshot(populated_classifier());
  ASSERT_GE(kSnapshotVersion, 2u);
  bytes[8] = 1;  // u32 LE version field
  const std::string error = decode_error(bytes);
  EXPECT_NE(error.find("no longer supported"), std::string::npos) << error;
  EXPECT_NE(error.find("re-ingest"), std::string::npos) << error;
}

TEST(Snapshot, DecodeCountersSurviveRoundTrip) {
  auto classifier = populated_classifier();
  classifier.record_decode_outcome(1234, 7);
  classifier.record_decode_outcome(66, 3);
  const auto restored = decode_snapshot(encode_snapshot(classifier));
  EXPECT_EQ(restored.decode_records_ok(), 1300u);
  EXPECT_EQ(restored.decode_records_skipped(), 10u);
}

TEST(Snapshot, RejectsFlippedChecksumByte) {
  auto bytes = encode_snapshot(populated_classifier());
  // The footer's stored segment-table checksum sits 16 bytes into it.
  bytes[snapshot_regions(bytes).back().offset + 16] ^= 0x01;
  EXPECT_NE(decode_error(bytes).find("checksum"), std::string::npos);
}

TEST(Snapshot, RejectsFlippedPayloadByte) {
  auto bytes = encode_snapshot(populated_classifier());
  bytes[snapshot_regions(bytes).front().offset] ^= 0x01;  // meta column
  EXPECT_NE(decode_error(bytes).find("checksum"), std::string::npos);
}

TEST(Snapshot, RejectsTrailingBytes) {
  auto bytes = encode_snapshot(populated_classifier());
  bytes.push_back(0);
  EXPECT_THROW((void)decode_snapshot(bytes), SnapshotError);
}

// --- columnar image: version, mapped reading, regions ------------------

TEST(SnapshotV3, EmptyStateRoundTrips) {
  IncrementalClassifier empty;
  auto restored = decode_snapshot(encode_snapshot(empty));
  EXPECT_EQ(restored.export_state(), empty.export_state());
  EXPECT_EQ(restored.label_of(bgp::Community(100, 1)), Intent::kUnclassified);
}

TEST(SnapshotV3, HeapDecodeRoundTripsLosslessly) {
  const auto classifier = populated_classifier();
  const auto bytes = encode_snapshot(classifier);
  ASSERT_GT(bytes.size(), 12u);
  EXPECT_EQ(bytes[8], kSnapshotVersion);
  auto restored = decode_snapshot(bytes);
  EXPECT_EQ(restored.export_state(), classifier.export_state());
  EXPECT_EQ(restored.entries_ingested(), classifier.entries_ingested());
  EXPECT_EQ(restored.dirty_alpha_count(), classifier.dirty_alpha_count());
}

TEST(SnapshotV3, ConfigsSurviveRoundTrip) {
  core::ClassifierConfig cc;
  cc.min_gap = 9;
  cc.ratio_threshold = 2.25;
  cc.mean_of_ratios = true;
  core::ObservationConfig oc;
  oc.sibling_aware = false;
  IncrementalClassifier classifier(cc, oc);
  classifier.ingest(entry(61, {61, 100, 201}, {bgp::Community(100, 1)}));

  const auto restored = decode_snapshot(encode_snapshot(classifier));
  EXPECT_EQ(restored.classifier_config().min_gap, 9u);
  EXPECT_DOUBLE_EQ(restored.classifier_config().ratio_threshold, 2.25);
  EXPECT_TRUE(restored.classifier_config().mean_of_ratios);
  EXPECT_FALSE(restored.observation_config().sibling_aware);
}

TEST(SnapshotV3, MappedSnapshotServesBorrowedLabels) {
  auto classifier = populated_classifier();
  const std::string path = test_support::unique_temp_path("snap_v3.bin");
  save_snapshot(classifier, path);

  const auto mapped = MappedSnapshot::open(path);
  EXPECT_EQ(mapped->classifier_config().min_gap,
            classifier.classifier_config().min_gap);
  // The pre-flattened serve columns are label_snapshot(), wire-sorted.
  auto expected = classifier.label_snapshot();
  std::sort(expected.begin(), expected.end(),
            [](const auto& a, const auto& b) {
              return a.first.wire() < b.first.wire();
            });
  const auto wires = mapped->label_wires();
  const auto intents = mapped->label_intents();
  ASSERT_EQ(wires.size(), expected.size());
  for (std::size_t i = 0; i < wires.size(); ++i) {
    EXPECT_EQ(wires[i], expected[i].first.wire());
    EXPECT_EQ(intents[i], expected[i].second);
  }

  // A borrowed classifier answers identically to the original.
  IncrementalClassifier borrowed(mapped->classifier_config(),
                                 mapped->observation_config());
  borrowed.restore_view(mapped->state_view());
  EXPECT_TRUE(borrowed.is_borrowed());
  EXPECT_EQ(borrowed.export_state(), classifier.export_state());
  for (const auto& [community, intent] : expected)
    EXPECT_EQ(borrowed.label_of(community), classifier.label_of(community))
        << community.to_string();
  std::remove(path.c_str());
}

TEST(SnapshotV3, FirstIngestDetachesTheBorrow) {
  auto original = populated_classifier();
  const std::string path = test_support::unique_temp_path("snap_v3d.bin");
  save_snapshot(original, path);

  const auto mapped = MappedSnapshot::open(path);
  IncrementalClassifier borrowed(mapped->classifier_config(),
                                 mapped->observation_config());
  borrowed.restore_view(mapped->state_view());

  const auto extra = entry(91, {91, 555, 201}, {bgp::Community(555, 40)});
  borrowed.ingest(extra);
  original.ingest(extra);
  EXPECT_FALSE(borrowed.is_borrowed());
  EXPECT_EQ(borrowed.export_state(), original.export_state());
  std::remove(path.c_str());
}

// Older versions are refused by both readers with re-ingest guidance, and
// the file is left exactly as it was.
TEST(SnapshotV3, MappedOpenRejectsV2WithResaveGuidance) {
  const std::string path = test_support::unique_temp_path("snap_old.bin");
  for (const int version : {1, 2, 3}) {
    auto bytes = encode_snapshot(populated_classifier());
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
  const auto bytes = encode_snapshot(populated_classifier());
  const auto regions = snapshot_regions(bytes);
  ASSERT_EQ(regions.size(), 28u);  // 26 segments + table + footer
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
