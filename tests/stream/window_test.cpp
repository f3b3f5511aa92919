// WindowClassifier unit tests: the refcounted sliding window's local
// behaviors — labeling, expiry, withdrawal semantics, late records, and
// dirty tracking.  The global window==batch equivalence lives in
// tests/property/stream_window_test.cpp.
#include "stream/window.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <utility>
#include <vector>

#include "bgp/route.hpp"
#include "core/classifier.hpp"
#include "core/observations.hpp"

namespace bgpintent::stream {
namespace {

bgp::RibEntry entry(std::uint32_t vp, std::vector<bgp::Asn> path,
                    std::vector<bgp::Community> communities,
                    const char* prefix = "10.0.0.0/24") {
  bgp::RibEntry e;
  e.vantage_point.asn = vp;
  e.vantage_point.address = vp;
  e.route.prefix = *bgp::Prefix::parse(prefix);
  e.route.path = bgp::AsPath(std::move(path));
  e.route.communities = std::move(communities);
  return e;
}

/// Short epochs and a two-epoch window so expiry is easy to trigger.
WindowConfig tight() {
  WindowConfig cfg;
  cfg.epoch_seconds = 100;
  cfg.window_epochs = 2;
  return cfg;
}

TEST(WindowClassifier, LabelsPureOnAsInformationAndPureOffAsAction) {
  WindowClassifier window(tight());
  // 100:1 only on paths containing 100 (pure on-path); 100:5000 only on a
  // path without 100 (pure off-path).  The betas are >140 apart, so gap
  // clustering keeps them in separate clusters.
  window.announce(entry(61, {61, 100, 201}, {bgp::Community(100, 1)}), 10);
  window.announce(entry(62, {62, 300, 400}, {bgp::Community(100, 5000)}), 11);

  const auto changes = window.reclassify_dirty();
  ASSERT_EQ(changes.size(), 2u);
  EXPECT_EQ(window.label_of(bgp::Community(100, 1)), Intent::kInformation);
  EXPECT_EQ(window.label_of(bgp::Community(100, 5000)), Intent::kAction);
  for (const auto& change : changes)
    EXPECT_EQ(change.previous, Intent::kUnclassified);

  const auto totals = window.totals();
  EXPECT_EQ(totals.communities, 2u);
  EXPECT_EQ(totals.information, 1u);
  EXPECT_EQ(totals.action, 1u);
}

TEST(WindowClassifier, ExpiryRetractsLabelsAndEvidence) {
  WindowClassifier window(tight());
  window.announce(entry(61, {61, 100, 201}, {bgp::Community(100, 1)}), 10);
  (void)window.reclassify_dirty();
  ASSERT_EQ(window.label_of(bgp::Community(100, 1)), Intent::kInformation);
  ASSERT_EQ(window.live_tuple_count(), 1u);

  // Epochs 0 and 2: announcing at t=250 pushes the window to [1, 2] and
  // expires epoch 0 wholesale.
  window.announce(entry(62, {62, 300, 400}, {bgp::Community(300, 7)}), 250);
  EXPECT_EQ(window.expired_epochs(), 1u);
  const auto changes = window.reclassify_dirty();
  EXPECT_EQ(window.label_of(bgp::Community(100, 1)), Intent::kUnclassified);
  bool retracted = false;
  for (const auto& change : changes)
    if (change.community == bgp::Community(100, 1)) {
      retracted = true;
      EXPECT_EQ(change.previous, Intent::kInformation);
      EXPECT_EQ(change.current, Intent::kUnclassified);
    }
  EXPECT_TRUE(retracted);
  EXPECT_EQ(window.live_tuple_count(), 1u);  // only the epoch-2 tuple
}

TEST(WindowClassifier, WithdrawalAdvancesClockWithoutRemovingEvidence) {
  WindowClassifier window(tight());
  window.announce(entry(61, {61, 100, 201}, {bgp::Community(100, 1)}), 10);
  (void)window.reclassify_dirty();

  // Same-epoch withdrawal: counted, but the observation stays (evidence
  // ages out by time, not by retraction — stream/window.hpp).
  bgp::VantagePointId vp;
  vp.asn = 61;
  vp.address = 61;
  window.withdraw(vp, *bgp::Prefix::parse("10.0.0.0/24"), 20);
  EXPECT_EQ(window.withdraws(), 1u);
  EXPECT_EQ(window.live_tuple_count(), 1u);
  EXPECT_EQ(window.label_of(bgp::Community(100, 1)), Intent::kInformation);

  // A far-future withdrawal advances the clock past the window: now the
  // evidence expires like any aged-out tuple.
  window.withdraw(vp, *bgp::Prefix::parse("10.0.0.0/24"), 500);
  (void)window.reclassify_dirty();
  EXPECT_EQ(window.live_tuple_count(), 0u);
  EXPECT_EQ(window.label_of(bgp::Community(100, 1)), Intent::kUnclassified);
}

TEST(WindowClassifier, LateRecordsFoldIntoNewestEpoch) {
  WindowClassifier window(tight());
  window.announce(entry(61, {61, 100, 201}, {bgp::Community(100, 1)}), 500);
  const auto epoch = window.current_epoch();

  // A record stamped long before the newest epoch must not move the
  // window backward — it lands in the newest epoch.
  window.announce(entry(62, {62, 300, 400}, {bgp::Community(300, 7)}), 10);
  EXPECT_EQ(window.current_epoch(), epoch);
  EXPECT_EQ(window.latest_timestamp(), 500u);
  EXPECT_EQ(window.window_epoch_count(), 1u);
  EXPECT_EQ(window.live_tuple_count(), 2u);
  EXPECT_EQ(window.expired_epochs(), 0u);
}

TEST(WindowClassifier, DirtyTrackingFiresOnlyOnCountTransitions) {
  WindowClassifier window(tight());
  const auto e = entry(61, {61, 100, 201}, {bgp::Community(100, 1)});
  window.announce(e, 10);
  EXPECT_EQ(window.dirty_alpha_count(), 1u);
  (void)window.reclassify_dirty();
  EXPECT_EQ(window.dirty_alpha_count(), 0u);

  // Re-announcing the identical (path, community) observation only bumps
  // refcounts — no 0<->1 transition, nothing to reclassify.
  window.announce(e, 20);
  EXPECT_EQ(window.dirty_alpha_count(), 0u);
  EXPECT_EQ(window.live_tuple_count(), 1u);
  EXPECT_EQ(window.announces(), 2u);

  // A new community on the same path is a fresh transition.
  window.announce(entry(61, {61, 100, 201}, {bgp::Community(100, 2)}), 30);
  EXPECT_EQ(window.dirty_alpha_count(), 1u);
}

TEST(WindowClassifier, MarkAllDirtyForcesFullReexamination) {
  WindowClassifier window(tight());
  window.announce(entry(61, {61, 100, 201}, {bgp::Community(100, 1)}), 10);
  window.announce(entry(62, {62, 300, 400}, {bgp::Community(300, 7)}), 11);
  (void)window.reclassify_dirty();
  const auto examined = window.reclassified_communities();

  // Nothing changed, so the forced pass relabels identically (no
  // transitions) while re-examining every community — the full-reclassify
  // baseline bench/stream_throughput compares against.
  window.mark_all_dirty();
  EXPECT_EQ(window.dirty_alpha_count(), 2u);
  const auto changes = window.reclassify_dirty();
  EXPECT_TRUE(changes.empty());
  EXPECT_EQ(window.reclassified_communities(), examined + 2);
}

/// The window's labels against a from-scratch batch build over its live
/// tuples, both as sorted (community, intent) lists.
void expect_matches_batch(const WindowClassifier& window) {
  const core::ObservationIndex index = core::ObservationIndex::build_interned(
      window.paths(), window.window_tuples(), nullptr, nullptr,
      window.config().observation);
  const core::InferenceResult batch =
      core::classify(index, window.config().classifier);
  std::vector<std::pair<bgp::Community, Intent>> expected(
      batch.labels.begin(), batch.labels.end());
  std::sort(expected.begin(), expected.end());
  EXPECT_EQ(window.labels(), expected);
}

/// One public alpha with 4,096 betas, announced in descending beta order
/// so that every new beta sorts before the whole column and is inserted
/// at its front.  Betas sit 10 apart, with a 40-wide gap every 64th, so
/// min_gap 20 cuts 64 clusters: pure on-path, pure off-path and mixed.
/// The older half then expires, and a window restored from the export
/// must match the live one and batch.
TEST(WindowClassifier, WideAlphaBuiltFrontFirstMatchesBatchAcrossRestore) {
  WindowConfig config = tight();
  config.classifier.min_gap = 20;
  WindowClassifier window(config);
  constexpr std::uint16_t kAlpha = 100;
  constexpr std::uint32_t kBetas = 4096;
  const auto beta_of = [](std::uint32_t i) {
    return static_cast<std::uint16_t>(10 * i + 30 * (i / 64));
  };
  for (std::uint32_t n = 0; n < kBetas; ++n) {
    const std::uint32_t i = kBetas - 1 - n;
    const std::uint32_t cluster = i / 64;
    const bool on = cluster % 3 == 0 || (cluster % 3 == 2 && i % 4 != 0);
    std::vector<bgp::Asn> path =
        on ? std::vector<bgp::Asn>{61, kAlpha, 200 + i % 7}
           : std::vector<bgp::Asn>{62, 300, 400 + i % 5};
    // The higher half lands in epoch 0, the lower half in epoch 1.
    window.announce(entry(61, std::move(path),
                          {bgp::Community(kAlpha, beta_of(i))}),
                    i >= kBetas / 2 ? 10 : 110);
  }
  (void)window.reclassify_dirty();
  ASSERT_EQ(window.live_tuple_count(), kBetas);
  const WindowClassifier::Totals totals = window.totals();
  ASSERT_EQ(totals.communities, kBetas);
  EXPECT_GT(totals.information, 0u);
  EXPECT_GT(totals.action, 0u);
  expect_matches_batch(window);

  // t=250 moves the window to epochs [1, 2]: the higher half expires.
  bgp::VantagePointId vp;
  vp.asn = 61;
  window.withdraw(vp, *bgp::Prefix::parse("10.0.0.0/24"), 250);
  const auto changes = window.reclassify_dirty();
  EXPECT_EQ(changes.size(), kBetas / 2);
  for (const LabelChange& change : changes) {
    EXPECT_GE(change.community.beta(), beta_of(kBetas / 2));
    EXPECT_EQ(change.current, Intent::kUnclassified);
  }
  ASSERT_EQ(window.live_tuple_count(), kBetas / 2);
  expect_matches_batch(window);

  WindowClassifier restored(config);
  restored.restore_state(window.export_state());
  EXPECT_EQ(restored.export_state(), window.export_state());
  EXPECT_EQ(restored.labels(), window.labels());
  EXPECT_EQ(restored.dirty_alpha_count(), 0u);
  EXPECT_TRUE(restored.reclassify_dirty().empty());
  expect_matches_batch(restored);
}

TEST(WindowClassifier, MemoryEstimateGrowsWithEvidence) {
  WindowClassifier window(tight());
  const auto empty = window.memory_bytes();
  for (std::uint32_t i = 0; i < 64; ++i)
    window.announce(entry(61, {61, 100, 200 + i},
                          {bgp::Community(100, static_cast<std::uint16_t>(i))}),
                    10 + i);
  EXPECT_GT(window.memory_bytes(), empty);
}

}  // namespace
}  // namespace bgpintent::stream
