// The streaming equivalence property (docs/STREAMING.md, the invariant
// promised in stream/window.hpp): at any point in a live update stream —
// including immediately after epoch expiry — WindowClassifier's labels
// are bit-identical to a from-scratch batch build over the current window
// contents: ObservationIndex::build_interned (or the parallel build, at
// any pool size) + core::classify over window_tuples().  The window *is*
// the batch pipeline restricted to the trailing week; this suite is what
// lets every other streaming claim lean on the batch classifier's tests.
//
// The concurrency test at the bottom exercises StreamEngine's one-mutex
// facade under simultaneous ingest and queries; run under
// -DCMAKE_CXX_FLAGS=-fsanitize=thread it doubles as the TSan gate.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <ostream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "core/classifier.hpp"
#include "core/observations.hpp"
#include "mrt/source.hpp"
#include "mrt/update_stream.hpp"
#include "routing/scenario.hpp"
#include "stream/engine.hpp"
#include "stream/synth.hpp"
#include "stream/window.hpp"
#include "util/thread_pool.hpp"

namespace bgpintent::stream {
namespace {

constexpr std::uint32_t kEpochSeconds = 3600;

routing::ScenarioConfig small_scenario() {
  routing::ScenarioConfig cfg;
  cfg.topology.seed = 20230807;
  cfg.topology.tier1_count = 4;
  cfg.topology.tier2_count = 12;
  cfg.topology.stub_count = 40;
  cfg.vantage_point_count = 8;
  cfg.day_churn = 0.3;
  return cfg;
}

/// Eight epochs against a three-epoch window: expiry is guaranteed to
/// fire several times, and flaps guarantee withdrawal records.
SynthStreamConfig synth_config() {
  SynthStreamConfig cfg;
  cfg.scenario = small_scenario();
  cfg.epochs = 8;
  cfg.epoch_seconds = kEpochSeconds;
  cfg.flap_fraction = 0.1;
  return cfg;
}

WindowConfig tight_window() {
  WindowConfig cfg;
  cfg.epoch_seconds = kEpochSeconds;
  cfg.window_epochs = 3;
  return cfg;
}

/// One decoded update, materialized so a stream can be replayed to any
/// checkpoint.
struct Update {
  bool announce = false;
  bgp::RibEntry entry;          // announce only
  bgp::VantagePointId peer;     // withdraw only
  bgp::Prefix prefix;           // withdraw only
  std::uint32_t timestamp = 0;
};

class Recorder final : public mrt::UpdateSink {
 public:
  void on_announce(bgp::RibEntry& entry, std::uint32_t timestamp) override {
    Update u;
    u.announce = true;
    u.entry = entry;  // scratch row: copy before it is reused
    u.timestamp = timestamp;
    updates.push_back(std::move(u));
  }
  void on_withdraw(const bgp::VantagePointId& peer, const bgp::Prefix& prefix,
                   std::uint32_t timestamp) override {
    Update u;
    u.peer = peer;
    u.prefix = prefix;
    u.timestamp = timestamp;
    updates.push_back(std::move(u));
  }
  std::vector<Update> updates;
};

std::vector<Update> decode_synth_stream(const SynthStreamConfig& config) {
  const SynthStream synth = generate_update_stream(config);
  Recorder recorder;
  mrt::decode_update_stream(
      mrt::BufferSource{std::vector<std::uint8_t>(synth.bytes)}, recorder);
  return recorder.updates;
}

/// The from-scratch batch reference over the window's current contents.
core::InferenceResult batch_reference(const WindowClassifier& window,
                                      const topo::OrgMap* orgs,
                                      util::ThreadPool* pool) {
  const auto tuples = window.window_tuples();
  const core::ObservationIndex observations =
      pool ? core::ObservationIndex::build_parallel_interned(
                 window.paths(), tuples, *pool, orgs, nullptr,
                 window.config().observation)
           : core::ObservationIndex::build_interned(
                 window.paths(), tuples, orgs, nullptr,
                 window.config().observation);
  return core::classify(observations, window.config().classifier, pool);
}

/// Bit-identical label comparison in both directions: every cached window
/// label matches the batch inference, and every community the window has
/// evidence for resolves identically (covering the unclassified cases).
void expect_window_matches_batch(const WindowClassifier& window,
                                 const topo::OrgMap* orgs) {
  const core::InferenceResult sequential = batch_reference(window, orgs,
                                                           nullptr);
  const auto labels = window.labels();
  EXPECT_EQ(labels.size(), sequential.labels.size());
  for (const auto& [community, intent] : labels)
    EXPECT_EQ(intent, sequential.label_of(community))
        << community.to_string();
  for (const auto& tuple : window.window_tuples())
    EXPECT_EQ(window.label_of(tuple.community),
              sequential.label_of(tuple.community))
        << tuple.community.to_string();

  const auto totals = window.totals();
  EXPECT_EQ(totals.information, sequential.information_count);
  EXPECT_EQ(totals.action, sequential.action_count);

  for (const unsigned threads : {1u, 2u, 8u}) {
    util::ThreadPool pool(threads);
    const core::InferenceResult parallel =
        batch_reference(window, orgs, &pool);
    EXPECT_EQ(parallel.labels, sequential.labels) << threads << " threads";
    EXPECT_EQ(parallel.information_count, sequential.information_count);
    EXPECT_EQ(parallel.action_count, sequential.action_count);
  }
}

/// Replays a synthetic firehose into a window and checks the equivalence
/// at four checkpoints — mid-epoch, across expiry, and at end of stream.
TEST(StreamWindowProperty, WindowedMatchesBatchAtEveryCheckpoint) {
  const auto scenario = routing::Scenario::build(small_scenario());
  const topo::OrgMap* orgs = &scenario.topology().orgs;
  const auto updates = decode_synth_stream(synth_config());
  ASSERT_GT(updates.size(), 500u);

  WindowClassifier window(tight_window(), orgs);
  const std::size_t checkpoints[] = {updates.size() / 4, updates.size() / 2,
                                     3 * updates.size() / 4, updates.size()};
  std::size_t next = 0;
  for (std::size_t i = 0; i < updates.size(); ++i) {
    const Update& u = updates[i];
    if (u.announce)
      window.announce(u.entry, u.timestamp);
    else
      window.withdraw(u.peer, u.prefix, u.timestamp);
    if (i + 1 == checkpoints[next]) {
      (void)window.reclassify_dirty();
      SCOPED_TRACE("checkpoint " + std::to_string(i + 1));
      expect_window_matches_batch(window, orgs);
      ++next;
    }
  }
  // The stream must actually have exercised the interesting machinery.
  EXPECT_GT(window.expired_epochs(), 0u);
  EXPECT_GT(window.withdraws(), 0u);
}

/// One classifier setting the window must agree with batch under.
struct WindowSetting {
  const char* name = "";
  bool mean_of_ratios = false;
  std::uint32_t min_gap = 140;
  bool sibling_aware = true;
};

void PrintTo(const WindowSetting& setting, std::ostream* os) {
  *os << setting.name;
}

class StreamWindowSettingProperty
    : public ::testing::TestWithParam<WindowSetting> {};

/// The label transitions that turn `before` into `after` (both ascending by
/// community), in (alpha, beta) order, stamped with `epoch`: what a pass
/// between the two must have returned.
std::vector<LabelChange> label_diff(
    const std::vector<std::pair<Community, Intent>>& before,
    const std::vector<std::pair<Community, Intent>>& after,
    std::uint64_t epoch) {
  std::vector<LabelChange> diff;
  auto b = before.begin();
  auto a = after.begin();
  while (b != before.end() || a != after.end()) {
    LabelChange change;
    change.epoch = epoch;
    if (a == after.end() || (b != before.end() && b->first < a->first)) {
      change.community = b->first;
      change.previous = (b++)->second;
    } else if (b == before.end() || a->first < b->first) {
      change.community = a->first;
      change.current = (a++)->second;
    } else {
      change.community = a->first;
      change.previous = (b++)->second;
      change.current = (a++)->second;
    }
    if (change.previous != change.current) diff.push_back(change);
  }
  return diff;
}

/// Reclassifies every 64 updates and, after every pass, checks the labels
/// against the batch build and the pass's events against the label diff
/// the pass made, under each classifier setting.
TEST_P(StreamWindowSettingProperty, WindowedMatchesBatchAfterEveryPass) {
  const WindowSetting& setting = GetParam();
  const auto scenario = routing::Scenario::build(small_scenario());
  const topo::OrgMap* orgs = &scenario.topology().orgs;
  const auto updates = decode_synth_stream(synth_config());
  ASSERT_GT(updates.size(), 500u);

  WindowConfig config = tight_window();
  config.classifier.mean_of_ratios = setting.mean_of_ratios;
  config.classifier.min_gap = setting.min_gap;
  config.observation.sibling_aware = setting.sibling_aware;
  WindowClassifier window(config, orgs);
  std::vector<std::pair<Community, Intent>> before;
  std::size_t passes = 0;
  std::size_t events = 0;
  for (std::size_t i = 0; i < updates.size(); ++i) {
    const Update& u = updates[i];
    if (u.announce)
      window.announce(u.entry, u.timestamp);
    else
      window.withdraw(u.peer, u.prefix, u.timestamp);
    if ((i + 1) % 64 != 0 && i + 1 != updates.size()) continue;

    const std::vector<LabelChange> changes = window.reclassify_dirty();
    const auto after = window.labels();
    SCOPED_TRACE("pass after update " + std::to_string(i + 1));
    ASSERT_EQ(changes, label_diff(before, after, window.current_epoch()));
    const core::InferenceResult batch = batch_reference(window, orgs, nullptr);
    ASSERT_EQ(after.size(), batch.labels.size());
    for (const auto& [community, intent] : after)
      ASSERT_EQ(intent, batch.label_of(community)) << community.to_string();
    before = after;
    ++passes;
    events += changes.size();
  }
  EXPECT_GT(passes, 8u);
  EXPECT_GT(events, 0u);
  EXPECT_GT(window.expired_epochs(), 0u);
  expect_window_matches_batch(window, orgs);
}

INSTANTIATE_TEST_SUITE_P(
    Settings, StreamWindowSettingProperty,
    ::testing::Values(WindowSetting{"pooled_gap140", false, 140, true},
                      WindowSetting{"mean_of_ratios_gap140", true, 140, true},
                      WindowSetting{"pooled_gap0", false, 0, true},
                      WindowSetting{"pooled_gap3", false, 3, true},
                      WindowSetting{"no_siblings", false, 140, false}),
    [](const ::testing::TestParamInfo<WindowSetting>& setting) {
      return std::string(setting.param.name);
    });

/// Expiry to empty: once every record has aged out, the window must agree
/// with a batch build over nothing — no labels, all-zero totals.
TEST(StreamWindowProperty, FullExpiryDrainsToEmptyBatch) {
  const auto scenario = routing::Scenario::build(small_scenario());
  const topo::OrgMap* orgs = &scenario.topology().orgs;
  auto cfg = synth_config();
  cfg.epochs = 2;
  const auto updates = decode_synth_stream(cfg);

  WindowClassifier window(tight_window(), orgs);
  for (const Update& u : updates) {
    if (u.announce)
      window.announce(u.entry, u.timestamp);
    else
      window.withdraw(u.peer, u.prefix, u.timestamp);
  }
  (void)window.reclassify_dirty();
  ASSERT_GT(window.live_tuple_count(), 0u);

  // A lone withdrawal far in the future advances the clock past the
  // entire window without adding evidence.
  bgp::VantagePointId vp;
  vp.asn = 65000;
  window.withdraw(vp, *bgp::Prefix::parse("10.0.0.0/24"),
                  cfg.start_timestamp + 100 * kEpochSeconds);
  const auto changes = window.reclassify_dirty();
  EXPECT_FALSE(changes.empty());  // every label retracts
  EXPECT_EQ(window.live_tuple_count(), 0u);
  EXPECT_TRUE(window.labels().empty());
  EXPECT_TRUE(window.window_tuples().empty());
  const auto totals = window.totals();
  EXPECT_EQ(totals.information, 0u);
  EXPECT_EQ(totals.action, 0u);
  expect_window_matches_batch(window, orgs);
}

/// StreamEngine is the one-mutex facade the serve tier shares with the
/// decode loop: queries racing a live ingest must be data-race-free (the
/// TSan gate) and must not perturb the final state — after the dust
/// settles the engine agrees with the batch reference exactly.
TEST(StreamWindowProperty, ConcurrentQueriesDuringIngestAreRaceFree) {
  const auto scenario = routing::Scenario::build(small_scenario());
  const topo::OrgMap* orgs = &scenario.topology().orgs;
  const SynthStream synth = generate_update_stream(synth_config());

  StreamEngine engine(tight_window(), orgs);
  std::atomic<bool> done{false};
  std::vector<std::thread> readers;
  for (int r = 0; r < 2; ++r) {
    readers.emplace_back([&engine, &done] {
      std::uint64_t last_seq = 0;
      while (!done.load(std::memory_order_relaxed)) {
        const auto stats = engine.stats();
        (void)engine.totals();
        (void)engine.label_of(Community(100, 1));
        bool gap = false;
        const auto events = engine.events_since(last_seq, 64, gap);
        // Sequence numbers are monotonic even mid-ingest.
        for (const auto& event : events) {
          EXPECT_GT(event.seq, last_seq);
          last_seq = event.seq;
        }
        EXPECT_LE(stats.events, engine.stats().events);
      }
    });
  }

  engine.ingest(mrt::BufferSource{std::vector<std::uint8_t>(synth.bytes)});
  done.store(true, std::memory_order_relaxed);
  for (auto& reader : readers) reader.join();

  // Replaying the same stream single-threaded gives the same window.
  WindowClassifier replay(tight_window(), orgs);
  for (const Update& u : decode_synth_stream(synth_config())) {
    if (u.announce)
      replay.announce(u.entry, u.timestamp);
    else
      replay.withdraw(u.peer, u.prefix, u.timestamp);
  }
  (void)replay.reclassify_dirty();

  std::uint64_t as_of = 0;
  const auto engine_labels = StreamEngine(tight_window(), orgs).label_snapshot(
      as_of);  // empty-engine sanity: snapshot of nothing is empty
  EXPECT_TRUE(engine_labels.empty());

  std::uint64_t seq = 0;
  const auto snapshot = engine.label_snapshot(seq);
  EXPECT_EQ(snapshot, replay.labels());
  EXPECT_EQ(seq, engine.last_seq());
  const auto stats = engine.stats();
  EXPECT_EQ(stats.announces, replay.announces());
  EXPECT_EQ(stats.withdraws, replay.withdraws());
  EXPECT_EQ(stats.live_tuples, replay.live_tuple_count());
  expect_window_matches_batch(replay, orgs);
}

}  // namespace
}  // namespace bgpintent::stream
