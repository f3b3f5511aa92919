// The serve tier's label epoch (serve/labels.hpp): the flat LabelMap
// against a std::map oracle, the RCU invariant that a published epoch
// never changes under its readers, concurrent readers that see only
// whole epochs, and LabelView::publish_changes — no epoch for changes
// that change nothing, and a columnar epoch that answers the same once
// its first change materializes it.
#include "serve/labels.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <thread>
#include <utility>
#include <vector>

#include "util/rng.hpp"

namespace bgpintent::serve {
namespace {

using dict::Intent;

constexpr Intent kIntents[] = {Intent::kAction, Intent::kInformation,
                               Intent::kUnclassified};

void expect_matches(const LabelMap& map,
                    const std::map<std::uint32_t, Intent>& oracle) {
  ASSERT_EQ(map.size(), oracle.size());
  for (const auto& [wire, intent] : oracle)
    ASSERT_EQ(map.find(wire), intent) << wire;
  std::size_t visited = 0;
  map.for_each([&](std::uint32_t wire, Intent intent) {
    ++visited;
    const auto it = oracle.find(wire);
    ASSERT_NE(it, oracle.end()) << wire;
    EXPECT_EQ(intent, it->second) << wire;
  });
  EXPECT_EQ(visited, oracle.size());
}

std::shared_ptr<LabelTable> table_of(
    const std::map<std::uint32_t, Intent>& labels) {
  auto table = std::make_shared<LabelTable>();
  for (const auto& [wire, intent] : labels) table->labels.assign(wire, intent);
  table->version = 1;
  return table;
}

TEST(LabelMap, MatchesMapOracleThroughGrowth) {
  // Keys drawn from a pool a third the size of the write count, so most
  // writes after the first few thousand overwrite; the pool spans whole
  // alphas and random wires alike.
  util::Rng rng(15);
  std::vector<std::uint32_t> pool;
  for (std::uint32_t beta = 0; beta < 10000; ++beta)
    pool.push_back((100u << 16) | beta);
  for (int i = 0; i < 23000; ++i)
    pool.push_back(static_cast<std::uint32_t>(rng()));

  LabelMap map;
  std::map<std::uint32_t, Intent> oracle;
  for (int i = 0; i < 100000; ++i) {
    const std::uint32_t wire = pool[rng.uniform(0, pool.size() - 1)];
    const Intent intent = kIntents[rng.uniform(0, 2)];
    map.assign(wire, intent);
    oracle[wire] = intent;
    if (i % 9973 == 0) expect_matches(map, oracle);
  }
  expect_matches(map, oracle);
  EXPECT_GT(oracle.size(), 25000u);  // grew through several doublings
}

TEST(LabelMap, MissesAreUnclassifiedIncludingAfterGrowth) {
  LabelMap map;
  EXPECT_EQ(map.find(0x00640001), Intent::kUnclassified);
  // Even wires in, odd wires probed: every probe misses at every size.
  for (std::uint32_t n = 0; n < 40000; ++n) {
    map.assign(2 * n, Intent::kAction);
    if ((n & (n + 1)) == 0) {  // n + 1 a power of two: around each doubling
      for (std::uint32_t k = 0; k <= n; ++k)
        ASSERT_EQ(map.find(2 * k + 1), Intent::kUnclassified) << k;
    }
  }
  for (std::uint32_t k = 0; k < 40000; ++k) {
    ASSERT_EQ(map.find(2 * k), Intent::kAction);
    ASSERT_EQ(map.find(2 * k + 1), Intent::kUnclassified);
  }
}

TEST(LabelMap, ExtremeWiresAreOrdinaryKeys) {
  LabelMap map;
  EXPECT_EQ(map.find(0x00000000), Intent::kUnclassified);
  EXPECT_EQ(map.find(0xFFFFFFFF), Intent::kUnclassified);
  map.assign(0x00000000, Intent::kAction);
  EXPECT_EQ(map.find(0x00000000), Intent::kAction);
  EXPECT_EQ(map.find(0xFFFFFFFF), Intent::kUnclassified);
  map.assign(0xFFFFFFFF, Intent::kInformation);
  EXPECT_EQ(map.size(), 2u);

  // Both survive growth and overwrite in place.
  for (std::uint32_t wire = 1; wire < 5000; ++wire)
    map.assign(wire, Intent::kInformation);
  map.assign(0x00000000, Intent::kUnclassified);
  EXPECT_EQ(map.find(0x00000000), Intent::kUnclassified);
  EXPECT_EQ(map.find(0xFFFFFFFF), Intent::kInformation);
  EXPECT_EQ(map.size(), 5001u);
}

TEST(LabelView, CopyChangedAfterTheFactLeavesOriginalUnchanged) {
  std::map<std::uint32_t, Intent> labels;
  for (std::uint32_t beta = 0; beta < 3000; ++beta)
    labels[(200u << 16) | beta] =
        beta % 3 == 0 ? Intent::kAction : Intent::kInformation;
  LabelView view;
  view.publish(table_of(labels));
  const std::shared_ptr<const LabelTable> old_epoch = view.load();

  // A writer's private copy, rewritten and grown past several doublings.
  LabelTable copy = *old_epoch;
  for (std::uint32_t beta = 0; beta < 20000; ++beta)
    copy.labels.assign((200u << 16) | beta, Intent::kUnclassified);
  EXPECT_EQ(copy.labels.size(), 20000u);

  // The next published epoch, through the writer.
  std::vector<LabelView::Change> changes;
  for (std::uint32_t beta = 0; beta < 3000; beta += 7)
    changes.emplace_back(bgp::Community(200, static_cast<std::uint16_t>(beta)),
                         Intent::kUnclassified);
  ASSERT_TRUE(view.publish_changes(changes, 0));
  ASSERT_NE(view.load(), old_epoch);

  expect_matches(old_epoch->labels, labels);
  EXPECT_EQ(old_epoch->version, 1u);
  EXPECT_EQ(lookup(*view.load(), bgp::Community(200, 7)),
            Intent::kUnclassified);
}

TEST(LabelView, ChangesThatChangeNothingPublishNoEpoch) {
  LabelView view;
  view.publish(table_of({{(100u << 16) | 1, Intent::kAction},
                         {(100u << 16) | 2, Intent::kInformation},
                         {(100u << 16) | 3, Intent::kUnclassified}}));
  const auto before = view.load();

  // Every pair restates the current answer, absent communities included.
  const std::vector<LabelView::Change> noop{
      {bgp::Community(100, 1), Intent::kAction},
      {bgp::Community(100, 2), Intent::kInformation},
      {bgp::Community(100, 3), Intent::kUnclassified},
      {bgp::Community(100, 4), Intent::kUnclassified},
  };
  EXPECT_FALSE(view.publish_changes(noop, 0));
  EXPECT_FALSE(view.publish_changes({}, 0));
  EXPECT_EQ(view.load(), before);
  EXPECT_EQ(view.load()->version, 1u);

  // An advanced stream sequence publishes even when no label changed.
  EXPECT_TRUE(view.publish_changes(noop, 5));
  EXPECT_EQ(view.load()->version, 2u);
  EXPECT_EQ(view.load()->as_of_seq, 5u);
  EXPECT_EQ(view.load()->labels.size(), before->labels.size());
  EXPECT_FALSE(view.publish_changes(noop, 5));

  // A later pair for the same community wins: a change and its reversal
  // leave the answer where it was.
  const std::vector<LabelView::Change> flip_back{
      {bgp::Community(100, 1), Intent::kInformation},
      {bgp::Community(100, 1), Intent::kAction},
      {bgp::Community(100, 5), Intent::kAction},
      {bgp::Community(100, 5), Intent::kUnclassified},
  };
  EXPECT_TRUE(view.publish_changes(flip_back, 5));
  EXPECT_EQ(lookup(*view.load(), bgp::Community(100, 1)), Intent::kAction);
  EXPECT_EQ(lookup(*view.load(), bgp::Community(100, 5)),
            Intent::kUnclassified);
}

// The RCU contract at the unit level: readers, each through its own
// Reader, see only whole epochs, in publish order, while a writer keeps
// publishing.  Every epoch labels all of its communities alike, so a torn
// read would mix intents.  Under TSan (the tsan-serve CI job) this also
// checks the publication itself.
TEST(LabelView, ReadersSeeOnlyWholeEpochs) {
  constexpr std::uint16_t kBetas = 256;
  constexpr std::uint64_t kRounds = 500;
  LabelView view;
  std::atomic<int> started{0};
  std::atomic<bool> done{false};
  std::vector<std::thread> readers;
  for (int t = 0; t < 2; ++t) {
    readers.emplace_back([&] {
      LabelView::Reader reader;
      std::uint64_t last_version = 0;
      started.fetch_add(1);
      while (!done.load()) {
        const LabelTable& epoch = view.read(reader);
        ASSERT_GE(epoch.version, last_version);
        last_version = epoch.version;
        const Intent first = lookup(epoch, bgp::Community(300, 0));
        for (std::uint16_t beta = 1; beta < kBetas; ++beta)
          ASSERT_EQ(lookup(epoch, bgp::Community(300, beta)), first);
      }
    });
  }
  while (started.load() < 2) std::this_thread::yield();

  std::vector<LabelView::Change> changes;
  for (std::uint64_t round = 0; round < kRounds; ++round) {
    const Intent intent =
        round % 2 == 0 ? Intent::kAction : Intent::kInformation;
    changes.clear();
    for (std::uint16_t beta = 0; beta < kBetas; ++beta)
      changes.emplace_back(bgp::Community(300, beta), intent);
    ASSERT_TRUE(view.publish_changes(changes, 0));
  }
  done.store(true);
  for (auto& reader : readers) reader.join();
  EXPECT_EQ(view.load()->version, kRounds);
}

TEST(LabelView, ColumnarEpochAnswersIdenticallyOnceMaterialized) {
  // Sorted parallel columns, as a mapped snapshot lays them out.
  struct Columns {
    std::vector<std::uint32_t> wires;
    std::vector<Intent> intents;
  };
  auto columns = std::make_shared<Columns>();
  for (std::uint32_t wire : {0x00000000u, 0x00640001u, 0x00640002u,
                             0x00C80010u, 0xFFFFFFFFu}) {
    columns->wires.push_back(wire);
    columns->intents.push_back(wire % 2 == 0 ? Intent::kAction
                                             : Intent::kInformation);
  }
  auto table = std::make_shared<LabelTable>();
  table->wires = columns->wires;
  table->intents = columns->intents;
  table->backing = columns;
  table->version = 1;
  LabelView view;
  view.publish(table);
  const auto columnar = view.load();

  const std::vector<std::uint32_t> probes{
      0x00000000u, 0x00640001u, 0x00640002u, 0x00640003u,
      0x00C80010u, 0x00C80011u, 0xFFFFFFFEu, 0xFFFFFFFFu};
  const bgp::Community changed = bgp::Community::from_wire(0x00640002u);
  ASSERT_TRUE(view.publish_changes(
      std::vector<LabelView::Change>{{changed, Intent::kInformation}}, 0));
  const auto materialized = view.load();
  EXPECT_EQ(materialized->backing, nullptr);
  EXPECT_EQ(materialized->version, 2u);
  EXPECT_EQ(lookup(*materialized, changed), Intent::kInformation);
  EXPECT_EQ(lookup(*columnar, changed), Intent::kAction);
  for (const std::uint32_t wire : probes) {
    if (wire == changed.wire()) continue;
    const auto community = bgp::Community::from_wire(wire);
    EXPECT_EQ(lookup(*materialized, community), lookup(*columnar, community))
        << wire;
  }
}

}  // namespace
}  // namespace bgpintent::serve
