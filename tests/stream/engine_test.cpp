// StreamEngine unit tests: event sequencing, delta resumption (including
// the trimmed-backlog gap that forces a snapshot resync), protocol-driven
// announcements, RIB priming, decode counter accounting, and the journal's
// write-ahead and return-means-written guarantees.
#include "stream/engine.hpp"

#include <gtest/gtest.h>

#include <filesystem>
#include <sstream>
#include <stdexcept>
#include <vector>

#include "bgp/route.hpp"
#include "core/pipeline.hpp"
#include "mrt/fault.hpp"
#include "mrt/mrt_file.hpp"
#include "mrt/source.hpp"
#include "routing/scenario.hpp"
#include "stream/journal.hpp"
#include "stream/synth.hpp"
#include "support/temp_path.hpp"

namespace bgpintent::stream {
namespace {

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

TEST(StreamEngine, EventsAreSequencedFromOne) {
  StreamEngine engine;
  EXPECT_EQ(engine.last_seq(), 0u);
  EXPECT_EQ(engine.first_buffered_seq(), 0u);

  engine.announce(entry(61, {61, 100, 201}, {bgp::Community(100, 1)}), 10);
  engine.announce(entry(62, {62, 300, 400}, {bgp::Community(300, 7)}), 11);
  engine.reclassify();

  bool gap = false;
  const auto events = engine.events_since(0, 100, gap);
  EXPECT_FALSE(gap);
  ASSERT_EQ(events.size(), 2u);
  EXPECT_EQ(events[0].seq, 1u);
  EXPECT_EQ(events[1].seq, 2u);
  EXPECT_EQ(engine.last_seq(), 2u);
  EXPECT_EQ(engine.first_buffered_seq(), 1u);

  // Resuming from the newest seq yields nothing, without a gap.
  const auto none = engine.events_since(engine.last_seq(), 100, gap);
  EXPECT_FALSE(gap);
  EXPECT_TRUE(none.empty());

  // A limit smaller than the backlog pages through it.
  const auto page = engine.events_since(0, 1, gap);
  ASSERT_EQ(page.size(), 1u);
  EXPECT_EQ(page[0].seq, 1u);
}

TEST(StreamEngine, ProtocolAnnounceWithZeroTimestampReusesLatest) {
  WindowConfig cfg;
  cfg.epoch_seconds = 100;
  cfg.window_epochs = 2;
  StreamEngine engine(cfg);
  engine.announce(entry(61, {61, 100, 201}, {bgp::Community(100, 1)}), 1000);
  const auto before = engine.stats();

  // The serve INGEST verb carries no timestamp: it must never move the
  // window (stream/engine.hpp).
  engine.announce(entry(62, {62, 300, 400}, {bgp::Community(300, 7)}));
  const auto after = engine.stats();
  EXPECT_EQ(after.latest_timestamp, before.latest_timestamp);
  EXPECT_EQ(after.current_epoch, before.current_epoch);
  EXPECT_EQ(after.announces, before.announces + 1);
}

TEST(StreamEngine, LabelSnapshotIsConsistentWithItsSequencePoint) {
  StreamEngine engine;
  engine.announce(entry(61, {61, 100, 201}, {bgp::Community(100, 1)}), 10);

  // label_snapshot reclassifies first, so the pending label change is both
  // in the snapshot and reflected in the returned sequence point.
  std::uint64_t as_of = 0;
  const auto snapshot = engine.label_snapshot(as_of);
  EXPECT_EQ(as_of, engine.last_seq());
  ASSERT_EQ(snapshot.size(), 1u);
  EXPECT_EQ(snapshot[0].first, bgp::Community(100, 1));
  EXPECT_EQ(snapshot[0].second, Intent::kInformation);
  bool gap = false;
  EXPECT_TRUE(engine.events_since(as_of, 100, gap).empty());
}

/// Flap two alphas across one-epoch windows until the event log wraps:
/// resuming from before the buffered range must signal the gap that sends
/// a subscriber to a full snapshot (the delta-snapshot protocol).
TEST(StreamEngine, TrimmedBacklogSignalsGapForStaleResume) {
  WindowConfig cfg;
  cfg.epoch_seconds = 1;
  cfg.window_epochs = 1;
  StreamEngine engine(cfg);
  const auto a = entry(61, {61, 100, 201}, {bgp::Community(100, 1)});
  const auto b = entry(62, {62, 300, 400}, {bgp::Community(300, 7)});

  // Each flip expires the other alpha's evidence: two label changes per
  // iteration (one retraction, one fresh label).
  std::uint32_t t = 1;
  for (std::uint64_t i = 0;
       engine.last_seq() <= StreamEngine::kMaxBufferedEvents + 2;
       ++i, t += 2) {
    engine.announce((i % 2 == 0) ? a : b, t);
    engine.reclassify();
  }

  EXPECT_GT(engine.first_buffered_seq(), 1u);
  bool gap = false;
  const auto stale = engine.events_since(1, 16, gap);
  EXPECT_TRUE(gap);
  ASSERT_FALSE(stale.empty());
  EXPECT_EQ(stale.front().seq, engine.first_buffered_seq());

  // The advertised recovery: take a snapshot and resume from its seq.
  std::uint64_t as_of = 0;
  (void)engine.label_snapshot(as_of);
  const auto fresh = engine.events_since(as_of, 16, gap);
  EXPECT_FALSE(gap);
  EXPECT_TRUE(fresh.empty());
}

/// Past the cap the log holds exactly the newest kMaxBufferedEvents
/// events.  Paging from just before the oldest buffered one walks every
/// sequence number up to the newest with no gap; one step earlier is a gap.
TEST(StreamEngine, EventLogPastTheCapKeepsTheNewestDeltaContiguous) {
  WindowConfig cfg;
  cfg.epoch_seconds = 1;
  cfg.window_epochs = 1;
  StreamEngine engine(cfg);
  const auto a = entry(61, {61, 100, 201}, {bgp::Community(100, 1)});
  const auto b = entry(62, {62, 300, 400}, {bgp::Community(300, 7)});
  std::uint32_t t = 1;
  for (std::uint64_t i = 0;
       engine.last_seq() < StreamEngine::kMaxBufferedEvents + 5000;
       ++i, t += 2) {
    engine.announce((i % 2 == 0) ? a : b, t);
    engine.reclassify();
  }

  const std::uint64_t first = engine.first_buffered_seq();
  EXPECT_EQ(first, engine.last_seq() - StreamEngine::kMaxBufferedEvents + 1);
  EXPECT_EQ(engine.export_state().events.size(),
            StreamEngine::kMaxBufferedEvents);

  bool gap = true;
  std::uint64_t after = first - 1;
  for (;;) {
    const auto page = engine.events_since(after, 4096, gap);
    ASSERT_FALSE(gap) << "after " << after;
    if (page.empty()) break;
    for (const Event& event : page) {
      ASSERT_EQ(event.seq, after + 1);
      after = event.seq;
    }
  }
  EXPECT_EQ(after, engine.last_seq());

  const auto stale = engine.events_since(first - 2, 1, gap);
  EXPECT_TRUE(gap);
  ASSERT_EQ(stale.size(), 1u);
  EXPECT_EQ(stale.front().seq, first);
}

/// serve's priming: every RIB row lands in the window, nothing classifies
/// until the one pass the caller runs, and the result is batch's.
TEST(StreamEngine, PrimeAppliesEveryRibRowForOnePassAtTheEnd) {
  routing::ScenarioConfig cfg;
  cfg.topology.seed = 47;
  cfg.topology.tier1_count = 4;
  cfg.topology.tier2_count = 12;
  cfg.topology.stub_count = 40;
  cfg.vantage_point_count = 8;
  const auto scenario = routing::Scenario::build(cfg);
  const auto entries = scenario.entries();
  std::ostringstream rib;
  mrt::MrtWriter(rib).write_rib_snapshot(entries, 0x7f000001, 1684886400);
  const std::string bytes = rib.str();

  WindowConfig non_expiring;
  non_expiring.window_epochs = UINT32_MAX;
  StreamEngine engine(non_expiring, &scenario.topology().orgs);
  mrt::DecodeReport report;
  engine.prime(mrt::BufferSource{std::vector<std::uint8_t>(bytes.begin(),
                                                           bytes.end())},
               {}, &report);
  EXPECT_EQ(engine.announces(), entries.size());
  EXPECT_EQ(engine.stats().updates_ok, report.records_ok);
  EXPECT_EQ(engine.last_seq(), 0u);  // no pass yet
  EXPECT_TRUE(engine.has_pending_dirty());

  engine.reclassify();
  core::Pipeline batch;
  batch.set_org_map(&scenario.topology().orgs);
  const auto want = batch.run(entries);
  std::size_t compared = 0;
  for (const auto& stats : want.observations.all()) {
    ++compared;
    EXPECT_EQ(engine.label_of(stats.community),
              want.inference.label_of(stats.community))
        << stats.community.to_string();
  }
  EXPECT_GT(compared, 50u);
}

/// Priming is not journaled, so replay could not reproduce it: an engine
/// with a journal refuses it and its journal stays untouched.
TEST(StreamEngine, PrimeRefusesAnEngineWithAJournal) {
  const std::string dir = test_support::unique_temp_path("prime_journal");
  JournalConfig journal;
  journal.directory = dir;
  StreamEngine engine;
  engine.attach_journal(std::make_unique<JournalWriter>(journal, 0));
  const auto appends = engine.stats().journal_appends;
  std::ostringstream rib;
  mrt::MrtWriter(rib).write_rib_snapshot(
      {entry(61, {61, 100, 201}, {bgp::Community(100, 1)})}, 1, 1);
  const std::string bytes = rib.str();
  EXPECT_THROW(engine.prime(mrt::BufferSource{std::vector<std::uint8_t>(
                   bytes.begin(), bytes.end())}),
               std::logic_error);
  EXPECT_EQ(engine.announces(), 0u);
  EXPECT_EQ(engine.stats().journal_appends, appends);
  engine.detach_journal();
  std::filesystem::remove_all(dir);
}

TEST(StreamEngine, IngestFoldsDecodeCountersIntoStats) {
  SynthStreamConfig cfg;
  cfg.scenario.topology.seed = 42;
  cfg.scenario.topology.tier1_count = 4;
  cfg.scenario.topology.tier2_count = 12;
  cfg.scenario.topology.stub_count = 40;
  cfg.scenario.vantage_point_count = 8;
  cfg.epochs = 2;
  const SynthStream synth = generate_update_stream(cfg);

  StreamEngine engine;
  mrt::DecodeReport report;
  engine.ingest(mrt::BufferSource{std::vector<std::uint8_t>(synth.bytes)}, {},
                &report);
  const auto stats = engine.stats();
  EXPECT_EQ(stats.updates_ok, report.records_ok);
  EXPECT_EQ(stats.updates_errors, 0u);
  EXPECT_EQ(stats.announces, synth.stats.announcements);
  EXPECT_EQ(stats.withdraws, synth.stats.withdrawals);
  EXPECT_GT(stats.live_tuples, 0u);
  EXPECT_EQ(stats.dirty_alphas, 0u);  // ingest reclassifies at end

  // The istream strict path (the stdin firehose) sees the same stream.
  StreamEngine from_stream;
  std::istringstream in(std::string(
      reinterpret_cast<const char*>(synth.bytes.data()), synth.bytes.size()));
  from_stream.ingest(in);
  EXPECT_EQ(from_stream.stats().announces, stats.announces);
  EXPECT_EQ(from_stream.stats().withdraws, stats.withdraws);
}

TEST(StreamEngine, TolerantIngestOfCorruptStreamCountsErrors) {
  SynthStreamConfig cfg;
  cfg.scenario.topology.seed = 43;
  cfg.scenario.topology.tier1_count = 4;
  cfg.scenario.topology.tier2_count = 12;
  cfg.scenario.topology.stub_count = 40;
  cfg.scenario.vantage_point_count = 8;
  cfg.epochs = 2;
  const SynthStream synth = generate_update_stream(cfg);
  const auto corrupted =
      mrt::corrupt_mrt(synth.bytes, mrt::CorruptionKind::kSplice, 7);

  mrt::DecodeOptions tolerant;
  tolerant.mode = mrt::DecodeMode::kTolerant;
  StreamEngine engine;
  mrt::DecodeReport report;
  engine.ingest(mrt::BufferSource{std::vector<std::uint8_t>(corrupted.bytes)},
                tolerant, &report);
  const auto stats = engine.stats();
  EXPECT_EQ(stats.updates_ok, report.records_ok);
  EXPECT_EQ(stats.updates_errors, report.records_skipped);
  EXPECT_GT(stats.updates_ok, 0u);
}

// --- The journal contract: what is on disk when -------------------------

/// A small synthetic update stream (a few thousand records).
std::vector<std::uint8_t> small_stream(std::uint64_t seed) {
  SynthStreamConfig cfg;
  cfg.scenario.topology.seed = seed;
  cfg.scenario.topology.tier1_count = 4;
  cfg.scenario.topology.tier2_count = 12;
  cfg.scenario.topology.stub_count = 40;
  cfg.scenario.vantage_point_count = 8;
  cfg.epochs = 2;
  return generate_update_stream(cfg).bytes;
}

/// fsync=never, so only write(2) stands between a record and the files,
/// and segments small enough to rotate several times.
std::unique_ptr<JournalWriter> unsynced_writer(const std::string& dir) {
  JournalConfig config;
  config.directory = dir;
  config.max_segment_bytes = 16u << 10;
  config.fsync = FsyncPolicy::kNever;
  return std::make_unique<JournalWriter>(config, 0);
}

/// Seqs of the kEvent records the journal files hold right now.
std::vector<std::uint64_t> event_seqs_on_disk(const std::string& dir) {
  std::vector<std::uint64_t> seqs;
  (void)scan_journal(
      dir, {},
      [&](const RecordLocation&, std::span<const std::uint8_t> payload) {
        const JournalRecord record = decode_record(payload);
        if (record.type == RecordType::kEvent) seqs.push_back(record.seq);
        return true;
      });
  return seqs;
}

/// Write-ahead: when the publish hook runs, every event up to
/// published_seq() is already in the files, while the writer is open.
TEST(StreamEngineJournal, NoEventPublishesBeforeItsRecordIsWritten) {
  const std::string dir = test_support::unique_temp_path("write_ahead");
  StreamEngine engine;
  engine.attach_journal(unsynced_writer(dir));
  std::uint64_t publishes = 0;
  engine.set_publish_hook([&] {
    ++publishes;
    const std::uint64_t published = engine.published_seq();
    const std::vector<std::uint64_t> seqs = event_seqs_on_disk(dir);
    ASSERT_GE(seqs.size(), published) << "publish " << publishes;
    for (std::uint64_t seq = 1; seq <= published; ++seq)
      ASSERT_EQ(seqs[seq - 1], seq);
  });
  for (const std::uint64_t seed : {61u, 62u, 63u})
    engine.ingest(mrt::BufferSource{small_stream(seed)});
  engine.announce(entry(61, {61, 700, 701}, {bgp::Community(700, 5)}));
  (void)engine.label_of(bgp::Community(700, 5));
  EXPECT_GE(publishes, 4u);
  EXPECT_GT(engine.last_seq(), 100u);
  engine.set_publish_hook(nullptr);
  engine.detach_journal();
  std::filesystem::remove_all(dir);
}

/// Return means written: after ingest() returns, every record it appended
/// scans from the files, including an ingest whose end leaves nothing
/// dirty (it appends only its decode-stats record).
TEST(StreamEngineJournal, IngestReturnsWithEveryRecordWritten) {
  const std::string dir = test_support::unique_temp_path("ingest_written");
  StreamEngine engine;
  engine.attach_journal(unsynced_writer(dir));
  EXPECT_EQ(scan_journal(dir).records, engine.stats().journal_appends);
  for (const std::uint64_t seed : {71u, 72u}) {
    engine.ingest(mrt::BufferSource{small_stream(seed)});
    EXPECT_EQ(scan_journal(dir).records, engine.stats().journal_appends);
  }
  const std::uint64_t before = engine.stats().journal_appends;
  engine.ingest(mrt::BufferSource{std::vector<std::uint8_t>{}});
  EXPECT_EQ(engine.stats().journal_appends, before + 1);
  EXPECT_EQ(scan_journal(dir).records, engine.stats().journal_appends);
  engine.detach_journal();
  std::filesystem::remove_all(dir);
}

/// The serve INGEST sequence (announce per pair, record_decode, then
/// reclassify): each call returns with its records in the files.
TEST(StreamEngineJournal, ServeIngestSequenceReturnsWithEveryRecordWritten) {
  const std::string dir = test_support::unique_temp_path("serve_written");
  StreamEngine engine;
  engine.attach_journal(unsynced_writer(dir));
  std::uint32_t timestamp = 1000;
  for (std::uint16_t round = 0; round < 6; ++round) {
    for (std::uint16_t pair = 0; pair < 5; ++pair) {
      const auto alpha = static_cast<std::uint16_t>(100 + pair);
      engine.announce(entry(61u + round, {61u + round, alpha, 201u + round},
                            {bgp::Community(alpha, round), bgp::Community(9, 1)}),
                      timestamp += 600);
      EXPECT_EQ(scan_journal(dir).records, engine.stats().journal_appends);
    }
    engine.record_decode(5, round % 2);
    EXPECT_EQ(scan_journal(dir).records, engine.stats().journal_appends);
    engine.reclassify();
    EXPECT_EQ(scan_journal(dir).records, engine.stats().journal_appends);
  }
  EXPECT_GT(engine.last_seq(), 0u);
  engine.detach_journal();
  std::filesystem::remove_all(dir);
}

}  // namespace
}  // namespace bgpintent::stream
