// Crash-recovery semantics: checkpoint-load + bounded replay rebuilds the
// exact engine (labels, event sequence, window ring), clean shutdowns
// replay nothing, config precedence follows the persisted-wins rule, and
// inspect_journal reports what `bgpintent recover` prints.
#include "stream/recovery.hpp"

#include <gtest/gtest.h>
#include <unistd.h>

#include <filesystem>
#include <fstream>
#include <iterator>
#include <map>
#include <memory>
#include <vector>

#include "bgp/route.hpp"
#include "mrt/source.hpp"
#include "stream/checkpoint.hpp"
#include "stream/engine.hpp"
#include "stream/synth.hpp"
#include "util/strings.hpp"

namespace bgpintent::stream {
namespace {

namespace fs = std::filesystem;

struct ScratchDir {
  explicit ScratchDir(const char* tag)
      : path(fs::path(::testing::TempDir()) /
             util::format("bgpintent_recovery_%s_%d", tag, ::getpid())) {
    fs::remove_all(path);
    fs::create_directories(path);
  }
  ~ScratchDir() {
    std::error_code ec;
    fs::remove_all(path, ec);
  }
  [[nodiscard]] std::string str() const { return path.string(); }
  fs::path path;
};

JournalConfig journal_config(const ScratchDir& dir) {
  JournalConfig cfg;
  cfg.directory = dir.str();
  cfg.fsync = FsyncPolicy::kNever;
  return cfg;
}

SynthStream small_stream(std::uint64_t seed = 42) {
  SynthStreamConfig cfg;
  cfg.scenario.topology.seed = seed;
  cfg.scenario.topology.tier1_count = 4;
  cfg.scenario.topology.tier2_count = 12;
  cfg.scenario.topology.stub_count = 60;
  cfg.scenario.vantage_point_count = 8;
  cfg.epochs = 3;
  cfg.epoch_seconds = 600;
  return generate_update_stream(cfg);
}

void ingest(StreamEngine& engine, const SynthStream& synth) {
  engine.ingest(mrt::BufferSource{std::vector<std::uint8_t>(synth.bytes)});
}

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

/// Every file of `directory` by name, with its bytes.
std::map<std::string, std::vector<std::uint8_t>> read_directory(
    const fs::path& directory) {
  std::map<std::string, std::vector<std::uint8_t>> files;
  for (const auto& entry : fs::directory_iterator(directory)) {
    std::ifstream in(entry.path(), std::ios::binary);
    files[entry.path().filename().string()] = {
        std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>()};
  }
  return files;
}

TEST(Recovery, FreshDirectoryRecoversToFreshEngine) {
  const ScratchDir dir("fresh");
  RecoveryReport report;
  const auto engine = recover_stream(journal_config(dir), {}, &report);
  ASSERT_NE(engine, nullptr);
  EXPECT_TRUE(report.fresh);
  EXPECT_EQ(report.journal_records, 0u);
  EXPECT_TRUE(engine->has_journal());
  EXPECT_EQ(engine->last_seq(), 0u);
  // The fresh journal got the config as record 0.
  engine->detach_journal();
  EXPECT_EQ(scan_journal(dir.str()).records, 1u);
}

TEST(Recovery, CleanShutdownReplaysNothing) {
  const ScratchDir dir("clean");
  const SynthStream synth = small_stream();
  EngineState original;
  {
    StreamEngine engine;
    engine.attach_journal(
        std::make_unique<JournalWriter>(journal_config(dir), 0));
    ingest(engine, synth);
    original = engine.export_state();
    engine.detach_journal();  // writes the final checkpoint
  }
  RecoveryReport report;
  const auto recovered = recover_stream(journal_config(dir), {}, &report);
  EXPECT_TRUE(report.used_checkpoint);
  EXPECT_EQ(report.records_replayed, 0u);
  EXPECT_FALSE(report.fresh);
  EXPECT_TRUE(recovered->export_state() == original);
}

TEST(Recovery, CrashWithoutCheckpointReplaysTheFullJournal) {
  const ScratchDir dir("nockpt");
  const SynthStream synth = small_stream();
  EngineState original;
  {
    StreamEngine engine;
    engine.attach_journal(
        std::make_unique<JournalWriter>(journal_config(dir), 0));
    ingest(engine, synth);
    original = engine.export_state();
    // No detach_journal(): the writer destructor seals the segment but
    // writes no checkpoint — the crash-without-checkpoint shape.
  }
  RecoveryReport report;
  const auto recovered = recover_stream(journal_config(dir), {}, &report);
  EXPECT_FALSE(report.used_checkpoint);
  EXPECT_EQ(report.records_replayed, report.journal_records);
  EXPECT_TRUE(recovered->export_state() == original);
  EXPECT_EQ(recovered->stats().recovered_events, original.next_seq - 1);
}

TEST(Recovery, CheckpointBoundsTheReplay) {
  const ScratchDir dir("bounded");
  const SynthStream synth = small_stream();
  EngineState original;
  {
    StreamEngine engine;
    // Checkpoint every 100 updates: recovery replays only the short tail
    // past the last checkpoint, not the whole journal.
    engine.attach_journal(
        std::make_unique<JournalWriter>(journal_config(dir), 0), 100);
    ingest(engine, synth);
    original = engine.export_state();
  }
  RecoveryReport report;
  const auto recovered = recover_stream(journal_config(dir), {}, &report);
  EXPECT_TRUE(report.used_checkpoint);
  EXPECT_GT(report.checkpoint_record, 0u);
  EXPECT_LT(report.records_replayed, report.journal_records);
  EXPECT_TRUE(recovered->export_state() == original);
}

TEST(Recovery, RecoveredEngineResumesTheEventSequence) {
  const ScratchDir dir("resume_seq");
  const SynthStream synth = small_stream();
  std::uint64_t last_seq = 0;
  {
    StreamEngine engine;
    engine.attach_journal(
        std::make_unique<JournalWriter>(journal_config(dir), 0));
    ingest(engine, synth);
    last_seq = engine.last_seq();
  }
  const auto recovered = recover_stream(journal_config(dir));
  ASSERT_GT(last_seq, 0u);
  EXPECT_EQ(recovered->last_seq(), last_seq);
  // A subscriber resuming from its pre-crash position sees no gap.
  bool gap = false;
  (void)recovered->events_since(last_seq, 16, gap);
  EXPECT_FALSE(gap);

  // New activity continues the sequence instead of restarting it.
  recovered->announce(
      entry(61, {61, 100, 909}, {bgp::Community(909, 1)}, "10.9.0.0/24"), 0);
  recovered->reclassify();
  EXPECT_GT(recovered->last_seq(), last_seq);
  const auto fresh = recovered->events_since(last_seq, 16, gap);
  EXPECT_FALSE(gap);
  ASSERT_FALSE(fresh.empty());
  EXPECT_EQ(fresh.front().seq, last_seq + 1);
}

TEST(Recovery, PersistedConfigWinsOverOptions) {
  const ScratchDir dir("config");
  WindowConfig persisted;
  persisted.epoch_seconds = 60;
  persisted.window_epochs = 5;
  {
    StreamEngine engine(persisted);
    JournalConfig cfg = journal_config(dir);
    auto writer = std::make_unique<JournalWriter>(cfg, 0);
    engine.attach_journal(std::move(writer));
    engine.announce(entry(61, {61, 100, 201}, {bgp::Community(100, 1)}), 100);
    engine.reclassify();
  }
  RecoveryOptions options;
  options.config.epoch_seconds = 3600;  // differs from the journal's
  RecoveryReport report;
  const auto recovered =
      recover_stream(journal_config(dir), options, &report);
  EXPECT_TRUE(report.config_overridden);
  EXPECT_EQ(recovered->stats().current_epoch, 100u / 60u);
}

TEST(Recovery, ReplayJournalDrivesARecoveredEngineToTheFinalState) {
  const ScratchDir dir("continue");
  const SynthStream synth = small_stream();
  EngineState final_state;
  std::uint64_t total_records = 0;
  {
    StreamEngine engine;
    engine.attach_journal(
        std::make_unique<JournalWriter>(journal_config(dir), 0));
    ingest(engine, synth);
    final_state = engine.export_state();
  }
  total_records = scan_journal(dir.str()).records;

  // Replay the full journal into a fresh engine without journaling side
  // effects — the crash harness's continuation primitive.
  StreamEngine fresh;
  const ReplayReport report =
      replay_journal(fresh, dir.str(), 0, /*strict=*/true);
  EXPECT_TRUE(report.complete) << report.detail;
  EXPECT_EQ(report.records_applied, total_records);
  EXPECT_TRUE(fresh.export_state() == final_state);
  EXPECT_FALSE(fresh.has_journal());
}

TEST(Recovery, StrictRefusesATornTailAndTolerantTruncatesIt) {
  const ScratchDir dir("torn");
  const SynthStream synth = small_stream();
  {
    StreamEngine engine;
    engine.attach_journal(
        std::make_unique<JournalWriter>(journal_config(dir), 0));
    ingest(engine, synth);
  }
  // Tear the tail mid-frame.
  const ScanSummary clean = scan_journal(dir.str());
  const std::string segment = clean.segments.back().path;
  fs::resize_file(segment, fs::file_size(segment) - 11);
  const ScanSummary torn = scan_journal(dir.str());
  ASSERT_TRUE(torn.torn);

  RecoveryOptions strict;
  strict.strict = true;
  EXPECT_THROW((void)recover_stream(journal_config(dir), strict),
               JournalError);

  RecoveryReport report;
  const auto recovered = recover_stream(journal_config(dir), {}, &report);
  EXPECT_GT(report.torn_tail_truncated, 0u);
  EXPECT_EQ(report.journal_records, torn.records);
  EXPECT_EQ(recovered->stats().torn_tail_truncated,
            report.torn_tail_truncated);
  // The truncated journal now scans clean and the writer resumed at the
  // surviving prefix.
  recovered->detach_journal();
  const ScanSummary after = scan_journal(dir.str());
  EXPECT_FALSE(after.torn);
  EXPECT_GE(after.records, torn.records);
}

// A segment of another journal version is refused, never read as torn:
// tolerant recovery truncates a torn journal, which would delete that
// segment, every later one and every checkpoint past the cut.
TEST(Recovery, OlderJournalVersionIsRefusedAndLeftIntact) {
  const ScratchDir dir("oldversion");
  JournalConfig cfg = journal_config(dir);
  cfg.max_segment_bytes = 8 * 1024;  // several segments
  {
    StreamEngine engine;
    engine.attach_journal(std::make_unique<JournalWriter>(cfg, 0), 100);
    ingest(engine, small_stream());
  }
  const ScanSummary clean = scan_journal(dir.str());
  ASSERT_GT(clean.segments.size(), 1u);
  ASSERT_FALSE(list_checkpoints(dir.str()).empty());
  {
    // Segment 0 claims version 1, as one an older build wrote would.
    std::fstream file(clean.segments.front().path,
                      std::ios::in | std::ios::out | std::ios::binary);
    file.seekp(8);  // u32 LE version field
    file.put('\x01');
  }
  const auto before = read_directory(dir.path);

  RecoveryOptions strict;
  strict.strict = true;
  for (const RecoveryOptions& options : {RecoveryOptions{}, strict}) {
    try {
      (void)recover_stream(cfg, options);
      FAIL() << "a version-1 segment must be refused";
    } catch (const JournalError& error) {
      const std::string what = error.what();
      EXPECT_NE(what.find("version 1"), std::string::npos) << what;
      EXPECT_NE(what.find(util::format("version %u", kJournalVersion)),
                std::string::npos)
          << what;
    }
    EXPECT_EQ(read_directory(dir.path), before);
  }
}

TEST(Recovery, InspectJournalCountsRecordTypes) {
  const ScratchDir dir("inspect");
  const SynthStream synth = small_stream();
  std::uint64_t last_seq = 0;
  {
    StreamEngine engine;
    engine.attach_journal(
        std::make_unique<JournalWriter>(journal_config(dir), 0), 100);
    ingest(engine, synth);
    last_seq = engine.last_seq();
  }
  const JournalInspection inspection = inspect_journal(dir.str());
  EXPECT_FALSE(inspection.scan.torn);
  EXPECT_EQ(
      inspection.type_counts[static_cast<std::size_t>(RecordType::kConfig)],
      1u);
  EXPECT_GT(
      inspection.type_counts[static_cast<std::size_t>(RecordType::kAnnounce)],
      0u);
  EXPECT_EQ(inspection.undecodable, 0u);
  EXPECT_EQ(inspection.last_event_seq, last_seq);
  EXPECT_FALSE(inspection.checkpoints.empty());
}

}  // namespace
}  // namespace bgpintent::stream
