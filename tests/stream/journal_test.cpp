// Journal writer/scanner unit tests: record encode/decode roundtrips,
// frame + footer integrity, segment rotation, resume-append, torn-tail
// detection, and checkpoint save/load (docs/STREAMING.md §6).
#include "stream/journal.hpp"

#include <gtest/gtest.h>
#include <unistd.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <vector>

#include "stream/checkpoint.hpp"
#include "stream/engine.hpp"
#include "stream/wire.hpp"
#include "support/temp_path.hpp"
#include "util/strings.hpp"

namespace bgpintent::stream {
namespace {

namespace fs = std::filesystem;

/// Fresh scratch journal directory, removed on destruction.
struct ScratchDir {
  explicit ScratchDir(const char* tag)
      : path(fs::path(::testing::TempDir()) /
             util::format("bgpintent_journal_%s_%d", tag, ::getpid())) {
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

JournalConfig small_segments(const ScratchDir& dir,
                             std::uint64_t max_bytes = 4ull << 20) {
  JournalConfig cfg;
  cfg.directory = dir.str();
  cfg.max_segment_bytes = max_bytes;
  cfg.fsync = FsyncPolicy::kNever;
  return cfg;
}

std::vector<std::uint8_t> read_whole(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return {std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>()};
}

void write_whole(const std::string& path, std::span<const std::uint8_t> bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(reinterpret_cast<const char*>(bytes.data()),
            static_cast<std::streamsize>(bytes.size()));
}

std::vector<std::uint8_t> announce_payload(std::uint32_t timestamp) {
  std::vector<std::uint8_t> payload;
  encode_announce_record(payload, bgp::AsPath({61, 100, 201}),
                         std::vector<Community>{Community(100, 1)},
                         timestamp);
  return payload;
}

TEST(JournalRecords, EveryTypeRoundTrips) {
  std::vector<std::uint8_t> payload;

  WindowConfig config;
  config.epoch_seconds = 60;
  config.window_epochs = 7;
  config.classifier.min_gap = 9;
  config.classifier.ratio_threshold = 3.5;
  config.classifier.mean_of_ratios = true;
  config.observation.sibling_aware = false;
  encode_config_record(payload, config);
  JournalRecord record = decode_record(payload);
  EXPECT_EQ(record.type, RecordType::kConfig);
  EXPECT_EQ(record.config.epoch_seconds, 60u);
  EXPECT_EQ(record.config.window_epochs, 7u);
  EXPECT_EQ(record.config.classifier.min_gap, 9u);
  EXPECT_DOUBLE_EQ(record.config.classifier.ratio_threshold, 3.5);
  EXPECT_TRUE(record.config.classifier.mean_of_ratios);
  EXPECT_FALSE(record.config.observation.sibling_aware);

  payload.clear();
  encode_announce_record(payload, bgp::AsPath({61, 100, 201}),
                         std::vector<Community>{Community(100, 1),
                                                Community(300, 7)},
                         1234);
  record = decode_record(payload);
  EXPECT_EQ(record.type, RecordType::kAnnounce);
  EXPECT_EQ(record.timestamp, 1234u);
  ASSERT_EQ(record.path.length(), 3u);
  ASSERT_EQ(record.communities.size(), 2u);
  EXPECT_EQ(record.communities[1], Community(300, 7));

  payload.clear();
  encode_withdraw_record(payload, 777);
  record = decode_record(payload);
  EXPECT_EQ(record.type, RecordType::kWithdraw);
  EXPECT_EQ(record.timestamp, 777u);

  payload.clear();
  encode_epoch_record(payload, 42);
  record = decode_record(payload);
  EXPECT_EQ(record.type, RecordType::kEpoch);
  EXPECT_EQ(record.epoch, 42u);

  payload.clear();
  LabelChange change;
  change.community = Community(100, 1);
  change.previous = Intent::kUnclassified;
  change.current = Intent::kInformation;
  change.epoch = 5;
  encode_event_record(payload, 17, change);
  record = decode_record(payload);
  EXPECT_EQ(record.type, RecordType::kEvent);
  EXPECT_EQ(record.seq, 17u);
  EXPECT_EQ(record.change.community, Community(100, 1));
  EXPECT_EQ(record.change.previous, Intent::kUnclassified);
  EXPECT_EQ(record.change.current, Intent::kInformation);
  EXPECT_EQ(record.change.epoch, 5u);

  payload.clear();
  encode_reclassify_record(payload, 18, 4, 99);
  record = decode_record(payload);
  EXPECT_EQ(record.type, RecordType::kReclassify);
  EXPECT_EQ(record.first_seq, 18u);
  EXPECT_EQ(record.event_count, 4u);
  EXPECT_EQ(record.updates_since_reclassify, 99u);

  payload.clear();
  encode_decode_stats_record(payload, 1000, 3);
  record = decode_record(payload);
  EXPECT_EQ(record.type, RecordType::kDecodeStats);
  EXPECT_EQ(record.decode_ok, 1000u);
  EXPECT_EQ(record.decode_skipped, 3u);
}

TEST(JournalRecords, MalformedPayloadsThrow) {
  EXPECT_THROW((void)decode_record({}), JournalError);
  const std::vector<std::uint8_t> unknown_type = {99};
  EXPECT_THROW((void)decode_record(unknown_type), JournalError);
  // Truncated: an epoch record missing its u64.
  std::vector<std::uint8_t> truncated;
  encode_epoch_record(truncated, 42);
  truncated.resize(truncated.size() - 2);
  EXPECT_THROW((void)decode_record(truncated), JournalError);
  // Trailing garbage after a valid record.
  std::vector<std::uint8_t> trailing;
  encode_withdraw_record(trailing, 7);
  trailing.push_back(0);
  EXPECT_THROW((void)decode_record(trailing), JournalError);
}

TEST(JournalWriter, AppendScanRoundTrip) {
  const ScratchDir dir("roundtrip");
  {
    JournalWriter writer(small_segments(dir), 0);
    for (std::uint32_t i = 0; i < 10; ++i)
      writer.append(announce_payload(1000 + i));
    EXPECT_EQ(writer.next_record(), 10u);
    EXPECT_EQ(writer.stats().appends, 10u);
    EXPECT_GT(writer.stats().bytes, 0u);
    writer.close();
  }

  std::vector<std::uint32_t> timestamps;
  const ScanSummary summary = scan_journal(
      dir.str(), {},
      [&](const RecordLocation& location, std::span<const std::uint8_t> p) {
        EXPECT_EQ(location.index, timestamps.size());
        timestamps.push_back(decode_record(p).timestamp);
        return true;
      });
  EXPECT_FALSE(summary.torn);
  EXPECT_EQ(summary.records, 10u);
  ASSERT_EQ(summary.segments.size(), 1u);
  EXPECT_TRUE(summary.segments[0].sealed);
  ASSERT_EQ(timestamps.size(), 10u);
  EXPECT_EQ(timestamps[0], 1000u);
  EXPECT_EQ(timestamps[9], 1009u);
}

TEST(JournalWriter, RotatesSegmentsAndScanChecksContinuity) {
  const ScratchDir dir("rotate");
  {
    // ~60-byte frames against a 256-byte cap: every few appends rotate.
    JournalWriter writer(small_segments(dir, 256), 0);
    for (std::uint32_t i = 0; i < 50; ++i)
      writer.append(announce_payload(2000 + i));
    EXPECT_GT(writer.stats().rotations, 2u);
    writer.close();
  }
  const ScanSummary summary = scan_journal(dir.str());
  EXPECT_FALSE(summary.torn);
  EXPECT_EQ(summary.records, 50u);
  EXPECT_GT(summary.segments.size(), 2u);
  for (const SegmentInfo& segment : summary.segments)
    EXPECT_TRUE(segment.sealed) << segment.path;
  // Segments tile the record space without gaps.
  std::uint64_t next = 0;
  for (const SegmentInfo& segment : summary.segments) {
    EXPECT_EQ(segment.first_record, next);
    next += segment.records;
  }
  EXPECT_EQ(next, 50u);
}

TEST(JournalWriter, ResumesAppendingAfterCleanClose) {
  const ScratchDir dir("resume");
  const JournalConfig cfg = small_segments(dir);
  {
    JournalWriter writer(cfg, 0);
    for (std::uint32_t i = 0; i < 5; ++i)
      writer.append(announce_payload(3000 + i));
    writer.close();
  }
  {
    // A sealed active segment: the resumed writer starts a fresh one.
    JournalWriter writer(cfg, 5);
    EXPECT_EQ(writer.next_record(), 5u);
    for (std::uint32_t i = 0; i < 5; ++i)
      writer.append(announce_payload(3005 + i));
    writer.close();
  }
  const ScanSummary summary = scan_journal(dir.str());
  EXPECT_FALSE(summary.torn);
  EXPECT_EQ(summary.records, 10u);
  EXPECT_EQ(summary.segments.size(), 2u);
}

TEST(JournalWriter, ResumesIntoUnsealedSegment) {
  const ScratchDir dir("unsealed");
  const JournalConfig cfg = small_segments(dir);
  {
    JournalWriter writer(cfg, 0);
    for (std::uint32_t i = 0; i < 5; ++i)
      writer.append(announce_payload(4000 + i));
    writer.sync();
    // No close(): simulate a crash that left the segment unsealed.  The
    // destructor would seal, so leak the frames by abandoning the fd via
    // a fresh writer opened on the same directory after a hard stop.
    // (Destruction seals; to model the crash, truncate the footer off.)
  }
  // The destructor sealed; cut the footer back off to model the crash.
  const ScanSummary sealed = scan_journal(dir.str());
  ASSERT_EQ(sealed.segments.size(), 1u);
  const std::string segment = sealed.segments[0].path;
  const auto frames = [&] {
    std::ifstream in(segment, std::ios::binary);
    std::vector<std::uint8_t> bytes((std::istreambuf_iterator<char>(in)),
                                    std::istreambuf_iterator<char>());
    return bytes;
  }();
  const auto spans = index_segment_frames(frames);
  ASSERT_EQ(spans.size(), 6u);  // 5 records + footer
  fs::resize_file(segment, spans.back().offset);

  {
    JournalWriter writer(cfg, 5);
    EXPECT_EQ(writer.next_record(), 5u);
    writer.append(announce_payload(4005));
    writer.close();
  }
  const ScanSummary summary = scan_journal(dir.str());
  EXPECT_FALSE(summary.torn);
  EXPECT_EQ(summary.records, 6u);
  EXPECT_EQ(summary.segments.size(), 1u);  // appended in place
}

TEST(JournalScan, TornTailIsReportedTolerantlyAndThrowsStrict) {
  const ScratchDir dir("torn");
  {
    JournalWriter writer(small_segments(dir), 0);
    for (std::uint32_t i = 0; i < 8; ++i)
      writer.append(announce_payload(5000 + i));
    writer.close();
  }
  const ScanSummary clean = scan_journal(dir.str());
  ASSERT_EQ(clean.segments.size(), 1u);
  const std::string segment = clean.segments[0].path;
  // Cut mid-way through the last record's frame (frame index 7; the
  // footer behind it is lost with the tail).
  const std::vector<std::uint8_t> image = [&] {
    std::ifstream in(segment, std::ios::binary);
    return std::vector<std::uint8_t>(std::istreambuf_iterator<char>(in),
                                     std::istreambuf_iterator<char>());
  }();
  const auto spans = index_segment_frames(image);
  ASSERT_GE(spans.size(), 8u);
  fs::resize_file(segment, spans[7].offset + 3);

  const ScanSummary torn = scan_journal(dir.str());
  EXPECT_TRUE(torn.torn);
  EXPECT_FALSE(torn.torn_detail.empty());
  EXPECT_EQ(torn.records, 7u);  // the intact prefix survives

  ScanOptions strict;
  strict.strict = true;
  EXPECT_THROW((void)scan_journal(dir.str(), strict), JournalError);
}

TEST(JournalScan, MissingDirectoryScansEmpty) {
  const ScanSummary summary =
      scan_journal(test_support::unique_temp_path("nonexistent"));
  EXPECT_EQ(summary.records, 0u);
  EXPECT_TRUE(summary.segments.empty());
  EXPECT_FALSE(summary.torn);
}

TEST(JournalScan, SinkCanStopEarly) {
  const ScratchDir dir("stop");
  {
    JournalWriter writer(small_segments(dir), 0);
    for (std::uint32_t i = 0; i < 8; ++i)
      writer.append(announce_payload(6000 + i));
    writer.close();
  }
  std::size_t seen = 0;
  const ScanSummary summary = scan_journal(
      dir.str(), {},
      [&](const RecordLocation&, std::span<const std::uint8_t>) {
        return ++seen < 3;
      });
  EXPECT_EQ(seen, 3u);
  EXPECT_FALSE(summary.torn);
}

TEST(FsyncPolicy, NamesRoundTrip) {
  for (const FsyncPolicy policy :
       {FsyncPolicy::kNever, FsyncPolicy::kInterval,
        FsyncPolicy::kEveryRecord}) {
    const auto parsed = parse_fsync_policy(to_string(policy));
    ASSERT_TRUE(parsed);
    EXPECT_EQ(*parsed, policy);
  }
  EXPECT_FALSE(parse_fsync_policy("sometimes"));
}

TEST(JournalWriter, EveryRecordPolicySyncsPerAppend) {
  const ScratchDir dir("fsync");
  JournalConfig cfg = small_segments(dir);
  cfg.fsync = FsyncPolicy::kEveryRecord;
  JournalWriter writer(cfg, 0);
  writer.append(announce_payload(1));
  writer.append(announce_payload(2));
  EXPECT_GE(writer.stats().fsyncs, 2u);
  writer.close();
}

TEST(Checkpoint, SaveLoadRoundTripsEngineState) {
  const ScratchDir dir("ckpt");
  StreamEngine engine;
  bgp::RibEntry entry;
  entry.route.prefix = *bgp::Prefix::parse("10.0.0.0/24");
  entry.route.path = bgp::AsPath({61, 100, 201});
  entry.route.communities = {Community(100, 1)};
  engine.announce(entry, 100);
  engine.reclassify();

  save_checkpoint(dir.str(), 123, engine.encode_image());

  const auto checkpoints = list_checkpoints(dir.str());
  ASSERT_EQ(checkpoints.size(), 1u);
  EXPECT_EQ(checkpoints[0].first, 123u);

  const StateImage loaded = load_checkpoint(checkpoints[0].second);
  EXPECT_TRUE(wire::same_window_config(loaded.config, engine.config()));
  EXPECT_TRUE(loaded.state.window.paths.empty());  // the paths are columns
  EXPECT_EQ(loaded.paths.size(), 1u);

  // Restoring into a fresh engine reproduces the canonical image.
  StreamEngine restored;
  restored.restore_state(loaded.state, loaded.paths);
  EXPECT_TRUE(restored.export_state() == engine.export_state());
  EXPECT_EQ(restored.label_of(Community(100, 1)), Intent::kInformation);
}

TEST(Checkpoint, CorruptFilesAreRefused) {
  const ScratchDir dir("ckpt_bad");
  const std::vector<std::uint8_t> image = StreamEngine().encode_image();
  save_checkpoint(dir.str(), 7, image);
  const std::string path = checkpoint_path(dir.str(), 7);

  // Flip one byte of the first segment (meta, at the 64-byte boundary):
  // checksum mismatch.
  {
    std::fstream file(path, std::ios::in | std::ios::out | std::ios::binary);
    file.seekp(64 + 3);
    file.put('\xff');
  }
  EXPECT_THROW((void)load_checkpoint(path), JournalError);

  // Truncated header.
  fs::resize_file(path, 12);
  EXPECT_THROW((void)load_checkpoint(path), JournalError);

  EXPECT_THROW((void)load_checkpoint(dir.str() + "/missing.ckpt"),
               JournalError);

  // Every byte is validated: each single-bit flip anywhere in the file and
  // each truncation length is refused with a JournalError.
  ASSERT_GT(image.size(), 64u);
  for (std::size_t i = 0; i < image.size(); ++i)
    for (unsigned bit = 0; bit < 8; ++bit) {
      std::vector<std::uint8_t> damaged = image;
      damaged[i] ^= static_cast<std::uint8_t>(1u << bit);
      write_whole(path, damaged);
      EXPECT_THROW((void)load_checkpoint(path), JournalError)
          << "byte " << i << " bit " << bit;
    }
  for (std::size_t length = 0; length < image.size(); ++length) {
    write_whole(path, std::span(image).first(length));
    EXPECT_THROW((void)load_checkpoint(path), JournalError)
        << "length " << length;
  }
}

TEST(Checkpoint, OlderVersionIsRefusedWithAVersionMessage) {
  const ScratchDir dir("ckpt_v1");
  std::vector<std::uint8_t> image = StreamEngine().encode_image();
  image[8] = 1;  // u32 LE version field
  const std::string path = checkpoint_path(dir.str(), 7);
  write_whole(path, image);
  try {
    (void)load_checkpoint(path);
    FAIL() << "a version-1 image must be refused";
  } catch (const JournalError& error) {
    const std::string what = error.what();
    EXPECT_NE(what.find("version 1"), std::string::npos) << what;
    EXPECT_NE(what.find(util::format("version %u", kImageVersion)),
              std::string::npos)
        << what;
  }

  // A row-format checkpoint (format 2, the format before the state image)
  // is refused with the same guidance and left as it is.
  std::vector<std::uint8_t> legacy = {'B', 'G', 'P', 'I', 'J', 'C', 'K', 'P'};
  util::put<std::uint32_t>(legacy, 2);
  legacy.resize(64, 0);
  write_whole(path, legacy);
  try {
    (void)load_checkpoint(path);
    FAIL() << "a format-2 checkpoint must be refused";
  } catch (const JournalError& error) {
    const std::string what = error.what();
    EXPECT_NE(what.find("checkpoint format 2 is no longer supported"),
              std::string::npos)
        << what;
    EXPECT_NE(what.find("re-ingest"), std::string::npos) << what;
  }
  EXPECT_EQ(read_whole(path), legacy);
}

}  // namespace
}  // namespace bgpintent::stream
