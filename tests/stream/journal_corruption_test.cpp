// Journal corruption fuzz sweep (docs/ROBUSTNESS.md): seeded
// truncation / bit-flip / splice / length-lie damage on journal segments,
// plus targeted checksum-field, footer (hash and count) and whole-segment
// faults.  The contract under test: tolerant recovery keeps every record
// before the first damaged frame, or before a segment whose seal disagrees
// with its frames, and physically truncates the rest; strict recovery
// refuses with an actionable error.
#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include "mrt/fault.hpp"
#include "mrt/source.hpp"
#include "stream/engine.hpp"
#include "stream/journal.hpp"
#include "stream/recovery.hpp"
#include "stream/synth.hpp"
#include "util/checksum.hpp"
#include "util/strings.hpp"

namespace bgpintent::stream {
namespace {

namespace fs = std::filesystem;

/// Journal frames: 12-byte header = payload length u32 LE + XXH64 u64 LE.
constexpr mrt::FrameLayout kJournalFrameLayout{kFrameHeaderBytes, 0, false};

std::vector<std::uint8_t> read_file(const fs::path& path) {
  std::ifstream in(path, std::ios::binary);
  return {std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>()};
}

void write_file(const fs::path& path, std::span<const std::uint8_t> bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(reinterpret_cast<const char*>(bytes.data()),
            static_cast<std::streamsize>(bytes.size()));
  ASSERT_TRUE(out.good());
}

/// One sealed multi-segment journal, built once and copied per case.
struct BaseJournal {
  fs::path dir;
  ScanSummary scan;

  BaseJournal() {
    dir = fs::path(::testing::TempDir()) /
          util::format("bgpintent_corrupt_base_%d", ::getpid());
    fs::remove_all(dir);
    fs::create_directories(dir);

    SynthStreamConfig cfg;
    cfg.scenario.topology.seed = 47;
    cfg.scenario.topology.tier1_count = 4;
    cfg.scenario.topology.tier2_count = 12;
    cfg.scenario.topology.stub_count = 60;
    cfg.scenario.vantage_point_count = 8;
    cfg.epochs = 3;
    cfg.epoch_seconds = 600;
    const SynthStream synth = generate_update_stream(cfg);

    JournalConfig journal;
    journal.directory = dir.string();
    journal.max_segment_bytes = 4096;  // force several segments
    journal.fsync = FsyncPolicy::kNever;
    {
      StreamEngine engine;
      engine.attach_journal(std::make_unique<JournalWriter>(journal, 0));
      engine.ingest(
          mrt::BufferSource{std::vector<std::uint8_t>(synth.bytes)});
      // No detach: the writer destructor seals without a checkpoint, so
      // every recovery below replays from record 0 — corruption anywhere
      // in the record space is exercised, not hidden behind a checkpoint.
    }
    scan = scan_journal(dir.string());
  }
  ~BaseJournal() {
    std::error_code ec;
    fs::remove_all(dir, ec);
  }
};

const BaseJournal& base() {
  static const BaseJournal journal;
  return journal;
}

struct CaseDir {
  fs::path path;
  explicit CaseDir(const std::string& tag) {
    path = fs::path(::testing::TempDir()) /
           util::format("bgpintent_corrupt_%s_%d", tag.c_str(), ::getpid());
    fs::remove_all(path);
    fs::copy(base().dir, path, fs::copy_options::recursive);
  }
  ~CaseDir() {
    std::error_code ec;
    fs::remove_all(path, ec);
  }
};

JournalConfig case_config(const CaseDir& dir) {
  JournalConfig cfg;
  cfg.directory = dir.path.string();
  cfg.max_segment_bytes = 4096;
  cfg.fsync = FsyncPolicy::kNever;
  return cfg;
}

/// Applies one seeded corruption to segment `segment_index` of a copy of
/// the base journal and returns the global index of the first record that
/// can no longer be trusted (== total records when only the footer or
/// padding was hit).
std::uint64_t corrupt_segment(const CaseDir& dir, std::size_t segment_index,
                              mrt::CorruptionKind kind, std::uint64_t seed) {
  const SegmentInfo& segment = base().scan.segments[segment_index];
  const fs::path target =
      dir.path / fs::path(segment.path).filename();
  const std::vector<std::uint8_t> image = read_file(target);
  const std::vector<mrt::RecordSpan> spans = index_segment_frames(image);
  const mrt::CorruptionResult result =
      mrt::corrupt_spans(image, spans, kJournalFrameLayout, kind, seed);
  write_file(target, result.bytes);
  const std::uint64_t first_touched =
      *std::min_element(result.touched_records.begin(),
                        result.touched_records.end());
  return segment.first_record + std::min(first_touched, segment.records);
}

void expect_tolerant_keeps_prefix(const CaseDir& dir,
                                  std::uint64_t intact_prefix,
                                  const std::string& label) {
  RecoveryReport report;
  std::unique_ptr<StreamEngine> engine;
  ASSERT_NO_THROW(engine = recover_stream(case_config(dir), {}, &report))
      << label;
  EXPECT_EQ(report.journal_records, intact_prefix) << label;
  // The damaged tail was physically removed: the journal scans clean at
  // exactly the surviving prefix.
  engine->detach_journal();
  const ScanSummary after = scan_journal(dir.path.string());
  EXPECT_FALSE(after.torn) << label;
  EXPECT_EQ(after.records, intact_prefix) << label;
}

void expect_strict_refuses(const CaseDir& dir, const std::string& label) {
  RecoveryOptions strict;
  strict.strict = true;
  try {
    (void)recover_stream(case_config(dir), strict);
    FAIL() << label << ": strict recovery accepted a corrupt journal";
  } catch (const JournalError& error) {
    EXPECT_FALSE(std::string(error.what()).empty()) << label;
  }
}

TEST(JournalCorruption, BaseJournalIsMultiSegmentAndClean) {
  const ScanSummary& scan = base().scan;
  ASSERT_GE(scan.segments.size(), 3u)
      << "fuzz sweep needs middle segments to aim at";
  EXPECT_FALSE(scan.torn);
  EXPECT_GT(scan.records, 100u);
  for (const SegmentInfo& segment : scan.segments)
    EXPECT_TRUE(segment.sealed) << segment.path;
}

TEST(JournalCorruption, SweepOverKindsAndSeedsOnTheLastSegment) {
  const std::size_t last = base().scan.segments.size() - 1;
  for (const mrt::CorruptionKind kind : mrt::kAllCorruptionKinds) {
    for (std::uint64_t seed = 1; seed <= 3; ++seed) {
      const std::string label =
          util::format("last:%s:seed%llu", mrt::to_string(kind).data(),
                       static_cast<unsigned long long>(seed));
      {
        CaseDir tolerant(label + "_tol");
        const std::uint64_t prefix =
            corrupt_segment(tolerant, last, kind, seed);
        expect_tolerant_keeps_prefix(tolerant, prefix, label);
      }
      {
        CaseDir strict(label + "_strict");
        (void)corrupt_segment(strict, last, kind, seed);
        expect_strict_refuses(strict, label);
      }
    }
  }
}

TEST(JournalCorruption, SweepOnAMiddleSegmentDropsAllLaterSegments) {
  const std::size_t middle = base().scan.segments.size() / 2;
  ASSERT_GT(middle, 0u);
  for (const mrt::CorruptionKind kind : mrt::kAllCorruptionKinds) {
    const std::string label =
        util::format("middle:%s", mrt::to_string(kind).data());
    CaseDir tolerant(label + "_tol");
    const std::uint64_t prefix = corrupt_segment(tolerant, middle, kind, 7);
    expect_tolerant_keeps_prefix(tolerant, prefix, label);

    CaseDir strict(label + "_strict");
    (void)corrupt_segment(strict, middle, kind, 7);
    expect_strict_refuses(strict, label);
  }
}

TEST(JournalCorruption, BadChecksumInAFrameHeaderIsDetected) {
  // Flip one bit inside the stored checksum field itself (header offset
  // 4..12):
  // the payload is untouched but no longer matches its checksum.  Aim at
  // the fullest non-head segment so the cut lands between records.
  std::size_t pick = 1;
  for (std::size_t i = 1; i < base().scan.segments.size(); ++i)
    if (base().scan.segments[i].records >
        base().scan.segments[pick].records)
      pick = i;
  const SegmentInfo& segment = base().scan.segments[pick];
  ASSERT_GT(segment.records, 1u);

  CaseDir dir("badcrc");
  const fs::path target = dir.path / fs::path(segment.path).filename();
  std::vector<std::uint8_t> image = read_file(target);
  const std::vector<mrt::RecordSpan> spans = index_segment_frames(image);
  const std::size_t victim = spans.size() / 2;
  image[spans[victim].offset + 4] ^= 0x01;
  write_file(target, image);

  const std::uint64_t prefix = segment.first_record + victim;
  expect_tolerant_keeps_prefix(dir, prefix, "badcrc-tolerant");

  CaseDir strict_dir("badcrc_strict");
  const fs::path strict_target =
      strict_dir.path / fs::path(segment.path).filename();
  std::vector<std::uint8_t> strict_image = read_file(strict_target);
  strict_image[spans[victim].offset + 4] ^= 0x01;
  write_file(strict_target, strict_image);
  expect_strict_refuses(strict_dir, "badcrc-strict");
}

// Two whole frames of a sealed segment trade places: each still passes its
// own checksum and the record count is unchanged, so only the footer hash,
// which chains the frame checksums in order, can tell.  Only the seal
// vouches for the order of its frames, so the segment contributes none of
// its records: the valid prefix ends at its first record.
TEST(JournalCorruption, SwappedFramesBreakTheFooterHash) {
  const std::size_t middle = base().scan.segments.size() / 2;
  const SegmentInfo& segment = base().scan.segments[middle];
  ASSERT_TRUE(segment.sealed);

  const auto swap_frames = [&](const CaseDir& dir) {
    const fs::path target = dir.path / fs::path(segment.path).filename();
    const std::vector<std::uint8_t> image = read_file(target);
    const std::vector<mrt::RecordSpan> spans = index_segment_frames(image);
    ASSERT_GE(spans.size(), 3u);  // two records + footer
    // The first two frames are adjacent: rotating their bytes swaps them.
    std::vector<std::uint8_t> swapped = image;
    const auto at = [&](std::uint64_t offset) {
      return swapped.begin() + static_cast<std::ptrdiff_t>(offset);
    };
    std::rotate(at(spans[0].offset), at(spans[1].offset),
                at(spans[1].offset + spans[1].length));
    ASSERT_NE(swapped, image);
    write_file(target, swapped);
  };

  CaseDir dir("swapped");
  swap_frames(dir);
  const ScanSummary scan = scan_journal(dir.path.string());
  EXPECT_TRUE(scan.torn);
  EXPECT_NE(scan.torn_detail.find("footer hash"), std::string::npos)
      << scan.torn_detail;
  EXPECT_EQ(scan.records, segment.first_record);
  expect_tolerant_keeps_prefix(dir, segment.first_record, "swapped");

  CaseDir strict_dir("swapped_strict");
  swap_frames(strict_dir);
  expect_strict_refuses(strict_dir, "swapped-strict");
}

/// Rewrites the record count in `segment`'s footer and re-checksums the
/// footer frame, so every frame still passes its own checksum.
void lie_about_footer_count(const CaseDir& dir, const SegmentInfo& segment) {
  const fs::path target = dir.path / fs::path(segment.path).filename();
  std::vector<std::uint8_t> image = read_file(target);
  const std::vector<mrt::RecordSpan> spans = index_segment_frames(image);
  const mrt::RecordSpan& footer = spans.back();
  const std::size_t payload = footer.offset + kFrameHeaderBytes;
  ASSERT_EQ(image[payload], static_cast<std::uint8_t>(RecordType::kFooter));
  image[payload + 1] ^= 0x01;  // count u64 LE, low byte
  const std::uint64_t checksum = util::xxh64(
      std::span(image).subspan(payload, footer.length - kFrameHeaderBytes));
  for (std::size_t i = 0; i < 8; ++i)
    image[footer.offset + 4 + i] =
        static_cast<std::uint8_t>(checksum >> (8 * i));
  write_file(target, image);
}

// A seal whose record count lies disagrees with its frames like a broken
// hash does: the segment contributes none of its records.
TEST(JournalCorruption, LyingFooterCountDropsTheWholeSegment) {
  const SegmentInfo& segment =
      base().scan.segments[base().scan.segments.size() / 2];
  ASSERT_TRUE(segment.sealed);

  CaseDir dir("lyingcount");
  lie_about_footer_count(dir, segment);
  const ScanSummary scan = scan_journal(dir.path.string());
  EXPECT_TRUE(scan.torn);
  EXPECT_NE(scan.torn_detail.find("footer claims"), std::string::npos)
      << scan.torn_detail;
  EXPECT_EQ(scan.records, segment.first_record);
  expect_tolerant_keeps_prefix(dir, segment.first_record, "lyingcount");

  CaseDir strict_dir("lyingcount_strict");
  lie_about_footer_count(strict_dir, segment);
  expect_strict_refuses(strict_dir, "lyingcount-strict");
}

// No record of a dropped segment feeds recovery, the config in record 0
// included: with the first segment's seal broken, the caller's config wins.
TEST(JournalCorruption, ADroppedFirstSegmentYieldsNoConfig) {
  const SegmentInfo& segment = base().scan.segments[0];
  ASSERT_TRUE(segment.sealed);
  CaseDir dir("lyingfirst");
  lie_about_footer_count(dir, segment);

  RecoveryOptions options;
  options.config.window_epochs = 5;  // the journal's record 0 says 168
  RecoveryReport report;
  std::unique_ptr<StreamEngine> engine;
  ASSERT_NO_THROW(engine = recover_stream(case_config(dir), options, &report));
  EXPECT_EQ(report.journal_records, 0u);
  EXPECT_FALSE(report.config_overridden);
  EXPECT_EQ(engine->config().window_epochs, 5u);
  // The writer resumed in a fresh segment 0, headed by the caller's config.
  engine->detach_journal();
  const ScanSummary after = scan_journal(dir.path.string());
  EXPECT_FALSE(after.torn) << after.torn_detail;
  EXPECT_EQ(after.records, 1u);
}

TEST(JournalCorruption, MissingMiddleSegmentBreaksContinuity) {
  // A spliced-out segment file: the record index jumps across the hole, so
  // the scan tears at the end of the preceding segment.
  const std::size_t middle = base().scan.segments.size() / 2;
  const SegmentInfo& removed = base().scan.segments[middle];

  CaseDir dir("splicedseg");
  fs::remove(dir.path / fs::path(removed.path).filename());
  const ScanSummary torn = scan_journal(dir.path.string());
  ASSERT_TRUE(torn.torn);
  expect_tolerant_keeps_prefix(dir, removed.first_record, "splicedseg");

  CaseDir strict_dir("splicedseg_strict");
  fs::remove(strict_dir.path / fs::path(removed.path).filename());
  expect_strict_refuses(strict_dir, "splicedseg-strict");
}

TEST(JournalCorruption, CorruptSegmentHeaderDropsTheWholeSegment) {
  const std::size_t last = base().scan.segments.size() - 1;
  const SegmentInfo& segment = base().scan.segments[last];

  CaseDir dir("badheader");
  const fs::path target = dir.path / fs::path(segment.path).filename();
  std::vector<std::uint8_t> image = read_file(target);
  ASSERT_GE(image.size(), kSegmentHeaderBytes);
  image[3] ^= 0x40;  // damage the magic
  write_file(target, image);

  expect_tolerant_keeps_prefix(dir, segment.first_record, "badheader");

  CaseDir strict_dir("badheader_strict");
  const fs::path strict_target =
      strict_dir.path / fs::path(segment.path).filename();
  std::vector<std::uint8_t> strict_image = read_file(strict_target);
  strict_image[3] ^= 0x40;
  write_file(strict_target, strict_image);
  expect_strict_refuses(strict_dir, "badheader-strict");
}

}  // namespace
}  // namespace bgpintent::stream
