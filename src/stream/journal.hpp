// Segmented, checksummed write-ahead journal for the stream engine.
//
// A journaled StreamEngine appends every update it applies — announcements,
// withdrawals, epoch-advance markers, label-change events, and the
// reclassification-pass markers that seal them — to an append-only journal
// *before* the corresponding events are published to subscribers.  Replaying
// the journal into a fresh engine therefore reproduces labels, event
// sequence numbers, and window ring contents bit-identically (the events
// themselves are a deterministic function of the evidence plus the pass
// boundaries, so replay regenerates them and the journaled copies double as
// cross-checks).  Recovery is checkpoint-load plus bounded tail replay; see
// stream/recovery.hpp and docs/STREAMING.md §6 for the full story.
//
// On-disk layout (all integers little-endian; every checksum is
// util::xxh64):
//
//   segment file  journal-<first-record-index>.seg
//     offset  size  field
//     0       8     magic "BGPIJSEG"
//     8       4     format version (u32, = kJournalVersion)
//     12      8     index of the first record framed in this segment (u64)
//     20      8     XXH64 of bytes [8, 20)
//     28      ...   frames
//
//   frame (one per record, plus one trailing footer frame per sealed
//   segment)
//     offset  size  field
//     0       4     payload length N (u32)
//     4       8     XXH64 of the payload bytes (u64)
//     12      N     payload; payload[0] is the RecordType
//
//   footer payload (RecordType::kFooter; does not consume a record index)
//     type u8 · record count u64 · footer hash u64, where the footer hash
//     chains the segment's record-frame checksums in order:
//     h = 0, then h = xxh64(h ‖ c) per frame checksum c
//
// Segments rotate when they exceed JournalConfig::max_segment_bytes: the
// writer seals the current file with a footer frame and opens the next one,
// named after the next record index (so the file name alone orders and
// frames the record space).  Recovery scans and verifies every segment
// and requires record-index contiguity from 0 — segments must never be
// pruned by hand, even below a checkpoint: a missing or corrupt early
// segment reads as a hole, truncating recoverable state at that point.
// A segment without a footer is simply the active tail — a crash mid-write
// leaves a torn final frame, which recovery truncates (tolerant) or refuses
// (strict).
//
// Group commit.  The writer frames records into one buffer it owns and
// hands the buffer to the kernel in a single write(2) when it passes a
// fixed size (64 KiB), on flush(), on sync(), at rotation and at close.
// The engine keeps two guarantees on top (stream/engine.hpp):
//   - write-ahead: no event enters the event log, published_seq() or the
//     publish hook before every frame up to its event record has gone to
//     write(2);
//   - return means handed over: when an engine call that appended records
//     returns, every one of them has gone to write(2).
// So a process crash under FsyncPolicy::kNever loses at most the unflushed
// frames of an engine call still in progress — never a published event or
// a record of a call that returned.  Buffering changes no byte on disk:
// segment contents, rotation points and fsync points are those of one
// write per frame.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

#include "bgp/aspath.hpp"
#include "bgp/community.hpp"
#include "mrt/fault.hpp"
#include "stream/window.hpp"

namespace bgpintent::stream {

/// Thrown on malformed, corrupt, or unwritable journal state.  In tolerant
/// recovery most of these become a truncation point instead of a throw.
class JournalError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// The segment format version this build writes.  A segment of any other
/// version is refused with a JournalError, in strict and tolerant mode
/// alike, and left untouched.
inline constexpr std::uint32_t kJournalVersion = 2;

/// Bytes of a segment header (magic + version + first index + checksum).
inline constexpr std::size_t kSegmentHeaderBytes = 28;

/// Bytes of a frame header (payload length + payload checksum).
inline constexpr std::size_t kFrameHeaderBytes = 12;

/// When appended bytes are pushed through fdatasync (docs/STREAMING.md §6
/// spells out the trade-offs; the default is kInterval).
enum class FsyncPolicy : std::uint8_t {
  kNever,        ///< rely on the OS page cache; fastest, widest loss window
  /// flush and fdatasync once fsync_interval_bytes were appended since the
  /// last fdatasync, and at rotation
  kInterval,
  kEveryRecord,  ///< write and fdatasync every append; slowest, loses nothing
};

[[nodiscard]] std::string_view to_string(FsyncPolicy policy) noexcept;
/// Parses "never" / "interval" / "every-record".
[[nodiscard]] std::optional<FsyncPolicy> parse_fsync_policy(
    std::string_view name) noexcept;

struct JournalConfig {
  std::string directory;
  /// Rotation threshold: a segment is sealed once its size (header plus
  /// frames) reaches this many bytes.  Small values are useful in tests.
  std::uint64_t max_segment_bytes = 4ull << 20;
  FsyncPolicy fsync = FsyncPolicy::kInterval;
  /// kInterval only: bytes appended between fdatasync calls.
  std::uint64_t fsync_interval_bytes = 1ull << 20;
};

// --- Records ---------------------------------------------------------------

enum class RecordType : std::uint8_t {
  kConfig = 1,      ///< WindowConfig of a fresh journal (always record 0)
  kAnnounce = 2,    ///< timestamp + AS path + communities of one update
  kWithdraw = 3,    ///< timestamp of one withdrawal
  kEpoch = 4,       ///< window epoch advanced to `epoch` (cross-check)
  kEvent = 5,       ///< one sequenced label-change event (cross-check)
  kReclassify = 6,  ///< seals one reclassification pass
  kDecodeStats = 7, ///< end-of-source decode counter fold
  kFooter = 8,      ///< segment seal; never consumes a record index
};

[[nodiscard]] std::string_view to_string(RecordType type) noexcept;

/// One decoded journal record.  Only the fields of the tagged `type` are
/// meaningful; the rest stay default-constructed.
struct JournalRecord {
  RecordType type{};

  WindowConfig config;  ///< kConfig

  std::uint32_t timestamp = 0;         ///< kAnnounce / kWithdraw
  bgp::AsPath path;                    ///< kAnnounce
  std::vector<Community> communities;  ///< kAnnounce

  std::uint64_t epoch = 0;  ///< kEpoch

  std::uint64_t seq = 0;  ///< kEvent
  LabelChange change;     ///< kEvent

  std::uint64_t first_seq = 0;    ///< kReclassify: seq of the pass's first event
  std::uint64_t event_count = 0;  ///< kReclassify: events the pass emitted
  /// kReclassify: the engine's reclassify-cadence counter after the pass
  /// (0 when the pass was batch-triggered), so replay keeps the same
  /// mid-stream reclassification boundaries as the original run.
  std::uint64_t updates_since_reclassify = 0;

  std::uint64_t decode_ok = 0;       ///< kDecodeStats
  std::uint64_t decode_skipped = 0;  ///< kDecodeStats
};

/// Encoders append one record payload (type byte included) into `out`
/// without clearing it first.
void encode_config_record(std::vector<std::uint8_t>& out,
                          const WindowConfig& config);
void encode_announce_record(std::vector<std::uint8_t>& out,
                            const bgp::AsPath& path,
                            std::span<const Community> communities,
                            std::uint32_t timestamp);
void encode_withdraw_record(std::vector<std::uint8_t>& out,
                            std::uint32_t timestamp);
void encode_epoch_record(std::vector<std::uint8_t>& out, std::uint64_t epoch);
void encode_event_record(std::vector<std::uint8_t>& out, std::uint64_t seq,
                         const LabelChange& change);
void encode_reclassify_record(std::vector<std::uint8_t>& out,
                              std::uint64_t first_seq,
                              std::uint64_t event_count,
                              std::uint64_t updates_since_reclassify);
void encode_decode_stats_record(std::vector<std::uint8_t>& out,
                                std::uint64_t decode_ok,
                                std::uint64_t decode_skipped);

/// Decodes one record payload.  Throws JournalError on malformed input
/// (unknown type, truncated fields, trailing bytes, invalid intents).
[[nodiscard]] JournalRecord decode_record(std::span<const std::uint8_t> payload);

/// In-place variant: decodes into `record`, reusing its path and community
/// buffers, so a replay loop that keeps one JournalRecord decodes without
/// allocating.  Only the fields of the decoded type are assigned; the
/// others keep whatever an earlier record left there.  On throw `record`
/// holds unspecified contents.
void decode_record(std::span<const std::uint8_t> payload, JournalRecord& record);

// --- Writer ----------------------------------------------------------------

/// Cumulative writer-side counters (per process; recovery counters live on
/// the engine).  Surfaced through EngineStats and serve STATS.
struct JournalWriterStats {
  std::uint64_t appends = 0;  ///< record frames appended
  /// bytes appended (headers, frames, footers), buffered or written
  std::uint64_t bytes = 0;
  std::uint64_t fsyncs = 0;
  std::uint64_t rotations = 0;
};

/// Appends framed records to the active segment of a journal directory,
/// rotating and fsyncing per JournalConfig.  Frames collect in a
/// writer-owned buffer that reaches the file in one write(2) per flush
/// (see the file comment).  Not thread-safe: the stream engine calls it
/// under its own mutex.
class JournalWriter {
 public:
  /// Opens the directory (creating it if missing) for appending with
  /// `next_record` as the index of the next appended record; segments
  /// framing records >= next_record are deleted.  A fresh directory starts
  /// segment journal-0.seg.  Throws JournalError on IO failure or when the
  /// active segment is torn (recovery truncates torn tails first).
  JournalWriter(JournalConfig config, std::uint64_t next_record);
  ~JournalWriter();

  JournalWriter(const JournalWriter&) = delete;
  JournalWriter& operator=(const JournalWriter&) = delete;

  /// Frames one record payload into the buffer; applies the fsync policy
  /// and rotates the segment afterwards when it crossed
  /// max_segment_bytes.  The frame reaches write(2) when the buffer passes
  /// 64 KiB, or at the next flush(), sync(), rotation or close(); under
  /// kEveryRecord before append returns.  Throws JournalError on IO
  /// failure (of this frame or of earlier buffered ones).
  void append(std::span<const std::uint8_t> payload);

  /// Hands every buffered frame to write(2) in one call; no fdatasync.
  /// A no-op when nothing is buffered.  Throws JournalError when the
  /// write fails; the bytes the kernel did not take stay buffered.
  void flush();

  /// flush(), then fdatasync of the active segment regardless of policy
  /// (skipped when nothing was appended since the last one).
  void sync();

  /// Seals the active segment with a footer frame, flushes it and closes
  /// the file.  Called by the destructor when not invoked explicitly;
  /// explicit calls get IO errors as exceptions instead of swallowed.
  void close();

  [[nodiscard]] const JournalConfig& config() const noexcept { return config_; }
  [[nodiscard]] const JournalWriterStats& stats() const noexcept {
    return stats_;
  }
  /// Index the next appended record will get.
  [[nodiscard]] std::uint64_t next_record() const noexcept {
    return next_record_;
  }

 private:
  void open_segment(std::uint64_t first_record, bool fresh);
  /// Frames one payload into the buffer; returns the checksum it stored.
  std::uint64_t buffer_frame(std::span<const std::uint8_t> payload);
  void seal_segment();
  void fsync_policy_tick();

  JournalConfig config_;
  int fd_ = -1;
  std::string segment_path_;
  std::uint64_t next_record_ = 0;
  std::uint64_t segment_first_record_ = 0;
  std::uint64_t segment_bytes_ = 0;   // bytes appended to the active segment
  std::uint64_t segment_records_ = 0; // records framed in the active segment
  std::uint64_t footer_hash_ = 0;     // chain over record-frame checksums
  std::uint64_t unsynced_bytes_ = 0;  // appended since the last fdatasync
  JournalWriterStats stats_;
  bool closed_ = false;
  /// Appended bytes not yet handed to write(2); the active segment's tail.
  std::vector<std::uint8_t> pending_;
};

// --- Scanner ---------------------------------------------------------------

/// One segment file as found on disk, in record order.
struct SegmentInfo {
  std::string path;
  std::uint64_t first_record = 0;
  std::uint64_t records = 0;     ///< valid records framed (footer excluded)
  std::uint64_t bytes = 0;       ///< file size on disk
  std::uint64_t valid_bytes = 0; ///< prefix ending after the last valid frame
  bool sealed = false;           ///< ends in a verified footer frame
};

/// Which record a scan delivers, for truncation bookkeeping.
struct RecordLocation {
  std::uint64_t index = 0;  ///< global record index
};

struct ScanSummary {
  std::vector<SegmentInfo> segments;
  std::uint64_t records = 0;  ///< total valid records across segments
  bool torn = false;          ///< a torn/corrupt frame (or segment) was hit
  std::string torn_detail;    ///< human-readable description of the tear
};

struct ScanOptions {
  /// Strict scans throw JournalError at the first torn or corrupt frame;
  /// tolerant scans stop there and report it in the summary.
  bool strict = false;
  /// Segments holding only records below this index are not read: the
  /// scan starts at the segment that holds it and counts the records
  /// before it from the segment names.  Only for a directory whose prefix
  /// an earlier scan verified (recovery's replay); the summary then lists
  /// only the segments read.
  std::uint64_t from_record = 0;
};

/// Callback per valid record, in index order.  Returning false stops the
/// scan early (used by replay consistency checks to convert a logical
/// error into a truncation point).
using RecordSink =
    std::function<bool(const RecordLocation&, std::span<const std::uint8_t>)>;

/// Scans every journal-*.seg of `directory` in record order, verifying
/// headers, frame checksums, footers, and cross-segment record-index
/// continuity.  A segment's records reach the sink only after its footer
/// (if any) verified; a sealed segment whose footer disagrees with its
/// frames contributes no records.  Missing directories scan as empty.
/// The sink may be null (pure validation scan).  A segment of another
/// format version throws JournalError even in a tolerant scan.
[[nodiscard]] ScanSummary scan_journal(const std::string& directory,
                                       const ScanOptions& options = {},
                                       const RecordSink& sink = nullptr);

/// One frame read from a segment image: its payload and stored checksum,
/// or `error` naming why no valid frame starts there (torn header or
/// payload, implausible length, checksum mismatch).
struct FrameRead {
  std::span<const std::uint8_t> payload;
  std::uint64_t checksum = 0;
  std::string error;
};

/// Reads the frame at byte `offset` of a segment image and verifies its
/// checksum.  The one frame walker: scans, recovery truncation and
/// index_segment_frames all step through segments with it.
[[nodiscard]] FrameRead read_frame(std::span<const std::uint8_t> segment,
                                   std::uint64_t offset);

/// Frames one raw segment image into record-frame spans (frame header plus
/// payload; the segment header is excluded).  Throws JournalError if the
/// image is not a valid segment — this is the strict framer behind journal
/// fault injection, the stream-side analogue of mrt::index_records.
[[nodiscard]] std::vector<mrt::RecordSpan> index_segment_frames(
    std::span<const std::uint8_t> bytes);

/// "journal-<index>.seg" (zero-padded so lexicographic order is record
/// order) under `directory`.
[[nodiscard]] std::string segment_file_name(std::uint64_t first_record);
[[nodiscard]] std::string segment_path(const std::string& directory,
                                       std::uint64_t first_record);

}  // namespace bgpintent::stream
