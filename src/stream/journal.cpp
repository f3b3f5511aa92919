#include "stream/journal.hpp"

#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <filesystem>

#include "stream/wire.hpp"
#include "util/checksum.hpp"
#include "util/file.hpp"
#include "util/strings.hpp"

namespace bgpintent::stream {

namespace fs = std::filesystem;

namespace {

constexpr char kSegmentMagic[8] = {'B', 'G', 'P', 'I', 'J', 'S', 'E', 'G'};
constexpr char kSegmentPrefix[] = "journal-";
constexpr char kSegmentSuffix[] = ".seg";
/// Frames larger than this are treated as corruption, not allocations.
constexpr std::uint64_t kMaxFrameBytes = 64ull << 20;
/// Footer payload: type byte + record count u64 + footer hash u64.
constexpr std::size_t kFooterPayloadBytes = 17;
/// The writer hands its buffer to write(2) once it holds this many bytes:
/// about a thousand announce frames per call.
constexpr std::size_t kFlushBytes = 64u << 10;

[[nodiscard]] std::string errno_detail() {
  return std::strerror(errno) != nullptr ? std::strerror(errno) : "unknown";
}

/// Folds one record frame's stored checksum into the footer hash
/// (h = xxh64(h ‖ c), both little-endian u64), so a sealed segment's footer
/// covers every record in order: swapped, dropped or duplicated frames
/// change it even though each frame still passes its own checksum.
[[nodiscard]] std::uint64_t chain_footer_hash(std::uint64_t hash,
                                              std::uint64_t checksum) {
  std::uint8_t bytes[16];
  for (std::size_t i = 0; i < 8; ++i) {
    bytes[i] = static_cast<std::uint8_t>(hash >> (8 * i));
    bytes[8 + i] = static_cast<std::uint8_t>(checksum >> (8 * i));
  }
  return util::xxh64(bytes);
}

/// One segment file parsed frame by frame.  `on_record` (may be null) sees
/// every record payload the segment vouches for, in order, and returns
/// false to stop the walk.
struct ParsedSegment {
  std::uint64_t first_record = 0;  ///< from the header
  std::uint64_t records = 0;       ///< valid records (delivered, on a stop)
  std::uint64_t valid_bytes = 0;   ///< prefix ending after the last valid frame
  std::uint64_t footer_hash = 0;   ///< chain over the verified records
  bool sealed = false;
  bool torn = false;
  bool stopped = false;  ///< on_record returned false
  std::string torn_detail;
};

using FrameSink =
    std::function<bool(std::uint64_t offset, std::span<const std::uint8_t>)>;

[[nodiscard]] ParsedSegment parse_segment(std::span<const std::uint8_t> bytes,
                                          const std::string& path,
                                          const FrameSink& on_record) {
  ParsedSegment parsed;
  const auto tear = [&](std::uint64_t offset, std::string detail) {
    parsed.torn = true;
    parsed.torn_detail = util::format("%s at byte %llu: %s", path.c_str(),
                                      static_cast<unsigned long long>(offset),
                                      detail.c_str());
  };

  if (bytes.size() < kSegmentHeaderBytes) {
    tear(0, "segment header truncated");
    return parsed;
  }
  if (std::memcmp(bytes.data(), kSegmentMagic, sizeof kSegmentMagic) != 0) {
    tear(0, "not a journal segment (bad magic)");
    return parsed;
  }
  wire::Cursor header(bytes.subspan(8, kSegmentHeaderBytes - 8), "journal");
  const std::uint32_t version = header.get<std::uint32_t>();
  // Checked before the header checksum, whose width differs by version: a
  // segment another build wrote is refused, never torn, because tolerant
  // recovery deletes a torn segment and every segment after it.
  if (version != kJournalVersion)
    throw JournalError(util::format(
        "%s: journal segment version %u is not the supported version %u",
        path.c_str(), version, kJournalVersion));
  const std::uint64_t first_record = header.get<std::uint64_t>();
  if (util::xxh64(bytes.subspan(8, 12)) != header.get<std::uint64_t>()) {
    tear(20, "segment header checksum mismatch");
    return parsed;
  }
  parsed.first_record = first_record;
  parsed.valid_bytes = kSegmentHeaderBytes;

  // Verify every frame and the seal before any record leaves the segment:
  // a frame's checksum covers only itself, and only the footer vouches for
  // the order and identity of the frames it seals.
  std::uint64_t pos = kSegmentHeaderBytes;
  while (pos < bytes.size()) {
    if (parsed.sealed) {
      tear(pos, "bytes after segment footer");
      break;
    }
    const FrameRead frame = read_frame(bytes, pos);
    if (!frame.error.empty()) {
      tear(pos, frame.error);
      break;
    }
    const std::uint64_t next = pos + kFrameHeaderBytes + frame.payload.size();
    if (frame.payload[0] == static_cast<std::uint8_t>(RecordType::kFooter)) {
      std::string broken_seal;
      if (frame.payload.size() != kFooterPayloadBytes) {
        broken_seal = "malformed segment footer";
      } else {
        wire::Cursor footer(frame.payload.subspan(1), "journal");
        const std::uint64_t count = footer.get<std::uint64_t>();
        if (count != parsed.records)
          broken_seal = util::format(
              "footer claims %llu records, segment frames %llu",
              static_cast<unsigned long long>(count),
              static_cast<unsigned long long>(parsed.records));
        else if (footer.get<std::uint64_t>() != parsed.footer_hash)
          broken_seal = "footer hash mismatch";
      }
      if (!broken_seal.empty()) {
        // A seal that disagrees with its frames vouches for none of them:
        // the segment contributes no record, as with a corrupt header.
        tear(pos, broken_seal);
        parsed.records = 0;
        parsed.valid_bytes = 0;
        parsed.footer_hash = 0;
        return parsed;
      }
      parsed.sealed = true;
      pos = next;
      parsed.valid_bytes = pos;
      continue;
    }
    parsed.footer_hash = chain_footer_hash(parsed.footer_hash, frame.checksum);
    ++parsed.records;
    pos = next;
    parsed.valid_bytes = pos;
  }
  if (!on_record) return parsed;

  // Hand the verified records over; their frames need no second check.
  pos = kSegmentHeaderBytes;
  for (std::uint64_t i = 0; i < parsed.records; ++i) {
    wire::Cursor frame(bytes.subspan(pos, kFrameHeaderBytes), "journal");
    const std::uint64_t length = frame.get<std::uint32_t>();
    if (!on_record(pos, bytes.subspan(pos + kFrameHeaderBytes, length))) {
      // Stopped inside the verified prefix: what lies past it is unread.
      parsed.records = i;
      parsed.valid_bytes = pos;
      parsed.sealed = false;
      parsed.torn = false;
      parsed.torn_detail.clear();
      parsed.stopped = true;
      return parsed;
    }
    pos += kFrameHeaderBytes + length;
  }
  return parsed;
}

/// journal-*.seg files of `directory` as (name index, path), sorted.
[[nodiscard]] std::vector<std::pair<std::uint64_t, std::string>> list_segments(
    const std::string& directory) {
  std::vector<std::pair<std::uint64_t, std::string>> segments;
  std::error_code ec;
  for (const auto& entry : fs::directory_iterator(directory, ec)) {
    const std::string name = entry.path().filename().string();
    if (!name.starts_with(kSegmentPrefix) || !name.ends_with(kSegmentSuffix))
      continue;
    const auto digits = std::string_view(name).substr(
        sizeof kSegmentPrefix - 1,
        name.size() - (sizeof kSegmentPrefix - 1) - (sizeof kSegmentSuffix - 1));
    const auto index = util::parse_u64(digits);
    if (!index) continue;  // foreign file; not ours to interpret
    segments.emplace_back(*index, entry.path().string());
  }
  std::sort(segments.begin(), segments.end());
  return segments;
}

}  // namespace

FrameRead read_frame(std::span<const std::uint8_t> segment,
                     std::uint64_t offset) {
  FrameRead frame;
  if (offset > segment.size() ||
      segment.size() - offset < kFrameHeaderBytes) {
    frame.error = "torn frame header";
    return frame;
  }
  wire::Cursor header(segment.subspan(offset, kFrameHeaderBytes), "journal");
  const std::uint64_t length = header.get<std::uint32_t>();
  frame.checksum = header.get<std::uint64_t>();
  if (length == 0 || length > kMaxFrameBytes) {
    frame.error = util::format("implausible frame length %llu",
                               static_cast<unsigned long long>(length));
    return frame;
  }
  if (length > segment.size() - offset - kFrameHeaderBytes) {
    frame.error = "torn frame payload";
    return frame;
  }
  frame.payload = segment.subspan(offset + kFrameHeaderBytes, length);
  if (util::xxh64(frame.payload) != frame.checksum)
    frame.error = "frame checksum mismatch";
  return frame;
}

std::string_view to_string(FsyncPolicy policy) noexcept {
  switch (policy) {
    case FsyncPolicy::kNever:
      return "never";
    case FsyncPolicy::kInterval:
      return "interval";
    case FsyncPolicy::kEveryRecord:
      return "every-record";
  }
  return "unknown";
}

std::optional<FsyncPolicy> parse_fsync_policy(std::string_view name) noexcept {
  for (const FsyncPolicy policy :
       {FsyncPolicy::kNever, FsyncPolicy::kInterval, FsyncPolicy::kEveryRecord})
    if (name == to_string(policy)) return policy;
  return std::nullopt;
}

std::string_view to_string(RecordType type) noexcept {
  switch (type) {
    case RecordType::kConfig:
      return "config";
    case RecordType::kAnnounce:
      return "announce";
    case RecordType::kWithdraw:
      return "withdraw";
    case RecordType::kEpoch:
      return "epoch";
    case RecordType::kEvent:
      return "event";
    case RecordType::kReclassify:
      return "reclassify";
    case RecordType::kDecodeStats:
      return "decode-stats";
    case RecordType::kFooter:
      return "footer";
  }
  return "unknown";
}

// --- Record codec ----------------------------------------------------------

void encode_config_record(std::vector<std::uint8_t>& out,
                          const WindowConfig& config) {
  wire::put<std::uint8_t>(out, static_cast<std::uint8_t>(RecordType::kConfig));
  wire::put_window_config(out, config);
}

void encode_announce_record(std::vector<std::uint8_t>& out,
                            const bgp::AsPath& path,
                            std::span<const Community> communities,
                            std::uint32_t timestamp) {
  wire::put<std::uint8_t>(out,
                          static_cast<std::uint8_t>(RecordType::kAnnounce));
  wire::put<std::uint32_t>(out, timestamp);
  wire::put_aspath(out, path);
  wire::put<std::uint32_t>(out, static_cast<std::uint32_t>(communities.size()));
  for (const Community community : communities)
    wire::put<std::uint32_t>(out, community.wire());
}

void encode_withdraw_record(std::vector<std::uint8_t>& out,
                            std::uint32_t timestamp) {
  wire::put<std::uint8_t>(out,
                          static_cast<std::uint8_t>(RecordType::kWithdraw));
  wire::put<std::uint32_t>(out, timestamp);
}

void encode_epoch_record(std::vector<std::uint8_t>& out, std::uint64_t epoch) {
  wire::put<std::uint8_t>(out, static_cast<std::uint8_t>(RecordType::kEpoch));
  wire::put<std::uint64_t>(out, epoch);
}

void encode_event_record(std::vector<std::uint8_t>& out, std::uint64_t seq,
                         const LabelChange& change) {
  wire::put<std::uint8_t>(out, static_cast<std::uint8_t>(RecordType::kEvent));
  wire::put<std::uint64_t>(out, seq);
  wire::put<std::uint32_t>(out, change.community.wire());
  wire::put<std::uint8_t>(out, static_cast<std::uint8_t>(change.previous));
  wire::put<std::uint8_t>(out, static_cast<std::uint8_t>(change.current));
  wire::put<std::uint64_t>(out, change.epoch);
}

void encode_reclassify_record(std::vector<std::uint8_t>& out,
                              std::uint64_t first_seq,
                              std::uint64_t event_count,
                              std::uint64_t updates_since_reclassify) {
  wire::put<std::uint8_t>(out,
                          static_cast<std::uint8_t>(RecordType::kReclassify));
  wire::put<std::uint64_t>(out, first_seq);
  wire::put<std::uint64_t>(out, event_count);
  wire::put<std::uint64_t>(out, updates_since_reclassify);
}

void encode_decode_stats_record(std::vector<std::uint8_t>& out,
                                std::uint64_t decode_ok,
                                std::uint64_t decode_skipped) {
  wire::put<std::uint8_t>(out,
                          static_cast<std::uint8_t>(RecordType::kDecodeStats));
  wire::put<std::uint64_t>(out, decode_ok);
  wire::put<std::uint64_t>(out, decode_skipped);
}

JournalRecord decode_record(std::span<const std::uint8_t> payload) {
  JournalRecord record;
  decode_record(payload, record);
  return record;
}

void decode_record(std::span<const std::uint8_t> payload,
                   JournalRecord& record) {
  if (payload.empty()) throw JournalError("empty journal record payload");
  wire::Cursor cursor(payload, "journal");
  const std::uint8_t type = cursor.get<std::uint8_t>();
  switch (static_cast<RecordType>(type)) {
    case RecordType::kConfig:
      record.type = RecordType::kConfig;
      record.config = wire::get_window_config(cursor);
      break;
    case RecordType::kAnnounce: {
      record.type = RecordType::kAnnounce;
      record.timestamp = cursor.get<std::uint32_t>();
      wire::get_aspath(cursor, record.path);
      const std::uint32_t communities = cursor.get<std::uint32_t>();
      if (communities > cursor.remaining() / sizeof(std::uint32_t))
        throw JournalError("journal community count exceeds payload");
      record.communities.clear();
      for (std::uint32_t i = 0; i < communities; ++i)
        record.communities.push_back(
            Community::from_wire(cursor.get<std::uint32_t>()));
      break;
    }
    case RecordType::kWithdraw:
      record.type = RecordType::kWithdraw;
      record.timestamp = cursor.get<std::uint32_t>();
      break;
    case RecordType::kEpoch:
      record.type = RecordType::kEpoch;
      record.epoch = cursor.get<std::uint64_t>();
      break;
    case RecordType::kEvent:
      record.type = RecordType::kEvent;
      record.seq = cursor.get<std::uint64_t>();
      record.change.community =
          Community::from_wire(cursor.get<std::uint32_t>());
      record.change.previous = wire::get_intent(cursor);
      record.change.current = wire::get_intent(cursor);
      record.change.epoch = cursor.get<std::uint64_t>();
      break;
    case RecordType::kReclassify:
      record.type = RecordType::kReclassify;
      record.first_seq = cursor.get<std::uint64_t>();
      record.event_count = cursor.get<std::uint64_t>();
      record.updates_since_reclassify = cursor.get<std::uint64_t>();
      break;
    case RecordType::kDecodeStats:
      record.type = RecordType::kDecodeStats;
      record.decode_ok = cursor.get<std::uint64_t>();
      record.decode_skipped = cursor.get<std::uint64_t>();
      break;
    case RecordType::kFooter:
      throw JournalError("segment footer framed as a record");
    default:
      throw JournalError(
          util::format("unknown journal record type %u", type));
  }
  cursor.expect_end(to_string(record.type).data());
}

// --- Writer ----------------------------------------------------------------

std::string segment_file_name(std::uint64_t first_record) {
  return util::format("%s%020llu%s", kSegmentPrefix,
                      static_cast<unsigned long long>(first_record),
                      kSegmentSuffix);
}

std::string segment_path(const std::string& directory,
                         std::uint64_t first_record) {
  return (fs::path(directory) / segment_file_name(first_record)).string();
}

JournalWriter::JournalWriter(JournalConfig config, std::uint64_t next_record)
    : config_(std::move(config)), next_record_(next_record) {
  std::error_code ec;
  fs::create_directories(config_.directory, ec);
  if (ec)
    throw JournalError(util::format("cannot create journal directory %s: %s",
                                    config_.directory.c_str(),
                                    ec.message().c_str()));

  const auto segments = list_segments(config_.directory);
  // The active segment is the newest one framing records below next_record;
  // anything at or past next_record is stale (recovery already decided the
  // valid prefix) and is deleted or overwritten.
  const std::pair<std::uint64_t, std::string>* active = nullptr;
  for (const auto& segment : segments) {
    if (segment.first <= next_record_) active = &segment;
  }
  for (const auto& segment : segments) {
    if (active != nullptr && segment.first <= active->first) continue;
    if (std::remove(segment.second.c_str()) != 0)
      throw JournalError(util::format("cannot remove stale segment %s: %s",
                                      segment.second.c_str(),
                                      errno_detail().c_str()));
  }

  if (active == nullptr) {
    if (next_record_ != 0)
      throw JournalError(util::format(
          "journal %s has no segment covering record %llu",
          config_.directory.c_str(),
          static_cast<unsigned long long>(next_record_)));
    open_segment(0, /*fresh=*/true);
    return;
  }

  // Re-parse the active segment to rebuild the footer hash; a torn one is
  // refused below, so an intact segment is appended to at its end.
  const ParsedSegment parsed = parse_segment(
      util::read_file<JournalError>(active->second), active->second, nullptr);
  if (parsed.torn)
    throw JournalError(util::format(
        "journal %s is torn (%s); run recovery before appending",
        config_.directory.c_str(), parsed.torn_detail.c_str()));
  if (parsed.first_record != active->first)
    throw JournalError(util::format(
        "segment %s header frames record %llu but its name claims %llu",
        active->second.c_str(),
        static_cast<unsigned long long>(parsed.first_record),
        static_cast<unsigned long long>(active->first)));
  if (parsed.first_record + parsed.records != next_record_)
    throw JournalError(util::format(
        "segment %s frames records up to %llu, expected %llu",
        active->second.c_str(),
        static_cast<unsigned long long>(parsed.first_record + parsed.records),
        static_cast<unsigned long long>(next_record_)));

  if (parsed.sealed) {
    open_segment(next_record_, /*fresh=*/true);
    return;
  }

  segment_path_ = active->second;
  fd_ = ::open(segment_path_.c_str(), O_WRONLY | O_APPEND | O_CLOEXEC);
  if (fd_ < 0)
    throw JournalError(util::format("cannot open %s for append: %s",
                                    segment_path_.c_str(),
                                    errno_detail().c_str()));
  segment_first_record_ = parsed.first_record;
  segment_bytes_ = parsed.valid_bytes;
  segment_records_ = parsed.records;
  footer_hash_ = parsed.footer_hash;
}

JournalWriter::~JournalWriter() {
  if (closed_) return;
  try {
    close();
  } catch (const JournalError&) {
    // Destructor: a failed seal leaves an unsealed (still recoverable)
    // segment; nothing useful to do with the error here.
  }
}

void JournalWriter::open_segment(std::uint64_t first_record, bool fresh) {
  segment_path_ = segment_path(config_.directory, first_record);
  fd_ = ::open(segment_path_.c_str(),
               O_WRONLY | O_CREAT | (fresh ? O_TRUNC : 0) | O_CLOEXEC, 0644);
  if (fd_ < 0)
    throw JournalError(util::format("cannot open %s: %s",
                                    segment_path_.c_str(),
                                    errno_detail().c_str()));
  segment_first_record_ = first_record;
  segment_records_ = 0;
  segment_bytes_ = 0;
  footer_hash_ = 0;

  // The buffer is empty here (nothing is appended before the first
  // segment opens, and seal_segment flushed the last one), and the header
  // goes out at once, so a segment file always starts with a whole header.
  for (const char c : kSegmentMagic)
    pending_.push_back(static_cast<std::uint8_t>(c));
  wire::put<std::uint32_t>(pending_, kJournalVersion);
  wire::put<std::uint64_t>(pending_, first_record);
  wire::put<std::uint64_t>(pending_,
                           util::xxh64(std::span(pending_).subspan(8, 12)));
  segment_bytes_ += kSegmentHeaderBytes;
  unsynced_bytes_ += kSegmentHeaderBytes;
  stats_.bytes += kSegmentHeaderBytes;
  flush();
  if (config_.fsync != FsyncPolicy::kNever)
    util::fsync_directory(config_.directory);
}

void JournalWriter::flush() {
  std::size_t written = 0;
  while (written < pending_.size()) {
    const ssize_t n = ::write(fd_, pending_.data() + written,
                              pending_.size() - written);
    if (n < 0) {
      if (errno == EINTR) continue;
      // Keep only what the kernel did not take, so a retry cannot write
      // a byte twice.
      pending_.erase(pending_.begin(),
                     pending_.begin() + static_cast<std::ptrdiff_t>(written));
      throw JournalError(util::format("write to %s failed: %s",
                                      segment_path_.c_str(),
                                      errno_detail().c_str()));
    }
    written += static_cast<std::size_t>(n);
  }
  pending_.clear();
}

std::uint64_t JournalWriter::buffer_frame(
    std::span<const std::uint8_t> payload) {
  const std::uint64_t checksum = util::xxh64(payload);
  wire::put<std::uint32_t>(pending_,
                           static_cast<std::uint32_t>(payload.size()));
  wire::put<std::uint64_t>(pending_, checksum);
  pending_.insert(pending_.end(), payload.begin(), payload.end());
  const std::uint64_t bytes = kFrameHeaderBytes + payload.size();
  segment_bytes_ += bytes;
  unsynced_bytes_ += bytes;
  stats_.bytes += bytes;
  return checksum;
}

void JournalWriter::append(std::span<const std::uint8_t> payload) {
  if (closed_) throw JournalError("append to a closed journal");
  if (payload.empty() || payload.size() > kMaxFrameBytes)
    throw JournalError("journal record payload size out of range");

  footer_hash_ = chain_footer_hash(footer_hash_, buffer_frame(payload));
  ++segment_records_;
  ++next_record_;
  ++stats_.appends;

  fsync_policy_tick();
  if (segment_bytes_ >= config_.max_segment_bytes) {
    seal_segment();
    ++stats_.rotations;
    open_segment(next_record_, /*fresh=*/true);
  } else if (pending_.size() >= kFlushBytes) {
    flush();
  }
}

void JournalWriter::fsync_policy_tick() {
  switch (config_.fsync) {
    case FsyncPolicy::kNever:
      return;
    case FsyncPolicy::kEveryRecord:
      sync();
      return;
    case FsyncPolicy::kInterval:
      if (unsynced_bytes_ >= config_.fsync_interval_bytes) sync();
      return;
  }
}

void JournalWriter::sync() {
  flush();
  if (fd_ < 0 || unsynced_bytes_ == 0) return;
  if (::fdatasync(fd_) != 0)
    throw JournalError(util::format("fdatasync of %s failed: %s",
                                    segment_path_.c_str(),
                                    errno_detail().c_str()));
  unsynced_bytes_ = 0;
  ++stats_.fsyncs;
}

void JournalWriter::seal_segment() {
  std::vector<std::uint8_t> payload;
  payload.reserve(kFooterPayloadBytes);
  wire::put<std::uint8_t>(payload,
                          static_cast<std::uint8_t>(RecordType::kFooter));
  wire::put<std::uint64_t>(payload, segment_records_);
  wire::put<std::uint64_t>(payload, footer_hash_);
  (void)buffer_frame(payload);

  if (config_.fsync != FsyncPolicy::kNever) {
    unsynced_bytes_ = segment_bytes_;  // force the sync below
    sync();
  } else {
    flush();
  }
  if (::close(fd_) != 0) {
    fd_ = -1;
    throw JournalError(util::format("close of %s failed: %s",
                                    segment_path_.c_str(),
                                    errno_detail().c_str()));
  }
  fd_ = -1;
  unsynced_bytes_ = 0;
}

void JournalWriter::close() {
  if (closed_) return;
  closed_ = true;
  if (fd_ < 0) return;
  seal_segment();
  if (config_.fsync != FsyncPolicy::kNever)
    util::fsync_directory(config_.directory);
}

// --- Scanner ---------------------------------------------------------------

ScanSummary scan_journal(const std::string& directory,
                         const ScanOptions& options, const RecordSink& sink) {
  ScanSummary summary;
  std::error_code ec;
  if (!fs::exists(directory, ec)) return summary;

  const auto files = list_segments(directory);
  // Skip to the segment holding from_record; two names claiming one index
  // (not a layout the writer makes) stop the skip, and the scan reads on.
  std::size_t first_file = 0;
  while (first_file + 1 < files.size() &&
         files[first_file + 1].first <= options.from_record &&
         files[first_file + 1].first > files[first_file].first)
    ++first_file;
  if (first_file > 0) summary.records = files[first_file].first;
  for (std::size_t i = first_file; i < files.size(); ++i) {
    const auto& [name_index, path] = files[i];
    SegmentInfo info;
    info.path = path;
    info.first_record = name_index;

    const auto tear = [&](std::string detail) {
      summary.torn = true;
      summary.torn_detail = std::move(detail);
      if (options.strict) throw JournalError(summary.torn_detail);
    };

    if (name_index != summary.records) {
      // A hole in the record space: either a segment went missing or a
      // stale future segment survived a tear in its predecessor.
      summary.segments.push_back(info);
      tear(util::format(
          "%s frames records from %llu but the journal is valid through %llu",
          path.c_str(), static_cast<unsigned long long>(name_index),
          static_cast<unsigned long long>(summary.records)));
      return summary;
    }

    std::vector<std::uint8_t> bytes;
    try {
      bytes = util::read_file<JournalError>(path);
    } catch (const JournalError& error) {
      summary.segments.push_back(info);
      tear(error.what());
      return summary;
    }
    info.bytes = bytes.size();

    std::uint64_t local_records = 0;
    const ParsedSegment parsed = parse_segment(
        bytes, path,
        [&](std::uint64_t offset, std::span<const std::uint8_t> payload) {
          if (sink == nullptr) {
            ++local_records;
            return true;
          }
          RecordLocation location;
          location.index = name_index + local_records;
          location.segment = summary.segments.size();
          location.offset = offset;
          if (!sink(location, payload)) return false;
          ++local_records;
          return true;
        });

    if (parsed.first_record != name_index && !parsed.torn) {
      summary.segments.push_back(info);
      tear(util::format(
          "%s: segment header frames record %llu but its name claims %llu",
          path.c_str(),
          static_cast<unsigned long long>(parsed.first_record),
          static_cast<unsigned long long>(name_index)));
      return summary;
    }

    info.records = parsed.records;
    info.valid_bytes = parsed.valid_bytes;
    info.sealed = parsed.sealed;
    summary.records += parsed.records;
    summary.segments.push_back(info);

    if (parsed.stopped) return summary;  // sink asked to stop; not a tear
    if (parsed.torn) {
      tear(parsed.torn_detail);
      return summary;
    }
  }
  return summary;
}

std::vector<mrt::RecordSpan> index_segment_frames(
    std::span<const std::uint8_t> bytes) {
  if (bytes.size() < kSegmentHeaderBytes)
    throw JournalError("segment header truncated");
  if (std::memcmp(bytes.data(), kSegmentMagic, sizeof kSegmentMagic) != 0)
    throw JournalError("not a journal segment (bad magic)");
  std::vector<mrt::RecordSpan> spans;
  for (std::uint64_t pos = kSegmentHeaderBytes; pos < bytes.size();) {
    const FrameRead frame = read_frame(bytes, pos);
    if (!frame.error.empty()) throw JournalError(frame.error);
    spans.push_back({pos, kFrameHeaderBytes + frame.payload.size()});
    pos += kFrameHeaderBytes + frame.payload.size();
  }
  return spans;
}

}  // namespace bgpintent::stream
