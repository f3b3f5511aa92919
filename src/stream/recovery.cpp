#include "stream/recovery.hpp"

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <mutex>
#include <optional>

#include "stream/wire.hpp"
#include "util/file.hpp"
#include "util/strings.hpp"

namespace bgpintent::stream {

namespace fs = std::filesystem;

/// Applies decoded journal records to a StreamEngine through its internals
/// (friend access), bypassing the engine's own journaling so replay never
/// re-appends what it reads.
///
/// The core of the determinism argument: updates re-apply verbatim and
/// tick the cadence counter; kReclassify markers re-run reclassify_dirty()
/// at the original pass boundaries, which regenerates the pass's events —
/// identical content and sequence numbers, since events are a pure
/// function of window evidence at the boundary.  Journaled kEvent copies
/// are buffered in `pending_` until their sealing marker and verified as a
/// prefix of the regenerated pass (events already covered by a restored
/// checkpoint are cross-checked against the buffered log instead).
class JournalReplayer {
 public:
  JournalReplayer(StreamEngine& engine, bool strict)
      : engine_(&engine), strict_(strict) {}

  /// Applies one record.  Returns false (tolerant) on inconsistency —
  /// the caller treats `failed_at()` as a truncation point; strict throws.
  [[nodiscard]] bool apply(std::uint64_t index, const JournalRecord& record) {
    std::lock_guard<std::mutex> lock(engine_->mutex_);
    switch (record.type) {
      case RecordType::kConfig:
        if (index != 0)
          return fail(index, "kConfig record past the head of the journal");
        if (!wire::same_window_config(record.config,
                                      engine_->window_.config()))
          return fail(index,
                      "journal config disagrees with the engine config");
        return true;

      case RecordType::kAnnounce: {
        if (!pending_.empty())
          return fail(index, "update interleaved into an event pass");
        bgp::RibEntry entry;
        entry.route.path = record.path;
        entry.route.communities = record.communities;
        engine_->window_.announce(entry, record.timestamp);
        ++engine_->updates_since_reclassify_;
        return true;
      }

      case RecordType::kWithdraw: {
        if (!pending_.empty())
          return fail(index, "update interleaved into an event pass");
        engine_->window_.withdraw(bgp::VantagePointId{}, bgp::Prefix{},
                                  record.timestamp);
        ++engine_->updates_since_reclassify_;
        return true;
      }

      case RecordType::kEpoch:
        if (!engine_->window_.started() ||
            engine_->window_.current_epoch() != record.epoch)
          return fail(
              index,
              util::format("epoch marker %llu disagrees with window epoch %llu",
                           static_cast<unsigned long long>(record.epoch),
                           static_cast<unsigned long long>(
                               engine_->window_.current_epoch())));
        return true;

      case RecordType::kEvent: {
        const std::uint64_t next = engine_->next_seq_;
        if (!pending_.empty() || record.seq >= next) {
          if (record.seq != next + pending_.size())
            return fail(index, util::format(
                                   "event seq %llu breaks the sequence at %llu",
                                   static_cast<unsigned long long>(record.seq),
                                   static_cast<unsigned long long>(
                                       next + pending_.size())));
          pending_.push_back(Event{record.seq, record.change});
          return true;
        }
        // Already reflected by the restored checkpoint: cross-check
        // against the buffered log when the seq is still buffered.
        const auto& events = engine_->events_;
        const auto it = std::lower_bound(
            events.begin(), events.end(), record.seq,
            [](const Event& event, std::uint64_t seq) {
              return event.seq < seq;
            });
        if (it == events.end() || it->seq != record.seq)
          return true;  // trimmed before the checkpoint; nothing to check
        if (it->change != record.change)
          return fail(index,
                      util::format("journaled event %llu disagrees with the "
                                   "recovered event log",
                                   static_cast<unsigned long long>(record.seq)));
        return true;
      }

      case RecordType::kReclassify: {
        const std::uint64_t next = engine_->next_seq_;
        if (record.first_seq + record.event_count <= next &&
            record.first_seq < next) {
          // The whole pass predates the checkpoint; only its cadence
          // effect is replayed.
          if (!pending_.empty())
            return fail(index, "pass marker inside a newer event pass");
          engine_->updates_since_reclassify_ = record.updates_since_reclassify;
          return true;
        }
        if (record.first_seq != next)
          return fail(
              index,
              util::format("pass marker for seq %llu but the engine is at %llu",
                           static_cast<unsigned long long>(record.first_seq),
                           static_cast<unsigned long long>(next)));
        return run_pass(index, record.event_count,
                        record.updates_since_reclassify);
      }

      case RecordType::kDecodeStats:
        if (!pending_.empty())
          return fail(index, "decode-stats record inside an event pass");
        engine_->decode_ok_ += record.decode_ok;
        engine_->decode_errors_ += record.decode_skipped;
        return true;

      case RecordType::kFooter:
        return fail(index, "segment footer framed as a record");
    }
    return fail(index, "unknown record type");
  }

  /// Resolves a torn tail: a crash can lose a pass's sealing marker (or
  /// the batch pass entirely) after its updates were journaled.  The
  /// uninterrupted reference run over the same record prefix *does* run
  /// those passes, so recovery runs them here.
  [[nodiscard]] bool finish(std::uint64_t end_index) {
    std::lock_guard<std::mutex> lock(engine_->mutex_);
    if (engine_->updates_since_reclassify_ >= StreamEngine::kReclassifyBatch) {
      // The batch cadence fired on the last journaled update; its pass
      // marker was torn off.
      engine_->updates_since_reclassify_ = 0;
      return run_pass(end_index, std::nullopt, 0);
    }
    if (!pending_.empty()) {
      // A query- or end-of-source-triggered pass lost its marker; the
      // cadence counter is unaffected by such passes.
      return run_pass(end_index, std::nullopt,
                      engine_->updates_since_reclassify_);
    }
    return true;
  }

  [[nodiscard]] const std::string& detail() const noexcept { return detail_; }

  static void set_recovery_counters(StreamEngine& engine,
                                    std::uint64_t recovered_events,
                                    std::uint64_t torn_tail_truncated) {
    std::lock_guard<std::mutex> lock(engine.mutex_);
    engine.recovered_events_ = recovered_events;
    engine.torn_tail_truncated_ = torn_tail_truncated;
  }

  [[nodiscard]] static std::uint64_t last_seq(const StreamEngine& engine) {
    std::lock_guard<std::mutex> lock(engine.mutex_);
    return engine.next_seq_ - 1;
  }

 private:
  /// Re-runs one reclassification pass; `expected_events` is the marker's
  /// count (nullopt for torn-tail passes, which have no marker to check).
  [[nodiscard]] bool run_pass(std::uint64_t index,
                              std::optional<std::uint64_t> expected_events,
                              std::uint64_t counter_after) {
    std::vector<LabelChange> changes = engine_->window_.reclassify_dirty();
    if (expected_events && changes.size() != *expected_events)
      return fail(index,
                  util::format("pass regenerated %zu events, marker claims %llu",
                               changes.size(),
                               static_cast<unsigned long long>(
                                   *expected_events)));
    if (pending_.size() > changes.size())
      return fail(index, "journal carries more events than the pass "
                         "regenerates");
    for (std::size_t i = 0; i < pending_.size(); ++i) {
      if (pending_[i].seq != engine_->next_seq_ + i ||
          pending_[i].change != changes[i])
        return fail(index,
                    util::format("journaled event %llu disagrees with the "
                                 "regenerated pass",
                                 static_cast<unsigned long long>(
                                     pending_[i].seq)));
    }
    pending_.clear();
    engine_->publish_locked(std::move(changes));
    engine_->updates_since_reclassify_ = counter_after;
    return true;
  }

  bool fail(std::uint64_t index, std::string what) {
    detail_ = util::format("journal record %llu: %s",
                           static_cast<unsigned long long>(index),
                           what.c_str());
    if (strict_) throw JournalError(detail_);
    return false;
  }

  StreamEngine* engine_;
  bool strict_;
  std::vector<Event> pending_;  ///< journaled events awaiting their marker
  std::string detail_;
};

namespace {

/// Drives a scan's records through a JournalReplayer, decoding payloads
/// and skipping records below `from_record`.  Returns the index one past
/// the last applied record; sets `failed` when the replayer (or a decode)
/// rejected a record there.
struct ReplayDrive {
  std::uint64_t applied = 0;
  std::uint64_t stopped_at = 0;
  bool failed = false;
  std::string detail;
};

[[nodiscard]] ReplayDrive drive_replay(JournalReplayer& replayer,
                                       const std::string& directory,
                                       std::uint64_t from_record,
                                       bool strict) {
  ReplayDrive drive;
  const ScanSummary scan = scan_journal(
      directory, ScanOptions{strict},
      [&](const RecordLocation& location,
          std::span<const std::uint8_t> payload) {
        if (location.index < from_record) return true;
        JournalRecord record;
        try {
          record = decode_record(payload);
        } catch (const JournalError& error) {
          if (strict) throw;
          drive.failed = true;
          drive.stopped_at = location.index;
          drive.detail = error.what();
          return false;
        }
        if (!replayer.apply(location.index, record)) {
          drive.failed = true;
          drive.stopped_at = location.index;
          drive.detail = replayer.detail();
          return false;
        }
        ++drive.applied;
        return true;
      });
  if (!drive.failed) {
    drive.stopped_at = scan.records;
    if (scan.torn) drive.detail = scan.torn_detail;
  }
  return drive;
}

/// Physically truncates `directory` to its first `records` journal
/// records: the segment holding the boundary is cut after its last valid
/// frame, every segment entirely past the boundary and every checkpoint
/// claiming records past it is removed.  Returns the number of files
/// truncated or removed.
std::uint64_t truncate_journal_dir(const std::string& directory,
                                   std::uint64_t records) {
  std::uint64_t actions = 0;
  std::error_code ec;
  std::vector<std::pair<std::uint64_t, std::string>> segments;
  for (const auto& entry : fs::directory_iterator(directory, ec)) {
    const std::string name = entry.path().filename().string();
    if (name.starts_with("journal-") && name.ends_with(".seg")) {
      const auto digits = std::string_view(name).substr(8, name.size() - 12);
      if (const auto index = util::parse_u64(digits))
        segments.emplace_back(*index, entry.path().string());
      else if (std::remove(entry.path().string().c_str()) == 0)
        ++actions;  // malformed segment name: not part of any valid prefix
    } else if (name.starts_with("checkpoint-") && name.ends_with(".ckpt")) {
      const auto digits = std::string_view(name).substr(11, name.size() - 16);
      const auto covered = util::parse_u64(digits);
      if (!covered || *covered > records)
        if (std::remove(entry.path().string().c_str()) == 0) ++actions;
    }
  }
  std::sort(segments.begin(), segments.end());

  std::string boundary_path;
  std::uint64_t boundary_first = 0;
  bool have_boundary = false;
  for (const auto& [first, path] : segments) {
    if (first >= records) {  // holds no record below the cut: remove whole
      if (std::remove(path.c_str()) == 0) ++actions;
      continue;
    }
    if (!have_boundary || first > boundary_first) {
      boundary_first = first;
      boundary_path = path;
      have_boundary = true;
    }
  }
  if (!have_boundary) return actions;

  // Walk the boundary segment's frames to find where the cut lands.  A
  // footer frame consumes no record index: one right at the cut belongs
  // to the kept prefix (the segment was sealed before the tear), one past
  // a mid-segment cut is dropped with the rest.
  const std::vector<std::uint8_t> bytes =
      util::read_file<JournalError>(boundary_path);
  std::uint64_t pos = kSegmentHeaderBytes;
  std::uint64_t index = boundary_first;
  for (;;) {
    // read_frame verifies the checksum: the type byte of a corrupt frame
    // cannot be trusted (a damaged footer must be cut, not kept as the
    // segment's seal).
    const FrameRead frame = read_frame(bytes, pos);
    if (!frame.error.empty()) break;
    const bool footer =
        frame.payload[0] == static_cast<std::uint8_t>(RecordType::kFooter);
    if (!footer && index >= records) break;
    pos += kFrameHeaderBytes + frame.payload.size();
    if (footer) break;  // a footer ends the segment either way
    ++index;
  }

  if (pos < bytes.size()) {
    std::error_code resize_ec;
    fs::resize_file(boundary_path, pos, resize_ec);
    if (!resize_ec) ++actions;
  }
  return actions;
}

}  // namespace

std::unique_ptr<StreamEngine> recover_stream(const JournalConfig& config,
                                             const RecoveryOptions& options,
                                             RecoveryReport* report_out) {
  RecoveryReport report;
  const std::string& directory = config.directory;

  // Pass 1: measure the valid prefix and capture the record-0 config.
  // Strict mode throws out of scan_journal at the first tear.
  std::optional<WindowConfig> journal_config;
  const ScanSummary scan = scan_journal(
      directory, ScanOptions{options.strict},
      [&](const RecordLocation& location,
          std::span<const std::uint8_t> payload) {
        if (location.index != 0) return true;
        try {
          const JournalRecord record = decode_record(payload);
          if (record.type == RecordType::kConfig)
            journal_config = record.config;
        } catch (const JournalError&) {
          if (options.strict) throw;
        }
        return true;
      });
  std::uint64_t valid_records = scan.records;
  std::uint64_t torn_actions = 0;
  if (scan.torn) {
    report.torn_detail = scan.torn_detail;
    torn_actions += truncate_journal_dir(directory, valid_records);
  }

  // Checkpoint selection: newest loadable checkpoint covering <= the
  // valid prefix.  Tolerant recovery falls back past damaged files.
  std::optional<StateImage> checkpoint;
  std::uint64_t checkpoint_record = 0;
  std::error_code exists_ec;
  auto checkpoints = fs::exists(directory, exists_ec)
                         ? list_checkpoints(directory)
                         : std::vector<std::pair<std::uint64_t, std::string>>{};
  for (auto it = checkpoints.rbegin(); it != checkpoints.rend(); ++it) {
    if (it->first > valid_records) continue;
    try {
      checkpoint = load_checkpoint(it->second);
      checkpoint_record = it->first;
      break;
    } catch (const JournalError&) {
      if (options.strict) throw;
      // fall through to an older checkpoint, ultimately to plain replay
    }
  }

  // Config precedence: checkpoint > journal record 0 > caller flags.
  WindowConfig final_config = options.config;
  if (checkpoint) {
    final_config = checkpoint->config;
  } else if (journal_config) {
    final_config = *journal_config;
  }
  report.config_overridden =
      !wire::same_window_config(final_config, options.config);

  auto engine = std::make_unique<StreamEngine>(final_config, options.orgs);
  if (checkpoint) {
    engine->restore_state(checkpoint->state, checkpoint->paths);
    report.used_checkpoint = true;
    report.checkpoint_record = checkpoint_record;
  }

  // Pass 2: replay the tail.  A logical replay failure in tolerant mode
  // becomes a new truncation point — state is rebuilt from scratch below
  // the failed record so the engine never carries half-applied state.
  JournalReplayer replayer(*engine, options.strict);
  ReplayDrive drive = drive_replay(replayer, directory,
                                   checkpoint_record, options.strict);
  if (drive.failed) {
    report.torn_detail = drive.detail;
    valid_records = drive.stopped_at;
    torn_actions += truncate_journal_dir(directory, valid_records);
    // The damaged record may invalidate the restored checkpoint's claim
    // (it covered records the replay no longer trusts?  No — a
    // checkpoint covers records *before* the failure point, which is
    // >= checkpoint_record).  Re-recover over the now-clean prefix.
    engine = std::make_unique<StreamEngine>(final_config, options.orgs);
    if (checkpoint) engine->restore_state(checkpoint->state, checkpoint->paths);
    JournalReplayer retry(*engine, options.strict);
    ReplayDrive second = drive_replay(retry, directory, checkpoint_record,
                                      options.strict);
    if (second.failed)
      throw JournalError(util::format(
          "journal %s failed replay twice after truncation: %s",
          directory.c_str(), second.detail.c_str()));
    if (!retry.finish(valid_records))
      throw JournalError(util::format(
          "journal %s torn-tail pass failed after truncation: %s",
          directory.c_str(), retry.detail().c_str()));
    report.records_replayed = second.applied;
  } else {
    if (!replayer.finish(valid_records)) {
      // finish() can only fail on a pending-event mismatch; treat like a
      // replay failure at the tail: drop the trailing pass records.
      throw JournalError(util::format(
          "journal %s torn-tail pass disagrees with regenerated events: %s",
          directory.c_str(), replayer.detail().c_str()));
    }
    report.records_replayed = drive.applied;
  }

  const std::uint64_t recovered_events = JournalReplayer::last_seq(*engine);
  JournalReplayer::set_recovery_counters(*engine, recovered_events,
                                         torn_actions);

  report.journal_records = valid_records;
  report.recovered_events = recovered_events;
  report.torn_tail_truncated = torn_actions;
  report.fresh = valid_records == 0 && !checkpoint;

  // Resume the journal where the valid prefix ends; a fresh directory
  // gets its kConfig record 0 from attach_journal.
  auto writer = std::make_unique<JournalWriter>(config, valid_records);
  engine->attach_journal(std::move(writer),
                         options.checkpoint_interval_updates);

  if (report_out) *report_out = report;
  return engine;
}

ReplayReport replay_journal(StreamEngine& engine, const std::string& directory,
                            std::uint64_t from_record, bool strict) {
  ReplayReport report;
  JournalReplayer replayer(engine, strict);
  ReplayDrive drive = drive_replay(replayer, directory, from_record, strict);
  report.records_applied = drive.applied;
  report.stopped_at = drive.stopped_at;
  if (drive.failed) {
    report.complete = false;
    report.detail = drive.detail;
    return report;
  }
  if (!replayer.finish(drive.stopped_at)) {
    report.complete = false;
    report.detail = replayer.detail();
    return report;
  }
  if (!drive.detail.empty()) report.detail = drive.detail;  // tear note
  return report;
}

JournalInspection inspect_journal(const std::string& directory) {
  JournalInspection inspection;
  inspection.scan = scan_journal(
      directory, {},
      [&](const RecordLocation&, std::span<const std::uint8_t> payload) {
        try {
          const JournalRecord record = decode_record(payload);
          const auto raw = static_cast<std::size_t>(record.type);
          if (raw < inspection.type_counts.size())
            ++inspection.type_counts[raw];
          if (record.type == RecordType::kEvent)
            inspection.last_event_seq =
                std::max(inspection.last_event_seq, record.seq);
          if (record.type == RecordType::kReclassify &&
              record.event_count > 0)
            inspection.last_event_seq =
                std::max(inspection.last_event_seq,
                         record.first_seq + record.event_count - 1);
        } catch (const JournalError&) {
          ++inspection.undecodable;
        }
        return true;
      });
  std::error_code ec;
  if (fs::exists(directory, ec))
    inspection.checkpoints = list_checkpoints(directory);
  return inspection;
}

}  // namespace bgpintent::stream
