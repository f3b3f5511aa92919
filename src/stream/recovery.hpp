// Crash recovery for journaled stream engines: checkpoint-load plus
// bounded journal replay.
//
// recover_stream() turns a journal directory back into a running
// StreamEngine:
//
//   1. Scan the segments (stream/journal.hpp).  Tolerant recovery
//      truncates the journal at the first torn or corrupt frame, or at the
//      first record of a sealed segment whose footer disagrees with its
//      frames — the valid prefix survives, everything after is physically
//      removed and counted in torn_tail_truncated; strict recovery refuses
//      instead.
//   2. Pick the newest checkpoint covering <= the valid record count and
//      restore it (falling back to older checkpoints, then to empty, when
//      a checkpoint file itself is damaged — tolerant only).
//   3. Replay the records past the checkpoint, reading again only from
//      the segment that holds the first of them (step 1 verified the
//      rest).  Updates re-apply to the window; kReclassify markers re-run
//      the classification passes at the exact boundaries of the original
//      run, so the regenerated label-change events — sequence numbers
//      included — are bit-identical, and the journaled event copies act
//      as cross-checks.
//   4. Attach a JournalWriter resuming at the recovered record index, so
//      the engine keeps appending where the crashed process stopped and
//      reconnecting subscribers' `SUBSCRIBE from=seq` continues gap-free.
//
// The WindowConfig precedence mirrors the serve snapshot rule
// (persisted config wins over flags): checkpoint config, else the
// journal's record-0 kConfig, else RecoveryOptions::config.
#pragma once

#include <array>
#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "stream/checkpoint.hpp"
#include "stream/engine.hpp"
#include "stream/journal.hpp"
#include "topo/org_map.hpp"

namespace bgpintent::stream {

struct RecoveryOptions {
  /// Strict recovery throws JournalError at the first torn frame, corrupt
  /// checkpoint, or replay inconsistency; tolerant recovery truncates and
  /// keeps the valid prefix.
  bool strict = false;
  /// Used only when the journal carries no config (fresh/empty directory,
  /// or its record 0 was lost to a tear).
  WindowConfig config;
  /// Must be the OrgMap of the original run: sibling-aware classification
  /// is not journaled, it is re-derived.
  const topo::OrgMap* orgs = nullptr;
  /// Forwarded to StreamEngine::attach_journal on the recovered engine.
  std::uint64_t checkpoint_interval_updates = 0;
};

struct RecoveryReport {
  std::uint64_t journal_records = 0;   ///< valid records recovered from
  std::uint64_t records_replayed = 0;  ///< records applied past checkpoint
  std::uint64_t recovered_events = 0;  ///< last event seq after recovery
  std::uint64_t torn_tail_truncated = 0;  ///< files truncated or removed
  std::uint64_t checkpoint_record = 0; ///< records the checkpoint covered
  bool used_checkpoint = false;
  bool fresh = false;  ///< no records and no checkpoint: a brand-new journal
  /// The journal/checkpoint carried a config differing from
  /// RecoveryOptions::config; the persisted one won.
  bool config_overridden = false;
  std::string torn_detail;  ///< human-readable tear description, if any
};

/// Recovers an engine from `config.directory` and attaches a writer that
/// resumes appending at the recovered record index (an empty or missing
/// directory recovers to a fresh engine with a fresh journal).  Throws
/// JournalError per RecoveryOptions::strict.
[[nodiscard]] std::unique_ptr<StreamEngine> recover_stream(
    const JournalConfig& config, const RecoveryOptions& options = {},
    RecoveryReport* report = nullptr);

struct ReplayReport {
  std::uint64_t records_applied = 0;
  std::uint64_t stopped_at = 0;  ///< record index of the first failure
  bool complete = true;
  std::string detail;
};

/// Replays records [from_record, end) of `directory` into `engine`
/// without journaling side effects — the crash harness uses this to drive
/// a recovered engine through the rest of the original journal and compare
/// final states.  `engine` must already reflect exactly `from_record`
/// records.  Strict throws on inconsistency; tolerant stops and reports.
ReplayReport replay_journal(StreamEngine& engine, const std::string& directory,
                            std::uint64_t from_record, bool strict);

/// What `bgpintent recover` prints: scan result, checkpoints, per-type
/// record counts.  Always tolerant; never mutates the directory.
struct JournalInspection {
  ScanSummary scan;
  std::vector<std::pair<std::uint64_t, std::string>> checkpoints;
  /// Indexed by RecordType raw value (1..8; 0 unused).
  std::array<std::uint64_t, 9> type_counts{};
  std::uint64_t undecodable = 0;  ///< checksum-valid frames decode_record rejects
  std::uint64_t last_event_seq = 0;
};
[[nodiscard]] JournalInspection inspect_journal(const std::string& directory);

}  // namespace bgpintent::stream
