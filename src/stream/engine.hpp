// Thread-safe facade over WindowClassifier: the one evidence engine behind
// `bgpintent stream` (a sliding window) and `bgpintent serve` (a
// non-expiring window primed from RIB dumps).
//
// One mutex guards the window; decode loops ingest through the UpdateSink
// bridge and trigger a reclassification pass every kReclassifyBatch
// updates (and at end of source), so label-change events flow out while a
// long stream is still being consumed instead of all at once at EOF.
// Priming (prime) skips that cadence: it applies whole RIB dumps and the
// caller runs one pass at the end.
//
// Label changes append to a bounded in-memory event log with a monotonic
// sequence number.  Subscribers resume with events_since(seq): when the
// requested suffix is still buffered they get the delta, when it has been
// trimmed they take a fresh full snapshot (label_snapshot) and resubscribe
// from its sequence point — the delta-snapshot protocol documented in
// docs/STREAMING.md.
#pragma once

#include <atomic>
#include <cstdint>
#include <deque>
#include <functional>
#include <iosfwd>
#include <memory>
#include <mutex>
#include <vector>

#include "mrt/source.hpp"
#include "mrt/update_stream.hpp"
#include "stream/journal.hpp"
#include "stream/window.hpp"

namespace bgpintent::stream {

/// One sequenced label-change event.
struct Event {
  std::uint64_t seq = 0;
  LabelChange change;

  friend bool operator==(const Event&, const Event&) = default;
};

/// Counter snapshot surfaced by serve STATS (docs/STREAMING.md).
struct EngineStats {
  /// Inputs that decoded cleanly: MRT records (RIB dumps and update
  /// files) plus well-formed INGEST pairs.
  std::uint64_t updates_ok = 0;
  /// Inputs skipped: MRT records dropped by a tolerant decode plus
  /// malformed pairs of a batch INGEST.
  std::uint64_t updates_errors = 0;
  std::uint64_t announces = 0;
  std::uint64_t withdraws = 0;
  std::uint64_t window_epochs = 0;   ///< non-empty epochs retained
  std::uint64_t expired_epochs = 0;
  std::uint64_t reclassified_communities = 0;
  std::uint64_t events = 0;          ///< label changes emitted so far
  std::uint64_t live_tuples = 0;
  std::uint64_t dirty_alphas = 0;    ///< alphas awaiting reclassification
  std::uint64_t current_epoch = 0;
  std::uint32_t latest_timestamp = 0;
  std::size_t window_memory_bytes = 0;
  // Durability counters (zero on a journal-less engine).
  std::uint64_t journal_appends = 0;  ///< records appended this process
  std::uint64_t journal_bytes = 0;    ///< journal bytes appended this process
  std::uint64_t recovered_events = 0; ///< events restored by crash recovery
  std::uint64_t torn_tail_truncated = 0;  ///< torn frames/segments dropped
};

/// The canonical image of a StreamEngine — window state plus the event log
/// and the replay-cadence counters — for checkpoints and the crash-recovery
/// equality harness.  A recovered engine exports a state equal to the
/// uninterrupted run's.
struct EngineState {
  WindowState window;
  std::vector<Event> events;  ///< buffered tail, oldest first
  std::uint64_t next_seq = 1;
  std::uint64_t decode_ok = 0;
  std::uint64_t decode_errors = 0;
  /// Updates applied since the last batch-cadence reclassification pass.
  std::uint64_t updates_since_reclassify = 0;

  friend bool operator==(const EngineState&, const EngineState&) = default;
};

class StreamEngine {
 public:
  /// Events retained for delta resumption; older ones are trimmed and
  /// resuming subscribers fall back to a full snapshot.
  static constexpr std::size_t kMaxBufferedEvents = 65536;
  /// Updates between mid-stream reclassification passes.
  static constexpr std::uint64_t kReclassifyBatch = 4096;

  explicit StreamEngine(WindowConfig config = {},
                        const topo::OrgMap* orgs = nullptr)
      : window_(config, orgs) {}
  ~StreamEngine();

  // --- Durability (stream/journal.hpp, stream/recovery.hpp) ---

  /// Attaches a write-ahead journal: every applied update, epoch advance,
  /// label-change event, and reclassification pass is appended to it.
  /// Frames collect in the writer's buffer (stream/journal.hpp), and the
  /// engine hands them to write(2):
  ///   - before any event enters the event log, published_seq() or the
  ///     publish hook (write-ahead);
  ///   - before ingest, announce, record_decode, reclassify, label_of,
  ///     totals, label_snapshot, checkpoint_now, detach_journal or this
  ///     call returns, when the call appended (return means handed over);
  ///   - whenever the buffer passes its fixed size.
  /// A failed write throws JournalError from the call that flushed,
  /// before that call's events publish.  A fresh journal (next_record
  /// == 0) gets the WindowConfig as record 0.  When
  /// `checkpoint_interval_updates` is nonzero, a checkpoint is written
  /// into the journal directory every that-many applied updates.
  void attach_journal(std::unique_ptr<JournalWriter> writer,
                      std::uint64_t checkpoint_interval_updates = 0);

  /// Writes a final checkpoint, seals the active segment, and drops the
  /// writer (its counters stay visible in stats()).  Clean-shutdown path;
  /// throws JournalError on IO failure.  No-op without a journal.
  void detach_journal();

  [[nodiscard]] bool has_journal() const;

  /// Writes a checkpoint now regardless of the interval pacing.  No-op
  /// without a journal.
  void checkpoint_now();

  /// Canonical image of the engine (window + event log + cadence).
  [[nodiscard]] EngineState export_state() const;

  /// Replaces the engine's contents with `state`; `paths` is the path
  /// table when `state.window.paths` is empty (a decoded state image,
  /// stream/image.hpp).  The engine must have been constructed with the
  /// WindowConfig/OrgMap the state was exported under; any attached
  /// journal is unaffected (recovery attaches the journal after
  /// restoring).
  void restore_state(const EngineState& state, bgp::PathTable paths = {});

  /// The engine as one state image (stream/image.hpp): what journal
  /// checkpoints, `serve --snapshot` and SNAPSHOT write.  Does not
  /// reclassify; call reclassify() first for an image whose label
  /// columns are settled.
  [[nodiscard]] std::vector<std::uint8_t> encode_image() const;

  [[nodiscard]] const WindowConfig& config() const noexcept {
    return window_.config();
  }

  /// Decodes one update source into the window (strict or tolerant, same
  /// semantics as mrt::decode_update_stream), reclassifying every
  /// kReclassifyBatch updates and once at end.  Decode counters fold into
  /// the engine stats — also on throw.  Thread-safe; concurrent queries
  /// interleave between records.
  void ingest(const mrt::ByteSource& source,
              const mrt::DecodeOptions& options = {},
              mrt::DecodeReport* report = nullptr);
  void ingest(std::istream& in, const mrt::DecodeOptions& options = {},
              mrt::DecodeReport* report = nullptr);

  /// Applies every row of one RIB dump to the window at its latest
  /// timestamp, with no batch cadence and no reclassification pass: a
  /// caller priming from several dumps runs reclassify() once after the
  /// last.  Decode counters fold into the engine stats, also on throw.
  /// Priming is not journaled, so it throws std::logic_error on an engine
  /// with a journal attached.
  void prime(const mrt::ByteSource& rib, const mrt::DecodeOptions& options = {},
             mrt::DecodeReport* report = nullptr);

  /// Ingests one announcement directly (the serve INGEST verb).  When
  /// `timestamp` is zero the window's latest stream timestamp is reused,
  /// so protocol-driven entries never move the window backward.
  void announce(const bgp::RibEntry& entry, std::uint32_t timestamp = 0);

  /// Folds an outcome decoded outside the engine (a batch INGEST's
  /// well-formed and malformed pairs) into the decode counters; journaled
  /// like an MRT source's.
  void record_decode(std::uint64_t ok, std::uint64_t skipped);

  /// Announcements applied so far (WindowClassifier::announces).
  [[nodiscard]] std::uint64_t announces() const;

  /// Reclassifies dirty alphas now, publishing any label changes.
  void reclassify();

  /// Label after reclassifying pending dirty state.
  [[nodiscard]] Intent label_of(Community community);

  [[nodiscard]] WindowClassifier::Totals totals();

  [[nodiscard]] EngineStats stats() const;

  /// Sequence number of the newest published event (0 = none yet).
  [[nodiscard]] std::uint64_t last_seq() const;

  /// Oldest sequence number still buffered (0 when the log is empty).
  [[nodiscard]] std::uint64_t first_buffered_seq() const;

  /// Buffered events with seq > `after`, oldest first, at most `limit`.
  /// Sets `gap` when `after` precedes the buffered range — the caller
  /// must take a full snapshot instead of trusting the delta.
  [[nodiscard]] std::vector<Event> events_since(std::uint64_t after,
                                                std::size_t limit,
                                                bool& gap) const;

  /// Full label snapshot (reclassifies first) plus the sequence number it
  /// is consistent with: events with seq > that are not yet reflected.
  [[nodiscard]] std::vector<std::pair<Community, Intent>> label_snapshot(
      std::uint64_t& as_of_seq);

  // --- Lock-free serve-tier signals -------------------------------------
  // The epoll shards poll these without touching mutex_: a warm LABEL
  // query compares its RCU snapshot's as_of_seq against published_seq()
  // and only falls into the locked path when the snapshot is stale or
  // unsettled dirty state could change the answer.

  /// Sequence of the newest published event; updated under mutex_ but
  /// readable without it.
  [[nodiscard]] std::uint64_t published_seq() const noexcept {
    return published_seq_.load(std::memory_order_acquire);
  }

  /// True while the window holds dirty alphas whose reclassification has
  /// not run yet (their labels may change at the next pass).
  [[nodiscard]] bool has_pending_dirty() const noexcept {
    return pending_dirty_.load(std::memory_order_acquire);
  }

  /// Callback invoked (under the engine mutex — keep it tiny and
  /// non-reentrant, e.g. an eventfd write) every time new events publish.
  /// The serve tier uses it to wake its shards for subscriber push and
  /// label-epoch refresh instead of polling.  Pass nullptr to clear.
  void set_publish_hook(std::function<void()> hook);

 private:
  class IngestSink;
  /// The body of both ingest overloads (a byte image or an istream).
  template <typename Input>
  void ingest_input(Input& input, const mrt::DecodeOptions& options,
                    mrt::DecodeReport* report);
  /// Replay (stream/recovery.cpp) applies journal records through the
  /// engine's internals without re-journaling them.
  friend class JournalReplayer;

  /// Callers hold mutex_.
  void announce_locked(const bgp::RibEntry& entry, std::uint32_t timestamp);
  void withdraw_locked(const bgp::VantagePointId& peer,
                       const bgp::Prefix& prefix, std::uint32_t timestamp);
  /// Post-update bookkeeping: batch-cadence reclassification and
  /// checkpoint pacing.
  void tick_locked();
  /// Runs a reclassification pass when there is dirty state (or
  /// `force_marker`, which journals a pass marker even for an empty pass —
  /// the batch cadence does this so replay keeps identical boundaries).
  void reclassify_locked(bool force_marker = false);
  void publish_locked(std::vector<LabelChange>&& changes);
  /// Hands the journal's buffered frames to write(2); no-op without one.
  void flush_journal_locked();
  void fold_decode_locked(std::uint64_t records_ok,
                          std::uint64_t records_skipped);
  void write_checkpoint_locked();
  [[nodiscard]] std::vector<std::uint8_t> encode_image_locked() const;
  [[nodiscard]] EngineState export_state_locked(bool with_paths) const;

  mutable std::mutex mutex_;
  WindowClassifier window_;
  std::deque<Event> events_;   // trimmed front at kMaxBufferedEvents
  std::uint64_t next_seq_ = 1;
  std::uint64_t decode_ok_ = 0;
  std::uint64_t decode_errors_ = 0;
  /// Engine-level batch cadence (journaled so replay reproduces it); never
  /// exceeds kReclassifyBatch outside replay.
  std::uint64_t updates_since_reclassify_ = 0;
  /// Mirrors of next_seq_ - 1 and the window's dirty set, maintained under
  /// mutex_ for lock-free reading by the serve shards (see published_seq).
  std::atomic<std::uint64_t> published_seq_{0};
  std::atomic<bool> pending_dirty_{false};
  std::function<void()> publish_hook_;

  std::unique_ptr<JournalWriter> journal_;
  std::vector<std::uint8_t> scratch_;  // record encode buffer
  std::uint64_t checkpoint_interval_ = 0;  // updates; 0 = disabled
  std::uint64_t updates_since_checkpoint_ = 0;
  JournalWriterStats detached_journal_stats_;  // survives detach_journal()
  std::uint64_t recovered_events_ = 0;
  std::uint64_t torn_tail_truncated_ = 0;
};

}  // namespace bgpintent::stream
