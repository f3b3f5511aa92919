#include "stream/engine.hpp"

#include <algorithm>
#include <istream>
#include <stdexcept>

#include "mrt/mrt_file.hpp"
#include "stream/checkpoint.hpp"
#include "stream/image.hpp"

namespace bgpintent::stream {

StreamEngine::~StreamEngine() = default;

/// UpdateSink bridge: locks per record batch-free (the mutex is
/// uncontended on the hot path); announce_locked/withdraw_locked journal,
/// apply, and run the batch-cadence reclassification tick.
class StreamEngine::IngestSink final : public mrt::UpdateSink {
 public:
  explicit IngestSink(StreamEngine& engine) noexcept : engine_(&engine) {}

  void on_announce(bgp::RibEntry& entry, std::uint32_t timestamp) override {
    std::lock_guard<std::mutex> lock(engine_->mutex_);
    engine_->announce_locked(entry, timestamp);
  }
  void on_withdraw(const bgp::VantagePointId& peer, const bgp::Prefix& prefix,
                   std::uint32_t timestamp) override {
    std::lock_guard<std::mutex> lock(engine_->mutex_);
    engine_->withdraw_locked(peer, prefix, timestamp);
  }

 private:
  StreamEngine* engine_;
};

void StreamEngine::ingest(const mrt::ByteSource& source,
                          const mrt::DecodeOptions& options,
                          mrt::DecodeReport* report) {
  IngestSink sink(*this);
  mrt::DecodeReport local;
  try {
    mrt::decode_update_stream(source, sink, options, &local);
  } catch (...) {
    std::lock_guard<std::mutex> lock(mutex_);
    fold_decode_locked(local.records_ok, local.records_skipped);
    reclassify_locked();
    if (report) *report = std::move(local);
    throw;
  }
  std::lock_guard<std::mutex> lock(mutex_);
  fold_decode_locked(local.records_ok, local.records_skipped);
  reclassify_locked();
  if (report) *report = std::move(local);
}

void StreamEngine::ingest(std::istream& in, const mrt::DecodeOptions& options,
                          mrt::DecodeReport* report) {
  IngestSink sink(*this);
  mrt::DecodeReport local;
  try {
    mrt::decode_update_stream(in, sink, options, &local);
  } catch (...) {
    std::lock_guard<std::mutex> lock(mutex_);
    fold_decode_locked(local.records_ok, local.records_skipped);
    reclassify_locked();
    if (report) *report = std::move(local);
    throw;
  }
  std::lock_guard<std::mutex> lock(mutex_);
  fold_decode_locked(local.records_ok, local.records_skipped);
  reclassify_locked();
  if (report) *report = std::move(local);
}

void StreamEngine::prime(const mrt::ByteSource& rib,
                         const mrt::DecodeOptions& options,
                         mrt::DecodeReport* report) {
  class Sink final : public mrt::EntrySink {
   public:
    explicit Sink(WindowClassifier& window) noexcept : window_(&window) {}
    void on_entry(bgp::RibEntry& entry) override {
      window_->announce(entry, window_->latest_timestamp());
    }

   private:
    WindowClassifier* window_;
  };
  std::lock_guard<std::mutex> lock(mutex_);
  if (journal_)
    throw std::logic_error("cannot prime an engine with a journal attached");
  Sink sink(window_);
  mrt::DecodeReport local;
  const auto finish = [&] {
    fold_decode_locked(local.records_ok, local.records_skipped);
    pending_dirty_.store(window_.dirty_alpha_count() > 0,
                         std::memory_order_release);
    if (report) *report = std::move(local);
  };
  try {
    mrt::decode_rib_stream(rib, sink, options, &local);
  } catch (...) {
    finish();
    throw;
  }
  finish();
}

void StreamEngine::record_decode(std::uint64_t ok, std::uint64_t skipped) {
  std::lock_guard<std::mutex> lock(mutex_);
  fold_decode_locked(ok, skipped);
}

std::uint64_t StreamEngine::announces() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return window_.announces();
}

void StreamEngine::announce(const bgp::RibEntry& entry,
                            std::uint32_t timestamp) {
  std::lock_guard<std::mutex> lock(mutex_);
  const std::uint32_t at =
      timestamp != 0 ? timestamp : window_.latest_timestamp();
  announce_locked(entry, at);
}

void StreamEngine::announce_locked(const bgp::RibEntry& entry,
                                   std::uint32_t timestamp) {
  // Write-ahead: the update hits the journal before any state it may
  // change becomes observable.
  if (journal_) {
    scratch_.clear();
    encode_announce_record(scratch_, entry.route.path,
                           entry.route.communities, timestamp);
    journal_->append(scratch_);
  }
  const bool started_before = window_.started();
  const std::uint64_t epoch_before = window_.current_epoch();
  window_.announce(entry, timestamp);
  if (journal_ &&
      (!started_before || window_.current_epoch() != epoch_before)) {
    scratch_.clear();
    encode_epoch_record(scratch_, window_.current_epoch());
    journal_->append(scratch_);
  }
  tick_locked();
  pending_dirty_.store(window_.dirty_alpha_count() > 0,
                       std::memory_order_release);
}

void StreamEngine::withdraw_locked(const bgp::VantagePointId& peer,
                                   const bgp::Prefix& prefix,
                                   std::uint32_t timestamp) {
  if (journal_) {
    scratch_.clear();
    encode_withdraw_record(scratch_, timestamp);
    journal_->append(scratch_);
  }
  const bool started_before = window_.started();
  const std::uint64_t epoch_before = window_.current_epoch();
  window_.withdraw(peer, prefix, timestamp);
  if (journal_ &&
      (!started_before || window_.current_epoch() != epoch_before)) {
    scratch_.clear();
    encode_epoch_record(scratch_, window_.current_epoch());
    journal_->append(scratch_);
  }
  tick_locked();
  pending_dirty_.store(window_.dirty_alpha_count() > 0,
                       std::memory_order_release);
}

void StreamEngine::tick_locked() {
  if (++updates_since_reclassify_ >= kReclassifyBatch) {
    updates_since_reclassify_ = 0;
    // force_marker: journal the pass even when nothing was dirty, so
    // replay resets its cadence counter at the same record boundary.
    reclassify_locked(/*force_marker=*/true);
  }
  if (journal_ != nullptr && checkpoint_interval_ != 0 &&
      ++updates_since_checkpoint_ >= checkpoint_interval_) {
    updates_since_checkpoint_ = 0;
    write_checkpoint_locked();
  }
}

void StreamEngine::fold_decode_locked(std::uint64_t records_ok,
                                      std::uint64_t records_skipped) {
  decode_ok_ += records_ok;
  decode_errors_ += records_skipped;
  if (journal_) {
    scratch_.clear();
    encode_decode_stats_record(scratch_, records_ok, records_skipped);
    journal_->append(scratch_);
  }
}

void StreamEngine::reclassify() {
  std::lock_guard<std::mutex> lock(mutex_);
  reclassify_locked();
}

void StreamEngine::reclassify_locked(bool force_marker) {
  // An empty dirty set means reclassify_dirty() would be a pure no-op;
  // skipping it keeps query paths (label_of, totals, snapshots) from
  // journaling a marker per call.
  const bool had_dirty = window_.dirty_alpha_count() > 0;
  if (!had_dirty && !force_marker) {
    pending_dirty_.store(false, std::memory_order_release);
    return;
  }
  std::vector<LabelChange> changes = window_.reclassify_dirty();
  pending_dirty_.store(false, std::memory_order_release);
  if (journal_) {
    const std::uint64_t first_seq = next_seq_;
    for (std::size_t i = 0; i < changes.size(); ++i) {
      scratch_.clear();
      encode_event_record(scratch_, first_seq + i, changes[i]);
      journal_->append(scratch_);
    }
    scratch_.clear();
    encode_reclassify_record(scratch_, first_seq, changes.size(),
                             updates_since_reclassify_);
    journal_->append(scratch_);
  }
  publish_locked(std::move(changes));
}

void StreamEngine::publish_locked(std::vector<LabelChange>&& changes) {
  const bool any = !changes.empty();
  for (LabelChange& change : changes) {
    events_.push_back(Event{next_seq_++, std::move(change)});
  }
  while (events_.size() > kMaxBufferedEvents) events_.pop_front();
  if (any) {
    published_seq_.store(next_seq_ - 1, std::memory_order_release);
    if (publish_hook_) publish_hook_();
  }
}

void StreamEngine::set_publish_hook(std::function<void()> hook) {
  std::lock_guard<std::mutex> lock(mutex_);
  publish_hook_ = std::move(hook);
}

Intent StreamEngine::label_of(Community community) {
  std::lock_guard<std::mutex> lock(mutex_);
  reclassify_locked();
  return window_.label_of(community);
}

WindowClassifier::Totals StreamEngine::totals() {
  std::lock_guard<std::mutex> lock(mutex_);
  reclassify_locked();
  return window_.totals();
}

EngineStats StreamEngine::stats() const {
  std::lock_guard<std::mutex> lock(mutex_);
  EngineStats stats;
  stats.updates_ok = decode_ok_;
  stats.updates_errors = decode_errors_;
  stats.announces = window_.announces();
  stats.withdraws = window_.withdraws();
  stats.window_epochs = window_.window_epoch_count();
  stats.expired_epochs = window_.expired_epochs();
  stats.reclassified_communities = window_.reclassified_communities();
  stats.events = next_seq_ - 1;
  stats.live_tuples = window_.live_tuple_count();
  stats.dirty_alphas = window_.dirty_alpha_count();
  stats.current_epoch = window_.current_epoch();
  stats.latest_timestamp = window_.latest_timestamp();
  stats.window_memory_bytes = window_.memory_bytes();
  const JournalWriterStats& journal =
      journal_ ? journal_->stats() : detached_journal_stats_;
  stats.journal_appends = journal.appends;
  stats.journal_bytes = journal.bytes;
  stats.recovered_events = recovered_events_;
  stats.torn_tail_truncated = torn_tail_truncated_;
  return stats;
}

void StreamEngine::attach_journal(std::unique_ptr<JournalWriter> writer,
                                  std::uint64_t checkpoint_interval_updates) {
  std::lock_guard<std::mutex> lock(mutex_);
  journal_ = std::move(writer);
  checkpoint_interval_ = checkpoint_interval_updates;
  updates_since_checkpoint_ = 0;
  if (journal_ && journal_->next_record() == 0) {
    scratch_.clear();
    encode_config_record(scratch_, window_.config());
    journal_->append(scratch_);
  }
}

void StreamEngine::detach_journal() {
  std::lock_guard<std::mutex> lock(mutex_);
  if (!journal_) return;
  write_checkpoint_locked();  // clean shutdown: recovery replays nothing
  detached_journal_stats_ = journal_->stats();
  journal_->close();
  journal_.reset();
}

bool StreamEngine::has_journal() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return journal_ != nullptr;
}

void StreamEngine::checkpoint_now() {
  std::lock_guard<std::mutex> lock(mutex_);
  if (journal_) write_checkpoint_locked();
}

void StreamEngine::write_checkpoint_locked() {
  const std::vector<std::uint8_t> image = encode_image_locked();
  // Make the covered journal prefix durable before naming it in the
  // checkpoint, so a loadable checkpoint never claims records the journal
  // cannot serve.
  journal_->sync();
  save_checkpoint(journal_->config().directory, journal_->next_record(),
                  image);
}

std::vector<std::uint8_t> StreamEngine::encode_image() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return encode_image_locked();
}

std::vector<std::uint8_t> StreamEngine::encode_image_locked() const {
  // The paths go in as PathTable columns, not as materialized rows.
  return stream::encode_image(window_.config(),
                              export_state_locked(/*with_paths=*/false),
                              window_.paths());
}

EngineState StreamEngine::export_state_locked(bool with_paths) const {
  EngineState state;
  state.window = window_.export_state(with_paths);
  state.events.assign(events_.begin(), events_.end());
  state.next_seq = next_seq_;
  state.decode_ok = decode_ok_;
  state.decode_errors = decode_errors_;
  state.updates_since_reclassify = updates_since_reclassify_;
  return state;
}

EngineState StreamEngine::export_state() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return export_state_locked(/*with_paths=*/true);
}

void StreamEngine::restore_state(const EngineState& state,
                                 bgp::PathTable paths) {
  std::lock_guard<std::mutex> lock(mutex_);
  window_.restore_state(state.window, std::move(paths));
  events_.assign(state.events.begin(), state.events.end());
  next_seq_ = state.next_seq;
  decode_ok_ = state.decode_ok;
  decode_errors_ = state.decode_errors;
  updates_since_reclassify_ = state.updates_since_reclassify;
  published_seq_.store(next_seq_ - 1, std::memory_order_release);
  pending_dirty_.store(window_.dirty_alpha_count() > 0,
                       std::memory_order_release);
}

std::uint64_t StreamEngine::last_seq() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return next_seq_ - 1;
}

std::uint64_t StreamEngine::first_buffered_seq() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return events_.empty() ? 0 : events_.front().seq;
}

std::vector<Event> StreamEngine::events_since(std::uint64_t after,
                                              std::size_t limit,
                                              bool& gap) const {
  std::lock_guard<std::mutex> lock(mutex_);
  gap = !events_.empty() && after + 1 < events_.front().seq;
  std::vector<Event> out;
  const auto begin = std::upper_bound(
      events_.begin(), events_.end(), after,
      [](std::uint64_t seq, const Event& event) { return seq < event.seq; });
  for (auto it = begin; it != events_.end() && out.size() < limit; ++it)
    out.push_back(*it);
  return out;
}

std::vector<std::pair<Community, Intent>> StreamEngine::label_snapshot(
    std::uint64_t& as_of_seq) {
  std::lock_guard<std::mutex> lock(mutex_);
  reclassify_locked();
  as_of_seq = next_seq_ - 1;
  return window_.labels();
}

}  // namespace bgpintent::stream
