#include "core/ingest.hpp"

#include "mrt/framing.hpp"
#include "mrt/mrt_file.hpp"
#include "mrt/update_stream.hpp"
#include "util/thread_pool.hpp"

#include <deque>
#include <future>
#include <istream>
#include <memory>
#include <utility>

namespace bgpintent::core {

namespace {

/// The interning sink: each decoded row interns its path once and appends
/// one 8-byte tuple per community.  Rows without communities contribute no
/// tuples and intern nothing, exactly like bgp::intern_entries — so the
/// streaming table/tuple stream is identical to materialize-then-intern.
/// A RIB has no withdrawals: those of BGP4MP records are dropped.
class InternSink final : public mrt::UpdateSink {
 public:
  InternSink(bgp::PathTable& paths, std::vector<bgp::InternedTuple>& tuples,
             std::size_t& entries) noexcept
      : paths_(&paths), tuples_(&tuples), entries_(&entries) {}

  void on_announce(bgp::RibEntry& entry, std::uint32_t) override {
    ++*entries_;
    if (entry.route.communities.empty()) return;
    const bgp::PathId id = paths_->intern(entry.route.path);
    for (const bgp::Community community : entry.route.communities)
      tuples_->push_back(bgp::InternedTuple{id, community});
  }
  void on_withdraw(const bgp::VantagePointId&, const bgp::Prefix&,
                   std::uint32_t) override {}

 private:
  bgp::PathTable* paths_;
  std::vector<bgp::InternedTuple>* tuples_;
  std::size_t* entries_;
};

/// One decoded chunk's worth of interned state, local to its worker.
struct ChunkOutcome {
  bgp::PathTable paths;                    // chunk-local ids
  std::vector<bgp::InternedTuple> tuples;  // referencing chunk-local ids
  std::size_t entries = 0;
  mrt::DecodeReport report;  // used by the tolerant path only
};

/// References into one MrtIngest's accumulators plus the per-add report.
struct Accumulator {
  bgp::PathTable& paths;
  std::vector<bgp::InternedTuple>& tuples;
  std::size_t& entries;
  mrt::DecodeReport& report;
};

/// Folds one chunk into the global accumulator.  Chunks arrive in
/// submission order and local ids 0..n-1 are in first-appearance order
/// within the chunk, so re-interning them in order assigns global ids in
/// global first-appearance order — the same ids the sequential pass
/// assigns.  Tuples then remap local -> global.
void merge_chunk(ChunkOutcome&& outcome, Accumulator& acc) {
  acc.entries += outcome.entries;
  std::vector<bgp::PathId> remap(outcome.paths.size());
  for (std::size_t id = 0; id < outcome.paths.size(); ++id)
    remap[id] = acc.paths.intern(
        outcome.paths.materialize(static_cast<bgp::PathId>(id)));
  for (const bgp::InternedTuple& tuple : outcome.tuples)
    acc.tuples.push_back(bgp::InternedTuple{remap[tuple.path], tuple.community});
  acc.report.merge(outcome.report);
}

/// Bounded in-flight chunk queue shared by the parallel ingest flavors.
/// Chunks may hold views into the source image, so in-flight futures are
/// always drained — even when framing or a worker throws — before control
/// leaves the ingest call.
class ChunkQueue {
 public:
  ChunkQueue(util::ThreadPool& pool, Accumulator& acc) noexcept
      : pool_(&pool), acc_(&acc),
        max_in_flight_(static_cast<std::size_t>(pool.size()) * 2 + 2) {}

  template <typename Task>
  void submit(Task&& task) {
    in_flight_.push_back(pool_->submit(std::forward<Task>(task)));
    while (in_flight_.size() >= max_in_flight_) drain_front();
  }

  void drain_front() {
    ChunkOutcome outcome = in_flight_.front().get();
    in_flight_.pop_front();
    merge_chunk(std::move(outcome), *acc_);
  }

  void drain_all() {
    while (!in_flight_.empty()) drain_front();
  }

  [[nodiscard]] bool empty() const noexcept { return in_flight_.empty(); }

  /// Exception path: wait for every in-flight chunk (their results and
  /// errors are discarded) so no task outlives the source image.
  void abandon() noexcept {
    while (!in_flight_.empty()) {
      try {
        in_flight_.front().get();
      } catch (...) {
      }
      in_flight_.pop_front();
    }
  }

 private:
  util::ThreadPool* pool_;
  Accumulator* acc_;
  std::size_t max_in_flight_;
  std::deque<std::future<ChunkOutcome>> in_flight_;
};

/// Parallel strict ingest of an in-memory image: the calling thread frames
/// zero-copy RecordViews and decodes peer tables; workers decode+intern
/// chunks.  records_ok is counted at framing time, and body errors are
/// rethrown in chunk order: the first malformed record in stream order
/// wins, as in the sequential decode.  Framing errors (truncated header or
/// body, oversized record) raise immediately; PEER_INDEX_TABLE records
/// flush the current chunk, so no chunk spans two peer tables.
void ingest_parallel_strict_image(std::span<const std::uint8_t> data,
                                  util::ThreadPool& pool, Accumulator& acc) {
  ChunkQueue queue(pool, acc);
  auto peers = std::make_shared<const std::vector<bgp::VantagePointId>>();
  auto submit_chunk = [&](std::vector<mrt::RecordView>&& records) {
    queue.submit([records = std::move(records), snapshot = peers]() {
      ChunkOutcome outcome;
      InternSink sink(outcome.paths, outcome.tuples, outcome.entries);
      mrt::RowScratch scratch;
      for (const mrt::RecordView& record : records)
        mrt::decode_data_record(record, *snapshot, sink, scratch);
      return outcome;
    });
  };

  mrt::StrictFramer framer(data);
  mrt::RecordView record;
  std::vector<mrt::RecordView> batch;
  try {
    while (framer.next(record)) {
      ++acc.report.records_ok;
      if (mrt::is_peer_index_table(record)) {
        if (!batch.empty()) {
          submit_chunk(std::move(batch));
          batch = {};
        }
        peers = std::make_shared<const std::vector<bgp::VantagePointId>>(
            mrt::decode_peer_index_table(record));
        continue;
      }
      batch.push_back(record);
      if (batch.size() >= mrt::kChunkRecords) {
        submit_chunk(std::move(batch));
        batch = {};
      }
    }
    if (!batch.empty()) submit_chunk(std::move(batch));
    queue.drain_all();
  } catch (...) {
    queue.abandon();
    throw;
  }
}

/// Parallel tolerant ingest of an in-memory image.  The calling thread
/// frames with TolerantFramer (the sequential decode's resync decisions);
/// workers capture chunk-local decode errors in their chunk's report
/// instead of throwing, and chunk reports merge in submission order, so
/// counters equal the sequential decode's at any pool size.  Budget trips
/// are deferred: every in-flight chunk is drained before
/// DecodeBudgetError is raised, so sibling chunks are never abandoned.
void ingest_parallel_tolerant_image(std::span<const std::uint8_t> data,
                                    util::ThreadPool& pool,
                                    const mrt::DecodeOptions& options,
                                    Accumulator& acc) {
  ChunkQueue queue(pool, acc);
  auto peers = std::make_shared<const std::vector<bgp::VantagePointId>>();
  bool budget_tripped = false;
  auto drain_front = [&]() {
    queue.drain_front();
    if (acc.report.over_budget(options)) budget_tripped = true;
  };
  auto submit_chunk = [&](std::vector<mrt::TolerantFramer::Framed>&& frames) {
    queue.submit([frames = std::move(frames), snapshot = peers]() {
      ChunkOutcome outcome;
      InternSink sink(outcome.paths, outcome.tuples, outcome.entries);
      mrt::RowScratch scratch;
      for (const mrt::TolerantFramer::Framed& framed : frames) {
        try {
          mrt::decode_data_record(framed.record, *snapshot, sink, scratch);
          ++outcome.report.records_ok;
        } catch (const mrt::MrtError& error) {
          mrt::record_body_failure(outcome.report, framed, error.what());
        }
      }
      return outcome;
    });
  };

  mrt::TolerantFramer framer(data, options, acc.report);
  std::vector<mrt::TolerantFramer::Framed> batch;
  try {
    try {
      mrt::TolerantFramer::Framed framed;
      while (!budget_tripped && framer.next(framed)) {
        if (mrt::is_peer_index_table(framed.record)) {
          if (!batch.empty()) {
            submit_chunk(std::move(batch));
            batch = {};
          }
          try {
            peers = std::make_shared<const std::vector<bgp::VantagePointId>>(
                mrt::decode_peer_index_table(framed.record));
            ++acc.report.records_ok;
          } catch (const mrt::MrtError& error) {
            // Keep the previous peer-table snapshot, exactly as the
            // sequential tolerant decode does.
            mrt::record_body_failure(acc.report, framed, error.what());
            if (acc.report.over_budget(options)) budget_tripped = true;
          }
          continue;
        }
        batch.push_back(framed);
        if (batch.size() >= mrt::kChunkRecords) {
          submit_chunk(std::move(batch));
          batch = {};
        }
      }
    } catch (const mrt::DecodeBudgetError&) {
      // Framing-side budget trip; the shared report already reflects it.
      budget_tripped = true;
    }
    if (!budget_tripped && !batch.empty()) submit_chunk(std::move(batch));
    while (!queue.empty()) drain_front();
    if (budget_tripped) mrt::throw_budget(acc.report);
    mrt::check_final_budget(acc.report, options);
  } catch (...) {
    queue.abandon();
    throw;
  }
}

/// Parallel strict ingest off an istream: framing cannot be split and the
/// stream cannot be viewed, so the calling thread reads owned record
/// bodies (bounded by the in-flight chunk cap) and workers decode+intern.
void ingest_parallel_strict_stream(std::istream& in, util::ThreadPool& pool,
                                   Accumulator& acc) {
  ChunkQueue queue(pool, acc);
  auto peers = std::make_shared<const std::vector<bgp::VantagePointId>>();
  auto submit_chunk = [&](std::vector<mrt::MrtRecord>&& records) {
    queue.submit([records = std::move(records), snapshot = peers]() {
      ChunkOutcome outcome;
      InternSink sink(outcome.paths, outcome.tuples, outcome.entries);
      mrt::RowScratch scratch;
      for (const mrt::MrtRecord& record : records)
        mrt::decode_data_record(
            mrt::RecordView{record.timestamp, record.type, record.subtype,
                            record.body},
            *snapshot, sink, scratch);
      return outcome;
    });
  };

  mrt::MrtReader reader(in);
  mrt::MrtRecord record;
  std::vector<mrt::MrtRecord> batch;
  try {
    while (reader.next(record)) {
      ++acc.report.records_ok;
      if (mrt::is_peer_index_table(record.type, record.subtype)) {
        if (!batch.empty()) {
          submit_chunk(std::move(batch));
          batch = {};
        }
        peers = std::make_shared<const std::vector<bgp::VantagePointId>>(
            mrt::decode_peer_index_table(
                mrt::RecordView{record.timestamp, record.type, record.subtype,
                                record.body}));
        continue;
      }
      batch.push_back(std::move(record));
      record = {};
      if (batch.size() >= mrt::kChunkRecords) {
        submit_chunk(std::move(batch));
        batch = {};
      }
    }
    if (!batch.empty()) submit_chunk(std::move(batch));
    queue.drain_all();
  } catch (...) {
    queue.abandon();
    throw;
  }
}

/// Sequential ingest of one input (a byte image or an istream): the
/// decode report merges into the accumulator also on throw.
template <typename Input>
void ingest_sequential(Input& input, const mrt::DecodeOptions& options,
                       Accumulator acc) {
  InternSink sink(acc.paths, acc.tuples, acc.entries);
  mrt::DecodeReport local;
  try {
    mrt::decode_update_stream(input, sink, options, &local);
  } catch (...) {
    acc.report.merge(local);
    throw;
  }
  acc.report.merge(local);
}

}  // namespace

void MrtIngest::add(const mrt::ByteSource& source) {
  ingest_sequential(source, options_, {paths_, tuples_, entries_, report_});
}

void MrtIngest::add(std::istream& in) {
  ingest_sequential(in, options_, {paths_, tuples_, entries_, report_});
}

void MrtIngest::add_parallel(const mrt::ByteSource& source,
                             util::ThreadPool& pool) {
  mrt::DecodeReport local;
  Accumulator acc{paths_, tuples_, entries_, local};
  try {
    if (options_.tolerant())
      ingest_parallel_tolerant_image(source.data(), pool, options_, acc);
    else
      ingest_parallel_strict_image(source.data(), pool, acc);
  } catch (...) {
    report_.merge(local);
    throw;
  }
  report_.merge(local);
}

void MrtIngest::add_parallel(std::istream& in, util::ThreadPool& pool) {
  if (options_.tolerant()) {
    // Resync needs random access; buffer the stream like the sequential
    // tolerant path, then take the image route.
    const mrt::BufferSource source(mrt::slurp_stream(in));
    add_parallel(source, pool);
    return;
  }
  mrt::DecodeReport local;
  Accumulator acc{paths_, tuples_, entries_, local};
  try {
    ingest_parallel_strict_stream(in, pool, acc);
  } catch (...) {
    report_.merge(local);
    throw;
  }
  report_.merge(local);
}

}  // namespace bgpintent::core
