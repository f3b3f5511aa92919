// stream_journal: a BGP4MP firehose cut into dump-sized files, fed file by
// file to a journaled StreamEngine (what `bgpintent stream f1 f2 ...
// --journal DIR` does), then a crash and the timed restart.
#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "core/classifier.hpp"
#include "core/observations.hpp"
#include "gen.hpp"
#include "mrt/source.hpp"
#include "mrt/update_stream.hpp"
#include "stream/engine.hpp"
#include "stream/journal.hpp"
#include "stream/recovery.hpp"
#include "trace.hpp"
#include "util.hpp"

namespace perfbench {
namespace {

namespace fs = std::filesystem;

// The CLI's checkpoint default.  The journal runs with fsync=never: the
// interval policy's fdatasync calls time the shared disk, not the program,
// and made the latency tail swing from run to run.  Checkpoints still
// fsync, as they always do.
constexpr std::uint64_t kCheckpointInterval = 100000;
constexpr int kRecoveries = 7;

stream::JournalConfig journal_config(const std::string& directory) {
  stream::JournalConfig config;
  config.directory = directory;
  config.fsync = stream::FsyncPolicy::kNever;
  return config;
}

stream::RecoveryOptions recovery_options(
    std::uint64_t checkpoint_interval = kCheckpointInterval) {
  stream::RecoveryOptions options;
  options.checkpoint_interval_updates = checkpoint_interval;
  return options;
}

std::vector<std::string> stream_files(const Options& options) {
  std::vector<std::string> files;
  for (int i = 0; i < kStreamFiles; ++i)
    files.push_back(options.dir + "/" + stream_file_name(i));
  return files;
}

/// Order-sensitive digest of an engine image, so the pre-crash state can
/// be compared after it is gone without holding it in memory.
class Digest {
 public:
  void add(std::uint64_t v) { h_ = mix(h_, v); }
  [[nodiscard]] std::uint64_t value() const { return h_; }

 private:
  std::uint64_t h_ = 0x6a09e667f3bcc908ULL;
};

std::uint64_t digest(const stream::EngineState& state) {
  Digest d;
  const stream::WindowState& w = state.window;
  d.add(w.paths.size());
  for (const bgp::AsPath& path : w.paths) d.add(path.hash());
  d.add(w.ring.size());
  for (const auto& epoch : w.ring) {
    d.add(epoch.id);
    d.add(epoch.tuples.size());
    for (const auto& [key, count] : epoch.tuples) d.add(key ^ (std::uint64_t{count} << 48));
  }
  for (const auto& alpha : w.alphas) {
    d.add(alpha.alpha);
    for (const auto& [beta, intent] : alpha.labels)
      d.add(std::uint64_t{beta} << 8 | static_cast<std::uint8_t>(intent));
  }
  for (const std::uint16_t alpha : w.dirty) d.add(alpha);
  for (const std::uint64_t v :
       {std::uint64_t{w.started}, w.current_epoch, std::uint64_t{w.latest_timestamp},
        w.announces, w.withdraws, w.expired_epochs, w.reclassified_communities})
    d.add(v);
  d.add(state.events.size());
  for (const stream::Event& event : state.events) {
    d.add(event.seq);
    d.add(event.change.community.wire());
    d.add(static_cast<std::uint64_t>(event.change.previous) << 8 |
          static_cast<std::uint64_t>(event.change.current));
    d.add(event.change.epoch);
  }
  for (const std::uint64_t v : {state.next_seq, state.decode_ok, state.decode_errors,
                                state.updates_since_reclassify})
    d.add(v);
  return d.value();
}

/// The engine's labels equal a from-scratch batch build over the window's
/// live tuples (the windowed == batch property).
bool labels_match_batch(stream::StreamEngine& engine,
                        const stream::EngineState& state) {
  bgp::PathTable paths;
  for (const bgp::AsPath& path : state.window.paths) paths.intern(path);
  std::vector<std::uint64_t> keys;
  for (const auto& epoch : state.window.ring)
    for (const auto& [key, count] : epoch.tuples) keys.push_back(key);
  std::sort(keys.begin(), keys.end());
  keys.erase(std::unique(keys.begin(), keys.end()), keys.end());
  std::vector<bgp::InternedTuple> tuples;
  tuples.reserve(keys.size());
  for (const std::uint64_t key : keys)
    tuples.push_back({static_cast<bgp::PathId>(key >> 32),
                      bgp::Community::from_wire(static_cast<std::uint32_t>(key))});
  const stream::WindowConfig config;
  const core::ObservationIndex index = core::ObservationIndex::build_interned(
      paths, tuples, nullptr, nullptr, config.observation);
  const core::InferenceResult batch = core::classify(index, config.classifier);

  std::uint64_t seq = 0;
  std::size_t labelled = 0;
  for (const auto& [community, intent] : engine.label_snapshot(seq)) {
    if (batch.label_of(community) != intent) return false;
    labelled += intent == dict::Intent::kUnclassified ? 0 : 1;
  }
  std::size_t inferred = 0;
  for (const auto& [community, intent] : batch.labels)
    inferred += intent == dict::Intent::kUnclassified ? 0 : 1;
  return labelled == inferred;
}

/// Feeds every file to `engine`, recording each file's ingest time.
void ingest_files(stream::StreamEngine& engine,
                  const std::vector<std::string>& files, Result& result,
                  std::vector<double>* file_s, Tracer* tracer,
                  const char* span_name) {
  for (std::size_t f = 0; f < files.size(); ++f) {
    const auto source = mrt::open_source(files[f]);
    mrt::DecodeReport report;
    const auto a = Clock::now();
    if (tracer != nullptr) {
      Tracer::Scope span(*tracer, span_name, f);
      engine.ingest(*source, {}, &report);
    } else {
      engine.ingest(*source, {}, &report);
    }
    if (file_s != nullptr) file_s->push_back(seconds_between(a, Clock::now()));
    ++result.attempted;
    if (report.records_skipped != 0)
      result.check(false, "update decode errors in " + files[f]);
  }
}

/// Counts decoded updates without applying them (the mrt stage).
class CountingSink final : public mrt::UpdateSink {
 public:
  void on_announce(bgp::RibEntry&, std::uint32_t) override { ++updates; }
  void on_withdraw(const bgp::VantagePointId&, const bgp::Prefix&,
                   std::uint32_t) override {
    ++updates;
  }
  std::uint64_t updates = 0;
};

/// Keeps decoded updates so the window can be timed without decode.
class CollectSink final : public mrt::UpdateSink {
 public:
  struct Update {
    bool withdraw = false;
    std::uint32_t timestamp = 0;
    bgp::RibEntry entry;  // withdrawals use vantage_point and route.prefix
  };
  void on_announce(bgp::RibEntry& entry, std::uint32_t timestamp) override {
    updates.push_back({false, timestamp, entry});
  }
  void on_withdraw(const bgp::VantagePointId& peer, const bgp::Prefix& prefix,
                   std::uint32_t timestamp) override {
    Update update{true, timestamp, {}};
    update.entry.vantage_point = peer;
    update.entry.route.prefix = prefix;
    updates.push_back(std::move(update));
  }
  std::vector<Update> updates;
};

/// Files added or rewritten in `dir` since `before`, in bytes.
std::uint64_t bytes_written_since(const std::string& dir,
                                  const std::map<std::string, fs::file_time_type>& before) {
  std::uint64_t bytes = 0;
  for (const auto& file : fs::directory_iterator(dir)) {
    const auto it = before.find(file.path().filename().string());
    if (it == before.end() || it->second != file.last_write_time())
      bytes += file.file_size();
  }
  return bytes;
}

std::map<std::string, fs::file_time_type> listing(const std::string& dir) {
  std::map<std::string, fs::file_time_type> out;
  for (const auto& file : fs::directory_iterator(dir))
    out[file.path().filename().string()] = file.last_write_time();
  return out;
}

int run_traced(const Options& options, Result& result) {
  const std::vector<std::string> files = stream_files(options);
  Tracer tracer(1 << 16);

  // mrt: update decode alone.
  std::uint64_t updates = 0;
  for (std::size_t f = 0; f < files.size(); ++f) {
    const auto source = mrt::open_source(files[f]);
    CountingSink sink;
    {
      Tracer::Scope span(tracer, "mrt.update_decode", f);
      mrt::decode_update_stream(*source, sink);
    }
    updates += sink.updates;
  }

  // stream window: pre-decoded updates through a bare WindowClassifier,
  // reclassified at the engine's cadence.
  std::uint64_t passes = 0;
  std::uint64_t dirty = 0;
  std::uint64_t events = 0;
  {
    std::vector<std::vector<CollectSink::Update>> decoded;
    for (const std::string& file : files) {
      CollectSink sink;
      mrt::decode_update_stream(*mrt::open_source(file), sink);
      decoded.push_back(std::move(sink.updates));
    }
    stream::WindowClassifier window{stream::WindowConfig{}};
    std::uint64_t since = 0;
    auto reclassify = [&](std::size_t f) {
      Tracer::Scope span(tracer, "stream.reclassify", f);
      ++passes;
      dirty += window.dirty_alpha_count();
      events += window.reclassify_dirty().size();
    };
    for (std::size_t f = 0; f < decoded.size(); ++f) {
      Tracer::Scope span(tracer, "stream.window", f);
      for (const CollectSink::Update& u : decoded[f]) {
        if (u.withdraw) {
          window.withdraw(u.entry.vantage_point, u.entry.route.prefix, u.timestamp);
        } else {
          window.announce(u.entry, u.timestamp);
        }
        if (++since >= stream::StreamEngine::kReclassifyBatch) {
          since = 0;
          reclassify(f);
        }
      }
      reclassify(f);
    }
  }

  // The engine without and with the journal, neither checkpointing: the
  // difference is journaling alone (checkpoints are timed on their own).
  const std::string dir = options.dir + "/journal";
  stream::EngineStats journal_stats;
  {
    stream::StreamEngine plain{stream::WindowConfig{}};
    ingest_files(plain, files, result, nullptr, &tracer, "stream.ingest_plain");
  }
  fs::remove_all(dir);
  {
    auto engine = stream::recover_stream(journal_config(dir), recovery_options(0));
    ingest_files(*engine, files, result, nullptr, &tracer, "stream.ingest_journal");
    journal_stats = engine->stats();
  }
  // The timed run's configuration, checkpoints included, then the same
  // crash and recovery as the timed run, with the same checks.
  fs::remove_all(dir);
  stream::EngineStats stats;
  std::uint64_t pre_crash = 0;
  {
    auto engine = stream::recover_stream(journal_config(dir), recovery_options());
    ingest_files(*engine, files, result, nullptr, &tracer, "stream.ingest");
    stats = engine->stats();
    pre_crash = digest(engine->export_state());
  }  // dropped without detach_journal: a crashed journal
  stream::RecoveryReport report;
  double checkpoint_mb = 0.0;
  {
    std::unique_ptr<stream::StreamEngine> recovered;
    {
      Tracer::Scope span(tracer, "stream.recover", 0);
      recovered = stream::recover_stream(journal_config(dir), recovery_options(), &report);
    }
    const stream::EngineState state = recovered->export_state();
    result.check(digest(state) == pre_crash, "recovered state differs from the pre-crash state");
    result.check(labels_match_batch(*recovered, state),
                 "stream labels differ from the batch pipeline over the window");
    const auto before = listing(dir);
    {
      Tracer::Scope span(tracer, "stream.checkpoint", 0);
      recovered->checkpoint_now();
    }
    checkpoint_mb = static_cast<double>(bytes_written_since(dir, before)) / (1 << 20);
  }
  // Untraced pass in the timed run's configuration, for the tracing
  // overhead.
  fs::remove_all(dir);
  double untraced_s = 0.0;
  {
    auto engine = stream::recover_stream(journal_config(dir), recovery_options());
    std::vector<double> file_s;
    ingest_files(*engine, files, result, &file_s, nullptr, "");
    for (const double s : file_s) untraced_s += s;
  }
  fs::remove_all(dir);

  const auto n = static_cast<double>(updates);
  const Tracer::Totals decode = tracer.totals("mrt.update_decode");
  const Tracer::Totals window = tracer.totals("stream.window");
  const Tracer::Totals reclassify = tracer.totals("stream.reclassify");
  const Tracer::Totals plain = tracer.totals("stream.ingest_plain");
  const Tracer::Totals journal_only = tracer.totals("stream.ingest_journal");
  const Tracer::Totals journaled = tracer.totals("stream.ingest");
  const Tracer::Totals recover = tracer.totals("stream.recover");
  const Tracer::Totals checkpoint = tracer.totals("stream.checkpoint");
  result.set("mrt.update_decode_s", decode.total_s, "s");
  result.set("mrt.update_decode_allocs", static_cast<double>(decode.allocs), "count");
  result.set("stream.window_s", window.self_s, "s");
  result.set("stream.window_allocs", static_cast<double>(window.self_allocs), "count");
  result.set("stream.reclassify_s", reclassify.total_s, "s");
  result.set("stream.reclassify_allocs", static_cast<double>(reclassify.allocs), "count");
  result.set("stream.dirty_alphas_per_pass",
             static_cast<double>(dirty) / static_cast<double>(passes), "count");
  result.set("stream.label_events", static_cast<double>(events), "count");
  result.set("stream.engine_s", plain.total_s, "s");
  result.set("stream.engine_allocs", static_cast<double>(plain.allocs), "count");
  result.set("stream.journal_s", journal_only.total_s - plain.total_s, "s");
  result.set("stream.journal_allocs",
             static_cast<double>(journal_only.allocs) - static_cast<double>(plain.allocs),
             "count");
  result.set("stream.journal_bytes_per_update",
             static_cast<double>(journal_stats.journal_bytes) / n, "B");
  result.set("stream.checkpoint_s", checkpoint.total_s, "s");
  result.set("stream.checkpoint_allocs", static_cast<double>(checkpoint.allocs), "count");
  result.set("stream.checkpoint_mb", checkpoint_mb, "MiB");
  result.set("stream.recover_s", recover.total_s, "s");
  result.set("stream.recover_allocs", static_cast<double>(recover.allocs), "count");
  result.set("stream.records_replayed", static_cast<double>(report.records_replayed), "count");
  result.set("stream.window_mb", static_cast<double>(stats.window_memory_bytes) / (1 << 20), "MiB");
  result.set("stream.live_tuples", static_cast<double>(stats.live_tuples), "count");
  result.set("stream.expired_epochs", static_cast<double>(stats.expired_epochs), "count");
  result.set("trace.work_per_s", n / journaled.total_s, "1/s");
  result.set("trace.overhead_pct", (journaled.total_s / untraced_s - 1.0) * 100.0, "%");
  tracer.write(options.dir + "/spans.txt");
  return 0;
}

}  // namespace

int run_stream(const Options& options, Result& result) {
  if (options.trace) return run_traced(options, result);
  const std::vector<std::string> files = stream_files(options);
  const std::string dir = options.dir + "/journal";
  std::vector<double> file_s;
  std::vector<double> pass_rate;  // update records per second
  std::uint64_t updates = 0;      // per pass
  std::uint64_t pre_crash = 0;
  // Peaks of the first pass, as in a fresh `bgpintent stream` process
  // (later passes run on the heap earlier ones left, which settles on one
  // of two layouts 6 MiB apart), and of each recovery.
  double first_pass_peak_mb = 0.0;
  std::vector<double> recover_peak_mb;
  // Sized up front, so the samples' growth never moves heap chunks
  // between the passes they measure.
  file_s.reserve(1 << 18);

  // Whole passes over the same files until the time is up: every pass is
  // the same work, so the crashed journal is the same size at any speed.
  reset_peak_rss();
  const auto start = Clock::now();
  for (bool last = false; !last;) {
    fs::remove_all(dir);
    auto engine = stream::recover_stream(journal_config(dir), recovery_options());
    const std::size_t first = file_s.size();
    ingest_files(*engine, files, result, &file_s, nullptr, "");
    if (first == 0) first_pass_peak_mb = peak_rss_mb();
    double pass_s = 0.0;
    for (std::size_t i = first; i < file_s.size(); ++i) pass_s += file_s[i];
    updates = engine->stats().updates_ok;
    pass_rate.push_back(static_cast<double>(updates) / pass_s);
    last = seconds_between(start, Clock::now()) >= options.seconds;
    if (last) pre_crash = digest(engine->export_state());
  }  // the engine is dropped without detach_journal: a crashed journal

  // Restart: recover copies of the crashed journal; each copy is the same
  // bytes, so every timed recovery does the same work.
  std::vector<double> setup_s;
  for (int k = 0; k < kRecoveries; ++k) {
    const std::string copy = dir + "-" + std::to_string(k);
    fs::remove_all(copy);
    fs::copy(dir, copy, fs::copy_options::recursive);
    reset_peak_rss();
    stream::RecoveryReport report;
    const auto t0 = Clock::now();
    auto engine = stream::recover_stream(journal_config(copy), recovery_options(), &report);
    setup_s.push_back(seconds_between(t0, Clock::now()));
    recover_peak_mb.push_back(peak_rss_mb());
    const stream::EngineState state = engine->export_state();
    result.check(digest(state) == pre_crash, "recovered state differs from the pre-crash state");
    if (k + 1 == kRecoveries)
      result.check(labels_match_batch(*engine, state),
                   "stream labels differ from the batch pipeline over the window");
    engine.reset();
    fs::remove_all(copy);
  }
  fs::remove_all(dir);

  // Per-pass figures, median over the passes.
  result.set("setup_s", median(setup_s), "s");
  result.set("peak_rss_mb", std::max(first_pass_peak_mb, median(recover_peak_mb)), "MiB");
  result.set("work_per_s", median(pass_rate), "1/s");
  result.set("latency_p50_ms", block_quantile(file_s, kStreamFiles, 0.5) * 1e3, "ms");
  result.set("latency_p99_ms", block_quantile(file_s, kStreamFiles, 0.99) * 1e3, "ms");
  std::printf("stream_journal: %zu passes of %d files, %llu update records each\n",
              pass_rate.size(), kStreamFiles, static_cast<unsigned long long>(updates));
  return 0;
}

}  // namespace perfbench
