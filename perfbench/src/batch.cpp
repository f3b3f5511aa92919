// batch_infer: the paper's job — a week of collector RIBs plus an
// as2org-style org map in, community labels out, at one worker.
#include <charconv>
#include <cstdio>
#include <fstream>
#include <memory>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "core/classifier.hpp"
#include "core/ingest.hpp"
#include "core/observations.hpp"
#include "core/pipeline.hpp"
#include "gen.hpp"
#include "mrt/mrt_file.hpp"
#include "mrt/source.hpp"
#include "stream/window.hpp"
#include "topo/org_map.hpp"
#include "trace.hpp"
#include "util.hpp"

namespace perfbench {
namespace {

// Enough jobs that the per-file latency p99 has ten samples beyond it.
constexpr std::size_t kMinJobs = (1010 + kBatchFiles - 1) / kBatchFiles;
constexpr std::size_t kMinTracedJobs = 4;

using OrgRows = std::vector<std::pair<bgp::Asn, topo::OrgId>>;

/// Parses "asn|org" lines (CAIDA as2org's aut|org_id pair).  Parsed once,
/// before the jobs: the parser is the benchmark's own code, not the
/// library's, so it stays out of the timed set-up.
OrgRows load_as2org(const std::string& path) {
  OrgRows rows;
  std::ifstream in(path);
  for (std::string line; std::getline(in, line);) {
    if (line.empty() || line[0] == '#') continue;
    const std::size_t bar = line.find('|');
    bgp::Asn asn = 0;
    topo::OrgId org = 0;
    const char* end = line.data() + line.size();
    if (bar == std::string::npos ||
        std::from_chars(line.data(), line.data() + bar, asn).ec != std::errc() ||
        std::from_chars(line.data() + bar + 1, end, org).ec != std::errc())
      throw std::runtime_error("malformed as2org line: " + line);
    rows.emplace_back(asn, org);
  }
  return rows;
}

/// What the user waits for before the job starts: inputs opened and
/// mapped, org map built, pipeline constructed.
struct Setup {
  std::vector<std::unique_ptr<mrt::ByteSource>> sources;
  std::unique_ptr<topo::OrgMap> orgs = std::make_unique<topo::OrgMap>();
  core::Pipeline pipeline;

  Setup(const Options& options, const OrgRows& org_rows) {
    for (int i = 0; i < kBatchFiles; ++i)
      sources.push_back(mrt::open_source(options.dir + "/" + batch_rib_name(i)));
    for (const auto& [asn, org] : org_rows) orgs->assign(asn, org);
    pipeline.set_org_map(orgs.get());
  }
};

/// Counts decoded rows without interning them (the mrt.decode stage).
class CountingSink final : public mrt::EntrySink {
 public:
  void on_entry(bgp::RibEntry&) override { ++rows; }
  std::uint64_t rows = 0;
};

/// Feeds rows into a non-expiring window: the windowed == batch oracle.
class WindowSink final : public mrt::EntrySink {
 public:
  explicit WindowSink(stream::WindowClassifier& window) : window_(window) {}
  void on_entry(bgp::RibEntry& entry) override { window_.announce(entry, 0); }

 private:
  stream::WindowClassifier& window_;
};

/// Labels of `inference` equal the oracle's labels, both ways.
bool labels_match(const core::InferenceResult& inference,
                  const std::vector<std::pair<bgp::Community, dict::Intent>>& oracle) {
  std::size_t labelled = 0;
  for (const auto& [community, intent] : oracle) {
    if (inference.label_of(community) != intent) return false;
    labelled += intent == dict::Intent::kUnclassified ? 0 : 1;
  }
  std::size_t inferred = 0;
  for (const auto& [community, intent] : inference.labels)
    inferred += intent == dict::Intent::kUnclassified ? 0 : 1;
  return labelled == inferred;
}

}  // namespace

int run_batch(const Options& options, Result& result) {
  const OrgRows org_rows = load_as2org(options.dir + "/as2org.txt");
  std::vector<double> setup_s;
  std::vector<double> job_s;
  std::vector<double> file_ms;
  std::vector<double> traced_job_s;
  core::InferenceResult first;
  std::size_t rows = 0;
  std::size_t unique_paths = 0;
  std::size_t ingest_bytes = 0;
  std::vector<double> peak_mb;  // per untraced job
  Tracer tracer(options.trace ? 1 << 16 : 0);
  // Sized up front, so the samples' growth never moves heap chunks
  // between the jobs they measure.
  file_ms.reserve(1 << 20);

  const auto start = Clock::now();
  for (std::size_t job = 0;; ++job) {
    const double elapsed = seconds_between(start, Clock::now());
    if (elapsed >= options.seconds &&
        job >= (options.trace ? 2 * kMinTracedJobs : kMinJobs))
      break;
    // The traced run alternates traced and untraced jobs, so the two
    // medians give the tracing overhead.
    const bool traced = options.trace && job % 2 == 0;

    // Each job has its own peak.  The heap is what glibc's defaults keep
    // after the last job, as in any process that runs jobs repeatedly.
    reset_peak_rss();
    const auto t0 = Clock::now();
    Setup setup(options, org_rows);
    const auto t1 = Clock::now();
    core::MrtIngest ingest;
    core::PipelineResult out;
    if (!traced) {
      for (const auto& source : setup.sources) {
        const auto a = Clock::now();
        ingest.add(*source);
        file_ms.push_back(seconds_between(a, Clock::now()) * 1e3);
      }
      out = setup.pipeline.run(ingest);
    } else {
      // The stages Pipeline::run chains at one worker, called one by one.
      Tracer::Scope span(tracer, "batch.job", job);
      for (std::size_t f = 0; f < setup.sources.size(); ++f) {
        Tracer::Scope file(tracer, "core.ingest", f);
        ingest.add(*setup.sources[f]);
      }
      {
        Tracer::Scope observe(tracer, "core.observe", job);
        out.observations = core::ObservationIndex::build_interned(
            ingest.paths(), ingest.tuples(), setup.orgs.get(), nullptr,
            setup.pipeline.config().observation);
      }
      Tracer::Scope classify(tracer, "core.classify", job);
      out.inference =
          core::classify(out.observations, setup.pipeline.config().classifier);
    }
    const auto t2 = Clock::now();
    if (!traced) peak_mb.push_back(peak_rss_mb());
    (traced ? traced_job_s : job_s).push_back(seconds_between(t1, t2));
    setup_s.push_back(seconds_between(t0, t1));
    if (traced) {
      // The mrt stage alone, outside the job: decode without interning.
      for (std::size_t f = 0; f < setup.sources.size(); ++f) {
        CountingSink sink;
        Tracer::Scope span(tracer, "mrt.decode", f);
        mrt::decode_rib_stream(*setup.sources[f], sink);
      }
    }

    result.attempted += setup.sources.size();
    result.check(ingest.report().records_skipped == 0, "RIB decode errors",
                 setup.sources.size());
    if (job == 0) {
      rows = ingest.entries();
      unique_paths = ingest.paths().size();
      ingest_bytes = ingest.memory_bytes();
      first = std::move(out.inference);
    } else {
      result.check(ingest.entries() == rows &&
                       out.inference.labels.size() == first.labels.size() &&
                       out.inference.information_count == first.information_count,
                   "job output differs from the first job", setup.sources.size());
    }
  }

  // Oracle outside the timed path: a non-expiring window fed the same rows.
  {
    Setup setup(options, org_rows);
    stream::WindowConfig config;
    config.window_epochs = UINT32_MAX;
    stream::WindowClassifier window(config, setup.orgs.get());
    WindowSink sink(window);
    for (const auto& source : setup.sources) mrt::decode_rib_stream(*source, sink);
    (void)window.reclassify_dirty();
    result.check(labels_match(first, window.labels()),
                 "batch labels differ from the non-expiring window");
  }

  if (!options.trace) {
    result.set("setup_s", median(setup_s), "s");
    result.set("peak_rss_mb", median(peak_mb), "MiB");
    result.set("work_per_s", static_cast<double>(rows) / median(job_s), "1/s");
    result.set("latency_p50_ms", block_quantile(file_ms, kMinJobs * kBatchFiles, 0.5), "ms");
    result.set("latency_p99_ms", block_quantile(file_ms, kMinJobs * kBatchFiles, 0.99), "ms");
    std::printf("batch_infer: %zu jobs of %zu RIB rows, %zu files each\n",
                job_s.size(), rows, static_cast<std::size_t>(kBatchFiles));
    return 0;
  }

  const auto jobs = static_cast<double>(traced_job_s.size());
  const Tracer::Totals decode = tracer.totals("mrt.decode");
  const Tracer::Totals ingest = tracer.totals("core.ingest");
  const Tracer::Totals observe = tracer.totals("core.observe");
  const Tracer::Totals classify = tracer.totals("core.classify");
  const Tracer::Totals job = tracer.totals("batch.job");
  // Per traced job; bgp interning is ingest minus decode.
  result.set("mrt.decode_s", decode.total_s / jobs, "s");
  result.set("mrt.decode_allocs", static_cast<double>(decode.allocs) / jobs, "count");
  result.set("core.ingest_s", ingest.total_s / jobs, "s");
  result.set("core.ingest_allocs", static_cast<double>(ingest.allocs) / jobs, "count");
  result.set("bgp.intern_s", (ingest.total_s - decode.total_s) / jobs, "s");
  result.set("bgp.intern_allocs",
             (static_cast<double>(ingest.allocs) - static_cast<double>(decode.allocs)) / jobs,
             "count");
  result.set("bgp.path_hit_ratio",
             1.0 - static_cast<double>(unique_paths) / static_cast<double>(rows), "ratio");
  result.set("core.ingest_mb", static_cast<double>(ingest_bytes) / (1 << 20), "MiB");
  result.set("core.observe_s", observe.total_s / jobs, "s");
  result.set("core.observe_allocs", static_cast<double>(observe.allocs) / jobs, "count");
  result.set("core.classify_s", classify.total_s / jobs, "s");
  result.set("core.classify_allocs", static_cast<double>(classify.allocs) / jobs, "count");
  result.set("batch.job_s", job.total_s / jobs, "s");
  result.set("batch.job_allocs", static_cast<double>(job.allocs) / jobs, "count");
  result.set("batch.unattributed_s", job.self_s / jobs, "s");
  result.set("batch.unattributed_share", job.self_s / job.total_s, "ratio");
  result.set("trace.work_per_s", static_cast<double>(rows) / median(traced_job_s), "1/s");
  result.set("trace.overhead_pct",
             (median(traced_job_s) / median(job_s) - 1.0) * 100.0, "%");
  tracer.write(options.dir + "/spans.txt");
  return 0;
}

}  // namespace perfbench
