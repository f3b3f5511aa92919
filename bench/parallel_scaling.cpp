// Parallel pipeline scaling: end-to-end wall clock of Pipeline::run_mrt
// (chunked MRT decode -> sharded observation index -> per-alpha
// classification) at 1/2/4/8 worker threads over a large synthetic
// workload, plus the tuple-ingest stage alone — the stage that dominates
// on the paper's billions-of-records inputs.
//
// Besides speedup, this bench *verifies* the determinism contract: every
// thread count must produce an observation index and inference that are
// identical to the threads=1 reference, and the process exits non-zero if
// any differ.
#include <chrono>
#include <functional>
#include <sstream>

#include "bench/common.hpp"
#include "mrt/mrt_file.hpp"
#include "util/thread_pool.hpp"

using namespace bgpintent;

namespace {

double best_of(int repeats, const std::function<void()>& body) {
  double best_ms = 0.0;
  for (int repeat = 0; repeat < repeats; ++repeat) {
    const auto start = std::chrono::steady_clock::now();
    body();
    const auto stop = std::chrono::steady_clock::now();
    const double ms =
        std::chrono::duration<double, std::milli>(stop - start).count();
    if (repeat == 0 || ms < best_ms) best_ms = ms;
  }
  return best_ms;
}

bool identical(const core::PipelineResult& result,
               const core::PipelineResult& reference) {
  return result.observations.all() == reference.observations.all() &&
         result.observations.unique_path_count() ==
             reference.observations.unique_path_count() &&
         result.inference.clusters == reference.inference.clusters &&
         result.inference.labels == reference.inference.labels;
}

}  // namespace

int main() {
  auto cfg = bench::default_scenario_config();
  cfg.topology.stub_count = 900;
  cfg.vantage_point_count = 200;
  if (const char* scale = bench::apply_bench_scale(cfg))
    std::printf("scale preset: %s (BGPINTENT_BENCH_SCALE)\n", scale);
  bench::print_banner("parallel_scaling — pipeline speedup vs threads", cfg);

  const auto scenario = routing::Scenario::build(cfg);
  const auto entries = scenario.entries();
  std::ostringstream mrt_bytes;
  mrt::MrtWriter writer(mrt_bytes);
  writer.write_rib_snapshot(entries, 0x7f000001, 1684886400);
  const std::string bytes = mrt_bytes.str();

  // Ingest workload: the RIB rows repeated 3x, mimicking the heavy
  // duplication of a week of RIB snapshots + updates (the method counts
  // unique paths, so repetition changes work, not results).
  std::vector<bgp::RibEntry> repeated;
  repeated.reserve(entries.size() * 3);
  for (int copy = 0; copy < 3; ++copy)
    repeated.insert(repeated.end(), entries.begin(), entries.end());
  std::size_t tuple_count = 0;
  for (const bgp::RibEntry& entry : repeated)
    tuple_count += entry.route.communities.size();

  std::printf("workload: %zu RIB entries, %zu MRT bytes, %zu tuples\n\n",
              entries.size(), bytes.size(), tuple_count);

  struct Row {
    unsigned threads;
    double end_to_end_ms;
    double ingest_ms;
    bool identical;
  };
  std::vector<Row> rows;
  core::PipelineResult reference;

  for (const unsigned threads : {1u, 2u, 4u, 8u}) {
    core::PipelineConfig pipeline_cfg;
    pipeline_cfg.threads = threads;
    core::Pipeline pipeline(pipeline_cfg);
    pipeline.set_org_map(&scenario.topology().orgs);

    core::PipelineResult result;
    const double end_to_end_ms = best_of(3, [&]() {
      std::istringstream in(bytes);
      result = pipeline.run_mrt(in);
    });
    const double ingest_ms =
        best_of(3, [&]() { (void)pipeline.run(repeated); });

    if (threads == 1) reference = std::move(result);
    const bool same = threads == 1 || identical(result, reference);
    rows.push_back(Row{threads, end_to_end_ms, ingest_ms, same});
  }

  util::TextTable table({"threads", "end-to-end ms", "speedup", "ingest ms",
                         "ingest speedup", "identical"});
  bool all_identical = true;
  for (const Row& row : rows) {
    table.add_row({std::to_string(row.threads),
                   util::fixed(row.end_to_end_ms, 1),
                   util::fixed(rows[0].end_to_end_ms / row.end_to_end_ms, 2),
                   util::fixed(row.ingest_ms, 1),
                   util::fixed(rows[0].ingest_ms / row.ingest_ms, 2),
                   row.identical ? "yes" : "NO"});
    all_identical = all_identical && row.identical;
  }
  std::printf("%s\n", table.render().c_str());
  // Machine-readable mirror of the table (one JSON object per line) so CI
  // and the perf trajectory can scrape it — docs/PERFORMANCE.md.
  for (const Row& row : rows) {
    std::printf(
        "{\"bench\": \"parallel_scaling\", \"metric\": \"end_to_end_ms\", "
        "\"threads\": %u, \"value\": %.3f}\n",
        row.threads, row.end_to_end_ms);
    std::printf(
        "{\"bench\": \"parallel_scaling\", \"metric\": \"ingest_ms\", "
        "\"threads\": %u, \"value\": %.3f}\n",
        row.threads, row.ingest_ms);
  }
  std::printf("hardware concurrency: %u\n",
              util::ThreadPool::resolve(0));
  if (!all_identical) {
    std::printf("FAIL: output differs across thread counts\n");
    return 1;
  }
  std::printf("output bit-identical across all thread counts\n");
  return 0;
}
