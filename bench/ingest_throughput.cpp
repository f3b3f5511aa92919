// Ingest throughput report: materializing vs streaming MRT decode into the
// interned observation core, end to end through classification.
//
// The comparison is file-based and matches the product's real before/after
// data flows.  The materializing baseline is the seed CLI path — an
// std::ifstream decoded into a RibEntry vector (read_rows() below, a vector
// sink over mrt::decode_rib_stream), which holds every decoded row
// (prefix, full AsPath, community vectors) live at once before
// intern_entries() collapses them into the PathTable + 8-byte tuple
// records.  The streaming variant is the current CLI path — open_source()
// mmaps the file and core::MrtIngest decodes each record into one reused
// scratch row and interns it immediately, so neither the file copy nor the
// row vector ever exists.  Both halves are timed, the classification
// outputs are compared field-for-field, and results are printed as JSON
// lines and written to BENCH_ingest.json (override with
// BGPINTENT_BENCH_JSON) so the perf trajectory accumulates across PRs —
// see docs/PERFORMANCE.md.
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <functional>
#include <sstream>
#include <string>
#include <vector>

#include "bgp/path_table.hpp"
#include "core/ingest.hpp"
#include "core/pipeline.hpp"
#include "mrt/mrt_file.hpp"
#include "mrt/source.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"

namespace {

using namespace bgpintent;

/// Collector-RIB-shaped workload: P prefixes seen by V vantage points,
/// paths drawn with heavy repetition from a small unique pool (a week of
/// RouteViews updates re-announces the same paths over and over), each
/// route tagged with regular, large, and extended communities the way
/// transit-provider routes are in the wild.  Only the regular communities
/// reach the tuple core; the large/extended attributes are baggage every
/// materialized row still has to carry.
std::string make_mrt_workload(std::size_t prefixes, std::size_t vps,
                              std::size_t unique_paths,
                              std::size_t communities_per,
                              std::size_t large_per, std::size_t ext_per) {
  util::Rng rng(20230806);
  std::vector<bgp::AsPath> pool;
  pool.reserve(unique_paths);
  for (std::size_t p = 0; p < unique_paths; ++p) {
    const std::size_t hops = 3 + rng.uniform(0, 4);
    std::vector<bgp::Asn> seq;
    seq.reserve(hops);
    seq.push_back(64000 + static_cast<bgp::Asn>(rng.uniform(0, 499)));
    for (std::size_t h = 1; h + 1 < hops; ++h)
      seq.push_back(1000 + static_cast<bgp::Asn>(rng.uniform(0, 299)));
    seq.push_back(30000 + static_cast<bgp::Asn>(rng.uniform(0, 1999)));
    pool.emplace_back(std::move(seq));
  }

  std::vector<bgp::RibEntry> entries;
  entries.reserve(prefixes * vps);
  for (std::size_t p = 0; p < prefixes; ++p) {
    const bgp::Prefix prefix(
        0x0a000000u + (static_cast<std::uint32_t>(p) << 8), 24);
    for (std::size_t v = 0; v < vps; ++v) {
      bgp::RibEntry entry;
      entry.vantage_point.asn = 64000 + static_cast<bgp::Asn>(v);
      entry.vantage_point.address = 0xc0000000u + static_cast<std::uint32_t>(v);
      entry.route.prefix = prefix;
      entry.route.path = pool[rng.uniform(0, unique_paths - 1)];
      entry.route.next_hop = entry.vantage_point.address;
      entry.route.communities.reserve(communities_per);
      std::uint16_t route_alphas[3];
      for (std::uint16_t& alpha : route_alphas) {
        const bool transit = rng.uniform(0, 1) == 0;
        alpha = transit
                    ? static_cast<std::uint16_t>(1000 + rng.uniform(0, 299))
                    : static_cast<std::uint16_t>(20000 + rng.uniform(0, 99));
      }
      for (std::size_t c = 0; c < communities_per; ++c) {
        const std::uint16_t alpha = route_alphas[rng.uniform(0, 2)];
        const std::uint16_t beta = static_cast<std::uint16_t>(
            rng.uniform(0, 1) == 0 ? 100 + rng.uniform(0, 40)
                                   : 3000 + rng.uniform(0, 40));
        entry.route.communities.emplace_back(alpha, beta);
      }
      entry.route.large_communities.reserve(large_per);
      for (std::size_t c = 0; c < large_per; ++c)
        entry.route.large_communities.emplace_back(
            4200000000u + static_cast<std::uint32_t>(rng.uniform(0, 99)),
            static_cast<std::uint32_t>(rng.uniform(0, 999)),
            static_cast<std::uint32_t>(rng.uniform(0, 999)));
      entry.route.ext_communities.reserve(ext_per);
      for (std::size_t c = 0; c < ext_per; ++c)
        entry.route.ext_communities.push_back(bgp::ExtCommunity::route_target(
            static_cast<std::uint16_t>(64000 + rng.uniform(0, 499)),
            static_cast<std::uint32_t>(rng.uniform(0, 999))));
      entries.push_back(std::move(entry));
    }
  }

  std::ostringstream out;
  mrt::MrtWriter writer(out);
  writer.write_rib_snapshot(entries, 0x7f000001, 1684886400);
  return std::move(out).str();
}

/// The materializing arm's decode: every row of the stream appended to a
/// vector, as the seed CLI's reader did.
std::vector<bgp::RibEntry> read_rows(std::istream& in,
                                     mrt::DecodeReport* report = nullptr) {
  class VectorSink final : public mrt::EntrySink {
   public:
    std::vector<bgp::RibEntry> rows;
    void on_entry(bgp::RibEntry& entry) override {
      rows.push_back(std::move(entry));
    }
  };
  VectorSink sink;
  mrt::decode_rib_stream(in, sink, {}, report);
  return std::move(sink.rows);
}

/// Heap bytes behind one materialized RIB row — what the row vector pays
/// beyond sizeof(RibEntry) for paths and attribute lists.
std::size_t rib_entry_heap_bytes(const bgp::RibEntry& entry) {
  std::size_t bytes =
      entry.route.path.segments().capacity() * sizeof(bgp::PathSegment);
  for (const auto& seg : entry.route.path.segments())
    bytes += seg.asns.capacity() * sizeof(bgp::Asn);
  bytes += entry.route.communities.capacity() * sizeof(bgp::Community);
  bytes += entry.route.large_communities.capacity() *
           sizeof(bgp::LargeCommunity);
  bytes +=
      entry.route.ext_communities.capacity() * sizeof(bgp::ExtCommunity);
  return bytes;
}

double best_of_ms(int repeats, const std::function<void()>& body) {
  double best = 0.0;
  for (int r = 0; r < repeats; ++r) {
    const auto start = std::chrono::steady_clock::now();
    body();
    const auto stop = std::chrono::steady_clock::now();
    const double ms =
        std::chrono::duration<double, std::milli>(stop - start).count();
    if (r == 0 || ms < best) best = ms;
  }
  return best;
}

double mb_per_s(std::size_t bytes, double ms) {
  if (ms <= 0.0) return 0.0;
  return static_cast<double>(bytes) / 1e6 / (ms / 1e3);
}

/// Same classification output from both data flows, compared field by
/// field — the speedup claim is only worth reporting if this holds.
bool results_identical(const core::PipelineResult& a,
                       const core::PipelineResult& b) {
  if (a.observations.all() != b.observations.all()) return false;
  if (a.inference.clusters != b.inference.clusters) return false;
  if (a.inference.labels != b.inference.labels) return false;
  if (a.inference.information_count != b.inference.information_count ||
      a.inference.action_count != b.inference.action_count ||
      a.inference.excluded_private != b.inference.excluded_private ||
      a.inference.excluded_never_on_path != b.inference.excluded_never_on_path)
    return false;
  if (a.entries_ingested != b.entries_ingested) return false;
  return a.decode_report.records_ok == b.decode_report.records_ok &&
         a.decode_report.records_skipped == b.decode_report.records_skipped;
}

/// BGPINTENT_BENCH_SCALE for a workload that is synthesized directly
/// rather than scenario-built: each preset rung multiplies the default
/// row count (prefixes x vantage points) and path pool.  Unknown names
/// exit 2, matching bench::apply_bench_scale.
std::size_t workload_multiplier(const char*& name) {
  const char* env = std::getenv("BGPINTENT_BENCH_SCALE");
  if (env == nullptr || *env == '\0') {
    name = nullptr;
    return 1;
  }
  name = env;
  if (std::strcmp(env, "tiny") == 0) return 1;
  if (std::strcmp(env, "small") == 0) return 2;
  if (std::strcmp(env, "medium") == 0) return 4;
  if (std::strcmp(env, "large") == 0) return 8;
  if (std::strcmp(env, "internet") == 0) return 16;
  std::fprintf(stderr,
               "BGPINTENT_BENCH_SCALE=%s: unknown preset (want tiny, "
               "small, medium, large, or internet)\n",
               env);
  std::exit(2);
}

}  // namespace

int main() {
  const int repeats = [] {
    const char* env = std::getenv("BGPINTENT_BENCH_REPEATS");
    return env != nullptr ? std::max(1, std::atoi(env)) : 5;
  }();

  const char* scale = nullptr;
  const std::size_t multiplier = workload_multiplier(scale);
  const std::size_t prefixes = 1000 * multiplier;
  const std::size_t unique_paths = 4000 * multiplier;
  if (scale != nullptr)
    std::printf("scale preset %s: %zu prefixes, %zu unique paths\n", scale,
                prefixes, unique_paths);

  const std::string bytes = make_mrt_workload(
      prefixes, /*vps=*/30, unique_paths,
      /*communities_per=*/6, /*large_per=*/4, /*ext_per=*/2);

  // Both flows read a real file, the way the CLI does: the materializing
  // baseline through an ifstream, the streaming flow through open_source
  // (an mmap when the filesystem allows it, else a buffered fallback).
  const std::string path = "ingest_throughput_workload.mrt";
  {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
    if (!out) {
      std::fprintf(stderr, "could not write %s\n", path.c_str());
      return 1;
    }
  }
  const bool zero_copy = mrt::open_source(path)->zero_copy();

  // --- Ingest halves: MRT file -> PathTable + packed tuples. ---

  // Peak tuple+row bytes, measured once outside the timed regions: the
  // materializing flow holds the full row vector AND the interned
  // representation live at the handoff; the streaming flow only ever holds
  // the latter.
  std::size_t materialize_bytes = 0;
  std::size_t streaming_bytes = 0;
  std::size_t streaming_rows = 0;
  {
    std::ifstream in(path, std::ios::binary);
    const auto entries = read_rows(in);
    bgp::PathTable table;
    const auto tuples = bgp::intern_entries(table, entries);
    materialize_bytes = entries.capacity() * sizeof(bgp::RibEntry) +
                        table.memory_bytes() +
                        tuples.capacity() * sizeof(bgp::InternedTuple);
    for (const bgp::RibEntry& entry : entries)
      materialize_bytes += rib_entry_heap_bytes(entry);
    const auto source = mrt::open_source(path);
    core::MrtIngest ingest;
    ingest.add(*source);
    streaming_bytes = ingest.memory_bytes();
    streaming_rows = ingest.entries();
  }

  // Materializing: the full row vector exists, then interning walks it
  // again; freeing the rows afterwards is part of the flow and stays in
  // the timed region.
  const double materialize_ms = best_of_ms(repeats, [&] {
    std::ifstream in(path, std::ios::binary);
    const auto entries = read_rows(in);
    bgp::PathTable table;
    const auto tuples = bgp::intern_entries(table, entries);
    if (tuples.empty()) std::abort();  // keep the work observable
  });

  // Streaming: mmap the file, one reused scratch row, rows intern as they
  // decode.
  const double streaming_ms = best_of_ms(repeats, [&] {
    const auto source = mrt::open_source(path);
    core::MrtIngest ingest;
    ingest.add(*source);
    if (ingest.tuples().empty()) std::abort();
  });

  // Parallel streaming (informational): same output, chunked across a
  // pool.
  const unsigned pool_size = util::ThreadPool::resolve(0);
  double streaming_parallel_ms = 0.0;
  {
    util::ThreadPool pool(pool_size);
    const auto source = mrt::open_source(path);
    core::MrtIngest reference;
    reference.add(*source);
    bool parallel_identical = true;
    streaming_parallel_ms = best_of_ms(repeats, [&] {
      core::MrtIngest ingest;
      ingest.add_parallel(*source, pool);
      if (ingest.paths().size() != reference.paths().size() ||
          !std::equal(ingest.tuples().begin(), ingest.tuples().end(),
                      reference.tuples().begin(), reference.tuples().end()))
        parallel_identical = false;
    });
    if (!parallel_identical) {
      std::fprintf(stderr,
                   "FAIL: parallel streaming ingest diverged from "
                   "sequential\n");
      return 1;
    }
  }

  // --- End to end: MRT file -> classification. ---
  core::Pipeline pipeline;
  core::PipelineResult materialized_result;
  const double materialize_e2e_ms = best_of_ms(repeats, [&] {
    std::ifstream in(path, std::ios::binary);
    mrt::DecodeReport report;
    const auto rows = read_rows(in, &report);
    materialized_result = pipeline.run(rows);
    materialized_result.decode_report = std::move(report);
  });
  core::PipelineResult streaming_result;
  const double streaming_e2e_ms = best_of_ms(repeats, [&] {
    const auto source = mrt::open_source(path);
    streaming_result = pipeline.run_mrt(*source);
  });

  const bool identical =
      results_identical(materialized_result, streaming_result);
  const double ingest_speedup =
      streaming_ms > 0.0 ? materialize_ms / streaming_ms : 0.0;
  const double e2e_speedup =
      streaming_e2e_ms > 0.0 ? materialize_e2e_ms / streaming_e2e_ms : 0.0;
  const double memory_ratio =
      streaming_bytes > 0 ? static_cast<double>(materialize_bytes) /
                                static_cast<double>(streaming_bytes)
                          : 0.0;

  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);

  const auto json_line = [](const char* metric, double value) {
    std::printf(
        "{\"bench\": \"ingest_throughput\", \"metric\": \"%s\", "
        "\"value\": %.3f}\n",
        metric, value);
  };
  std::printf("== MRT ingest: materializing (ifstream) vs streaming "
              "(%s) ==\n",
              zero_copy ? "mmap" : "buffered fallback");
  json_line("mrt_bytes", static_cast<double>(bytes.size()));
  json_line("rows", static_cast<double>(streaming_rows));
  json_line("mmap", zero_copy ? 1.0 : 0.0);
  json_line("materialize_ingest_ms", materialize_ms);
  json_line("streaming_ingest_ms", streaming_ms);
  json_line("streaming_parallel_ingest_ms", streaming_parallel_ms);
  json_line("ingest_speedup", ingest_speedup);
  json_line("materialize_ingest_mb_s", mb_per_s(bytes.size(), materialize_ms));
  json_line("streaming_ingest_mb_s", mb_per_s(bytes.size(), streaming_ms));
  json_line("materialize_e2e_ms", materialize_e2e_ms);
  json_line("streaming_e2e_ms", streaming_e2e_ms);
  json_line("e2e_speedup", e2e_speedup);
  json_line("materialize_peak_bytes", static_cast<double>(materialize_bytes));
  json_line("streaming_peak_bytes", static_cast<double>(streaming_bytes));
  json_line("memory_ratio", memory_ratio);
  json_line("ru_maxrss_kb", static_cast<double>(usage.ru_maxrss));
  json_line("identical", identical ? 1.0 : 0.0);

  const char* out_path = std::getenv("BGPINTENT_BENCH_JSON");
  if (out_path == nullptr) out_path = "BENCH_ingest.json";
  if (std::FILE* out = std::fopen(out_path, "w")) {
    std::fprintf(
        out,
        "{\n"
        "  \"bench\": \"ingest_throughput\",\n"
        "  \"workload\": {\"prefixes\": %zu, \"vantage_points\": 30, "
        "\"unique_paths\": %zu, \"communities_per_route\": 6, "
        "\"large_communities_per_route\": 4, "
        "\"ext_communities_per_route\": 2, \"scale\": \"%s\", "
        "\"mrt_bytes\": %zu, \"rows\": %zu},\n"
        "  \"results\": {\n"
        "    \"materialize_ingest_ms\": %.3f,\n"
        "    \"streaming_ingest_ms\": %.3f,\n"
        "    \"streaming_parallel_ingest_ms\": %.3f,\n"
        "    \"ingest_speedup\": %.2f,\n"
        "    \"materialize_ingest_mb_s\": %.1f,\n"
        "    \"streaming_ingest_mb_s\": %.1f,\n"
        "    \"materialize_e2e_ms\": %.3f,\n"
        "    \"streaming_e2e_ms\": %.3f,\n"
        "    \"e2e_speedup\": %.2f,\n"
        "    \"materialize_peak_bytes\": %zu,\n"
        "    \"streaming_peak_bytes\": %zu,\n"
        "    \"memory_ratio\": %.2f,\n"
        "    \"identical\": %s\n"
        "  }\n"
        "}\n",
        prefixes, unique_paths, scale != nullptr ? scale : "default",
        bytes.size(), streaming_rows, materialize_ms, streaming_ms,
        streaming_parallel_ms, ingest_speedup,
        mb_per_s(bytes.size(), materialize_ms),
        mb_per_s(bytes.size(), streaming_ms), materialize_e2e_ms,
        streaming_e2e_ms, e2e_speedup, materialize_bytes, streaming_bytes,
        memory_ratio, identical ? "true" : "false");
    std::fclose(out);
    std::printf("wrote %s\n", out_path);
  } else {
    std::fprintf(stderr, "could not write %s\n", out_path);
    std::remove(path.c_str());
    return 1;
  }
  std::remove(path.c_str());
  if (!identical) {
    std::printf(
        "FAIL: streaming classification disagrees with materializing\n");
    return 1;
  }
  return 0;
}
