// Streaming-vs-materializing equivalence: core::MrtIngest (decode ->
// intern in one pass, no row vector) must produce byte-identical interned
// output — PathTable contents, tuple sequence, row count, decode report —
// to the materializing reference (a vector sink over mrt::decode_rib_stream,
// then intern_entries), in strict mode, in tolerant mode over
// fault-injected inputs, and through add_parallel at any pool size.  The
// perf claim in BENCH_ingest.json rests entirely on this property;
// docs/PERFORMANCE.md points here.
#include <gtest/gtest.h>

#include <algorithm>
#include <sstream>
#include <tuple>
#include <vector>

#include "bgp/path_table.hpp"
#include "core/ingest.hpp"
#include "core/pipeline.hpp"
#include "mrt/fault.hpp"
#include "mrt/mrt_file.hpp"
#include "mrt/source.hpp"
#include "routing/scenario.hpp"
#include "support/rib_entries.hpp"
#include "util/thread_pool.hpp"

namespace bgpintent::core {
namespace {

/// A scenario-generated RIB snapshot plus a couple of BGP4MP records —
/// every record shape the streaming decoder handles.
const std::vector<std::uint8_t>& valid_stream() {
  static const std::vector<std::uint8_t> bytes = [] {
    routing::ScenarioConfig cfg;
    cfg.topology.seed = 20230806;
    cfg.topology.tier1_count = 4;
    cfg.topology.tier2_count = 12;
    cfg.topology.stub_count = 40;
    cfg.vantage_point_count = 8;
    const auto scenario = routing::Scenario::build(cfg);
    std::ostringstream out;
    mrt::MrtWriter writer(out);
    const auto entries = scenario.entries();
    writer.write_rib_snapshot(entries, 0x7f000001, 1684886400);
    if (!entries.empty()) {
      writer.write_update(entries.front().vantage_point, entries.front().route,
                          1684886401);
      writer.write_state_change(entries.front().vantage_point, 6, 1,
                                1684886402);
    }
    const std::string str = std::move(out).str();
    return std::vector<std::uint8_t>(
        reinterpret_cast<const std::uint8_t*>(str.data()),
        reinterpret_cast<const std::uint8_t*>(str.data()) + str.size());
  }();
  return bytes;
}

/// The materializing reference: full row vector, then interning.
struct Materialized {
  bgp::PathTable table;
  std::vector<bgp::InternedTuple> tuples;
  std::size_t entries = 0;
  mrt::DecodeReport report;
};

Materialized materialize(const std::vector<std::uint8_t>& bytes,
                         const mrt::DecodeOptions& options) {
  Materialized out;
  const auto rows = test_support::decode_entries(bytes, options, &out.report);
  out.entries = rows.size();
  out.tuples = bgp::intern_entries(out.table, rows);
  return out;
}

/// Whether the captured error list must match in order: sequential flows
/// are exact replicas; parallel flows record framing errors on the framing
/// thread but body errors via chunk reports merged in submission order, so
/// only the error *multiset* (and every counter) is guaranteed.
enum class ErrorOrder { kExact, kAnyOrder };

std::vector<mrt::DecodeError> sorted(std::vector<mrt::DecodeError> errors) {
  std::sort(errors.begin(), errors.end(),
            [](const mrt::DecodeError& x, const mrt::DecodeError& y) {
              return std::tie(x.byte_offset, x.record_index, x.reason) <
                     std::tie(y.byte_offset, y.record_index, y.reason);
            });
  return errors;
}

void expect_same_report(const mrt::DecodeReport& a, const mrt::DecodeReport& b,
                        ErrorOrder order = ErrorOrder::kExact) {
  EXPECT_EQ(a.records_ok, b.records_ok);
  EXPECT_EQ(a.records_skipped, b.records_skipped);
  EXPECT_EQ(a.bytes_skipped, b.bytes_skipped);
  EXPECT_EQ(a.resyncs, b.resyncs);
  EXPECT_EQ(a.budget_exhausted, b.budget_exhausted);
  if (order == ErrorOrder::kExact)
    EXPECT_EQ(a.errors, b.errors);
  else
    EXPECT_EQ(sorted(a.errors), sorted(b.errors));
}

/// Full interned-state comparison: same tuples in the same order, same
/// PathIds resolving to the same paths, same row count and report.
void expect_matches_reference(const MrtIngest& ingest, const Materialized& ref,
                              ErrorOrder order = ErrorOrder::kExact) {
  EXPECT_EQ(ingest.entries(), ref.entries);
  ASSERT_EQ(ingest.paths().size(), ref.table.size());
  for (bgp::PathId id = 0; id < ref.table.size(); ++id)
    EXPECT_EQ(ingest.paths().materialize(id), ref.table.materialize(id))
        << "path id " << id;
  const std::vector<bgp::InternedTuple> tuples(ingest.tuples().begin(),
                                               ingest.tuples().end());
  EXPECT_EQ(tuples, ref.tuples);
  expect_same_report(ingest.report(), ref.report, order);
}

TEST(StreamingIngestTest, StrictMatchesMaterializingReference) {
  const auto& bytes = valid_stream();
  const Materialized ref = materialize(bytes, {});

  MrtIngest from_source;
  from_source.add(mrt::BufferSource{std::vector<std::uint8_t>(bytes)});
  expect_matches_reference(from_source, ref);

  std::istringstream in(std::string(
      reinterpret_cast<const char*>(bytes.data()), bytes.size()));
  MrtIngest from_stream;
  from_stream.add(in);
  expect_matches_reference(from_stream, ref);
}

TEST(StreamingIngestTest, ParallelMatchesSequentialAtAnyPoolSize) {
  const auto& bytes = valid_stream();
  const Materialized ref = materialize(bytes, {});
  const mrt::BufferSource source{std::vector<std::uint8_t>(bytes)};
  for (const unsigned threads : {1u, 2u, 8u}) {
    util::ThreadPool pool(threads);
    MrtIngest ingest;
    ingest.add_parallel(source, pool);
    expect_matches_reference(ingest, ref, ErrorOrder::kAnyOrder);
  }
}

/// Tolerant mode over every corruption kind and several seeds: whatever
/// the tolerant decoder recovers, the streaming and materializing flows
/// must recover identically — same surviving tuples, same error
/// accounting.  (Recovery *quality* is the fault-injection harness's
/// business; equivalence is what is asserted here.)
class StreamingIngestFaultTest
    : public ::testing::TestWithParam<mrt::CorruptionKind> {};

INSTANTIATE_TEST_SUITE_P(
    CorruptionKinds, StreamingIngestFaultTest,
    ::testing::ValuesIn(mrt::kAllCorruptionKinds),
    [](const auto& inst) { return std::string(to_string(inst.param)); });

TEST_P(StreamingIngestFaultTest, TolerantMatchesMaterializingReference) {
  mrt::DecodeOptions tolerant;
  tolerant.mode = mrt::DecodeMode::kTolerant;
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    const auto corrupted =
        mrt::corrupt_mrt(valid_stream(), GetParam(), seed);
    const Materialized ref = materialize(corrupted.bytes, tolerant);

    MrtIngest ingest(tolerant);
    ingest.add(mrt::BufferSource{std::vector<std::uint8_t>(corrupted.bytes)});
    SCOPED_TRACE(corrupted.description);
    expect_matches_reference(ingest, ref);

    for (const unsigned threads : {2u, 8u}) {
      util::ThreadPool pool(threads);
      MrtIngest parallel(tolerant);
      parallel.add_parallel(
          mrt::BufferSource{std::vector<std::uint8_t>(corrupted.bytes)}, pool);
      expect_matches_reference(parallel, ref, ErrorOrder::kAnyOrder);
    }
  }
}

/// End to end through classification: Pipeline::run_mrt over a source must
/// agree field-for-field with Pipeline::run over materialized rows.
TEST(StreamingIngestTest, PipelineClassificationIdentical) {
  const auto& bytes = valid_stream();
  const Pipeline pipeline;

  mrt::DecodeReport report;
  const auto rows = test_support::decode_entries(bytes, {}, &report);
  PipelineResult expected = pipeline.run(rows);
  expected.decode_report = std::move(report);

  const PipelineResult actual =
      pipeline.run_mrt(mrt::BufferSource{std::vector<std::uint8_t>(bytes)});

  EXPECT_EQ(actual.entries_ingested, expected.entries_ingested);
  EXPECT_EQ(actual.observations.all(), expected.observations.all());
  EXPECT_EQ(actual.inference.labels, expected.inference.labels);
  EXPECT_EQ(actual.inference.information_count,
            expected.inference.information_count);
  EXPECT_EQ(actual.inference.action_count, expected.inference.action_count);
  EXPECT_EQ(actual.inference.excluded_private,
            expected.inference.excluded_private);
  EXPECT_EQ(actual.inference.excluded_never_on_path,
            expected.inference.excluded_never_on_path);
  expect_same_report(actual.decode_report, expected.decode_report);
}

}  // namespace
}  // namespace bgpintent::core
