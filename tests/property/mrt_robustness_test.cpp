// Robustness of the MRT decoder against corrupted input: for any byte
// mutation of a valid stream, mrt::decode_rib_stream must either succeed or
// throw MrtError — never crash, hang, or throw anything else.  Wire parsers
// face untrusted data; this is the contract fuzzers would check.
//
// The same contract holds for the chunked-parallel decoder
// (core::MrtIngest::add_parallel), with the extra requirement that a
// worker-side decode error must drain cleanly through the bounded chunk
// queue — an exception may never leave in-flight chunks deadlocked or the
// pool wedged (the shared pool below would hang the whole suite if it did).
#include <gtest/gtest.h>

#include <algorithm>
#include <sstream>

#include "bgp/path_table.hpp"
#include "core/ingest.hpp"
#include "mrt/mrt_file.hpp"
#include "routing/scenario.hpp"
#include "support/rib_entries.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"

namespace bgpintent::mrt {
namespace {

const std::string& valid_stream() {
  static const std::string bytes = [] {
    routing::ScenarioConfig cfg;
    cfg.topology.seed = 123;
    cfg.topology.tier1_count = 4;
    cfg.topology.tier2_count = 10;
    cfg.topology.stub_count = 30;
    cfg.vantage_point_count = 8;
    const auto scenario = routing::Scenario::build(cfg);
    std::ostringstream out;
    MrtWriter writer(out);
    const auto entries = scenario.entries();
    writer.write_rib_snapshot(entries, 0x7f000001, 1684886400);
    if (!entries.empty()) {
      writer.write_update(entries.front().vantage_point, entries.front().route,
                          1684886401);
      writer.write_state_change(entries.front().vantage_point, 6, 1,
                                1684886402);
    }
    return out.str();
  }();
  return bytes;
}

/// One pool shared by every mutation of a test case: reusing it across
/// hundreds of corrupted inputs is itself part of the property — an error
/// that poisoned the pool or leaked an in-flight chunk would hang or fail
/// later iterations.
util::ThreadPool& shared_pool() {
  static util::ThreadPool pool(4);
  return pool;
}

/// Runs the corrupted bytes through the parallel ingest; success or
/// MrtError are both acceptable, anything else fails the test.
void expect_parallel_read_is_clean(const std::string& bytes) {
  std::istringstream in(bytes);
  core::MrtIngest ingest;
  try {
    ingest.add_parallel(in, shared_pool());
  } catch (const MrtError&) {
  }
}

class MrtRobustness : public ::testing::TestWithParam<std::uint64_t> {};

INSTANTIATE_TEST_SUITE_P(MutationSeeds, MrtRobustness,
                         ::testing::Range<std::uint64_t>(0, 12));

TEST_P(MrtRobustness, SingleByteFlipsNeverCrash) {
  util::Rng rng(GetParam() * 7919 + 1);
  std::string bytes = valid_stream();
  for (int mutation = 0; mutation < 200; ++mutation) {
    std::string corrupted = bytes;
    const std::size_t pos = rng.index(corrupted.size());
    corrupted[pos] =
        static_cast<char>(rng.uniform(0, 255));
    std::istringstream in(corrupted);
    try {
      const auto entries = test_support::decode_entries(in);
      (void)entries;  // success with altered content is acceptable
    } catch (const MrtError&) {
      // rejected cleanly: acceptable
    }
  }
}

TEST_P(MrtRobustness, TruncationsNeverCrash) {
  util::Rng rng(GetParam() * 104729 + 3);
  const std::string& bytes = valid_stream();
  for (int mutation = 0; mutation < 50; ++mutation) {
    const std::size_t keep = rng.index(bytes.size());
    std::istringstream in(bytes.substr(0, keep));
    try {
      (void)test_support::decode_entries(in);
    } catch (const MrtError&) {
    }
  }
}

TEST_P(MrtRobustness, MultiByteGarbageNeverCrashes) {
  util::Rng rng(GetParam() * 31337 + 5);
  for (int mutation = 0; mutation < 20; ++mutation) {
    std::string garbage(rng.index(4096), '\0');
    for (char& c : garbage) c = static_cast<char>(rng.uniform(0, 255));
    std::istringstream in(garbage);
    try {
      (void)test_support::decode_entries(in);
    } catch (const MrtError&) {
    }
  }
}

TEST_P(MrtRobustness, SingleByteFlipsNeverCrashParallelPath) {
  util::Rng rng(GetParam() * 7919 + 1);
  std::string bytes = valid_stream();
  for (int mutation = 0; mutation < 60; ++mutation) {
    std::string corrupted = bytes;
    const std::size_t pos = rng.index(corrupted.size());
    corrupted[pos] = static_cast<char>(rng.uniform(0, 255));
    expect_parallel_read_is_clean(corrupted);
  }
}

TEST_P(MrtRobustness, TruncationsNeverCrashOrDeadlockParallelPath) {
  util::Rng rng(GetParam() * 104729 + 3);
  const std::string& bytes = valid_stream();
  for (int mutation = 0; mutation < 25; ++mutation) {
    const std::size_t keep = rng.index(bytes.size());
    expect_parallel_read_is_clean(bytes.substr(0, keep));
  }
}

TEST_P(MrtRobustness, MultiByteGarbageNeverCrashesParallelPath) {
  util::Rng rng(GetParam() * 31337 + 5);
  for (int mutation = 0; mutation < 10; ++mutation) {
    std::string garbage(rng.index(4096), '\0');
    for (char& c : garbage) c = static_cast<char>(rng.uniform(0, 255));
    expect_parallel_read_is_clean(garbage);
  }
}

TEST(MrtRobustness, ValidStreamStillParses) {
  std::istringstream in(valid_stream());
  EXPECT_GT(test_support::decode_entries(in).size(), 10u);
}

TEST(MrtRobustness, ParallelReadMatchesSequentialOnValidStream) {
  std::istringstream seq_in(valid_stream());
  const auto sequential = test_support::decode_entries(seq_in);
  bgp::PathTable paths;
  const auto tuples = bgp::intern_entries(paths, sequential);

  std::istringstream par_in(valid_stream());
  core::MrtIngest parallel;
  parallel.add_parallel(par_in, shared_pool());
  EXPECT_EQ(parallel.entries(), sequential.size());
  ASSERT_EQ(parallel.paths().size(), paths.size());
  for (bgp::PathId id = 0; id < paths.size(); ++id)
    EXPECT_EQ(parallel.paths().materialize(id), paths.materialize(id));
  EXPECT_TRUE(std::ranges::equal(parallel.tuples(), tuples));
}

}  // namespace
}  // namespace bgpintent::mrt
