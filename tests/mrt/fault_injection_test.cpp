// Deterministic fault-injection harness for the tolerant MRT decoder
// (docs/ROBUSTNESS.md).  A seeded corruptor damages a valid fixture in four
// distinct ways; the tests assert the contract end to end:
//
//   * tolerant mode recovers every record the corruption did not touch,
//   * strict mode still hard-fails on the same images,
//   * the sequential decode and the chunked-parallel ingest
//     (core::MrtIngest::add_parallel) agree exactly,
//   * error budgets trip where documented (absolute mid-stream, fractional
//     at end of stream), and
//   * classification over the survivors is identical to a clean run over
//     the same records.
#include "mrt/fault.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "bgp/path_table.hpp"
#include "core/ingest.hpp"
#include "core/pipeline.hpp"
#include "mrt/mrt_file.hpp"
#include "routing/scenario.hpp"
#include "support/rib_entries.hpp"
#include "util/thread_pool.hpp"

namespace bgpintent::mrt {
namespace {

DecodeOptions tolerant_options() {
  DecodeOptions options;
  options.mode = DecodeMode::kTolerant;
  return options;
}

/// A valid RIB snapshot image from a small simulated world.
std::vector<std::uint8_t> make_image(unsigned stub_count = 40) {
  routing::ScenarioConfig cfg;
  cfg.topology.seed = 11;
  cfg.topology.tier1_count = 4;
  cfg.topology.tier2_count = 10;
  cfg.topology.stub_count = stub_count;
  cfg.vantage_point_count = 8;
  const auto scenario = routing::Scenario::build(cfg);
  std::ostringstream out;
  MrtWriter writer(out);
  writer.write_rib_snapshot(scenario.entries(), 0x0a000001, 1700000000);
  const std::string s = out.str();
  return {s.begin(), s.end()};
}

/// Order-insensitive identity of one decoded entry.
std::string entry_key(const bgp::RibEntry& entry) {
  std::string key = entry.route.prefix.to_string() + "|" +
                    std::to_string(entry.vantage_point.asn) + "|" +
                    entry.route.path.to_string() + "|";
  for (const bgp::Community community : entry.route.communities)
    key += community.to_string() + ",";
  return key;
}

std::multiset<std::string> keys_of(const std::vector<bgp::RibEntry>& entries) {
  std::multiset<std::string> keys;
  for (const auto& entry : entries) keys.insert(entry_key(entry));
  return keys;
}

bool is_subset(const std::multiset<std::string>& inner,
               const std::multiset<std::string>& outer) {
  return std::includes(outer.begin(), outer.end(), inner.begin(), inner.end());
}

/// Strict decode of the clean image minus the records in `drop` (record 0,
/// the peer table, is always kept) — the ground truth for what a tolerant
/// decode of the corrupted image must recover.
std::vector<bgp::RibEntry> decode_without(
    const std::vector<std::uint8_t>& clean,
    const std::vector<RecordSpan>& spans,
    const std::vector<std::uint64_t>& drop) {
  const std::set<std::uint64_t> dropped(drop.begin(), drop.end());
  std::vector<std::uint8_t> sub;
  for (std::uint64_t i = 0; i < spans.size(); ++i) {
    if (i != 0 && dropped.contains(i)) continue;
    const auto begin = clean.begin() + static_cast<std::ptrdiff_t>(spans[i].offset);
    sub.insert(sub.end(), begin, begin + static_cast<std::ptrdiff_t>(spans[i].length));
  }
  return test_support::decode_entries(sub);
}

std::vector<bgp::RibEntry> tolerant_decode(
    const std::vector<std::uint8_t>& bytes, const DecodeOptions& options,
    DecodeReport* report = nullptr) {
  return test_support::decode_entries(bytes, options, report);
}

/// "path|community" of every interned tuple, in stream order.
std::vector<std::string> tuple_keys(
    const bgp::PathTable& paths, std::span<const bgp::InternedTuple> tuples) {
  std::vector<std::string> keys;
  keys.reserve(tuples.size());
  for (const bgp::InternedTuple& tuple : tuples)
    keys.push_back(paths.materialize(tuple.path).to_string() + "|" +
                   tuple.community.to_string());
  return keys;
}

/// Feeds `bytes` to the chunked-parallel decoder, off an istream
/// (`via_stream`) or as an in-memory image.
void add_parallel(core::MrtIngest& ingest,
                  const std::vector<std::uint8_t>& bytes,
                  util::ThreadPool& pool, bool via_stream) {
  if (via_stream) {
    std::istringstream in(std::string(bytes.begin(), bytes.end()));
    ingest.add_parallel(in, pool);
  } else {
    ingest.add_parallel(BufferSource(bytes), pool);
  }
}

TEST(FaultInjection, CleanImageTolerantMatchesStrict) {
  const auto image = make_image();
  const auto strict = test_support::decode_entries(image);
  DecodeReport report;
  const auto tolerant = tolerant_decode(image, tolerant_options(), &report);
  EXPECT_EQ(keys_of(tolerant), keys_of(strict));
  EXPECT_EQ(report.records_ok, index_records(image).size());
  EXPECT_EQ(report.records_skipped, 0u);
  EXPECT_EQ(report.resyncs, 0u);
  EXPECT_TRUE(report.errors.empty());
}

TEST(FaultInjection, CorruptorIsDeterministic) {
  const auto image = make_image();
  for (CorruptionKind kind : kAllCorruptionKinds) {
    const auto a = corrupt_mrt(image, kind, 42);
    const auto b = corrupt_mrt(image, kind, 42);
    EXPECT_EQ(a.bytes, b.bytes) << a.description;
    EXPECT_EQ(a.touched_records, b.touched_records) << a.description;
    const auto c = corrupt_mrt(image, kind, 43);
    EXPECT_NE(a.description, c.description);
  }
}

// The core recovery guarantee: whatever one corruption destroys, every
// record it did not touch decodes — across all kinds and several seeds.
TEST(FaultInjection, TolerantDecodeRecoversEveryUntouchedRecord) {
  const auto image = make_image();
  const auto spans = index_records(image);
  for (CorruptionKind kind : kAllCorruptionKinds) {
    for (std::uint64_t seed = 1; seed <= 6; ++seed) {
      const auto corruption = corrupt_mrt(image, kind, seed);
      const auto expected =
          keys_of(decode_without(image, spans, corruption.touched_records));
      DecodeReport report;
      const auto recovered = keys_of(
          tolerant_decode(corruption.bytes, tolerant_options(), &report));
      EXPECT_TRUE(is_subset(expected, recovered))
          << corruption.description << ": tolerant decode recovered "
          << recovered.size() << " entries but the " << expected.size()
          << " from untouched records are not all among them ("
          << report.summary() << ")";
    }
  }
}

// Strict mode keeps its historical contract on the same corrupted images.
// kBitFlip is exempt: a flipped bit inside, say, a community value decodes
// fine (into a different value) — that is exactly why the recovery
// assertions above compare entry content, not success.
TEST(FaultInjection, StrictModeStillThrowsOnStructuralCorruption) {
  const auto image = make_image();
  for (CorruptionKind kind : {CorruptionKind::kTruncate,
                              CorruptionKind::kSplice,
                              CorruptionKind::kLengthLie}) {
    for (std::uint64_t seed = 1; seed <= 6; ++seed) {
      const auto corruption = corrupt_mrt(image, kind, seed);
      EXPECT_THROW((void)test_support::decode_entries(corruption.bytes),
                   MrtError)
          << corruption.description;
    }
  }
}

// The sequential decode and the parallel ingest share one framer, so they
// must agree on tuples and on every counter — at any pool size.
TEST(FaultInjection, SequentialAndParallelTolerantAgree) {
  const auto image = make_image();
  util::ThreadPool pool(4);
  for (CorruptionKind kind : kAllCorruptionKinds) {
    for (std::uint64_t seed : {3u, 9u}) {
      const auto corruption = corrupt_mrt(image, kind, seed);
      DecodeReport sequential_report;
      const auto sequential = tolerant_decode(
          corruption.bytes, tolerant_options(), &sequential_report);
      bgp::PathTable sequential_paths;
      const auto sequential_tuples =
          bgp::intern_entries(sequential_paths, sequential);

      core::MrtIngest parallel(tolerant_options());
      add_parallel(parallel, corruption.bytes, pool, /*via_stream=*/true);
      const DecodeReport& parallel_report = parallel.report();

      EXPECT_EQ(sequential.size(), parallel.entries())
          << corruption.description;
      EXPECT_EQ(tuple_keys(sequential_paths, sequential_tuples),
                tuple_keys(parallel.paths(), parallel.tuples()))
          << corruption.description;
      EXPECT_EQ(sequential_report.records_ok, parallel_report.records_ok)
          << corruption.description;
      EXPECT_EQ(sequential_report.records_skipped,
                parallel_report.records_skipped)
          << corruption.description;
      EXPECT_EQ(sequential_report.bytes_skipped, parallel_report.bytes_skipped)
          << corruption.description;
      EXPECT_EQ(sequential_report.resyncs, parallel_report.resyncs)
          << corruption.description;
      EXPECT_EQ(sequential_report.resync_distance_log2,
                parallel_report.resync_distance_log2)
          << corruption.description;
      // Error details may interleave differently (framing errors surface on
      // the framing thread, body errors inside chunks); the *set* is equal.
      auto sorted_errors = [](DecodeReport report) {
        std::sort(report.errors.begin(), report.errors.end(),
                  [](const DecodeError& a, const DecodeError& b) {
                    return a.record_index < b.record_index;
                  });
        return report.errors;
      };
      EXPECT_EQ(sorted_errors(sequential_report),
                sorted_errors(parallel_report))
          << corruption.description;
    }
  }
}

// End-to-end acceptance: classification over the survivors of a corrupted
// file equals classification over a clean file containing exactly those
// records.  Truncation is the kind whose survivor set is always exact
// (everything before the cut, nothing after).
TEST(FaultInjection, ClassificationOverSurvivorsMatchesCleanBaseline) {
  const auto image = make_image(120);  // enough survivors to classify
  const auto spans = index_records(image);
  // Deterministically pick a seed whose cut lands in the last quarter of
  // the file, so plenty of records survive for the classifier.
  std::uint64_t seed = 1;
  while (corrupt_mrt(image, CorruptionKind::kTruncate, seed)
             .touched_records.front() < spans.size() * 3 / 4)
    ++seed;
  const auto corruption = corrupt_mrt(image, CorruptionKind::kTruncate, seed);
  const auto survivors =
      tolerant_decode(corruption.bytes, tolerant_options());
  const auto baseline =
      decode_without(image, spans, corruption.touched_records);
  ASSERT_EQ(keys_of(survivors), keys_of(baseline));
  ASSERT_GT(survivors.size(), 50u);

  core::Pipeline pipeline;
  const auto from_survivors = pipeline.run(survivors);
  const auto from_baseline = pipeline.run(baseline);
  EXPECT_EQ(from_survivors.inference.information_count,
            from_baseline.inference.information_count);
  EXPECT_EQ(from_survivors.inference.action_count,
            from_baseline.inference.action_count);
  std::set<bgp::Community> communities;
  for (const auto& entry : survivors)
    communities.insert(entry.route.communities.begin(),
                       entry.route.communities.end());
  ASSERT_FALSE(communities.empty());
  for (const bgp::Community community : communities)
    EXPECT_EQ(from_survivors.inference.label_of(community),
              from_baseline.inference.label_of(community))
        << community.to_string();
}

TEST(FaultInjection, AbsoluteBudgetTripsMidStream) {
  const auto image = make_image();
  const auto corruption = corrupt_mrt(image, CorruptionKind::kSplice, 2);
  DecodeOptions options = tolerant_options();
  options.max_errors = 0;
  DecodeReport report;
  EXPECT_THROW((void)tolerant_decode(corruption.bytes, options, &report),
               DecodeBudgetError);
  EXPECT_TRUE(report.budget_exhausted);
  EXPECT_GE(report.records_skipped, 1u);

  // The parallel ingest defers the trip until in-flight chunks drain, but
  // the outcome is the same.
  util::ThreadPool pool(4);
  core::MrtIngest parallel(options);
  EXPECT_THROW(add_parallel(parallel, corruption.bytes, pool,
                            /*via_stream=*/true),
               DecodeBudgetError);
  EXPECT_TRUE(parallel.report().budget_exhausted);
  EXPECT_GE(parallel.report().records_skipped, 1u);
}

TEST(FaultInjection, FractionalBudgetIsEnforcedAtEndOfStream) {
  // Hand-built tiny image: peer table + 3 RIB records; tearing the last
  // record yields exactly 3 ok / 1 skipped = 25% errors.
  std::vector<bgp::RibEntry> entries;
  for (int i = 0; i < 3; ++i) {
    bgp::RibEntry entry;
    entry.vantage_point.asn = 65001;
    entry.vantage_point.address = 0xc0000001;
    entry.route.prefix =
        *bgp::Prefix::parse("10.0." + std::to_string(i) + ".0/24");
    entry.route.path = bgp::AsPath({65001, 1299, 64496});
    entry.route.communities = {bgp::Community(1299, 100)};
    entry.route.next_hop = entry.vantage_point.address;
    entries.push_back(entry);
  }
  std::ostringstream out;
  MrtWriter writer(out);
  writer.write_rib_snapshot(entries, 1, 0);
  const std::string s = out.str();
  std::vector<std::uint8_t> torn(s.begin(), s.end());
  torn.resize(torn.size() - 5);

  DecodeOptions strict_frac = tolerant_options();
  strict_frac.max_error_frac = 0.2;
  DecodeReport report;
  try {
    (void)tolerant_decode(torn, strict_frac, &report);
    FAIL() << "expected DecodeBudgetError";
  } catch (const DecodeBudgetError& error) {
    // The whole stream was still decoded before the end-of-stream check
    // tripped — the fraction needs the full-stream denominator.
    EXPECT_EQ(error.report().records_ok, 3u);
    EXPECT_EQ(error.report().records_skipped, 1u);
  }

  DecodeOptions loose_frac = tolerant_options();
  loose_frac.max_error_frac = 0.3;
  DecodeReport ok_report;
  const auto recovered = tolerant_decode(torn, loose_frac, &ok_report);
  EXPECT_EQ(recovered.size(), 2u);  // two intact RIB records
  EXPECT_EQ(ok_report.records_skipped, 1u);
  EXPECT_FALSE(ok_report.budget_exhausted);
}

TEST(FaultInjection, GarbageOnlyInputTripsFractionalBudget) {
  const std::string garbage = "this is not MRT data at all............";
  const std::vector<std::uint8_t> bytes(garbage.begin(), garbage.end());
  DecodeReport report;
  EXPECT_THROW((void)tolerant_decode(bytes, tolerant_options(), &report),
               DecodeBudgetError);
  EXPECT_EQ(report.records_ok, 0u);
  EXPECT_GE(report.records_skipped, 1u);
}

// --- parallel strict error path -----------------------------------------
//
// These poisons keep framing intact (lengths untouched) so the failure
// happens inside a worker's decode task, exercising the future-draining
// logic.  Run under the tsan preset to check the drain for races.

/// Offset of the entry-count field inside a RIB_IPV4_UNICAST body.
std::size_t rib_count_offset(const std::vector<std::uint8_t>& image,
                             const RecordSpan& span) {
  const std::size_t body = static_cast<std::size_t>(span.offset) + 12;
  const std::uint8_t prefix_bits = image[body + 4];
  return body + 4 + 1 + (static_cast<std::size_t>(prefix_bits) + 7) / 8;
}

/// Makes record `index` fail decode with "peer index out of range".
void poison_peer_index(std::vector<std::uint8_t>& image,
                       const std::vector<RecordSpan>& spans,
                       std::size_t index) {
  const std::size_t off = rib_count_offset(image, spans[index]) + 2;
  image[off] = 0xff;
  image[off + 1] = 0xff;
}

/// Makes record `index` fail decode with a ByteReader underflow
/// ("truncated record: ...") by lying about its entry count.
void poison_entry_count(std::vector<std::uint8_t>& image,
                        const std::vector<RecordSpan>& spans,
                        std::size_t index) {
  const std::size_t off = rib_count_offset(image, spans[index]);
  image[off] = 0x7f;
  image[off + 1] = 0xff;
}

TEST(ParallelStrictErrors, PoisonedChunkRethrowsAndPoolSurvives) {
  auto image = make_image(200);  // > 128 data records => several chunks
  const auto spans = index_records(image);
  ASSERT_GT(spans.size(), 160u);
  poison_peer_index(image, spans, 150);

  util::ThreadPool pool(4);
  const auto clean = make_image(200);
  for (const bool via_stream : {true, false}) {
    core::MrtIngest poisoned;
    try {
      add_parallel(poisoned, image, pool, via_stream);
      FAIL() << "expected MrtError";
    } catch (const MrtError& error) {
      EXPECT_NE(std::string(error.what()).find("peer index out of range"),
                std::string::npos);
    }

    // No deadlocked or leaked futures: the same pool immediately completes
    // a clean parallel decode.
    core::MrtIngest ingest;
    add_parallel(ingest, clean, pool, via_stream);
    EXPECT_EQ(ingest.entries(), test_support::decode_entries(clean).size())
        << "via_stream=" << via_stream;
  }
}

TEST(ParallelStrictErrors, ErrorsSurfaceInChunkOrder) {
  auto image = make_image(200);
  const auto spans = index_records(image);
  ASSERT_GT(spans.size(), 160u);
  // Two poisons with distinguishable messages in different chunks (64
  // records each): the earlier chunk's error must win, every time.
  poison_entry_count(image, spans, 30);   // chunk 0: "truncated record: ..."
  poison_peer_index(image, spans, 150);   // chunk 2: "peer index out of range"

  util::ThreadPool pool(4);
  for (int round = 0; round < 3; ++round) {
    for (const bool via_stream : {true, false}) {
      core::MrtIngest ingest;
      std::size_t throws = 0;
      std::string message;
      try {
        add_parallel(ingest, image, pool, via_stream);
      } catch (const MrtError& error) {
        ++throws;
        message = error.what();
      }
      EXPECT_EQ(throws, 1u);
      EXPECT_NE(message.find("truncated record"), std::string::npos)
          << "expected the earlier chunk's error, got: " << message;
    }
  }
}

}  // namespace
}  // namespace bgpintent::mrt
