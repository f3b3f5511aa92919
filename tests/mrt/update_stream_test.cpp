// Update-stream decode tests: BGP4MP announce/withdraw ordering and
// timestamps, interleaved RIB rows, state-change skipping, and fault
// injection over update streams — including that corrupt_mrt treats every
// record of a peer-table-free stream as a victim candidate while still
// protecting the PEER_INDEX_TABLE of RIB images.
#include "mrt/update_stream.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <span>
#include <sstream>
#include <string>
#include <vector>

#include "bgp/route.hpp"
#include "mrt/fault.hpp"
#include "mrt/mrt_file.hpp"
#include "mrt/source.hpp"
#include "routing/scenario.hpp"

namespace bgpintent::mrt {
namespace {

bgp::VantagePointId peer(std::uint32_t asn) {
  bgp::VantagePointId vp;
  vp.asn = asn;
  vp.address = asn;
  return vp;
}

bgp::Route route(const char* prefix, std::vector<bgp::Asn> path,
                 std::vector<bgp::Community> communities) {
  bgp::Route r;
  r.prefix = *bgp::Prefix::parse(prefix);
  r.path = bgp::AsPath(std::move(path));
  r.communities = std::move(communities);
  return r;
}

std::vector<std::uint8_t> bytes_of(const std::ostringstream& out) {
  const std::string str = out.str();
  return std::vector<std::uint8_t>(
      reinterpret_cast<const std::uint8_t*>(str.data()),
      reinterpret_cast<const std::uint8_t*>(str.data()) + str.size());
}

struct Seen {
  bool announce = false;
  bgp::VantagePointId vp;
  bgp::Prefix prefix;
  std::vector<bgp::Community> communities;
  std::uint32_t timestamp = 0;
};

class Recorder final : public UpdateSink {
 public:
  void on_announce(bgp::RibEntry& entry, std::uint32_t timestamp) override {
    seen.push_back(Seen{true, entry.vantage_point, entry.route.prefix,
                        entry.route.communities, timestamp});
  }
  void on_withdraw(const bgp::VantagePointId& vp, const bgp::Prefix& prefix,
                   std::uint32_t timestamp) override {
    seen.push_back(Seen{false, vp, prefix, {}, timestamp});
  }
  std::vector<Seen> seen;
};

TEST(UpdateStream, AnnounceWithdrawAndStateChangeSemantics) {
  std::ostringstream out;
  MrtWriter writer(out);
  writer.write_update(peer(61), route("10.1.0.0/24", {61, 100, 201},
                                      {bgp::Community(100, 1)}),
                      1000);
  const bgp::Prefix withdrawn[] = {*bgp::Prefix::parse("10.1.0.0/24"),
                                   *bgp::Prefix::parse("10.2.0.0/24")};
  writer.write_withdraw(peer(61), withdrawn, 1010);
  writer.write_state_change(peer(61), 6, 1, 1020);  // must be skipped

  Recorder recorder;
  DecodeReport report;
  decode_update_stream(BufferSource{bytes_of(out)}, recorder, {}, &report);

  ASSERT_EQ(recorder.seen.size(), 3u);
  EXPECT_TRUE(recorder.seen[0].announce);
  EXPECT_EQ(recorder.seen[0].vp.asn, 61u);
  EXPECT_EQ(recorder.seen[0].timestamp, 1000u);
  EXPECT_EQ(recorder.seen[0].communities,
            std::vector<bgp::Community>{bgp::Community(100, 1)});
  EXPECT_FALSE(recorder.seen[1].announce);
  EXPECT_EQ(recorder.seen[1].prefix, withdrawn[0]);
  EXPECT_FALSE(recorder.seen[2].announce);
  EXPECT_EQ(recorder.seen[2].prefix, withdrawn[1]);
  EXPECT_EQ(recorder.seen[2].timestamp, 1010u);
  EXPECT_EQ(report.records_ok, 3u);  // the state change decodes, emits none
}

TEST(UpdateStream, WithdrawalsPrecedeAnnouncementsWithinOneMessage) {
  // A priming RIB dump concatenated in front of BGP4MP updates — the
  // record mix a real archive replay produces.
  routing::ScenarioConfig cfg;
  cfg.topology.seed = 7;
  cfg.topology.tier1_count = 4;
  cfg.topology.tier2_count = 12;
  cfg.topology.stub_count = 40;
  cfg.vantage_point_count = 8;
  const auto scenario = routing::Scenario::build(cfg);
  const auto entries = scenario.entries();

  std::ostringstream out;
  MrtWriter writer(out);
  writer.write_rib_snapshot(entries, 0x7f000001, 900);
  writer.write_update(peer(61), route("10.9.0.0/24", {61, 100},
                                      {bgp::Community(100, 2)}),
                      1000);

  Recorder recorder;
  decode_update_stream(BufferSource{bytes_of(out)}, recorder);
  ASSERT_EQ(recorder.seen.size(), entries.size() + 1);
  // RIB rows surface as announcements stamped with the dump timestamp.
  for (std::size_t i = 0; i < entries.size(); ++i) {
    EXPECT_TRUE(recorder.seen[i].announce);
    EXPECT_EQ(recorder.seen[i].timestamp, 900u);
  }
  EXPECT_EQ(recorder.seen.back().timestamp, 1000u);
}

TEST(UpdateStream, IstreamStrictMatchesBufferDecode) {
  std::ostringstream out;
  MrtWriter writer(out);
  for (std::uint32_t i = 0; i < 8; ++i)
    writer.write_update(peer(61 + i),
                        route("10.1.0.0/24", {61 + i, 100, 201},
                              {bgp::Community(100, static_cast<std::uint16_t>(
                                                       i))}),
                        1000 + i);

  Recorder from_buffer;
  decode_update_stream(BufferSource{bytes_of(out)}, from_buffer);

  std::istringstream in(out.str());
  Recorder from_stream;
  decode_update_stream(in, from_stream);
  ASSERT_EQ(from_stream.seen.size(), from_buffer.seen.size());
  for (std::size_t i = 0; i < from_buffer.seen.size(); ++i) {
    EXPECT_EQ(from_stream.seen[i].timestamp, from_buffer.seen[i].timestamp);
    EXPECT_EQ(from_stream.seen[i].communities,
              from_buffer.seen[i].communities);
  }
}

// --- fault injection over update streams --------------------------------

std::vector<std::uint8_t> update_only_stream(std::size_t records) {
  std::ostringstream out;
  MrtWriter writer(out);
  for (std::size_t i = 0; i < records; ++i)
    writer.write_update(
        peer(61), route("10.1.0.0/24", {61, 100, 201},
                        {bgp::Community(100, static_cast<std::uint16_t>(i))}),
        static_cast<std::uint32_t>(1000 + i));
  return bytes_of(out);
}

TEST(UpdateStreamFault, EveryRecordOfAPeerTableFreeStreamIsACandidate) {
  const auto bytes = update_only_stream(6);
  bool hit_record_zero = false;
  for (std::uint64_t seed = 1; seed <= 32 && !hit_record_zero; ++seed) {
    const auto result =
        corrupt_mrt(bytes, CorruptionKind::kBitFlip, seed);
    hit_record_zero = std::find(result.touched_records.begin(),
                                result.touched_records.end(),
                                0u) != result.touched_records.end();
  }
  EXPECT_TRUE(hit_record_zero)
      << "record 0 of a BGP4MP stream must be corruptible";
}

TEST(UpdateStreamFault, RibImagesStillProtectThePeerIndexTable) {
  routing::ScenarioConfig cfg;
  cfg.topology.seed = 8;
  cfg.topology.tier1_count = 4;
  cfg.topology.tier2_count = 12;
  cfg.topology.stub_count = 40;
  cfg.vantage_point_count = 8;
  const auto scenario = routing::Scenario::build(cfg);
  std::ostringstream out;
  MrtWriter writer(out);
  writer.write_rib_snapshot(scenario.entries(), 0x7f000001, 900);
  const auto bytes = bytes_of(out);

  for (const CorruptionKind kind : kAllCorruptionKinds)
    for (std::uint64_t seed = 1; seed <= 8; ++seed) {
      const auto result = corrupt_mrt(bytes, kind, seed);
      EXPECT_EQ(std::find(result.touched_records.begin(),
                          result.touched_records.end(), 0u),
                result.touched_records.end())
          << result.description;
    }
}

/// The tolerant-recovery contract extended to update streams: every
/// record corrupt_mrt did not name decodes to exactly its original
/// updates, for every corruption kind and several seeds.
TEST(UpdateStreamFault, TolerantDecodeRecoversEveryUntouchedRecord) {
  constexpr std::size_t kRecords = 10;
  const auto bytes = update_only_stream(kRecords);
  DecodeOptions tolerant;
  tolerant.mode = DecodeMode::kTolerant;

  for (const CorruptionKind kind : kAllCorruptionKinds)
    for (std::uint64_t seed = 1; seed <= 6; ++seed) {
      const auto corrupted = corrupt_mrt(bytes, kind, seed);
      SCOPED_TRACE(corrupted.description);

      Recorder recorder;
      DecodeReport report;
      decode_update_stream(BufferSource{corrupted.bytes}, recorder, tolerant,
                           &report);
      // One announce per record here; survivors must keep their identity
      // (the beta encodes the record index).
      std::vector<std::uint16_t> recovered;
      for (const Seen& seen : recorder.seen)
        if (seen.announce && seen.communities.size() == 1)
          recovered.push_back(seen.communities[0].beta());
      for (std::uint64_t r = 0; r < kRecords; ++r) {
        if (std::find(corrupted.touched_records.begin(),
                      corrupted.touched_records.end(),
                      r) != corrupted.touched_records.end())
          continue;
        EXPECT_NE(std::find(recovered.begin(), recovered.end(),
                            static_cast<std::uint16_t>(r)),
                  recovered.end())
            << "record " << r << " not recovered";
      }
      EXPECT_GE(report.records_ok + report.records_skipped, 1u);
    }
}

TEST(UpdateStreamFault, StrictDecodeThrowsOnTruncation) {
  const auto bytes = update_only_stream(6);
  const auto corrupted = corrupt_mrt(bytes, CorruptionKind::kTruncate, 3);
  Recorder recorder;
  EXPECT_THROW(decode_update_stream(BufferSource{corrupted.bytes}, recorder),
               MrtError);
}

// --- the RIB view and the update view of one stream ---------------------

constexpr std::size_t kMixedLegacyRows = 24;
constexpr std::size_t kMixedUpdates = 60;  // every third one a withdrawal

/// One stream holding every record shape the decoder reads: a TABLE_DUMP_V2
/// snapshot of a small scenario, legacy TABLE_DUMP rows, BGP4MP
/// announcements with a withdrawal every third update, and session state
/// changes.
std::vector<std::uint8_t> mixed_stream(std::size_t* rib_rows = nullptr) {
  routing::ScenarioConfig cfg;
  cfg.topology.seed = 9;
  cfg.topology.tier1_count = 4;
  cfg.topology.tier2_count = 10;
  cfg.topology.stub_count = 24;
  cfg.vantage_point_count = 6;
  const auto scenario = routing::Scenario::build(cfg);
  const auto entries = scenario.entries();
  if (rib_rows != nullptr) *rib_rows = entries.size();

  std::ostringstream out;
  MrtWriter writer(out);
  writer.write_rib_snapshot(entries, 0x7f000001, 900);
  writer.write_legacy_rib(
      {entries.begin(),
       entries.begin() + static_cast<std::ptrdiff_t>(kMixedLegacyRows)},
      950);
  for (std::size_t i = 0; i < kMixedUpdates; ++i) {
    const bgp::RibEntry& entry = entries[i * 7 % entries.size()];
    const auto timestamp = static_cast<std::uint32_t>(1000 + i);
    if (i % 3 == 2)
      writer.write_withdraw(entry.vantage_point,
                            std::span(&entry.route.prefix, 1), timestamp);
    else
      writer.write_update(entry.vantage_point, entry.route, timestamp);
    if (i % 10 == 4) writer.write_state_change(entry.vantage_point, 6, 1,
                                               timestamp);
  }
  return bytes_of(out);
}

/// What one decode call produced, thrown or not.
struct ViewOutcome {
  std::vector<bgp::RibEntry> rows;
  std::size_t withdrawals = 0;
  DecodeReport report;
  bool threw = false;
  std::string error;
};

class RowView final : public EntrySink {
 public:
  explicit RowView(ViewOutcome& outcome) : outcome_(&outcome) {}
  void on_entry(bgp::RibEntry& entry) override {
    outcome_->rows.push_back(entry);
  }

 private:
  ViewOutcome* outcome_;
};

class AnnounceView final : public UpdateSink {
 public:
  explicit AnnounceView(ViewOutcome& outcome) : outcome_(&outcome) {}
  void on_announce(bgp::RibEntry& entry, std::uint32_t) override {
    outcome_->rows.push_back(entry);
  }
  void on_withdraw(const bgp::VantagePointId&, const bgp::Prefix&,
                   std::uint32_t) override {
    ++outcome_->withdrawals;
  }

 private:
  ViewOutcome* outcome_;
};

/// Runs one decode entry point over `bytes`, from the image or from an
/// istream, through the RIB view (an EntrySink) or the update view.
ViewOutcome decode_view(std::span<const std::uint8_t> bytes,
                        const DecodeOptions& options, bool update_view,
                        bool from_istream) {
  ViewOutcome outcome;
  RowView rows(outcome);
  AnnounceView updates(outcome);
  const BufferSource image{std::vector<std::uint8_t>(bytes.begin(), bytes.end())};
  std::istringstream in(std::string(bytes.begin(), bytes.end()));
  try {
    if (update_view && from_istream)
      decode_update_stream(in, updates, options, &outcome.report);
    else if (update_view)
      decode_update_stream(image, updates, options, &outcome.report);
    else if (from_istream)
      decode_rib_stream(in, rows, options, &outcome.report);
    else
      decode_rib_stream(image, rows, options, &outcome.report);
  } catch (const MrtError& error) {
    outcome.threw = true;
    outcome.error = error.what();
  }
  return outcome;
}

void expect_same_outcome(const ViewOutcome& expected, const ViewOutcome& got,
                         const char* what) {
  SCOPED_TRACE(what);
  EXPECT_EQ(got.threw, expected.threw);
  EXPECT_EQ(got.error, expected.error);
  ASSERT_EQ(got.rows.size(), expected.rows.size());
  for (std::size_t i = 0; i < expected.rows.size(); ++i)
    ASSERT_TRUE(got.rows[i] == expected.rows[i]) << "row " << i;
  const DecodeReport& a = expected.report;
  const DecodeReport& b = got.report;
  EXPECT_EQ(b.records_ok, a.records_ok);
  EXPECT_EQ(b.records_skipped, a.records_skipped);
  EXPECT_EQ(b.bytes_skipped, a.bytes_skipped);
  EXPECT_EQ(b.resyncs, a.resyncs);
  EXPECT_EQ(b.resync_distance_log2, a.resync_distance_log2);
  EXPECT_TRUE(b.errors == a.errors);
  EXPECT_EQ(b.budget_exhausted, a.budget_exhausted);
}

/// decode_rib_stream and decode_update_stream run one decoder: on any input
/// the RIB rows equal the update view's announcements, in order, with equal
/// reports and the same throw.  Strict decoding off an istream agrees with
/// strict decoding of the image.
void expect_views_agree(std::span<const std::uint8_t> bytes,
                        const DecodeOptions& options) {
  const ViewOutcome rib = decode_view(bytes, options, false, false);
  expect_same_outcome(rib, decode_view(bytes, options, true, false),
                      "update view of the image");
  if (options.tolerant()) return;
  expect_same_outcome(rib, decode_view(bytes, options, false, true),
                      "RIB view of an istream");
  expect_same_outcome(rib, decode_view(bytes, options, true, true),
                      "update view of an istream");
}

TEST(UpdateStream, RibAndUpdateViewsOfOneStreamAgree) {
  std::size_t rib_rows = 0;
  const std::vector<std::uint8_t> clean = mixed_stream(&rib_rows);
  DecodeOptions tolerant;
  tolerant.mode = DecodeMode::kTolerant;

  // The clean stream decodes whole in both views.
  const ViewOutcome updates = decode_view(clean, {}, true, false);
  EXPECT_FALSE(updates.threw) << updates.error;
  EXPECT_EQ(updates.withdrawals, kMixedUpdates / 3);
  EXPECT_EQ(updates.rows.size(),
            rib_rows + kMixedLegacyRows + kMixedUpdates * 2 / 3);
  for (const DecodeOptions& options : {DecodeOptions{}, tolerant}) {
    SCOPED_TRACE(options.tolerant() ? "clean tolerant" : "clean strict");
    expect_views_agree(clean, options);
  }

  for (const CorruptionKind kind : kAllCorruptionKinds)
    for (std::uint64_t seed = 1; seed <= 16; ++seed) {
      const CorruptionResult corrupted = corrupt_mrt(clean, kind, seed);
      for (const DecodeOptions& options : {DecodeOptions{}, tolerant}) {
        SCOPED_TRACE(corrupted.description +
                     (options.tolerant() ? " tolerant" : " strict"));
        expect_views_agree(corrupted.bytes, options);
      }
    }
}

}  // namespace
}  // namespace bgpintent::mrt
