// Record framing and per-record decoding, shared by every MRT reader.
//
// This is the layer underneath mrt_file.hpp's entry points: records are
// framed as zero-copy views into a stable byte image (RecordView carries a
// span, never an owned body), and each data record is decoded into one
// reused scratch row that is handed to an UpdateSink.  The sequential
// decode (mrt::decode_rib_stream, mrt::decode_update_stream) and the
// chunked-parallel one (core::MrtIngest::add_parallel,
// docs/PERFORMANCE.md) share the framers and the one record decoder here,
// so they cannot diverge.
//
// Two framers cover the two failure models:
//
//   StrictFramer    walks header->body->header and throws MrtError at the
//                   first truncated/oversized record (historical strict
//                   semantics).
//   TolerantFramer  skips damage and resynchronizes on the next plausible
//                   header, recording every failure into a DecodeReport
//                   under an error budget (docs/ROBUSTNESS.md).
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "bgp/route.hpp"
#include "mrt/bgp_message.hpp"
#include "mrt/decode.hpp"

namespace bgpintent::mrt {

// MRT record types / subtypes (RFC 6396 §4).
inline constexpr std::uint16_t kTypeTableDumpV2 = 13;
inline constexpr std::uint16_t kSubtypePeerIndexTable = 1;
inline constexpr std::uint16_t kSubtypeRibIpv4Unicast = 2;
inline constexpr std::uint16_t kTypeBgp4mp = 16;
inline constexpr std::uint16_t kSubtypeBgp4mpStateChange = 0;
inline constexpr std::uint16_t kSubtypeBgp4mpMessageAs4 = 4;
inline constexpr std::uint16_t kSubtypeBgp4mpStateChangeAs4 = 5;
// Legacy TABLE_DUMP (RFC 6396 §4.2): one RIB row per record, 2-octet ASNs.
inline constexpr std::uint16_t kTypeTableDump = 12;
inline constexpr std::uint16_t kSubtypeTableDumpIpv4 = 1;

/// Sanity bound on one record body, 16 MiB.
inline constexpr std::size_t kMaxRecordSize = 1 << 24;

/// Records per decode task in the parallel ingest
/// (core::MrtIngest::add_parallel): large enough to amortize scheduling,
/// small enough to keep all workers busy on typical RIB chunk sizes.
inline constexpr std::size_t kChunkRecords = 64;

/// One framed MRT record: header fields plus a borrowed view of the body.
/// The view points into the framed image (mmap, owned buffer, or a
/// reader's scratch) and is only valid while that image is.
struct RecordView {
  std::uint32_t timestamp = 0;
  std::uint16_t type = 0;
  std::uint16_t subtype = 0;
  std::span<const std::uint8_t> body;
};

/// Consumer of streamed decode, in stream order.  on_announce is called
/// once per RIB row and per announced prefix of a BGP4MP update;
/// on_withdraw once per withdrawn prefix, before the announcements of the
/// same message.  `entry` is a scratch row reused across calls: it is
/// fully (re)assigned before every call, it is only valid until
/// on_announce returns, and the sink may move out of it — copy or steal
/// whatever outlives the call.  `timestamp` is the MRT record's collector
/// timestamp (seconds since epoch); RIB rows carry their dump's.
class UpdateSink {
 public:
  virtual void on_announce(bgp::RibEntry& entry, std::uint32_t timestamp) = 0;
  virtual void on_withdraw(const bgp::VantagePointId& peer,
                           const bgp::Prefix& prefix,
                           std::uint32_t timestamp) = 0;

 protected:
  ~UpdateSink() = default;
};

/// The RIB view of the same decode: every announcement reaches on_entry
/// (same scratch-row contract), withdrawals and timestamps are dropped.
class EntrySink : public UpdateSink {
 public:
  virtual void on_entry(bgp::RibEntry& entry) = 0;

  void on_announce(bgp::RibEntry& entry, std::uint32_t) final {
    on_entry(entry);
  }
  void on_withdraw(const bgp::VantagePointId&, const bgp::Prefix&,
                   std::uint32_t) final {}

 protected:
  ~EntrySink() = default;
};

[[nodiscard]] inline bool is_peer_index_table(std::uint16_t type,
                                              std::uint16_t subtype) noexcept {
  return type == kTypeTableDumpV2 && subtype == kSubtypePeerIndexTable;
}
[[nodiscard]] inline bool is_peer_index_table(const RecordView& record) noexcept {
  return is_peer_index_table(record.type, record.subtype);
}

/// Decodes a PEER_INDEX_TABLE body into a fresh peer table.
[[nodiscard]] std::vector<bgp::VantagePointId> decode_peer_index_table(
    const RecordView& record);

/// Per-decode-loop scratch: the row handed to sinks plus the UPDATE it is
/// refilled from (a BGP4MP record decodes a whole message into it, a RIB
/// row only its attribute block).  Both recycle their heap buffers across
/// records, so a sink that does not move out of the row (the streaming
/// ingest) reaches a steady state where decoding allocates nothing per
/// record.  One instance per decode loop / worker thread.
struct RowScratch {
  bgp::RibEntry row;
  BgpUpdate update;
};

/// Decodes one non-PEER_INDEX_TABLE record into `sink` via `scratch`:
/// TABLE_DUMP_V2 and legacy TABLE_DUMP rows become announcements stamped
/// with the record's timestamp; a BGP4MP MESSAGE_AS4 record emits its
/// withdrawals, then one announcement per announced prefix (wire order
/// within each list); state changes and unknown record types are skipped.
/// Pure function of (record, peer_table) — the one per-record decoder of
/// every reader, and what makes chunked decoding safe: workers only ever
/// read `peer_table` through an immutable snapshot.
void decode_data_record(const RecordView& record,
                        const std::vector<bgp::VantagePointId>& peer_table,
                        UpdateSink& sink, RowScratch& scratch);

/// The resync plausibility test: type/subtype pairs real archives carry
/// (RFC 6396 plus the deprecated BGP4MP_ET sibling) with a sane length.
[[nodiscard]] bool plausible_record_header(std::uint16_t type,
                                           std::uint16_t subtype,
                                           std::uint32_t length) noexcept;

/// Frames records off an in-memory MRT image with strict semantics: the
/// first truncated header/body or oversized record throws MrtError, like
/// MrtReader over an istream — but bodies come back as zero-copy views.
class StrictFramer {
 public:
  explicit StrictFramer(std::span<const std::uint8_t> data) noexcept
      : data_(data) {}

  /// Frames the next record; false at a clean end of data.
  [[nodiscard]] bool next(RecordView& out);

 private:
  std::span<const std::uint8_t> data_;
  std::size_t pos_ = 0;
};

/// Frames records off an in-memory MRT image, skipping and resynchronizing
/// around framing damage (truncated headers, implausible or oversized
/// records, length fields pointing past the image).  Framing failures are
/// recorded into the shared report; the caller enforces the error budget.
class TolerantFramer {
 public:
  struct Framed {
    RecordView record;
    std::uint64_t offset = 0;
    std::uint64_t index = 0;
  };

  TolerantFramer(std::span<const std::uint8_t> data,
                 const DecodeOptions& options, DecodeReport& report) noexcept
      : data_(data), options_(&options), report_(&report) {}

  /// Frames the next record; false at end of data.  Throws
  /// DecodeBudgetError when framing failures alone exceed the budget.
  [[nodiscard]] bool next(Framed& out);

 private:
  /// True when `end` is a credible record boundary: exact end of data, or
  /// the start of another plausible header.
  [[nodiscard]] bool chains_at(std::size_t end) const noexcept;

  void check_budget() const;

  void fail_and_resync(std::uint16_t type, std::uint16_t subtype,
                       std::uint32_t length);

  /// First offset >= `from` that looks like a record boundary: plausible
  /// header whose body fits and that chains into end-of-data or another
  /// plausible header.  The two-record lookahead makes false positives
  /// inside record bodies require two chained coincidences.
  [[nodiscard]] std::size_t scan_for_header(std::size_t from) const noexcept;

  std::span<const std::uint8_t> data_;
  const DecodeOptions* options_;
  DecodeReport* report_;
  std::size_t pos_ = 0;
  std::uint64_t index_ = 0;
};

/// Body-decode failure bookkeeping shared by the sequential and chunked
/// tolerant paths (identical accounting keeps their reports bit-equal).
void record_body_failure(DecodeReport& report, const TolerantFramer::Framed& framed,
                         const char* what);

[[noreturn]] void throw_budget(DecodeReport& report);

/// End-of-stream budget check: this is where the fractional budget (which
/// needs the full-stream denominator) is enforced.
void check_final_budget(DecodeReport& report, const DecodeOptions& options);

}  // namespace bgpintent::mrt
