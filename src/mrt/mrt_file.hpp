// MRT export format (RFC 6396): the byte format RouteViews and RIPE RIS
// publish.  We implement the records the paper's pipeline consumes:
//
//   TABLE_DUMP_V2 / PEER_INDEX_TABLE   collector peer table
//   TABLE_DUMP_V2 / RIB_IPV4_UNICAST   RIB snapshot rows
//   BGP4MP / MESSAGE_AS4               update messages (4-octet ASNs)
//
// MrtWriter serializes collector state to any ostream; MrtReader streams
// records back, reconstructing RibEntry rows — so the inference pipeline
// can be pointed at a file produced here or at a real (uncompressed)
// RouteViews dump.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <span>
#include <vector>

#include "bgp/route.hpp"
#include "mrt/bgp_message.hpp"
#include "mrt/decode.hpp"
#include "mrt/framing.hpp"
#include "mrt/source.hpp"

namespace bgpintent::mrt {

/// One raw MRT record (header fields + undecoded body).
struct MrtRecord {
  std::uint32_t timestamp = 0;
  std::uint16_t type = 0;
  std::uint16_t subtype = 0;
  std::vector<std::uint8_t> body;
};

/// Serializes MRT records to a stream.
class MrtWriter {
 public:
  explicit MrtWriter(std::ostream& out) noexcept : out_(&out) {}

  /// Writes a raw record.
  void write_record(const MrtRecord& record);

  /// Writes a full RIB snapshot: one PEER_INDEX_TABLE followed by one
  /// RIB_IPV4_UNICAST record per distinct prefix.  Entries may be in any
  /// order; they are grouped by prefix internally.
  void write_rib_snapshot(const std::vector<bgp::RibEntry>& entries,
                          std::uint32_t collector_id, std::uint32_t timestamp);

  /// Writes one BGP4MP_MESSAGE_AS4 UPDATE announcing `route` as heard from
  /// `peer`.
  void write_update(const bgp::VantagePointId& peer, const bgp::Route& route,
                    std::uint32_t timestamp);

  /// Writes one BGP4MP_MESSAGE_AS4 UPDATE withdrawing `prefixes` as heard
  /// from `peer` (no attributes, no announcements — the pure-withdrawal
  /// shape real update streams carry).
  void write_withdraw(const bgp::VantagePointId& peer,
                      std::span<const bgp::Prefix> prefixes,
                      std::uint32_t timestamp);

  /// Writes a BGP4MP_STATE_CHANGE_AS4 record (FSM states per RFC 4271:
  /// 1=Idle .. 6=Established).
  void write_state_change(const bgp::VantagePointId& peer,
                          std::uint16_t old_state, std::uint16_t new_state,
                          std::uint32_t timestamp);

  /// Writes a RIB snapshot in the *legacy* TABLE_DUMP format (2-octet
  /// ASNs).  Paths containing 4-octet ASNs are rejected with MrtError;
  /// this writer exists to exercise readers against pre-2008 archives.
  void write_legacy_rib(const std::vector<bgp::RibEntry>& entries,
                        std::uint32_t timestamp);

 private:
  std::ostream* out_;
};

/// Streams MRT records from an istream.
class MrtReader {
 public:
  explicit MrtReader(std::istream& in) noexcept : in_(&in) {}

  /// Reads the next record; returns false at a clean EOF.  Throws MrtError
  /// on a truncated or oversized record.
  [[nodiscard]] bool next(MrtRecord& record);

  /// Like next(), but the body lands in one reader-owned scratch buffer
  /// reused across calls instead of a per-record allocation — the hot
  /// sequential path for streaming decode off a pipe.  The view is only
  /// valid until the next next_view() call on this reader.
  [[nodiscard]] bool next_view(RecordView& record);

 private:
  /// Reads one 12-byte header + body into `body` (resized in place);
  /// false at a clean EOF.
  [[nodiscard]] bool read_record(std::uint32_t& timestamp, std::uint16_t& type,
                                 std::uint16_t& subtype,
                                 std::vector<std::uint8_t>& body);

  std::istream* in_;
  std::vector<std::uint8_t> scratch_;
};

/// Decodes a whole MRT stream, handing every RIB row to `sink` (one reused
/// scratch row, stream order) without materializing a RibEntry vector:
/// RIB snapshot records are joined with their PEER_INDEX_TABLE; BGP4MP
/// updates contribute one row per announced prefix.  Unknown record types
/// are skipped.  This is decode_update_stream (update_stream.hpp) seen
/// through an EntrySink: the same loops and the same record decoder, with
/// withdrawals dropped.  Record bodies are parsed as zero-copy views into
/// the source image.
///
/// Strict mode (the default DecodeOptions) throws MrtError on the first
/// malformed record.  Tolerant mode skips malformed records, resynchronizes
/// on the next plausible header, and throws DecodeBudgetError only when the
/// error budget is exceeded (docs/ROBUSTNESS.md).  When `report` is
/// non-null it receives the decode outcome — also on throw, so diagnostics
/// survive hard failures.  The chunked-parallel decoder is
/// core::MrtIngest::add_parallel.
void decode_rib_stream(const ByteSource& source, EntrySink& sink,
                       const DecodeOptions& options = {},
                       DecodeReport* report = nullptr);

/// istream variant: strict mode streams record-by-record through one
/// scratch body buffer (bounded memory on arbitrarily long pipes);
/// tolerant mode buffers the stream first, because resync needs to scan
/// the image at arbitrary offsets.
void decode_rib_stream(std::istream& in, EntrySink& sink,
                       const DecodeOptions& options = {},
                       DecodeReport* report = nullptr);

}  // namespace bgpintent::mrt
