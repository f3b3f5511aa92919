#include "mrt/framing.hpp"

#include "mrt/bgp_message.hpp"

namespace bgpintent::mrt {

namespace {

constexpr std::uint8_t kPeerTypeAs4 = 0x02;  // RFC 6396 §4.3.1

[[nodiscard]] std::uint16_t peek_u16(std::span<const std::uint8_t> data,
                                     std::size_t pos) noexcept {
  return static_cast<std::uint16_t>((data[pos] << 8) | data[pos + 1]);
}

[[nodiscard]] std::uint32_t peek_u32(std::span<const std::uint8_t> data,
                                     std::size_t pos) noexcept {
  return (static_cast<std::uint32_t>(data[pos]) << 24) |
         (static_cast<std::uint32_t>(data[pos + 1]) << 16) |
         (static_cast<std::uint32_t>(data[pos + 2]) << 8) |
         static_cast<std::uint32_t>(data[pos + 3]);
}

/// Reassigns every field of the scratch row from one attribute block.
/// The scratch may have been moved from by the previous on_announce call, so
/// nothing may survive implicitly — every Route field is written here.
/// The attribute block is copied, not moved: a sink that leaves the row
/// alone (the streaming ingest) keeps both the row's and the block's heap
/// buffers warm, so the copy reuses capacity instead of allocating.
void fill_route(bgp::Route& route, const bgp::Prefix& prefix,
                const PathAttributes& attrs) {
  route.prefix = prefix;
  route.path = attrs.as_path;
  route.communities = attrs.communities;
  route.large_communities = attrs.large_communities;
  route.ext_communities = attrs.ext_communities;
  route.next_hop = attrs.next_hop;
  route.origin_attr = attrs.origin;
  route.med = attrs.med;
  route.local_pref = attrs.local_pref;
}

}  // namespace

std::vector<bgp::VantagePointId> decode_peer_index_table(
    const RecordView& record) {
  std::vector<bgp::VantagePointId> peer_table;
  ByteReader body(record.body);
  body.skip(4);  // collector id
  const std::uint16_t name_len = body.get_u16();
  body.skip(name_len);
  const std::uint16_t count = body.get_u16();
  for (std::uint16_t i = 0; i < count; ++i) {
    const std::uint8_t peer_type = body.get_u8();
    if ((peer_type & 0x01) != 0)
      throw MrtError("IPv6 peers not supported");
    body.skip(4);  // BGP id
    bgp::VantagePointId peer;
    peer.address = body.get_u32();
    peer.asn = (peer_type & kPeerTypeAs4) != 0
                   ? body.get_u32()
                   : body.get_u16();
    peer_table.push_back(peer);
  }
  return peer_table;
}

void decode_data_record(const RecordView& record,
                        const std::vector<bgp::VantagePointId>& peer_table,
                        UpdateSink& sink, RowScratch& scratch) {
  PathAttributes& attrs = scratch.update.attrs;
  if (record.type == kTypeTableDumpV2 &&
      record.subtype == kSubtypeRibIpv4Unicast) {
    ByteReader body(record.body);
    body.skip(4);  // sequence
    const bgp::Prefix prefix = decode_nlri_prefix(body);
    const std::uint16_t count = body.get_u16();
    for (std::uint16_t i = 0; i < count; ++i) {
      const std::uint16_t peer_idx = body.get_u16();
      body.skip(4);  // originated time
      const std::uint16_t attr_len = body.get_u16();
      decode_path_attributes(body, attr_len, /*asn16=*/false, attrs);
      if (peer_idx >= peer_table.size())
        throw MrtError("peer index out of range");
      scratch.row.vantage_point = peer_table[peer_idx];
      fill_route(scratch.row.route, prefix, attrs);
      sink.on_announce(scratch.row, record.timestamp);
    }
  } else if (record.type == kTypeTableDump &&
             record.subtype == kSubtypeTableDumpIpv4) {
    ByteReader body(record.body);
    body.skip(2);  // view
    body.skip(2);  // sequence
    const std::uint32_t address = body.get_u32();
    const std::uint8_t length = body.get_u8();
    if (length > 32) throw MrtError("bad legacy prefix length");
    body.skip(1);  // status
    body.skip(4);  // originated time
    scratch.row.vantage_point.address = body.get_u32();
    scratch.row.vantage_point.asn = body.get_u16();
    const std::uint16_t attr_len = body.get_u16();
    decode_path_attributes(body, attr_len, /*asn16=*/true, attrs);
    fill_route(scratch.row.route, bgp::Prefix(address, length), attrs);
    sink.on_announce(scratch.row, record.timestamp);
  } else if (record.type == kTypeBgp4mp &&
             (record.subtype == kSubtypeBgp4mpStateChange ||
              record.subtype == kSubtypeBgp4mpStateChangeAs4)) {
    // Session state transitions carry no routes; skipped by design.
  } else if (record.type == kTypeBgp4mp &&
             record.subtype == kSubtypeBgp4mpMessageAs4) {
    ByteReader body(record.body);
    bgp::VantagePointId peer;
    peer.asn = body.get_u32();
    body.skip(4);  // local AS
    body.skip(2);  // interface
    const std::uint16_t afi = body.get_u16();
    if (afi != 1) return;  // IPv4 only
    peer.address = body.get_u32();
    body.skip(4);  // local IP
    BgpUpdate& update = scratch.update;
    decode_bgp_message(body, /*asn16=*/false, update);
    for (const bgp::Prefix& prefix : update.withdrawn)
      sink.on_withdraw(peer, prefix, record.timestamp);
    for (const bgp::Prefix& prefix : update.announced) {
      // The attribute block is shared by every announced prefix; each row
      // copies it into the row's warm buffers.
      scratch.row.vantage_point = peer;
      fill_route(scratch.row.route, prefix, update.attrs);
      sink.on_announce(scratch.row, record.timestamp);
    }
  }
  // Other record types: skipped.
}

bool plausible_record_header(std::uint16_t type, std::uint16_t subtype,
                             std::uint32_t length) noexcept {
  constexpr std::uint16_t kTypeBgp4mpEt = 17;
  if (length > kMaxRecordSize) return false;
  switch (type) {
    case kTypeTableDump:
      return subtype >= 1 && subtype <= 2;  // IPv4 / IPv6 rows
    case kTypeTableDumpV2:
      return subtype >= 1 && subtype <= 6;  // peer table .. RIB_GENERIC
    case kTypeBgp4mp:
    case kTypeBgp4mpEt:
      return subtype <= 11;
    default:
      return false;
  }
}

bool StrictFramer::next(RecordView& out) {
  if (pos_ == data_.size()) return false;
  if (data_.size() - pos_ < 12) throw MrtError("truncated MRT header");
  out.timestamp = peek_u32(data_, pos_);
  out.type = peek_u16(data_, pos_ + 4);
  out.subtype = peek_u16(data_, pos_ + 6);
  const std::uint32_t length = peek_u32(data_, pos_ + 8);
  if (length > kMaxRecordSize) throw MrtError("oversized MRT record");
  if (data_.size() - pos_ - 12 < length)
    throw MrtError("truncated MRT record body");
  out.body = data_.subspan(pos_ + 12, length);
  pos_ += 12 + length;
  return true;
}

bool TolerantFramer::next(Framed& out) {
  for (;;) {
    if (pos_ >= data_.size()) return false;
    const std::size_t remaining = data_.size() - pos_;
    if (remaining < 12) {
      report_->add_error({pos_, index_++, 0, "truncated MRT header"});
      report_->bytes_skipped += remaining;
      pos_ = data_.size();
      check_budget();
      return false;
    }
    const std::uint16_t type = peek_u16(data_, pos_ + 4);
    const std::uint16_t subtype = peek_u16(data_, pos_ + 6);
    const std::uint32_t length = peek_u32(data_, pos_ + 8);
    if (!plausible_record_header(type, subtype, length) ||
        pos_ + 12 + length > data_.size()) {
      fail_and_resync(type, subtype, length);
      check_budget();
      continue;
    }
    const std::size_t end = pos_ + 12 + length;
    if (!chains_at(end)) {
      // The claimed end does not land on a record boundary.  Either this
      // record's length field lies (a splice tore bytes out, or the
      // length was rewritten) or the *next* record's header is damaged.
      // A plausible boundary strictly inside the claimed body settles
      // it: the length lied — reject this record and resync there, which
      // is what rescues the shifted-but-intact records after a splice.
      // Otherwise trust this record; the next call handles the damage.
      const std::size_t rescue = scan_for_header(pos_ + 1);
      if (rescue < end) {
        report_->add_error({pos_, index_++, length,
                            "MRT record length overruns next record"});
        report_->bytes_skipped += rescue - pos_;
        report_->add_resync(rescue - pos_);
        pos_ = rescue;
        check_budget();
        continue;
      }
    }
    out.record.timestamp = peek_u32(data_, pos_);
    out.record.type = type;
    out.record.subtype = subtype;
    out.record.body = data_.subspan(pos_ + 12, length);
    out.offset = pos_;
    out.index = index_++;
    pos_ += 12 + length;
    return true;
  }
}

bool TolerantFramer::chains_at(std::size_t end) const noexcept {
  if (end == data_.size()) return true;
  return end + 12 <= data_.size() &&
         plausible_record_header(peek_u16(data_, end + 4),
                                 peek_u16(data_, end + 6),
                                 peek_u32(data_, end + 8));
}

void TolerantFramer::check_budget() const {
  if (report_->over_budget(*options_)) {
    report_->budget_exhausted = true;
    throw DecodeBudgetError(
        "MRT decode error budget exceeded (" + report_->summary() + ")",
        *report_);
  }
}

void TolerantFramer::fail_and_resync(std::uint16_t type, std::uint16_t subtype,
                                     std::uint32_t length) {
  const char* reason;
  if (length > kMaxRecordSize) {
    reason = "oversized MRT record";
  } else if (!plausible_record_header(type, subtype, length)) {
    reason = "implausible MRT record header";
  } else {
    reason = "truncated MRT record body";
  }
  report_->add_error({pos_, index_++, length, reason});
  const std::size_t next = scan_for_header(pos_ + 1);
  report_->bytes_skipped += next - pos_;
  report_->add_resync(next - pos_);
  pos_ = next;
}

std::size_t TolerantFramer::scan_for_header(std::size_t from) const noexcept {
  for (std::size_t pos = from; pos + 12 <= data_.size(); ++pos) {
    const std::uint32_t length = peek_u32(data_, pos + 8);
    if (!plausible_record_header(peek_u16(data_, pos + 4),
                                 peek_u16(data_, pos + 6), length))
      continue;
    const std::size_t end = pos + 12 + length;
    if (end > data_.size()) continue;
    if (end == data_.size()) return pos;
    if (end + 12 <= data_.size() &&
        plausible_record_header(peek_u16(data_, end + 4),
                                peek_u16(data_, end + 6),
                                peek_u32(data_, end + 8)))
      return pos;
  }
  return data_.size();
}

void record_body_failure(DecodeReport& report,
                         const TolerantFramer::Framed& framed,
                         const char* what) {
  report.add_error({framed.offset, framed.index,
                    static_cast<std::uint32_t>(framed.record.body.size()),
                    what});
  report.bytes_skipped += 12 + framed.record.body.size();
}

void throw_budget(DecodeReport& report) {
  report.budget_exhausted = true;
  throw DecodeBudgetError(
      "MRT decode error budget exceeded (" + report.summary() + ")", report);
}

void check_final_budget(DecodeReport& report, const DecodeOptions& options) {
  if (report.over_final_budget(options)) throw_budget(report);
}

}  // namespace bgpintent::mrt
