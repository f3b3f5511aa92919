#include "mrt/mrt_file.hpp"

#include "bgp/asn.hpp"
#include "mrt/update_stream.hpp"

#include <istream>
#include <map>
#include <ostream>

namespace bgpintent::mrt {

namespace {

constexpr std::uint8_t kPeerTypeAs4 = 0x02;  // RFC 6396 §4.3.1

/// Builds the PEER_INDEX_TABLE body; returns peer -> index.
std::map<bgp::VantagePointId, std::uint16_t> build_peer_table(
    ByteWriter& body, const std::vector<bgp::RibEntry>& entries,
    std::uint32_t collector_id) {
  std::map<bgp::VantagePointId, std::uint16_t> index;
  for (const auto& entry : entries) index.emplace(entry.vantage_point, 0);
  std::uint16_t next = 0;
  for (auto& [peer, idx] : index) idx = next++;

  body.put_u32(collector_id);
  body.put_u16(0);  // empty view name
  body.put_u16(static_cast<std::uint16_t>(index.size()));
  for (const auto& [peer, idx] : index) {
    body.put_u8(kPeerTypeAs4);      // IPv4 peer, 4-octet ASN
    body.put_u32(peer.address);     // peer BGP id (we reuse the address)
    body.put_u32(peer.address);     // peer IP
    body.put_u32(peer.asn);
  }
  return index;
}

}  // namespace

void MrtWriter::write_record(const MrtRecord& record) {
  ByteWriter header;
  header.put_u32(record.timestamp);
  header.put_u16(record.type);
  header.put_u16(record.subtype);
  header.put_u32(static_cast<std::uint32_t>(record.body.size()));
  out_->write(reinterpret_cast<const char*>(header.bytes().data()),
              static_cast<std::streamsize>(header.size()));
  out_->write(reinterpret_cast<const char*>(record.body.data()),
              static_cast<std::streamsize>(record.body.size()));
  if (!*out_) throw MrtError("stream write failed");
}

void MrtWriter::write_rib_snapshot(const std::vector<bgp::RibEntry>& entries,
                                   std::uint32_t collector_id,
                                   std::uint32_t timestamp) {
  ByteWriter peer_body;
  const auto peer_index = build_peer_table(peer_body, entries, collector_id);
  write_record(MrtRecord{timestamp, kTypeTableDumpV2, kSubtypePeerIndexTable,
                         peer_body.take()});

  // Group entries by prefix, preserving prefix order.
  std::map<bgp::Prefix, std::vector<const bgp::RibEntry*>> by_prefix;
  for (const auto& entry : entries)
    by_prefix[entry.route.prefix].push_back(&entry);

  std::uint32_t sequence = 0;
  for (const auto& [prefix, rows] : by_prefix) {
    ByteWriter body;
    body.put_u32(sequence++);
    encode_nlri_prefix(body, prefix);
    body.put_u16(static_cast<std::uint16_t>(rows.size()));
    for (const bgp::RibEntry* row : rows) {
      body.put_u16(peer_index.at(row->vantage_point));
      body.put_u32(timestamp);  // originated time
      ByteWriter attrs;
      PathAttributes pa;
      pa.origin = row->route.origin_attr;
      pa.as_path = row->route.path;
      pa.next_hop = row->route.next_hop;
      pa.med = row->route.med;
      pa.communities = row->route.communities;
      pa.ext_communities = row->route.ext_communities;
      pa.large_communities = row->route.large_communities;
      encode_path_attributes(attrs, pa);
      body.put_u16(static_cast<std::uint16_t>(attrs.size()));
      body.put_bytes(attrs.bytes());
    }
    write_record(MrtRecord{timestamp, kTypeTableDumpV2,
                           kSubtypeRibIpv4Unicast, body.take()});
  }
}

void MrtWriter::write_update(const bgp::VantagePointId& peer,
                             const bgp::Route& route,
                             std::uint32_t timestamp) {
  ByteWriter body;
  body.put_u32(peer.asn);       // peer AS
  body.put_u32(0xfffd);         // local (collector) AS
  body.put_u16(0);              // interface index
  body.put_u16(1);              // AFI IPv4
  body.put_u32(peer.address);   // peer IP
  body.put_u32(0x0a0a0a0a);     // local IP

  BgpUpdate update;
  update.announced = {route.prefix};
  update.attrs.origin = route.origin_attr;
  update.attrs.as_path = route.path;
  update.attrs.next_hop = route.next_hop;
  update.attrs.med = route.med;
  update.attrs.communities = route.communities;
  update.attrs.ext_communities = route.ext_communities;
  update.attrs.large_communities = route.large_communities;
  encode_bgp_update(body, update);

  write_record(MrtRecord{timestamp, kTypeBgp4mp, kSubtypeBgp4mpMessageAs4,
                         body.take()});
}

void MrtWriter::write_withdraw(const bgp::VantagePointId& peer,
                               std::span<const bgp::Prefix> prefixes,
                               std::uint32_t timestamp) {
  ByteWriter body;
  body.put_u32(peer.asn);       // peer AS
  body.put_u32(0xfffd);         // local (collector) AS
  body.put_u16(0);              // interface index
  body.put_u16(1);              // AFI IPv4
  body.put_u32(peer.address);   // peer IP
  body.put_u32(0x0a0a0a0a);     // local IP

  BgpUpdate update;
  update.withdrawn.assign(prefixes.begin(), prefixes.end());
  encode_bgp_update(body, update);

  write_record(MrtRecord{timestamp, kTypeBgp4mp, kSubtypeBgp4mpMessageAs4,
                         body.take()});
}

void MrtWriter::write_state_change(const bgp::VantagePointId& peer,
                                   std::uint16_t old_state,
                                   std::uint16_t new_state,
                                   std::uint32_t timestamp) {
  ByteWriter body;
  body.put_u32(peer.asn);
  body.put_u32(0xfffd);        // local AS
  body.put_u16(0);             // interface index
  body.put_u16(1);             // AFI IPv4
  body.put_u32(peer.address);
  body.put_u32(0x0a0a0a0a);    // local IP
  body.put_u16(old_state);
  body.put_u16(new_state);
  write_record(MrtRecord{timestamp, kTypeBgp4mp, kSubtypeBgp4mpStateChangeAs4,
                         body.take()});
}

namespace {

/// Path attributes with a 2-octet AS_PATH (legacy TABLE_DUMP rows).
std::vector<std::uint8_t> encode_legacy_attributes(const bgp::Route& route) {
  ByteWriter out;
  out.put_u8(kFlagTransitive);
  out.put_u8(kAttrOrigin);
  out.put_u8(1);
  out.put_u8(static_cast<std::uint8_t>(route.origin_attr));

  ByteWriter path_body;
  for (const auto& seg : route.path.segments()) {
    path_body.put_u8(static_cast<std::uint8_t>(seg.type));
    path_body.put_u8(static_cast<std::uint8_t>(seg.asns.size()));
    for (const bgp::Asn asn : seg.asns) {
      if (!bgp::fits_asn16(asn))
        throw MrtError("legacy TABLE_DUMP cannot carry 4-octet ASN " +
                       std::to_string(asn));
      path_body.put_u16(static_cast<std::uint16_t>(asn));
    }
  }
  out.put_u8(kFlagTransitive);
  out.put_u8(kAttrAsPath);
  out.put_u8(static_cast<std::uint8_t>(path_body.size()));
  out.put_bytes(path_body.bytes());

  out.put_u8(kFlagTransitive);
  out.put_u8(kAttrNextHop);
  out.put_u8(4);
  out.put_u32(route.next_hop);

  if (!route.communities.empty()) {
    ByteWriter body;
    for (const bgp::Community c : route.communities) body.put_u32(c.wire());
    out.put_u8(kFlagOptional | kFlagTransitive);
    out.put_u8(kAttrCommunities);
    if (body.size() > 0xff) {
      // fall back to extended length
      ByteWriter with_ext;
      with_ext.put_u8(kFlagOptional | kFlagTransitive | kFlagExtendedLength);
      with_ext.put_u8(kAttrCommunities);
      with_ext.put_u16(static_cast<std::uint16_t>(body.size()));
      with_ext.put_bytes(body.bytes());
      // replace the two bytes just written
      auto head = out.take();
      head.pop_back();
      head.pop_back();
      ByteWriter rebuilt;
      rebuilt.put_bytes(head);
      rebuilt.put_bytes(with_ext.bytes());
      return rebuilt.take();
    }
    out.put_u8(static_cast<std::uint8_t>(body.size()));
    out.put_bytes(body.bytes());
  }
  return out.take();
}

}  // namespace

void MrtWriter::write_legacy_rib(const std::vector<bgp::RibEntry>& entries,
                                 std::uint32_t timestamp) {
  std::uint16_t sequence = 0;
  for (const bgp::RibEntry& entry : entries) {
    if (!bgp::fits_asn16(entry.vantage_point.asn))
      throw MrtError("legacy TABLE_DUMP cannot carry 4-octet peer ASN");
    ByteWriter body;
    body.put_u16(0);  // view
    body.put_u16(sequence++);
    body.put_u32(entry.route.prefix.address());
    body.put_u8(entry.route.prefix.length());
    body.put_u8(1);  // status
    body.put_u32(timestamp);
    body.put_u32(entry.vantage_point.address);
    body.put_u16(static_cast<std::uint16_t>(entry.vantage_point.asn));
    const auto attrs = encode_legacy_attributes(entry.route);
    body.put_u16(static_cast<std::uint16_t>(attrs.size()));
    body.put_bytes(attrs);
    write_record(MrtRecord{timestamp, kTypeTableDump, kSubtypeTableDumpIpv4,
                           body.take()});
  }
}

bool MrtReader::read_record(std::uint32_t& timestamp, std::uint16_t& type,
                            std::uint16_t& subtype,
                            std::vector<std::uint8_t>& body) {
  std::uint8_t header[12];
  in_->read(reinterpret_cast<char*>(header), sizeof header);
  if (in_->gcount() == 0 && in_->eof()) return false;
  if (in_->gcount() != sizeof header)
    throw MrtError("truncated MRT header");
  ByteReader reader(header);
  timestamp = reader.get_u32();
  type = reader.get_u16();
  subtype = reader.get_u16();
  const std::uint32_t length = reader.get_u32();
  if (length > kMaxRecordSize) throw MrtError("oversized MRT record");
  body.resize(length);
  in_->read(reinterpret_cast<char*>(body.data()), length);
  if (static_cast<std::uint32_t>(in_->gcount()) != length)
    throw MrtError("truncated MRT record body");
  return true;
}

bool MrtReader::next(MrtRecord& record) {
  return read_record(record.timestamp, record.type, record.subtype,
                     record.body);
}

bool MrtReader::next_view(RecordView& record) {
  if (!read_record(record.timestamp, record.type, record.subtype, scratch_))
    return false;
  record.body = scratch_;
  return true;
}

namespace {

/// The per-record step every sequential loop shares: a PEER_INDEX_TABLE
/// replaces the peer table, any other record goes to the one decoder.
void decode_record(const RecordView& record,
                   std::vector<bgp::VantagePointId>& peer_table,
                   UpdateSink& sink, RowScratch& scratch) {
  if (is_peer_index_table(record))
    peer_table = decode_peer_index_table(record);
  else
    decode_data_record(record, peer_table, sink, scratch);
}

/// Strict decode: the first malformed record throws.  `next` frames the
/// next record (StrictFramer over an image, or MrtReader::next_view
/// record by record through one scratch body, bounded memory on any
/// stream length) and returns false at a clean end.
template <typename Next>
void decode_strict(Next next, UpdateSink& sink, DecodeReport& report) {
  std::vector<bgp::VantagePointId> peer_table;
  RecordView record;
  RowScratch scratch;
  while (next(record)) {
    decode_record(record, peer_table, sink, scratch);
    ++report.records_ok;
  }
}

/// Tolerant decode of one in-memory image.  Rows decoded before a
/// mid-record failure stay emitted: the sink sees each row as soon as it
/// is decoded.
void decode_tolerant(std::span<const std::uint8_t> data, UpdateSink& sink,
                     const DecodeOptions& options, DecodeReport& report) {
  std::vector<bgp::VantagePointId> peer_table;
  TolerantFramer framer(data, options, report);
  TolerantFramer::Framed framed;
  RowScratch scratch;
  while (framer.next(framed)) {
    try {
      decode_record(framed.record, peer_table, sink, scratch);
      ++report.records_ok;
    } catch (const MrtError& error) {
      record_body_failure(report, framed, error.what());
      if (report.over_budget(options)) throw_budget(report);
    }
  }
  check_final_budget(report, options);
}

/// Runs `decode` against a fresh report and writes it to `report` (when
/// non-null) also on throw, so diagnostics survive hard failures.
template <typename Decode>
void reporting(DecodeReport* report, Decode decode) {
  DecodeReport local;
  try {
    decode(local);
  } catch (...) {
    if (report) *report = std::move(local);
    throw;
  }
  if (report) *report = std::move(local);
}

}  // namespace

void decode_update_stream(const ByteSource& source, UpdateSink& sink,
                          const DecodeOptions& options, DecodeReport* report) {
  reporting(report, [&](DecodeReport& local) {
    if (options.tolerant()) {
      decode_tolerant(source.data(), sink, options, local);
    } else {
      StrictFramer framer(source.data());
      decode_strict([&](RecordView& record) { return framer.next(record); },
                    sink, local);
    }
  });
}

void decode_update_stream(std::istream& in, UpdateSink& sink,
                          const DecodeOptions& options, DecodeReport* report) {
  if (options.tolerant()) {
    // Resync needs random access to the whole image; buffer first.
    decode_update_stream(BufferSource(slurp_stream(in)), sink, options,
                         report);
    return;
  }
  reporting(report, [&](DecodeReport& local) {
    MrtReader reader(in);
    decode_strict(
        [&](RecordView& record) { return reader.next_view(record); }, sink,
        local);
  });
}

void decode_rib_stream(const ByteSource& source, EntrySink& sink,
                       const DecodeOptions& options, DecodeReport* report) {
  decode_update_stream(source, sink, options, report);
}

void decode_rib_stream(std::istream& in, EntrySink& sink,
                       const DecodeOptions& options, DecodeReport* report) {
  decode_update_stream(in, sink, options, report);
}

}  // namespace bgpintent::mrt
