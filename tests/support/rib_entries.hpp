// The materializing decode oracle for tests: a vector EntrySink over
// mrt::decode_rib_stream, the sequential decoder production runs.
#pragma once

#include <cstdint>
#include <istream>
#include <span>
#include <vector>

#include "mrt/mrt_file.hpp"
#include "mrt/source.hpp"

namespace bgpintent::test_support {

class VectorSink final : public mrt::EntrySink {
 public:
  std::vector<bgp::RibEntry> entries;
  void on_entry(bgp::RibEntry& entry) override {
    entries.push_back(std::move(entry));
  }
};

/// Every RIB row of an MRT stream, decoded by mrt::decode_rib_stream.
inline std::vector<bgp::RibEntry> decode_entries(
    std::istream& in, const mrt::DecodeOptions& options = {},
    mrt::DecodeReport* report = nullptr) {
  VectorSink sink;
  mrt::decode_rib_stream(in, sink, options, report);
  return std::move(sink.entries);
}

inline std::vector<bgp::RibEntry> decode_entries(
    std::span<const std::uint8_t> bytes, const mrt::DecodeOptions& options = {},
    mrt::DecodeReport* report = nullptr) {
  VectorSink sink;
  mrt::decode_rib_stream(
      mrt::BufferSource(std::vector<std::uint8_t>(bytes.begin(), bytes.end())),
      sink, options, report);
  return std::move(sink.entries);
}

}  // namespace bgpintent::test_support
