// Little-endian encoding shared by every persisted format.  put<T>()
// appends an unsigned integer; ByteReader<Error> reads one back with
// bounds checks and throws the format's own error type (SnapshotError,
// JournalError), so each format keeps its error contract and messages.
#pragma once

#include <bit>
#include <cstdint>
#include <span>
#include <type_traits>
#include <vector>

#include "util/strings.hpp"

namespace bgpintent::util {

template <typename T>
void put(std::vector<std::uint8_t>& out, T value) {
  static_assert(std::is_unsigned_v<T>);
  for (std::size_t i = 0; i < sizeof(T); ++i)
    out.push_back(static_cast<std::uint8_t>(value >> (8 * i)));
}

inline void put_double(std::vector<std::uint8_t>& out, double value) {
  put(out, std::bit_cast<std::uint64_t>(value));
}

/// Bounds-checked little-endian reader over one byte span.  Failures throw
/// Error with a message naming `subject` ("truncated journal payload").
template <typename Error>
class ByteReader {
 public:
  ByteReader(std::span<const std::uint8_t> bytes, const char* subject)
      : bytes_(bytes), subject_(subject) {}

  template <typename T>
  [[nodiscard]] T get() {
    static_assert(std::is_unsigned_v<T>);
    if (remaining() < sizeof(T))
      throw Error(format("truncated %s payload", subject_));
    std::uint64_t value = 0;
    for (std::size_t i = 0; i < sizeof(T); ++i)
      value |= static_cast<std::uint64_t>(bytes_[offset_ + i]) << (8 * i);
    offset_ += sizeof(T);
    return static_cast<T>(value);
  }

  [[nodiscard]] double get_double() {
    return std::bit_cast<double>(get<std::uint64_t>());
  }

  /// Reads a u64 count about to drive `element_bytes`-sized reads; rejects
  /// counts the remaining bytes cannot hold, so a corrupt count fails fast
  /// instead of attempting a huge allocation.
  [[nodiscard]] std::size_t get_count(std::size_t element_bytes) {
    const std::uint64_t count = get<std::uint64_t>();
    if (element_bytes != 0 && count > remaining() / element_bytes)
      throw Error(format("%s count exceeds payload size", subject_));
    return static_cast<std::size_t>(count);
  }

  [[nodiscard]] std::size_t remaining() const noexcept {
    return bytes_.size() - offset_;
  }

  void expect_end(const char* what) const {
    if (remaining() != 0)
      throw Error(format("%s has %zu trailing bytes", what, remaining()));
  }

 private:
  std::span<const std::uint8_t> bytes_;
  const char* subject_;
  std::size_t offset_ = 0;
};

}  // namespace bgpintent::util
