// The one checksum behind every persisted file: serve snapshots, stream
// checkpoints, and journal segment headers, frames and footers all store
// XXH64 (seed 0) as a little-endian u64.  It replaced a table CRC-32 and a
// word-multiply checksum: on snapshot columns and on journal frames of 25
// bytes and up it is the fastest of the three, and it detects the paired
// bit flips the word-multiply checksum let through
// (tests/util/checksum_test.cpp pins the published vectors and those
// flips).
#pragma once

#include <cstdint>
#include <span>

namespace bgpintent::util {

/// XXH64 of `bytes` with seed 0, per the published specification
/// (xxh64("") == 0xef46db3751d8e999).
[[nodiscard]] std::uint64_t xxh64(std::span<const std::uint8_t> bytes) noexcept;

}  // namespace bgpintent::util
