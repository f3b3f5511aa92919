#include "util/checksum.hpp"

#include <bit>
#include <cstring>

namespace bgpintent::util {
namespace {

constexpr std::uint64_t kP1 = 0x9E3779B185EBCA87ULL;
constexpr std::uint64_t kP2 = 0xC2B2AE3D27D4EB4FULL;
constexpr std::uint64_t kP3 = 0x165667B19E3779F9ULL;
constexpr std::uint64_t kP4 = 0x85EBCA77C2B2AE63ULL;
constexpr std::uint64_t kP5 = 0x27D4EB2F165667C5ULL;

[[nodiscard]] std::uint64_t read64(const std::uint8_t* p) noexcept {
  std::uint64_t value;
  std::memcpy(&value, p, sizeof value);
  if constexpr (std::endian::native == std::endian::big)
    value = __builtin_bswap64(value);
  return value;
}

[[nodiscard]] std::uint64_t read32(const std::uint8_t* p) noexcept {
  std::uint32_t value;
  std::memcpy(&value, p, sizeof value);
  if constexpr (std::endian::native == std::endian::big)
    value = __builtin_bswap32(value);
  return value;
}

[[nodiscard]] std::uint64_t mix_lane(std::uint64_t acc,
                                     std::uint64_t input) noexcept {
  return std::rotl(acc + input * kP2, 31) * kP1;
}

[[nodiscard]] std::uint64_t merge_lane(std::uint64_t hash,
                                       std::uint64_t lane) noexcept {
  return (hash ^ mix_lane(0, lane)) * kP1 + kP4;
}

}  // namespace

std::uint64_t xxh64(std::span<const std::uint8_t> bytes) noexcept {
  const std::uint8_t* p = bytes.data();
  const std::uint8_t* const end = p + bytes.size();
  std::uint64_t hash = kP5;
  if (bytes.size() >= 32) {
    std::uint64_t v1 = kP1 + kP2, v2 = kP2, v3 = 0, v4 = 0 - kP1;
    for (; end - p >= 32; p += 32) {
      v1 = mix_lane(v1, read64(p));
      v2 = mix_lane(v2, read64(p + 8));
      v3 = mix_lane(v3, read64(p + 16));
      v4 = mix_lane(v4, read64(p + 24));
    }
    hash = std::rotl(v1, 1) + std::rotl(v2, 7) + std::rotl(v3, 12) +
           std::rotl(v4, 18);
    hash = merge_lane(hash, v1);
    hash = merge_lane(hash, v2);
    hash = merge_lane(hash, v3);
    hash = merge_lane(hash, v4);
  }
  hash += bytes.size();
  for (; end - p >= 8; p += 8)
    hash = std::rotl(hash ^ mix_lane(0, read64(p)), 27) * kP1 + kP4;
  if (end - p >= 4) {
    hash = std::rotl(hash ^ read32(p) * kP1, 23) * kP2 + kP3;
    p += 4;
  }
  for (; p < end; ++p)
    hash = std::rotl(hash ^ std::uint64_t{*p} * kP5, 11) * kP1;
  hash ^= hash >> 33;
  hash *= kP2;
  hash ^= hash >> 29;
  hash *= kP3;
  hash ^= hash >> 32;
  return hash;
}

}  // namespace bgpintent::util
