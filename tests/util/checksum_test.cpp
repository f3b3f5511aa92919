// util::xxh64, the one checksum of every persisted file: the published
// XXH64 vectors, and detection of the paired bit flips that the
// word-multiply checksum it replaced let through (its unmixed top bit let
// two flips of bit 63 cancel, and its tail fold wrapped every 8 bytes).
#include "util/checksum.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <string_view>
#include <vector>

#include "util/rng.hpp"

namespace bgpintent::util {
namespace {

std::uint64_t hash_text(std::string_view text) {
  return xxh64({reinterpret_cast<const std::uint8_t*>(text.data()),
                text.size()});
}

std::vector<std::uint8_t> random_bytes(Rng& rng, std::size_t size) {
  std::vector<std::uint8_t> bytes(size);
  for (std::uint8_t& byte : bytes) byte = static_cast<std::uint8_t>(rng());
  return bytes;
}

/// Whether flipping bit `bit` of each byte at `positions` changes the
/// checksum of `bytes`.
bool flip_detected(std::vector<std::uint8_t> bytes,
                   std::initializer_list<std::size_t> positions,
                   unsigned bit) {
  const std::uint64_t before = xxh64(bytes);
  for (const std::size_t position : positions)
    bytes[position] ^= static_cast<std::uint8_t>(1u << bit);
  return xxh64(bytes) != before;
}

TEST(Xxh64, PublishedVectors) {
  EXPECT_EQ(hash_text(""), 0xef46db3751d8e999ULL);
  EXPECT_EQ(hash_text("a"), 0xd24ec4f1a98c6e5bULL);
  EXPECT_EQ(hash_text("abc"), 0x44bc2cf5ad770999ULL);
  EXPECT_EQ(hash_text("Nobody inspects the spammish repetition"),
            0xfbcea83c8a378bf1ULL);
}

// Top-bit pairs inside one 32-byte stripe, the top bit of one lane in two
// stripes, and two tail bytes 8 apart, each on 1,000 random buffers of
// 4,116 bytes (128 stripes plus a 20-byte tail).
TEST(Xxh64, DetectsPairedFlipsInRandomBuffers) {
  Rng rng(0x5eed);
  int missed = 0;
  for (int trial = 0; trial < 1000; ++trial) {
    const std::vector<std::uint8_t> bytes = random_bytes(rng, 4116);
    missed += !flip_detected(bytes, {7, 15}, 7);
    missed += !flip_detected(bytes, {23, 31}, 7);
    missed += !flip_detected(bytes, {7, 4071}, 7);
    missed += !flip_detected(bytes, {4097, 4105}, 0);
  }
  EXPECT_EQ(missed, 0);
}

// Every same-bit flip pair 8 bytes apart in 9..31-byte buffers: 2,208
// cases, all below the 32-byte stripe size.
TEST(Xxh64, DetectsSameBitFlipsEightBytesApartInShortBuffers) {
  Rng rng(0x7a11);
  int cases = 0;
  int missed = 0;
  for (std::size_t size = 9; size <= 31; ++size) {
    const std::vector<std::uint8_t> bytes = random_bytes(rng, size);
    for (std::size_t i = 0; i + 8 < size; ++i)
      for (unsigned bit = 0; bit < 8; ++bit) {
        ++cases;
        missed += !flip_detected(bytes, {i, i + 8}, bit);
      }
  }
  EXPECT_EQ(cases, 2208);
  EXPECT_EQ(missed, 0);
}

// Lengths 1..95 cover the tail-only path, one and two stripes, and every
// tail shape: each 1-bit flip, each same-bit 2-bit flip up to 16 bytes
// apart, and an appended zero byte must change the checksum (522,335
// cases).
TEST(Xxh64, DetectsEveryShortFlipAndAppendedZero) {
  Rng rng(0xf11b);
  int cases = 0;
  int missed = 0;
  for (std::size_t size = 1; size <= 95; ++size) {
    const std::vector<std::uint8_t> bytes = random_bytes(rng, size);
    for (std::size_t i = 0; i < size; ++i)
      for (unsigned bit = 0; bit < 8; ++bit) {
        ++cases;
        missed += !flip_detected(bytes, {i}, bit);
        for (std::size_t distance = 1; distance <= 16 && i + distance < size;
             ++distance) {
          ++cases;
          missed += !flip_detected(bytes, {i, i + distance}, bit);
        }
      }
    std::vector<std::uint8_t> longer = bytes;
    longer.push_back(0);
    ++cases;
    missed += xxh64(longer) == xxh64(bytes);
  }
  EXPECT_EQ(cases, 522335);
  EXPECT_EQ(missed, 0);
}

}  // namespace
}  // namespace bgpintent::util
