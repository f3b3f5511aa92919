// util::FlatMap, the flat open-addressing map under the serve tier's label
// epochs and the stream window's last-seen table: inserts, overwrites and
// backward-shift erases against a std::unordered_map oracle, on key sets
// small enough to wrap the probe array and collide often.
#include "util/flat_map.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <unordered_map>

#include "util/rng.hpp"

namespace bgpintent::util {
namespace {

using Map = FlatMap<std::uint64_t, std::uint64_t, ~std::uint64_t{0}>;

void expect_matches(const Map& map,
                    const std::unordered_map<std::uint64_t, std::uint64_t>&
                        oracle,
                    std::uint64_t key_space) {
  ASSERT_EQ(map.size(), oracle.size());
  for (std::uint64_t key = 0; key < key_space; ++key) {
    const std::uint64_t* value = map.find(key);
    const auto it = oracle.find(key);
    if (it == oracle.end()) {
      EXPECT_EQ(value, nullptr) << key;
    } else {
      ASSERT_NE(value, nullptr) << key;
      EXPECT_EQ(*value, it->second) << key;
    }
  }
  std::size_t visited = 0;
  map.for_each([&](std::uint64_t key, std::uint64_t value) {
    ++visited;
    EXPECT_EQ(oracle.at(key), value);
  });
  EXPECT_EQ(visited, oracle.size());
}

TEST(FlatMap, RandomInsertsOverwritesAndErasesMatchOracle) {
  for (const std::uint64_t key_space : {7u, 64u, 1000u}) {
    Rng rng(key_space);
    Map map;
    std::unordered_map<std::uint64_t, std::uint64_t> oracle;
    for (int step = 0; step < 20000; ++step) {
      const std::uint64_t key = rng.uniform(0, key_space - 1);
      const std::uint64_t value = rng.uniform(0, 9);
      switch (rng.index(3)) {
        case 0: {
          const auto [stored, inserted] = map.try_emplace(key, value);
          const auto [it, fresh] = oracle.try_emplace(key, value);
          EXPECT_EQ(inserted, fresh);
          EXPECT_EQ(*stored, it->second);
          break;
        }
        case 1:
          map.insert_or_assign(key, value);
          oracle[key] = value;
          break;
        default: {
          // Erases only a matching value, as window expiry erases a key
          // only while its last-seen epoch is the expiring one.
          const auto it = oracle.find(key);
          const bool expected = it != oracle.end() && it->second == value;
          EXPECT_EQ(map.erase_if(key, [&](std::uint64_t stored) {
                      return stored == value;
                    }),
                    expected);
          if (expected) oracle.erase(it);
          break;
        }
      }
      if (step % 997 == 0) expect_matches(map, oracle, key_space);
    }
    expect_matches(map, oracle, key_space);
  }
}

TEST(FlatMap, ClearAndReserveKeepEveryKeyFindable) {
  Map map;
  map.reserve(100);
  const std::size_t bytes = map.memory_bytes();
  for (std::uint64_t key = 0; key < 100; ++key)
    EXPECT_TRUE(map.try_emplace(key << 32, key).second);
  EXPECT_EQ(map.memory_bytes(), bytes);  // no doubling within the reserve
  for (std::uint64_t key = 0; key < 100; ++key)
    ASSERT_NE(map.find(key << 32), nullptr);
  map.clear();
  EXPECT_EQ(map.size(), 0u);
  EXPECT_EQ(map.find(0), nullptr);
  EXPECT_TRUE(map.try_emplace(0, 1).second);
}

}  // namespace
}  // namespace bgpintent::util
