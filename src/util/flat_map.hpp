// The one flat open-addressing hash map: the serve tier's label epochs
// (serve::LabelMap) and the stream window's last-seen table
// (stream::WindowClassifier) both store their keys in it.
#pragma once

#include <algorithm>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <type_traits>
#include <utility>
#include <vector>

namespace bgpintent::util {

/// Map from an unsigned integer key to a trivially copyable value: a
/// power-of-two array of {key, value} slots probed linearly from a
/// multiplicative hash, doubled whenever an insert would push the load
/// past one half.  An erase shifts the rest of its probe run back, so no
/// tombstone ever lengthens a probe.  A slot is empty when it holds the
/// value `kEmpty`, which callers never store, so every key is valid.
/// Copying the map is one allocation and one contiguous copy.
template <typename Key, typename Value, Value kEmpty>
class FlatMap {
  static_assert(std::is_unsigned_v<Key> && sizeof(Key) <= 8);
  static_assert(std::is_trivially_copyable_v<Value>);

 public:
  /// The value stored for `key`, or nullptr when it is absent.
  [[nodiscard]] const Value* find(Key key) const noexcept {
    if (slots_.empty()) return nullptr;
    const Slot& slot = slots_[probe(key)];
    return slot.value == kEmpty ? nullptr : &slot.value;
  }

  /// Inserts key -> value unless `key` is present.  Returns the stored
  /// value (valid until the next insert or erase) and whether it was
  /// inserted.
  std::pair<Value*, bool> try_emplace(Key key, Value value) {
    if (!slots_.empty()) {
      Slot& slot = slots_[probe(key)];
      if (slot.value != kEmpty) return {&slot.value, false};
      if (2 * (size_ + 1) <= slots_.size()) {
        slot = Slot{key, value};
        ++size_;
        return {&slot.value, true};
      }
    }
    rehash(std::max(kMinSlots, 2 * slots_.size()));
    Slot& slot = slots_[probe(key)];
    slot = Slot{key, value};
    ++size_;
    return {&slot.value, true};
  }

  /// Inserts or overwrites the value of `key`.
  void insert_or_assign(Key key, Value value) {
    const auto [stored, inserted] = try_emplace(key, value);
    if (!inserted) *stored = value;
  }

  /// Erases `key` when it is present and `pred(value)` holds; returns
  /// whether it did.
  template <typename Pred>
  bool erase_if(Key key, Pred&& pred) noexcept {
    if (slots_.empty()) return false;
    std::size_t hole = probe(key);
    if (slots_[hole].value == kEmpty || !pred(slots_[hole].value))
      return false;
    // Backward shift: move each later entry of the probe run into the
    // hole unless the hole lies before its home slot, then empty the
    // last hole.
    const std::size_t mask = slots_.size() - 1;
    for (std::size_t j = (hole + 1) & mask; slots_[j].value != kEmpty;
         j = (j + 1) & mask) {
      if (((j - home(slots_[j].key)) & mask) >= ((j - hole) & mask)) {
        slots_[hole] = slots_[j];
        hole = j;
      }
    }
    slots_[hole].value = kEmpty;
    --size_;
    return true;
  }

  /// Sizes the array for `count` keys without a further doubling.
  void reserve(std::size_t count) {
    std::size_t slots = kMinSlots;
    while (slots < 2 * count) slots *= 2;
    if (slots > slots_.size()) rehash(slots);
  }

  void clear() noexcept {
    std::fill(slots_.begin(), slots_.end(), Slot{});
    size_ = 0;
  }

  /// Calls `fn(key, value)` for every stored key, in slot order.
  template <typename Fn>
  void for_each(Fn&& fn) const {
    for (const Slot& slot : slots_)
      if (slot.value != kEmpty) fn(slot.key, slot.value);
  }

  [[nodiscard]] std::size_t size() const noexcept { return size_; }
  [[nodiscard]] std::size_t memory_bytes() const noexcept {
    return slots_.capacity() * sizeof(Slot);
  }

 private:
  static constexpr std::size_t kMinSlots = 16;
  struct Slot {
    Key key{};
    Value value = kEmpty;
  };

  [[nodiscard]] std::size_t home(Key key) const noexcept {
    return static_cast<std::size_t>(
        (static_cast<std::uint64_t>(key) * 0x9E3779B97F4A7C15ULL) >> shift_);
  }

  /// The index of the slot holding `key`, or of the empty slot that ends
  /// its probe run.  Requires a non-empty array.
  [[nodiscard]] std::size_t probe(Key key) const noexcept {
    const std::size_t mask = slots_.size() - 1;
    std::size_t i = home(key);
    while (slots_[i].value != kEmpty && slots_[i].key != key)
      i = (i + 1) & mask;
    return i;
  }

  void rehash(std::size_t slots) {
    std::vector<Slot> old(slots, Slot{});
    old.swap(slots_);
    shift_ = 64 - static_cast<unsigned>(std::countr_zero(slots));
    for (const Slot& slot : old)
      if (slot.value != kEmpty) slots_[probe(slot.key)] = slot;
  }

  std::vector<Slot> slots_;
  std::size_t size_ = 0;
  unsigned shift_ = 64;  ///< 64 - log2(slots_.size())
};

}  // namespace bgpintent::util
