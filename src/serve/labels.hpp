// RCU-style label snapshots for the serve tier's lock-free query path.
//
// The seed daemon took the classifier mutex on every LABEL query, so warm
// reads serialized behind INGEST reclassification.  Here the server keeps
// an immutable LabelTable per epoch: each shard reads through a cached
// reference that it refreshes only after a publish, so a warm read is one
// atomic load plus one probe of a flat array — no lock, no shared
// refcount traffic — and a dropped epoch is reclaimed by the last reader
// that holds it (classic RCU grace period, for free).  Writers hand
// LabelView::publish_changes() the labels they settled; it drops every
// pair the current epoch already answers the same way, and only when
// something is left (or the stream sequence advanced) copies the table —
// one contiguous copy — applies the rest and publishes it with one
// pointer swap.  A reader therefore sees either the old or the new epoch
// in full, never a torn mix; tests/serve/server_test.cpp and
// tests/serve/labels_test.cpp pin this under TSan.
#pragma once

#include <algorithm>
#include <atomic>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <span>
#include <utility>
#include <vector>

#include "bgp/community.hpp"
#include "dict/intent.hpp"

namespace bgpintent::serve {

/// Flat open-addressing map from a community's 32-bit wire form to its
/// intent: a power-of-two array of 8-byte slots probed linearly from a
/// multiplicative hash, doubled whenever an insert would push the load
/// past one half.  Copying it is one allocation and one contiguous copy.
/// An empty slot is marked by an out-of-range intent byte, so every wire
/// — 0:0 included — is a valid key.  There is no erase: a label that
/// falls back to unclassified is stored as kUnclassified.
class LabelMap {
 public:
  /// The intent stored for `wire`; kUnclassified when absent.
  [[nodiscard]] dict::Intent find(std::uint32_t wire) const noexcept {
    if (slots_.empty()) return dict::Intent::kUnclassified;
    const std::size_t mask = slots_.size() - 1;
    for (std::size_t i = home(wire);; i = (i + 1) & mask) {
      const Slot& slot = slots_[i];
      if (slot.intent == kEmpty) return dict::Intent::kUnclassified;
      if (slot.wire == wire) return slot.intent;
    }
  }

  /// Inserts or overwrites the intent of `wire`.
  void assign(std::uint32_t wire, dict::Intent intent) {
    if (!slots_.empty()) {
      Slot& slot = probe(wire);
      if (slot.intent != kEmpty) {
        slot.intent = intent;
        return;
      }
      if (2 * (size_ + 1) <= slots_.size()) {
        slot = Slot{wire, intent};
        ++size_;
        return;
      }
    }
    rehash(std::max(kMinSlots, 2 * slots_.size()));
    probe(wire) = Slot{wire, intent};
    ++size_;
  }

  /// Sizes the array for `count` keys without a further doubling.
  void reserve(std::size_t count) {
    std::size_t slots = kMinSlots;
    while (slots < 2 * count) slots *= 2;
    if (slots > slots_.size()) rehash(slots);
  }

  /// Calls `fn(wire, intent)` for every stored key, in slot order.
  template <typename Fn>
  void for_each(Fn&& fn) const {
    for (const Slot& slot : slots_)
      if (slot.intent != kEmpty) fn(slot.wire, slot.intent);
  }

  [[nodiscard]] std::size_t size() const noexcept { return size_; }

 private:
  static constexpr auto kEmpty = static_cast<dict::Intent>(0xFF);
  static constexpr std::size_t kMinSlots = 16;
  struct Slot {
    std::uint32_t wire = 0;
    dict::Intent intent = kEmpty;
  };
  static_assert(sizeof(Slot) == 8);

  [[nodiscard]] std::size_t home(std::uint32_t wire) const noexcept {
    return static_cast<std::size_t>(
        (static_cast<std::uint64_t>(wire) * 0x9E3779B97F4A7C15ULL) >> shift_);
  }

  /// The slot holding `wire`, or the empty slot that ends its probe run.
  [[nodiscard]] Slot& probe(std::uint32_t wire) noexcept {
    const std::size_t mask = slots_.size() - 1;
    std::size_t i = home(wire);
    while (slots_[i].intent != kEmpty && slots_[i].wire != wire)
      i = (i + 1) & mask;
    return slots_[i];
  }

  void rehash(std::size_t slots) {
    std::vector<Slot> old(slots, Slot{});
    old.swap(slots_);
    shift_ = 64 - static_cast<unsigned>(std::countr_zero(slots));
    for (const Slot& slot : old)
      if (slot.intent != kEmpty) probe(slot.wire) = slot;
  }

  std::vector<Slot> slots_;
  std::size_t size_ = 0;
  unsigned shift_ = 64;  ///< 64 - log2(slots_.size())
};

/// One immutable epoch of the community -> intent map, keyed by the
/// community's 32-bit wire form.  Absence means kUnclassified (the
/// classifier returns kUnclassified for unknown communities too, so a
/// miss in the snapshot is exact, not approximate).
///
/// Two storage shapes share this struct.  The common one is the owned
/// flat map.  The zero-copy one — the initial epoch of a server started
/// with --snapshot-mmap — is a pair of sorted parallel columns borrowed
/// straight from a mapped snapshot (serve::MappedSnapshot), with
/// `backing` pinning the mapping; `labels` is empty then and lookups
/// binary-search the columns, so the first query after restart touches
/// only the pages it needs.
struct LabelTable {
  LabelMap labels;
  /// Columnar backing: sorted community wires and their intents, one slot
  /// per known community.  Only read when `backing` is set.
  std::span<const std::uint32_t> wires;
  std::span<const dict::Intent> intents;
  std::shared_ptr<const void> backing;
  /// Epochs published so far, exported via STATS as label_epochs: one per
  /// publish that changed a label or advanced `as_of_seq`.
  std::uint64_t version = 0;
  /// Stream mode: last StreamEngine sequence folded into this table.
  /// Shards compare against StreamEngine::published_seq() to detect a
  /// stale snapshot without taking the engine mutex.
  std::uint64_t as_of_seq = 0;
};

/// Looks up one community in an epoch; miss == kUnclassified.
[[nodiscard]] inline dict::Intent lookup(const LabelTable& table,
                                         bgp::Community community) noexcept {
  if (table.backing != nullptr) {
    const auto it = std::lower_bound(table.wires.begin(), table.wires.end(),
                                     community.wire());
    return it == table.wires.end() || *it != community.wire()
               ? dict::Intent::kUnclassified
               : table.intents[static_cast<std::size_t>(
                     it - table.wires.begin())];
  }
  return table.labels.find(community.wire());
}

/// The publication point.  All shards share one LabelView; each shard
/// reads through its own Reader, a cached reference to the epoch it last
/// saw.  A publish swaps the current epoch under `mutex_` and bumps
/// `generation_`; a reader whose cached generation still matches answers
/// from its cache after one atomic load — no lock, no shared refcount
/// traffic — and takes the lock only to pick up a newer epoch.  Not
/// std::atomic<std::shared_ptr>: libstdc++ 12's load() releases its
/// internal lock with a relaxed store, which ThreadSanitizer reports as a
/// race against the next publish.
class LabelView {
 public:
  using Change = std::pair<bgp::Community, dict::Intent>;

  /// One reader's cached epoch; owned and used by exactly one thread.
  struct Reader {
    std::shared_ptr<const LabelTable> epoch;
    std::uint64_t generation = 0;
  };

  LabelView() : current_(std::make_shared<const LabelTable>()) {}

  /// Reader fast path: the current epoch, through `reader`'s cache.  The
  /// reference stays valid until the next read() with the same reader.
  [[nodiscard]] const LabelTable& read(Reader& reader) const {
    const std::uint64_t generation =
        generation_.load(std::memory_order_acquire);
    if (reader.generation != generation) {
      const std::lock_guard<std::mutex> lock(mutex_);
      reader.epoch = current_;
      reader.generation = generation_.load(std::memory_order_relaxed);
    }
    return *reader.epoch;
  }

  /// The current epoch, under the publication lock (writers, STATS).
  [[nodiscard]] std::shared_ptr<const LabelTable> load() const {
    const std::lock_guard<std::mutex> lock(mutex_);
    return current_;
  }

  /// Installs a whole epoch: the server's first, or the one
  /// publish_changes() built.
  void publish(std::shared_ptr<const LabelTable> next) {
    {
      const std::lock_guard<std::mutex> lock(mutex_);
      current_.swap(next);
      generation_.fetch_add(1, std::memory_order_release);
    }
    // `next` now holds the replaced epoch; when it was the last reference
    // the table is freed here, outside the lock.
  }

  /// The one epoch writer: publishes the epoch that answers like the
  /// current one except for `changes` (a later pair for the same
  /// community wins), stamped `as_of_seq`.  When the current epoch
  /// already answers every pair the same way and `as_of_seq` did not
  /// advance, nothing is published.  Otherwise the table is copied (a
  /// columnar epoch is materialized — the first change pays the decode
  /// the mmap restart skipped, and the new epoch no longer pins the
  /// mapping), the differing pairs are applied and the version bumped.
  /// Returns whether an epoch was published.  The caller serializes
  /// writers (the server's classifier/refresh mutex).
  bool publish_changes(std::span<const Change> changes,
                       std::uint64_t as_of_seq) {
    const auto cur = load();
    const bool changed =
        std::any_of(changes.begin(), changes.end(), [&](const Change& c) {
          return lookup(*cur, c.first) != c.second;
        });
    if (!changed && as_of_seq <= cur->as_of_seq) return false;
    auto next = std::make_shared<LabelTable>();
    if (cur->backing != nullptr) {
      next->labels.reserve(cur->wires.size());
      for (std::size_t i = 0; i < cur->wires.size(); ++i)
        next->labels.assign(cur->wires[i], cur->intents[i]);
    } else {
      next->labels = cur->labels;
    }
    // Compared against the table being built, not `cur`: a pair that
    // restores the current answer after an earlier pair changed it must
    // still apply, and one that matches stays out of the table.
    for (const auto& [community, intent] : changes)
      if (next->labels.find(community.wire()) != intent)
        next->labels.assign(community.wire(), intent);
    next->version = cur->version + 1;
    next->as_of_seq = std::max(as_of_seq, cur->as_of_seq);
    publish(std::move(next));
    return true;
  }

 private:
  mutable std::mutex mutex_;
  std::shared_ptr<const LabelTable> current_;  ///< guarded by mutex_
  /// Publishes so far; starts above a fresh Reader's 0 so its first read
  /// fills the cache.
  std::atomic<std::uint64_t> generation_{1};
};

}  // namespace bgpintent::serve
