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
#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <span>
#include <utility>
#include <vector>

#include "bgp/community.hpp"
#include "dict/intent.hpp"
#include "util/flat_map.hpp"

namespace bgpintent::serve {

/// Map from a community's 32-bit wire form to its intent: a
/// util::FlatMap whose empty slots hold an out-of-range intent byte, so
/// every wire — 0:0 included — is a valid key.  There is no erase: a
/// label that falls back to unclassified is stored as kUnclassified.
class LabelMap {
 public:
  /// The intent stored for `wire`; kUnclassified when absent.
  [[nodiscard]] dict::Intent find(std::uint32_t wire) const noexcept {
    const dict::Intent* intent = map_.find(wire);
    return intent == nullptr ? dict::Intent::kUnclassified : *intent;
  }

  /// Inserts or overwrites the intent of `wire`.
  void assign(std::uint32_t wire, dict::Intent intent) {
    map_.insert_or_assign(wire, intent);
  }

  /// Sizes the array for `count` keys without a further doubling.
  void reserve(std::size_t count) { map_.reserve(count); }

  /// Calls `fn(wire, intent)` for every stored key, in slot order.
  template <typename Fn>
  void for_each(Fn&& fn) const {
    map_.for_each(fn);
  }

  [[nodiscard]] std::size_t size() const noexcept { return map_.size(); }

 private:
  util::FlatMap<std::uint32_t, dict::Intent, static_cast<dict::Intent>(0xFF)>
      map_;
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
  /// Last StreamEngine sequence folded into this table.  Shards compare
  /// against StreamEngine::published_seq() to detect a stale snapshot
  /// without taking the engine mutex.
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
  /// writers (the server's refresh mutex).
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
