// RCU-style label snapshots for the serve tier's lock-free query path.
//
// The seed daemon took the classifier mutex on every LABEL query, so warm
// reads serialized behind INGEST reclassification.  Here the server keeps
// an immutable LabelTable behind an atomic shared_ptr: readers load the
// pointer (acquire) and do a plain hash lookup — no lock, no refcount
// contention beyond the shared_ptr's, and a dropped epoch is reclaimed by
// the last reader that holds it (classic RCU grace period, for free).
// Writers build the next epoch off to the side — copy-on-write from the
// current table plus the settled deltas — and publish with one pointer
// swap (release).  A reader therefore sees either the old or the new
// epoch in full, never a torn mix; tests/serve/server_test.cpp pins this
// under TSan.
#pragma once

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <memory>
#include <span>
#include <unordered_map>
#include <utility>

#include "bgp/community.hpp"
#include "dict/intent.hpp"

namespace bgpintent::serve {

/// One immutable epoch of the community -> intent map, keyed by the
/// community's 32-bit wire form.  Absence means kUnclassified (the
/// classifier returns kUnclassified for unknown communities too, so a
/// miss in the snapshot is exact, not approximate).
///
/// Two storage shapes share this struct.  The common one is the owned
/// hash map.  The zero-copy one — the initial epoch of a server started
/// with --snapshot-mmap — is a pair of sorted parallel columns borrowed
/// straight from a mapped snapshot (serve::MappedSnapshot), with
/// `backing` pinning the mapping; `labels` is empty then and lookups
/// binary-search the columns, so the first query after restart touches
/// only the pages it needs.
struct LabelTable {
  std::unordered_map<std::uint32_t, dict::Intent> labels;
  /// Columnar backing: sorted community wires and their intents, one slot
  /// per known community.  Only read when `backing` is set.
  std::span<const std::uint32_t> wires;
  std::span<const dict::Intent> intents;
  std::shared_ptr<const void> backing;
  /// Monotonic epoch counter; exported via STATS as label_epochs.
  std::uint64_t version = 0;
  /// Stream mode: last StreamEngine sequence folded into this table.
  /// Shards compare against StreamEngine::published_seq() to detect a
  /// stale snapshot without taking the engine mutex.
  std::uint64_t as_of_seq = 0;
};

/// The atomic publication point.  All shards share one LabelView.
class LabelView {
 public:
  LabelView() : current_(std::make_shared<const LabelTable>()) {}

  /// Lock-free reader fast path.
  [[nodiscard]] std::shared_ptr<const LabelTable> load() const noexcept {
    return current_.load(std::memory_order_acquire);
  }

  /// Publishes the next epoch.  The caller must already hold whatever
  /// writer-side ordering it needs (the server's classifier/refresh
  /// mutex); LabelView itself only guarantees the swap is atomic.
  void publish(std::shared_ptr<const LabelTable> next) noexcept {
    current_.store(std::move(next), std::memory_order_release);
  }

  /// Convenience for writers: copy-on-write clone of the current epoch
  /// with the version already bumped.  A columnar epoch is materialized
  /// into the hash map here — the first INGEST pays the decode the mmap
  /// restart skipped, and the new epoch no longer pins the mapping.
  [[nodiscard]] std::shared_ptr<LabelTable> clone_for_update() const {
    auto cur = load();
    auto next = std::make_shared<LabelTable>();
    next->version = cur->version + 1;
    next->as_of_seq = cur->as_of_seq;
    if (cur->backing != nullptr) {
      next->labels.reserve(cur->wires.size());
      for (std::size_t i = 0; i < cur->wires.size(); ++i)
        next->labels.emplace(cur->wires[i], cur->intents[i]);
    } else {
      next->labels = cur->labels;
    }
    return next;
  }

 private:
  std::atomic<std::shared_ptr<const LabelTable>> current_;
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
  const auto it = table.labels.find(community.wire());
  return it == table.labels.end() ? dict::Intent::kUnclassified : it->second;
}

}  // namespace bgpintent::serve
