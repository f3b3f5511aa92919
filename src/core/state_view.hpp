// Borrowed columnar classifier state (the serve snapshot image).
//
// IncrementalClassifier::State is the *owned* flattened form of the
// classifier: vectors of vectors, rebuilt into hash maps on restore.  A
// StateView is the same information as flat primitive columns borrowed
// from somewhere else — in practice an mmap'd snapshot
// (serve::MappedSnapshot) — plus a keep-alive handle that pins the
// backing bytes.  The classifier can serve LABEL/TOTALS directly off a
// view with zero decode work and detaches (copies into owned state) only
// on the first INGEST; see IncrementalClassifier::restore_view.
//
// Column model (all index columns sorted ascending, validated by the
// producer before a view is handed out):
//
//   alpha_ids[a]                         owner AS of alpha slot a
//   alpha_beta_begin[a]..[a+1]           slot range in the beta columns
//   alpha_label_begin[a]..[a+1]          slot range in the label columns
//   beta_ids[b]                          beta value of beta slot b
//   beta_on_begin[b]..[b+1]              range in on_path_hashes
//   beta_off_begin[b]..[b+1]             range in off_path_hashes
//   label_betas[l] / label_intents[l]    cached labels per alpha
//   asns_on_paths / dirty                the classifier's two sets
//   serve_wires / serve_intents          label_snapshot() pre-flattened:
//                                        (alpha<<16|beta) sorted, one slot
//                                        per evidence beta, kUnclassified
//                                        where no label is cached
//   paths                                PathTable arenas (ids preserved)
//
// The `begin` columns have one more entry than their id column
// (begin[0] == 0, back() == total), so per-slot counts are begin-diffs
// and no count column is stored.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <span>

#include "bgp/path_table.hpp"
#include "core/incremental.hpp"

namespace bgpintent::core {

/// All columns of one snapshot, as borrowed spans.  Plain data; copyable.
struct StateColumns {
  std::uint64_t entries_ingested = 0;
  std::uint64_t decode_records_ok = 0;
  std::uint64_t decode_records_skipped = 0;

  std::span<const bgp::Asn> asns_on_paths;
  std::span<const std::uint16_t> dirty;

  std::span<const std::uint16_t> alpha_ids;
  std::span<const std::uint32_t> alpha_beta_begin;   ///< alpha_ids.size()+1
  std::span<const std::uint32_t> alpha_label_begin;  ///< alpha_ids.size()+1

  std::span<const std::uint16_t> beta_ids;
  std::span<const std::uint64_t> beta_on_begin;   ///< beta_ids.size()+1
  std::span<const std::uint64_t> beta_off_begin;  ///< beta_ids.size()+1
  std::span<const std::uint64_t> on_path_hashes;
  std::span<const std::uint64_t> off_path_hashes;

  std::span<const std::uint16_t> label_betas;
  std::span<const Intent> label_intents;

  std::span<const std::uint32_t> serve_wires;
  std::span<const Intent> serve_intents;

  bgp::PathTable::ImportColumns paths;
};

/// Columns plus the ownership handle that keeps them mapped.  Held by
/// shared_ptr everywhere (classifier, serve epochs) so the mapping lives
/// exactly as long as any reader of it.
class StateView {
 public:
  StateView(StateColumns columns, std::shared_ptr<const void> keep_alive)
      : columns_(columns), keep_alive_(std::move(keep_alive)) {}

  [[nodiscard]] const StateColumns& columns() const noexcept {
    return columns_;
  }

  /// Slot of `alpha` in the alpha columns (binary search); nullopt when
  /// the snapshot holds no evidence for it.
  [[nodiscard]] std::optional<std::size_t> find_alpha(
      std::uint16_t alpha) const noexcept;

  /// Cached label of (alpha slot, beta); nullopt when no label is cached
  /// (the caller maps that to kUnclassified, like the owned labels map).
  [[nodiscard]] std::optional<Intent> cached_label(
      std::size_t alpha_slot, std::uint16_t beta) const noexcept;

  /// Rebuilds the owned State this view was written from.  Sorted-vector
  /// invariants hold by construction (the columns are stored sorted), so
  /// the result compares equal to the exporting classifier's
  /// export_state().
  [[nodiscard]] IncrementalClassifier::State materialize() const;

  /// Rebuilds an owned PathTable from the path columns; PathIds preserved.
  [[nodiscard]] bgp::PathTable materialize_paths() const;

 private:
  StateColumns columns_;
  std::shared_ptr<const void> keep_alive_;
};

}  // namespace bgpintent::core
