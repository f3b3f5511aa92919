// Incremental (streaming) intent classification.
//
// The batch Pipeline recomputes everything from a full tuple set; a
// consumer of live BGP update feeds wants to *ingest* entries as they
// arrive and ask for labels cheaply.  IncrementalClassifier keeps the
// per-community path accumulators across calls and reclassifies only the
// owner ASes whose evidence changed since the last result() call —
// including alphas whose never-on-path exclusion may have been lifted by a
// newly observed AS path.
//
// Ingest interns every AS path into a bgp::PathTable: a path repeated by
// later updates (the common case in a live feed) is hashed and scanned for
// its distinct ASNs only the first time, and on-path membership — with the
// org-sibling expansion — is memoized per (path, alpha), so a route
// carrying many betas of one alpha resolves it once.  The interning is an
// internal representation only: exported State and the serve snapshot
// format still speak sorted path hashes and are byte-identical to the
// pre-interning implementation.
#pragma once

#include <cstdint>
#include <memory>
#include <unordered_map>
#include <unordered_set>
#include <utility>
#include <vector>

#include "bgp/path_table.hpp"
#include "core/classifier.hpp"
#include "core/observations.hpp"
#include "mrt/decode.hpp"

namespace bgpintent::mrt {
class ByteSource;
}

namespace bgpintent::core {

class StateView;

class IncrementalClassifier {
 public:
  explicit IncrementalClassifier(ClassifierConfig config = {},
                                 ObservationConfig observation = {})
      : config_(config), observation_(observation) {}

  [[nodiscard]] const ClassifierConfig& classifier_config() const noexcept {
    return config_;
  }
  [[nodiscard]] const ObservationConfig& observation_config() const noexcept {
    return observation_;
  }

  /// Optional sibling context; must outlive the classifier.  Swapping the
  /// map invalidates the memoized per-(path, alpha) on-path answers, so
  /// set it before ingesting (changing it mid-stream is legal but drops
  /// the memo).
  void set_org_map(const topo::OrgMap* orgs) noexcept {
    if (orgs != orgs_) on_path_memo_.clear();
    orgs_ = orgs;
  }

  /// Ingests one RIB entry / update announcement.
  void ingest(const bgp::RibEntry& entry);
  void ingest(std::span<const bgp::RibEntry> entries);

  /// Streams one MRT source straight into the accumulators: every decoded
  /// row is ingested off the shared scratch without materializing a
  /// RibEntry batch, and the decode outcome is folded into the decode
  /// counters (record_decode_outcome) — including on throw, so rows
  /// ingested before a budget trip keep their provenance.  When `report`
  /// is non-null it receives the source's own DecodeReport (also on
  /// throw, like mrt::decode_rib_stream).
  void ingest_mrt(const mrt::ByteSource& source,
                  const mrt::DecodeOptions& options = {},
                  mrt::DecodeReport* report = nullptr);

  /// Current label of a community; reclassifies the owner lazily.
  [[nodiscard]] Intent label_of(Community community);

  /// Reclassifies every dirty alpha and returns the global counters.
  struct Totals {
    std::size_t communities = 0;
    std::size_t information = 0;
    std::size_t action = 0;
    std::size_t unclassified = 0;
  };
  [[nodiscard]] Totals totals();

  /// Returns the cached label of every known (community, intent) pair —
  /// including kUnclassified for betas with evidence but no settled label
  /// — so a caller can build a complete lookup table whose misses exactly
  /// mean "classifier would say unclassified".  Does NOT reclassify:
  /// dirty alphas report their stale cached labels, and export_state()
  /// afterwards is byte-identical to before.  Feeds the serve tier's
  /// initial RCU snapshot; pair with settle_dirty to fold in the rest.
  [[nodiscard]] std::vector<std::pair<Community, Intent>> label_snapshot()
      const;

  /// Reclassifies only the currently dirty alphas and appends the settled
  /// labels of *their* betas to `out` (same completeness contract as
  /// label_snapshot, restricted to dirty alphas).  The serve tier applies
  /// these as a delta onto a copy-on-write label epoch after INGEST.
  void settle_dirty(std::vector<std::pair<Community, Intent>>& out);

  [[nodiscard]] std::size_t entries_ingested() const noexcept {
    return entries_ingested_;
  }
  [[nodiscard]] std::size_t dirty_alpha_count() const noexcept {
    return dirty_.size();
  }

  /// Accumulates the decode outcome of one ingest batch (records that
  /// decoded cleanly vs. records skipped by a tolerant MRT decode).  The
  /// classifier itself never decodes MRT; callers that do (serve, CLI)
  /// fold their DecodeReport counts in here so the counters survive in
  /// snapshots alongside the evidence they describe.
  void record_decode_outcome(std::uint64_t records_ok,
                             std::uint64_t records_skipped) noexcept {
    decode_records_ok_ += records_ok;
    decode_records_skipped_ += records_skipped;
  }
  [[nodiscard]] std::uint64_t decode_records_ok() const noexcept {
    return decode_records_ok_;
  }
  [[nodiscard]] std::uint64_t decode_records_skipped() const noexcept {
    return decode_records_skipped_;
  }

  /// Flattened view of the complete mutable state — every accumulator, the
  /// cached labels, the dirty set, and the ingest counter.  All vectors are
  /// sorted, so two classifiers with equal evidence export equal states
  /// regardless of ingest order; serve/snapshot.* persists exactly this.
  struct State {
    struct BetaEvidence {
      std::uint16_t beta = 0;
      std::vector<std::uint64_t> on_paths;   ///< sorted path hashes
      std::vector<std::uint64_t> off_paths;  ///< sorted path hashes
      friend bool operator==(const BetaEvidence&,
                             const BetaEvidence&) = default;
    };
    struct Alpha {
      std::uint16_t alpha = 0;
      std::vector<BetaEvidence> betas;  ///< sorted by beta
      /// Cached labels from the last reclassification, sorted by beta;
      /// betas without a cached label are simply absent.
      std::vector<std::pair<std::uint16_t, Intent>> labels;
      friend bool operator==(const Alpha&, const Alpha&) = default;
    };
    std::vector<Alpha> alphas;            ///< sorted by alpha
    std::vector<bgp::Asn> asns_on_paths;  ///< sorted
    std::vector<std::uint16_t> dirty;     ///< sorted
    std::size_t entries_ingested = 0;
    std::uint64_t decode_records_ok = 0;
    std::uint64_t decode_records_skipped = 0;
    friend bool operator==(const State&, const State&) = default;
  };

  /// Exports the current state without reclassifying (dirty stays dirty).
  [[nodiscard]] State export_state() const;

  /// Replaces all accumulated evidence with `state`.  Configs and the org
  /// map are not part of the state — construct with the right configs and
  /// re-attach the org map before restoring.
  void restore_state(const State& state);

  /// restore_state plus an imported interned-path table (PathIds
  /// preserved).  The snapshot decoder uses this so a restored
  /// classifier skips re-interning the live feed's repeat paths; with an
  /// empty table behaviour is identical to restore_state(state) alone.
  void restore_state(const State& state, bgp::PathTable paths);

  // --- borrowed columnar state (serve snapshot, core/state_view.hpp) ---
  //
  // restore_view() replaces all owned evidence with a borrowed view: the
  // read-side API (label_of / totals / label_snapshot / settle_dirty /
  // export_state) answers straight off the view's columns, with lazily
  // reclassified alphas kept in a small per-alpha label overlay.  The
  // first ingest() copies the view (plus overlay) into owned state and
  // drops the borrow — copy-on-first-INGEST — after which behaviour is
  // indistinguishable from restore_state() of the same evidence.

  /// Borrow `view` as the complete classifier state.  Clears all owned
  /// evidence; the view's dirty column seeds the dirty set.  Configs and
  /// the org map are (as with restore_state) the caller's job and must
  /// match the ones the snapshot was written under.
  void restore_view(std::shared_ptr<const StateView> view);

  /// True while state is borrowed from a view (no ingest has detached it).
  [[nodiscard]] bool is_borrowed() const noexcept { return view_ != nullptr; }

  /// The borrowed view (shared so callers can pin the backing mapping
  /// beyond a later detach), or nullptr when state is owned.
  [[nodiscard]] std::shared_ptr<const StateView> view() const noexcept {
    return view_;
  }

  /// The interned-path storage decomposed into flat columns (the
  /// snapshot writer persists exactly this).  When borrowed, the arena
  /// spans alias the view's backing bytes; otherwise they alias the live
  /// owned table, valid until the next ingest.
  [[nodiscard]] bgp::PathTable::ExportedColumns path_columns() const;

 private:
  struct CommunityAccumulator {
    std::unordered_set<std::uint64_t> on_paths;
    std::unordered_set<std::uint64_t> off_paths;
  };
  struct AlphaState {
    // beta -> accumulator (kept sorted only at classification time)
    std::unordered_map<std::uint16_t, CommunityAccumulator> betas;
    std::unordered_map<std::uint16_t, Intent> labels;
  };

  /// True when `alpha` (or a sibling) has been seen in any path.
  [[nodiscard]] bool alpha_on_any_path(std::uint16_t alpha) const;

  void reclassify(std::uint16_t alpha, AlphaState& state);
  void reclassify_dirty();

  /// Copies the borrowed view (plus the label overlay) into owned state
  /// and drops the borrow.  Called by the first ingest after
  /// restore_view.
  void detach();
  /// Reclassifies one borrowed alpha from column begin-diffs into the
  /// overlay (counts only — no hash sets are materialized).
  void reclassify_view(std::uint16_t alpha);
  /// Cached label of a borrowed (alpha, beta): overlay first, then the
  /// view's label columns; absent means kUnclassified.
  [[nodiscard]] Intent view_label(std::size_t alpha_slot, std::uint16_t alpha,
                                  std::uint16_t beta) const;

  ClassifierConfig config_;
  ObservationConfig observation_;
  const topo::OrgMap* orgs_ = nullptr;

  std::unordered_map<std::uint16_t, AlphaState> alphas_;
  // Borrowed state: when view_ is set, alphas_/asns_on_paths_/paths_ are
  // empty and every read answers from the view's columns.  view_labels_
  // overlays the view's (immutable) cached-label columns with the labels
  // of alphas reclassified since the snapshot was taken; a present entry
  // replaces the alpha's whole label set (possibly with an empty vector —
  // "settled, no labels"), each vector sorted by beta.
  std::shared_ptr<const StateView> view_;
  std::unordered_map<std::uint16_t, std::vector<std::pair<std::uint16_t, Intent>>>
      view_labels_;
  // Interned unique paths + per-(path, alpha) on-path memo.  Not part of
  // the exported State: the table regrows from the live feed, and the memo
  // is a pure function of path content, the org map, and the config.
  bgp::PathTable paths_;
  std::unordered_map<std::uint64_t, bool> on_path_memo_;
  std::unordered_set<bgp::Asn> asns_on_paths_;
  std::unordered_set<std::uint16_t> dirty_;
  std::size_t entries_ingested_ = 0;
  std::uint64_t decode_records_ok_ = 0;
  std::uint64_t decode_records_skipped_ = 0;
};

}  // namespace bgpintent::core
