// Sliding-window intent classification over a live update stream.
//
// The batch pipeline classifies one frozen tuple set; a firehose consumer
// wants the labels "as of the trailing week".  WindowClassifier keys every
// announced (path, community) observation, over one bgp::PathTable, to the
// last epoch (collector-timestamp bucket) it was seen in.  Epochs expire
// whole and in id order, so "observed in some retained epoch" is exactly
// "last-seen epoch retained": expiring an epoch deactivates the keys whose
// last-seen epoch it still is.  All classifier-facing state — per-community
// on/off unique-path counts, the ASN-on-path universe, the alpha dirty set
// — is maintained by refcounts on those activations and deactivations.
// A window of UINT32_MAX epochs never expires anything: `bgpintent serve`
// runs that non-expiring window, the paper's days-of-data sweep fed one
// observation at a time.  Reclassification runs only
// over dirty alphas (communities whose cluster counts changed, or whose
// never-on-path exclusion flipped), through core::label_alpha_counts: the
// one §5.2 rule, exclusions included, that batch core::classify() runs.
//
// The invariant the property suite enforces (tests/property/
// stream_window_test.cpp): at any point, labels() is bit-identical to a
// from-scratch ObservationIndex::build_interned + core::classify over
// window_tuples() — including across epoch expiry and at any pool size.
//
// Design decisions (docs/STREAMING.md):
//   * Withdrawals advance the window clock and are counted, but do not
//     remove observations: the paper's evidence is "this (path, community)
//     pair was observed", and observations age out of the window by time,
//     exactly like tuples age out of a batch re-ingest of the last week.
//   * Late records (timestamp behind the newest epoch) fold into the
//     newest epoch instead of resurrecting an older one, so the window
//     never moves backward and expiry stays monotone.
#pragma once

#include <cstdint>
#include <deque>
#include <set>
#include <unordered_map>
#include <vector>

#include "bgp/path_table.hpp"
#include "bgp/route.hpp"
#include "core/classifier.hpp"
#include "core/observations.hpp"
#include "topo/org_map.hpp"

namespace bgpintent::stream {

using core::Community;
using core::Intent;

struct WindowConfig {
  /// Width of one expiry bucket, in stream (collector-timestamp) seconds.
  std::uint32_t epoch_seconds = 3600;
  /// Epochs retained; 168 hourly epochs = the paper-shaped one-week window.
  std::uint32_t window_epochs = 168;
  core::ClassifierConfig classifier;
  core::ObservationConfig observation;
};

/// One label transition, emitted by reclassify_dirty().  `previous` is
/// kUnclassified for a community's first label and `current` is
/// kUnclassified when expiry (or a flipped exclusion) removed the label.
struct LabelChange {
  Community community;
  Intent previous = Intent::kUnclassified;
  Intent current = Intent::kUnclassified;
  std::uint64_t epoch = 0;  ///< window epoch at which the change surfaced

  friend bool operator==(const LabelChange&, const LabelChange&) = default;
};

/// The canonical (sorted, deduplicated) image of a WindowClassifier, for
/// checkpoints and crash-recovery equality checks.  Everything derivable
/// from the ring — refcounts, beta counters, the on-path memo — is omitted
/// and rebuilt by restore_state(); labels and the dirty set are carried
/// verbatim because they encode classification history, not evidence.
/// Two observationally identical windows export equal states regardless of
/// ingest interleaving or whether they were themselves restored.
struct WindowState {
  struct EpochState {
    std::uint64_t id = 0;
    /// The (path << 32 | community wire) keys last seen in this epoch,
    /// ascending.  Each key is paired with 1: the pair shape dates from
    /// per-epoch occurrence counts and is kept for existing readers of
    /// WindowState; no count is tracked or persisted.
    std::vector<std::pair<std::uint64_t, std::uint32_t>> tuples;

    friend bool operator==(const EpochState&, const EpochState&) = default;
  };
  struct AlphaLabels {
    std::uint16_t alpha = 0;
    /// Cached labels, ascending by beta; never empty (alphas without
    /// cached labels are fully derivable and therefore not exported).
    std::vector<std::pair<std::uint16_t, Intent>> labels;

    friend bool operator==(const AlphaLabels&, const AlphaLabels&) = default;
  };

  /// Every interned path in PathId order (ids are dense, so index == id).
  std::vector<bgp::AsPath> paths;
  std::vector<EpochState> ring;  ///< oldest epoch first
  std::vector<AlphaLabels> alphas;  ///< ascending by alpha
  std::vector<std::uint16_t> dirty;  ///< ascending

  bool started = false;
  std::uint64_t current_epoch = 0;
  std::uint32_t latest_timestamp = 0;
  std::uint64_t announces = 0;
  std::uint64_t withdraws = 0;
  std::uint64_t expired_epochs = 0;
  std::uint64_t reclassified_communities = 0;

  friend bool operator==(const WindowState&, const WindowState&) = default;
};

class WindowClassifier {
 public:
  explicit WindowClassifier(WindowConfig config = {},
                            const topo::OrgMap* orgs = nullptr)
      : config_(config), orgs_(orgs) {}

  [[nodiscard]] const WindowConfig& config() const noexcept { return config_; }

  /// Ingests one announcement observed at `timestamp`.  Advances the
  /// window (possibly expiring epochs), interns the path, and refcounts
  /// one observation per carried community into the newest epoch.
  void announce(const bgp::RibEntry& entry, std::uint32_t timestamp);

  /// Ingests one withdrawal: advances the window clock and the counters
  /// only (see the file comment for why evidence is not removed).
  void withdraw(const bgp::VantagePointId& peer, const bgp::Prefix& prefix,
                std::uint32_t timestamp);

  /// Reclassifies every dirty alpha (ascending) and returns the label
  /// transitions in (alpha, beta) order — deterministic for a given
  /// evidence state regardless of ingest interleaving.
  [[nodiscard]] std::vector<LabelChange> reclassify_dirty();

  /// Marks every observed alpha dirty, so the next reclassify_dirty()
  /// relabels the whole window — the "full reclassify per epoch" baseline
  /// bench/stream_throughput measures the dirty tracking against.
  void mark_all_dirty();

  /// Cached label; callers reclassify first (label_of never mutates).
  [[nodiscard]] Intent label_of(Community community) const noexcept;

  /// Cached per-window counters; callers reclassify first.
  struct Totals {
    std::size_t communities = 0;
    std::size_t information = 0;
    std::size_t action = 0;
    std::size_t unclassified = 0;
  };
  [[nodiscard]] Totals totals() const;

  /// All cached labels, ascending by community; callers reclassify first.
  [[nodiscard]] std::vector<std::pair<Community, Intent>> labels() const;

  // --- The window-vs-batch bridge (property tests, docs/STREAMING.md) ---

  /// Live window contents as deduplicated interned tuples, ascending by
  /// (path, community) — the exact input a from-scratch batch build over
  /// this window consumes.
  [[nodiscard]] std::vector<bgp::InternedTuple> window_tuples() const;

  /// The shared path table window_tuples() ids point into.  Append-only:
  /// expired paths keep their ids (a PathId is never reused), they just
  /// stop being referenced by live tuples.
  [[nodiscard]] const bgp::PathTable& paths() const noexcept { return paths_; }

  // --- Persistence (stream/checkpoint.hpp, docs/STREAMING.md §6) ---

  /// Canonical image of this window.  Pure; safe to call at any point.
  /// Without `with_paths`, WindowState::paths stays empty: the state image
  /// writer persists paths() as columns instead of materialized rows.
  [[nodiscard]] WindowState export_state(bool with_paths = true) const;

  /// Replaces this window's contents with `state`, rebuilding every
  /// derived structure (refcounts, beta counters) from the ring.  The
  /// path table is `state.paths` re-interned in order or, when those are
  /// empty, `paths` (a state image's columns, PathIds as exported).  The
  /// classifier must have been constructed with the same WindowConfig and
  /// OrgMap the state was exported under — neither is part of the state.
  /// Throws std::runtime_error on internally inconsistent state (a ring
  /// key naming an unknown path, or listed in two epochs).
  void restore_state(const WindowState& state, bgp::PathTable paths = {});

  // --- Introspection / counters ---

  /// False until the first announce/withdraw seeds the window clock.
  [[nodiscard]] bool started() const noexcept { return started_; }

  [[nodiscard]] std::uint64_t announces() const noexcept { return announces_; }
  [[nodiscard]] std::uint64_t withdraws() const noexcept { return withdraws_; }
  [[nodiscard]] std::uint64_t current_epoch() const noexcept {
    return current_epoch_;
  }
  [[nodiscard]] std::uint32_t latest_timestamp() const noexcept {
    return latest_timestamp_;
  }
  /// Non-empty epochs currently retained in the ring.
  [[nodiscard]] std::size_t window_epoch_count() const noexcept {
    return ring_.size();
  }
  [[nodiscard]] std::uint64_t expired_epochs() const noexcept {
    return expired_epochs_;
  }
  /// Live deduplicated (path, community) observations.
  [[nodiscard]] std::size_t live_tuple_count() const noexcept {
    return last_seen_.size();
  }
  [[nodiscard]] std::size_t dirty_alpha_count() const noexcept {
    return dirty_.size();
  }
  /// Communities whose counts were re-examined by reclassify_dirty() so
  /// far (the work-done counter the serve STATS surface reports).
  [[nodiscard]] std::uint64_t reclassified_communities() const noexcept {
    return reclassified_communities_;
  }

  /// Approximate bytes held by the window: path arenas plus every
  /// refcount/accumulator table (capacity-based, like
  /// PathTable::memory_bytes).
  [[nodiscard]] std::size_t memory_bytes() const noexcept;

 private:
  struct OnOff {
    std::uint32_t on = 0;
    std::uint32_t off = 0;
  };
  /// (beta, intent), ascending by beta.
  using Labels = std::vector<std::pair<std::uint16_t, Intent>>;
  struct AlphaCounts {
    std::unordered_map<std::uint16_t, OnOff> betas;
    Labels labels;  ///< the cached labels
  };
  struct Epoch {
    std::uint64_t id = 0;
    /// Keys whose last-seen epoch became this one, in arrival order; a key
    /// seen again later stays listed here but no longer belongs to it.
    std::vector<std::uint64_t> keys;
  };

  /// Moves the window clock to `timestamp`'s epoch, expiring old epochs.
  void advance_to(std::uint32_t timestamp);
  /// The newest epoch bucket, creating it for current_epoch_ on demand.
  [[nodiscard]] Epoch& newest_epoch();

  /// 0->1 / 1->0 transition handlers for one (path, community) key.
  void activate_tuple(std::uint64_t key);
  void deactivate_tuple(std::uint64_t key);
  /// Path liveness transitions drive the ASN-on-path universe.
  void path_became_live(bgp::PathId path);
  void path_became_dead(bgp::PathId path);
  /// An ASN entered/left the on-path universe: the alphas whose exclusion
  /// that may flip (the ASN itself and its org siblings) go dirty.
  void mark_exclusion_dirty(bgp::Asn asn);

  /// Memoized "alpha (or an org sibling) is on path" — a pure function of
  /// path content, the org map, and the sibling config, so entries stay
  /// valid across expiry.
  [[nodiscard]] bool on_path(bgp::PathId path, std::uint16_t alpha);
  [[nodiscard]] bool alpha_on_any_path(std::uint16_t alpha) const;

  /// Relabels one alpha into `counts.labels`, appending transitions.
  void relabel_alpha(std::uint16_t alpha, AlphaCounts& counts,
                     std::vector<LabelChange>& out);

  WindowConfig config_;
  const topo::OrgMap* orgs_ = nullptr;

  bgp::PathTable paths_;
  std::unordered_map<std::uint64_t, bool> on_path_memo_;

  std::deque<Epoch> ring_;
  /// Live key -> the id of the last epoch it was seen in.
  std::unordered_map<std::uint64_t, std::uint64_t> last_seen_;
  std::unordered_map<bgp::PathId, std::uint32_t> path_refs_;
  std::unordered_map<bgp::Asn, std::uint32_t> asn_refs_;
  std::unordered_map<std::uint16_t, AlphaCounts> alphas_;
  // Ordered so reclassify_dirty walks alphas ascending without a sort.
  std::set<std::uint16_t> dirty_;

  bool started_ = false;
  std::uint64_t current_epoch_ = 0;
  std::uint32_t latest_timestamp_ = 0;
  std::uint64_t announces_ = 0;
  std::uint64_t withdraws_ = 0;
  std::uint64_t expired_epochs_ = 0;
  std::uint64_t reclassified_communities_ = 0;
};

}  // namespace bgpintent::stream
