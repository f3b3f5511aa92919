#include "core/incremental.hpp"

#include <algorithm>

#include "core/labeling.hpp"
#include "core/state_view.hpp"
#include "mrt/mrt_file.hpp"

namespace bgpintent::core {

void IncrementalClassifier::ingest(const bgp::RibEntry& entry) {
  if (view_) detach();
  ++entries_ingested_;
  const std::size_t paths_before = paths_.size();
  const bgp::PathId path_id = paths_.intern(entry.route.path);
  const std::uint64_t path_hash = paths_.hash(path_id);

  // New ASNs on paths can lift the never-on-path exclusion of the alphas
  // equal to them (and, with sibling matching, their org siblings).  A
  // re-interned path cannot introduce new ASNs, so the scan is skipped
  // entirely for the repeat announcements that dominate a live feed.
  if (paths_.size() > paths_before) {
    for (const bgp::Asn asn : paths_.unique_asns(path_id)) {
      if (!asns_on_paths_.insert(asn).second) continue;
      const auto mark_dirty = [this](bgp::Asn candidate) {
        if (candidate <= 0xffff &&
            alphas_.contains(static_cast<std::uint16_t>(candidate)))
          dirty_.insert(static_cast<std::uint16_t>(candidate));
      };
      mark_dirty(asn);
      if (observation_.sibling_aware && orgs_ != nullptr)
        for (const bgp::Asn sibling : orgs_->siblings(asn)) mark_dirty(sibling);
    }
  }

  for (const Community community : entry.route.communities) {
    const std::uint16_t alpha = community.alpha();
    AlphaState& state = alphas_[alpha];
    CommunityAccumulator& acc = state.betas[community.beta()];
    const std::uint64_t memo_key =
        static_cast<std::uint64_t>(path_id) << 16 | alpha;
    const auto [memo, fresh] = on_path_memo_.try_emplace(memo_key, false);
    if (fresh) {
      bool on = paths_.contains(path_id, alpha);
      if (!on && observation_.sibling_aware && orgs_ != nullptr)
        for (const bgp::Asn sibling : orgs_->siblings(alpha))
          if (sibling != alpha && paths_.contains(path_id, sibling)) on = true;
      memo->second = on;
    }
    const bool changed = memo->second
                             ? acc.on_paths.insert(path_hash).second
                             : acc.off_paths.insert(path_hash).second;
    if (changed) dirty_.insert(alpha);
  }
}

void IncrementalClassifier::ingest(std::span<const bgp::RibEntry> entries) {
  for (const bgp::RibEntry& entry : entries) ingest(entry);
}

void IncrementalClassifier::ingest_mrt(const mrt::ByteSource& source,
                                       const mrt::DecodeOptions& options,
                                       mrt::DecodeReport* report) {
  class Sink final : public mrt::EntrySink {
   public:
    explicit Sink(IncrementalClassifier& self) noexcept : self_(&self) {}
    void on_entry(bgp::RibEntry& entry) override { self_->ingest(entry); }

   private:
    IncrementalClassifier* self_;
  };
  Sink sink(*this);
  mrt::DecodeReport local;
  try {
    mrt::decode_rib_stream(source, sink, options, &local);
  } catch (...) {
    record_decode_outcome(local.records_ok, local.records_skipped);
    if (report) *report = std::move(local);
    throw;
  }
  record_decode_outcome(local.records_ok, local.records_skipped);
  if (report) *report = std::move(local);
}

bool IncrementalClassifier::alpha_on_any_path(std::uint16_t alpha) const {
  const auto on_path = [this](bgp::Asn asn) {
    if (view_) {
      const auto& asns = view_->columns().asns_on_paths;
      return std::binary_search(asns.begin(), asns.end(), asn);
    }
    return asns_on_paths_.contains(asn);
  };
  if (on_path(alpha)) return true;
  if (!observation_.sibling_aware || orgs_ == nullptr) return false;
  for (const bgp::Asn sibling : orgs_->siblings(alpha))
    if (on_path(sibling)) return true;
  return false;
}

void IncrementalClassifier::reclassify(std::uint16_t alpha,
                                       AlphaState& state) {
  state.labels.clear();
  std::vector<BetaCounts> evidence;
  label_alpha_counts(
      alpha, [&] { return alpha_on_any_path(alpha); },
      [&] {
        evidence.reserve(state.betas.size());
        for (const auto& [beta, acc] : state.betas)
          evidence.push_back({beta, acc.on_paths.size(), acc.off_paths.size()});
        std::sort(evidence.begin(), evidence.end(),
                  [](const BetaCounts& a, const BetaCounts& b) {
                    return a.beta < b.beta;
                  });
        return std::span<const BetaCounts>(evidence);
      },
      config_, [&state](const ClusterDecision& cluster) {
        for (const BetaCounts& member : cluster.members)
          state.labels.emplace(member.beta, cluster.intent);
      });
}

void IncrementalClassifier::reclassify_dirty() {
  for (const std::uint16_t alpha : dirty_) {
    if (view_) {
      reclassify_view(alpha);
      continue;
    }
    const auto it = alphas_.find(alpha);
    if (it != alphas_.end()) reclassify(alpha, it->second);
  }
  dirty_.clear();
}

Intent IncrementalClassifier::view_label(std::size_t alpha_slot,
                                         std::uint16_t alpha,
                                         std::uint16_t beta) const {
  const auto overlay = view_labels_.find(alpha);
  if (overlay != view_labels_.end()) {
    const auto& labels = overlay->second;
    const auto it = std::lower_bound(
        labels.begin(), labels.end(), beta,
        [](const std::pair<std::uint16_t, Intent>& label, std::uint16_t b) {
          return label.first < b;
        });
    return it == labels.end() || it->first != beta ? Intent::kUnclassified
                                                   : it->second;
  }
  return view_->cached_label(alpha_slot, beta).value_or(Intent::kUnclassified);
}

void IncrementalClassifier::reclassify_view(std::uint16_t alpha) {
  // A present (possibly empty) overlay entry means "settled since the
  // snapshot" and shadows the view's stale cached-label columns.
  auto& labels = view_labels_[alpha];
  labels.clear();
  const auto slot = view_->find_alpha(alpha);
  if (!slot) return;

  const StateColumns& c = view_->columns();
  const std::uint32_t b0 = c.alpha_beta_begin[*slot];
  const std::uint32_t b1 = c.alpha_beta_begin[*slot + 1];
  std::vector<BetaCounts> evidence;
  label_alpha_counts(
      alpha, [&] { return alpha_on_any_path(alpha); },
      [&] {
        // beta_ids are stored sorted per alpha, so the counts come out in
        // the order the rule requires without materializing any sets.
        evidence.reserve(b1 - b0);
        for (std::uint32_t b = b0; b < b1; ++b)
          evidence.push_back({c.beta_ids[b],
                              static_cast<std::size_t>(c.beta_on_begin[b + 1] -
                                                       c.beta_on_begin[b]),
                              static_cast<std::size_t>(c.beta_off_begin[b + 1] -
                                                       c.beta_off_begin[b])});
        return std::span<const BetaCounts>(evidence);
      },
      config_, [&labels](const ClusterDecision& cluster) {
        // Clusters and their members arrive in ascending beta order, so
        // the overlay comes out sorted.
        for (const BetaCounts& member : cluster.members)
          labels.emplace_back(member.beta, cluster.intent);
      });
}

Intent IncrementalClassifier::label_of(Community community) {
  const std::uint16_t alpha = community.alpha();
  if (view_) {
    const auto slot = view_->find_alpha(alpha);
    if (!slot) return Intent::kUnclassified;
    if (dirty_.contains(alpha)) {
      reclassify_view(alpha);
      dirty_.erase(alpha);
    }
    return view_label(*slot, alpha, community.beta());
  }
  auto it = alphas_.find(alpha);
  if (it == alphas_.end()) return Intent::kUnclassified;
  if (dirty_.contains(alpha)) {
    reclassify(alpha, it->second);
    dirty_.erase(alpha);
  }
  const auto label = it->second.labels.find(community.beta());
  return label == it->second.labels.end() ? Intent::kUnclassified
                                          : label->second;
}

IncrementalClassifier::State IncrementalClassifier::export_state() const {
  if (view_) {
    // Materialize the columns, then patch in what has moved since the
    // borrow: the live counters, the live dirty set, and the overlay of
    // alphas reclassified against the (immutable) snapshot labels.
    State state = view_->materialize();
    state.entries_ingested = entries_ingested_;
    state.decode_records_ok = decode_records_ok_;
    state.decode_records_skipped = decode_records_skipped_;
    state.dirty.assign(dirty_.begin(), dirty_.end());
    std::sort(state.dirty.begin(), state.dirty.end());
    for (State::Alpha& alpha : state.alphas) {
      const auto overlay = view_labels_.find(alpha.alpha);
      if (overlay != view_labels_.end()) alpha.labels = overlay->second;
    }
    return state;
  }
  State state;
  state.entries_ingested = entries_ingested_;
  state.decode_records_ok = decode_records_ok_;
  state.decode_records_skipped = decode_records_skipped_;
  state.asns_on_paths.assign(asns_on_paths_.begin(), asns_on_paths_.end());
  std::sort(state.asns_on_paths.begin(), state.asns_on_paths.end());
  state.dirty.assign(dirty_.begin(), dirty_.end());
  std::sort(state.dirty.begin(), state.dirty.end());

  state.alphas.reserve(alphas_.size());
  for (const auto& [alpha, alpha_state] : alphas_) {
    State::Alpha out;
    out.alpha = alpha;
    out.betas.reserve(alpha_state.betas.size());
    for (const auto& [beta, acc] : alpha_state.betas) {
      State::BetaEvidence evidence;
      evidence.beta = beta;
      evidence.on_paths.assign(acc.on_paths.begin(), acc.on_paths.end());
      evidence.off_paths.assign(acc.off_paths.begin(), acc.off_paths.end());
      std::sort(evidence.on_paths.begin(), evidence.on_paths.end());
      std::sort(evidence.off_paths.begin(), evidence.off_paths.end());
      out.betas.push_back(std::move(evidence));
    }
    std::sort(out.betas.begin(), out.betas.end(),
              [](const State::BetaEvidence& a, const State::BetaEvidence& b) {
                return a.beta < b.beta;
              });
    out.labels.assign(alpha_state.labels.begin(), alpha_state.labels.end());
    std::sort(out.labels.begin(), out.labels.end());
    state.alphas.push_back(std::move(out));
  }
  std::sort(state.alphas.begin(), state.alphas.end(),
            [](const State::Alpha& a, const State::Alpha& b) {
              return a.alpha < b.alpha;
            });
  return state;
}

void IncrementalClassifier::restore_state(const State& state) {
  view_.reset();
  view_labels_.clear();
  alphas_.clear();
  asns_on_paths_.clear();
  dirty_.clear();
  entries_ingested_ = state.entries_ingested;
  decode_records_ok_ = state.decode_records_ok;
  decode_records_skipped_ = state.decode_records_skipped;
  asns_on_paths_.insert(state.asns_on_paths.begin(),
                        state.asns_on_paths.end());
  dirty_.insert(state.dirty.begin(), state.dirty.end());
  for (const State::Alpha& alpha : state.alphas) {
    AlphaState& alpha_state = alphas_[alpha.alpha];
    for (const State::BetaEvidence& evidence : alpha.betas) {
      CommunityAccumulator& acc = alpha_state.betas[evidence.beta];
      acc.on_paths.insert(evidence.on_paths.begin(), evidence.on_paths.end());
      acc.off_paths.insert(evidence.off_paths.begin(),
                           evidence.off_paths.end());
    }
    for (const auto& [beta, intent] : alpha.labels)
      alpha_state.labels.emplace(beta, intent);
  }
}

void IncrementalClassifier::restore_state(const State& state,
                                          bgp::PathTable paths) {
  restore_state(state);
  paths_ = std::move(paths);
  on_path_memo_.clear();
}

void IncrementalClassifier::restore_view(
    std::shared_ptr<const StateView> view) {
  alphas_.clear();
  paths_ = bgp::PathTable();
  on_path_memo_.clear();
  asns_on_paths_.clear();
  view_labels_.clear();
  view_ = std::move(view);
  const StateColumns& c = view_->columns();
  entries_ingested_ = static_cast<std::size_t>(c.entries_ingested);
  decode_records_ok_ = c.decode_records_ok;
  decode_records_skipped_ = c.decode_records_skipped;
  dirty_.clear();
  dirty_.insert(c.dirty.begin(), c.dirty.end());
}

void IncrementalClassifier::detach() {
  // Order matters: export_state() and materialize_paths() both read the
  // view, restore_state() drops it.  The memo is keyed by (PathId, alpha);
  // ids are preserved by the path import and the memo starts empty,
  // exactly like a restore_state() rebuild.
  State state = export_state();
  bgp::PathTable paths = view_->materialize_paths();
  restore_state(state, std::move(paths));
}

bgp::PathTable::ExportedColumns IncrementalClassifier::path_columns() const {
  if (!view_) return paths_.export_columns();
  const bgp::PathTable::ImportColumns& p = view_->columns().paths;
  bgp::PathTable::ExportedColumns out;
  out.asn_arena = p.asn_arena;
  out.uniq_arena = p.uniq_arena;
  out.seg_types.assign(p.seg_types.begin(), p.seg_types.end());
  out.seg_counts.assign(p.seg_counts.begin(), p.seg_counts.end());
  out.asn_begin.assign(p.asn_begin.begin(), p.asn_begin.end());
  out.asn_count.assign(p.asn_count.begin(), p.asn_count.end());
  out.seg_begin.assign(p.seg_begin.begin(), p.seg_begin.end());
  out.seg_count.assign(p.seg_count.begin(), p.seg_count.end());
  out.uniq_begin.assign(p.uniq_begin.begin(), p.uniq_begin.end());
  out.uniq_count.assign(p.uniq_count.begin(), p.uniq_count.end());
  out.hashes.assign(p.hashes.begin(), p.hashes.end());
  return out;
}

std::vector<std::pair<Community, Intent>>
IncrementalClassifier::label_snapshot() const {
  if (view_) {
    // The serve columns are label_snapshot() pre-flattened by the writer;
    // only overlay alphas (reclassified since the borrow) need patching.
    const StateColumns& c = view_->columns();
    std::vector<std::pair<Community, Intent>> out;
    out.reserve(c.serve_wires.size());
    for (std::size_t i = 0; i < c.serve_wires.size(); ++i) {
      const Community community(
          static_cast<std::uint16_t>(c.serve_wires[i] >> 16),
          static_cast<std::uint16_t>(c.serve_wires[i] & 0xffff));
      Intent intent = c.serve_intents[i];
      if (!view_labels_.empty() && view_labels_.contains(community.alpha())) {
        const auto slot = view_->find_alpha(community.alpha());
        intent = view_label(*slot, community.alpha(), community.beta());
      }
      out.emplace_back(community, intent);
    }
    return out;
  }
  std::vector<std::pair<Community, Intent>> out;
  std::size_t total = 0;
  for (const auto& [alpha, state] : alphas_) total += state.betas.size();
  out.reserve(total);
  for (const auto& [alpha, state] : alphas_) {
    for (const auto& [beta, acc] : state.betas) {
      const auto label = state.labels.find(beta);
      out.emplace_back(Community(alpha, beta),
                       label == state.labels.end() ? Intent::kUnclassified
                                                   : label->second);
    }
  }
  return out;
}

void IncrementalClassifier::settle_dirty(
    std::vector<std::pair<Community, Intent>>& out) {
  if (view_) {
    const StateColumns& c = view_->columns();
    for (const std::uint16_t alpha : dirty_) {
      const auto slot = view_->find_alpha(alpha);
      if (!slot) continue;
      reclassify_view(alpha);
      const std::uint32_t b0 = c.alpha_beta_begin[*slot];
      const std::uint32_t b1 = c.alpha_beta_begin[*slot + 1];
      for (std::uint32_t b = b0; b < b1; ++b)
        out.emplace_back(Community(alpha, c.beta_ids[b]),
                         view_label(*slot, alpha, c.beta_ids[b]));
    }
    dirty_.clear();
    return;
  }
  for (const std::uint16_t alpha : dirty_) {
    const auto it = alphas_.find(alpha);
    if (it == alphas_.end()) continue;
    reclassify(alpha, it->second);
    for (const auto& [beta, acc] : it->second.betas) {
      const auto label = it->second.labels.find(beta);
      out.emplace_back(Community(alpha, beta),
                       label == it->second.labels.end()
                           ? Intent::kUnclassified
                           : label->second);
    }
  }
  dirty_.clear();
}

IncrementalClassifier::Totals IncrementalClassifier::totals() {
  reclassify_dirty();
  Totals totals;
  if (view_) {
    const StateColumns& c = view_->columns();
    for (std::size_t a = 0; a < c.alpha_ids.size(); ++a) {
      const std::uint16_t alpha = c.alpha_ids[a];
      for (std::uint32_t b = c.alpha_beta_begin[a];
           b < c.alpha_beta_begin[a + 1]; ++b) {
        ++totals.communities;
        switch (view_label(a, alpha, c.beta_ids[b])) {
          case Intent::kUnclassified: ++totals.unclassified; break;
          case Intent::kInformation: ++totals.information; break;
          default: ++totals.action; break;
        }
      }
    }
    return totals;
  }
  for (const auto& [alpha, state] : alphas_) {
    for (const auto& [beta, acc] : state.betas) {
      ++totals.communities;
      const auto label = state.labels.find(beta);
      if (label == state.labels.end()) {
        ++totals.unclassified;
      } else if (label->second == Intent::kInformation) {
        ++totals.information;
      } else {
        ++totals.action;
      }
    }
  }
  return totals;
}

}  // namespace bgpintent::core
