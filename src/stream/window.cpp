#include "stream/window.hpp"

#include <algorithm>
#include <stdexcept>

#include "bgp/asn.hpp"
#include "core/labeling.hpp"

namespace bgpintent::stream {

namespace {

[[nodiscard]] constexpr std::uint64_t pack_key(bgp::PathId path,
                                               Community community) noexcept {
  return static_cast<std::uint64_t>(path) << 32 | community.wire();
}

[[nodiscard]] constexpr bgp::PathId key_path(std::uint64_t key) noexcept {
  return static_cast<bgp::PathId>(key >> 32);
}

[[nodiscard]] constexpr Community key_community(std::uint64_t key) noexcept {
  return Community::from_wire(static_cast<std::uint32_t>(key));
}

}  // namespace

void WindowClassifier::advance_to(std::uint32_t timestamp) {
  latest_timestamp_ = std::max(latest_timestamp_, timestamp);
  const std::uint64_t epoch = timestamp / std::max<std::uint32_t>(
                                              config_.epoch_seconds, 1);
  if (!started_) {
    started_ = true;
    current_epoch_ = epoch;
    return;
  }
  if (epoch <= current_epoch_) return;  // late records fold into the newest
  current_epoch_ = epoch;
  const std::uint64_t window =
      std::max<std::uint32_t>(config_.window_epochs, 1);
  while (!ring_.empty() && ring_.front().id + window <= current_epoch_) {
    Epoch expired = std::move(ring_.front());
    ring_.pop_front();
    ++expired_epochs_;
    for (const auto& [key, count] : expired.tuples) {
      const auto ref = window_refs_.find(key);
      ref->second -= count;
      if (ref->second == 0) {
        window_refs_.erase(ref);
        deactivate_tuple(key);
      }
    }
  }
}

WindowClassifier::Epoch& WindowClassifier::newest_epoch() {
  if (ring_.empty() || ring_.back().id != current_epoch_) {
    ring_.push_back(Epoch{current_epoch_, {}});
  }
  return ring_.back();
}

void WindowClassifier::announce(const bgp::RibEntry& entry,
                                std::uint32_t timestamp) {
  advance_to(timestamp);
  ++announces_;
  if (entry.route.communities.empty()) return;  // no tuples, no evidence

  const bgp::PathId path = paths_.intern(entry.route.path);
  Epoch& epoch = newest_epoch();
  for (const Community community : entry.route.communities) {
    const std::uint64_t key = pack_key(path, community);
    ++epoch.tuples[key];
    if (++window_refs_[key] == 1) activate_tuple(key);
  }
}

void WindowClassifier::withdraw(const bgp::VantagePointId& /*peer*/,
                                const bgp::Prefix& /*prefix*/,
                                std::uint32_t timestamp) {
  advance_to(timestamp);
  ++withdraws_;
}

void WindowClassifier::activate_tuple(std::uint64_t key) {
  const bgp::PathId path = key_path(key);
  const Community community = key_community(key);
  if (++path_refs_[path] == 1) path_became_live(path);

  AlphaCounts& counts = alphas_[community.alpha()];
  OnOff& on_off = counts.betas[community.beta()];
  if (on_path(path, community.alpha()))
    ++on_off.on;
  else
    ++on_off.off;
  dirty_.insert(community.alpha());
}

void WindowClassifier::deactivate_tuple(std::uint64_t key) {
  const bgp::PathId path = key_path(key);
  const Community community = key_community(key);

  const auto alpha_it = alphas_.find(community.alpha());
  AlphaCounts& counts = alpha_it->second;
  const auto beta_it = counts.betas.find(community.beta());
  if (on_path(path, community.alpha()))
    --beta_it->second.on;
  else
    --beta_it->second.off;
  if (beta_it->second.on == 0 && beta_it->second.off == 0)
    counts.betas.erase(beta_it);
  dirty_.insert(community.alpha());

  const auto path_ref = path_refs_.find(path);
  if (--path_ref->second == 0) {
    path_refs_.erase(path_ref);
    path_became_dead(path);
  }
}

void WindowClassifier::path_became_live(bgp::PathId path) {
  for (const bgp::Asn asn : paths_.unique_asns(path))
    if (++asn_refs_[asn] == 1) mark_exclusion_dirty(asn);
}

void WindowClassifier::path_became_dead(bgp::PathId path) {
  for (const bgp::Asn asn : paths_.unique_asns(path)) {
    const auto ref = asn_refs_.find(asn);
    if (--ref->second == 0) {
      asn_refs_.erase(ref);
      mark_exclusion_dirty(asn);
    }
  }
}

void WindowClassifier::mark_exclusion_dirty(bgp::Asn asn) {
  const auto mark = [this](bgp::Asn candidate) {
    if (candidate <= 0xffff &&
        alphas_.contains(static_cast<std::uint16_t>(candidate)))
      dirty_.insert(static_cast<std::uint16_t>(candidate));
  };
  mark(asn);
  if (config_.observation.sibling_aware && orgs_ != nullptr)
    for (const bgp::Asn sibling : orgs_->siblings(asn)) mark(sibling);
}

bool WindowClassifier::on_path(bgp::PathId path, std::uint16_t alpha) {
  const std::uint64_t memo_key =
      static_cast<std::uint64_t>(path) << 16 | alpha;
  const auto [memo, fresh] = on_path_memo_.try_emplace(memo_key, false);
  if (fresh) {
    bool on = paths_.contains(path, alpha);
    if (!on && config_.observation.sibling_aware && orgs_ != nullptr)
      for (const bgp::Asn sibling : orgs_->siblings(alpha))
        if (sibling != alpha && paths_.contains(path, sibling)) {
          on = true;
          break;
        }
    memo->second = on;
  }
  return memo->second;
}

bool WindowClassifier::alpha_on_any_path(std::uint16_t alpha) const {
  if (asn_refs_.contains(alpha)) return true;
  if (!config_.observation.sibling_aware || orgs_ == nullptr) return false;
  for (const bgp::Asn sibling : orgs_->siblings(alpha))
    if (asn_refs_.contains(sibling)) return true;
  return false;
}

void WindowClassifier::relabel_alpha(std::uint16_t alpha, AlphaCounts& counts,
                                     std::vector<LabelChange>& out) {
  reclassified_communities_ += counts.betas.size();

  std::unordered_map<std::uint16_t, Intent> previous;
  previous.swap(counts.labels);

  std::vector<core::BetaCounts> evidence;
  core::label_alpha_counts(
      alpha, [&] { return alpha_on_any_path(alpha); },
      [&] {
        evidence.reserve(counts.betas.size());
        for (const auto& [beta, on_off] : counts.betas)
          evidence.push_back({beta, on_off.on, on_off.off});
        std::sort(evidence.begin(), evidence.end(),
                  [](const core::BetaCounts& a, const core::BetaCounts& b) {
                    return a.beta < b.beta;
                  });
        return std::span<const core::BetaCounts>(evidence);
      },
      config_.classifier, [&counts](const core::ClusterDecision& cluster) {
        for (const core::BetaCounts& member : cluster.members)
          counts.labels.emplace(member.beta, cluster.intent);
      });

  // Diff previous vs. current labels in ascending beta order.
  std::vector<std::uint16_t> betas;
  betas.reserve(previous.size() + counts.labels.size());
  for (const auto& [beta, intent] : previous) betas.push_back(beta);
  for (const auto& [beta, intent] : counts.labels) betas.push_back(beta);
  std::sort(betas.begin(), betas.end());
  betas.erase(std::unique(betas.begin(), betas.end()), betas.end());
  for (const std::uint16_t beta : betas) {
    const auto before = previous.find(beta);
    const auto after = counts.labels.find(beta);
    const Intent old_intent =
        before == previous.end() ? Intent::kUnclassified : before->second;
    const Intent new_intent =
        after == counts.labels.end() ? Intent::kUnclassified : after->second;
    if (old_intent != new_intent)
      out.push_back(LabelChange{Community(alpha, beta), old_intent,
                                new_intent, current_epoch_});
  }
}

std::vector<LabelChange> WindowClassifier::reclassify_dirty() {
  std::vector<LabelChange> changes;
  for (const std::uint16_t alpha : dirty_) {
    const auto it = alphas_.find(alpha);
    if (it == alphas_.end()) continue;
    if (it->second.betas.empty()) {
      // Every observation of this alpha expired: retire cached labels.
      AlphaCounts retired = std::move(it->second);
      alphas_.erase(it);
      std::vector<std::uint16_t> betas;
      betas.reserve(retired.labels.size());
      for (const auto& [beta, intent] : retired.labels) betas.push_back(beta);
      std::sort(betas.begin(), betas.end());
      for (const std::uint16_t beta : betas)
        changes.push_back(LabelChange{Community(alpha, beta),
                                      retired.labels.at(beta),
                                      Intent::kUnclassified, current_epoch_});
      continue;
    }
    relabel_alpha(alpha, it->second, changes);
  }
  dirty_.clear();
  return changes;
}

void WindowClassifier::mark_all_dirty() {
  for (const auto& [alpha, counts] : alphas_) dirty_.insert(alpha);
}

Intent WindowClassifier::label_of(Community community) const noexcept {
  const auto it = alphas_.find(community.alpha());
  if (it == alphas_.end()) return Intent::kUnclassified;
  const auto label = it->second.labels.find(community.beta());
  return label == it->second.labels.end() ? Intent::kUnclassified
                                          : label->second;
}

WindowClassifier::Totals WindowClassifier::totals() const {
  Totals totals;
  for (const auto& [alpha, counts] : alphas_) {
    for (const auto& [beta, on_off] : counts.betas) {
      ++totals.communities;
      const auto label = counts.labels.find(beta);
      if (label == counts.labels.end()) {
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

std::vector<std::pair<Community, Intent>> WindowClassifier::labels() const {
  std::vector<std::pair<Community, Intent>> out;
  for (const auto& [alpha, counts] : alphas_)
    for (const auto& [beta, intent] : counts.labels)
      out.emplace_back(Community(alpha, beta), intent);
  std::sort(out.begin(), out.end());
  return out;
}

std::vector<bgp::InternedTuple> WindowClassifier::window_tuples() const {
  std::vector<std::uint64_t> keys;
  keys.reserve(window_refs_.size());
  for (const auto& [key, count] : window_refs_) keys.push_back(key);
  std::sort(keys.begin(), keys.end());
  std::vector<bgp::InternedTuple> tuples;
  tuples.reserve(keys.size());
  for (const std::uint64_t key : keys)
    tuples.push_back(bgp::InternedTuple{key_path(key), key_community(key)});
  return tuples;
}

WindowState WindowClassifier::export_state() const {
  WindowState state;

  state.paths.reserve(paths_.size());
  for (bgp::PathId id = 0; id < paths_.size(); ++id)
    state.paths.push_back(paths_.materialize(id));

  state.ring.reserve(ring_.size());
  for (const Epoch& epoch : ring_) {
    WindowState::EpochState out;
    out.id = epoch.id;
    out.tuples.assign(epoch.tuples.begin(), epoch.tuples.end());
    std::sort(out.tuples.begin(), out.tuples.end());
    state.ring.push_back(std::move(out));
  }

  for (const auto& [alpha, counts] : alphas_) {
    if (counts.labels.empty()) continue;
    WindowState::AlphaLabels out;
    out.alpha = alpha;
    out.labels.assign(counts.labels.begin(), counts.labels.end());
    std::sort(out.labels.begin(), out.labels.end());
    state.alphas.push_back(std::move(out));
  }
  std::sort(state.alphas.begin(), state.alphas.end(),
            [](const WindowState::AlphaLabels& a,
               const WindowState::AlphaLabels& b) { return a.alpha < b.alpha; });

  state.dirty.assign(dirty_.begin(), dirty_.end());  // std::set: ascending

  state.started = started_;
  state.current_epoch = current_epoch_;
  state.latest_timestamp = latest_timestamp_;
  state.announces = announces_;
  state.withdraws = withdraws_;
  state.expired_epochs = expired_epochs_;
  state.reclassified_communities = reclassified_communities_;
  return state;
}

void WindowClassifier::restore_state(const WindowState& state) {
  paths_ = bgp::PathTable{};
  on_path_memo_.clear();
  ring_.clear();
  window_refs_.clear();
  path_refs_.clear();
  asn_refs_.clear();
  alphas_.clear();
  dirty_.clear();

  // PathIds are dense intern order, so re-interning the exported paths in
  // order reproduces every id the ring keys reference.
  for (const bgp::AsPath& path : state.paths) paths_.intern(path);

  for (const WindowState::EpochState& epoch : state.ring) {
    Epoch rebuilt;
    rebuilt.id = epoch.id;
    rebuilt.tuples.reserve(epoch.tuples.size());
    for (const auto& [key, count] : epoch.tuples) {
      if (key_path(key) >= paths_.size())
        throw std::runtime_error(
            "window state ring references an unknown path");
      rebuilt.tuples.emplace(key, count);
      window_refs_[key] += count;
    }
    ring_.push_back(std::move(rebuilt));
  }

  // activate_tuple per live key rebuilds path/asn refcounts and beta
  // counters; the final state is order-independent (pure increments).
  for (const auto& [key, count] : window_refs_) activate_tuple(key);

  // Classification history is carried verbatim, not derived: overwrite the
  // labels and the dirty set activate_tuple just polluted.
  dirty_.clear();
  dirty_.insert(state.dirty.begin(), state.dirty.end());
  for (const WindowState::AlphaLabels& alpha : state.alphas) {
    auto& labels = alphas_[alpha.alpha].labels;
    labels.clear();
    labels.insert(alpha.labels.begin(), alpha.labels.end());
  }

  started_ = state.started;
  current_epoch_ = state.current_epoch;
  latest_timestamp_ = state.latest_timestamp;
  announces_ = state.announces;
  withdraws_ = state.withdraws;
  expired_epochs_ = state.expired_epochs;
  reclassified_communities_ = state.reclassified_communities;
}

std::size_t WindowClassifier::memory_bytes() const noexcept {
  // Unordered-map nodes cost roughly key+value plus two pointers of
  // overhead; close enough for the trend line the bench charts.
  constexpr std::size_t kNode = 2 * sizeof(void*);
  std::size_t bytes = paths_.memory_bytes();
  bytes += on_path_memo_.size() * (kNode + sizeof(std::uint64_t) + 1);
  bytes += window_refs_.size() * (kNode + 12);
  bytes += path_refs_.size() * (kNode + 8);
  bytes += asn_refs_.size() * (kNode + 8);
  for (const Epoch& epoch : ring_)
    bytes += sizeof(Epoch) + epoch.tuples.size() * (kNode + 12);
  for (const auto& [alpha, counts] : alphas_) {
    bytes += kNode + sizeof(AlphaCounts);
    bytes += counts.betas.size() * (kNode + sizeof(OnOff) + 2);
    bytes += counts.labels.size() * (kNode + 3);
  }
  bytes += dirty_.size() * (4 * sizeof(void*));
  return bytes;
}

}  // namespace bgpintent::stream
