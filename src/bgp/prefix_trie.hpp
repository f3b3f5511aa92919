// Binary radix trie keyed by IPv4 prefixes.
//
// A header-only prefix table supporting exact lookup, longest-prefix match
// and covering-prefix enumeration — the data structure behind routing-table
// style tooling (anomaly watch, RIB diffing).  One node per bit on the
// inserted paths; values live only at marked nodes.
#pragma once

#include <memory>
#include <optional>
#include <vector>

#include "bgp/prefix.hpp"

namespace bgpintent::bgp {

template <typename T>
class PrefixTrie {
 public:
  PrefixTrie() : root_(std::make_unique<Node>()) {}

  /// Inserts or overwrites the value at `prefix`.  Returns true if the
  /// prefix was newly inserted.
  bool insert(const Prefix& prefix, T value) {
    Node* node = walk_to(prefix, /*create=*/true);
    const bool fresh = !node->value.has_value();
    node->value = std::move(value);
    if (fresh) ++size_;
    return fresh;
  }

  /// Removes `prefix`; returns true if it was present.  (Nodes are kept;
  /// the trie is optimized for build-then-query workloads.)
  bool erase(const Prefix& prefix) {
    Node* node = walk_to(prefix, /*create=*/false);
    if (node == nullptr || !node->value.has_value()) return false;
    node->value.reset();
    --size_;
    return true;
  }

  /// Exact-match lookup.
  [[nodiscard]] const T* find(const Prefix& prefix) const {
    const Node* node = walk_to_const(prefix);
    if (node == nullptr || !node->value.has_value()) return nullptr;
    return &*node->value;
  }

  /// Longest-prefix match for a host address; nullptr when nothing covers.
  [[nodiscard]] const T* longest_match(std::uint32_t address) const {
    const Node* node = root_.get();
    const T* best = node->value ? &*node->value : nullptr;
    for (int bit = 31; bit >= 0 && node != nullptr; --bit) {
      node = node->child[(address >> bit) & 1].get();
      if (node != nullptr && node->value) best = &*node->value;
    }
    return best;
  }

  /// The most specific stored prefix covering `prefix` (including itself).
  [[nodiscard]] std::optional<Prefix> covering(const Prefix& prefix) const {
    const Node* node = root_.get();
    std::optional<Prefix> best;
    if (node->value) best = Prefix(0, 0);
    std::uint32_t accumulated = 0;
    for (std::uint8_t depth = 0; depth < prefix.length(); ++depth) {
      const std::uint32_t bit =
          (prefix.address() >> (31 - depth)) & 1;
      node = node->child[bit].get();
      if (node == nullptr) break;
      accumulated |= bit << (31 - depth);
      if (node->value)
        best = Prefix(accumulated, static_cast<std::uint8_t>(depth + 1));
    }
    return best;
  }

  /// All stored prefixes equal to or more specific than `prefix`,
  /// ascending by (address, length).
  [[nodiscard]] std::vector<Prefix> covered_by(const Prefix& prefix) const {
    std::vector<Prefix> out;
    const Node* node = walk_to_const(prefix);
    if (node != nullptr)
      collect(node, prefix.address(), prefix.length(), out);
    std::sort(out.begin(), out.end());
    return out;
  }

  [[nodiscard]] std::size_t size() const noexcept { return size_; }
  [[nodiscard]] bool empty() const noexcept { return size_ == 0; }

 private:
  struct Node {
    std::optional<T> value;
    std::unique_ptr<Node> child[2];
  };

  Node* walk_to(const Prefix& prefix, bool create) {
    Node* node = root_.get();
    for (std::uint8_t depth = 0; depth < prefix.length(); ++depth) {
      const std::uint32_t bit = (prefix.address() >> (31 - depth)) & 1;
      if (node->child[bit] == nullptr) {
        if (!create) return nullptr;
        node->child[bit] = std::make_unique<Node>();
      }
      node = node->child[bit].get();
    }
    return node;
  }

  [[nodiscard]] const Node* walk_to_const(const Prefix& prefix) const {
    const Node* node = root_.get();
    for (std::uint8_t depth = 0; depth < prefix.length() && node != nullptr;
         ++depth) {
      const std::uint32_t bit = (prefix.address() >> (31 - depth)) & 1;
      node = node->child[bit].get();
    }
    return node;
  }

  /// Appends every stored prefix under `root` (which sits at `address` /
  /// `depth`) to `out`, in no particular order.  An explicit stack, not
  /// recursion: GCC 12 at -O3 inlines the recursive form's emplace_back
  /// into itself and reports a false -Wstringop-overflow.
  static void collect(const Node* root, std::uint32_t address,
                      std::uint8_t depth, std::vector<Prefix>& out) {
    struct Pending {
      const Node* node;
      std::uint32_t address;
      std::uint8_t depth;
    };
    std::vector<Pending> stack{{root, address, depth}};
    while (!stack.empty()) {
      const Pending at = stack.back();
      stack.pop_back();
      if (at.node->value) out.push_back(Prefix(at.address, at.depth));
      if (at.depth >= 32) continue;
      const auto next = static_cast<std::uint8_t>(at.depth + 1);
      if (at.node->child[0])
        stack.push_back({at.node->child[0].get(), at.address, next});
      if (at.node->child[1])
        stack.push_back({at.node->child[1].get(),
                         at.address | (1u << (31 - at.depth)), next});
    }
  }

  std::unique_ptr<Node> root_;
  std::size_t size_ = 0;
};

}  // namespace bgpintent::bgp
