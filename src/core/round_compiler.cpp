#include "core/round_compiler.hpp"

#include <algorithm>
#include <limits>
#include <numeric>
#include <stdexcept>

namespace dmfsgd::core {

void RoundCoo::GroupByTarget(std::size_t node_count) {
  // Stable counting sort by target row: count, prefix-sum into group
  // boundaries, scatter in gather order (which preserves the ascending
  // message order within every group — the §14 ordering invariant).
  offsets_.assign(node_count + 1, 0);
  for (const RoundEdge& edge : edges_) {
    if (edge.target >= node_count) {
      throw std::out_of_range("RoundCoo::GroupByTarget: target out of range");
    }
    ++offsets_[edge.target + 1];
  }
  for (std::size_t t = 0; t < node_count; ++t) {
    offsets_[t + 1] += offsets_[t];
  }
  grouped_.resize(edges_.size());
  cursor_.assign(offsets_.begin(), offsets_.end() - 1);
  for (std::uint32_t e = 0; e < edges_.size(); ++e) {
    grouped_[cursor_[edges_[e].target]++] = e;
  }
}

void RoundCoo::ComponentsByWindow(std::size_t node_count, std::size_t window) {
  if (window == 0) {
    throw std::invalid_argument("RoundCoo::ComponentsByWindow: window must be >= 1");
  }
  constexpr std::uint32_t kNoEdge = std::numeric_limits<std::uint32_t>::max();
  edge_of_prober_.assign(node_count, kNoEdge);
  for (std::uint32_t e = 0; e < edges_.size(); ++e) {
    if (edges_[e].prober >= node_count || edges_[e].target >= node_count) {
      throw std::out_of_range("RoundCoo::ComponentsByWindow: node out of range");
    }
    edge_of_prober_[edges_[e].prober] = e;
  }
  // Union-find whose links always point from the larger index to the
  // smaller, so every parent precedes its child and the root is the
  // component's first edge.
  roots_.resize(edges_.size());
  std::iota(roots_.begin(), roots_.end(), std::uint32_t{0});
  const auto find = [this](std::uint32_t e) {
    while (roots_[e] != e) {
      roots_[e] = roots_[roots_[e]];  // path halving keeps parent < child
      e = roots_[e];
    }
    return e;
  };
  for (std::uint32_t e = 0; e < edges_.size(); ++e) {
    const std::uint32_t f = edge_of_prober_[edges_[e].target];
    if (f != kNoEdge && f / window == e / window) {
      const std::uint32_t a = find(e);
      const std::uint32_t b = find(f);
      roots_[std::max(a, b)] = std::min(a, b);
    }
  }
  // Parents precede children, so one ascending pass flattens every path.
  // Then a counting sort by root, stable by edge index, lays each
  // component out contiguously in ascending edge order.
  root_offsets_.assign(edges_.size() + 1, 0);
  for (std::uint32_t e = 0; e < edges_.size(); ++e) {
    roots_[e] = roots_[roots_[e]];
    ++root_offsets_[roots_[e] + 1];
  }
  std::partial_sum(root_offsets_.begin(), root_offsets_.end(), root_offsets_.begin());
  cursor_.assign(root_offsets_.begin(), root_offsets_.end() - 1);
  by_root_.resize(edges_.size());
  for (std::uint32_t e = 0; e < edges_.size(); ++e) {
    by_root_[cursor_[roots_[e]]++] = e;
  }
}

}  // namespace dmfsgd::core
