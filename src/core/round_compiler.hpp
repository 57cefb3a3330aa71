// The sparse round compiler (DESIGN.md §14).
//
// A probing round is a sparse triple list: (prober i, target j, measured
// x).  Instead of reacting to one protocol message at a time (variant
// dispatch, two heap-allocated coordinate copies per reply), the compiled
// path *gathers* the round's exchanges first (consuming the RNG streams in
// exactly the order the per-message path would), sorts them into row-major
// COO — grouped by the updated factor row, stable by original message
// order — and then *executes* the whole gradient pass as one fused sweep
// over contiguous CoordinateStore rows through a kernel table fetched once
// per sweep.
//
// The ordering invariant that makes the deferred execution bit-identical
// to the per-message round (given the same kernel table):
//
//  * Algorithm 1: an exchange writes only the prober's own rows (u_i, v_i)
//    and reads the target's rows as they stood at reply time.  Executing
//    the gathered edges in original (ascending-prober) order against the
//    live store reproduces every mid-round read the sequential channel
//    drain performs — the "sort" is the identity permutation, row-major by
//    construction.
//  * Algorithm 2: an exchange writes v_j at the target and u_i at the
//    prober.  u_i is read and written only by prober i's own exchange
//    (one probe per node per round), so exchanges aimed at different
//    targets commute; only the per-target v_j sequence is ordered.  Stable
//    grouping by target row (a counting sort preserving message order)
//    keeps each group's updates in ascending-prober order — exactly the
//    sequence the per-message drain applies — while making the groups
//    row-disjoint, so a parallel sweep can partition them into contiguous
//    row ranges with no phase barriers (each range owns its targets' v
//    rows plus the u rows of their probers).
//
// Algorithm 1's in-order replay parallelizes too, by serial equivalence
// over conflict-free components: cut the edge list into consecutive
// windows; inside a window, edge p conflicts only with the edge of prober
// t_p (whose rows it reads).  The connected components of those conflicts
// touch disjoint rows, and every row a component reads from outside the
// window is final (an earlier window wrote it) or untouched (a later one
// will), so running each component in ascending edge order — components
// in parallel, windows one after another — replays the sequential sweep
// bit for bit (ComponentsByWindow).
//
// Within one group the compiled sweep still applies one step per message
// (not one accumulated step per row): that is what keeps it bit-identical
// to the sequential round.  Callers who want the one-apply-per-row
// mini-batch semantics instead opt into gradient_batch_size (DESIGN.md
// §13) — the two modes compose with, not replace, each other.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "core/loss.hpp"
#include "core/messages.hpp"
#include "core/node.hpp"
#include "linalg/kernels.hpp"

namespace dmfsgd::core {

/// One gathered exchange: who probed whom, and whether both protocol legs
/// survived (Algorithm 2 updates the target even when the reply leg is
/// lost; Algorithm 1 edges are only gathered when the full exchange
/// survives, so `full` is always 1 there).
struct RoundEdge {
  NodeId prober = 0;
  NodeId target = 0;
  unsigned char full = 1;
};

/// The round's COO buffer: edges in gather (original message) order plus a
/// stable row-major grouping by target, built by counting sort.  Reused
/// across rounds — Clear() keeps the capacity.
class RoundCoo {
 public:
  void Clear() noexcept {
    edges_.clear();
    grouped_.clear();
  }

  void Add(NodeId prober, NodeId target, bool full) {
    edges_.push_back(RoundEdge{prober, target, full ? (unsigned char)1 : (unsigned char)0});
  }

  [[nodiscard]] std::size_t EdgeCount() const noexcept { return edges_.size(); }
  [[nodiscard]] const std::vector<RoundEdge>& Edges() const noexcept {
    return edges_;
  }

  /// Builds the row-major grouping: Group(t) afterwards yields the indices
  /// of all edges targeting row t, in gather order (the sort is stable).
  /// O(edges + node_count) counting sort.  Requires every target < node_count.
  void GroupByTarget(std::size_t node_count);

  /// Edge indices targeting t, ascending by gather position.  Only valid
  /// after GroupByTarget; empty for untargeted rows.
  [[nodiscard]] std::span<const std::uint32_t> Group(NodeId t) const {
    return std::span<const std::uint32_t>(grouped_)
        .subspan(offsets_[t], offsets_[t + 1] - offsets_[t]);
  }

  /// Builds the Algorithm-1 conflict components: the edges split into
  /// consecutive windows of `window` edges (the first starts at edge 0),
  /// and inside a window the edge of prober p is joined with the edge of
  /// prober t_p when both lie in it.  A component's root is its smallest
  /// edge index, so it lies in the component's window and never after any
  /// of its edges; ComponentsRootedIn lists the components by root.
  /// O(edges + node_count) union-find and counting sort; deterministic.
  /// Requires at most one edge per prober, every endpoint < node_count, and
  /// window >= 1.
  void ComponentsByWindow(std::size_t node_count, std::size_t window);

  /// The edges of every component whose root lies in [first, last), one
  /// component after another, each in ascending edge order.  Only valid
  /// after ComponentsByWindow; requires first <= last <= EdgeCount().
  [[nodiscard]] std::span<const std::uint32_t> ComponentsRootedIn(
      std::size_t first, std::size_t last) const {
    return std::span<const std::uint32_t>(by_root_)
        .subspan(root_offsets_[first], root_offsets_[last] - root_offsets_[first]);
  }

 private:
  std::vector<RoundEdge> edges_;
  std::vector<std::uint32_t> offsets_;  // node_count + 1 group boundaries
  std::vector<std::uint32_t> grouped_;  // edge indices, grouped by target
  std::vector<std::uint32_t> cursor_;   // counting-sort scratch
  std::vector<std::uint32_t> roots_;    // component root per edge
  std::vector<std::uint32_t> edge_of_prober_;  // union-find scratch
  std::vector<std::uint32_t> root_offsets_;  // edges + 1 boundaries by root
  std::vector<std::uint32_t> by_root_;       // edge indices, grouped by root
};

// -- fused per-edge gradient steps ------------------------------------------
//
// Arithmetically identical to the DmfsgdNode update entry points (same
// expressions, same evaluation order), but dispatched through a caller-held
// kernel table and raw rows: no rank re-validation, no copies, no variant
// dispatch.  With the scalar table the results are bit-identical to the
// per-message handlers; vector tables differ only in the dots' accumulation
// order (see linalg/kernels.hpp).  The usual aliasing contract applies:
// remote rows must not alias the updated rows (distinct store rows — the
// engine never probes itself — or message-carried copies).

/// Algorithm 1, eqs. 9-10: updates u_row against v_remote and v_row
/// against u_remote, both gradient scales evaluated before either step —
/// exactly DmfsgdNode::RttUpdate.
inline void CompiledRttStep(const linalg::KernelOps& k,
                            const UpdateParams& params, double x,
                            const double* u_remote, const double* v_remote,
                            double* u_row, double* v_row, std::size_t r) {
  const auto [x_hat_ij, x_hat_ji] = k.dot_pair(u_row, v_remote, u_remote, v_row, r);
  const double g_u = LossGradientScale(params.loss, x, x_hat_ij);
  const double g_v = LossGradientScale(params.loss, x, x_hat_ji);
  k.decay_axpy(1.0 - params.eta * params.lambda, -params.eta * g_u, v_remote,
               u_row, r);
  k.decay_axpy(1.0 - params.eta * params.lambda, -params.eta * g_v, u_remote,
               v_row, r);
}

/// Algorithm 2, eq. 12 (prober side): updates u_row against v_remote —
/// exactly DmfsgdNode::AbwProberUpdate.
inline void CompiledAbwProberStep(const linalg::KernelOps& k,
                                  const UpdateParams& params, double x,
                                  const double* v_remote, double* u_row,
                                  std::size_t r) {
  const double x_hat = k.dot(u_row, v_remote, r);
  const double g = LossGradientScale(params.loss, x, x_hat);
  k.decay_axpy(1.0 - params.eta * params.lambda, -params.eta * g, v_remote,
               u_row, r);
}

/// Algorithm 2, eq. 13 (target side): updates v_row against u_remote —
/// exactly DmfsgdNode::AbwTargetUpdate.
inline void CompiledAbwTargetStep(const linalg::KernelOps& k,
                                  const UpdateParams& params, double x,
                                  const double* u_remote, double* v_row,
                                  std::size_t r) {
  const double x_hat = k.dot(u_remote, v_row, r);
  const double g = LossGradientScale(params.loss, x, x_hat);
  k.decay_axpy(1.0 - params.eta * params.lambda, -params.eta * g, u_remote,
               v_row, r);
}

}  // namespace dmfsgd::core
