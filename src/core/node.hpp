// Per-node state and update rules of DMFSGD (paper §5.2).
//
// Each network node owns exactly two length-r coordinate vectors u_i and
// v_i — the i-th rows of the factors U and V.  All learning happens through
// the three update entry points below, each consuming one measurement plus
// the remote coordinates carried by a protocol message:
//
//   RttUpdate        Algorithm 1, eqs. 9-10 (sender-side, symmetric metric)
//   AbwProberUpdate  Algorithm 2, eq. 12    (sender side of asymmetric metric)
//   AbwTargetUpdate  Algorithm 2, eq. 13    (receiver side)
//
// A node never sees the matrix, other nodes' measurements, or more than one
// neighbor's coordinates at a time.
//
// Storage: a node is a *view* over one row of a CoordinateStore — deployments
// keep every node's rows in two contiguous factor buffers so the SGD inner
// loop stays cache-friendly.  A standalone node (tests, single UDP agents)
// owns a private one-row store through the (id, rank, rng) constructor.
#pragma once

#include <cstddef>
#include <memory>
#include <span>
#include <vector>

#include "core/coordinate_store.hpp"
#include "core/loss.hpp"
#include "core/messages.hpp"

namespace dmfsgd::common {
class Rng;
}

namespace dmfsgd::core {

/// SGD hyper-parameters shared by all update rules.
struct UpdateParams {
  double eta = 0.1;                        ///< learning rate η
  double lambda = 0.1;                     ///< regularization coefficient λ
  LossKind loss = LossKind::kLogistic;     ///< l in eq. 3
};

/// Accumulator for the paper's mini-batch variant (DESIGN.md §13): instead
/// of one regularized step per received measurement, a node folds a batch's
/// gradient terms Σ_k g_k·remote_k into one running direction and applies a
/// *single* fused step per batch per row:
///
///   row = (1 - ηλ) row − η Σ_k g_k remote_k
///
/// Every g_k is evaluated at the node's pre-batch coordinates (that is what
/// makes it a mini-batch rather than k sequential steps) and the decay —
/// the regularization — applies once per batch, not once per message.
/// Accumulate uses linalg::AxpyRaw and Apply the fused DecayAxpyRaw, so the
/// per-batch cost is O(r) per message plus one O(r) apply.
///
/// Lifetime contract: `remote` spans passed to Accumulate are consumed
/// immediately (copied into the running sum); nothing is retained.
class GradientStepBatch {
 public:
  /// Requires rank > 0.
  explicit GradientStepBatch(std::size_t rank);

  [[nodiscard]] std::size_t rank() const noexcept { return sum_.size(); }
  [[nodiscard]] std::size_t Count() const noexcept { return count_; }
  [[nodiscard]] bool Empty() const noexcept { return count_ == 0; }

  /// Drops the accumulated direction (start of a new batch).
  void Reset() noexcept { count_ = 0; }

  /// Adds g * remote to the direction.  Requires remote.size() == rank().
  void Accumulate(double g, std::span<const double> remote);

  /// Applies the fused batch step to `row` and resets.  No-op when empty.
  /// Inner-loop precondition (validated by the callers' message-decode
  /// boundary): row.size() == rank(), and row does not alias the internal
  /// sum (it cannot — the sum is private).
  void ApplyTo(std::span<double> row, const UpdateParams& params) noexcept;

 private:
  std::vector<double> sum_;
  std::size_t count_ = 0;
};

class DmfsgdNode {
 public:
  /// Standalone node owning a private one-row store; u_i and v_i start
  /// uniform random in [0, 1) — the paper's initialization (§5.3).
  /// Requires rank > 0.
  DmfsgdNode(NodeId id, std::size_t rank, common::Rng& rng);

  /// View over row `row` of a shared store (the deployment layout); the
  /// row is randomized the same way.  `store` must outlive the node and
  /// never reallocate while the node exists.
  DmfsgdNode(NodeId id, CoordinateStore& store, std::size_t row,
             common::Rng& rng);

  DmfsgdNode(DmfsgdNode&&) noexcept = default;
  DmfsgdNode& operator=(DmfsgdNode&&) noexcept = default;
  DmfsgdNode(const DmfsgdNode&) = delete;
  DmfsgdNode& operator=(const DmfsgdNode&) = delete;

  [[nodiscard]] NodeId id() const noexcept { return id_; }
  [[nodiscard]] std::size_t rank() const noexcept { return store_->rank(); }

  [[nodiscard]] std::span<const double> u() const noexcept {
    return store_->U(row_);
  }
  [[nodiscard]] std::span<const double> v() const noexcept {
    return store_->V(row_);
  }

  /// Copies of the coordinates, as shipped in protocol replies.
  [[nodiscard]] std::vector<double> UCopy() const {
    const auto s = u();
    return {s.begin(), s.end()};
  }
  [[nodiscard]] std::vector<double> VCopy() const {
    const auto s = v();
    return {s.begin(), s.end()};
  }

  /// x̂_ij = u_i · v_j, the node's prediction toward a remote node whose v
  /// row is known.  Requires matching rank.
  [[nodiscard]] double Predict(std::span<const double> v_remote) const;

  /// Algorithm 1: this node (i) probed node j, measured x_ij, and received
  /// (u_j, v_j).  Applies eq. 9 to u_i and eq. 10 to v_i (using x_ji = x_ij).
  void RttUpdate(double x, std::span<const double> u_remote,
                 std::span<const double> v_remote, const UpdateParams& params);

  /// Algorithm 2, prober side: this node (i) received (x_ij, v_j).
  /// Applies eq. 12 to u_i.
  void AbwProberUpdate(double x, std::span<const double> v_remote,
                       const UpdateParams& params);

  /// Algorithm 2, target side: this node (j) inferred x_ij from a probe that
  /// carried u_i.  Applies eq. 13 to v_j.
  void AbwTargetUpdate(double x, std::span<const double> u_remote,
                       const UpdateParams& params);

  // -- mini-batch accumulation (DESIGN.md §13) ------------------------------
  // The Accumulate* entry points compute the same gradient scales as the
  // named updates above but fold them into GradientStepBatch accumulators
  // instead of stepping immediately; ApplyBatchU/V then perform one fused
  // step per batch.  All gradients are evaluated at the node's *current*
  // (pre-batch) coordinates.  Rank mismatches throw, like the named updates.

  /// Eqs. 9-10 terms of one batched RTT reply: g_u·v_remote into `du`,
  /// g_v·u_remote into `dv`.  Only params.loss is consumed here; η and λ
  /// enter once, at apply time.
  void AccumulateRttUpdate(double x, std::span<const double> u_remote,
                           std::span<const double> v_remote,
                           const UpdateParams& params, GradientStepBatch& du,
                           GradientStepBatch& dv) const;

  /// Eq. 12 term of one batched ABW reply: g·v_remote into `du`.
  void AccumulateAbwProberUpdate(double x, std::span<const double> v_remote,
                                 const UpdateParams& params,
                                 GradientStepBatch& du) const;

  /// Eq. 13 term of one batched ABW probe: g·u_remote into `dv`.
  void AccumulateAbwTargetUpdate(double x, std::span<const double> u_remote,
                                 const UpdateParams& params,
                                 GradientStepBatch& dv) const;

  /// u_i = (1 - ηλ) u_i − η · du.sum, then resets `du`.  No-op when empty.
  void ApplyBatchU(GradientStepBatch& du, const UpdateParams& params);

  /// v_i = (1 - ηλ) v_i − η · dv.sum, then resets `dv`.  No-op when empty.
  void ApplyBatchV(GradientStepBatch& dv, const UpdateParams& params);

  /// Regularized loss this node would incur on a measurement (diagnostics).
  [[nodiscard]] double LocalLoss(double x, std::span<const double> v_remote,
                                 const UpdateParams& params) const;

  /// Generic regularized SGD step on u_i with a caller-supplied gradient
  /// scale g:  u_i = (1 - ηλ) u_i - η g v_remote.  The three named updates
  /// above are thin wrappers over these; the multiclass extension supplies
  /// its own accumulated g.
  ///
  /// Inner-loop precondition (NOT re-checked here): v_remote.size() ==
  /// rank(), and v_remote does not alias this node's u row.  The named
  /// updates and the message-decode boundary validate sizes before calling;
  /// remote spans are always copies or round snapshots, never this row.
  void GradientStepU(double g, std::span<const double> v_remote,
                     const UpdateParams& params);

  /// v_i = (1 - ηλ) v_i - η g u_remote.  Same precondition as GradientStepU
  /// (u_remote must match rank() and not alias this node's v row).
  void GradientStepV(double g, std::span<const double> u_remote,
                     const UpdateParams& params);

 private:
  [[nodiscard]] std::span<double> MutableU() noexcept { return store_->U(row_); }
  [[nodiscard]] std::span<double> MutableV() noexcept { return store_->V(row_); }
  void RequireRank(std::size_t remote_rank) const;

  NodeId id_ = 0;
  std::unique_ptr<CoordinateStore> owned_;  ///< set only for standalone nodes
  CoordinateStore* store_ = nullptr;
  std::size_t row_ = 0;
};

}  // namespace dmfsgd::core
