#include "core/node.hpp"

#include <stdexcept>
#include <string>

#include "common/rng.hpp"
#include "linalg/kernels.hpp"
#include "linalg/vector_ops.hpp"

namespace dmfsgd::core {

GradientStepBatch::GradientStepBatch(std::size_t rank) : sum_(rank) {
  if (rank == 0) {
    throw std::invalid_argument("GradientStepBatch: rank must be > 0");
  }
}

void GradientStepBatch::Accumulate(double g, std::span<const double> remote) {
  if (remote.size() != sum_.size()) {
    throw std::invalid_argument("GradientStepBatch: rank mismatch");
  }
  if (count_ == 0) {
    // First term overwrites: Reset() is O(1) and the sum never needs zeroing.
    for (std::size_t d = 0; d < sum_.size(); ++d) {
      sum_[d] = g * remote[d];
    }
  } else {
    linalg::AxpyRaw(g, remote.data(), sum_.data(), sum_.size());
  }
  ++count_;
}

void GradientStepBatch::ApplyTo(std::span<double> row,
                                const UpdateParams& params) noexcept {
  if (count_ == 0) {
    return;
  }
  linalg::DecayAxpyRaw(1.0 - params.eta * params.lambda, -params.eta,
                       sum_.data(), row.data(), sum_.size());
  count_ = 0;
}

DmfsgdNode::DmfsgdNode(NodeId id, std::size_t rank, common::Rng& rng)
    : id_(id), owned_(std::make_unique<CoordinateStore>(1, rank)), store_(owned_.get()) {
  store_->RandomizeRow(0, rng);
}

DmfsgdNode::DmfsgdNode(NodeId id, CoordinateStore& store, std::size_t row,
                       common::Rng& rng)
    : id_(id), store_(&store), row_(row) {
  if (row >= store.NodeCount()) {
    throw std::out_of_range("DmfsgdNode: row outside the coordinate store");
  }
  store_->RandomizeRow(row_, rng);
}

void DmfsgdNode::RequireRank(std::size_t remote_rank) const {
  if (remote_rank != rank()) {
    throw std::invalid_argument("DmfsgdNode: rank mismatch (local " +
                                std::to_string(rank()) + ", remote " +
                                std::to_string(remote_rank) + ")");
  }
}

double DmfsgdNode::Predict(std::span<const double> v_remote) const {
  RequireRank(v_remote.size());
  return linalg::DotRaw(u().data(), v_remote.data(), rank());
}

void DmfsgdNode::RttUpdate(double x, std::span<const double> u_remote,
                           std::span<const double> v_remote,
                           const UpdateParams& params) {
  RequireRank(u_remote.size());
  RequireRank(v_remote.size());

  // Compute both gradient scales before touching any state: eq. 9 reads
  // u_i·v_j and eq. 10 reads u_j·v_i, neither of which depends on the other
  // update, but evaluating first keeps the rules exactly simultaneous.  One
  // fused sweep produces both dots.
  const auto [x_hat_ij, x_hat_ji] = linalg::DotPairRaw(
      u().data(), v_remote.data(), u_remote.data(), v().data(), rank());
  const double g_u = LossGradientScale(params.loss, x, x_hat_ij);
  const double g_v = LossGradientScale(params.loss, x, x_hat_ji);

  GradientStepU(g_u, v_remote, params);  // eq. 9
  GradientStepV(g_v, u_remote, params);  // eq. 10 (x_ji = x_ij for RTT)
}

void DmfsgdNode::AbwProberUpdate(double x, std::span<const double> v_remote,
                                 const UpdateParams& params) {
  RequireRank(v_remote.size());
  const double x_hat = linalg::DotRaw(u().data(), v_remote.data(), rank());
  const double g = LossGradientScale(params.loss, x, x_hat);
  GradientStepU(g, v_remote, params);  // eq. 12
}

void DmfsgdNode::AbwTargetUpdate(double x, std::span<const double> u_remote,
                                 const UpdateParams& params) {
  RequireRank(u_remote.size());
  const double x_hat = linalg::DotRaw(u_remote.data(), v().data(), rank());
  const double g = LossGradientScale(params.loss, x, x_hat);
  GradientStepV(g, u_remote, params);  // eq. 13
}

void DmfsgdNode::GradientStepU(double g, std::span<const double> v_remote,
                               const UpdateParams& params) {
  // u_i = (1 - ηλ) u_i - η g v_remote, fused into one pass over u_i.
  linalg::DecayAxpyRaw(1.0 - params.eta * params.lambda, -params.eta * g,
                       v_remote.data(), MutableU().data(), rank());
}

void DmfsgdNode::GradientStepV(double g, std::span<const double> u_remote,
                               const UpdateParams& params) {
  // v_i = (1 - ηλ) v_i - η g u_remote, fused into one pass over v_i.
  linalg::DecayAxpyRaw(1.0 - params.eta * params.lambda, -params.eta * g,
                       u_remote.data(), MutableV().data(), rank());
}

void DmfsgdNode::AccumulateRttUpdate(double x, std::span<const double> u_remote,
                                     std::span<const double> v_remote,
                                     const UpdateParams& params,
                                     GradientStepBatch& du,
                                     GradientStepBatch& dv) const {
  RequireRank(u_remote.size());
  RequireRank(v_remote.size());
  // Same fused dot pair as RttUpdate, but both scales are evaluated at the
  // node's pre-batch coordinates — every message of a mini-batch sees the
  // same u_i, v_i (the mini-batch contract, DESIGN.md §13).
  const auto [x_hat_ij, x_hat_ji] = linalg::DotPairRaw(
      u().data(), v_remote.data(), u_remote.data(), v().data(), rank());
  du.Accumulate(LossGradientScale(params.loss, x, x_hat_ij), v_remote);
  dv.Accumulate(LossGradientScale(params.loss, x, x_hat_ji), u_remote);
}

void DmfsgdNode::AccumulateAbwProberUpdate(double x,
                                           std::span<const double> v_remote,
                                           const UpdateParams& params,
                                           GradientStepBatch& du) const {
  RequireRank(v_remote.size());
  const double x_hat = linalg::DotRaw(u().data(), v_remote.data(), rank());
  du.Accumulate(LossGradientScale(params.loss, x, x_hat), v_remote);
}

void DmfsgdNode::AccumulateAbwTargetUpdate(double x,
                                           std::span<const double> u_remote,
                                           const UpdateParams& params,
                                           GradientStepBatch& dv) const {
  RequireRank(u_remote.size());
  const double x_hat = linalg::DotRaw(u_remote.data(), v().data(), rank());
  dv.Accumulate(LossGradientScale(params.loss, x, x_hat), u_remote);
}

void DmfsgdNode::ApplyBatchU(GradientStepBatch& du, const UpdateParams& params) {
  RequireRank(du.rank());
  du.ApplyTo(MutableU(), params);
}

void DmfsgdNode::ApplyBatchV(GradientStepBatch& dv, const UpdateParams& params) {
  RequireRank(dv.rank());
  dv.ApplyTo(MutableV(), params);
}

double DmfsgdNode::LocalLoss(double x, std::span<const double> v_remote,
                             const UpdateParams& params) const {
  RequireRank(v_remote.size());
  const double x_hat = linalg::Dot(u(), v_remote);
  return LossValue(params.loss, x, x_hat) +
         params.lambda * linalg::SquaredNorm(u());
}

}  // namespace dmfsgd::core
