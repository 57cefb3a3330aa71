// Structure-of-arrays storage for the DMFSGD coordinate factors.
//
// Every node owns two length-r rows, u_i and v_i (the i-th rows of U and V).
// Storing each factor as one contiguous buffer — instead of two heap vectors
// per node — keeps the SGD inner loop on cache lines that prefetch cleanly
// when a deployment sweeps its nodes, and gives snapshots, the batch-MF
// bridge and the benches a single flat view of the whole factor.
//
// Rows are exposed as spans.  The store never reallocates after
// construction/Reset, so row spans stay valid for the store's lifetime —
// exactly what DmfsgdNode (a view over one row) and the deployment engine
// rely on.
//
// ## Concurrency / determinism contract (DESIGN.md §6, §9, §14)
//
// The store itself takes no locks; the engine's parallel paths stay
// race-free and bit-identical across pool sizes purely through *row
// ownership*, which callers must respect:
//
//  * a row pair (u_i, v_i) is written only by tasks that own node i — one
//    task per node in the Algorithm-1 sweep, the target-row range holding
//    v_i (and the u rows of v_i's probers) in the Algorithm-2 target-group
//    schedule, the owner shard in an async drain;
//  * concurrent *reads* of remote rows are only safe against snapshots
//    (the sweep's start-of-round copy, protocol-message copies), never
//    against rows another live task may be updating;
//  * RandomizeRow draws from the RNG stream passed in — during parallel
//    execution that must be the owning node's private stream, or results
//    depend on thread interleaving.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "linalg/kernels.hpp"

namespace dmfsgd::common {
class Rng;
}

namespace dmfsgd::core {

class CoordinateStore {
 public:
  /// Empty store (0 nodes, rank 0).
  CoordinateStore() = default;

  /// `node_count` rows of `rank` doubles per factor, zero-initialized.
  /// Requires rank > 0.
  CoordinateStore(std::size_t node_count, std::size_t rank);

  [[nodiscard]] std::size_t NodeCount() const noexcept {
    return rank_ == 0 ? 0 : u_data_.size() / rank_;
  }
  [[nodiscard]] std::size_t rank() const noexcept { return rank_; }

  /// Row views; unchecked in release-style hot paths, so callers validate
  /// indices at API boundaries.
  [[nodiscard]] std::span<double> U(std::size_t i) noexcept {
    return {u_data_.data() + i * rank_, rank_};
  }
  [[nodiscard]] std::span<const double> U(std::size_t i) const noexcept {
    return {u_data_.data() + i * rank_, rank_};
  }
  [[nodiscard]] std::span<double> V(std::size_t i) noexcept {
    return {v_data_.data() + i * rank_, rank_};
  }
  [[nodiscard]] std::span<const double> V(std::size_t i) const noexcept {
    return {v_data_.data() + i * rank_, rank_};
  }

  /// Whole-factor views (row-major, stride = rank).
  [[nodiscard]] std::span<const double> UData() const noexcept { return u_data_; }
  [[nodiscard]] std::span<const double> VData() const noexcept { return v_data_; }
  [[nodiscard]] std::span<double> UData() noexcept { return u_data_; }
  [[nodiscard]] std::span<double> VData() noexcept { return v_data_; }

  /// Fills u_i then v_i with uniform random values in [0, 1) — the paper's
  /// initialization (§5.3), also used when a churned node rejoins fresh.
  void RandomizeRow(std::size_t i, common::Rng& rng);

  // -- drift hooks (the ANN query plane's snapshot primitives, DESIGN.md
  // §16): an index keeps per-member copies of v rows and decides whether a
  // member's row moved far enough to re-link its edges.

  /// Copies the live v_i into `out` (a drift snapshot).  Requires
  /// out.size() == rank.
  void CopyVRow(std::size_t i, std::span<double> out) const;

  /// Squared L2 distance between the live v_i and a snapshot row — the
  /// drift an index compares against its epsilon.  Requires
  /// snapshot.size() == rank.
  [[nodiscard]] double VRowDriftSquared(std::size_t i,
                                        std::span<const double> snapshot) const;

  /// Discards all rows and reshapes the store.  Invalidates row spans.
  void Reset(std::size_t node_count, std::size_t rank);

  /// x̂_ij = u_i · v_j straight from the flat buffers.  Throws
  /// std::out_of_range on bad indices.
  [[nodiscard]] double Predict(std::size_t i, std::size_t j) const;

  /// Predict without the bounds check — the O(n²r) evaluation sweeps
  /// (snapshots, full-matrix metrics) validate i and j once at the sweep
  /// boundary instead of per pair.  Requires i, j < NodeCount().
  [[nodiscard]] double PredictUnchecked(std::size_t i, std::size_t j) const noexcept {
    return linalg::DotRaw(u_data_.data() + i * rank_, v_data_.data() + j * rank_,
                          rank_);
  }

 private:
  std::size_t rank_ = 0;
  std::vector<double> u_data_;
  std::vector<double> v_data_;
};

}  // namespace dmfsgd::core
