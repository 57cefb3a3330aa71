// Round-based DMFSGD deployment driver (paper §5.3 and §6.1).
//
// A thin timing loop over the shared deployment core (core/engine.hpp):
//
//  * static datasets (Meridian, HP-S3) are driven in rounds — per round each
//    node probes one neighbor chosen by the configured strategy, so after R
//    rounds the average measurement count per node is R (the x-axis of
//    Figure 5(c) in units of k is R/k);
//  * the dynamic Harvard trace is replayed in timestamp order; a record
//    (src, dst) is usable only if dst is in src's neighbor set, which yields
//    the uneven per-node measurement counts of the paper's footnote 4.
//
// Exchanges are delivered atomically through an ImmediateDeliveryChannel;
// with `use_wire_format` every message additionally round-trips through the
// binary wire codec (a WireCodecDeliveryChannel decorator), proving the
// protocol is implementable over a datagram transport.  Where no decorator
// or burst needs the channel, RunRounds skips it and runs each round as one
// compiled sweep (DESIGN.md §14) over a thread pool, with the same bits at
// every pool size.  All protocol,
// membership, measurement and loss semantics live in the engine and are
// shared verbatim with the asynchronous driver (async_simulation.hpp).
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "common/thread_pool.hpp"
#include "core/engine.hpp"

namespace dmfsgd::core {

class DmfsgdSimulation {
 public:
  /// Builds the deployment: nodes with random coordinates and random
  /// neighbor sets (only pairs with known ground truth are eligible).
  /// `injector`, if given, must outlive the simulation and is consulted for
  /// every classification measurement.
  DmfsgdSimulation(const datasets::Dataset& dataset, const SimulationConfig& config,
                   const ErrorInjector* injector = nullptr);

  /// Runs `rounds` probing rounds (static datasets); in each round every
  /// node probes one neighbor.  Usable with trace datasets too (the static
  /// median matrix is then the measurement source).  Runs the compiled
  /// round sweep with the scalar kernel table over Pool() whenever the
  /// config allows it (probe_burst == 1, no coalescing, no wire codec),
  /// else the per-message loop; the two are bit-identical, so the result
  /// depends on neither the path, the pool size nor the active kernel ISA
  /// (DESIGN.md §14).
  void RunRounds(std::size_t rounds);

  /// RunRounds with the compiled sweep spread over `pool` instead of
  /// Pool() — the same bits at any pool size.
  void RunRounds(std::size_t rounds, common::ThreadPool& pool);

  /// RunRounds through the channel stack, one message at a time — the path
  /// for probe bursts, coalesced delivery and the wire codec, and the
  /// parity oracle of the compiled round sweep.
  void RunRoundsPerMessage(std::size_t rounds);

  /// The simulation's hardware-thread pool, created on first use (the
  /// first compiled RunRounds, or a caller such as the service that runs
  /// its own parallel work on it).  Construction never creates it.  Not
  /// reentrant: nothing may enter it while RunRounds runs.
  [[nodiscard]] common::ThreadPool& Pool();

  /// Runs `rounds` probing rounds with each round's per-node sweep spread
  /// over `pool`.  Bit-identical for every pool size and kernel ISA — see
  /// DeploymentEngine::ParallelRoundSweep for the exact semantics: per-node
  /// RNG streams and start-of-round reply snapshots (Algorithm 1), or the
  /// row-major target-group schedule of DESIGN.md §14 (Algorithm 2).  A
  /// different trajectory from RunRounds (per-node streams, not the shared
  /// one).  Requires probe_burst == 1.
  void RunRoundsParallel(std::size_t rounds, common::ThreadPool& pool);

  /// Replays trace records [begin, end) in time order; returns the number of
  /// records that were usable (dst in src's neighbor set) and applied.
  /// Throws std::logic_error if the dataset has no trace.
  std::size_t ReplayTrace(std::size_t begin, std::size_t end);

  /// Replays the whole trace.
  std::size_t ReplayTrace();

  // -- push ingest (the resident service's front door, DESIGN.md §17) ------

  /// Launches one exchange i -> j through the channel stack — a single
  /// pushed measurement instead of a whole round.  `observed_quantity`
  /// overrides the dataset matrix (a caller-supplied live measurement); it
  /// requires per-message delivery, exactly like trace replay.  Returns
  /// whether a measurement was applied (a lost leg loses it, as always).
  bool Ingest(NodeId i, NodeId j, std::optional<double> observed_quantity);

  /// Push-ingest with the engine picking i's next target per the configured
  /// probe strategy (the active-probing unit of a resident node).  Returns
  /// the chosen target.
  NodeId IngestProbe(NodeId i);

  /// Overwrites every coordinate row from `snapshot` — the service's warm
  /// restart (see DeploymentEngine::RestoreCoordinates for the exact
  /// semantics).  Throws std::invalid_argument on a shape mismatch.
  void RestoreCoordinates(const CoordinateStore& snapshot) {
    engine_.RestoreCoordinates(snapshot);
  }

  /// x̂_ij = u_i · v_j.
  [[nodiscard]] double Predict(std::size_t i, std::size_t j) const {
    return engine_.Predict(i, j);
  }

  /// Total measurements applied (lost exchanges don't count).
  [[nodiscard]] std::size_t MeasurementCount() const noexcept {
    return engine_.MeasurementCount();
  }

  /// MeasurementCount() / node count — the x-axis of Figure 5(c).
  [[nodiscard]] double AverageMeasurementsPerNode() const noexcept {
    return engine_.AverageMeasurementsPerNode();
  }

  /// Protocol legs dropped by the loss model.
  [[nodiscard]] std::size_t DroppedLegs() const noexcept {
    return engine_.DroppedLegs();
  }

  [[nodiscard]] const datasets::Dataset& dataset() const noexcept {
    return engine_.dataset();
  }
  [[nodiscard]] const SimulationConfig& config() const noexcept {
    return engine_.config();
  }
  [[nodiscard]] std::size_t NodeCount() const noexcept {
    return engine_.NodeCount();
  }
  [[nodiscard]] const DmfsgdNode& node(std::size_t i) const {
    return engine_.node(i);
  }

  /// Neighbor sets (sorted); index = node id.
  [[nodiscard]] const std::vector<std::vector<NodeId>>& Neighbors() const noexcept {
    return engine_.Neighbors();
  }

  /// True if j is in i's neighbor set (i.e. (i, j) is a training pair).
  [[nodiscard]] bool IsNeighborPair(std::size_t i, std::size_t j) const {
    return engine_.IsNeighborPair(i, j);
  }

  /// Simulates node i leaving and a fresh node joining in its place: new
  /// random coordinates, a new random neighbor set, reset probing state.
  void ResetNode(NodeId i) { engine_.ResetNode(i); }

  /// Total nodes churned so far (by churn_rate or explicit ResetNode).
  [[nodiscard]] std::size_t ChurnCount() const noexcept {
    return engine_.ChurnCount();
  }

  /// Coordinate drift tracking for the ANN query plane (DESIGN.md §16):
  /// enable before building a PeerIndex over store(), then drain the dirty
  /// set after each training slice and feed it to PeerIndex::ApplyUpdates.
  void EnableDriftTracking() { engine_.EnableDriftTracking(); }
  [[nodiscard]] std::vector<NodeId> TakeDirtyNodes() {
    return engine_.TakeDirtyNodes();
  }

  /// The shared deployment core (read access for snapshots and evaluation).
  [[nodiscard]] const DeploymentEngine& engine() const noexcept { return engine_; }

 private:
  [[nodiscard]] DeliveryChannel& BuildStack(const SimulationConfig& config);

  /// True when a burst or a channel decorator needs the per-message loop.
  [[nodiscard]] bool NeedsChannel() const noexcept;

  /// Channel stack: immediate delivery, optionally decorated by the wire
  /// codec, optionally wrapped outermost by the coalescing decorator
  /// (config.coalesce_delivery — RunRoundsPerMessage then flushes each
  /// node's probe burst as batch envelopes, DESIGN.md §13).  Declared
  /// before the engine, which binds its sink onto them.
  ImmediateDeliveryChannel immediate_;
  std::optional<WireCodecDeliveryChannel> wire_;
  std::optional<CoalescingDeliveryChannel> coalescing_;
  DeploymentEngine engine_;
  std::unique_ptr<common::ThreadPool> pool_;  ///< Pool(), built on first use
};

}  // namespace dmfsgd::core
