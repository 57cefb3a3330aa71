// The shared DMFSGD deployment core.
//
// Both deployment drivers — the round-based DmfsgdSimulation (paper §5.3)
// and the event-driven AsyncDmfsgdSimulation (§6.1's asynchronous regime) —
// are thin timing loops over this engine.  The engine owns everything the
// paper's protocol defines, independent of timing:
//
//  * membership: per-node random neighbor sets over measurable pairs,
//    churn (a node leaving and a fresh one joining in its place);
//  * probe scheduling policy: which neighbor a node probes next
//    (uniform random / round robin / loss driven);
//  * the measurement pipeline: ground-truth lookup or trace override,
//    error injection, classification vs τ-normalized regression targets;
//  * message-loss semantics: each protocol leg is dropped independently and
//    a lost leg loses exactly the updates a real deployment would lose;
//  * the Algorithm 1/2 exchange state machines (eqs. 9-13), reacting to
//    protocol messages delivered by a pluggable DeliveryChannel.
//
// Because the engine only ever *reacts to delivered messages*, the same
// code runs atomically (immediate channel), with one-way delays and stale
// snapshots (event-queue channel), through the binary codec (wire-codec
// decorator), or over real UDP sockets (transport/udp_channel.hpp).  That
// is the paper's central claim — DMFSGD does not care how its exchanges are
// scheduled — made structural.
//
// Coordinates live in a structure-of-arrays CoordinateStore; DmfsgdNode
// objects are row views, so the SGD inner loop walks contiguous memory.
//
// ## Determinism contract (DESIGN.md §6, §9, §14) — callers must not break it
//
// The engine offers two execution regimes and each one's reproducibility
// rests on invariants that belong to the *caller* as much as to the engine:
//
//  * Shared stream (RunRounds / event-driven RunUntil): all randomness flows
//    through the single engine stream `rng()`; a run is a pure function of
//    (seed, dataset, channel stack).  Callers must not draw from `rng()`
//    out of band between protocol steps, or two same-seed runs diverge.
//    CompiledRoundSweep draws sequentially and then executes the round on
//    a thread pool in a schedule that is serially equivalent to the
//    one-exchange-at-a-time round (DESIGN.md §14), so its result does not
//    depend on the pool size either.
//  * Per-node streams (ParallelRoundSweep, sharded event drains): every
//    node draws from a private decorrelated stream (`NodeRng`), advanced
//    only by that node's own protocol activity, and every remote coordinate
//    a node consumes is a snapshot captured at a deterministic point — the
//    start of the round (Algorithm 1), the exchange's position in its
//    target's ascending-prober group (Algorithm 2), or the message send
//    time (sharded async drain).
//
// The round sweeps update through the scalar kernel table, so results are
// bit-identical for every thread-pool size and every active kernel ISA.
// Callers must not read or mutate engine state (coordinates, membership,
// counters) from outside while a pooled call is in flight, and must not mix
// the per-node streams into shared-stream paths.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "common/rng.hpp"
#include "core/coordinate_store.hpp"
#include "core/delivery.hpp"
#include "core/error_injection.hpp"
#include "core/node.hpp"
#include "core/protocol_config.hpp"
#include "core/round_compiler.hpp"
#include "datasets/dataset.hpp"

namespace dmfsgd::common {
class ThreadPool;
}

namespace dmfsgd::core {

enum class PredictionMode {
  kClassification,  ///< train on ±1 labels (hinge/logistic)
  kRegression,      ///< train on τ-normalized quantities (L2)
};

/// How a node picks which neighbor to probe next (the paper uses uniform
/// random; the alternatives are extensions inspired by the active sampling
/// of Rish & Tesauro [20] that the related-work section contrasts against).
enum class ProbeStrategy {
  kUniformRandom,  ///< paper default: uniform over the neighbor set
  kRoundRobin,     ///< deterministic cycling through the neighbor set
  kLossDriven,     ///< mostly probe the neighbor with the highest local loss
};

/// Human-readable strategy name.
[[nodiscard]] const char* ProbeStrategyName(ProbeStrategy strategy) noexcept;

/// The simulation drivers' deployment config: the shared protocol knobs
/// (rank, η/λ/loss, τ, seed, probe_burst, coalesce_delivery — see
/// core/protocol_config.hpp; validated by the one shared
/// ValidateProtocolConfig) plus the driver-specific knobs below.
///
/// Driver semantics of the inherited knobs:
///  * probe_burst — exchanges per probe slot (per round here, per timer
///    firing in the async driver).  Bursts run only through the
///    per-message round driver (CompiledRoundSweep and ParallelRoundSweep
///    reject probe_burst > 1).
///  * coalesce_delivery — the round driver flushes each node's burst
///    through a CoalescingDeliveryChannel; the async driver merges
///    same-destination same-arrival-time messages into one event.  With
///    gradient_batch_size == 1 the drains are bit-identical to
///    per-message delivery (DESIGN.md §13).
struct SimulationConfig : ProtocolConfig {
  PredictionMode mode = PredictionMode::kClassification;
  std::size_t neighbor_count = 10; ///< k
  double message_loss = 0.0;       ///< per-leg drop probability in [0, 1)
  bool use_wire_format = false;    ///< serialize every exchange through wire.hpp
  ProbeStrategy strategy = ProbeStrategy::kUniformRandom;
  /// Per-round probability that a node churns (leaves and is replaced by a
  /// fresh node with new random coordinates and a new neighbor set) — the
  /// P2P membership dynamics a deployed system faces.  The async driver
  /// applies it per probe firing, its per-node scheduling unit.
  double churn_rate = 0.0;
  /// Exploration probability of the loss-driven strategy.
  double exploration = 0.3;

  /// Opt-in mini-batch receive mode (> 1): the engine folds runs of
  /// consecutive same-kind replies inside one delivered envelope into a
  /// single accumulated gradient step (GradientStepBatch), chunked at this
  /// size.  At 1 (default) every message applies its own step — the paper's
  /// per-measurement update — and results are bit-identical to the
  /// pre-batch engine.  Must be >= 1.
  std::size_t gradient_batch_size = 1;
};

class DeploymentEngine {
 public:
  /// Builds the deployment state (nodes with random coordinates, random
  /// neighbor sets over pairs with known ground truth) and binds the
  /// engine's protocol dispatcher as the channel's sink.  `dataset`,
  /// `injector` (if given) and `channel` must outlive the engine.  Throws
  /// std::invalid_argument on a bad config or injector mismatch.
  DeploymentEngine(const datasets::Dataset& dataset, const SimulationConfig& config,
                   const ErrorInjector* injector, DeliveryChannel& channel);

  // Self-referential by design: the channel sink captures `this` and every
  // node views the engine's store.  Moving or copying would dangle both.
  DeploymentEngine(const DeploymentEngine&) = delete;
  DeploymentEngine& operator=(const DeploymentEngine&) = delete;
  DeploymentEngine(DeploymentEngine&&) = delete;
  DeploymentEngine& operator=(DeploymentEngine&&) = delete;

  // -- membership ----------------------------------------------------------

  /// Simulates node i leaving and a fresh node joining in its place: new
  /// random coordinates, a new random neighbor set, reset probing state.
  void ResetNode(NodeId i);

  /// Rolls churn for every node (one round's worth of membership dynamics).
  void ChurnSweep();

  /// Rolls churn for a single node (the async driver's per-probe unit).
  /// Returns whether the node churned.
  bool MaybeChurnNode(NodeId i);

  /// MaybeChurnNode against an explicit RNG stream; sharded drains pass the
  /// node's private stream so churn stays a pure function of the node's own
  /// history.  The churn counter routes per-node while a sharded drain is
  /// active.
  bool MaybeChurnNodeWith(NodeId i, common::Rng& rng);

  /// Picks the neighbor node i probes next, per the configured strategy.
  [[nodiscard]] NodeId PickNeighbor(NodeId i);

  /// PickNeighbor against an explicit RNG stream (the per-node-stream paths
  /// hand each node its own; the shared-stream paths pass rng()).  Mutates only
  /// node-owned probing state (round-robin cursor), so concurrent calls for
  /// distinct nodes are safe.
  [[nodiscard]] NodeId PickNeighborWith(NodeId i, common::Rng& rng);

  /// Node i's private decorrelated RNG stream (derived from the run seed,
  /// advanced only by node i's own draws).  Built lazily for all nodes on
  /// first use — the build itself is not thread-safe; parallel drivers
  /// trigger it up front (BeginShardedDrain / ParallelRoundSweep do).
  [[nodiscard]] common::Rng& NodeRng(NodeId i);

  // -- protocol ------------------------------------------------------------

  /// Launches one Algorithm-1 (RTT datasets) or Algorithm-2 (ABW) exchange
  /// i -> j through the delivery channel.  `observed_quantity` overrides the
  /// static matrix during trace replay; it is only meaningful on channels
  /// that complete the exchange within this call (immediate delivery).
  void StartExchange(NodeId i, NodeId j, std::optional<double> observed_quantity);

  /// Runs one full probing round — churn sweep, then every node probes one
  /// neighbor — with the per-node work spread over `pool`.  Every node draws
  /// its randomness (neighbor choice, per-leg loss) from a private RNG
  /// stream, which makes the round independent of node visit order; the
  /// result is bit-identical for every pool size.  The trajectory differs
  /// from RunRounds (which serves mid-round coordinates and shares one RNG
  /// stream).  Counters (measurements, dropped legs) are updated exactly as
  /// a per-message round would.  The
  /// channel stack is bypassed — this is a perf path for the round driver,
  /// not a delivery channel.  Updates run through the scalar kernel table,
  /// so the active ISA never changes a bit.  One schedule per algorithm,
  /// picked by the dataset's metric (DESIGN.md §14):
  ///
  ///  * Algorithm 1 (prober-measured, RTT): each node's exchange writes only
  ///    its own rows, so one ParallelFor suffices (its blocks draw, then
  ///    update, 64 nodes at a time); every reply is a snapshot captured at
  ///    the start of the round (the §6.1 staleness regime).
  ///  * Algorithm 2 (target-measured, ABW): an exchange i -> j writes u_i at
  ///    the prober *and* v_j at the target.  After a parallel draw pass the
  ///    surviving exchanges are grouped by target row (row-major COO,
  ///    stable by prober order) and one ParallelFor sweeps contiguous
  ///    target ranges — each range owns its targets' v rows and their
  ///    probers' u rows, so no barriers are needed.  Within one exchange
  ///    the per-message order is reproduced exactly: the target consumes the
  ///    probe's u_i and updates v_j, the prober consumes the pre-update v_j;
  ///    same-target updates apply in ascending prober order.
  void ParallelRoundSweep(common::ThreadPool& pool);

  /// Runs one full probing round through the sparse round compiler
  /// (DESIGN.md §14): churn sweep, then a sequential *gather* pass that
  /// consumes the shared RNG stream in exactly the per-message order (pick,
  /// leg-1 roll, leg-2 roll per exchange) while collecting the surviving
  /// exchanges as COO edges, then an *execute* pass over `pool` that
  /// replays the gathered edges as fused kernel sweeps with no channel, no
  /// variant dispatch and no per-message coordinate copies:
  ///
  ///  * Algorithm 1: consecutive windows of edges, one after another; inside
  ///    a window the conflict components (the edge of prober p joined with
  ///    the edge of prober t_p) run in parallel, each in ascending edge
  ///    order — serially equivalent to replaying the edges in order;
  ///  * Algorithm 2: the row-major target-group sweep ParallelRoundSweep
  ///    also runs.
  ///
  /// With the scalar `kernels` table the result is bit-identical to a
  /// per-message round over an immediate channel (counters included) at
  /// every pool size; vector tables differ only in dot accumulation order.
  /// Rejects probe_burst > 1 (the compiled gather models one exchange per
  /// node per round).
  void CompiledRoundSweep(common::ThreadPool& pool,
                          const linalg::KernelOps& kernels);

  // -- sharded event drains ------------------------------------------------

  /// Enters sharded-drain mode for a parallel event-queue drain
  /// (DESIGN.md §9): builds the per-node RNG streams, zeroes the per-node
  /// counter slots, and reroutes every handler-side draw (leg loss) and
  /// counter bump to the node the handler runs at, so concurrent handlers
  /// for distinct nodes never share mutable state.  While active, trace
  /// replay is rejected and the scalar counters are stale.  Throws
  /// std::logic_error if already active.
  void BeginShardedDrain();

  /// Leaves sharded-drain mode and folds the per-node counter slots back
  /// into the scalar counters (integer sums — deterministic regardless of
  /// which thread bumped what).
  void EndShardedDrain();

  [[nodiscard]] bool ShardedDrainActive() const noexcept {
    return sharded_drain_;
  }

  // -- coordinate drift tracking (the ANN query plane's feed, DESIGN.md §16)

  /// Starts recording which nodes' coordinate rows training writes, so a
  /// proximity index can absorb drift incrementally instead of rescanning
  /// the store.  Marks live in a per-node byte array attributed to the node
  /// whose rows changed — the same ownership discipline as the per-node
  /// counter slots, so every parallel path stays race-free.  Marking never
  /// touches an RNG stream or any coordinate arithmetic: a run with
  /// tracking enabled is bit-identical to the same run without it.
  void EnableDriftTracking();

  [[nodiscard]] bool DriftTrackingEnabled() const noexcept {
    return drift_tracking_;
  }

  /// Drains the dirty set: ids whose u or v row changed since the last
  /// take (or since EnableDriftTracking), ascending — deterministic hand-
  /// off order for index maintenance.  The parallel sweeps publish their
  /// marks before returning, so after any driver call the set is complete.
  /// Throws std::logic_error if tracking was never enabled.
  [[nodiscard]] std::vector<NodeId> TakeDirtyNodes();

  // -- warm restart (the snapshot plane's hook, DESIGN.md §17) --------------

  /// Overwrites every coordinate row with `snapshot`'s — the service's
  /// restart path: a freshly built engine adopts the learned factors a
  /// recovered snapshot carries.  Only coordinates are restored; membership,
  /// probing state and counters keep their freshly-seeded values (both are
  /// pure functions of the config seed, so a restarted deployment is still
  /// deterministic).  Marks every row dirty when drift tracking is enabled,
  /// so a proximity index built before the restore absorbs it.  Throws
  /// std::invalid_argument on a shape mismatch.
  void RestoreCoordinates(const CoordinateStore& snapshot);

  // -- queries -------------------------------------------------------------

  /// x̂_ij = u_i · v_j.  Throws std::out_of_range on bad indices.
  [[nodiscard]] double Predict(std::size_t i, std::size_t j) const;
  [[nodiscard]] const DmfsgdNode& node(std::size_t i) const;
  [[nodiscard]] bool IsNeighborPair(std::size_t i, std::size_t j) const;
  [[nodiscard]] const std::vector<std::vector<NodeId>>& Neighbors() const noexcept {
    return neighbors_;
  }
  [[nodiscard]] std::size_t NodeCount() const noexcept { return nodes_.size(); }
  [[nodiscard]] const datasets::Dataset& dataset() const noexcept {
    return *dataset_;
  }
  [[nodiscard]] const SimulationConfig& config() const noexcept { return config_; }
  [[nodiscard]] const CoordinateStore& store() const noexcept { return store_; }

  [[nodiscard]] std::size_t MeasurementCount() const noexcept {
    return measurement_count_;
  }
  [[nodiscard]] double AverageMeasurementsPerNode() const noexcept;
  [[nodiscard]] std::size_t DroppedLegs() const noexcept { return dropped_legs_; }
  [[nodiscard]] std::size_t ChurnCount() const noexcept { return churn_count_; }
  /// Exchanges currently in flight (started, not yet resolved or dropped).
  [[nodiscard]] std::size_t InFlight() const noexcept { return in_flight_; }

  /// The deployment's RNG stream; drivers draw think times etc. from it so a
  /// single seed determines an entire run.
  [[nodiscard]] common::Rng& rng() noexcept { return rng_; }

 private:
  void RebuildNeighborSet(NodeId i);
  void RebuildNeighborSetWith(NodeId i, common::Rng& rng);
  void ResetNodeWith(NodeId i, common::Rng& rng);

  /// Builds per_node_rng_ (and the per-node sweep scratch) if absent.
  void EnsurePerNodeStreams();

  /// The Algorithm-2 half of ParallelRoundSweep: draws, then the row-major
  /// target-group sweep.
  void ParallelTargetGroupSweep(common::ThreadPool& pool);

  /// CompiledRoundSweep's Algorithm-1 execute: the windowed component
  /// schedule over the gathered edges.
  void ExecuteCompiledRttRound(common::ThreadPool& pool,
                               const linalg::KernelOps& kernels);

  /// The Algorithm-2 execute both round sweeps share: groups round_coo_ by
  /// target and sweeps contiguous target ranges over `pool`, then reduces
  /// the measurement counter and drift marks.
  void ExecuteTargetGroups(common::ThreadPool& pool,
                           const linalg::KernelOps& kernels);

  /// The training value for pair (i, j): class label (possibly corrupted) or
  /// τ-normalized quantity (the DESIGN.md §3 substitution).
  [[nodiscard]] double MeasurementFor(std::size_t i, std::size_t j,
                                      std::optional<double> observed_quantity) const;
  [[nodiscard]] bool LegLost();

  /// Leg-loss roll attributed to the node whose handler rolls it: the shared
  /// stream + scalar counter normally, the node's private stream + per-node
  /// slot during a sharded drain.
  [[nodiscard]] bool LegLostFor(NodeId who);

  /// Measurement-counter bump attributed to the consuming node.
  void CountMeasurementAt(NodeId who);

  /// Marks one in-flight exchange finished (saturating at zero — datagram
  /// transports can duplicate replies).
  void ResolveExchange();

  /// ResolveExchange attributed to the resolving handler's node.
  void ResolveExchangeAt(NodeId who);

  /// Channel sink: dispatches a delivered envelope.  In per-message mode
  /// (gradient_batch_size == 1) every item runs its own handler in order —
  /// exactly the pre-batch semantics; in mini-batch mode consecutive
  /// same-kind reply runs fold into accumulated steps (DESIGN.md §13).
  void OnBatch(const MessageBatch& batch);
  void OnMessage(NodeId from, NodeId to, const ProtocolMessage& message);
  void HandleRttRequest(NodeId prober, NodeId target);
  void HandleRttReply(NodeId prober, const RttProbeReply& reply);
  void HandleAbwRequest(NodeId target, const AbwProbeRequest& request);
  void HandleAbwReply(NodeId prober, const AbwProbeReply& reply);

  /// Mini-batch folds over a consecutive run of same-kind items starting at
  /// `start`; each returns the index one past the run.  Handlers for other
  /// kinds and single-item runs go through the per-message path (whose
  /// arithmetic a one-item fold would only reproduce approximately).
  std::size_t FoldRttReplies(const MessageBatch& batch, std::size_t start);
  std::size_t FoldAbwReplies(const MessageBatch& batch, std::size_t start);
  std::size_t FoldAbwRequests(const MessageBatch& batch, std::size_t start);

  /// Feeds the loss-driven strategy after a completed exchange.
  void RecordNeighborLoss(NodeId i, NodeId j, double x,
                          std::span<const double> v_remote);

  const datasets::Dataset* dataset_;
  SimulationConfig config_;
  const ErrorInjector* injector_;
  DeliveryChannel* channel_;
  common::Rng rng_;
  bool abw_;  ///< Algorithm 2 (target-measured) vs Algorithm 1

  CoordinateStore store_;
  std::vector<DmfsgdNode> nodes_;
  std::vector<std::vector<NodeId>> neighbors_;
  std::vector<std::size_t> round_robin_cursor_;     // per node
  std::vector<std::vector<double>> neighbor_loss_;  // per node, per neighbor

  /// Trace-replay override for the RTT reply handler; only valid while an
  /// immediate-delivery exchange is executing (set/cleared by StartExchange,
  /// which throws if a supplied override was neither consumed nor lost).
  std::optional<double> trace_observed_;
  bool trace_observed_consumed_ = false;

  std::size_t measurement_count_ = 0;
  std::size_t dropped_legs_ = 0;
  std::size_t churn_count_ = 0;
  std::size_t in_flight_ = 0;

  // Parallel-path state, built lazily on first use: one decorrelated RNG
  // stream per node (advanced only by that node's draws), the Algorithm-1
  // start-of-round coordinate snapshot, and per-node scratch (exchange
  // outcomes / chosen targets) reduced sequentially after joins.
  std::vector<common::Rng> per_node_rng_;
  std::vector<double> sweep_u_;
  std::vector<double> sweep_v_;
  std::vector<unsigned char> sweep_state_;
  std::vector<NodeId> sweep_target_;

  /// Round-compiler COO buffer (DESIGN.md §14), reused across rounds.
  RoundCoo round_coo_;

  // Sharded-drain state: per-node counter slots, cache-line separated so
  // handlers on different shards never share a line.  Folded into the scalar
  // counters by EndShardedDrain.
  struct alignas(64) NodeCounters {
    std::uint64_t measurements = 0;
    std::uint64_t dropped_legs = 0;
    std::uint64_t started = 0;
    std::uint64_t resolved = 0;
    std::uint64_t churns = 0;
  };
  bool sharded_drain_ = false;
  std::vector<NodeCounters> node_counters_;

  /// Marks node i's rows as written (no-op unless tracking is enabled).
  /// Callable from handler context: the byte belongs to the node whose
  /// handler runs, so sharded drains never race on it, and the parallel
  /// sweeps mark sequentially after their joins.
  void MarkDirty(std::size_t i) noexcept {
    if (drift_tracking_) {
      dirty_rows_[i] = 1;
    }
  }
  bool drift_tracking_ = false;
  std::vector<unsigned char> dirty_rows_;
};

}  // namespace dmfsgd::core
