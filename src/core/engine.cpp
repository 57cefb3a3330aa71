#include "core/engine.hpp"

#include <algorithm>
#include <limits>
#include <stdexcept>

#include "common/thread_pool.hpp"
#include "linalg/kernels.hpp"
#include "linalg/vector_ops.hpp"

namespace dmfsgd::core {

namespace {

using datasets::Dataset;
using datasets::Metric;

/// Edges per conflict window of the Algorithm-1 execute (DESIGN.md §14).
/// Each window costs one fork-join.  Measured at n = 65536, k = 32 on a
/// 4-vCPU host with one fixed block of each window per thread: 4096-16384
/// ran within ~10% of each other on an idle host (1024 and 32768 were
/// slower), and with other processes competing for the cores 16384 held
/// up best.
constexpr std::size_t kRttWindow = 16384;
/// Component roots per claimed chunk: small enough that a core slowed by
/// other load holds up a window's join by one short chunk, large enough
/// that claiming costs nothing measurable.
constexpr std::size_t kRttChunk = 256;

/// Throwing pass-through so the config is validated before any member that
/// depends on it (the store sizes itself off config.rank) is built.  The
/// shared protocol knobs go through the one ValidateProtocolConfig; only the
/// driver-specific knobs are checked here.
const SimulationConfig& RequireConfig(const Dataset& dataset,
                                      const SimulationConfig& config) {
  ValidateProtocolConfig(config, "DeploymentEngine");
  if (config.neighbor_count == 0) {
    throw std::invalid_argument("DeploymentEngine: neighbor_count must be > 0");
  }
  if (config.neighbor_count >= dataset.NodeCount()) {
    throw std::invalid_argument(
        "DeploymentEngine: neighbor_count must be < node count");
  }
  if (config.message_loss < 0.0 || config.message_loss >= 1.0) {
    throw std::invalid_argument("DeploymentEngine: message_loss must be in [0, 1)");
  }
  if (config.churn_rate < 0.0 || config.churn_rate >= 1.0) {
    throw std::invalid_argument("DeploymentEngine: churn_rate must be in [0, 1)");
  }
  if (config.exploration < 0.0 || config.exploration > 1.0) {
    throw std::invalid_argument("DeploymentEngine: exploration must be in [0, 1]");
  }
  if (config.gradient_batch_size == 0) {
    throw std::invalid_argument(
        "DeploymentEngine: gradient_batch_size must be >= 1");
  }
  return config;
}

}  // namespace

const char* ProbeStrategyName(ProbeStrategy strategy) noexcept {
  switch (strategy) {
    case ProbeStrategy::kUniformRandom:
      return "uniform-random";
    case ProbeStrategy::kRoundRobin:
      return "round-robin";
    case ProbeStrategy::kLossDriven:
      return "loss-driven";
  }
  return "?";
}

DeploymentEngine::DeploymentEngine(const Dataset& dataset,
                                   const SimulationConfig& config,
                                   const ErrorInjector* injector,
                                   DeliveryChannel& channel)
    : dataset_(&dataset),
      config_(RequireConfig(dataset, config)),
      injector_(injector),
      channel_(&channel),
      rng_(config.seed),
      abw_(dataset.metric == Metric::kAbw),
      store_(dataset.NodeCount(), config.rank) {
  if (injector_ != nullptr && injector_->NodeCount() != dataset.NodeCount()) {
    throw std::invalid_argument(
        "DeploymentEngine: injector node count does not match the dataset");
  }

  const std::size_t n = dataset.NodeCount();
  nodes_.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    nodes_.emplace_back(static_cast<NodeId>(i), store_, i, rng_);
  }

  // Random neighbor sets, restricted to pairs with known ground truth
  // (HP-S3 has ~4% unmeasured pairs that can't be probed).
  neighbors_.resize(n);
  round_robin_cursor_.assign(n, 0);
  neighbor_loss_.resize(n);
  for (std::size_t i = 0; i < n; ++i) {
    RebuildNeighborSet(static_cast<NodeId>(i));
  }

  channel_->BindSink([this](const MessageBatch& batch) { OnBatch(batch); });
}

void DeploymentEngine::RebuildNeighborSet(NodeId i) {
  RebuildNeighborSetWith(i, rng_);
}

void DeploymentEngine::RebuildNeighborSetWith(NodeId i, common::Rng& rng) {
  const std::size_t n = nodes_.size();
  std::vector<NodeId> candidates;
  if (dataset_->Procedural()) {
    // Every off-diagonal pair is known by the procedural contract, so k
    // distinct neighbors come from rejection sampling: O(k) expected draws
    // instead of the O(n) candidate scan, which makes the construction
    // O(n·k) overall — the difference between feasible and not at the
    // bench-scale node counts the procedural datasets exist for.
    if (n - 1 < config_.neighbor_count) {
      throw std::invalid_argument(
          "DeploymentEngine: node has fewer measurable pairs than k");
    }
    candidates.reserve(config_.neighbor_count);
    while (candidates.size() < config_.neighbor_count) {
      const auto j = static_cast<NodeId>(rng.UniformInt(n));
      if (j != i &&
          std::find(candidates.begin(), candidates.end(), j) == candidates.end()) {
        candidates.push_back(j);
      }
    }
  } else {
    candidates.reserve(n - 1);
    for (std::size_t j = 0; j < n; ++j) {
      if (j != i && dataset_->IsKnown(i, j)) {
        candidates.push_back(static_cast<NodeId>(j));
      }
    }
    if (candidates.size() < config_.neighbor_count) {
      throw std::invalid_argument(
          "DeploymentEngine: node has fewer measurable pairs than k");
    }
    rng.Shuffle(std::span(candidates));
    candidates.resize(config_.neighbor_count);
  }
  std::sort(candidates.begin(), candidates.end());
  neighbors_[i] = std::move(candidates);
  round_robin_cursor_[i] = 0;
  // Unprobed neighbors carry +inf loss so the loss-driven strategy visits
  // everyone at least once before exploiting.
  neighbor_loss_[i].assign(config_.neighbor_count,
                           std::numeric_limits<double>::infinity());
}

void DeploymentEngine::ResetNode(NodeId i) {
  if (i >= nodes_.size()) {
    throw std::out_of_range("DeploymentEngine::ResetNode: index out of range");
  }
  ResetNodeWith(i, rng_);
}

void DeploymentEngine::ResetNodeWith(NodeId i, common::Rng& rng) {
  store_.RandomizeRow(i, rng);
  MarkDirty(i);
  RebuildNeighborSetWith(i, rng);
  if (sharded_drain_) {
    ++node_counters_[i].churns;
  } else {
    ++churn_count_;
  }
}

void DeploymentEngine::ChurnSweep() {
  if (config_.churn_rate <= 0.0) {
    return;
  }
  for (NodeId i = 0; i < nodes_.size(); ++i) {
    if (rng_.Bernoulli(config_.churn_rate)) {
      ResetNode(i);
    }
  }
}

bool DeploymentEngine::MaybeChurnNode(NodeId i) {
  return MaybeChurnNodeWith(i, rng_);
}

bool DeploymentEngine::MaybeChurnNodeWith(NodeId i, common::Rng& rng) {
  if (config_.churn_rate <= 0.0 || !rng.Bernoulli(config_.churn_rate)) {
    return false;
  }
  if (i >= nodes_.size()) {
    throw std::out_of_range("DeploymentEngine: churn index out of range");
  }
  ResetNodeWith(i, rng);
  return true;
}

NodeId DeploymentEngine::PickNeighbor(NodeId i) {
  return PickNeighborWith(i, rng_);
}

NodeId DeploymentEngine::PickNeighborWith(NodeId i, common::Rng& rng) {
  const auto& nb = neighbors_[i];
  switch (config_.strategy) {
    case ProbeStrategy::kUniformRandom:
      return nb[rng.UniformInt(static_cast<std::uint64_t>(nb.size()))];
    case ProbeStrategy::kRoundRobin: {
      const NodeId j = nb[round_robin_cursor_[i] % nb.size()];
      ++round_robin_cursor_[i];
      return j;
    }
    case ProbeStrategy::kLossDriven: {
      if (rng.Bernoulli(config_.exploration)) {
        return nb[rng.UniformInt(static_cast<std::uint64_t>(nb.size()))];
      }
      const auto& losses = neighbor_loss_[i];
      std::size_t best = 0;
      for (std::size_t p = 1; p < losses.size(); ++p) {
        if (losses[p] > losses[best]) {
          best = p;
        }
      }
      return nb[best];
    }
  }
  return nb[0];
}

void DeploymentEngine::EnsurePerNodeStreams() {
  if (!per_node_rng_.empty()) {
    return;
  }
  // Decorrelated per-node streams derived from the run seed.  Each stream
  // advances only through its own node's draws, so the sequence a node
  // sees is a pure function of (seed, node id, its own probe history) —
  // never of which thread ran it.
  const std::size_t n = nodes_.size();
  common::Rng root(config_.seed ^ 0x5deece66dULL);
  per_node_rng_.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    per_node_rng_.push_back(root.Split());
  }
  sweep_state_.resize(n);
}

common::Rng& DeploymentEngine::NodeRng(NodeId i) {
  EnsurePerNodeStreams();
  if (i >= per_node_rng_.size()) {
    throw std::out_of_range("DeploymentEngine::NodeRng: index out of range");
  }
  return per_node_rng_[i];
}

void DeploymentEngine::CompiledRoundSweep(common::ThreadPool& pool,
                                          const linalg::KernelOps& kernels) {
  if (config_.probe_burst > 1) {
    // The compiled gather models one exchange per node per round, like the
    // parallel sweep; batched rounds run through the per-message driver.
    throw std::logic_error(
        "DeploymentEngine::CompiledRoundSweep: probe_burst > 1 is not "
        "supported on the compiled round path");
  }
  ChurnSweep();

  // Gather: consume the shared RNG stream in exactly the per-message order
  // — pick, leg-1 roll, leg-2 roll per exchange.  (Algorithm 2 rolls leg 2
  // after the target consumed the measurement, but no draw happens in
  // between, so rolling it at gather time replays the stream verbatim.)
  // Only node-owned probing state (round-robin cursors, loss feedback read
  // by the pick) is touched here, none of which the deferred execution
  // changes out of order: neighbor_loss_[i] is written solely by node i's
  // own exchange, which the per-message round also applies after i's pick.
  round_coo_.Clear();
  const std::size_t n = nodes_.size();
  for (NodeId i = 0; i < n; ++i) {
    const NodeId j = PickNeighbor(i);
    if (LegLost()) {  // leg 1: the probe — nothing happened anywhere
      continue;
    }
    const bool full = !LegLost();  // leg 2: the reply
    if (abw_) {
      round_coo_.Add(i, j, full);  // the target measured and updates either way
    } else if (full) {
      round_coo_.Add(i, j, true);  // a lost RTT reply loses the whole exchange
    }
  }

  if (abw_) {
    ExecuteTargetGroups(pool, kernels);
  } else {
    ExecuteCompiledRttRound(pool, kernels);
  }
}

void DeploymentEngine::ExecuteCompiledRttRound(
    common::ThreadPool& pool, const linalg::KernelOps& kernels) {
  // Original gather order *is* ascending-prober order (one edge per
  // prober), and an Algorithm-1 exchange writes only the prober's own rows
  // while reading its target's, live: the per-message drain's reply copies
  // were fresh at reply time.  The sequential replay of the edges is the
  // reference; the windowed schedule reproduces it bit for bit (serial
  // equivalence, DESIGN.md §14).  Inside a window, each conflict component
  // runs in ascending edge order on one thread — whichever claims the
  // chunk of roots (first edges) it falls in; a component's rows are its
  // own, and the rows it reads from outside the window are final (earlier
  // windows) or untouched (later ones), so neither the pool size nor the
  // claim order can reach a bit.
  const std::size_t m = round_coo_.EdgeCount();
  round_coo_.ComponentsByWindow(nodes_.size(), kRttWindow);
  const auto& edges = round_coo_.Edges();
  const std::size_t r = config_.rank;
  const auto run = [&](std::uint32_t e) {
    const RoundEdge& edge = edges[e];
    const double x = MeasurementFor(edge.prober, edge.target, std::nullopt);
    RecordNeighborLoss(edge.prober, edge.target, x, store_.V(edge.target));
    CompiledRttStep(kernels, config_.params, x, store_.U(edge.target).data(),
                    store_.V(edge.target).data(), store_.U(edge.prober).data(),
                    store_.V(edge.prober).data(), r);
  };
  for (std::size_t window = 0; window < m; window += kRttWindow) {
    const std::size_t window_end = std::min(m, window + kRttWindow);
    const std::size_t chunks = (window_end - window + kRttChunk - 1) / kRttChunk;
    pool.ForEachChunk(chunks, [&](std::size_t chunk) {
      const std::size_t first = window + chunk * kRttChunk;
      for (const std::uint32_t e :
           round_coo_.ComponentsRootedIn(first, std::min(window_end, first + kRttChunk))) {
        run(e);
      }
    });
  }
  // Each exchange measured once and wrote its prober's rows.
  for (const RoundEdge& edge : edges) {
    MarkDirty(edge.prober);
  }
  measurement_count_ += m;
}

void DeploymentEngine::ExecuteTargetGroups(common::ThreadPool& pool,
                                           const linalg::KernelOps& kernels) {
  // Group by updated v row, stable by message order: per target the updates
  // apply in ascending-prober order — the exact per-message sequence — and
  // exchanges aimed at different targets commute because u_i is read and
  // written only by prober i's own exchange (one probe per node per round).
  // So one ParallelFor over contiguous target-row ranges is data-race-free:
  // a range exclusively owns v of its target rows and u of their probers.
  // Within an exchange the target consumes x and the probe's u_i and
  // updates v_j; the prober consumes the *pre-update* v_j (Algorithm 2
  // sends before updating).
  const std::size_t n = nodes_.size();
  round_coo_.GroupByTarget(n);
  const std::size_t r = config_.rank;
  const auto& edges = round_coo_.Edges();
  pool.ParallelFor(0, n, [&](std::size_t lo, std::size_t hi) {
    std::vector<double> v_pre(r);
    for (std::size_t t = lo; t < hi; ++t) {
      for (const std::uint32_t e : round_coo_.Group(static_cast<NodeId>(t))) {
        const RoundEdge& edge = edges[e];
        const double x = MeasurementFor(edge.prober, t, std::nullopt);
        double* v_row = store_.V(t).data();
        if (edge.full != 0) {
          std::copy(v_row, v_row + r, v_pre.begin());
        }
        CompiledAbwTargetStep(kernels, config_.params, x,
                              store_.U(edge.prober).data(), v_row, r);  // eq. 13
        if (edge.full != 0) {
          RecordNeighborLoss(edge.prober, static_cast<NodeId>(t), x, v_pre);
          CompiledAbwProberStep(kernels, config_.params, x, v_pre.data(),
                                store_.U(edge.prober).data(), r);  // eq. 12
        }
      }
    }
  });
  // The target consumes the measurement even when the reply is lost; only
  // a full exchange updates the prober.
  for (const RoundEdge& edge : edges) {
    MarkDirty(edge.target);
    if (edge.full != 0) {
      MarkDirty(edge.prober);
    }
  }
  measurement_count_ += edges.size();
}

namespace {

// Outcome of one exchange, decided entirely by the prober's private rolls
// before any update runs.
constexpr unsigned char kExchangeFull = 0;      // both legs survived
constexpr unsigned char kExchangeLeg2Lost = 1;  // reply lost (ABW: target updated)
constexpr unsigned char kExchangeLeg1Lost = 2;  // probe lost, nothing happened

/// The two protocol legs, each dropped independently — the roll sequence
/// LegLost() produces on the sequential path (leg 2 is only rolled if leg 1
/// survived).
unsigned char RollLegs(double message_loss, common::Rng& rng) {
  if (message_loss > 0.0) {
    if (rng.Bernoulli(message_loss)) {
      return kExchangeLeg1Lost;
    }
    if (rng.Bernoulli(message_loss)) {
      return kExchangeLeg2Lost;
    }
  }
  return kExchangeFull;
}

}  // namespace

void DeploymentEngine::ParallelRoundSweep(common::ThreadPool& pool) {
  if (config_.probe_burst > 1) {
    // The snapshot sweep models one exchange per node per round; batched
    // rounds run through the sequential driver or the async drains.
    throw std::logic_error(
        "DeploymentEngine::ParallelRoundSweep: probe_burst > 1 is not "
        "supported on the parallel sweep path");
  }
  EnsurePerNodeStreams();
  // Membership dynamics stay on the engine stream, sequential and identical
  // regardless of pool size (they also rebuild neighbor sets, which other
  // nodes' probes must not observe mid-round).
  ChurnSweep();
  if (abw_) {
    ParallelTargetGroupSweep(pool);
    return;
  }
  const std::size_t n = nodes_.size();
  const std::size_t r = config_.rank;

  // Start-of-round snapshot: every probe reads remote coordinates as they
  // stood here — each reply is a snapshot captured at round start.
  const auto u_data = store_.UData();
  const auto v_data = store_.VData();
  sweep_u_.assign(u_data.begin(), u_data.end());
  sweep_v_.assign(v_data.begin(), v_data.end());

  // One ParallelFor; each block runs in chunks of draws (pick + leg rolls)
  // followed by the chunk's updates.  Node i's work touches only node-owned
  // state and its own rows, so the chunking never changes a bit; it keeps
  // the update loop free of the RNG chains, so its snapshot-row misses
  // overlap, while costing no second fork-join per round.  The scalar table
  // keeps the result independent of the active kernel ISA.
  const linalg::KernelOps& scalar =
      linalg::KernelsFor(linalg::KernelIsa::kScalar);
  constexpr std::size_t kChunk = 64;
  sweep_target_.resize(n);
  pool.ParallelFor(0, n, [&](std::size_t lo, std::size_t hi) {
    for (std::size_t begin = lo; begin < hi; begin += kChunk) {
      const std::size_t end = std::min(hi, begin + kChunk);
      for (std::size_t i = begin; i < end; ++i) {
        common::Rng& rng = per_node_rng_[i];
        sweep_target_[i] = PickNeighborWith(static_cast<NodeId>(i), rng);
        sweep_state_[i] = RollLegs(config_.message_loss, rng);
      }
      for (std::size_t i = begin; i < end; ++i) {
        if (sweep_state_[i] != kExchangeFull) {
          continue;  // a lost RTT leg loses the whole exchange
        }
        const NodeId j = sweep_target_[i];
        const double x = MeasurementFor(i, j, std::nullopt);
        const double* u_remote = sweep_u_.data() + j * r;
        const double* v_remote = sweep_v_.data() + j * r;
        RecordNeighborLoss(static_cast<NodeId>(i), j, x,
                           std::span<const double>(v_remote, r));
        CompiledRttStep(scalar, config_.params, x, u_remote, v_remote,
                        store_.U(i).data(), store_.V(i).data(), r);
      }
    }
  });

  // An exchange either dropped a leg or applied its measurement, so one
  // per-node flag determines both counters; a node that measured also
  // updated its own rows (drift marks go here, after the join).
  std::size_t dropped = 0;
  for (std::size_t i = 0; i < n; ++i) {
    if (sweep_state_[i] != kExchangeFull) {
      ++dropped;
    } else {
      MarkDirty(i);
    }
  }
  dropped_legs_ += dropped;
  measurement_count_ += n - dropped;
}

void DeploymentEngine::ParallelTargetGroupSweep(common::ThreadPool& pool) {
  const std::size_t n = nodes_.size();

  // 1. Draws: each prober picks its target and rolls both protocol legs from
  // its private stream.  Node-owned state only, so the draws parallelize.
  sweep_target_.resize(n);
  pool.ParallelFor(0, n, [&](std::size_t lo, std::size_t hi) {
    for (std::size_t i = lo; i < hi; ++i) {
      common::Rng& rng = per_node_rng_[i];
      sweep_target_[i] = PickNeighborWith(static_cast<NodeId>(i), rng);
      sweep_state_[i] = RollLegs(config_.message_loss, rng);
    }
  });

  // 2. Compile: COO over the exchanges that update state (a lost probe
  // updates nobody), gathered in ascending prober order.  Sequential and
  // deterministic — pool size never enters.
  round_coo_.Clear();
  std::size_t dropped = 0;
  for (std::size_t i = 0; i < n; ++i) {
    if (sweep_state_[i] != kExchangeLeg1Lost) {
      round_coo_.Add(static_cast<NodeId>(i), sweep_target_[i],
                     sweep_state_[i] == kExchangeFull);
    }
    dropped += sweep_state_[i] != kExchangeFull ? 1 : 0;
  }
  dropped_legs_ += dropped;

  // 3. The row-major target-group sweep RunRounds also runs, on the scalar
  // table; it reduces the measurement counter and drift marks after its
  // join.
  ExecuteTargetGroups(pool, linalg::KernelsFor(linalg::KernelIsa::kScalar));
}

const DmfsgdNode& DeploymentEngine::node(std::size_t i) const {
  if (i >= nodes_.size()) {
    throw std::out_of_range("DeploymentEngine::node: index out of range");
  }
  return nodes_[i];
}

bool DeploymentEngine::IsNeighborPair(std::size_t i, std::size_t j) const {
  if (i >= nodes_.size() || j >= nodes_.size()) {
    throw std::out_of_range("DeploymentEngine::IsNeighborPair: index out of range");
  }
  const auto& nb = neighbors_[i];
  return std::binary_search(nb.begin(), nb.end(), static_cast<NodeId>(j));
}

double DeploymentEngine::AverageMeasurementsPerNode() const noexcept {
  return static_cast<double>(measurement_count_) /
         static_cast<double>(nodes_.size());
}

double DeploymentEngine::Predict(std::size_t i, std::size_t j) const {
  if (i >= nodes_.size() || j >= nodes_.size()) {
    throw std::out_of_range("DeploymentEngine::Predict: index out of range");
  }
  return store_.Predict(i, j);
}

bool DeploymentEngine::LegLost() {
  if (config_.message_loss <= 0.0) {
    return false;
  }
  const bool lost = rng_.Bernoulli(config_.message_loss);
  if (lost) {
    ++dropped_legs_;
  }
  return lost;
}

bool DeploymentEngine::LegLostFor(NodeId who) {
  if (!sharded_drain_) {
    return LegLost();
  }
  if (config_.message_loss <= 0.0) {
    return false;
  }
  const bool lost = per_node_rng_[who].Bernoulli(config_.message_loss);
  if (lost) {
    ++node_counters_[who].dropped_legs;
  }
  return lost;
}

void DeploymentEngine::CountMeasurementAt(NodeId who) {
  if (sharded_drain_) {
    ++node_counters_[who].measurements;
  } else {
    ++measurement_count_;
  }
}

void DeploymentEngine::ResolveExchangeAt(NodeId who) {
  if (sharded_drain_) {
    ++node_counters_[who].resolved;
  } else {
    ResolveExchange();
  }
}

void DeploymentEngine::EnableDriftTracking() {
  // Starts clean: "dirty" means written after this point — callers build
  // their index from the current store, then drain deltas.
  dirty_rows_.assign(nodes_.size(), 0);
  drift_tracking_ = true;
}

std::vector<NodeId> DeploymentEngine::TakeDirtyNodes() {
  if (!drift_tracking_) {
    throw std::logic_error(
        "DeploymentEngine::TakeDirtyNodes: drift tracking is not enabled");
  }
  std::vector<NodeId> dirty;
  for (std::size_t i = 0; i < dirty_rows_.size(); ++i) {
    if (dirty_rows_[i] != 0) {
      dirty.push_back(static_cast<NodeId>(i));
      dirty_rows_[i] = 0;
    }
  }
  return dirty;
}

void DeploymentEngine::RestoreCoordinates(const CoordinateStore& snapshot) {
  if (snapshot.NodeCount() != store_.NodeCount() ||
      snapshot.rank() != store_.rank()) {
    throw std::invalid_argument(
        "DeploymentEngine::RestoreCoordinates: snapshot shape mismatch");
  }
  std::copy(snapshot.UData().begin(), snapshot.UData().end(),
            store_.UData().begin());
  std::copy(snapshot.VData().begin(), snapshot.VData().end(),
            store_.VData().begin());
  if (drift_tracking_) {
    // Every row moved: an index built before the restore must re-snapshot.
    std::fill(dirty_rows_.begin(), dirty_rows_.end(), 1);
  }
}

void DeploymentEngine::BeginShardedDrain() {
  if (sharded_drain_) {
    throw std::logic_error("DeploymentEngine: sharded drain already active");
  }
  EnsurePerNodeStreams();
  node_counters_.assign(nodes_.size(), NodeCounters{});
  sharded_drain_ = true;
}

void DeploymentEngine::EndShardedDrain() {
  if (!sharded_drain_) {
    throw std::logic_error("DeploymentEngine: no sharded drain active");
  }
  sharded_drain_ = false;
  std::uint64_t started = 0;
  std::uint64_t resolved = 0;
  for (const NodeCounters& counters : node_counters_) {
    measurement_count_ += counters.measurements;
    dropped_legs_ += counters.dropped_legs;
    churn_count_ += counters.churns;
    started += counters.started;
    resolved += counters.resolved;
  }
  // Same saturating semantics as ResolveExchange: a duplicated resolution
  // must not wrap the in-flight gauge.
  const std::uint64_t in_flight = in_flight_ + started;
  in_flight_ = in_flight > resolved ? in_flight - resolved : 0;
}

double DeploymentEngine::MeasurementFor(
    std::size_t i, std::size_t j, std::optional<double> observed_quantity) const {
  const double quantity =
      observed_quantity.has_value() ? *observed_quantity : dataset_->Quantity(i, j);
  if (config_.mode == PredictionMode::kRegression) {
    // τ-normalization keeps SGD stable across metrics (DESIGN.md §3); the
    // prediction target is then a dimensionless "multiples of τ".
    return quantity / config_.tau;
  }
  // Classification: corrupted paths report their corrupted label on *every*
  // probe (inaccurate tools and malicious nodes are persistent, §6.3), so
  // the injector overrides even dynamically observed quantities.
  if (injector_ != nullptr) {
    return static_cast<double>(injector_->Label(i, j));
  }
  return static_cast<double>(ClassOf(dataset_->metric, quantity, config_.tau));
}

void DeploymentEngine::RecordNeighborLoss(NodeId i, NodeId j, double x,
                                          std::span<const double> v_remote) {
  if (config_.strategy != ProbeStrategy::kLossDriven) {
    return;
  }
  const auto& nb = neighbors_[i];
  const auto it = std::lower_bound(nb.begin(), nb.end(), j);
  if (it != nb.end() && *it == j) {
    const double x_hat = linalg::Dot(nodes_[i].u(), v_remote);
    neighbor_loss_[i][static_cast<std::size_t>(it - nb.begin())] =
        LossValue(config_.params.loss, x, x_hat);
  }
}

void DeploymentEngine::StartExchange(NodeId i, NodeId j,
                                     std::optional<double> observed_quantity) {
  if (abw_ && observed_quantity.has_value()) {
    // Algorithm 2 measures at the *target*; a prober-side trace value has
    // nowhere to go, and silently training on the static matrix instead
    // would corrupt the experiment.
    throw std::logic_error(
        "DeploymentEngine: trace replay is not supported for target-measured "
        "(ABW) metrics");
  }
  if (sharded_drain_) {
    // Sharded-drain path: no shared state — the prober's private stream
    // rolls leg 1 and the per-node slots absorb the counters.  Trace
    // overrides need an immediate channel, which a sharded drain never is.
    if (observed_quantity.has_value()) {
      throw std::logic_error(
          "DeploymentEngine: trace replay is not supported during a sharded "
          "drain");
    }
    ++node_counters_[i].started;
    if (LegLostFor(i)) {
      ++node_counters_[i].resolved;
      return;
    }
    if (abw_) {
      channel_->Send(i, j, AbwProbeRequest{i, nodes_[i].UCopy(), config_.tau});
    } else {
      channel_->Send(i, j, RttProbeRequest{i});
    }
    return;
  }
  ++in_flight_;
  // Leg 1: the probe itself (Algorithm 1's ping, Algorithm 2's UDP train).
  if (LegLost()) {
    --in_flight_;
    return;
  }
  if (abw_) {
    channel_->Send(i, j, AbwProbeRequest{i, nodes_[i].UCopy(), config_.tau});
    return;
  }
  trace_observed_ = observed_quantity;
  trace_observed_consumed_ = false;
  const std::size_t dropped_before = dropped_legs_;
  channel_->Send(i, j, RttProbeRequest{i});
  // Only an immediate channel resolves the exchange within the send.  A
  // trace override that was neither consumed by the reply handler nor
  // killed by leg loss would silently train on the static matrix instead —
  // fail loudly rather than corrupt the experiment.
  const bool resolved =
      trace_observed_consumed_ || dropped_legs_ > dropped_before;
  trace_observed_.reset();
  if (observed_quantity.has_value() && !resolved) {
    throw std::logic_error(
        "DeploymentEngine: trace replay requires an immediate delivery "
        "channel");
  }
}

void DeploymentEngine::OnBatch(const MessageBatch& batch) {
  // Per-message mode, or a trivial envelope: every item runs its own
  // handler in order — bit-identical to the pre-batch engine (an envelope
  // is its messages in order, DESIGN.md §13).
  if (config_.gradient_batch_size <= 1 || batch.items.size() <= 1) {
    for (const BatchItem& item : batch.items) {
      OnMessage(item.from, batch.to, item.message);
    }
    return;
  }
  // Mini-batch receive: consecutive same-kind reply runs fold into one
  // accumulated step per gradient_batch_size chunk; everything else keeps
  // its per-message handler, in envelope order.
  std::size_t i = 0;
  while (i < batch.items.size()) {
    const ProtocolMessage& message = batch.items[i].message;
    if (std::holds_alternative<RttProbeReply>(message)) {
      i = FoldRttReplies(batch, i);
    } else if (std::holds_alternative<AbwProbeReply>(message)) {
      i = FoldAbwReplies(batch, i);
    } else if (std::holds_alternative<AbwProbeRequest>(message)) {
      i = FoldAbwRequests(batch, i);
    } else {
      OnMessage(batch.items[i].from, batch.to, message);
      ++i;
    }
  }
}

namespace {

/// One past the last index of the run of items holding alternative T,
/// capped at `limit` items (the gradient_batch_size chunk bound).
template <typename T>
std::size_t RunEnd(const MessageBatch& batch, std::size_t start,
                   std::size_t limit) {
  std::size_t end = start;
  while (end < batch.items.size() && end - start < limit &&
         std::holds_alternative<T>(batch.items[end].message)) {
    ++end;
  }
  return end;
}

}  // namespace

std::size_t DeploymentEngine::FoldRttReplies(const MessageBatch& batch,
                                             std::size_t start) {
  const std::size_t end =
      RunEnd<RttProbeReply>(batch, start, config_.gradient_batch_size);
  const NodeId prober = batch.to;
  if (end - start == 1) {
    HandleRttReply(prober, std::get<RttProbeReply>(batch.items[start].message));
    return end;
  }
  // All gradients evaluate at the prober's pre-batch coordinates; the
  // per-item bookkeeping (loss feedback, counters, exchange resolution)
  // matches the per-message handlers item for item.
  GradientStepBatch du(config_.rank);
  GradientStepBatch dv(config_.rank);
  for (std::size_t k = start; k < end; ++k) {
    const auto& reply = std::get<RttProbeReply>(batch.items[k].message);
    const double x = MeasurementFor(prober, reply.target, std::nullopt);
    RecordNeighborLoss(prober, reply.target, x, reply.v);
    nodes_[prober].AccumulateRttUpdate(x, reply.u, reply.v, config_.params, du,
                                       dv);
    CountMeasurementAt(prober);
    ResolveExchangeAt(prober);
  }
  nodes_[prober].ApplyBatchU(du, config_.params);
  nodes_[prober].ApplyBatchV(dv, config_.params);
  MarkDirty(prober);
  return end;
}

std::size_t DeploymentEngine::FoldAbwReplies(const MessageBatch& batch,
                                             std::size_t start) {
  const std::size_t end =
      RunEnd<AbwProbeReply>(batch, start, config_.gradient_batch_size);
  const NodeId prober = batch.to;
  if (end - start == 1) {
    HandleAbwReply(prober, std::get<AbwProbeReply>(batch.items[start].message));
    return end;
  }
  GradientStepBatch du(config_.rank);
  for (std::size_t k = start; k < end; ++k) {
    const auto& reply = std::get<AbwProbeReply>(batch.items[k].message);
    RecordNeighborLoss(prober, reply.target, reply.measurement, reply.v);
    nodes_[prober].AccumulateAbwProberUpdate(reply.measurement, reply.v,
                                             config_.params, du);
    ResolveExchangeAt(prober);
  }
  nodes_[prober].ApplyBatchU(du, config_.params);
  MarkDirty(prober);
  return end;
}

std::size_t DeploymentEngine::FoldAbwRequests(const MessageBatch& batch,
                                              std::size_t start) {
  const std::size_t end =
      RunEnd<AbwProbeRequest>(batch, start, config_.gradient_batch_size);
  const NodeId target = batch.to;
  if (end - start == 1) {
    HandleAbwRequest(target,
                     std::get<AbwProbeRequest>(batch.items[start].message));
    return end;
  }
  // Every reply of the chunk carries the same pre-batch v_j (the mini-batch
  // analogue of Algorithm 2's reply-before-update); measurements are
  // consumed and leg losses rolled per item, in order, exactly like the
  // per-message handler.
  GradientStepBatch dv(config_.rank);
  const std::vector<double> v_pre = nodes_[target].VCopy();
  for (std::size_t k = start; k < end; ++k) {
    const auto& request = std::get<AbwProbeRequest>(batch.items[k].message);
    const double x = MeasurementFor(request.prober, target, std::nullopt);
    nodes_[target].AccumulateAbwTargetUpdate(x, request.u, config_.params, dv);
    CountMeasurementAt(target);
    if (LegLostFor(target)) {
      ResolveExchangeAt(target);
      continue;
    }
    channel_->Send(target, request.prober, AbwProbeReply{target, x, v_pre});
  }
  nodes_[target].ApplyBatchV(dv, config_.params);
  MarkDirty(target);
  return end;
}

void DeploymentEngine::OnMessage(NodeId from, NodeId to,
                                 const ProtocolMessage& message) {
  std::visit(
      [&](const auto& typed) {
        using T = std::decay_t<decltype(typed)>;
        if constexpr (std::is_same_v<T, RttProbeRequest>) {
          HandleRttRequest(from, to);
        } else if constexpr (std::is_same_v<T, RttProbeReply>) {
          HandleRttReply(to, typed);
        } else if constexpr (std::is_same_v<T, AbwProbeRequest>) {
          HandleAbwRequest(to, typed);
        } else {
          HandleAbwReply(to, typed);
        }
      },
      message);
}

void DeploymentEngine::ResolveExchange() {
  // Saturating: a duplicated or unsolicited reply (possible over datagram
  // transports) must not wrap the counter.
  if (in_flight_ > 0) {
    --in_flight_;
  }
}

void DeploymentEngine::HandleRttRequest(NodeId prober, NodeId target) {
  // Leg 2: the reply carrying (u_j, v_j) — a snapshot taken now, stale by
  // one flight time when the prober consumes it.  The roll and any counter
  // bumps belong to the target, whose handler this is.
  if (LegLostFor(target)) {
    ResolveExchangeAt(target);
    return;
  }
  channel_->Send(target, prober,
                 RttProbeReply{target, nodes_[target].UCopy(),
                               nodes_[target].VCopy()});
}

void DeploymentEngine::HandleRttReply(NodeId prober, const RttProbeReply& reply) {
  // Its timing gives the prober x_ij (or the trace record supplies it —
  // never during a sharded drain, whose StartExchange rejects overrides).
  const double x = MeasurementFor(
      prober, reply.target, sharded_drain_ ? std::nullopt : trace_observed_);
  if (!sharded_drain_) {
    trace_observed_consumed_ = trace_observed_.has_value();
  }
  RecordNeighborLoss(prober, reply.target, x, reply.v);
  nodes_[prober].RttUpdate(x, reply.u, reply.v, config_.params);
  MarkDirty(prober);
  CountMeasurementAt(prober);
  ResolveExchangeAt(prober);
}

void DeploymentEngine::HandleAbwRequest(NodeId target,
                                        const AbwProbeRequest& request) {
  // The target infers x_ij, replies with its pre-update v_j (Algorithm 2
  // sends before updating), then updates v_j — the measurement is consumed
  // at the target even if the reply later gets lost.
  const double x = MeasurementFor(request.prober, target, std::nullopt);
  AbwProbeReply reply{target, x, nodes_[target].VCopy()};
  nodes_[target].AbwTargetUpdate(x, request.u, config_.params);
  MarkDirty(target);
  CountMeasurementAt(target);

  // Leg 2: the reply back to the prober.
  if (LegLostFor(target)) {
    ResolveExchangeAt(target);
    return;
  }
  channel_->Send(target, request.prober, std::move(reply));
}

void DeploymentEngine::HandleAbwReply(NodeId prober, const AbwProbeReply& reply) {
  RecordNeighborLoss(prober, reply.target, reply.measurement, reply.v);
  nodes_[prober].AbwProberUpdate(reply.measurement, reply.v, config_.params);
  MarkDirty(prober);
  ResolveExchangeAt(prober);
}

}  // namespace dmfsgd::core
