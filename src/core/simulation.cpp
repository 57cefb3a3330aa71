#include "core/simulation.hpp"

#include <algorithm>
#include <stdexcept>

#include "core/wire.hpp"
#include "linalg/kernels.hpp"

namespace dmfsgd::core {

DeliveryChannel& DmfsgdSimulation::BuildStack(const SimulationConfig& config) {
  DeliveryChannel& stack =
      StackChannel(immediate_, wire_, config.use_wire_format);
  if (!config.coalesce_delivery) {
    return stack;
  }
  // Cap envelopes at the wire frame's item bound: a probe_burst beyond it
  // would otherwise hand the wire-codec decorator (and any datagram
  // transport) an unencodable envelope.
  coalescing_.emplace(stack, kMaxWireBatchItems);
  return *coalescing_;
}

DmfsgdSimulation::DmfsgdSimulation(const datasets::Dataset& dataset,
                                   const SimulationConfig& config,
                                   const ErrorInjector* injector)
    : engine_(dataset, config, injector, BuildStack(config)) {}

bool DmfsgdSimulation::NeedsChannel() const noexcept {
  return engine_.config().probe_burst > 1 || coalescing_.has_value() ||
         wire_.has_value();
}

common::ThreadPool& DmfsgdSimulation::Pool() {
  if (!pool_) {
    pool_ = std::make_unique<common::ThreadPool>(0);
  }
  return *pool_;
}

void DmfsgdSimulation::RunRounds(std::size_t rounds) {
  if (NeedsChannel()) {
    RunRoundsPerMessage(rounds);
    return;
  }
  RunRounds(rounds, Pool());
}

void DmfsgdSimulation::RunRounds(std::size_t rounds, common::ThreadPool& pool) {
  if (NeedsChannel()) {
    RunRoundsPerMessage(rounds);
    return;
  }
  // The scalar table keeps the compiled round bit-identical to the
  // per-message handlers under every active ISA.
  const linalg::KernelOps& scalar =
      linalg::KernelsFor(linalg::KernelIsa::kScalar);
  for (std::size_t round = 0; round < rounds; ++round) {
    engine_.CompiledRoundSweep(pool, scalar);  // includes the churn sweep
  }
}

void DmfsgdSimulation::RunRoundsPerMessage(std::size_t rounds) {
  const std::size_t n = engine_.NodeCount();
  const std::size_t burst = engine_.config().probe_burst;
  for (std::size_t round = 0; round < rounds; ++round) {
    engine_.ChurnSweep();
    for (NodeId i = 0; i < n; ++i) {
      for (std::size_t b = 0; b < burst; ++b) {
        const NodeId j = engine_.PickNeighbor(i);
        engine_.StartExchange(i, j, std::nullopt);
      }
      if (coalescing_.has_value()) {
        // Flush per node, after its whole burst: the burst's requests go
        // out as envelopes grouped by target, and — because every reply of
        // the burst addresses node i — the replies come back as one
        // envelope, the unit the mini-batch fold consumes.  At burst 1 the
        // flush degenerates to per-message delivery in the exact sequential
        // order, so the drain is bit-identical to the immediate channel
        // (pinned by the coalesced-drain parity tests).
        coalescing_->Flush();
      }
    }
  }
}

void DmfsgdSimulation::RunRoundsParallel(std::size_t rounds,
                                         common::ThreadPool& pool) {
  for (std::size_t round = 0; round < rounds; ++round) {
    engine_.ParallelRoundSweep(pool);  // includes the churn sweep
  }
}

std::size_t DmfsgdSimulation::ReplayTrace(std::size_t begin, std::size_t end) {
  const auto& trace = engine_.dataset().trace;
  if (trace.empty()) {
    throw std::logic_error("DmfsgdSimulation::ReplayTrace: dataset has no trace");
  }
  if (coalescing_.has_value()) {
    // A trace record's observed value must be consumed by the reply handler
    // inside StartExchange, which deferred delivery makes impossible.
    throw std::logic_error(
        "DmfsgdSimulation::ReplayTrace: trace replay requires per-message "
        "delivery (coalesce_delivery must be off)");
  }
  end = std::min(end, trace.size());
  if (begin > end) {
    throw std::invalid_argument("DmfsgdSimulation::ReplayTrace: begin > end");
  }
  std::size_t applied = 0;
  for (std::size_t r = begin; r < end; ++r) {
    const datasets::TraceRecord& record = trace[r];
    // A passively observed measurement is usable only when the observing
    // node actually keeps the other endpoint in its neighbor set.
    if (!engine_.IsNeighborPair(record.src, record.dst)) {
      continue;
    }
    const std::size_t before = engine_.MeasurementCount();
    engine_.StartExchange(record.src, record.dst, record.value);
    if (engine_.MeasurementCount() > before) {
      ++applied;
    }
  }
  return applied;
}

std::size_t DmfsgdSimulation::ReplayTrace() {
  return ReplayTrace(0, engine_.dataset().trace.size());
}

bool DmfsgdSimulation::Ingest(NodeId i, NodeId j,
                              std::optional<double> observed_quantity) {
  if (observed_quantity.has_value() && coalescing_.has_value()) {
    // Same constraint as trace replay: an override must be consumed by the
    // reply handler inside StartExchange, which deferred delivery breaks.
    throw std::logic_error(
        "DmfsgdSimulation::Ingest: observed overrides require per-message "
        "delivery (coalesce_delivery must be off)");
  }
  const std::size_t before = engine_.MeasurementCount();
  engine_.StartExchange(i, j, observed_quantity);
  if (coalescing_.has_value()) {
    coalescing_->Flush();
  }
  return engine_.MeasurementCount() > before;
}

NodeId DmfsgdSimulation::IngestProbe(NodeId i) {
  const NodeId j = engine_.PickNeighbor(i);
  (void)Ingest(i, j, std::nullopt);
  return j;
}

}  // namespace dmfsgd::core
