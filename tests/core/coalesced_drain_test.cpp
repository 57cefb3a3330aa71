// Parity pins for the order-preserving coalesced delivery of DESIGN.md §13:
// with gradient_batch_size == 1, every coalesced drain must be bit-identical
// to its per-message twin — sync rounds (flush-per-burst over the immediate
// channel), the sequential async drain (same-arrival-time event merging, with
// strictly fewer events under constant-delay burst traffic), and the parallel
// windowed drain at several pool sizes — across probe strategies, churn and
// leg loss (a dropped leg shrinks an envelope without disturbing the rest).
#include <gtest/gtest.h>

#include <cstddef>
#include <span>
#include <vector>

#include "common/thread_pool.hpp"
#include "core/async_simulation.hpp"
#include "core/simulation.hpp"
#include "datasets/meridian.hpp"
#include "linalg/matrix.hpp"

namespace dmfsgd::core {
namespace {

using datasets::Dataset;

Dataset SmallRtt() {
  datasets::MeridianConfig config;
  config.node_count = 60;
  config.seed = 17;
  return datasets::MakeMeridian(config);
}

/// Synthetic asymmetric ABW ground truth (Algorithm 2 traffic); paired with
/// min == max one-way delays it yields the constant-delay regime where a
/// burst's replies all arrive at the same instant — the coalescing target.
Dataset SmallAbw(std::size_t n, std::uint64_t seed) {
  Dataset dataset;
  dataset.name = "test-abw";
  dataset.metric = datasets::Metric::kAbw;
  dataset.ground_truth = linalg::Matrix(n, n, linalg::Matrix::kMissing);
  common::Rng rng(seed);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      if (i != j) {
        dataset.ground_truth(i, j) = rng.Uniform(5.0, 100.0);
      }
    }
  }
  return dataset;
}

SimulationConfig BaseConfig(const Dataset& dataset) {
  SimulationConfig config;
  config.rank = 10;
  config.neighbor_count = 8;
  config.tau = dataset.MedianValue();
  config.seed = 3;
  return config;
}

void ExpectSameCoordinates(const DeploymentEngine& a, const DeploymentEngine& b,
                           const char* what) {
  const auto ua = a.store().UData();
  const auto ub = b.store().UData();
  const auto va = a.store().VData();
  const auto vb = b.store().VData();
  ASSERT_EQ(ua.size(), ub.size());
  for (std::size_t d = 0; d < ua.size(); ++d) {
    ASSERT_EQ(ua[d], ub[d]) << what << ": U diverged at " << d;
    ASSERT_EQ(va[d], vb[d]) << what << ": V diverged at " << d;
  }
}

void ExpectSameCounters(const DeploymentEngine& a, const DeploymentEngine& b,
                        const char* what) {
  EXPECT_EQ(a.MeasurementCount(), b.MeasurementCount()) << what;
  EXPECT_EQ(a.DroppedLegs(), b.DroppedLegs()) << what;
  EXPECT_EQ(a.ChurnCount(), b.ChurnCount()) << what;
}

// ------------------------------------------------------------------------
// Sync engine parity

TEST(CoalescedRounds, BitIdenticalAcrossStrategiesChurnAndLoss) {
  const Dataset dataset = SmallRtt();
  for (const ProbeStrategy strategy :
       {ProbeStrategy::kUniformRandom, ProbeStrategy::kRoundRobin,
        ProbeStrategy::kLossDriven}) {
    SimulationConfig config = BaseConfig(dataset);
    config.strategy = strategy;
    config.message_loss = 0.1;
    config.churn_rate = 0.01;
    SimulationConfig coalesced = config;
    coalesced.coalesce_delivery = true;

    DmfsgdSimulation per_message(dataset, config);
    DmfsgdSimulation batched(dataset, coalesced);
    per_message.RunRoundsPerMessage(40);
    batched.RunRounds(40);
    ExpectSameCoordinates(per_message.engine(), batched.engine(),
                          ProbeStrategyName(strategy));
    ExpectSameCounters(per_message.engine(), batched.engine(),
                       ProbeStrategyName(strategy));
  }
}

TEST(CoalescedRounds, BitIdenticalThroughTheWireCodec) {
  const Dataset dataset = SmallRtt();
  SimulationConfig config = BaseConfig(dataset);
  config.use_wire_format = true;
  SimulationConfig coalesced = config;
  coalesced.coalesce_delivery = true;
  DmfsgdSimulation per_message(dataset, config);
  DmfsgdSimulation batched(dataset, coalesced);
  per_message.RunRoundsPerMessage(30);
  batched.RunRounds(30);
  ExpectSameCoordinates(per_message.engine(), batched.engine(), "wire");
}

TEST(CoalescedRounds, BurstRoundsAreDeterministicAndConserveTraffic) {
  // probe_burst > 1 in the round driver: deferring a burst's deliveries to
  // the flush reorders the shared-stream leg-loss rolls relative to the
  // per-message driver, so the bit-identical guarantee is burst == 1 there
  // (DESIGN.md §13; the async drains keep it for any burst — their rolls
  // are event-ordered).  What must hold: two same-seed coalesced burst runs
  // are bit-identical, and every launched exchange is accounted for as a
  // measurement or a dropped leg.
  const Dataset abw = SmallAbw(48, 5);
  SimulationConfig config = BaseConfig(abw);
  config.tau = 50.0;
  config.probe_burst = 4;
  config.message_loss = 0.05;
  config.coalesce_delivery = true;
  DmfsgdSimulation a(abw, config);
  DmfsgdSimulation b(abw, config);
  a.RunRounds(25);
  b.RunRounds(25);
  ExpectSameCoordinates(a.engine(), b.engine(), "abw-burst determinism");
  ExpectSameCounters(a.engine(), b.engine(), "abw-burst determinism");
  // Algorithm 2 consumes the measurement at the target even when the reply
  // leg is lost; only a lost probe (leg 1) loses it.  Launched = rounds * n
  // * burst >= measurements, and with 5% per-leg loss strictly some legs
  // dropped.
  const std::size_t launched = 25 * abw.NodeCount() * 4;
  EXPECT_GT(a.DroppedLegs(), 0u);
  EXPECT_LT(a.MeasurementCount(), launched);
  EXPECT_GT(a.MeasurementCount(), launched / 2);
}

TEST(CoalescedRounds, TraceReplayIsRejected) {
  Dataset dataset = SmallRtt();
  dataset.trace.push_back({0, 1, dataset.ground_truth(0, 1), 0.0});
  SimulationConfig config = BaseConfig(dataset);
  config.coalesce_delivery = true;
  DmfsgdSimulation simulation(dataset, config);
  EXPECT_THROW((void)simulation.ReplayTrace(), std::logic_error);
}

// ------------------------------------------------------------------------
// Async sequential drain: parity plus the event-count win

AsyncSimulationConfig ConstantDelayAsync(const Dataset& dataset,
                                         std::size_t burst, bool coalesce,
                                         std::size_t shards = 1) {
  AsyncSimulationConfig config;
  config.base = SimulationConfig();
  config.base.rank = 10;
  config.base.neighbor_count = 8;
  config.base.tau = 50.0;
  config.base.seed = 11;
  config.base.probe_burst = burst;
  config.base.coalesce_delivery = coalesce;
  config.mean_probe_interval_s = 1.0;
  // min == max: every one-way delay is exactly 0.05 s, so a burst's replies
  // converge on the prober at one instant — the same-arrival-window case.
  config.min_oneway_delay_s = 0.05;
  config.max_oneway_delay_s = 0.05;
  config.shard_count = shards;
  return config;
}

TEST(CoalescedAsyncDrain, SequentialParityWithFewerEvents) {
  const Dataset abw = SmallAbw(48, 5);
  AsyncDmfsgdSimulation per_message(abw,
                                    ConstantDelayAsync(abw, 4, false));
  AsyncDmfsgdSimulation coalesced(abw, ConstantDelayAsync(abw, 4, true));
  per_message.RunUntil(40.0);
  coalesced.RunUntil(40.0);
  ExpectSameCoordinates(per_message.engine(), coalesced.engine(), "seq");
  ExpectSameCounters(per_message.engine(), coalesced.engine(), "seq");
  // Same traffic, fewer events: the envelope merge is the only difference.
  EXPECT_LT(coalesced.EventsExecuted(), per_message.EventsExecuted());
  EXPECT_GT(static_cast<double>(per_message.EventsExecuted()) /
                static_cast<double>(coalesced.EventsExecuted()),
            1.2);
}

TEST(CoalescedAsyncDrain, LegLossDropsPartOfABurstEnvelope) {
  // With loss on, some replies of a burst never enter the envelope; the
  // survivors must still apply exactly like their per-message twins.
  const Dataset abw = SmallAbw(48, 7);
  auto base = ConstantDelayAsync(abw, 4, false);
  base.base.message_loss = 0.15;
  auto coalesce = base;
  coalesce.base.coalesce_delivery = true;
  AsyncDmfsgdSimulation per_message(abw, base);
  AsyncDmfsgdSimulation coalesced(abw, coalesce);
  per_message.RunUntil(40.0);
  coalesced.RunUntil(40.0);
  ExpectSameCoordinates(per_message.engine(), coalesced.engine(), "loss");
  ExpectSameCounters(per_message.engine(), coalesced.engine(), "loss");
  EXPECT_GT(coalesced.DroppedLegs(), 0u);
}

TEST(CoalescedAsyncDrain, ChurnMidBatchKeepsParity) {
  // A node can churn between a probe's send and its replies' arrival: the
  // envelope then carries replies addressed to the pre-churn incarnation.
  // The per-message path has exactly the same hazard, so the two runs must
  // stay bit-identical — churn mid-batch is absorbed, not special-cased.
  const Dataset abw = SmallAbw(48, 9);
  auto base = ConstantDelayAsync(abw, 4, false);
  base.base.churn_rate = 0.02;
  auto coalesce = base;
  coalesce.base.coalesce_delivery = true;
  AsyncDmfsgdSimulation per_message(abw, base);
  AsyncDmfsgdSimulation coalesced(abw, coalesce);
  per_message.RunUntil(40.0);
  coalesced.RunUntil(40.0);
  EXPECT_GT(coalesced.ChurnCount(), 0u);
  ExpectSameCoordinates(per_message.engine(), coalesced.engine(), "churn");
  ExpectSameCounters(per_message.engine(), coalesced.engine(), "churn");
}

TEST(CoalescedAsyncDrain, RttDelaySpaceParityAcrossStrategies) {
  // Continuous (ground-truth) delays: merges are rare-to-absent, and the
  // coalesced drain must degenerate to exactly the per-message drain.
  const Dataset rtt = SmallRtt();
  for (const ProbeStrategy strategy :
       {ProbeStrategy::kUniformRandom, ProbeStrategy::kRoundRobin,
        ProbeStrategy::kLossDriven}) {
    AsyncSimulationConfig base;
    base.base.rank = 10;
    base.base.neighbor_count = 8;
    base.base.tau = rtt.MedianValue();
    base.base.seed = 23;
    base.base.strategy = strategy;
    auto coalesce = base;
    coalesce.base.coalesce_delivery = true;
    AsyncDmfsgdSimulation per_message(rtt, base);
    AsyncDmfsgdSimulation coalesced(rtt, coalesce);
    per_message.RunUntil(30.0);
    coalesced.RunUntil(30.0);
    ExpectSameCoordinates(per_message.engine(), coalesced.engine(),
                          ProbeStrategyName(strategy));
  }
}

// ------------------------------------------------------------------------
// Parallel windowed drain

TEST(CoalescedAsyncDrain, ParallelDrainBitIdenticalAcrossPoolSizesAndModes) {
  const Dataset abw = SmallAbw(48, 5);
  // Reference: per-message parallel drain at pool size 1.
  AsyncDmfsgdSimulation reference(abw, ConstantDelayAsync(abw, 4, false, 4));
  {
    common::ThreadPool pool(1);
    reference.RunUntilParallel(30.0, pool);
  }
  for (const std::size_t threads : {std::size_t{1}, std::size_t{2},
                                    std::size_t{4}}) {
    AsyncDmfsgdSimulation coalesced(abw, ConstantDelayAsync(abw, 4, true, 4));
    common::ThreadPool pool(threads);
    coalesced.RunUntilParallel(30.0, pool);
    ExpectSameCoordinates(reference.engine(), coalesced.engine(), "parallel");
    ExpectSameCounters(reference.engine(), coalesced.engine(), "parallel");
  }
}

TEST(CoalescedAsyncDrain, MixedSequentialAndParallelPhasesKeepParity) {
  const Dataset abw = SmallAbw(48, 5);
  AsyncDmfsgdSimulation per_message(abw, ConstantDelayAsync(abw, 4, false, 4));
  AsyncDmfsgdSimulation coalesced(abw, ConstantDelayAsync(abw, 4, true, 4));
  common::ThreadPool pool(2);
  per_message.RunUntil(10.0);
  per_message.RunUntilParallel(20.0, pool);
  per_message.RunUntil(25.0);
  coalesced.RunUntil(10.0);
  coalesced.RunUntilParallel(20.0, pool);
  coalesced.RunUntil(25.0);
  ExpectSameCoordinates(per_message.engine(), coalesced.engine(), "mixed");
  ExpectSameCounters(per_message.engine(), coalesced.engine(), "mixed");
}

TEST(CoalescedAsyncDrain, ParallelSweepRejectsBursts) {
  const Dataset rtt = SmallRtt();
  SimulationConfig config = BaseConfig(rtt);
  config.probe_burst = 3;
  DmfsgdSimulation simulation(rtt, config);
  common::ThreadPool pool(2);
  EXPECT_THROW(simulation.RunRoundsParallel(1, pool), std::logic_error);
}

}  // namespace
}  // namespace dmfsgd::core
