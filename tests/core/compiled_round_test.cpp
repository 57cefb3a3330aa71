// Parity pins for the sparse round compiler of DESIGN.md §14.
//
// The load-bearing claim: the compiled round RunRounds runs is
// bit-identical to the per-message round driver, because the gather pass
// replays the per-message RNG draw order verbatim and the fused executor
// applies the same arithmetic expression per edge through the scalar
// kernel table, in a serially equivalent order.  Pinned across both exchange algorithms, message loss,
// churn, every probe strategy, and the singleton/one-round edge cases.
// (Pool-size pins live in compiled_round_parallel_test.cpp, the parallel
// sweep's in parallel_sweep_test.cpp.)
#include <gtest/gtest.h>

#include <cstring>
#include <stdexcept>

#include "common/thread_pool.hpp"
#include "core/simulation.hpp"
#include "datasets/hps3.hpp"
#include "datasets/meridian.hpp"
#include "datasets/procedural.hpp"
#include "linalg/kernels.hpp"

namespace dmfsgd::core {
namespace {

using datasets::Dataset;

Dataset SmallRtt() {
  datasets::MeridianConfig config;
  config.node_count = 100;
  config.seed = 31;
  return datasets::MakeMeridian(config);
}

Dataset SmallAbw() {
  datasets::HpS3Config config;
  config.host_count = 100;
  config.seed = 33;
  return datasets::MakeHpS3(config);
}

SimulationConfig BaseConfig(const Dataset& dataset) {
  SimulationConfig config;
  config.rank = 10;
  config.neighbor_count = 16;
  config.tau = dataset.MedianValue();
  config.seed = 5;
  return config;
}

void ExpectBitIdentical(const DmfsgdSimulation& a, const DmfsgdSimulation& b,
                        const char* what) {
  const auto& store_a = a.engine().store();
  const auto& store_b = b.engine().store();
  ASSERT_EQ(store_a.NodeCount(), store_b.NodeCount()) << what;
  ASSERT_EQ(store_a.rank(), store_b.rank()) << what;
  const auto u_a = store_a.UData();
  const auto u_b = store_b.UData();
  const auto v_a = store_a.VData();
  const auto v_b = store_b.VData();
  EXPECT_EQ(std::memcmp(u_a.data(), u_b.data(), u_a.size_bytes()), 0)
      << what << ": U diverged";
  EXPECT_EQ(std::memcmp(v_a.data(), v_b.data(), v_a.size_bytes()), 0)
      << what << ": V diverged";
  EXPECT_EQ(a.MeasurementCount(), b.MeasurementCount()) << what;
  EXPECT_EQ(a.DroppedLegs(), b.DroppedLegs()) << what;
  EXPECT_EQ(a.ChurnCount(), b.ChurnCount()) << what;
}

/// Per-message reference vs compiled run on the same dataset/config.
void ExpectCompiledMatchesPerMessage(const Dataset& dataset,
                                     const SimulationConfig& config,
                                     std::size_t rounds, const char* what) {
  DmfsgdSimulation per_message(dataset, config);
  DmfsgdSimulation compiled(dataset, config);
  per_message.RunRoundsPerMessage(rounds);
  compiled.RunRounds(rounds);
  ExpectBitIdentical(per_message, compiled, what);
}

// ------------------------------------------------------------------------
// Compiled rounds (Algorithm 1, RTT)

TEST(CompiledRound, RttBitIdenticalWithLossAndChurn) {
  const Dataset dataset = SmallRtt();
  SimulationConfig config = BaseConfig(dataset);
  config.message_loss = 0.2;
  config.churn_rate = 0.02;
  DmfsgdSimulation per_message(dataset, config);
  DmfsgdSimulation compiled(dataset, config);
  per_message.RunRoundsPerMessage(40);
  compiled.RunRounds(40);
  EXPECT_GT(compiled.DroppedLegs(), 0u);
  EXPECT_GT(compiled.ChurnCount(), 0u);
  ExpectBitIdentical(per_message, compiled, "rtt loss+churn");
}

TEST(CompiledRound, RttBitIdenticalUnderEveryProbeStrategy) {
  const Dataset dataset = SmallRtt();
  for (const ProbeStrategy strategy :
       {ProbeStrategy::kUniformRandom, ProbeStrategy::kRoundRobin,
        ProbeStrategy::kLossDriven}) {
    SimulationConfig config = BaseConfig(dataset);
    config.strategy = strategy;
    ExpectCompiledMatchesPerMessage(dataset, config, 30,
                                    ProbeStrategyName(strategy));
  }
}

TEST(CompiledRound, SingleRoundIsTheSingletonCase) {
  // One round still exercises the full gather/group/execute path with
  // every per-target group at its minimum size.
  const Dataset dataset = SmallRtt();
  ExpectCompiledMatchesPerMessage(dataset, BaseConfig(dataset), 1,
                                  "rtt single round");
}

// ------------------------------------------------------------------------
// Compiled rounds (Algorithm 2, ABW)

TEST(CompiledRoundAlg2, AbwBitIdenticalWithLossAndChurn) {
  const Dataset dataset = SmallAbw();
  SimulationConfig config = BaseConfig(dataset);
  config.message_loss = 0.2;
  config.churn_rate = 0.02;
  DmfsgdSimulation per_message(dataset, config);
  DmfsgdSimulation compiled(dataset, config);
  per_message.RunRoundsPerMessage(40);
  compiled.RunRounds(40);
  EXPECT_GT(compiled.DroppedLegs(), 0u);
  EXPECT_GT(compiled.ChurnCount(), 0u);
  ExpectBitIdentical(per_message, compiled, "abw loss+churn");
}

TEST(CompiledRoundAlg2, AbwBitIdenticalUnderEveryProbeStrategy) {
  const Dataset dataset = SmallAbw();
  for (const ProbeStrategy strategy :
       {ProbeStrategy::kUniformRandom, ProbeStrategy::kRoundRobin,
        ProbeStrategy::kLossDriven}) {
    SimulationConfig config = BaseConfig(dataset);
    config.strategy = strategy;
    ExpectCompiledMatchesPerMessage(dataset, config, 30,
                                    ProbeStrategyName(strategy));
  }
}

TEST(CompiledRoundAlg2, SingleRoundIsTheSingletonCase) {
  const Dataset dataset = SmallAbw();
  ExpectCompiledMatchesPerMessage(dataset, BaseConfig(dataset), 1,
                                  "abw single round");
}

TEST(CompiledRound, RejectsProbeBursts) {
  // The COO gather models exactly one exchange per node per round; the
  // burst driver interleaves the shared-stream rolls differently.  The
  // compiled sweep refuses bursts, and RunRounds routes them around it.
  const Dataset dataset = SmallRtt();
  SimulationConfig config = BaseConfig(dataset);
  config.probe_burst = 3;
  ImmediateDeliveryChannel channel;
  DeploymentEngine engine(dataset, config, nullptr, channel);
  common::ThreadPool pool(1);
  EXPECT_THROW(engine.CompiledRoundSweep(
                   pool, linalg::KernelsFor(linalg::KernelIsa::kScalar)),
               std::logic_error);
  DmfsgdSimulation simulation(dataset, config);
  EXPECT_NO_THROW(simulation.RunRounds(1));
  EXPECT_EQ(simulation.MeasurementCount(), 3 * dataset.NodeCount());
}

// ------------------------------------------------------------------------
// Procedural datasets drive the bench-scale compiled rounds; pin the
// parity there too (small n — the property, not the scale).

TEST(CompiledRound, ProceduralDatasetKeepsParity) {
  datasets::EuclideanRttConfig procedural;
  procedural.node_count = 96;
  procedural.seed = 3;
  const Dataset dataset = datasets::MakeEuclideanRtt(procedural);
  SimulationConfig config;
  config.rank = 10;
  config.neighbor_count = 16;
  config.tau = datasets::SampledMedianValue(dataset);
  config.seed = 5;
  config.message_loss = 0.1;
  ExpectCompiledMatchesPerMessage(dataset, config, 30, "procedural rtt");
}

}  // namespace
}  // namespace dmfsgd::core
