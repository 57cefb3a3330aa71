// Determinism and semantics of the parallel deployment sweep.
//
// The load-bearing property: RunRoundsParallel produces bit-identical
// coordinates (and counters) for every pool size and every active kernel
// ISA, because each node's round work is a pure function of the
// start-of-round snapshot (Algorithm 1) or its target group's ascending
// prober order (Algorithm 2) plus its private RNG stream, and every update
// runs through the scalar kernel table.  Pinned across every engine feature
// that could break it — message loss, churn, each probe strategy, and both
// exchange algorithms — and against goldens recorded from the per-message
// parallel sweep this one replaced.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "common/thread_pool.hpp"
#include "core/simulation.hpp"
#include "datasets/hps3.hpp"
#include "datasets/meridian.hpp"
#include "eval/roc.hpp"
#include "eval/scored_pairs.hpp"
#include "linalg/kernels.hpp"
#include "linalg/matrix.hpp"

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

/// Runs `rounds` parallel rounds on a fresh deployment with `threads`
/// workers and returns the simulation for inspection (by pointer — the
/// engine pins its address into the channel sink, so it never moves).
std::unique_ptr<DmfsgdSimulation> RunParallel(const Dataset& dataset,
                                              const SimulationConfig& config,
                                              std::size_t rounds,
                                              std::size_t threads) {
  auto simulation = std::make_unique<DmfsgdSimulation>(dataset, config);
  common::ThreadPool pool(threads);
  simulation->RunRoundsParallel(rounds, pool);
  return simulation;
}

void ExpectBitIdentical(const DmfsgdSimulation& a, const DmfsgdSimulation& b) {
  const auto& store_a = a.engine().store();
  const auto& store_b = b.engine().store();
  ASSERT_EQ(store_a.NodeCount(), store_b.NodeCount());
  ASSERT_EQ(store_a.rank(), store_b.rank());
  const auto u_a = store_a.UData();
  const auto u_b = store_b.UData();
  const auto v_a = store_a.VData();
  const auto v_b = store_b.VData();
  // memcmp, not FP compare: the claim is bit-identity, and it must hold for
  // every byte of both factors.
  EXPECT_EQ(std::memcmp(u_a.data(), u_b.data(), u_a.size_bytes()), 0);
  EXPECT_EQ(std::memcmp(v_a.data(), v_b.data(), v_a.size_bytes()), 0);
  EXPECT_EQ(a.MeasurementCount(), b.MeasurementCount());
  EXPECT_EQ(a.DroppedLegs(), b.DroppedLegs());
  EXPECT_EQ(a.ChurnCount(), b.ChurnCount());
}

TEST(ParallelSweep, BitIdenticalAcrossPoolSizes) {
  const Dataset dataset = SmallRtt();
  const SimulationConfig config = BaseConfig(dataset);
  const auto single = RunParallel(dataset, config, 40, 1);
  EXPECT_GT(single->MeasurementCount(), 0u);
  for (const std::size_t threads : {2u, 4u, 7u}) {
    const auto multi = RunParallel(dataset, config, 40, threads);
    ExpectBitIdentical(*single, *multi);
  }
}

TEST(ParallelSweep, BitIdenticalWithMessageLossAndChurn) {
  const Dataset dataset = SmallRtt();
  SimulationConfig config = BaseConfig(dataset);
  config.message_loss = 0.2;
  config.churn_rate = 0.02;
  const auto single = RunParallel(dataset, config, 40, 1);
  EXPECT_GT(single->DroppedLegs(), 0u);
  EXPECT_GT(single->ChurnCount(), 0u);
  const auto multi = RunParallel(dataset, config, 40, 4);
  ExpectBitIdentical(*single, *multi);
}

TEST(ParallelSweep, BitIdenticalUnderEveryProbeStrategy) {
  const Dataset dataset = SmallRtt();
  for (const ProbeStrategy strategy :
       {ProbeStrategy::kUniformRandom, ProbeStrategy::kRoundRobin,
        ProbeStrategy::kLossDriven}) {
    SimulationConfig config = BaseConfig(dataset);
    config.strategy = strategy;
    const auto single = RunParallel(dataset, config, 30, 1);
    const auto multi = RunParallel(dataset, config, 30, 4);
    ExpectBitIdentical(*single, *multi);
  }
}

TEST(ParallelSweep, LearnsLikeTheSequentialDriver) {
  const Dataset dataset = SmallRtt();
  const SimulationConfig config = BaseConfig(dataset);
  const auto simulation = RunParallel(dataset, config, 600, 4);
  EXPECT_EQ(simulation->MeasurementCount(), 600u * dataset.NodeCount());
  const auto pairs = eval::CollectScoredPairs(*simulation);
  EXPECT_GT(eval::Auc(eval::Scores(pairs), eval::Labels(pairs)), 0.85);
}

// ------------------------------------------------------------------------
// Algorithm 2 (target-measured metrics): the row-major target-group schedule.

TEST(ParallelSweepAlg2, BitIdenticalAcrossPoolSizes) {
  const Dataset dataset = SmallAbw();
  const SimulationConfig config = BaseConfig(dataset);
  const auto single = RunParallel(dataset, config, 40, 1);
  EXPECT_GT(single->MeasurementCount(), 0u);
  for (const std::size_t threads : {2u, 4u, 7u}) {
    const auto multi = RunParallel(dataset, config, 40, threads);
    ExpectBitIdentical(*single, *multi);
  }
}

TEST(ParallelSweepAlg2, BitIdenticalWithMessageLossAndChurn) {
  const Dataset dataset = SmallAbw();
  SimulationConfig config = BaseConfig(dataset);
  config.message_loss = 0.2;
  config.churn_rate = 0.02;
  const auto single = RunParallel(dataset, config, 40, 1);
  EXPECT_GT(single->DroppedLegs(), 0u);
  EXPECT_GT(single->ChurnCount(), 0u);
  const auto multi = RunParallel(dataset, config, 40, 4);
  ExpectBitIdentical(*single, *multi);
}

TEST(ParallelSweepAlg2, BitIdenticalUnderEveryProbeStrategy) {
  const Dataset dataset = SmallAbw();
  for (const ProbeStrategy strategy :
       {ProbeStrategy::kUniformRandom, ProbeStrategy::kRoundRobin,
        ProbeStrategy::kLossDriven}) {
    SimulationConfig config = BaseConfig(dataset);
    config.strategy = strategy;
    const auto single = RunParallel(dataset, config, 30, 1);
    const auto multi = RunParallel(dataset, config, 30, 4);
    ExpectBitIdentical(*single, *multi);
  }
}

TEST(ParallelSweepAlg2, CountsExactlyWithoutLoss) {
  // Every exchange lands: the target consumes one measurement per pair.
  const Dataset dataset = SmallAbw();
  const auto simulation = RunParallel(dataset, BaseConfig(dataset), 25, 3);
  EXPECT_EQ(simulation->MeasurementCount(), 25u * dataset.NodeCount());
  EXPECT_EQ(simulation->DroppedLegs(), 0u);
}

TEST(ParallelSweepAlg2, LossAccountingMatchesExchangeSemantics) {
  // Per exchange: leg-1 loss = no measurement + 1 drop; leg-2 loss = a
  // target-side measurement + 1 drop; so measurements <= exchanges and
  // measurements + drops >= exchanges.
  const Dataset dataset = SmallAbw();
  SimulationConfig config = BaseConfig(dataset);
  config.message_loss = 0.25;
  const auto simulation = RunParallel(dataset, config, 40, 4);
  const std::size_t exchanges = 40u * dataset.NodeCount();
  EXPECT_GT(simulation->DroppedLegs(), 0u);
  EXPECT_LT(simulation->MeasurementCount(), exchanges);
  EXPECT_GE(simulation->MeasurementCount() + simulation->DroppedLegs(), exchanges);
}

TEST(ParallelSweepAlg2, LearnsLikeTheSequentialDriver) {
  const Dataset dataset = SmallAbw();
  const SimulationConfig config = BaseConfig(dataset);
  const auto simulation = RunParallel(dataset, config, 600, 4);
  const auto pairs = eval::CollectScoredPairs(*simulation);
  EXPECT_GT(eval::Auc(eval::Scores(pairs), eval::Labels(pairs)), 0.85);
}

// ------------------------------------------------------------------------
// Goldens: FNV-1a 64 over the U then V bytes, plus the three counters,
// recorded from the per-message parallel sweep (DmfsgdNode updates, the
// phase schedule for Algorithm 2) before the compiled sweep replaced it.
// The datasets draw only uniforms and square roots and the losses are
// smooth hinge / L2, so no libm transcendental enters the pinned
// trajectory — while both losses keep a gradient that moves with every
// low bit of the dots (a plain hinge's does not), so a sweep that followed
// a vector table would miss the goldens.

/// Symmetric RTT: 1 + Euclidean distance between uniform points in a plane.
Dataset PlaneRtt(std::size_t n, std::uint64_t seed) {
  common::Rng rng(seed);
  std::vector<double> x(n);
  std::vector<double> y(n);
  for (std::size_t i = 0; i < n; ++i) {
    x[i] = rng.Uniform(0.0, 100.0);
    y[i] = rng.Uniform(0.0, 100.0);
  }
  Dataset dataset;
  dataset.name = "plane-rtt";
  dataset.metric = datasets::Metric::kRtt;
  dataset.ground_truth = linalg::Matrix(n, n, linalg::Matrix::kMissing);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      if (i != j) {
        const double dx = x[i] - x[j];
        const double dy = y[i] - y[j];
        dataset.ground_truth(i, j) = 1.0 + std::sqrt(dx * dx + dy * dy);
      }
    }
  }
  return dataset;
}

/// Asymmetric ABW: independent uniform quantities per directed pair.
Dataset UniformAbw(std::size_t n, std::uint64_t seed) {
  common::Rng rng(seed);
  Dataset dataset;
  dataset.name = "uniform-abw";
  dataset.metric = datasets::Metric::kAbw;
  dataset.ground_truth = linalg::Matrix(n, n, linalg::Matrix::kMissing);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      if (i != j) {
        dataset.ground_truth(i, j) = rng.Uniform(5.0, 100.0);
      }
    }
  }
  return dataset;
}

struct GoldenCase {
  const char* name;
  bool abw;
  std::size_t nodes;
  std::size_t neighbors;
  std::size_t rounds;
  double message_loss;
  double churn_rate;
  ProbeStrategy strategy;
  PredictionMode mode;
  std::uint64_t uv_hash;
  std::size_t measurements;
  std::size_t dropped_legs;
  std::size_t churns;
};

constexpr ProbeStrategy kUniform = ProbeStrategy::kUniformRandom;
constexpr ProbeStrategy kRoundRobin = ProbeStrategy::kRoundRobin;
constexpr ProbeStrategy kLossDriven = ProbeStrategy::kLossDriven;
constexpr PredictionMode kClass = PredictionMode::kClassification;
constexpr PredictionMode kRegress = PredictionMode::kRegression;

// name, abw, n, k, rounds, loss, churn, strategy, mode, golden...
constexpr GoldenCase kGoldens[] = {
    {"rtt-plain", false, 96, 12, 40, 0.0, 0.0, kUniform, kClass,
     0xae2dc188a0a1d092ULL, 3840, 0, 0},
    {"rtt-loss-churn", false, 96, 12, 40, 0.2, 0.02, kUniform, kClass,
     0xd90c0ee55504ae57ULL, 2426, 1414, 74},
    {"rtt-round-robin", false, 96, 12, 30, 0.0, 0.0, kRoundRobin, kClass,
     0xb1da828431fa923aULL, 2880, 0, 0},
    {"rtt-loss-driven", false, 96, 12, 30, 0.1, 0.0, kLossDriven, kClass,
     0x6759e6f08d1a7f55ULL, 2312, 568, 0},
    {"rtt-regression", false, 96, 12, 30, 0.0, 0.0, kUniform, kRegress,
     0x71c0eb91b146076cULL, 2880, 0, 0},
    {"rtt-small-n", false, 7, 3, 50, 0.1, 0.05, kUniform, kClass,
     0xd979292bb7f50a7eULL, 284, 66, 16},
    {"abw-plain", true, 96, 12, 40, 0.0, 0.0, kUniform, kClass,
     0x1298ed39af0f52f7ULL, 3840, 0, 0},
    {"abw-loss-churn", true, 96, 12, 40, 0.2, 0.02, kUniform, kClass,
     0xe7c50ef1edbe0d49ULL, 3029, 1414, 74},
    {"abw-round-robin", true, 96, 12, 30, 0.0, 0.0, kRoundRobin, kClass,
     0xb73be202bc2268ceULL, 2880, 0, 0},
    {"abw-loss-driven", true, 96, 12, 30, 0.1, 0.0, kLossDriven, kClass,
     0x820cdc66ff13e1b3ULL, 2583, 568, 0},
    {"abw-regression", true, 96, 12, 30, 0.0, 0.0, kUniform, kRegress,
     0x850090a4326ff511ULL, 2880, 0, 0},
    {"abw-small-n", true, 7, 3, 50, 0.1, 0.05, kUniform, kClass,
     0x76a43c3e64b0e5abULL, 309, 66, 16},
};

std::uint64_t Fnv1a64(std::uint64_t hash, const void* data, std::size_t bytes) {
  const auto* p = static_cast<const unsigned char*>(data);
  for (std::size_t b = 0; b < bytes; ++b) {
    hash ^= p[b];
    hash *= 0x100000001b3ULL;
  }
  return hash;
}

/// Sets the active kernel table for a scope and restores the previous one.
class ActiveIsaGuard {
 public:
  explicit ActiveIsaGuard(linalg::KernelIsa isa)
      : saved_(linalg::ActiveKernelIsa()) {
    linalg::SetKernelIsa(isa);
  }
  ~ActiveIsaGuard() { linalg::SetKernelIsa(saved_); }
  ActiveIsaGuard(const ActiveIsaGuard&) = delete;
  ActiveIsaGuard& operator=(const ActiveIsaGuard&) = delete;

 private:
  linalg::KernelIsa saved_;
};

void ExpectGoldensHold(const char* isa_name) {
  for (const GoldenCase& golden : kGoldens) {
    const Dataset dataset =
        golden.abw ? UniformAbw(golden.nodes, 23) : PlaneRtt(golden.nodes, 19);
    SimulationConfig config;
    config.rank = 10;
    config.neighbor_count = golden.neighbors;
    config.tau = dataset.MedianValue();
    config.seed = 5;
    config.mode = golden.mode;
    config.params.loss =
        golden.mode == kRegress ? LossKind::kL2 : LossKind::kSmoothHinge;
    config.message_loss = golden.message_loss;
    config.churn_rate = golden.churn_rate;
    config.strategy = golden.strategy;
    for (const std::size_t threads : {1u, 2u, 4u}) {
      const auto simulation =
          RunParallel(dataset, config, golden.rounds, threads);
      const auto u = simulation->engine().store().UData();
      const auto v = simulation->engine().store().VData();
      std::uint64_t hash = 0xcbf29ce484222325ULL;
      hash = Fnv1a64(hash, u.data(), u.size_bytes());
      hash = Fnv1a64(hash, v.data(), v.size_bytes());
      const std::string what = std::string(golden.name) + ", " + isa_name +
                               ", threads " + std::to_string(threads);
      EXPECT_EQ(hash, golden.uv_hash) << what;
      EXPECT_EQ(simulation->MeasurementCount(), golden.measurements) << what;
      EXPECT_EQ(simulation->DroppedLegs(), golden.dropped_legs) << what;
      EXPECT_EQ(simulation->ChurnCount(), golden.churns) << what;
    }
  }
}

TEST(ParallelSweepGolden, ScalarTableMatchesThePerMessageSweep) {
  const ActiveIsaGuard scalar(linalg::KernelIsa::kScalar);
  ExpectGoldensHold("scalar");
}

TEST(ParallelSweepGolden, VectorTableActiveStillMatches) {
  // The sweep must not follow the active table: a vector table reduces the
  // dots in a different order and would move the low bits.
  for (const linalg::KernelIsa isa :
       {linalg::KernelIsa::kAvx512, linalg::KernelIsa::kAvx2}) {
    if (linalg::KernelIsaSupported(isa)) {
      const ActiveIsaGuard vector(isa);
      ExpectGoldensHold(linalg::KernelIsaName(isa));
      return;
    }
  }
  GTEST_SKIP() << "no vector kernel table compiled+supported on this host";
}

}  // namespace
}  // namespace dmfsgd::core
