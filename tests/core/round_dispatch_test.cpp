// Dispatch parity pins for DmfsgdSimulation::RunRounds (DESIGN.md §14).
//
// RunRounds runs the compiled round sweep with the scalar kernel table
// whenever the config allows it (probe_burst == 1, no coalescing, no wire
// codec) and the per-message loop otherwise.  Either way it must return the
// exact bits of RunRoundsPerMessage: coordinates compared by memcmp, plus
// every counter.  compiled_round_test pins the compiler itself across both
// algorithms, loss, churn and probe strategies; this file covers the
// configs that suite does not — regression targets, injected label errors,
// trace datasets driven by rounds, the drift-tracking dirty set, a vector
// ISA left active, and the configs that fall back to the per-message loop.
#include <gtest/gtest.h>

#include <cstring>
#include <vector>

#include "core/error_injection.hpp"
#include "core/simulation.hpp"
#include "datasets/harvard.hpp"
#include "datasets/hps3.hpp"
#include "datasets/meridian.hpp"
#include "linalg/kernels.hpp"

namespace dmfsgd::core {
namespace {

using datasets::Dataset;

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

Dataset SmallRtt() {
  datasets::MeridianConfig config;
  config.node_count = 80;
  config.seed = 51;
  return datasets::MakeMeridian(config);
}

Dataset SmallAbw() {
  datasets::HpS3Config config;
  config.host_count = 80;
  config.seed = 53;
  return datasets::MakeHpS3(config);
}

SimulationConfig LossyConfig(const Dataset& dataset) {
  SimulationConfig config;
  config.rank = 10;
  config.neighbor_count = 12;
  config.tau = dataset.MedianValue();
  config.seed = 9;
  config.message_loss = 0.1;
  config.churn_rate = 0.01;
  return config;
}

void ExpectBitIdentical(const DmfsgdSimulation& a, const DmfsgdSimulation& b,
                        const char* what) {
  const auto u_a = a.engine().store().UData();
  const auto u_b = b.engine().store().UData();
  const auto v_a = a.engine().store().VData();
  const auto v_b = b.engine().store().VData();
  ASSERT_EQ(u_a.size(), u_b.size()) << what;
  EXPECT_EQ(std::memcmp(u_a.data(), u_b.data(), u_a.size_bytes()), 0)
      << what << ": U diverged";
  EXPECT_EQ(std::memcmp(v_a.data(), v_b.data(), v_a.size_bytes()), 0)
      << what << ": V diverged";
  EXPECT_EQ(a.MeasurementCount(), b.MeasurementCount()) << what;
  EXPECT_EQ(a.DroppedLegs(), b.DroppedLegs()) << what;
  EXPECT_EQ(a.ChurnCount(), b.ChurnCount()) << what;
}

/// RunRounds vs the per-message oracle on the same dataset and config.
void ExpectRunRoundsMatchesPerMessage(const Dataset& dataset,
                                      const SimulationConfig& config,
                                      std::size_t rounds, const char* what,
                                      const ErrorInjector* injector = nullptr) {
  DmfsgdSimulation oracle(dataset, config, injector);
  DmfsgdSimulation dispatched(dataset, config, injector);
  oracle.RunRoundsPerMessage(rounds);
  dispatched.RunRounds(rounds);
  EXPECT_GT(dispatched.MeasurementCount(), 0u) << what;
  ExpectBitIdentical(oracle, dispatched, what);
}

// ------------------------------------------------------------------------
// Configs the compiled round suite does not cover

TEST(RoundDispatch, RegressionModeMatchesPerMessage) {
  for (const Dataset& dataset : {SmallRtt(), SmallAbw()}) {
    SimulationConfig config = LossyConfig(dataset);
    config.mode = PredictionMode::kRegression;
    config.params.loss = LossKind::kL2;
    config.params.lambda = 0.01;
    ExpectRunRoundsMatchesPerMessage(dataset, config, 30, dataset.name.c_str());
  }
}

TEST(RoundDispatch, ErrorInjectorMatchesPerMessage) {
  for (const Dataset& dataset : {SmallRtt(), SmallAbw()}) {
    const SimulationConfig config = LossyConfig(dataset);
    const std::vector<ErrorSpec> specs{{ErrorType::kFlipRandom, 0.0, 0.2}};
    const ErrorInjector injector(dataset, config.tau, specs, 4);
    ASSERT_GT(injector.ErrorRate(), 0.0);
    ExpectRunRoundsMatchesPerMessage(dataset, config, 30, dataset.name.c_str(),
                                     &injector);
  }
}

TEST(RoundDispatch, TraceDatasetDrivenByRoundsMatchesPerMessage) {
  // Rounds on a trace dataset train on the static median matrix.
  datasets::HarvardConfig harvard;
  harvard.node_count = 60;
  harvard.trace_records = 20'000;
  harvard.seed = 17;
  const Dataset dataset = datasets::MakeHarvard(harvard);
  ASSERT_FALSE(dataset.trace.empty());
  ExpectRunRoundsMatchesPerMessage(dataset, LossyConfig(dataset), 30,
                                   "harvard rounds");
}

TEST(RoundDispatch, DriftTrackingDirtySetMatchesPerMessage) {
  for (const Dataset& dataset : {SmallRtt(), SmallAbw()}) {
    const SimulationConfig config = LossyConfig(dataset);
    DmfsgdSimulation oracle(dataset, config);
    DmfsgdSimulation dispatched(dataset, config);
    oracle.EnableDriftTracking();
    dispatched.EnableDriftTracking();
    for (int slice = 0; slice < 3; ++slice) {
      oracle.RunRoundsPerMessage(5);
      dispatched.RunRounds(5);
      const std::vector<NodeId> dirty = dispatched.TakeDirtyNodes();
      EXPECT_FALSE(dirty.empty()) << dataset.name;
      EXPECT_EQ(oracle.TakeDirtyNodes(), dirty) << dataset.name;
    }
    ExpectBitIdentical(oracle, dispatched, dataset.name.c_str());
  }
}

TEST(RoundDispatch, VectorIsaActiveStillMatchesScalarPerMessage) {
  linalg::KernelIsa vector_isa = linalg::KernelIsa::kScalar;
  for (const linalg::KernelIsa isa :
       {linalg::KernelIsa::kAvx512, linalg::KernelIsa::kAvx2}) {
    if (linalg::KernelIsaSupported(isa)) {
      vector_isa = isa;
      break;
    }
  }
  if (vector_isa == linalg::KernelIsa::kScalar) {
    GTEST_SKIP() << "no vector kernel table compiled+supported on this host";
  }
  for (const Dataset& dataset : {SmallRtt(), SmallAbw()}) {
    const SimulationConfig config = LossyConfig(dataset);
    DmfsgdSimulation oracle(dataset, config);
    DmfsgdSimulation dispatched(dataset, config);
    {
      const ActiveIsaGuard scalar(linalg::KernelIsa::kScalar);
      oracle.RunRoundsPerMessage(40);
    }
    {
      const ActiveIsaGuard vector(vector_isa);
      dispatched.RunRounds(40);
    }
    ExpectBitIdentical(oracle, dispatched, dataset.name.c_str());
  }
}

// ------------------------------------------------------------------------
// Configs that fall back to the per-message loop

TEST(RoundDispatch, ProbeBurstsRunPerMessage) {
  // The compiled sweep rejects bursts; RunRounds must route around it.
  const Dataset dataset = SmallRtt();
  SimulationConfig config = LossyConfig(dataset);
  config.probe_burst = 4;
  DmfsgdSimulation oracle(dataset, config);
  DmfsgdSimulation dispatched(dataset, config);
  oracle.RunRoundsPerMessage(10);
  EXPECT_NO_THROW(dispatched.RunRounds(10));
  ExpectBitIdentical(oracle, dispatched, "probe burst 4");
}

/// A decorated stack driven by RunRounds vs the undecorated per-message
/// oracle: at burst 1 neither decorator may change a bit (DESIGN.md §13).
void ExpectDecoratedMatchesPlain(const Dataset& dataset,
                                 const SimulationConfig& decorated,
                                 const char* what) {
  SimulationConfig plain = decorated;
  plain.coalesce_delivery = false;
  plain.use_wire_format = false;
  DmfsgdSimulation oracle(dataset, plain);
  DmfsgdSimulation dispatched(dataset, decorated);
  oracle.RunRoundsPerMessage(30);
  dispatched.RunRounds(30);
  ExpectBitIdentical(oracle, dispatched, what);
}

TEST(RoundDispatch, CoalescedDeliveryMatchesPerMessage) {
  for (const Dataset& dataset : {SmallRtt(), SmallAbw()}) {
    SimulationConfig config = LossyConfig(dataset);
    config.coalesce_delivery = true;
    ExpectDecoratedMatchesPlain(dataset, config, dataset.name.c_str());
  }
}

TEST(RoundDispatch, WireCodecMatchesPerMessage) {
  for (const Dataset& dataset : {SmallRtt(), SmallAbw()}) {
    SimulationConfig config = LossyConfig(dataset);
    config.use_wire_format = true;
    ExpectDecoratedMatchesPlain(dataset, config, dataset.name.c_str());
  }
}

}  // namespace
}  // namespace dmfsgd::core
