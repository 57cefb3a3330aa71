// Serial equivalence of the pooled compiled round (DESIGN.md §14).
//
// RunRounds gathers a round sequentially and then executes it over a thread
// pool: Algorithm 1 in consecutive windows whose conflict components run in
// parallel, Algorithm 2 as the row-major target-group sweep.  The claim is
// exactness, not approximation: at every pool size the result must equal
// the per-message round byte for byte, and must reproduce goldens recorded
// from the one-edge-at-a-time sweep the pooled one replaced.  Pinned across
// both algorithms, loss + churn, the probe strategies, regression mode, an
// error injector, a dense set where a window is one big component, and
// sets large enough to span several windows.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstring>
#include <map>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "common/thread_pool.hpp"
#include "core/error_injection.hpp"
#include "core/round_compiler.hpp"
#include "core/simulation.hpp"
#include "linalg/matrix.hpp"

namespace dmfsgd::core {
namespace {

using datasets::Dataset;

// ------------------------------------------------------------------------
// The windowed conflict components themselves.

using ComponentMap = std::map<std::uint32_t, std::vector<std::uint32_t>>;

/// Every component of the last ComponentsByWindow, keyed by its root (its
/// first edge): what ComponentsRootedIn lists for that one root.
ComponentMap Components(const RoundCoo& coo) {
  ComponentMap out;
  for (std::size_t root = 0; root < coo.EdgeCount(); ++root) {
    const auto edges = coo.ComponentsRootedIn(root, root + 1);
    if (!edges.empty()) {
      out[static_cast<std::uint32_t>(root)] = {edges.begin(), edges.end()};
    }
  }
  return out;
}

TEST(RoundCooComponents, JoinOnlyWithinAWindow) {
  // Prober p probes target(p); edges are indexed by prober here.
  RoundCoo coo;
  const NodeId targets[] = {3, 0, 5, 1, 2, 4};
  for (NodeId p = 0; p < 6; ++p) {
    coo.Add(p, targets[p], true);
  }
  coo.ComponentsByWindow(6, 6);  // one window: two 3-cycles
  EXPECT_EQ(Components(coo), (ComponentMap{{0, {0, 1, 3}}, {2, {2, 4, 5}}}));
  // A root range lists its components one after another, each in
  // ascending edge order.
  const auto all = coo.ComponentsRootedIn(0, 6);
  EXPECT_EQ(std::vector<std::uint32_t>(all.begin(), all.end()),
            (std::vector<std::uint32_t>{0, 1, 3, 2, 4, 5}));
  EXPECT_TRUE(coo.ComponentsRootedIn(3, 6).empty());
  coo.ComponentsByWindow(6, 3);  // windows {0,1,2} {3,4,5}
  EXPECT_EQ(Components(coo),
            (ComponentMap{{0, {0, 1}}, {2, {2}}, {3, {3}}, {4, {4, 5}}}));
  coo.ComponentsByWindow(6, 1);  // every edge alone
  EXPECT_EQ(Components(coo), (ComponentMap{{0, {0}}, {1, {1}}, {2, {2}},
                                           {3, {3}}, {4, {4}}, {5, {5}}}));
}

TEST(RoundCooComponents, ProbersWithoutAnEdgeJoinNothing) {
  // Lost exchanges leave probers without an edge: edge indices no longer
  // equal prober ids, and a target with no edge of its own joins nothing.
  RoundCoo coo;
  coo.Add(0, 4, true);  // e0: prober 4 has no edge
  coo.Add(2, 0, true);  // e1 reads e0's rows
  coo.Add(3, 2, true);  // e2 reads e1's rows
  coo.Add(5, 1, true);  // e3: prober 1 has no edge
  coo.ComponentsByWindow(6, 4);
  EXPECT_EQ(Components(coo), (ComponentMap{{0, {0, 1, 2}}, {3, {3}}}));
  EXPECT_THROW(coo.ComponentsByWindow(6, 0), std::invalid_argument);
}

// ------------------------------------------------------------------------
// Parity and goldens.  The datasets draw only uniforms and square roots and
// the losses are smooth hinge / L2, so no libm transcendental enters the
// pinned trajectories, while both losses keep a gradient that moves with
// every low bit of the dots.

/// Symmetric RTT: 1 + Euclidean distance between uniform points in a plane.
/// Dense up to 512 nodes, procedural (matrix-free) above.
Dataset PlaneRtt(std::size_t n, std::uint64_t seed) {
  common::Rng rng(seed);
  auto x = std::make_shared<std::vector<double>>(n);
  auto y = std::make_shared<std::vector<double>>(n);
  for (std::size_t i = 0; i < n; ++i) {
    (*x)[i] = rng.Uniform(0.0, 100.0);
    (*y)[i] = rng.Uniform(0.0, 100.0);
  }
  const auto distance = [x, y](std::size_t i, std::size_t j) {
    const double dx = (*x)[i] - (*x)[j];
    const double dy = (*y)[i] - (*y)[j];
    return 1.0 + std::sqrt(dx * dx + dy * dy);
  };
  Dataset dataset;
  dataset.name = "plane-rtt";
  dataset.metric = datasets::Metric::kRtt;
  if (n > 512) {
    dataset.quantity_fn = distance;
    dataset.procedural_nodes = n;
    return dataset;
  }
  dataset.ground_truth = linalg::Matrix(n, n, linalg::Matrix::kMissing);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      if (i != j) {
        dataset.ground_truth(i, j) = distance(i, j);
      }
    }
  }
  return dataset;
}

/// Asymmetric ABW: an independent uniform quantity in [5, 100) per directed
/// pair, hashed from (seed, i, j).  Dense up to 512 nodes, procedural above.
Dataset UniformAbw(std::size_t n, std::uint64_t seed) {
  const auto quantity = [n, seed](std::size_t i, std::size_t j) {
    std::uint64_t z = seed + (i * n + j) * 0x9e3779b97f4a7c15ULL;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    z ^= z >> 31;
    return 5.0 + 95.0 * static_cast<double>(z >> 11) * 0x1.0p-53;
  };
  Dataset dataset;
  dataset.name = "uniform-abw";
  dataset.metric = datasets::Metric::kAbw;
  if (n > 512) {
    dataset.quantity_fn = quantity;
    dataset.procedural_nodes = n;
    return dataset;
  }
  dataset.ground_truth = linalg::Matrix(n, n, linalg::Matrix::kMissing);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      if (i != j) {
        dataset.ground_truth(i, j) = quantity(i, j);
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
  bool injector;
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

// Recorded from RunRounds before it took a pool (one edge at a time).  The
// "windows" cases gather about 2.4 windows' worth of edges per round (the
// window is 16384 edges), so rows cross window boundaries.
// name, abw, n, k, rounds, loss, churn, strategy, mode, injector, golden...
constexpr GoldenCase kGoldens[] = {
    {"rtt-plain", false, 96, 12, 30, 0.0, 0.0, kUniform, kClass, false,
     0xdabefa521a79a8c1ULL, 2880, 0, 0},
    {"rtt-loss-churn", false, 96, 12, 30, 0.1, 0.01, kUniform, kClass, false,
     0x323726e4562c8915ULL, 2303, 577, 23},
    {"rtt-loss-driven", false, 96, 12, 30, 0.1, 0.0, kLossDriven, kClass,
     false, 0xee6b8e374f553849ULL, 2318, 562, 0},
    {"rtt-round-robin-k2", false, 96, 2, 30, 0.0, 0.0, kRoundRobin, kClass,
     false, 0x524f61bdcacdb2ccULL, 2880, 0, 0},
    {"rtt-regression", false, 96, 12, 30, 0.0, 0.0, kUniform, kRegress, false,
     0xea3a4bc08cc5f754ULL, 2880, 0, 0},
    {"rtt-injector", false, 96, 12, 30, 0.0, 0.0, kUniform, kClass, true,
     0x791edfb93497ec2fULL, 2880, 0, 0},
    {"rtt-dense-n7-k6", false, 7, 6, 60, 0.0, 0.0, kUniform, kClass, false,
     0x1f8ca2f006b8748aULL, 420, 0, 0},
    {"rtt-windows-loss-churn", false, 48000, 8, 4, 0.1, 0.01, kUniform,
     kClass, false, 0xf16ce5bb623adebcULL, 155675, 36325, 1963},
    {"abw-plain", true, 96, 12, 30, 0.0, 0.0, kUniform, kClass, false,
     0xe68b52d8608ce49dULL, 2880, 0, 0},
    {"abw-loss-churn", true, 96, 12, 30, 0.1, 0.01, kUniform, kClass, false,
     0xb3fb1b46aa2ef90aULL, 2577, 577, 23},
    {"abw-loss-driven", true, 96, 12, 30, 0.1, 0.0, kLossDriven, kClass, false,
     0x51c81cf5304cb138ULL, 2576, 562, 0},
    {"abw-round-robin-k2", true, 96, 2, 30, 0.0, 0.0, kRoundRobin, kClass,
     false, 0x1ed45bb77f3effbfULL, 2880, 0, 0},
    {"abw-regression", true, 96, 12, 30, 0.0, 0.0, kUniform, kRegress, false,
     0x803f8d442c769162ULL, 2880, 0, 0},
    {"abw-injector", true, 96, 12, 30, 0.0, 0.0, kUniform, kClass, true,
     0x4a79784566cf9cecULL, 2880, 0, 0},
    {"abw-dense-n7-k6", true, 7, 6, 60, 0.0, 0.0, kUniform, kClass, false,
     0x8a0b56e5aa33328aULL, 420, 0, 0},
    {"abw-windows-loss-churn", true, 48000, 8, 4, 0.1, 0.01, kUniform, kClass,
     false, 0xa4cab0168c113786ULL, 173008, 36325, 1963},
};

std::uint64_t Fnv1a64(std::uint64_t hash, const void* data, std::size_t bytes) {
  const auto* p = static_cast<const unsigned char*>(data);
  for (std::size_t b = 0; b < bytes; ++b) {
    hash ^= p[b];
    hash *= 0x100000001b3ULL;
  }
  return hash;
}

std::uint64_t StoreHash(const DmfsgdSimulation& simulation) {
  const auto u = simulation.engine().store().UData();
  const auto v = simulation.engine().store().VData();
  std::uint64_t hash = 0xcbf29ce484222325ULL;
  hash = Fnv1a64(hash, u.data(), u.size_bytes());
  return Fnv1a64(hash, v.data(), v.size_bytes());
}

/// One golden case's deployment: the dataset, its config and (optionally)
/// its error injector, built once and shared by every run of the case.
struct Deployment {
  explicit Deployment(const GoldenCase& golden)
      : dataset(golden.abw ? UniformAbw(golden.nodes, 23)
                           : PlaneRtt(golden.nodes, 19)) {
    config.rank = 10;
    config.neighbor_count = golden.neighbors;
    config.tau = golden.abw ? 52.5 : 55.0;
    config.seed = 5;
    config.mode = golden.mode;
    config.params.loss =
        golden.mode == kRegress ? LossKind::kL2 : LossKind::kSmoothHinge;
    config.message_loss = golden.message_loss;
    config.churn_rate = golden.churn_rate;
    config.strategy = golden.strategy;
    if (golden.injector) {
      const ErrorSpec spec{ErrorType::kFlipRandom, 0.0, 0.1};
      injector.emplace(dataset, config.tau, std::span(&spec, 1), 41);
    }
  }

  [[nodiscard]] std::unique_ptr<DmfsgdSimulation> Make() const {
    return std::make_unique<DmfsgdSimulation>(
        dataset, config, injector ? &*injector : nullptr);
  }

  Dataset dataset;
  SimulationConfig config;
  std::optional<ErrorInjector> injector;
};

void ExpectSame(const DmfsgdSimulation& a, const DmfsgdSimulation& b,
                const std::string& what) {
  const auto u_a = a.engine().store().UData();
  const auto u_b = b.engine().store().UData();
  const auto v_a = a.engine().store().VData();
  const auto v_b = b.engine().store().VData();
  ASSERT_EQ(u_a.size(), u_b.size()) << what;
  // memcmp, not FP compare: the claim is bit-identity.
  EXPECT_EQ(std::memcmp(u_a.data(), u_b.data(), u_a.size_bytes()), 0)
      << what << ": U diverged";
  EXPECT_EQ(std::memcmp(v_a.data(), v_b.data(), v_a.size_bytes()), 0)
      << what << ": V diverged";
  EXPECT_EQ(a.MeasurementCount(), b.MeasurementCount()) << what;
  EXPECT_EQ(a.DroppedLegs(), b.DroppedLegs()) << what;
  EXPECT_EQ(a.ChurnCount(), b.ChurnCount()) << what;
}

void ExpectGolden(const DmfsgdSimulation& simulation, const GoldenCase& golden,
                  const std::string& what) {
  EXPECT_EQ(StoreHash(simulation), golden.uv_hash) << what;
  EXPECT_EQ(simulation.MeasurementCount(), golden.measurements) << what;
  EXPECT_EQ(simulation.DroppedLegs(), golden.dropped_legs) << what;
  EXPECT_EQ(simulation.ChurnCount(), golden.churns) << what;
}

void CheckCase(const GoldenCase& golden) {
  const Deployment deployment(golden);
  const auto per_message = deployment.Make();
  per_message->RunRoundsPerMessage(golden.rounds);
  ExpectGolden(*per_message, golden, std::string(golden.name) + ", per-message");
  for (const std::size_t threads : {1u, 2u, 3u, 4u, 16u}) {
    common::ThreadPool pool(threads);
    const auto pooled = deployment.Make();
    pooled->RunRounds(golden.rounds, pool);
    const std::string what =
        std::string(golden.name) + ", threads " + std::to_string(threads);
    ExpectSame(*per_message, *pooled, what);
    ExpectGolden(*pooled, golden, what);
  }
  // The simulation's own hardware-thread pool, one round per call.
  const auto own = deployment.Make();
  for (std::size_t round = 0; round < golden.rounds; ++round) {
    own->RunRounds(1);
  }
  ExpectSame(*per_message, *own, std::string(golden.name) + ", own pool");
}

class CompiledRoundParallel : public ::testing::TestWithParam<GoldenCase> {};

TEST_P(CompiledRoundParallel, EveryPoolSizeReplaysTheSequentialRound) {
  CheckCase(GetParam());
}

INSTANTIATE_TEST_SUITE_P(
    Goldens, CompiledRoundParallel, ::testing::ValuesIn(kGoldens),
    [](const ::testing::TestParamInfo<GoldenCase>& info) {
      std::string name = info.param.name;
      for (char& c : name) {
        if (c == '-') {
          c = '_';
        }
      }
      return name;
    });

}  // namespace
}  // namespace dmfsgd::core
