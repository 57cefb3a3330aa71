// Peer selection demo (the paper's §6.4 application).
//
// A BitTorrent-like swarm wants each node to pick a well-connected peer out
// of a random candidate set.  This demo trains class-based and
// quantity-based DMFSGD side by side and compares three selection policies
// on optimality (stretch) and satisfaction (how often a node ends up with a
// "bad" peer although a good one was available).
//
// With --index the Classification/Regression selections are routed through
// the ANN query plane (an ann::PeerIndex per candidate set, DESIGN.md §16)
// instead of the exhaustive scan; --ef=N narrows the query beam (0 = exact
// mode, which reproduces the scan bit for bit).
//
// Usage: peer_selection_demo [--nodes=N] [--peers=P] [--seed=S]
//                            [--index] [--ef=N]
#include <exception>
#include <iostream>

#include "common/flags.hpp"
#include "common/table.hpp"
#include "core/simulation.hpp"
#include "datasets/meridian.hpp"
#include "eval/peer_selection.hpp"

namespace {

int Run(int argc, char** argv) {
  using namespace dmfsgd;

  const common::Flags flags(argc, argv,
                            {"nodes", "peers", "seed", "index", "ef"});
  const auto nodes = static_cast<std::size_t>(flags.GetInt("nodes", 250));
  const auto peers = static_cast<std::size_t>(flags.GetInt("peers", 30));
  const auto seed = static_cast<std::uint64_t>(flags.GetInt("seed", 1));
  const bool use_index = flags.GetBool("index", false);
  const auto index_ef = static_cast<std::size_t>(flags.GetInt("ef", 0));

  datasets::MeridianConfig dataset_config;
  dataset_config.node_count = nodes;
  dataset_config.seed = seed;
  const datasets::Dataset dataset = datasets::MakeMeridian(dataset_config);
  const double tau = dataset.MedianValue();

  // Class-based predictor (logistic loss on ±1 labels).
  core::SimulationConfig class_config;
  class_config.neighbor_count = 16;
  class_config.tau = tau;
  class_config.seed = seed;
  core::DmfsgdSimulation class_sim(dataset, class_config);
  class_sim.RunRounds(800);

  // Quantity-based predictor (L2 loss on tau-normalized RTTs) — same seed,
  // hence identical neighbor sets and peer sets.
  core::SimulationConfig reg_config = class_config;
  reg_config.mode = core::PredictionMode::kRegression;
  reg_config.params.loss = core::LossKind::kL2;
  reg_config.params.lambda = 0.01;  // weaker shrinkage for quantity fitting
  core::DmfsgdSimulation reg_sim(dataset, reg_config);
  reg_sim.RunRounds(800);

  std::cout << "peer selection among " << peers << " candidates per node ("
            << nodes << " nodes, tau = " << tau << " ms)";
  if (use_index) {
    std::cout << " via the ANN index ("
              << (index_ef == 0 ? std::string("exact mode")
                                : "ef = " + std::to_string(index_ef))
              << ")";
  }
  std::cout << "\n\n";

  common::Table table({"method", "avg stretch", "unsatisfied %"});
  eval::PeerSelectionConfig peer_config;
  peer_config.peer_count = peers;
  peer_config.seed = seed + 100;
  peer_config.use_index = use_index;
  peer_config.index_ef = index_ef;

  const auto random = eval::EvaluatePeerSelection(
      class_sim, eval::SelectionMethod::kRandom, peer_config);
  table.AddRow({"Random", common::FormatFixed(random.average_stretch, 3),
                common::FormatFixed(random.unsatisfied_fraction * 100.0, 1)});

  const auto classified = eval::EvaluatePeerSelection(
      class_sim, eval::SelectionMethod::kClassification, peer_config);
  table.AddRow({"Classification",
                common::FormatFixed(classified.average_stretch, 3),
                common::FormatFixed(classified.unsatisfied_fraction * 100.0, 1)});

  const auto regressed = eval::EvaluatePeerSelection(
      reg_sim, eval::SelectionMethod::kRegression, peer_config);
  table.AddRow({"Regression", common::FormatFixed(regressed.average_stretch, 3),
                common::FormatFixed(regressed.unsatisfied_fraction * 100.0, 1)});

  table.Print(std::cout);
  std::cout << "\nstretch: true RTT of the selected peer / true RTT of the best"
               " peer (1.0 = optimal)\nunsatisfied: picked a bad peer while a"
               " good one existed in the candidate set\n";
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  // A bad flag (or any failed step) reports and exits 1, like
  // dmfsgd_tool, instead of escaping main.
  try {
    return Run(argc, argv);
  } catch (const std::exception& error) {
    std::cerr << "error: " << error.what() << "\n";
    return 1;
  }
}
