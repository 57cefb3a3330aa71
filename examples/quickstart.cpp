// Quickstart: the smallest useful DMFSGD deployment, run the way the paper
// means it to run — as a resident coordinate service.
//
// Generates a Meridian-like RTT dataset, trains the decentralized class
// prediction through the service's ingest plane, then asks the query plane
// the questions an application would: how good is this path, and who are
// my best peers.
//
// This example deliberately includes only the public umbrella header.
//
// Usage: quickstart [--nodes=N] [--rounds=R] [--seed=S] [--rank=r] ...
#include <exception>
#include <iostream>

#include "dmfsgd.hpp"

namespace {

int Run(int argc, char** argv) {
  using namespace dmfsgd;

  const common::Flags flags(argc, argv,
                            common::WithProtocolFlagNames({"nodes", "rounds"}));
  const auto nodes = static_cast<std::size_t>(flags.GetInt("nodes", 200));
  const auto rounds = static_cast<std::size_t>(flags.GetInt("rounds", 600));

  // 1. A synthetic Internet: clustered delay space with low-rank structure.
  datasets::MeridianConfig dataset_config;
  dataset_config.node_count = nodes;
  dataset_config.seed = static_cast<std::uint64_t>(flags.GetInt("seed", 1));
  const datasets::Dataset dataset = datasets::MakeMeridian(dataset_config);
  std::cout << "dataset: " << dataset.name << " with " << dataset.NodeCount()
            << " nodes, metric " << MetricName(dataset.metric) << "\n";

  // 2. The resident service: every node keeps k = 16 random neighbors and
  //    r = 10 coordinates; probes carry only class labels.  The shared
  //    protocol flags (--rank, --eta, --seed, ...) apply directly.
  svc::ServiceConfig config;
  config.neighbor_count = 16;
  common::ApplyProtocolFlags(flags, config, dataset.MedianValue());
  std::cout << "tau = " << config.tau << " ms (median)\n";
  svc::CoordinateService service(dataset, config);

  // 3. Train through the ingest plane: each round every node probes one
  //    neighbor, and the service keeps its peer index warm as drift lands.
  service.IngestRounds(rounds);
  std::cout << "ingested " << service.stats().ingests << " measurements ("
            << service.engine().AverageMeasurementsPerNode() << " per node)\n";

  // 4. Evaluate on the pairs that were never measured.
  const auto pairs = eval::CollectScoredPairs(service.engine());
  const auto scores = eval::Scores(pairs);
  const auto labels = eval::Labels(pairs);
  std::cout << "test pairs: " << pairs.size() << "\n"
            << "AUC:        " << eval::Auc(scores, labels) << "\n"
            << "accuracy:   "
            << eval::ConfusionFromScores(scores, labels).Accuracy() * 100.0
            << "%\n";

  // 5. Ask the service concrete questions: is the path 0 -> 17 good, and
  //    which peers should node 0 prefer?
  const double score = service.QueryScore(0, 17);
  std::cout << "path 0->17: predicted "
            << (service.QueryLevel(0, 17) > 0 ? "good" : "bad") << " (score "
            << score << "), actually "
            << (datasets::ClassOf(dataset.metric, dataset.Quantity(0, 17),
                                  config.tau) > 0
                    ? "good"
                    : "bad")
            << " (rtt " << dataset.Quantity(0, 17) << " ms)\n";
  const eval::KnnResult peers = service.QueryNearestPeers(0, 5);
  std::cout << "best peers of node 0:";
  for (const std::size_t peer : peers.ids) {
    std::cout << " " << peer;
  }
  std::cout << "\n";
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
