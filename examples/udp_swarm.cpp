// A real DMFSGD swarm over UDP loopback sockets.
//
// Every node is an actual UDP endpoint speaking the binary wire protocol:
// probes, coordinate exchanges and class measurements all travel as
// datagrams through the kernel's loopback interface.  The ground-truth
// network is simulated (a Meridian-like delay space supplies the class
// labels a real agent would obtain from ping timings), but the protocol
// path is exactly what a deployment would run.
//
// With --coalesce the swarm exercises the batched message plane
// (DESIGN.md §13): each peer fires --batch-size probes per round, packs
// same-target requests into one datagram, targets answer a request batch
// with one packed reply datagram, and receivers fold each reply envelope
// into a single mini-batch gradient step.  The datagram counter at the end
// shows what coalescing saves on the wire.
//
// Usage: udp_swarm [--nodes=N] [--neighbors=K] [--rounds=R] plus the shared
// protocol flags (common::ProtocolFlagNames): --rank --eta --lambda --loss
// --tau --seed --batch-size --coalesce
#include <exception>
#include <iostream>
#include <memory>
#include <vector>

#include "common/flags.hpp"
#include "common/rng.hpp"
#include "datasets/meridian.hpp"
#include "eval/roc.hpp"
#include "transport/udp_peer.hpp"

namespace {

int Run(int argc, char** argv) {
  using namespace dmfsgd;

  const common::Flags flags(
      argc, argv,
      common::WithProtocolFlagNames({"nodes", "neighbors", "rounds"}));
  const auto nodes = static_cast<std::size_t>(flags.GetInt("nodes", 60));
  const auto k = static_cast<std::size_t>(flags.GetInt("neighbors", 10));
  const auto rounds = static_cast<std::size_t>(flags.GetInt("rounds", 300));
  const auto seed = static_cast<std::uint64_t>(flags.GetInt("seed", 1));

  datasets::MeridianConfig dataset_config;
  dataset_config.node_count = nodes;
  dataset_config.seed = seed;
  const datasets::Dataset dataset = datasets::MakeMeridian(dataset_config);

  // One parse of the shared protocol knobs; each peer then specializes only
  // its identity (id, decorrelated seed).
  transport::UdpPeerConfig base;
  common::ApplyProtocolFlags(flags, base, dataset.MedianValue());
  const double tau = base.tau;
  const std::size_t batch = base.probe_burst;

  // The "measurement tool": in deployment this is the ping timing; here the
  // delay-space ground truth thresholded at tau.
  transport::MeasurementFn measure = [&dataset, tau](core::NodeId prober,
                                                     core::NodeId target) {
    return static_cast<double>(datasets::ClassOf(
        dataset.metric, dataset.Quantity(prober, target), tau));
  };

  // Spin up the swarm: one UDP socket per node, ephemeral loopback ports.
  std::vector<std::unique_ptr<transport::UdpDmfsgdPeer>> peers;
  peers.reserve(nodes);
  for (std::size_t i = 0; i < nodes; ++i) {
    transport::UdpPeerConfig config = base;
    config.id = static_cast<core::NodeId>(i);
    config.seed = base.seed + i;
    peers.push_back(std::make_unique<transport::UdpDmfsgdPeer>(config, measure));
  }
  common::Rng rng(seed + 999);
  for (std::size_t i = 0; i < nodes; ++i) {
    const auto picks = rng.SampleWithoutReplacement(nodes - 1, k);
    for (const std::size_t p : picks) {
      const std::size_t j = p < i ? p : p + 1;
      peers[i]->AddNeighbor(static_cast<core::NodeId>(j), peers[j]->Port());
    }
  }
  std::cout << "swarm of " << nodes << " UDP peers on 127.0.0.1 (ports "
            << peers.front()->Port() << ".." << peers.back()->Port()
            << "), k = " << k << ", tau = " << tau << " ms, batch = " << batch
            << (base.coalesce_delivery ? ", coalesced" : ", per-message")
            << "\n";

  // Train: everyone probes once per round, then the swarm drains its mail.
  for (std::size_t round = 0; round < rounds; ++round) {
    for (auto& peer : peers) {
      peer->Probe();
    }
    std::size_t handled = 1;
    while (handled > 0) {
      handled = 0;
      for (auto& peer : peers) {
        handled += peer->Pump();
      }
    }
  }

  std::size_t datagrams_applied = 0;
  std::size_t datagrams_sent = 0;
  for (const auto& peer : peers) {
    datagrams_applied += peer->MeasurementsApplied();
    datagrams_sent += peer->DatagramsSent();
  }
  std::cout << "applied " << datagrams_applied << " measurements over "
            << datagrams_sent << " real datagrams ("
            << (datagrams_applied > 0
                    ? static_cast<double>(datagrams_sent) /
                          static_cast<double>(datagrams_applied)
                    : 0.0)
            << " datagrams per measurement)\n";

  // Evaluate the learned classes over all pairs.
  std::vector<double> scores;
  std::vector<int> labels;
  for (std::size_t i = 0; i < nodes; ++i) {
    for (std::size_t j = 0; j < nodes; ++j) {
      if (i == j) {
        continue;
      }
      scores.push_back(peers[i]->Predict(peers[j]->node().v()));
      labels.push_back(
          datasets::ClassOf(dataset.metric, dataset.Quantity(i, j), tau));
    }
  }
  std::cout << "AUC over all pairs: " << eval::Auc(scores, labels) << "\n";
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
