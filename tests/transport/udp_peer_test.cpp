#include "transport/udp_peer.hpp"

#include <gtest/gtest.h>

#include <memory>

#include "datasets/hps3.hpp"
#include "datasets/meridian.hpp"
#include "core/wire.hpp"
#include "eval/roc.hpp"

namespace dmfsgd::transport {
namespace {

using datasets::Dataset;

Dataset SmallRtt() {
  datasets::MeridianConfig config;
  config.node_count = 40;
  config.seed = 31;
  return datasets::MakeMeridian(config);
}

Dataset SmallAbw() {
  datasets::HpS3Config config;
  config.host_count = 30;
  config.missing_fraction = 0.0;
  config.seed = 33;
  return datasets::MakeHpS3(config);
}

/// Builds a fully-wired loopback swarm: every peer neighbors `k` others.
std::vector<std::unique_ptr<UdpDmfsgdPeer>> MakeSwarm(const Dataset& dataset,
                                                      double tau, std::size_t k) {
  const bool symmetric = dataset.metric == datasets::Metric::kRtt;
  MeasurementFn measure = [&dataset, tau](core::NodeId prober,
                                          core::NodeId target) {
    return static_cast<double>(datasets::ClassOf(
        dataset.metric, dataset.Quantity(prober, target), tau));
  };
  std::vector<std::unique_ptr<UdpDmfsgdPeer>> peers;
  for (std::size_t i = 0; i < dataset.NodeCount(); ++i) {
    UdpPeerConfig config;
    config.id = static_cast<core::NodeId>(i);
    config.symmetric_metric = symmetric;
    config.tau = tau;
    config.seed = 100 + i;
    peers.push_back(std::make_unique<UdpDmfsgdPeer>(config, measure));
  }
  common::Rng rng(7);
  for (std::size_t i = 0; i < peers.size(); ++i) {
    const auto picks = rng.SampleWithoutReplacement(peers.size() - 1, k);
    for (const std::size_t p : picks) {
      const std::size_t j = p < i ? p : p + 1;  // skip self
      peers[i]->AddNeighbor(static_cast<core::NodeId>(j), peers[j]->Port());
    }
  }
  return peers;
}

void RunRounds(std::vector<std::unique_ptr<UdpDmfsgdPeer>>& peers,
               std::size_t rounds) {
  for (std::size_t round = 0; round < rounds; ++round) {
    for (auto& peer : peers) {
      peer->Probe();
    }
    // Pump until the swarm drains (requests spawn replies).
    std::size_t handled = 1;
    while (handled > 0) {
      handled = 0;
      for (auto& peer : peers) {
        handled += peer->Pump();
      }
    }
  }
}

TEST(UdpPeer, RequiresMeasurementCallback) {
  EXPECT_THROW(UdpDmfsgdPeer(UdpPeerConfig{}, MeasurementFn{}),
               std::invalid_argument);
}

TEST(UdpPeer, RejectsSelfNeighbor) {
  UdpPeerConfig config;
  config.id = 3;
  UdpDmfsgdPeer peer(config, [](core::NodeId, core::NodeId) { return 1.0; });
  EXPECT_THROW(peer.AddNeighbor(3, 12345), std::invalid_argument);
  EXPECT_EQ(peer.NeighborCount(), 0u);
}

TEST(UdpPeer, ProbeWithoutNeighborsIsNoOp) {
  UdpDmfsgdPeer peer(UdpPeerConfig{},
                     [](core::NodeId, core::NodeId) { return 1.0; });
  EXPECT_NO_THROW(peer.Probe());
  EXPECT_EQ(peer.Pump(), 0u);
}

TEST(UdpPeer, RttExchangeAppliesMeasurementAtProber) {
  const Dataset dataset = SmallRtt();
  const double tau = dataset.MedianValue();
  auto peers = MakeSwarm(dataset, tau, 5);
  RunRounds(peers, 3);
  // Every peer probed 3 times; each successful exchange applies exactly one
  // measurement at the prober.
  for (const auto& peer : peers) {
    EXPECT_EQ(peer->MeasurementsApplied(), 3u);
    EXPECT_EQ(peer->MalformedDatagrams(), 0u);
  }
}

TEST(UdpPeer, AbwExchangeAppliesMeasurementAtTarget) {
  const Dataset dataset = SmallAbw();
  const double tau = dataset.MedianValue();
  auto peers = MakeSwarm(dataset, tau, 5);
  RunRounds(peers, 3);
  std::size_t total = 0;
  for (const auto& peer : peers) {
    total += peer->MeasurementsApplied();
  }
  // ABW measurements are counted at targets: 3 probes per node => 3n total.
  EXPECT_EQ(total, 3u * peers.size());
}

TEST(UdpPeer, SwarmLearnsOverRealSockets) {
  const Dataset dataset = SmallRtt();
  const double tau = dataset.MedianValue();
  auto peers = MakeSwarm(dataset, tau, 10);
  RunRounds(peers, 250);

  // Evaluate over all ordered pairs using live coordinates.
  std::vector<double> scores;
  std::vector<int> labels;
  for (std::size_t i = 0; i < peers.size(); ++i) {
    for (std::size_t j = 0; j < peers.size(); ++j) {
      if (i == j) {
        continue;
      }
      scores.push_back(peers[i]->Predict(peers[j]->node().v()));
      labels.push_back(
          datasets::ClassOf(dataset.metric, dataset.Quantity(i, j), tau));
    }
  }
  EXPECT_GT(eval::Auc(scores, labels), 0.85);
}

/// MakeSwarm with the batched message plane on: bursts of `burst` probes,
/// packed request/reply datagrams, mini-batch folds at the receivers.
std::vector<std::unique_ptr<UdpDmfsgdPeer>> MakeBatchedSwarm(
    const Dataset& dataset, double tau, std::size_t k, std::size_t burst,
    bool coalesce) {
  const bool symmetric = dataset.metric == datasets::Metric::kRtt;
  // The peer copies the callback; `dataset` must outlive the swarm (it does
  // — both live in the test scope).
  MeasurementFn measure = [&dataset, tau](core::NodeId prober,
                                          core::NodeId target) {
    return static_cast<double>(datasets::ClassOf(
        dataset.metric, dataset.Quantity(prober, target), tau));
  };
  std::vector<std::unique_ptr<UdpDmfsgdPeer>> peers;
  for (std::size_t i = 0; i < dataset.NodeCount(); ++i) {
    UdpPeerConfig config;
    config.id = static_cast<core::NodeId>(i);
    config.symmetric_metric = symmetric;
    config.tau = tau;
    config.seed = 100 + i;
    config.probe_burst = burst;
    config.coalesce_delivery = coalesce;
    peers.push_back(std::make_unique<UdpDmfsgdPeer>(config, measure));
  }
  common::Rng rng(7);
  for (std::size_t i = 0; i < peers.size(); ++i) {
    const auto picks = rng.SampleWithoutReplacement(peers.size() - 1, k);
    for (const std::size_t p : picks) {
      const std::size_t j = p < i ? p : p + 1;  // skip self
      peers[i]->AddNeighbor(static_cast<core::NodeId>(j), peers[j]->Port());
    }
  }
  return peers;
}

TEST(UdpPeer, BatchedSwarmLearnsWithFewerDatagrams) {
  // Same probe budget (burst 4 x 80 rounds), coalesced vs per-message: the
  // packed datagrams and receive-side mini-batch folds must preserve
  // learning quality while measurably cutting the datagram count.
  const Dataset dataset = SmallRtt();
  const double tau = dataset.MedianValue();
  auto evaluate = [&](std::vector<std::unique_ptr<UdpDmfsgdPeer>>& peers) {
    std::vector<double> scores;
    std::vector<int> labels;
    for (std::size_t i = 0; i < peers.size(); ++i) {
      for (std::size_t j = 0; j < peers.size(); ++j) {
        if (i == j) {
          continue;
        }
        scores.push_back(peers[i]->Predict(peers[j]->node().v()));
        labels.push_back(
            datasets::ClassOf(dataset.metric, dataset.Quantity(i, j), tau));
      }
    }
    return eval::Auc(scores, labels);
  };
  auto datagrams = [](std::vector<std::unique_ptr<UdpDmfsgdPeer>>& peers) {
    std::size_t total = 0;
    std::size_t applied = 0;
    for (const auto& peer : peers) {
      total += peer->DatagramsSent();
      applied += peer->MeasurementsApplied();
    }
    return std::pair<std::size_t, std::size_t>(total, applied);
  };

  auto per_message = MakeBatchedSwarm(dataset, tau, 8, 4, /*coalesce=*/false);
  RunRounds(per_message, 80);
  const auto [datagrams_plain, applied_plain] = datagrams(per_message);
  const double auc_plain = evaluate(per_message);

  auto coalesced = MakeBatchedSwarm(dataset, tau, 8, 4, /*coalesce=*/true);
  RunRounds(coalesced, 80);
  const auto [datagrams_packed, applied_packed] = datagrams(coalesced);
  const double auc_packed = evaluate(coalesced);

  EXPECT_GT(applied_plain, 0u);
  EXPECT_EQ(applied_plain, applied_packed);  // same measurement budget
  EXPECT_GT(auc_plain, 0.85);
  EXPECT_GT(auc_packed, 0.85);
  // Duplicate picks pack requests; request batches come back as one reply
  // datagram per prober.  The exact ratio depends on pick collisions, but
  // the direction must be unmistakable.
  EXPECT_LT(datagrams_packed, datagrams_plain * 9 / 10);
}

TEST(UdpPeer, AbwBatchedSwarmFoldsAtBothEnds) {
  // Algorithm 2: a packed request batch folds eq. 13 at the target and the
  // packed reply batch folds eq. 12 at the prober.
  const Dataset dataset = SmallAbw();
  const double tau = dataset.MedianValue();
  auto peers = MakeBatchedSwarm(dataset, tau, 8, 4, /*coalesce=*/true);
  RunRounds(peers, 60);
  std::size_t applied = 0;
  for (const auto& peer : peers) {
    applied += peer->MeasurementsApplied();
    EXPECT_EQ(peer->MalformedDatagrams(), 0u);
  }
  EXPECT_EQ(applied, dataset.NodeCount() * 60 * 4);
}

TEST(UdpPeer, MalformedDatagramsAreCountedNotFatal) {
  const Dataset dataset = SmallRtt();
  const double tau = dataset.MedianValue();
  auto peers = MakeSwarm(dataset, tau, 3);

  UdpSocket attacker;
  // Garbage, truncated header, wrong version, and an oversized-length lie.
  attacker.SendTo(std::vector<std::byte>{std::byte{0xff}, std::byte{0xee}},
                  peers[0]->Port());
  attacker.SendTo(std::vector<std::byte>{std::byte{1}}, peers[0]->Port());
  auto bad_version = core::Encode(core::RttProbeRequest{1});
  bad_version[0] = std::byte{99};
  attacker.SendTo(bad_version, peers[0]->Port());
  auto truncated = core::Encode(core::RttProbeReply{1, {1.0, 2.0}, {3.0}});
  truncated.resize(truncated.size() / 2);
  attacker.SendTo(truncated, peers[0]->Port());

  EXPECT_EQ(peers[0]->Pump(), 4u);
  EXPECT_EQ(peers[0]->MalformedDatagrams(), 4u);
  // The peer still works afterwards.
  RunRounds(peers, 2);
  EXPECT_EQ(peers[0]->MeasurementsApplied(), 2u);
}

TEST(UdpPeer, RankMismatchFromForeignDeploymentIsDropped) {
  const Dataset dataset = SmallRtt();
  const double tau = dataset.MedianValue();
  auto peers = MakeSwarm(dataset, tau, 3);

  // A well-formed reply whose vectors have the wrong rank (a node from a
  // deployment configured with r = 4 instead of 10).
  UdpSocket foreign;
  const core::RttProbeReply reply{7, std::vector<double>(4, 0.5),
                                  std::vector<double>(4, 0.5)};
  foreign.SendTo(core::Encode(reply), peers[0]->Port());
  EXPECT_EQ(peers[0]->Pump(), 1u);
  EXPECT_EQ(peers[0]->MalformedDatagrams(), 1u);
  EXPECT_EQ(peers[0]->MeasurementsApplied(), 0u);
}

}  // namespace
}  // namespace dmfsgd::transport
