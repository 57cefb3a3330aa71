// A multi-process asynchronous DMFSGD simulation (DESIGN.md §12, §15).
//
// Forks into two real OS processes that each own half of a sharded
// discrete-event simulation: probe timers and message deliveries for a
// node run only in the process that owns its shard, and everything that
// crosses the partition — conservative-window barriers and in-flight
// protocol messages — travels as UDP datagrams between the processes
// (netsim::UdpInterShardChannel).  At the end, the child ships its owned
// coordinate rows back and the parent folds the deployment together, then
// replays the same seed single-process to verify the distributed run is
// bit-identical — the determinism contract that makes the distributed
// simulator trustworthy.
//
// The transport can be degraded on purpose to demonstrate the reliability
// stack (DESIGN.md §15): --drop/--dup/--reorder inject seeded faults into
// the link, --reliable stacks the retransmitting decorator on top (with
// faults under it, the run still finishes bit-identical), --registry
// discovers ports through a rendezvous file instead of pre-fork binding
// (the multi-host handshake), and --kill-after=N makes the child go dark
// after N frames so the parent's StallError diagnostics can be seen.
//
// Usage: multiprocess_swarm [--nodes=N] [--shards=S] [--until=T] [--seed=K]
//          [--drop=P] [--dup=P] [--reorder=P] [--reliable] [--registry]
//          [--kill-after=N] [--stall-timeout=S]
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <cstring>
#include <exception>
#include <iostream>
#include <memory>
#include <string>
#include <vector>

#include "common/flags.hpp"
#include "common/thread_pool.hpp"
#include "core/multiprocess.hpp"
#include "datasets/meridian.hpp"
#include "eval/roc.hpp"
#include "netsim/fault_channel.hpp"
#include "netsim/inter_shard_channel.hpp"
#include "netsim/port_registry.hpp"
#include "netsim/reliable_channel.hpp"

namespace {

/// Owns every layer of one endpoint's channel stack; `top` is what the
/// runtime drives.  Stacking order (ShardRuntime → reliable → fault → UDP)
/// puts injected faults *under* the reliability layer, where they belong.
struct ChannelStack {
  std::unique_ptr<dmfsgd::netsim::UdpInterShardChannel> udp;
  std::unique_ptr<dmfsgd::netsim::FaultInjectingInterShardChannel> fault;
  std::unique_ptr<dmfsgd::netsim::ReliableInterShardChannel> reliable;
  dmfsgd::netsim::InterShardChannel* top = nullptr;
};

struct LinkOptions {
  double drop = 0.0;
  double dup = 0.0;
  double reorder = 0.0;
  bool reliable = false;
  std::uint64_t kill_after = 0;  ///< applied to the child only
  std::uint64_t seed = 1;
};

ChannelStack BuildStack(std::unique_ptr<dmfsgd::netsim::UdpInterShardChannel> udp,
                        const LinkOptions& link, bool is_child) {
  using namespace dmfsgd;
  ChannelStack stack;
  stack.udp = std::move(udp);
  stack.top = stack.udp.get();
  const bool faulty =
      link.drop > 0.0 || link.dup > 0.0 || link.reorder > 0.0 ||
      (is_child && link.kill_after > 0);
  if (faulty) {
    netsim::FaultChannelOptions faults;
    faults.outbound.drop_rate = link.drop;
    faults.outbound.duplicate_rate = link.dup;
    faults.outbound.reorder_rate = link.reorder;
    // Distinct per-process fault streams; same seed → same fault pattern.
    faults.seed = link.seed * 2 + (is_child ? 1 : 0);
    if (is_child) {
      faults.kill_after_frames = link.kill_after;
    }
    stack.fault = std::make_unique<netsim::FaultInjectingInterShardChannel>(
        *stack.top, faults);
    stack.top = stack.fault.get();
  }
  if (link.reliable) {
    stack.reliable =
        std::make_unique<netsim::ReliableInterShardChannel>(*stack.top);
    stack.top = stack.reliable.get();
  }
  return stack;
}

void PrintTransportSummary(const char* who, const ChannelStack& stack,
                           const dmfsgd::core::MultiprocessRunReport& report) {
  std::cout << who << " transport: " << report.frames_sent
            << " protocol frames sent, " << report.dropped_datagrams
            << " datagrams dropped, " << report.stray_datagrams << " stray";
  if (stack.reliable) {
    std::cout << ", " << report.retransmits << " retransmits, "
              << report.duplicates_suppressed << " duplicates suppressed, "
              << stack.reliable->StandaloneAcksSent() << " standalone acks";
  }
  if (stack.fault) {
    std::cout << " (injected: " << stack.fault->FramesDropped() << " dropped, "
              << stack.fault->FramesDuplicated() << " duplicated, "
              << stack.fault->FramesReordered() << " reordered)";
  }
  std::cout << "\n";
}

int Run(int argc, char** argv) {
  using namespace dmfsgd;

  const common::Flags flags(argc, argv,
                            {"nodes", "shards", "until", "seed", "drop", "dup",
                             "reorder", "reliable", "registry", "kill-after",
                             "stall-timeout"});
  const auto nodes = static_cast<std::size_t>(flags.GetInt("nodes", 120));
  const auto shards = static_cast<std::size_t>(flags.GetInt("shards", 4));
  const double until_s = static_cast<double>(flags.GetInt("until", 30));
  const auto seed = static_cast<std::uint64_t>(flags.GetInt("seed", 1));
  LinkOptions link;
  link.drop = flags.GetDouble("drop", 0.0);
  link.dup = flags.GetDouble("dup", 0.0);
  link.reorder = flags.GetDouble("reorder", 0.0);
  link.reliable = flags.GetBool("reliable", false);
  link.kill_after = static_cast<std::uint64_t>(flags.GetInt("kill-after", 0));
  link.seed = seed;
  const bool use_registry = flags.GetBool("registry", false);
  netsim::ShardRuntimeOptions runtime_options;
  runtime_options.stall_timeout_s =
      flags.GetDouble("stall-timeout", link.kill_after > 0 ? 3.0 : 60.0);

  datasets::MeridianConfig dataset_config;
  dataset_config.node_count = nodes;
  dataset_config.seed = seed;
  const datasets::Dataset dataset = datasets::MakeMeridian(dataset_config);

  core::AsyncSimulationConfig config;
  config.base.rank = 10;
  config.base.neighbor_count = 16;
  config.base.tau = dataset.MedianValue();
  config.base.seed = seed;
  config.mean_probe_interval_s = 1.0;
  config.shard_count = shards;

  // Two discovery modes: bind both endpoints before the fork (the child
  // inherits its already-bound socket, so both sides know both ports), or
  // --registry: bind nothing up front and let each process bind an
  // ephemeral socket after the fork, exchanging ports through a rendezvous
  // file — the handshake processes without a common ancestor would use.
  std::unique_ptr<transport::UdpSocket> socket0;
  std::unique_ptr<transport::UdpSocket> socket1;
  std::vector<std::uint16_t> ports;
  std::string registry_path;
  if (use_registry) {
    registry_path = "/tmp/dmfsgd_port_registry_" + std::to_string(::getpid());
    std::remove(registry_path.c_str());
  } else {
    socket0 = std::make_unique<transport::UdpSocket>();
    socket1 = std::make_unique<transport::UdpSocket>();
    ports = {socket0->Port(), socket1->Port()};
  }

  const pid_t child = fork();
  if (child < 0) {
    std::cerr << "fork failed: " << std::strerror(errno) << "\n";
    return 1;
  }
  if (child == 0) {
    // Child = process 1: drains the upper shard block, ships its rows home.
    try {
      auto udp = use_registry
                     ? netsim::MakeUdpChannelViaRegistry(registry_path, 2, 1)
                     : std::make_unique<netsim::UdpInterShardChannel>(
                           std::move(*socket1), 1, ports);
      ChannelStack stack = BuildStack(std::move(udp), link, /*is_child=*/true);
      common::ThreadPool pool(1);
      const auto report = core::RunMultiprocessAsyncSimulation(
          dataset, config, *stack.top, until_s, pool, runtime_options);
      std::cout << "[child]  process 1 owns nodes [" << report.owned_begin
                << ", " << report.owned_end << "), executed "
                << report.events_executed << " events over "
                << report.windows << " windows\n";
      PrintTransportSummary("[child] ", stack, report);
      _exit(0);
    } catch (const netsim::StallError& stall) {
      // Expected in the --kill-after demo: the killed endpoint stalls too.
      std::cerr << "[child]  stalled (window " << stall.WindowId() << ", "
                << stall.Phase() << " phase)\n";
      _exit(link.kill_after > 0 ? 0 : 1);
    } catch (const std::exception& error) {
      std::cerr << "[child]  error: " << error.what() << "\n";
      _exit(1);
    }
  }

  // Parent = process 0: drains the lower block, folds the results.
  int status = 1;
  try {
    auto udp = use_registry
                   ? netsim::MakeUdpChannelViaRegistry(registry_path, 2, 0)
                   : std::make_unique<netsim::UdpInterShardChannel>(
                         std::move(*socket0), 0, ports);
    ChannelStack stack = BuildStack(std::move(udp), link, /*is_child=*/false);
    common::ThreadPool pool(1);
    core::MultiprocessRunReport report;
    try {
      report = core::RunMultiprocessAsyncSimulation(
          dataset, config, *stack.top, until_s, pool, runtime_options);
    } catch (const netsim::StallError& stall) {
      // The diagnosable path --kill-after exists to demonstrate: which
      // window and phase blocked, what each peer's transport looked like.
      std::cerr << "[parent] StallError: " << stall.what() << "\n";
      waitpid(child, &status, 0);
      if (!registry_path.empty()) {
        std::remove(registry_path.c_str());
      }
      return link.kill_after > 0 ? 0 : 1;
    }
    waitpid(child, &status, 0);
    if (!registry_path.empty()) {
      std::remove(registry_path.c_str());
    }
    if (!WIFEXITED(status) || WEXITSTATUS(status) != 0) {
      std::cerr << "[parent] child process failed\n";
      return 1;
    }
    std::cout << "[parent] process 0 owns nodes [" << report.owned_begin
              << ", " << report.owned_end << "); folded deployment: "
              << report.events_executed << " events, " << report.measurements
              << " measurements, " << report.windows << " windows across "
              << shards << " shards in 2 processes\n";
    PrintTransportSummary("[parent]", stack, report);

    // Replay the same seed in one process: the distributed drain must be
    // bit-identical (same per-node RNG streams, same per-owner event order)
    // — including under injected faults once the reliable layer repairs
    // them.
    core::AsyncDmfsgdSimulation reference(dataset, config);
    common::ThreadPool reference_pool(1);
    reference.RunUntilParallel(until_s, reference_pool);
    const auto u = reference.engine().store().UData();
    const auto v = reference.engine().store().VData();
    const bool identical =
        report.u.size() == u.size() && report.v.size() == v.size() &&
        std::memcmp(report.u.data(), u.data(), u.size_bytes()) == 0 &&
        std::memcmp(report.v.data(), v.data(), v.size_bytes()) == 0 &&
        report.events_executed == reference.EventsExecuted() &&
        report.measurements == reference.MeasurementCount();
    std::cout << "[parent] single-process replay: "
              << (identical ? "bit-identical" : "MISMATCH") << "\n";

    // Accuracy of the folded coordinates on non-neighbor pairs.
    std::vector<double> scores;
    std::vector<int> labels;
    const std::size_t r = report.rank;
    for (std::size_t i = 0; i < nodes; ++i) {
      for (std::size_t j = 0; j < nodes; ++j) {
        if (i == j || !dataset.IsKnown(i, j) || reference.IsNeighborPair(i, j)) {
          continue;
        }
        double dot = 0.0;
        for (std::size_t d = 0; d < r; ++d) {
          dot += report.u[i * r + d] * report.v[j * r + d];
        }
        scores.push_back(dot);
        labels.push_back(datasets::ClassOf(dataset.metric, dataset.Quantity(i, j),
                                           config.base.tau));
      }
    }
    std::cout << "[parent] AUC over unprobed pairs: " << eval::Auc(scores, labels)
              << "\n";
    return identical ? 0 : 1;
  } catch (const std::exception& error) {
    std::cerr << "[parent] error: " << error.what() << "\n";
    waitpid(child, &status, 0);
    if (!registry_path.empty()) {
      std::remove(registry_path.c_str());
    }
    return 1;
  }
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
