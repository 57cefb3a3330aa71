// The lock-step distributed window loop (DESIGN.md §12), pinned at the
// queue level: N "processes" (threads over a loopback hub) each replay the
// same deterministic construction, drain only their owned shards, and ship
// cross-process events as stamped payload records.  The load-bearing
// property: per-owner event sequences — and the window count — are
// identical to a single-process windowed drain of the same schedule.
#include "netsim/shard_runtime.hpp"

#include <gtest/gtest.h>

#include <cstring>
#include <map>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "common/thread_pool.hpp"
#include "netsim/inter_shard_channel.hpp"

namespace dmfsgd::netsim {
namespace {

using OwnerId = ShardedEventQueue::OwnerId;

TEST(BlockRange, SplitsLikeTheShardOwnerMapping) {
  // 10 over 3 -> {4, 3, 3}, first blocks one larger — the ShardOf rule.
  EXPECT_EQ(BlockRange(10, 3, 0), (std::pair<std::size_t, std::size_t>{0, 4}));
  EXPECT_EQ(BlockRange(10, 3, 1), (std::pair<std::size_t, std::size_t>{4, 7}));
  EXPECT_EQ(BlockRange(10, 3, 2), (std::pair<std::size_t, std::size_t>{7, 10}));
  EXPECT_THROW((void)BlockRange(10, 0, 0), std::invalid_argument);
  EXPECT_THROW((void)BlockRange(10, 3, 3), std::invalid_argument);
  // Consistency with OwnersOfShard: the queue's shard blocks are the same split.
  const ShardedEventQueue queue(10, 3);
  for (std::size_t s = 0; s < 3; ++s) {
    const auto [begin, end] = BlockRange(10, 3, s);
    EXPECT_EQ(queue.OwnersOfShard(s).first, begin);
    EXPECT_EQ(queue.OwnersOfShard(s).second, end);
  }
}

// ----------------------------------------------------------------------
// A miniature scheduling layer over the queue: every owner runs a hop chain
// that logs, then forwards to another owner with delay >= the lookahead.
// Cross-shard hops to non-owned shards ship a 8-byte payload (dest hop)
// exactly the way the async driver ships protocol envelopes.

constexpr double kHopDelay = 1.0;
constexpr int kMaxHop = 12;

struct TestNet {
  explicit TestNet(std::size_t owners, std::size_t shards)
      : queue(owners, shards) {
    for (OwnerId owner = 0; owner < owners; ++owner) {
      logs[owner] = {};
    }
  }

  void Fire(OwnerId owner, std::uint32_t hop) {
    logs.at(owner).push_back(hop);
    if (hop >= static_cast<std::uint32_t>(kMaxHop)) {
      return;
    }
    // Deterministic pseudo-random next owner, frequently crossing shards.
    const auto next =
        static_cast<OwnerId>((owner * 5 + hop * 3 + 1) % queue.OwnerCount());
    const std::uint32_t next_hop = hop + 1;
    if (queue.IsOwnedShard(queue.ShardOf(next))) {
      queue.Schedule(next, kHopDelay,
                     [this, next, next_hop] { Fire(next, next_hop); });
    } else {
      std::vector<std::byte> payload(sizeof(next_hop));
      std::memcpy(payload.data(), &next_hop, sizeof(next_hop));
      queue.ScheduleRemote(next, kHopDelay, std::move(payload));
    }
  }

  [[nodiscard]] ShardedEventQueue::Callback Decode(OwnerId owner,
                                                   std::vector<std::byte> payload) {
    std::uint32_t hop = 0;
    if (payload.size() != sizeof(hop)) {
      throw std::runtime_error("TestNet: bad payload");
    }
    std::memcpy(&hop, payload.data(), sizeof(hop));
    return [this, owner, hop] { Fire(owner, hop); };
  }

  /// The replicated construction every process performs: one chain seed per
  /// owner, staggered start times.
  void SeedChains() {
    for (OwnerId owner = 0; owner < queue.OwnerCount(); ++owner) {
      queue.Schedule(owner, 0.25 + 0.1 * owner,
                     [this, owner] { Fire(owner, 0); });
    }
  }

  ShardedEventQueue queue;
  std::map<OwnerId, std::vector<std::uint32_t>> logs;
};

struct ProcessResult {
  std::map<OwnerId, std::vector<std::uint32_t>> logs;
  std::uint64_t executed = 0;
  std::uint64_t windows = 0;
  std::pair<std::size_t, std::size_t> owned_shards;
};

/// Runs `processes` runtimes over a loopback hub, one thread each, and
/// returns each process's per-owner logs (meaningful for owned owners only).
std::vector<ProcessResult> RunDistributed(std::size_t owners, std::size_t shards,
                                          std::size_t processes, double until_s,
                                          std::size_t pool_threads) {
  LoopbackInterShardHub hub(processes);
  std::vector<ProcessResult> results(processes);
  std::vector<std::exception_ptr> errors(processes);
  std::vector<std::thread> threads;
  threads.reserve(processes);
  for (std::size_t p = 0; p < processes; ++p) {
    threads.emplace_back([&, p] {
      try {
        TestNet net(owners, shards);
        LoopbackInterShardChannel channel(hub, p);
        ShardRuntime runtime(
            net.queue, channel, LookaheadMatrix(shards, kHopDelay),
            [&net](OwnerId owner, std::vector<std::byte> payload) {
              return net.Decode(owner, std::move(payload));
            });
        net.SeedChains();
        common::ThreadPool pool(pool_threads);
        results[p].executed = runtime.RunUntil(until_s, pool);
        results[p].windows = runtime.WindowsExecuted();
        results[p].logs = std::move(net.logs);
        results[p].owned_shards = {net.queue.OwnedShardBegin(),
                                   net.queue.OwnedShardEnd()};
      } catch (...) {
        errors[p] = std::current_exception();
      }
    });
  }
  for (auto& thread : threads) {
    thread.join();
  }
  for (const auto& error : errors) {
    if (error) {
      std::rethrow_exception(error);
    }
  }
  return results;
}

/// Single-process reference with the identical schedule.
ProcessResult RunReference(std::size_t owners, std::size_t shards,
                           double until_s) {
  TestNet net(owners, shards);
  net.SeedChains();
  common::ThreadPool pool(2);
  ProcessResult result;
  result.executed =
      net.queue.RunUntilParallel(until_s, pool, LookaheadMatrix(shards, kHopDelay));
  result.windows = net.queue.WindowsExecuted();
  result.logs = std::move(net.logs);
  return result;
}

TEST(ShardRuntime, TwoProcessesMatchTheSingleProcessDrain) {
  const std::size_t owners = 8;
  const std::size_t shards = 4;
  const double until = 25.0;
  const ProcessResult reference = RunReference(owners, shards, until);
  const auto distributed = RunDistributed(owners, shards, 2, until, 2);
  std::uint64_t executed = 0;
  for (const auto& process : distributed) {
    EXPECT_EQ(process.windows, reference.windows);
    executed += process.executed;
    const auto [shard_begin, shard_end] = process.owned_shards;
    ShardedEventQueue mapper(owners, shards);
    for (OwnerId owner = 0; owner < owners; ++owner) {
      const std::size_t shard = mapper.ShardOf(owner);
      if (shard >= shard_begin && shard < shard_end) {
        EXPECT_EQ(process.logs.at(owner), reference.logs.at(owner))
            << "owner " << owner << " event sequence diverged";
      }
    }
  }
  EXPECT_EQ(executed, reference.executed);
}

TEST(ShardRuntime, ThreeProcessesWithUnevenShardsMatch) {
  // 5 shards over 3 processes: blocks {2, 2, 1}.
  const std::size_t owners = 11;
  const std::size_t shards = 5;
  const double until = 18.0;
  const ProcessResult reference = RunReference(owners, shards, until);
  const auto distributed = RunDistributed(owners, shards, 3, until, 1);
  std::uint64_t executed = 0;
  for (const auto& process : distributed) {
    EXPECT_EQ(process.windows, reference.windows);
    executed += process.executed;
  }
  EXPECT_EQ(executed, reference.executed);
}

TEST(ShardRuntime, SingleProcessDegeneratesToTheInProcessDrain) {
  const ProcessResult reference = RunReference(6, 3, 15.0);
  const auto solo = RunDistributed(6, 3, 1, 15.0, 2);
  ASSERT_EQ(solo.size(), 1u);
  EXPECT_EQ(solo[0].executed, reference.executed);
  EXPECT_EQ(solo[0].logs, reference.logs);
}

TEST(ShardRuntime, ValidatesConstruction) {
  LoopbackInterShardHub hub(3);
  LoopbackInterShardChannel channel(hub, 0);
  ShardedEventQueue queue(4, 2);  // fewer shards than processes
  auto decoder = [](OwnerId, std::vector<std::byte>) {
    return ShardedEventQueue::Callback([] {});
  };
  EXPECT_THROW(
      ShardRuntime(queue, channel, LookaheadMatrix(2, 1.0), decoder),
      std::invalid_argument);
  ShardedEventQueue ok(4, 4);
  EXPECT_THROW(ShardRuntime(ok, channel, LookaheadMatrix(3, 1.0), decoder),
               std::invalid_argument);
  EXPECT_THROW(
      ShardRuntime(ok, channel, LookaheadMatrix(4, 1.0), nullptr),
      std::invalid_argument);
}

TEST(ShardRuntime, ValidatesOptions) {
  LoopbackInterShardHub hub(2);
  LoopbackInterShardChannel channel(hub, 0);
  ShardedEventQueue queue(4, 2);
  auto decoder = [](OwnerId, std::vector<std::byte>) {
    return ShardedEventQueue::Callback([] {});
  };
  ShardRuntimeOptions bad;
  bad.receive_poll_ms = 0;
  EXPECT_THROW(
      ShardRuntime(queue, channel, LookaheadMatrix(2, 1.0), decoder, bad),
      std::invalid_argument);
  bad = ShardRuntimeOptions();
  bad.stall_timeout_s = 0.0;
  EXPECT_THROW(
      ShardRuntime(queue, channel, LookaheadMatrix(2, 1.0), decoder, bad),
      std::invalid_argument);
}

TEST(ShardRuntime, ThrowsStallErrorWithDiagnosticsWhenAPeerStalls) {
  // Two registered processes, only one running: the propose gather must give
  // up after the stall timeout instead of wedging the suite — and the error
  // must carry enough context to debug the dead peer.
  LoopbackInterShardHub hub(2);
  TestNet net(4, 2);
  LoopbackInterShardChannel channel(hub, 0);
  ShardRuntimeOptions options;
  options.receive_poll_ms = 20;
  options.stall_timeout_s = 0.3;
  ShardRuntime runtime(
      net.queue, channel, LookaheadMatrix(2, kHopDelay),
      [&net](OwnerId owner, std::vector<std::byte> payload) {
        return net.Decode(owner, std::move(payload));
      },
      options);
  net.SeedChains();
  common::ThreadPool pool(1);
  try {
    (void)runtime.RunUntil(5.0, pool);
    FAIL() << "a silent peer must trip the stall timeout";
  } catch (const StallError& stall) {
    EXPECT_EQ(stall.Phase(), "propose") << "the very first gather stalls";
    ASSERT_EQ(stall.FramesReceivedFrom().size(), 2u);
    EXPECT_EQ(stall.FramesReceivedFrom()[1], 0u) << "peer 1 never spoke";
    const std::string what = stall.what();
    EXPECT_NE(what.find("stalled"), std::string::npos) << what;
    EXPECT_NE(what.find("never heard"), std::string::npos) << what;
  }
}

}  // namespace
}  // namespace dmfsgd::netsim
