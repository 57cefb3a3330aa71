// The batched PeerIndex build (DESIGN.md §16, §18): seed + member order
// determine the adjacency and the coarse entries at any build-pool size,
// a rebuild over a pool reproduces construction, and an escalated
// ApplyUpdates equals a fresh build over the drifted rows.  Recall floors
// live in peer_index_test.cpp and peer_index_ivf_test.cpp.
#include "ann/peer_index.hpp"

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "common/rng.hpp"
#include "common/thread_pool.hpp"

namespace dmfsgd::ann {
namespace {

using core::CoordinateStore;

CoordinateStore RandomStore(std::size_t n, std::size_t rank, std::uint64_t seed) {
  CoordinateStore store(n, rank);
  common::Rng rng(seed);
  for (std::size_t i = 0; i < n; ++i) {
    store.RandomizeRow(i, rng);
  }
  return store;
}

std::vector<std::vector<std::size_t>> Adjacency(const PeerIndex& index) {
  std::vector<std::vector<std::size_t>> adjacency;
  adjacency.reserve(index.Size());
  for (const std::size_t id : index.Members()) {
    adjacency.push_back(index.NeighborsOf(id));
  }
  return adjacency;
}

/// nullptr (inline) first, then pools of 1-4 threads.
std::vector<std::unique_ptr<common::ThreadPool>> Pools() {
  std::vector<std::unique_ptr<common::ThreadPool>> pools;
  pools.push_back(nullptr);
  for (std::size_t threads = 1; threads <= 4; ++threads) {
    pools.push_back(std::make_unique<common::ThreadPool>(threads));
  }
  return pools;
}

TEST(PeerIndexParallelBuild, FlatAdjacencyIsTheSameAtEveryPoolSize) {
  // 3000 slots: the later batches hold ~90 slots, so every pool size
  // really splits both phases.
  const CoordinateStore store = RandomStore(3000, 8, 5);
  PeerIndexOptions options;
  options.seed = 19;
  const auto pools = Pools();
  const PeerIndex reference(store, options, pools.front().get());
  const auto expected = Adjacency(reference);
  for (std::size_t p = 1; p < pools.size(); ++p) {
    const PeerIndex index(store, options, pools[p].get());
    EXPECT_EQ(Adjacency(index), expected) << pools[p]->thread_count() << " threads";
  }
}

TEST(PeerIndexParallelBuild, IvfAdjacencyAndCellEntriesAreTheSameAtEveryPoolSize) {
  const CoordinateStore store = RandomStore(2500, 8, 7);
  PeerIndexOptions options;
  options.ivf_cells = 24;
  options.ivf_nprobe = 4;
  const auto pools = Pools();
  const PeerIndex reference(store, options, pools.front().get());
  ASSERT_EQ(reference.CellCount(), 24u);
  for (std::size_t p = 1; p < pools.size(); ++p) {
    const PeerIndex index(store, options, pools[p].get());
    EXPECT_EQ(Adjacency(index), Adjacency(reference));
    EXPECT_EQ(index.CellEntries(), reference.CellEntries());
  }
}

TEST(PeerIndexParallelBuild, MemberSubsetAdjacencyIsTheSameAtEveryPoolSize) {
  const CoordinateStore store = RandomStore(4000, 6, 9);
  std::vector<std::size_t> members;
  for (std::size_t id = 3999; id >= 3; id -= 3) {  // descending, every third
    members.push_back(id);
  }
  const auto pools = Pools();
  const PeerIndex reference(store, members, PeerIndexOptions{}, pools.front().get());
  for (std::size_t p = 1; p < pools.size(); ++p) {
    const PeerIndex index(store, members, PeerIndexOptions{}, pools[p].get());
    EXPECT_EQ(Adjacency(index), Adjacency(reference));
  }
}

TEST(PeerIndexParallelBuild, PoolMuchWiderThanTheDegreeKeepsTheAdjacency) {
  // With degree 2 and 32 threads the back-link blocks hold one or two links,
  // so a target's links span several blocks; exactly one block must own them.
  const CoordinateStore store = RandomStore(1500, 4, 23);
  PeerIndexOptions options;
  options.degree = 2;
  options.seed = 29;
  const PeerIndex reference(store, options);
  const auto expected = Adjacency(reference);
  for (const std::size_t threads : {16u, 32u}) {
    common::ThreadPool pool(threads);
    const PeerIndex index(store, options, &pool);
    EXPECT_EQ(Adjacency(index), expected) << threads << " threads";
  }
}

TEST(PeerIndexParallelBuild, RebuildOfAFreshIndexIsANoOpAtEveryPoolSize) {
  const CoordinateStore store = RandomStore(2000, 8, 11);
  PeerIndexOptions options;
  options.ivf_cells = 16;
  const auto pools = Pools();
  for (const auto& pool : pools) {
    PeerIndex index(store, options, pool.get());
    const auto constructed = Adjacency(index);
    const auto entries = index.CellEntries();
    index.RebuildAll(pool.get());
    EXPECT_EQ(Adjacency(index), constructed);
    EXPECT_EQ(index.CellEntries(), entries);
  }
}

TEST(PeerIndexParallelBuild, EscalatedApplyUpdatesEqualsFreshConstruction) {
  CoordinateStore store = RandomStore(2000, 8, 13);
  PeerIndexOptions options;
  options.rebuild_fraction = 0.1;
  common::ThreadPool pool(3);
  PeerIndex index(store, options, &pool);

  // Move half the rows far past drift_epsilon: the batch escalates.
  common::Rng rng(17);
  std::vector<core::NodeId> dirty;
  for (core::NodeId id = 0; id < store.NodeCount(); id += 2) {
    store.RandomizeRow(id, rng);
    dirty.push_back(id);
  }
  const PeerIndex::UpdateStats stats = index.ApplyUpdates(dirty, &pool);
  ASSERT_TRUE(stats.rebuilt);

  const PeerIndex fresh(store, options);
  EXPECT_EQ(Adjacency(index), Adjacency(fresh));
}

}  // namespace
}  // namespace dmfsgd::ann
