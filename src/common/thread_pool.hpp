// Deterministic fork-join worker pool for the deployment sweeps.
//
// The repo's parallel hot paths (the per-round node sweeps, the O(n²r)
// full-matrix evaluation) mostly have the same shape: a range of indices whose
// per-index work touches only index-owned state.  ParallelFor splits the
// range into `thread_count()` fixed contiguous blocks — block boundaries
// depend only on the range and the pool size, never on scheduling — and runs
// one block per thread, the calling thread included.  ParallelFor has no
// work stealing and no dynamic chunking: a given (range, pool size) yields
// the same block layout, so any computation whose per-index work is a pure
// function of index-owned state produces bit-identical results for every
// pool size, including 1 (which runs inline on the caller with no threads at
// all).  That property is what the parallel-sweep determinism test pins.
//
// ## Determinism contract for callers (DESIGN.md §6, §9, §14)
//
// The pool guarantees *where* indices run, never *when*; bit-identical
// results additionally require one of two schedules.  Either the
// submitted fn:
//
//  * writes only index-owned state (rows, counters, RNG streams belonging
//    to the index being processed) — the engine's sweeps pair each node
//    with a private Rng::Split stream for exactly this reason;
//  * reads shared state only if it is frozen for the whole call (a
//    start-of-round snapshot, config, the dataset) — never state another
//    index may be mutating;
//  * performs no cross-index reduction inside the loop; reduce after the
//    join, in index order (or with order-insensitive integer sums).
//
// Or the work is serially equivalent over conflict-free components: the
// indices are steps with a fixed serial order, steps that touch a common
// row form one component, one thread runs all of a component's steps in
// serial order, and every row a component reads but does not own is
// frozen for the call.  Components then share no row, so any interleaving
// — and any assignment of components to threads — equals the serial order
// (the compiled round's windowed schedule, DESIGN.md §14).  ForEachChunk
// serves this schedule: it hands chunks of whole components to whichever
// thread is free, so a slow core delays the join by one chunk, not by a
// fixed block.  The same no-reduction rule applies.
//
// Violating either schedule silently reintroduces schedule dependence —
// the determinism tests catch it only for the paths they pin.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <exception>
#include <functional>
#include <mutex>
#include <thread>
#include <utility>
#include <vector>

namespace dmfsgd::common {

/// The contiguous block split behind every deterministic partition in the
/// repo — `total` items over `parts` blocks, the first (total % parts)
/// blocks one item larger.  ThreadPool::Block (indices → threads), the
/// sharded event queue's OwnersOfShard (owners → shards) and the shard
/// runtime's shard → process assignment all route through here; the queue's
/// ShardOf keeps a closed-form inverse, pinned against this by the
/// OwnersOfShardInvertsShardOf test.  Returns [begin, end) of `index`.
/// Requires parts >= 1, index < parts.
[[nodiscard]] std::pair<std::size_t, std::size_t> BlockRange(std::size_t total,
                                                             std::size_t parts,
                                                             std::size_t index);

class ThreadPool {
 public:
  /// fn(block_begin, block_end): processes one contiguous index block.
  using RangeFn = std::function<void(std::size_t, std::size_t)>;

  /// `thread_count` workers in total, the calling thread included; 0 means
  /// std::thread::hardware_concurrency().  A pool of 1 spawns no threads.
  explicit ThreadPool(std::size_t thread_count = 0);

  /// Joins all workers.  Must not be called while a ParallelFor is running.
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;
  ThreadPool(ThreadPool&&) = delete;
  ThreadPool& operator=(ThreadPool&&) = delete;

  /// Total workers, the calling thread included.
  [[nodiscard]] std::size_t thread_count() const noexcept {
    return workers_.size() + 1;
  }

  /// Invokes fn once per non-empty block of [begin, end) and returns when
  /// every block has finished.  The first exception thrown by any block is
  /// rethrown on the caller after the join.  Not reentrant: fn must not call
  /// ParallelFor on the same pool.
  void ParallelFor(std::size_t begin, std::size_t end, const RangeFn& fn);

  /// fn(chunk): processes one chunk.
  using ChunkFn = std::function<void(std::size_t)>;

  /// Invokes fn once for each chunk in [0, count), each on whichever thread
  /// claims it first (the calling thread claims too), and returns when every
  /// chunk has finished.  The join waits for chunks, never for a worker that
  /// claimed none, so a worker that is slow to wake costs parallelism, not
  /// wall time.  Only for work whose result cannot depend on which thread
  /// runs which chunk (the second schedule above).  Exceptions and
  /// reentrancy as in ParallelFor.  Requires count < 2^32.
  void ForEachChunk(std::size_t count, const ChunkFn& fn);

 private:
  void WorkerLoop(std::size_t block_index);

  /// Claims and runs chunks of the ForEachChunk job tagged `tag` until none
  /// is left.  fn is dereferenced only after a claim succeeds, and a job
  /// cannot end while one of its chunks runs, so a stale pointer is safe.
  void RunChunks(std::uint32_t tag, const ChunkFn* fn, std::size_t count);

  /// Bounds of `block` when [begin, end) is split into thread_count() parts:
  /// the first (size % parts) blocks get one extra element.
  [[nodiscard]] std::pair<std::size_t, std::size_t> Block(
      std::size_t block, std::size_t begin, std::size_t end) const noexcept;

  void RunBlock(std::size_t block);

  std::vector<std::thread> workers_;

  std::mutex mutex_;
  std::condition_variable work_cv_;   ///< signals a new job epoch (or stop)
  std::condition_variable done_cv_;   ///< signals remaining_ reached zero
  const RangeFn* fn_ = nullptr;       ///< current job; valid while remaining_ > 0
  std::size_t job_begin_ = 0;
  std::size_t job_end_ = 0;
  std::uint64_t epoch_ = 0;           ///< bumped per job so workers never re-run one
  std::size_t remaining_ = 0;         ///< worker blocks not yet finished
  std::exception_ptr first_error_;
  bool stop_ = false;

  // The latest job is a ForEachChunk job iff chunk_fn_ != nullptr.  The
  // pointer outlives its job: a worker that wakes late reads it, but its
  // claim then fails, so it never calls it.
  const ChunkFn* chunk_fn_ = nullptr;
  std::size_t chunk_count_ = 0;
  /// (low 32 bits of the job's epoch << 32) | next unclaimed chunk: a
  /// worker still holding an older job's tag can claim nothing.
  std::atomic<std::uint64_t> claim_{0};
  std::atomic<std::size_t> chunks_done_{0};
};

}  // namespace dmfsgd::common
