#include "common/thread_pool.hpp"

#include <algorithm>
#include <stdexcept>

namespace dmfsgd::common {

ThreadPool::ThreadPool(std::size_t thread_count) {
  if (thread_count == 0) {
    thread_count = std::max<std::size_t>(1, std::thread::hardware_concurrency());
  }
  workers_.reserve(thread_count - 1);
  // Worker w owns block w + 1; the calling thread owns block 0.
  for (std::size_t w = 0; w + 1 < thread_count; ++w) {
    workers_.emplace_back([this, w] { WorkerLoop(w + 1); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    stop_ = true;
  }
  work_cv_.notify_all();
  for (std::thread& worker : workers_) {
    worker.join();
  }
}

std::pair<std::size_t, std::size_t> BlockRange(std::size_t total,
                                               std::size_t parts,
                                               std::size_t index) {
  if (parts == 0 || index >= parts) {
    throw std::invalid_argument("BlockRange: bad partition");
  }
  const std::size_t base = total / parts;
  const std::size_t extra = total % parts;
  const std::size_t begin = index * base + std::min(index, extra);
  return {begin, begin + base + (index < extra ? 1 : 0)};
}

std::pair<std::size_t, std::size_t> ThreadPool::Block(
    std::size_t block, std::size_t begin, std::size_t end) const noexcept {
  const auto [lo, hi] = BlockRange(end - begin, thread_count(), block);
  return {begin + lo, begin + hi};
}

void ThreadPool::RunBlock(std::size_t block) {
  const auto [lo, hi] = Block(block, job_begin_, job_end_);
  if (lo >= hi) {
    return;
  }
  try {
    (*fn_)(lo, hi);
  } catch (...) {
    std::lock_guard<std::mutex> lock(mutex_);
    if (!first_error_) {
      first_error_ = std::current_exception();
    }
  }
}

void ThreadPool::WorkerLoop(std::size_t block_index) {
  std::uint64_t seen_epoch = 0;
  for (;;) {
    const ChunkFn* chunk_fn = nullptr;
    std::size_t chunk_count = 0;
    {
      std::unique_lock<std::mutex> lock(mutex_);
      work_cv_.wait(lock, [&] { return stop_ || epoch_ != seen_epoch; });
      if (stop_) {
        return;
      }
      seen_epoch = epoch_;
      chunk_fn = chunk_fn_;
      chunk_count = chunk_count_;
    }
    if (chunk_fn != nullptr) {
      // A chunk job does not count its workers in: one that wakes after
      // the last claim simply finds nothing left.
      RunChunks(static_cast<std::uint32_t>(seen_epoch), chunk_fn, chunk_count);
      continue;
    }
    // job_begin_/job_end_/fn_ are stable until every block reports done, so
    // reading them outside the lock is safe.
    RunBlock(block_index);
    {
      std::lock_guard<std::mutex> lock(mutex_);
      if (--remaining_ == 0) {
        done_cv_.notify_one();
      }
    }
  }
}

void ThreadPool::RunChunks(std::uint32_t tag, const ChunkFn* fn,
                           std::size_t count) {
  for (;;) {
    std::uint64_t claim = claim_.load(std::memory_order_acquire);
    do {
      if ((claim >> 32) != tag || (claim & 0xffffffffU) >= count) {
        return;
      }
    } while (!claim_.compare_exchange_weak(claim, claim + 1,
                                           std::memory_order_acq_rel,
                                           std::memory_order_acquire));
    try {
      (*fn)(static_cast<std::size_t>(claim & 0xffffffffU));
    } catch (...) {
      std::lock_guard<std::mutex> lock(mutex_);
      if (!first_error_) {
        first_error_ = std::current_exception();
      }
    }
    if (chunks_done_.fetch_add(1, std::memory_order_acq_rel) + 1 == count) {
      std::lock_guard<std::mutex> lock(mutex_);
      done_cv_.notify_one();
    }
  }
}

void ThreadPool::ParallelFor(std::size_t begin, std::size_t end,
                             const RangeFn& fn) {
  if (begin >= end) {
    return;
  }
  if (workers_.empty()) {
    fn(begin, end);
    return;
  }
  {
    std::lock_guard<std::mutex> lock(mutex_);
    fn_ = &fn;
    chunk_fn_ = nullptr;
    job_begin_ = begin;
    job_end_ = end;
    remaining_ = workers_.size();
    first_error_ = nullptr;
    ++epoch_;
  }
  work_cv_.notify_all();
  RunBlock(0);
  std::exception_ptr error;
  {
    std::unique_lock<std::mutex> lock(mutex_);
    done_cv_.wait(lock, [&] { return remaining_ == 0; });
    fn_ = nullptr;
    error = std::exchange(first_error_, nullptr);
  }
  if (error) {
    std::rethrow_exception(error);
  }
}

void ThreadPool::ForEachChunk(std::size_t count, const ChunkFn& fn) {
  if (count == 0) {
    return;
  }
  if (count > 0xffffffffU) {
    throw std::invalid_argument("ThreadPool::ForEachChunk: count must be < 2^32");
  }
  if (workers_.empty()) {
    std::exception_ptr error;
    for (std::size_t chunk = 0; chunk < count; ++chunk) {
      try {
        fn(chunk);
      } catch (...) {
        if (!error) {
          error = std::current_exception();
        }
      }
    }
    if (error) {
      std::rethrow_exception(error);
    }
    return;
  }
  std::uint32_t tag = 0;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    chunk_fn_ = &fn;
    chunk_count_ = count;
    first_error_ = nullptr;
    tag = static_cast<std::uint32_t>(++epoch_);
    chunks_done_.store(0, std::memory_order_relaxed);
    claim_.store(std::uint64_t{tag} << 32, std::memory_order_release);
  }
  work_cv_.notify_all();
  RunChunks(tag, &fn, count);
  std::exception_ptr error;
  {
    std::unique_lock<std::mutex> lock(mutex_);
    done_cv_.wait(lock, [&] {
      return chunks_done_.load(std::memory_order_acquire) == count;
    });
    error = std::exchange(first_error_, nullptr);
  }
  if (error) {
    std::rethrow_exception(error);
  }
}

}  // namespace dmfsgd::common
