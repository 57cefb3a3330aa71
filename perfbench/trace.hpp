// In-memory span recorder for the traced benchmark run.
//
// Every public library call the benchmark makes is wrapped in a span (name,
// start, end, parent span, request id).  Spans stay in per-thread buffers
// while the run measures and are written out once, when it ends; the
// per-layer metrics are derived from them.  With tracing off a span is one
// branch on a plain bool and records nothing.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <fstream>
#include <memory>
#include <mutex>
#include <string>
#include <type_traits>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline std::int64_t Nanos(Clock::time_point t) {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(t.time_since_epoch())
      .count();
}

/// Span flags: what an ingest call was observed to trigger.
enum SpanFlag : std::uint32_t {
  kRefreshed = 1u << 0,  ///< stats().index_refreshes advanced during the call
  kEpoch = 1u << 1,      ///< stats().epochs advanced during the call
};

struct Span {
  const char* name = "";  ///< string literal: "<layer>.<call>"
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::uint64_t id = 0;
  std::uint64_t parent = 0;   ///< 0 = root
  std::uint64_t request = 0;  ///< shared by every span of one request
  std::uint32_t flags = 0;

  [[nodiscard]] double Ms() const { return static_cast<double>(end_ns - start_ns) / 1e6; }
};

class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled) {}
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  [[nodiscard]] bool enabled() const noexcept { return enabled_; }
  /// Turns recording off and on mid-run (the overhead calibration).
  void set_enabled(bool enabled) noexcept { enabled_ = enabled; }

  [[nodiscard]] std::uint64_t NextId() {
    return next_id_.fetch_add(1, std::memory_order_relaxed);
  }

  /// Records a finished span from the calling thread.  A request's root
  /// span passes the id its children already name as parent and request;
  /// other spans get a fresh id.
  void Record(const char* name, Clock::time_point start, Clock::time_point end,
              std::uint64_t parent = 0, std::uint64_t request = 0,
              std::uint32_t flags = 0, std::uint64_t id = 0) {
    if (!enabled_) {
      return;
    }
    id = id ? id : NextId();
    Buffer().push_back(
        Span{name, Nanos(start), Nanos(end), id, parent, request ? request : id, flags});
  }

  /// Every span recorded so far, across threads.  Call only while no thread
  /// is recording.
  [[nodiscard]] std::vector<Span> Collect() const {
    const std::lock_guard<std::mutex> lock(mutex_);
    std::vector<Span> all;
    for (const auto& buffer : buffers_) {
      all.insert(all.end(), buffer->begin(), buffer->end());
    }
    return all;
  }

  /// Writes every span as CSV (id,parent,request,name,start_ns,end_ns,flags).
  void WriteCsv(const std::string& path) const {
    std::ofstream out(path);
    out << "id,parent,request,name,start_ns,end_ns,flags\n";
    for (const Span& s : Collect()) {
      out << s.id << ',' << s.parent << ',' << s.request << ',' << s.name << ','
          << s.start_ns << ',' << s.end_ns << ',' << s.flags << '\n';
    }
  }

 private:
  std::vector<Span>& Buffer() {
    // One buffer per (thread, tracer); the tracer owns the storage, so the
    // thread-local pointer never outlives it within a run.
    thread_local Tracer* owner = nullptr;
    thread_local std::vector<Span>* buffer = nullptr;
    if (owner != this) {
      const std::lock_guard<std::mutex> lock(mutex_);
      buffers_.push_back(std::make_unique<std::vector<Span>>());
      buffer = buffers_.back().get();
      owner = this;
    }
    return *buffer;
  }

  std::atomic<bool> enabled_;
  std::atomic<std::uint64_t> next_id_{1};
  mutable std::mutex mutex_;
  std::vector<std::unique_ptr<std::vector<Span>>> buffers_;
};

/// Times `fn()` as one span; returns fn's result.
template <typename Fn>
auto Traced(Tracer& tracer, const char* name, Fn&& fn, std::uint64_t parent = 0,
            std::uint64_t request = 0) {
  const auto start = Clock::now();
  if constexpr (std::is_void_v<decltype(fn())>) {
    fn();
    tracer.Record(name, start, Clock::now(), parent, request);
  } else {
    auto result = fn();
    tracer.Record(name, start, Clock::now(), parent, request);
    return result;
  }
}

}  // namespace perfbench
