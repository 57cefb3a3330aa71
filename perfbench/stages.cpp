#include "stages.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <exception>
#include <thread>

#include "common/rng.hpp"
#include "common/thread_pool.hpp"
#include "datasets/procedural.hpp"
#include "eval/brute_force_knn.hpp"
#include "eval/roc.hpp"
#include "netsim/fault_channel.hpp"
#include "netsim/inter_shard_channel.hpp"
#include "netsim/reliable_channel.hpp"
#include "svc/snapshot_log.hpp"

namespace perfbench {

using namespace dmfsgd;

void Report::Op(bool ok, const std::string& what) {
  ++attempted;
  if (!ok) {
    ++failed;
    if (failures.size() < 8) {
      failures.push_back(what);
    }
  }
}

double Percentile(std::vector<double> values, double p) {
  if (values.empty()) {
    return 0.0;
  }
  std::sort(values.begin(), values.end());
  const double rank = p / 100.0 * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(rank));
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  return values[lo] + (rank - static_cast<double>(lo)) * (values[hi] - values[lo]);
}

namespace {

double Seconds(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

/// The delay space is fixed: how far the model can get depends strongly on
/// it (some generator seeds plateau near AUC 0.75), so a seeded dataset
/// would make time-to-AUC a property of the draw.  --seed drives everything
/// else: neighbour sets, initial coordinates, probe order, the held-out
/// sample and the open-loop request streams.
constexpr std::uint64_t kDatasetSeed = 2011;  // the generator's default

/// Distinct stream per (run seed, purpose) so the stages never share draws.
std::uint64_t StreamSeed(std::uint64_t seed, std::uint64_t purpose) {
  return seed * 0x9e3779b97f4a7c15ULL + purpose;
}

}  // namespace

// ------------------------------------------------------------------ train --

TrainStage::TrainStage(const Plan& plan, Tracer& tracer, Report& report, bool timed_setup)
    : plan_(plan), tracer_(tracer), report_(report) {
  core::SimulationConfig config;  // η = λ = 0.1, r = 10, logistic loss
  config.neighbor_count = plan.neighbors;
  config.seed = StreamSeed(plan.seed, 1);
  std::vector<double> generate_s, construct_s, setup_s;
  for (std::size_t rep = 0; rep < (timed_setup ? plan.setup_reps : 1); ++rep) {
    simulation_.reset();  // it references the dataset about to be replaced
    const auto t0 = Clock::now();
    dataset_ = Traced(tracer, "datasets.MakeEuclideanRtt", [&] {
      return datasets::MakeEuclideanRtt({plan.train_nodes, kDatasetSeed});
    });
    tau_ = Traced(tracer, "datasets.SampledMedianValue",
                  [&] { return datasets::SampledMedianValue(dataset_); });
    config.tau = tau_;
    const auto t1 = Clock::now();
    simulation_ = Traced(tracer, "core.DmfsgdSimulation", [&] {
      return std::make_unique<core::DmfsgdSimulation>(dataset_, config);
    });
    const auto t2 = Clock::now();
    generate_s.push_back(Seconds(t0, t1));
    construct_s.push_back(Seconds(t1, t2));
    setup_s.push_back(Seconds(t0, t2));
  }
  if (timed_setup) {
    report.e2e["setup_s"] = Median(setup_s);
  }
  report.layer["datasets.generate_s"] = Median(generate_s);
  report.layer["core.construct_s"] = Median(construct_s);

  // A fixed seeded sample of non-neighbour pairs and their true classes.
  common::Rng rng(StreamSeed(plan.seed, 2));
  const std::size_t n = dataset_.NodeCount();
  while (held_.pairs.size() < plan.auc_pairs) {
    const std::size_t i = rng.UniformInt(static_cast<std::uint64_t>(n));
    const std::size_t j = rng.UniformInt(static_cast<std::uint64_t>(n));
    if (i == j || simulation_->IsNeighborPair(i, j)) {
      continue;
    }
    held_.pairs.emplace_back(i, j);
    held_.labels.push_back(datasets::ClassOf(dataset_.metric, dataset_.Quantity(i, j), tau_));
  }
}

namespace {

double HeldOutAuc(const core::DmfsgdSimulation& simulation, const HeldOut& held) {
  std::vector<double> scores;
  scores.reserve(held.pairs.size());
  for (const auto& [i, j] : held.pairs) {
    scores.push_back(simulation.Predict(i, j));
  }
  return eval::Auc(scores, held.labels);
}

}  // namespace

void TrainStage::Run(std::size_t min_slices, double seconds, bool to_target) {
  if (rounds_ == 0) {
    auc_ = HeldOutAuc(*simulation_, held_);
  }
  const double started_s = train_s_;
  for (std::size_t slice = 0;
       rounds_ < plan_.round_cap &&
       (slice < min_slices || train_s_ - started_s < seconds || (to_target && !time_to_auc_s_));
       ++slice) {
    const std::uint64_t id = tracer_.NextId();
    const std::size_t before = simulation_->MeasurementCount();
    const auto start = Clock::now();
    Traced(tracer_, "core.RunRounds", [&] { simulation_->RunRounds(plan_.slice_rounds); }, id,
           id);
    const auto end = Clock::now();
    tracer_.Record("bench.slice", start, end, 0, id, 0, id);
    report_.Op(true);
    const double slice_s = Seconds(start, end);
    slice_s_.push_back(slice_s);
    updates_ += simulation_->MeasurementCount() - before;
    rounds_ += plan_.slice_rounds;
    const double previous_auc = auc_;
    auc_ = Traced(tracer_, "eval.Auc", [&] { return HeldOutAuc(*simulation_, held_); }, id, id);
    if (!time_to_auc_s_ && auc_ >= plan_.auc_target) {
      // Linear between the two checkpoints, in rounds and in wall time.
      const double fraction = (plan_.auc_target - previous_auc) / (auc_ - previous_auc);
      rounds_to_auc_ = static_cast<double>(rounds_ - plan_.slice_rounds) +
                       fraction * static_cast<double>(plan_.slice_rounds);
      time_to_auc_s_ = train_s_ + fraction * slice_s;
    }
    train_s_ += slice_s;
  }
}

void TrainStage::WriteSnapshot(const std::filesystem::path& dir) {
  std::filesystem::remove_all(dir);
  Traced(tracer_, "bench.WriteSnapshotInput",
         [&] { svc::SnapshotLogWriter writer(dir, simulation_->engine().store()); });
}

void TrainStage::Finish() {
  report_.Op(time_to_auc_s_.has_value(),
             "train: AUC " + std::to_string(auc_) + " below target after " +
                 std::to_string(rounds_) + " rounds");
  // Wall time of the rounds themselves: AUC checkpoints and the other
  // stages' turns in between are not training.
  report_.e2e["time_to_auc_s"] = time_to_auc_s_.value_or(0.0);
  report_.e2e["train_updates_per_s"] = static_cast<double>(updates_) / train_s_;
  report_.layer["core.round_ms"] = Median(slice_s_) * 1e3 / static_cast<double>(plan_.slice_rounds);
  report_.layer["core.applied_per_launched"] =
      static_cast<double>(updates_) / static_cast<double>(rounds_ * dataset_.NodeCount());
  report_.layer["core.rounds_to_auc"] = rounds_to_auc_.value_or(0.0);
  std::printf("train: n=%zu rounds=%zu auc=%.4f train_s=%.3f\n", dataset_.NodeCount(),
              rounds_, auc_, train_s_);
}

// ------------------------------------------------------------------ serve --

namespace {

/// Waits for `due`: sleeps until shortly before it, then spins.  A plain
/// sleep_until overshoots by a fraction of a millisecond on a loaded VM,
/// which at thousands of requests per second builds a backlog that is the
/// generator's, not the service's.  The spin pauses on every turn: on a
/// KVM guest, clients spinning without it had their calls stalled for
/// ~4 ms at a time in two of three 1.5 s read windows, against one of
/// seven with it.
void WaitUntil(Clock::time_point due) {
  constexpr auto kSpin = std::chrono::milliseconds(1);
  if (Clock::now() < due - kSpin) {
    std::this_thread::sleep_until(due - kSpin);
  }
  while (Clock::now() < due) {
#if defined(__x86_64__) || defined(__i386__)
    __builtin_ia32_pause();
#elif defined(__aarch64__)
    asm volatile("yield");
#endif
  }
}

}  // namespace

ServeStage::ServeStage(const Plan& plan, Tracer& tracer, Report& report,
                       const datasets::Dataset& dataset, double tau,
                       const std::filesystem::path& snapshot_dir,
                       const std::filesystem::path& work_dir, bool timed_setup)
    : plan_(plan), tracer_(tracer), report_(report) {
  config_.tau = tau;  // service defaults, plus the tier's beam
  config_.seed = StreamSeed(plan.seed, 3);
  config_.index.ef_search = plan.ef_search;
  config_.snapshot_dir = snapshot_dir;
  config_.snapshot_interval = plan.snapshot_interval;

  if (tracer.enabled()) {
    // The constructor's three phases, through the same public calls it
    // makes, so the restart splits by layer.
    const auto time_s = [&](const char* name, auto&& fn) {
      const auto start = Clock::now();
      fn();
      const auto end = Clock::now();
      tracer.Record(name, start, end);
      return Seconds(start, end);
    };
    std::optional<svc::SnapshotLogRecovery> recovered;
    report.layer["svc.recover_s"] = time_s(
        "svc.RecoverSnapshotLog", [&] { recovered = svc::RecoverSnapshotLog(snapshot_dir); });
    report.Op(recovered.has_value(), "serve: snapshot input did not recover");
    if (recovered) {
      report.layer["ann.build_s"] = time_s(
          "ann.PeerIndex", [&] { ann::PeerIndex index(recovered->store, config_.index); });
      report.layer["svc.base_image_s"] = time_s("svc.SnapshotLogWriter", [&] {
        svc::SnapshotLogWriter writer(work_dir / "base-image", recovered->store);
      });
    }
  }

  // Warm restarts: construction (recovery, index build, new base image)
  // plus the first answered query.  Each restart recovers the generation
  // the previous one rewrote — the same coordinates.
  std::vector<double> restart_s;
  for (std::size_t r = 0; r < plan.restarts; ++r) {
    service_.reset();
    const auto start = Clock::now();
    service_ = Traced(tracer, "svc.CoordinateService", [&] {
      return std::make_unique<svc::CoordinateService>(dataset, config_);
    });
    const auto first = Traced(tracer, "svc.QueryNearestPeers",
                              [&] { return service_->QueryNearestPeers(0, 10); });
    restart_s.push_back(Seconds(start, Clock::now()));
    report.Op(first.Size() == 10 && service_->stats().resumed,
              "serve: restart did not resume from the snapshot");
  }
  if (timed_setup) {
    report.e2e["setup_s"] = Median(restart_s);
  }
}

void ServeStage::RunSegment(std::size_t segment) {
  // After a restart, or after the other stages have had the cache, the
  // first reads run a backlog even though each call is fast; unmeasured
  // reads absorb it (longer after the restart).
  (void)RunWindow(segment == 0 ? plan_.warmup_seconds : plan_.rewarm_seconds, plan_.read_rate,
                  0.0, 0);
  const double share = 1.0 / static_cast<double>(plan_.segments);
  reads_.push_back(RunWindow(plan_.read_seconds * share, plan_.read_rate, 0.0, 1 + 2 * segment));
  mixes_.push_back(RunWindow(plan_.mixed_seconds * share, plan_.mixed_query_rate,
                             plan_.ingest_rate, 2 + 2 * segment));
}

/// Runs one open-loop window: two query threads alternating k-NN and level
/// queries at `query_rate` each, plus one ingest thread at `ingest_rate`
/// (none at 0).  Every request is timed from its due time.
Window ServeStage::RunWindow(double seconds, double query_rate, double ingest_rate,
                             std::uint64_t stream) {
  svc::CoordinateService& service = *service_;
  Window window;
  window.before = service.stats();
  const std::size_t n = service.NodeCount();
  window.start = Clock::now() + std::chrono::milliseconds(5);
  window.end = window.start + std::chrono::duration_cast<Clock::duration>(
                                  std::chrono::duration<double>(seconds));
  constexpr std::size_t kClients = 3;  // two query threads, one ingest thread
  std::vector<std::vector<Request>> per_client(kClients);
  std::vector<std::exception_ptr> crashed(kClients);

  auto client = [&](std::size_t c) {
    try {
      const bool ingest = c == 2;
      const double rate = ingest ? ingest_rate : query_rate;
      if (rate <= 0.0) {
        return;
      }
      common::Rng rng(StreamSeed(plan_.seed, 100 + stream * 16 + c));
      const auto interval = std::chrono::duration<double>(1.0 / rate);
      // The two query threads interleave rather than fire together.
      const auto offset = (c == 1) ? interval / 2 : interval * 0;
      std::vector<Request>& out = per_client[c];
      out.reserve(static_cast<std::size_t>(seconds * rate) + 16);
      svc::CoordinateService::Stats seen = window.before;
      for (std::uint64_t k = 0;; ++k) {
        const auto due = window.start + std::chrono::duration_cast<Clock::duration>(
                                            offset + interval * static_cast<double>(k));
        if (due >= window.end) {
          break;
        }
        Request request;
        request.kind = ingest ? Kind::kIngest : (k % 2 == 0 ? Kind::kKnn : Kind::kLevel);
        const auto i = static_cast<core::NodeId>(rng.UniformInt(static_cast<std::uint64_t>(n)));
        auto j = static_cast<core::NodeId>(rng.UniformInt(static_cast<std::uint64_t>(n - 1)));
        j += (j >= i) ? 1 : 0;
        WaitUntil(due);
        const auto start = Clock::now();
        const char* name = "svc.QueryNearestPeers";
        try {
          switch (request.kind) {
            case Kind::kKnn:
              request.ok = service.QueryNearestPeers(i, 10).Size() == 10;
              break;
            case Kind::kLevel:
              name = "svc.QueryLevel";
              request.ok = service.QueryLevel(i, j) <= 1;
              break;
            case Kind::kIngest:
              name = "svc.IngestProbe";
              request.ok = service.IngestProbe(i) < n;
              break;
          }
        } catch (const std::exception&) {
          request.ok = false;
        }
        const auto end = Clock::now();
        request.due_ns = Nanos(due);
        request.start_ns = Nanos(start);
        request.end_ns = Nanos(end);
        request.gen_late_ns =
            request.start_ns - std::max(request.due_ns, out.empty() ? 0 : out.back().end_ns);
        if (tracer_.enabled()) {
          std::uint32_t flags = 0;
          const std::uint64_t root = tracer_.NextId();
          if (ingest) {
            const auto stats = Traced(tracer_, "svc.stats", [&] { return service.stats(); },
                                      root, root);
            flags |= stats.index_refreshes != seen.index_refreshes ? kRefreshed : 0u;
            flags |= stats.epochs != seen.epochs ? kEpoch : 0u;
            seen = stats;
          }
          tracer_.Record(name, start, end, root, root, flags);
          tracer_.Record("bench.request", due, end, 0, root, 0, root);
        }
        out.push_back(request);
      }
    } catch (...) {
      crashed[c] = std::current_exception();
    }
  };
  std::vector<std::thread> threads;
  for (std::size_t c = 0; c < kClients; ++c) {
    threads.emplace_back(client, c);
  }
  for (auto& thread : threads) {
    thread.join();
  }
  window.joined = Clock::now();
  for (std::size_t c = 0; c < kClients; ++c) {
    if (crashed[c]) {
      report_.Op(false, "serve: a client thread threw");
    }
    window.requests.insert(window.requests.end(), per_client[c].begin(), per_client[c].end());
  }
  for (const Request& request : window.requests) {
    report_.Op(request.ok, "serve: a request failed");
  }
  window.after = service.stats();
  return window;
}

namespace {

struct Summary {
  double knn_p50_ms = 0.0;
  double knn_p99_ms = 0.0;
  double query_slo_share = 0.0;
  double ingest_p99_ms = 0.0;
};

/// The windows' user-facing numbers, latencies from due time.  Each
/// percentile is taken over the requests of every window together.
Summary Summarize(const std::vector<Window>& windows) {
  std::vector<double> knn, ingest;
  std::size_t queries = 0, within_slo = 0;
  for (const Window& window : windows) {
    for (const Request& request : window.requests) {
      if (request.kind == Kind::kIngest) {
        ingest.push_back(request.LatencyMs());
        continue;
      }
      if (request.kind == Kind::kKnn) {
        knn.push_back(request.LatencyMs());
      }
      ++queries;
      // A failed query misses the objective whatever its latency.
      within_slo += (request.ok && request.LatencyMs() <= 5.0) ? 1 : 0;
    }
  }
  Summary out;
  out.knn_p50_ms = Percentile(knn, 50.0);
  out.knn_p99_ms = Percentile(knn, 99.0);
  out.query_slo_share =
      queries ? static_cast<double>(within_slo) / static_cast<double>(queries) : 0.0;
  out.ingest_p99_ms = Percentile(ingest, 99.0);
  return out;
}

/// Spans named `name` that started inside one of `windows`.
std::vector<Span> SpansIn(const std::vector<Span>& spans, const std::vector<Window>& windows,
                          const char* name) {
  std::vector<Span> out;
  for (const Span& span : spans) {
    if (std::strcmp(span.name, name) != 0) {
      continue;
    }
    for (const Window& window : windows) {
      if (span.start_ns >= Nanos(window.start) && span.start_ns < Nanos(window.joined)) {
        out.push_back(span);
        break;
      }
    }
  }
  return out;
}

std::vector<double> DurationsMs(const std::vector<Span>& spans, std::uint32_t mask = 0,
                                std::uint32_t want = 0) {
  std::vector<double> out;
  for (const Span& span : spans) {
    if ((span.flags & mask) == want) {
      out.push_back(span.Ms());
    }
  }
  return out;
}

/// Per-layer attribution of the mixed windows, from their spans and the
/// service counters read at their boundaries.
void AttributeMixedWindows(const std::vector<Span>& spans, const std::vector<Window>& windows,
                           Report& report) {
  const auto knn = SpansIn(spans, windows, "svc.QueryNearestPeers");
  auto ingest = SpansIn(spans, windows, "svc.IngestProbe");
  std::sort(ingest.begin(), ingest.end(),
            [](const Span& a, const Span& b) { return a.start_ns < b.start_ns; });
  double hold_ms = 0.0, wall_ms = 0.0;
  for (const Span& span : ingest) {
    hold_ms += span.Ms();
  }
  std::uint64_t refreshes = 0, relinks = 0, rebuilds = 0, epochs = 0;
  for (const Window& window : windows) {
    wall_ms += Seconds(window.start, window.end) * 1e3;
    refreshes += window.after.index_refreshes - window.before.index_refreshes;
    relinks += window.after.index_relinks - window.before.index_relinks;
    rebuilds += window.after.index_rebuilds - window.before.index_rebuilds;
    epochs += window.after.epochs - window.before.epochs;
  }
  report.layer["svc.write_hold_share"] = hold_ms / wall_ms;
  report.layer["svc.level_call_p99_us"] =
      Percentile(DurationsMs(SpansIn(spans, windows, "svc.QueryLevel")), 99.0) * 1e3;

  // Ingest calls come from one thread, so their intervals are disjoint and
  // sorted: a k-NN call overlaps one iff the last ingest starting before
  // the k-NN call ends is still running when the k-NN call starts.
  std::vector<double> overlap_ms, clean_ms;
  for (const Span& call : knn) {
    auto it = std::upper_bound(ingest.begin(), ingest.end(), call.end_ns,
                               [](std::int64_t t, const Span& s) { return t < s.start_ns; });
    const bool overlaps = it != ingest.begin() && std::prev(it)->end_ns > call.start_ns;
    (overlaps ? overlap_ms : clean_ms).push_back(call.Ms());
  }
  report.layer["svc.knn_overlap_share"] =
      knn.empty() ? 0.0
                  : static_cast<double>(overlap_ms.size()) / static_cast<double>(knn.size());
  report.layer["svc.knn_call_p99_ms_overlap"] = Percentile(overlap_ms, 99.0);
  report.layer["svc.knn_call_p99_ms_clean"] = Percentile(clean_ms, 99.0);

  report.layer["core.ingest_call_us"] =
      Percentile(DurationsMs(ingest, kRefreshed | kEpoch, 0), 50.0) * 1e3;
  const auto refresh_ms = DurationsMs(ingest, kRefreshed, kRefreshed);
  report.layer["ann.refresh_call_ms_p50"] = Percentile(refresh_ms, 50.0);
  report.layer["ann.refresh_call_ms_p99"] = Percentile(refresh_ms, 99.0);
  report.layer["svc.epoch_call_ms"] = Percentile(DurationsMs(ingest, kEpoch, kEpoch), 50.0);
  report.layer["ann.refreshes"] = static_cast<double>(refreshes);
  report.layer["ann.relinks_per_refresh"] =
      refreshes ? static_cast<double>(relinks) / static_cast<double>(refreshes) : 0.0;
  report.layer["ann.rebuilds"] = static_cast<double>(rebuilds);
  report.layer["svc.epochs"] = static_cast<double>(epochs);
}

/// Span-recording cost on the k-NN path: alternating untraced and traced
/// blocks of closed-loop queries on the quiescent service.
double TraceOverhead(Tracer& tracer, svc::CoordinateService& service, std::uint64_t seed) {
  constexpr std::size_t kBlocks = 6, kQueries = 400;
  std::vector<double> off, on;
  common::Rng rng(seed);
  const std::size_t n = service.NodeCount();
  for (std::size_t block = 0; block < 2 * kBlocks; ++block) {
    const bool traced = block % 2 == 1;
    tracer.set_enabled(traced);
    const auto start = Clock::now();
    for (std::size_t q = 0; q < kQueries; ++q) {
      const auto i = static_cast<std::size_t>(rng.UniformInt(static_cast<std::uint64_t>(n)));
      const std::uint64_t root = tracer.enabled() ? tracer.NextId() : 0;
      const auto call = Clock::now();
      (void)service.QueryNearestPeers(i, 10);
      tracer.Record("bench.calibration", call, Clock::now(), root, root);
    }
    (traced ? on : off).push_back(Seconds(start, Clock::now()));
  }
  tracer.set_enabled(true);
  return Median(on) / Median(off) - 1.0;
}

}  // namespace

void ServeStage::Finish() {
  svc::CoordinateService& service = *service_;
  common::Rng rng(StreamSeed(plan_.seed, 4));
  const std::size_t n = service.NodeCount();
  for (std::size_t c = 0; c < plan_.level_checks; ++c) {
    const auto i = static_cast<std::size_t>(rng.UniformInt(static_cast<std::uint64_t>(n)));
    const auto j = (i + 1 + rng.UniformInt(static_cast<std::uint64_t>(n - 1))) % n;
    const std::size_t expected = service.QueryScore(i, j) > 0.0 ? 1 : 0;  // thresholds {0}
    report_.Op(service.QueryLevel(i, j) == expected,
               "serve: QueryLevel disagrees with QueryScore");
  }
  double recall = 0.0;
  for (std::size_t q = 0; q < plan_.recall_nodes; ++q) {
    const std::size_t node = q * (n / plan_.recall_nodes);
    const auto approx = service.QueryNearestPeers(node, 10);
    const auto oracle =
        eval::BruteForceKnnAll(service.store(), node, 10, service.DefaultOrdering());
    recall += eval::RecallAtK(approx, oracle);
  }
  recall /= static_cast<double>(plan_.recall_nodes);
  report_.e2e["recall_at_10"] = recall;
  report_.Op(recall >= 0.9, "serve: recall@10 " + std::to_string(recall) + " < 0.9");

  // Only the read-window p50 is end-to-end.  The tails and the windows
  // under writes move with host steal far beyond any bound on a KVM guest
  // (perfbench/METRICS.md), so they are reported unbounded, per layer.
  const Summary reads = Summarize(reads_);
  report_.e2e["knn_p50_ms"] = reads.knn_p50_ms;
  report_.layer["svc.knn_p99_ms_from_due"] = reads.knn_p99_ms;
  report_.layer["svc.query_slo_share"] = reads.query_slo_share;
  const Summary mixes = Summarize(mixes_);
  report_.layer["svc.mixed_knn_p50_ms"] = mixes.knn_p50_ms;
  report_.layer["svc.mixed_knn_p99_ms"] = mixes.knn_p99_ms;
  report_.layer["svc.mixed_query_slo_share"] = mixes.query_slo_share;
  report_.layer["svc.ingest_p99_ms"] = mixes.ingest_p99_ms;
  std::size_t requests = 0;
  for (const auto* windows : {&reads_, &mixes_}) {
    for (const Window& window : *windows) {
      requests += window.requests.size();
    }
  }
  std::printf("serve: n=%zu restarts=%zu requests=%zu recall=%.4f epochs=%llu\n", n,
              plan_.restarts, requests, recall,
              static_cast<unsigned long long>(service.stats().epochs));

  if (tracer_.enabled()) {
    const auto spans = tracer_.Collect();
    const auto knn = DurationsMs(SpansIn(spans, reads_, "svc.QueryNearestPeers"));
    report_.layer["svc.knn_call_p50_ms"] = Percentile(knn, 50.0);
    report_.layer["svc.knn_call_p99_ms"] = Percentile(knn, 99.0);
    AttributeMixedWindows(spans, mixes_, report_);
    std::vector<double> late_ms;
    for (const auto* windows : {&reads_, &mixes_}) {
      for (const Window& window : *windows) {
        for (const Request& request : window.requests) {
          late_ms.push_back(static_cast<double>(request.gen_late_ns) / 1e6);
        }
      }
    }
    report_.layer["bench.gen_late_p99_ms"] = Percentile(late_ms, 99.0);
    report_.layer["bench.trace_overhead"] =
        TraceOverhead(tracer_, service, StreamSeed(plan_.seed, 5));
  }
}

// ------------------------------------------------------------------ drain --

DrainStage::DrainStage(const Plan& plan, Tracer& tracer, Report& report)
    : plan_(plan), tracer_(tracer), report_(report) {
  dataset_ = Traced(tracer, "datasets.MakeEuclideanRtt", [&] {
    return datasets::MakeEuclideanRtt({plan.drain_nodes, kDatasetSeed});
  });
  config_.base.neighbor_count = 10;
  config_.base.tau = datasets::SampledMedianValue(dataset_);
  config_.base.seed = StreamSeed(plan.seed, 6);
  config_.mean_probe_interval_s = 1.0;
  config_.shard_count = plan.drain_shards;
}

void DrainStage::RunSegment(std::size_t segment) {
  const std::size_t clean = plan_.clean_reps / plan_.segments;
  const std::size_t lossy = plan_.lossy_reps / plan_.segments;
  for (std::size_t rep = 0, c = 0, l = 0; rep < clean + lossy; ++rep) {
    // Interleaved, so a slow spell of the host hits both kinds alike.
    const bool is_lossy = l < lossy && (rep % 2 == 1 || c >= clean);
    ++(is_lossy ? l : c);
    try {
      RunPhase(is_lossy);
      report_.Op(true);
    } catch (const std::exception& error) {
      report_.Op(false, "drain segment " + std::to_string(segment) + ": " + error.what());
    }
  }
}

/// One distributed drain to the horizon: two loopback "processes" on two
/// threads, each behind the reliability layer (and, when lossy, a seeded
/// 5 %-outbound-drop injector underneath it).
void DrainStage::RunPhase(bool lossy) {
  constexpr std::size_t kProcesses = 2;
  netsim::LoopbackInterShardHub hub(kProcesses);
  std::vector<core::MultiprocessRunReport> reports(kProcesses);
  std::vector<Phase> counters(kProcesses);
  std::vector<std::exception_ptr> errors(kProcesses);
  const std::uint64_t root = tracer_.NextId();
  const auto start = Clock::now();
  std::vector<std::thread> threads;
  for (std::size_t p = 0; p < kProcesses; ++p) {
    threads.emplace_back([&, p] {
      try {
        netsim::LoopbackInterShardChannel raw(hub, p);
        netsim::FaultChannelOptions faults;
        faults.outbound.drop_rate = lossy ? 0.05 : 0.0;
        faults.seed = StreamSeed(plan_.seed, 7) + p;
        netsim::FaultInjectingInterShardChannel faulty(raw, faults);
        // Loopback-speed timers, as in the reliability tests: LAN-scale
        // RTOs would measure idle waits, not the protocol.
        netsim::ReliableChannelOptions options;
        options.initial_rto_ms = 5;
        options.ack_delay_ms = 2;
        netsim::ReliableInterShardChannel reliable(faulty, options);
        common::ThreadPool pool(1);
        reports[p] = Traced(tracer_, "core.RunMultiprocessAsyncSimulation", [&] {
          return core::RunMultiprocessAsyncSimulation(dataset_, config_, reliable,
                                                      plan_.drain_horizon_s, pool);
        }, root, root);
        counters[p].standalone_acks = reliable.StandaloneAcksSent();
        counters[p].frames_dropped = faulty.FramesDropped();
        counters[p].retransmits = reliable.Retransmits();
        counters[p].duplicates = reliable.DuplicatesSuppressed();
      } catch (...) {
        errors[p] = std::current_exception();
      }
    });
  }
  for (auto& thread : threads) {
    thread.join();
  }
  const auto end = Clock::now();
  tracer_.Record(lossy ? "bench.drain_lossy" : "bench.drain_clean", start, end, 0, root, 0,
                 root);
  for (const auto& error : errors) {
    if (error) {
      std::rethrow_exception(error);
    }
  }
  Phase phase;
  phase.seconds = Seconds(start, end);
  phase.coordinator = std::move(reports[0]);
  for (std::size_t p = 0; p < kProcesses; ++p) {
    phase.frames_sent += reports[p].frames_sent;
    phase.standalone_acks += counters[p].standalone_acks;
    phase.frames_dropped += counters[p].frames_dropped;
    phase.retransmits += counters[p].retransmits;
    phase.duplicates += counters[p].duplicates;
  }
  (lossy ? lossy_ : clean_).push_back(std::move(phase));
}

namespace {

bool SameStores(const core::MultiprocessRunReport& a, const core::MultiprocessRunReport& b) {
  return a.u.size() == b.u.size() && a.v.size() == b.v.size() &&
         std::memcmp(a.u.data(), b.u.data(), a.u.size() * sizeof(double)) == 0 &&
         std::memcmp(a.v.data(), b.v.data(), a.v.size() * sizeof(double)) == 0;
}

template <typename Field>
double MedianOf(const std::vector<DrainStage::Phase>& phases, Field field) {
  std::vector<double> out;
  for (const auto& phase : phases) {
    out.push_back(static_cast<double>(field(phase)));
  }
  return Median(out);
}

}  // namespace

void DrainStage::Finish() {
  if (clean_.empty() || lossy_.empty()) {
    report_.Op(false, "drain: no clean or no lossy run completed");
    return;
  }
  const auto& reference = clean_.front().coordinator;
  for (const auto* phases : {&clean_, &lossy_}) {
    for (const Phase& phase : *phases) {
      report_.Op(SameStores(phase.coordinator, reference),
                 "drain: final stores differ from the first clean run");
    }
  }
  using P = const Phase&;
  const auto rate = [](P p) { return static_cast<double>(p.coordinator.measurements) / p.seconds; };
  report_.e2e["drain_clean_per_s"] = MedianOf(clean_, rate);
  report_.e2e["drain_lossy_per_s"] = MedianOf(lossy_, rate);
  const auto windows = static_cast<double>(reference.windows);
  report_.layer["core.events"] = static_cast<double>(reference.events_executed);
  report_.layer["core.windows"] = windows;
  report_.layer["core.ms_per_window"] =
      MedianOf(clean_, [](P p) { return p.seconds; }) * 1e3 / windows;
  report_.layer["core.ms_per_window_lossy"] =
      MedianOf(lossy_, [](P p) { return p.seconds; }) * 1e3 / windows;
  report_.layer["netsim.frames_sent"] = MedianOf(clean_, [](P p) { return p.frames_sent; });
  report_.layer["netsim.standalone_acks"] =
      MedianOf(clean_, [](P p) { return p.standalone_acks; });
  const double dropped = MedianOf(lossy_, [](P p) { return p.frames_dropped; });
  const double retransmits = MedianOf(lossy_, [](P p) { return p.retransmits; });
  report_.layer["netsim.frames_dropped"] = dropped;
  report_.layer["netsim.retransmits"] = retransmits;
  report_.layer["netsim.duplicates_suppressed"] =
      MedianOf(lossy_, [](P p) { return p.duplicates; });
  report_.layer["netsim.retransmits_per_drop"] = dropped > 0 ? retransmits / dropped : 0.0;
  std::printf("drain: n=%zu clean=%zu lossy=%zu exchanges=%llu windows=%llu\n",
              dataset_.NodeCount(), clean_.size(), lossy_.size(),
              static_cast<unsigned long long>(reference.measurements),
              static_cast<unsigned long long>(reference.windows));
}

}  // namespace perfbench
