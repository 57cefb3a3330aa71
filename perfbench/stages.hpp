// The benchmark's journey through the library, one stage per plane:
//
//   TrainStage  — procedural n-node RTT set, per-message rounds to a held-out
//                 AUC target; writes the snapshot the serve stage restarts from
//   ServeStage  — warm restart of a CoordinateService, then open-loop read
//                 windows and mixed read/write windows
//   DrainStage  — two-"process" loopback distributed async drain over a clean
//                 link and over a 5 %-drop link, from the same seed
//
// Every run walks all three stages, so every metric is measured in every
// workload; the workload decides which stage gets the run's --seconds and
// whose set-up is setup_s (MakePlan in main.cpp).  After the set-up, the
// measured parts run in segments, each stage taking a turn per segment, so
// a slow spell of the host lands on a share of every stage rather than on
// all of one.  The stages call the library only through its public API.
#pragma once

#include <cstddef>
#include <cstdint>
#include <filesystem>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "core/async_simulation.hpp"
#include "core/multiprocess.hpp"
#include "core/simulation.hpp"
#include "datasets/dataset.hpp"
#include "svc/coordinate_service.hpp"
#include "trace.hpp"

namespace perfbench {

struct Plan {
  std::uint64_t seed = 1;
  std::size_t segments = 3;          ///< turns each stage takes after set-up

  // -- train ---------------------------------------------------------------
  std::size_t train_nodes = 65536;
  std::size_t neighbors = 32;        ///< k (the paper's default)
  std::size_t auc_pairs = 50000;     ///< held-out non-neighbour sample
  double auc_target = 0.845;
  std::size_t slice_rounds = 16;     ///< rounds between AUC checkpoints
  std::size_t snapshot_round = 64;   ///< the serve stage restarts from here
  std::size_t round_cap = 400;       ///< the AUC target must be met by then
  double train_seconds = 0.0;        ///< summed over segments
  std::size_t setup_reps = 5;        ///< when train set-up is the timed one

  // -- serve ---------------------------------------------------------------
  std::size_t restarts = 1;
  std::size_t ef_search = 192;
  double warmup_seconds = 1.0;       ///< unmeasured reads after the restart
  double rewarm_seconds = 0.5;       ///< ... before each later segment
  double read_seconds = 3.0;         ///< summed over segments
  double read_rate = 4000.0;         ///< per query thread (2 threads)
  double mixed_seconds = 12.0;       ///< summed over segments: five snapshot
                                     ///< epochs at the ingest rate below
  double mixed_query_rate = 500.0;   ///< per query thread (2 threads)
  double ingest_rate = 2000.0;       ///< one ingest thread
  std::size_t snapshot_interval = 4096;  ///< the service default
  std::size_t level_checks = 1000;
  std::size_t recall_nodes = 128;

  // -- drain ---------------------------------------------------------------
  std::size_t drain_nodes = 1024;
  std::size_t drain_shards = 4;
  double drain_horizon_s = 2.0;      ///< simulated seconds per run
  std::size_t clean_reps = 3;        ///< summed over segments
  std::size_t lossy_reps = 3;        ///< summed over segments
};

/// What a run measured: metrics by name plus the operation tally.
struct Report {
  std::map<std::string, double> e2e;    ///< end-to-end (untraced run)
  std::map<std::string, double> layer;  ///< per-layer (traced run)
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> failures;    ///< first few, for the log

  /// Counts one operation; a false `ok` counts it failed with `what`.
  void Op(bool ok, const std::string& what = {});
};

/// Held-out pairs for the AUC checkpoints.
struct HeldOut {
  std::vector<std::pair<std::size_t, std::size_t>> pairs;
  std::vector<int> labels;
};

class TrainStage {
 public:
  /// Generates the dataset and builds the deployment (plan.setup_reps times
  /// when `timed_setup`, reporting the median as setup_s).
  TrainStage(const Plan& plan, Tracer& tracer, Report& report, bool timed_setup);

  /// Runs slices of plan.slice_rounds rounds: at least `min_slices`, then
  /// more while this call has trained less than `seconds`, or while the AUC
  /// target is unmet when `to_target`.
  void Run(std::size_t min_slices, double seconds, bool to_target);
  /// Writes the current model as a snapshot-log generation.
  void WriteSnapshot(const std::filesystem::path& dir);
  /// Checks the target was met and reports the train metrics.
  void Finish();

  [[nodiscard]] const dmfsgd::datasets::Dataset& dataset() const { return dataset_; }
  [[nodiscard]] double tau() const { return tau_; }

 private:
  const Plan& plan_;
  Tracer& tracer_;
  Report& report_;
  dmfsgd::datasets::Dataset dataset_;
  double tau_ = 0.0;
  std::unique_ptr<dmfsgd::core::DmfsgdSimulation> simulation_;
  HeldOut held_;
  double auc_ = 0.0;
  std::size_t rounds_ = 0;
  double train_s_ = 0.0;
  std::uint64_t updates_ = 0;            // measurements applied in timed rounds
  std::optional<double> rounds_to_auc_;  // interpolated between checkpoints
  std::optional<double> time_to_auc_s_;  // ... and so is the wall time
  std::vector<double> slice_s_;
};

enum class Kind : std::uint8_t { kKnn, kLevel, kIngest };

/// One open-loop request: when it was due, when the call started and ended.
struct Request {
  std::int64_t due_ns = 0;
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  /// Call start minus max(due, the client's previous call end): how late
  /// the generator itself woke, excluding waits behind a slow earlier call.
  std::int64_t gen_late_ns = 0;
  Kind kind = Kind::kKnn;
  bool ok = true;

  [[nodiscard]] double LatencyMs() const { return static_cast<double>(end_ns - due_ns) / 1e6; }
};

struct Window {
  Clock::time_point start;
  Clock::time_point end;     ///< no request is due at or after this
  Clock::time_point joined;  ///< every client had finished
  std::vector<Request> requests;
  dmfsgd::svc::CoordinateService::Stats before;
  dmfsgd::svc::CoordinateService::Stats after;
};

class ServeStage {
 public:
  /// Warm-restarts the service from `snapshot_dir` plan.restarts times
  /// (reporting the median as setup_s when `timed_setup`).
  ServeStage(const Plan& plan, Tracer& tracer, Report& report,
             const dmfsgd::datasets::Dataset& dataset, double tau,
             const std::filesystem::path& snapshot_dir,
             const std::filesystem::path& work_dir, bool timed_setup);

  /// Unmeasured warm-up reads, then one read window and one mixed window,
  /// each a 1/segments share.
  void RunSegment(std::size_t segment);
  /// Correctness checks on the quiescent service, then the serve metrics.
  void Finish();

 private:
  Window RunWindow(double seconds, double query_rate, double ingest_rate,
                   std::uint64_t stream);

  const Plan& plan_;
  Tracer& tracer_;
  Report& report_;
  dmfsgd::svc::ServiceConfig config_;
  std::unique_ptr<dmfsgd::svc::CoordinateService> service_;
  std::vector<Window> reads_;
  std::vector<Window> mixes_;
};

class DrainStage {
 public:
  DrainStage(const Plan& plan, Tracer& tracer, Report& report);

  /// A 1/segments share of the clean and lossy runs, interleaved.
  void RunSegment(std::size_t segment);
  /// Checks every run's final stores against the first clean run and
  /// reports the drain metrics.
  void Finish();

  struct Phase {
    double seconds = 0.0;
    dmfsgd::core::MultiprocessRunReport coordinator;
    std::uint64_t frames_sent = 0;
    std::uint64_t standalone_acks = 0;
    std::uint64_t frames_dropped = 0;
    std::uint64_t retransmits = 0;
    std::uint64_t duplicates = 0;
  };

 private:
  void RunPhase(bool lossy);

  const Plan& plan_;
  Tracer& tracer_;
  Report& report_;
  dmfsgd::datasets::Dataset dataset_;
  dmfsgd::core::AsyncSimulationConfig config_;
  std::vector<Phase> clean_;
  std::vector<Phase> lossy_;
};

/// p-th percentile (0..100) by linear interpolation; 0 for no samples.
double Percentile(std::vector<double> values, double p);
inline double Median(std::vector<double> values) {
  return Percentile(std::move(values), 50.0);
}

}  // namespace perfbench
