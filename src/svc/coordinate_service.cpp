#include "svc/coordinate_service.hpp"

#include <mutex>
#include <shared_mutex>
#include <stdexcept>
#include <utility>

namespace dmfsgd::svc {

namespace {

core::SimulationConfig SimulationConfigFor(const ServiceConfig& config) {
  core::SimulationConfig sim;
  static_cast<core::ProtocolConfig&>(sim) = config;  // the shared knobs
  sim.mode = config.mode;
  sim.neighbor_count = config.neighbor_count;
  sim.message_loss = config.message_loss;
  sim.churn_rate = config.churn_rate;
  return sim;
}

const ServiceConfig& RequireServiceConfig(const ServiceConfig& config) {
  // The shared knobs go through the one shared validator; the engine
  // re-validates them on construction, which is fine — same function,
  // same rules.
  core::ValidateProtocolConfig(config, "svc::CoordinateService");
  if (config.staleness_budget == 0) {
    throw std::invalid_argument(
        "svc::CoordinateService: staleness_budget must be >= 1");
  }
  if (config.snapshot_interval == 0) {
    throw std::invalid_argument(
        "svc::CoordinateService: snapshot_interval must be >= 1");
  }
  return config;
}

}  // namespace

CoordinateService::CoordinateService(const datasets::Dataset& dataset,
                                     const ServiceConfig& config)
    : config_(RequireServiceConfig(config)),
      simulation_(dataset, SimulationConfigFor(config_)),
      pending_index_(simulation_.NodeCount(), 0),
      pending_snapshot_(simulation_.NodeCount(), 0) {
  // Warm restart: recover any prior log generation *before* tracking or
  // indexing starts, so the index snapshots the recovered rows and the new
  // generation's base image is the recovered state.
  if (!config_.snapshot_dir.empty()) {
    if (auto recovered = RecoverSnapshotLog(config_.snapshot_dir)) {
      simulation_.RestoreCoordinates(recovered->store);
      stats_.resumed = true;
      stats_.recovered_torn_tail = recovered->truncated_tail;
    }
  }
  simulation_.EnableDriftTracking();
  index_.emplace(store(), config_.index, &simulation_.Pool());
  if (!config_.snapshot_dir.empty()) {
    log_.emplace(config_.snapshot_dir, store());
  }
}

// -- ingest plane -----------------------------------------------------------

bool CoordinateService::Ingest(core::NodeId prober, core::NodeId target,
                               std::optional<double> observed_quantity) {
  const std::unique_lock<std::shared_mutex> lock(state_mutex_);
  if (prober >= NodeCount() || target >= NodeCount()) {
    throw std::out_of_range("svc::CoordinateService::Ingest: node id out of range");
  }
  if (prober == target) {
    throw std::invalid_argument("svc::CoordinateService::Ingest: self-probe");
  }
  const bool applied = simulation_.Ingest(prober, target, observed_quantity);
  if (applied) {
    AccountIngest(1);
  }
  return applied;
}

core::NodeId CoordinateService::IngestProbe(core::NodeId prober) {
  const std::unique_lock<std::shared_mutex> lock(state_mutex_);
  if (prober >= NodeCount()) {
    throw std::out_of_range(
        "svc::CoordinateService::IngestProbe: node id out of range");
  }
  const std::size_t before = simulation_.MeasurementCount();
  const core::NodeId target = simulation_.IngestProbe(prober);
  AccountIngest(simulation_.MeasurementCount() - before);
  return target;
}

void CoordinateService::IngestRounds(std::size_t rounds) {
  for (std::size_t round = 0; round < rounds; ++round) {
    // One round per exclusive hold — a round is the service's largest
    // indivisible ingest, and re-taking the lock between rounds lets
    // waiting queries interleave with long warm-ups.
    const std::unique_lock<std::shared_mutex> lock(state_mutex_);
    const std::size_t before = simulation_.MeasurementCount();
    simulation_.RunRounds(1);
    // Per-round accounting keeps the staleness bound honest at round
    // granularity.
    AccountIngest(simulation_.MeasurementCount() - before);
  }
}

std::size_t CoordinateService::IngestTrace(std::size_t begin, std::size_t end) {
  const std::unique_lock<std::shared_mutex> lock(state_mutex_);
  const std::size_t applied = simulation_.ReplayTrace(begin, end);
  AccountIngest(applied);
  return applied;
}

// -- query plane ------------------------------------------------------------

double CoordinateService::ScoreLocked(std::size_t i, std::size_t j) const {
  query_count_.fetch_add(1, std::memory_order_relaxed);
  return simulation_.engine().Predict(i, j);
}

double CoordinateService::QueryScore(std::size_t i, std::size_t j) const {
  const std::shared_lock<std::shared_mutex> lock(state_mutex_);
  return ScoreLocked(i, j);
}

double CoordinateService::QueryQuantity(std::size_t i, std::size_t j) const {
  const std::shared_lock<std::shared_mutex> lock(state_mutex_);
  return ScoreLocked(i, j) * config_.tau;
}

std::size_t CoordinateService::QueryLevel(std::size_t i, std::size_t j) const {
  const std::shared_lock<std::shared_mutex> lock(state_mutex_);
  const double score = ScoreLocked(i, j);
  const bool higher_better =
      DefaultOrdering() == eval::KnnOrdering::kLargestFirst;
  std::size_t level = 0;
  for (const double threshold : config_.class_thresholds) {
    if (higher_better ? score > threshold : score < threshold) {
      ++level;
    }
  }
  return level;
}

eval::KnnResult CoordinateService::QueryNearestPeers(std::size_t i,
                                                     std::size_t k,
                                                     std::size_t ef) const {
  const std::shared_lock<std::shared_mutex> lock(state_mutex_);
  query_count_.fetch_add(1, std::memory_order_relaxed);
  return index_->SearchFrom(i, k, DefaultOrdering(), ef);
}

eval::KnnOrdering CoordinateService::DefaultOrdering() const noexcept {
  if (config_.mode == core::PredictionMode::kClassification) {
    // Classification scores are trained toward ±1 labels where +1 = good,
    // so higher is better regardless of the underlying metric.
    return eval::KnnOrdering::kLargestFirst;
  }
  return eval::RegressionOrderingFor(dataset().metric);
}

// -- snapshot plane ---------------------------------------------------------

void CoordinateService::Checkpoint() {
  const std::unique_lock<std::shared_mutex> lock(state_mutex_);
  if (log_) {
    AppendEpoch();
  }
}

// -- introspection ----------------------------------------------------------

CoordinateService::Stats CoordinateService::stats() const {
  const std::shared_lock<std::shared_mutex> lock(state_mutex_);
  Stats out = stats_;
  out.queries = query_count_.load(std::memory_order_relaxed);
  return out;
}

std::size_t CoordinateService::CurrentStaleness() const {
  const std::shared_lock<std::shared_mutex> lock(state_mutex_);
  return staleness_;
}

// -- cadence ----------------------------------------------------------------

void CoordinateService::AccountIngest(std::size_t count) {
  if (count == 0) {
    return;
  }
  stats_.ingests += count;
  staleness_ += count;
  since_epoch_ += count;
  if (staleness_ >= config_.staleness_budget) {
    RefreshIndex();
  }
  if (log_ && since_epoch_ >= config_.snapshot_interval) {
    AppendEpoch();
  }
}

void CoordinateService::DrainDirty() {
  for (const core::NodeId id : simulation_.TakeDirtyNodes()) {
    pending_index_[id] = 1;
    pending_snapshot_[id] = 1;
  }
}

std::vector<core::NodeId> CoordinateService::TakeMask(
    std::vector<unsigned char>& mask) {
  std::vector<core::NodeId> ids;
  for (std::size_t i = 0; i < mask.size(); ++i) {
    if (mask[i]) {
      ids.push_back(static_cast<core::NodeId>(i));
      mask[i] = 0;
    }
  }
  return ids;
}

void CoordinateService::RefreshIndex() {
  DrainDirty();
  const std::vector<core::NodeId> dirty = TakeMask(pending_index_);
  const ann::PeerIndex::UpdateStats update =
      index_->ApplyUpdates(dirty, &simulation_.Pool());
  ++stats_.index_refreshes;
  stats_.index_relinks += update.relinked;
  if (update.rebuilt) {
    ++stats_.index_rebuilds;
  }
  staleness_ = 0;
}

void CoordinateService::AppendEpoch() {
  DrainDirty();
  const std::vector<core::NodeId> dirty = TakeMask(pending_snapshot_);
  log_->AppendDelta(store(), dirty);
  ++stats_.epochs;
  since_epoch_ = 0;
}

}  // namespace dmfsgd::svc
