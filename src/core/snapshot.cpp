#include "core/snapshot.hpp"

#include <algorithm>
#include <ostream>
#include <stdexcept>
#include <string>
#include <string_view>

#include "common/csv.hpp"
#include "common/thread_pool.hpp"

namespace dmfsgd::core {

void PredictAllInto(const CoordinateStore& store, std::span<double> out,
                    common::ThreadPool* pool) {
  const std::size_t n = store.NodeCount();
  if (out.size() != n * n) {
    throw std::invalid_argument("PredictAllInto: output buffer size mismatch");
  }
  const auto sweep_rows = [&](std::size_t lo, std::size_t hi) {
    for (std::size_t i = lo; i < hi; ++i) {
      double* row = out.data() + i * n;
      for (std::size_t j = 0; j < n; ++j) {
        row[j] = store.PredictUnchecked(i, j);
      }
    }
  };
  if (pool != nullptr) {
    pool->ParallelFor(0, n, sweep_rows);
  } else {
    sweep_rows(0, n);
  }
}

std::vector<double> PredictAll(const CoordinateStore& store,
                               common::ThreadPool* pool) {
  const std::size_t n = store.NodeCount();
  std::vector<double> predictions(n * n);
  PredictAllInto(store, predictions, pool);
  return predictions;
}

std::vector<double> CoordinateSnapshot::PredictAll(
    common::ThreadPool* pool) const {
  return core::PredictAll(store, pool);
}

CoordinateSnapshot TakeSnapshot(const DeploymentEngine& engine) {
  // The live factors already sit in one contiguous store; archiving is a
  // plain copy.
  return CoordinateSnapshot{engine.store()};
}

CoordinateSnapshot TakeSnapshot(const DmfsgdSimulation& simulation) {
  return TakeSnapshot(simulation.engine());
}

namespace {

/// Parses one "u_0,...,u_{r-1},v_0,...,v_{r-1}" line in place, appending
/// the values to `u` and `v`; throws unless it holds exactly 2·rank fields.
void ParseRow(std::string_view line, std::size_t rank, std::vector<double>& u,
              std::vector<double>& v, std::size_t row) {
  std::size_t begin = 0;
  for (std::size_t f = 0; f < 2 * rank; ++f) {
    const std::size_t comma = line.find(',', begin);
    const bool last = f + 1 == 2 * rank;
    if (last != (comma == std::string_view::npos)) {
      throw std::invalid_argument("LoadSnapshot: malformed row " +
                                  std::to_string(row));
    }
    const std::size_t end = last ? line.size() : comma;
    (f < rank ? u : v).push_back(common::ParseDouble(line.substr(begin, end - begin)));
    begin = end + 1;
  }
}

}  // namespace

void SaveSnapshot(const CoordinateSnapshot& snapshot,
                  const std::filesystem::path& path) {
  if (snapshot.rank() == 0) {
    throw std::invalid_argument("SaveSnapshot: malformed snapshot");
  }
  common::WriteCsvFile(path, [&](std::ostream& out) {
    // Rows stream through one reused buffer, written out in ~1 MB chunks.
    constexpr std::size_t kChunkBytes = std::size_t{1} << 20;
    std::string buffer = "dmfsgd-snapshot," + std::to_string(snapshot.rank()) +
                         "," + std::to_string(snapshot.NodeCount()) + "\n";
    for (std::size_t i = 0; i < snapshot.NodeCount(); ++i) {
      for (const double value : snapshot.store.U(i)) {
        common::AppendDouble(buffer, value);
        buffer += ',';
      }
      for (const double value : snapshot.store.V(i)) {
        common::AppendDouble(buffer, value);
        buffer += ',';
      }
      buffer.back() = '\n';
      if (buffer.size() >= kChunkBytes) {
        out.write(buffer.data(), static_cast<std::streamsize>(buffer.size()));
        buffer.clear();
      }
    }
    out.write(buffer.data(), static_cast<std::streamsize>(buffer.size()));
  });
}

CoordinateSnapshot LoadSnapshot(const std::filesystem::path& path) {
  bool header_read = false;
  std::size_t rank = 0;
  std::size_t n = 0;
  // The store is sized only once the row count matches the header, so a
  // corrupt count cannot force a huge allocation.
  std::vector<double> u;
  std::vector<double> v;
  std::size_t rows = 0;
  common::ForEachCsvLine(path, [&](std::string_view line) {
    if (header_read) {
      ParseRow(line, rank, u, v, rows++);
      return;
    }
    const std::vector<std::string> header = common::SplitCsvLine(line);
    if (header.size() != 3 || header[0] != "dmfsgd-snapshot") {
      throw std::invalid_argument("LoadSnapshot: not a snapshot file");
    }
    rank = static_cast<std::size_t>(std::stoull(header[1]));
    n = static_cast<std::size_t>(std::stoull(header[2]));
    if (rank == 0) {
      throw std::invalid_argument("LoadSnapshot: rank must be positive");
    }
    header_read = true;
  });
  if (!header_read) {
    throw std::invalid_argument("LoadSnapshot: not a snapshot file");
  }
  if (rows != n) {
    throw std::invalid_argument("LoadSnapshot: node count mismatch");
  }
  CoordinateSnapshot snapshot;
  snapshot.store.Reset(n, rank);
  std::copy(u.begin(), u.end(), snapshot.store.UData().begin());
  std::copy(v.begin(), v.end(), snapshot.store.VData().begin());
  return snapshot;
}

}  // namespace dmfsgd::core
