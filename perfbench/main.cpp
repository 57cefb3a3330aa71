// End-to-end benchmark: one workload per run, metrics on stdout.
//
//   e2e_bench --workload <train|serve_write> --seed <n>
//             --seconds <s> --trace <0|1> [--size full|tiny]
//             [--work-dir <dir>] [--trace-out <file.csv>]
//
// The last stdout line is one JSON object: {"correct", "attempted",
// "failed", "metrics"}.  With --trace 0 the metrics are the end-to-end
// table below; with --trace 1 every public call is recorded as a span
// (written to --trace-out) and the metrics are the per-layer table.
#include <sys/resource.h>
#include <unistd.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <map>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "stages.hpp"

namespace {

using perfbench::Plan;
using perfbench::Report;

struct MetricSpec {
  const char* name;
  const char* unit;
};

// Keep in step with BENCHMARK.json (smoke_test.py checks it).
constexpr MetricSpec kEndToEnd[] = {
    {"setup_s", "s"},
    {"peak_rss_mb", "MB"},
    {"time_to_auc_s", "s"},
    {"train_updates_per_s", "1/s"},
    {"knn_p50_ms", "ms"},
    {"recall_at_10", "share"},
    {"drain_clean_per_s", "1/s"},
    {"drain_lossy_per_s", "1/s"},
};

constexpr MetricSpec kPerLayer[] = {
    {"datasets.generate_s", "s"},
    {"core.construct_s", "s"},
    {"core.round_ms", "ms"},
    {"core.applied_per_launched", "ratio"},
    {"core.rounds_to_auc", "rounds"},
    {"svc.recover_s", "s"},
    {"ann.build_s", "s"},
    {"svc.base_image_s", "s"},
    {"svc.knn_call_p50_ms", "ms"},
    {"svc.knn_call_p99_ms", "ms"},
    {"svc.knn_p99_ms_from_due", "ms"},
    {"svc.query_slo_share", "share"},
    {"svc.ingest_p99_ms", "ms"},
    {"svc.mixed_knn_p50_ms", "ms"},
    {"svc.mixed_knn_p99_ms", "ms"},
    {"svc.mixed_query_slo_share", "share"},
    {"svc.level_call_p99_us", "us"},
    {"svc.write_hold_share", "share"},
    {"svc.knn_overlap_share", "share"},
    {"svc.knn_call_p99_ms_overlap", "ms"},
    {"svc.knn_call_p99_ms_clean", "ms"},
    {"core.ingest_call_us", "us"},
    {"ann.refresh_call_ms_p50", "ms"},
    {"ann.refresh_call_ms_p99", "ms"},
    {"ann.refreshes", "count"},
    {"ann.relinks_per_refresh", "ratio"},
    {"ann.rebuilds", "count"},
    {"svc.epoch_call_ms", "ms"},
    {"svc.epochs", "count"},
    {"core.events", "count"},
    {"core.windows", "count"},
    {"core.ms_per_window", "ms"},
    {"core.ms_per_window_lossy", "ms"},
    {"netsim.frames_sent", "count"},
    {"netsim.standalone_acks", "count"},
    {"netsim.frames_dropped", "count"},
    {"netsim.retransmits", "count"},
    {"netsim.duplicates_suppressed", "count"},
    {"netsim.retransmits_per_drop", "ratio"},
    {"bench.gen_late_p99_ms", "ms"},
    {"bench.trace_overhead", "share"},
};

[[noreturn]] void Usage(const char* why) {
  std::fprintf(stderr,
               "e2e_bench: %s\nusage: e2e_bench --workload <train|serve_write>"
               " --seed <n> --seconds <s> --trace <0|1> [--size full|tiny] "
               "[--work-dir <dir>] [--trace-out <file>]\n",
               why);
  std::exit(2);
}

/// Every workload walks the whole journey; its own stage gets `seconds`
/// and its set-up is the one timed as setup_s.  The other stages run at
/// their fixed minimum.
Plan MakePlan(std::string_view workload, double seconds, bool tiny, std::uint64_t seed) {
  Plan plan;
  plan.seed = seed;
  if (tiny) {
    plan.train_nodes = 2048;
    plan.auc_pairs = 5000;
    plan.snapshot_round = 32;
    plan.warmup_seconds = 0.1;
    plan.rewarm_seconds = 0.05;
    plan.read_seconds = 0.3;
    plan.read_rate = 500.0;
    plan.mixed_seconds = 0.6;
    plan.mixed_query_rate = 200.0;
    plan.snapshot_interval = 256;
    plan.level_checks = 200;
    plan.recall_nodes = 64;
    plan.drain_nodes = 256;
    plan.drain_horizon_s = 2.0;
    plan.segments = 2;
    plan.clean_reps = 2;
    plan.lossy_reps = 2;
  }
  if (workload == "train") {
    plan.train_seconds = seconds;
  } else if (workload == "serve_write") {
    plan.mixed_seconds = seconds;
    plan.restarts = 2;
  } else {
    Usage("unknown workload");
  }
  return plan;
}

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // Linux: KiB
}

}  // namespace

int main(int argc, char** argv) {
  std::map<std::string, std::string> args;
  for (int a = 1; a + 1 < argc; a += 2) {
    if (std::string_view(argv[a]).substr(0, 2) != "--") {
      Usage("arguments come in --name value pairs");
    }
    args[argv[a] + 2] = argv[a + 1];
  }
  if (argc % 2 == 0) {
    Usage("arguments come in --name value pairs");
  }
  for (const char* required : {"workload", "seed", "seconds", "trace"}) {
    if (!args.count(required)) {
      Usage("missing a required argument");
    }
  }
  const std::string workload = args["workload"];
  const std::uint64_t seed = std::strtoull(args["seed"].c_str(), nullptr, 10);
  const double seconds = std::strtod(args["seconds"].c_str(), nullptr);
  const bool trace = args["trace"] == "1";
  const bool tiny = args.count("size") && args["size"] == "tiny";
  if (!(seconds > 0.0)) {
    Usage("--seconds must be positive");
  }
  const Plan plan = MakePlan(workload, seconds, tiny, seed);

  const std::filesystem::path work =
      std::filesystem::path(args.count("work-dir") ? args["work-dir"] : ".bench_build/work") /
      (workload + "-" + std::to_string(seed) + "-" + std::to_string(getpid()));
  std::filesystem::create_directories(work);

  perfbench::Tracer tracer(trace);
  Report report;
  try {
    perfbench::TrainStage train(plan, tracer, report, workload == "train");
    train.Run(plan.snapshot_round / plan.slice_rounds, 0.0, false);
    train.WriteSnapshot(work / "snapshot");
    perfbench::ServeStage serve(plan, tracer, report, train.dataset(), train.tau(),
                                work / "snapshot", work, workload == "serve_write");
    perfbench::DrainStage drain(plan, tracer, report);
    for (std::size_t segment = 0; segment < plan.segments; ++segment) {
      serve.RunSegment(segment);
      train.Run(1, plan.train_seconds / static_cast<double>(plan.segments),
                segment + 1 == plan.segments);
      drain.RunSegment(segment);
    }
    train.Finish();
    serve.Finish();
    drain.Finish();
  } catch (const std::exception& error) {
    report.Op(false, std::string("run threw: ") + error.what());
  }
  report.e2e["peak_rss_mb"] = PeakRssMb();
  if (trace && args.count("trace-out")) {
    tracer.WriteCsv(args["trace-out"]);
  }
  std::filesystem::remove_all(work);

  const auto& values = trace ? report.layer : report.e2e;
  const std::span<const MetricSpec> specs =
      trace ? std::span<const MetricSpec>(kPerLayer) : std::span<const MetricSpec>(kEndToEnd);
  std::string json = "{";
  bool first = true;
  for (const MetricSpec& spec : specs) {
    const auto it = values.find(spec.name);
    if (it == values.end() || !std::isfinite(it->second)) {
      report.Op(false, std::string("metric not measured: ") + spec.name);
      continue;
    }
    std::printf("%-32s %.6g %s\n", spec.name, it->second, spec.unit);
    char entry[256];
    std::snprintf(entry, sizeof entry, "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                  first ? "" : ", ", spec.name, it->second, spec.unit);
    json += entry;
    first = false;
  }
  json += "}";
  for (const std::string& failure : report.failures) {
    std::printf("FAILED: %s\n", failure.c_str());
  }
  std::printf("operations: attempted=%llu succeeded=%llu failed=%llu\n",
              static_cast<unsigned long long>(report.attempted),
              static_cast<unsigned long long>(report.attempted - report.failed),
              static_cast<unsigned long long>(report.failed));
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"metrics\": %s}\n",
              report.failed == 0 ? "true" : "false",
              static_cast<unsigned long long>(report.attempted),
              static_cast<unsigned long long>(report.failed), json.c_str());
  return 0;
}
