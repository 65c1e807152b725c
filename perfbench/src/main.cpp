// stcn end-to-end benchmark driver.
//
//   stcn_perfbench --workload <city_ingest|forensic_mix|reid_paths>
//                  --seed <n> --seconds <s> --trace <0|1> [--spans <file>]
//
// One process, one driver thread: the whole cluster runs on this thread
// through SimNetwork. --trace 0 measures the end-to-end metrics; --trace 1
// runs the workload untraced for half the time and traced for the other
// half and prints the per-layer ledger. Human-readable report lines come
// first; the last line of standard output is one JSON object.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <fstream>
#include <string>
#include <utility>
#include <vector>

#include "common.h"
#include "ledger.h"
#include "query/query.h"
#include "workloads.h"

namespace perfbench {
namespace {

/// Traced runs must account for at least this share of wall time.
constexpr double kMinLedgerCoverage = 0.90;

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
  }
  return 0.0;
}

bool parse(int argc, char** argv, Options& opt) {
  for (int i = 1; i + 1 < argc; i += 2) {
    std::string key = argv[i];
    const char* value = argv[i + 1];
    if (key == "--workload") {
      opt.workload = value;
    } else if (key == "--seed") {
      opt.seed = std::strtoull(value, nullptr, 10);
    } else if (key == "--seconds") {
      opt.seconds = std::strtod(value, nullptr);
    } else if (key == "--trace") {
      opt.trace = std::strcmp(value, "0") != 0;
    } else if (key == "--spans") {
      opt.spans_path = value;
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && !opt.workload.empty() && opt.seconds > 0.0;
}

/// The end-to-end metrics. Wall times are multiplied, and rates divided,
/// by `host_factor` (1 for the raw figures).
std::vector<Metric> end_to_end(const Recorder& rec, double rss_mb,
                               double host_factor) {
  double ingest_dps =
      rec.ingest_dets > 0
          ? static_cast<double>(rec.ingest_dets) / rec.ingest_wall_s
          : median(rec.preload_dps);
  double f = host_factor;
  return {
      {"setup_s", median(rec.setup_s) * f, "s"},
      {"ingest_dps", ingest_dps / f, "1/s"},
      {"query_qps",
       ratio(static_cast<double>(rec.query_wall_us.size()), rec.query_wall_s) /
           f,
       "1/s"},
      {"query_p50_us",
       round_percentile(rec.query_wall_us, rec.query_round_ends, 0.50) * f,
       "us"},
      {"query_p99_us",
       round_percentile(rec.query_wall_us, rec.query_round_ends, 0.99) * f,
       "us"},
      {"query_sim_mean_us", mean(rec.first_round_query_sim_us()), "us"},
      {"step_p50_ms",
       round_percentile(rec.step_wall_ms, rec.step_round_ends, 0.50) * f,
       "ms"},
      {"step_p90_ms",
       round_percentile(rec.step_wall_ms, rec.step_round_ends, 0.90) * f,
       "ms"},
      {"peak_rss_mb", rss_mb, "MB"},
  };
}

std::vector<Metric> per_layer(const Ledger& ledger, const LayerCounts& c,
                              const Recorder& plain, const Recorder& traced) {
  auto self_us = [&](Layer l) { return ledger.totals(l).self_s * 1e6; };
  auto calls = [&](Layer l) {
    return static_cast<double>(ledger.totals(l).calls);
  };
  auto per_call = [&](Layer l) { return ratio(self_us(l), calls(l)); };
  auto dets = static_cast<double>(c.dets);
  auto queries = static_cast<double>(c.queries);
  auto paths = static_cast<double>(c.paths);

  std::vector<Metric> out = {
      {"coordinator.route_us_per_det", ratio(self_us(Layer::kCoordRoute), dets),
       "us"},
      {"coordinator.heartbeat_us_per_msg", per_call(Layer::kCoordHeartbeat),
       "us"},
      {"coordinator.summary_us_per_msg", per_call(Layer::kCoordSummary), "us"},
      {"coordinator.submit_us_per_query",
       ratio(self_us(Layer::kCoordSubmit), queries), "us"},
      {"coordinator.response_us_per_query",
       ratio(self_us(Layer::kCoordResponse) + self_us(Layer::kCoordPoll),
             queries),
       "us"},
      {"coordinator.fragments_per_query",
       ratio(static_cast<double>(c.fragments), queries), "count"},
      {"framework.execute_self_us_per_query",
       ratio(self_us(Layer::kClientQuery), queries), "us"},
      {"net.pump_self_us_per_event",
       ratio(self_us(Layer::kNetPump), static_cast<double>(ledger.events())),
       "us"},
      {"net.msgs_per_det", ratio(static_cast<double>(c.ingest_messages), dets),
       "count"},
      {"net.bytes_per_det", ratio(static_cast<double>(c.ingest_bytes), dets),
       "B"},
      {"net.msgs_per_query",
       ratio(static_cast<double>(c.query_messages), queries), "count"},
      {"net.bytes_per_query",
       ratio(static_cast<double>(c.query_bytes), queries), "B"},
      {"net.retransmits", static_cast<double>(c.retransmits), "count"},
      {"worker.apply_us_per_det", ratio(self_us(Layer::kWorkerApply), dets),
       "us"},
      {"worker.snapshot_us_per_tick", per_call(Layer::kWorkerSnapshot), "us"},
      {"worker.snapshot_bytes_per_tick",
       ratio(static_cast<double>(c.snapshot_bytes_written),
             calls(Layer::kWorkerSnapshot)),
       "B"},
      {"worker.snapshot_share",
       ratio(ledger.totals(Layer::kWorkerSnapshot).self_s, c.ingest_wall_s),
       "ratio"},
      {"worker.tick_us_per_tick", per_call(Layer::kWorkerTick), "us"},
      {"worker.monitor_tests_per_det",
       ratio(static_cast<double>(c.monitor_tests), dets), "count"},
      {"worker.fragment_us", per_call(Layer::kWorkerFragment), "us"},
      {"worker.rows_evaluated_per_row_returned",
       ratio(static_cast<double>(c.rows_evaluated),
             static_cast<double>(c.rows_returned)),
       "ratio"},
      {"worker.blocks_skipped_ratio",
       ratio(static_cast<double>(c.blocks_skipped),
             static_cast<double>(c.blocks_scanned + c.blocks_skipped)),
       "ratio"},
      {"index.store_bytes_per_det", ratio(c.store_bytes, c.stored_dets), "B"},
      {"worker.vault_bytes", c.vault_bytes, "B"},
      {"worker.replay_log_bytes", c.replay_log_bytes, "B"},
  };

  // Per-kind latency percentiles from the untraced half's own latencies.
  for (auto kind : {stcn::QueryKind::kRange, stcn::QueryKind::kCircle,
                    stcn::QueryKind::kCount, stcn::QueryKind::kHeatmap,
                    stcn::QueryKind::kCameraWindow,
                    stcn::QueryKind::kTrajectory, stcn::QueryKind::kKnn}) {
    std::vector<double> us;
    for (std::size_t i = 0; i < plain.query_kind.size(); ++i) {
      if (plain.query_kind[i] == static_cast<std::uint8_t>(kind)) {
        us.push_back(plain.query_wall_us[i]);
      }
    }
    std::string name = kind == stcn::QueryKind::kCameraWindow
                           ? "camera"
                           : stcn::query_kind_name(kind);
    out.push_back({"query." + name + "_p50_us", percentile(us, 0.50), "us"});
    if (kind == stcn::QueryKind::kKnn) {
      out.push_back({"query.knn_p99_us", percentile(us, 0.99), "us"});
    }
  }

  const Ledger::Totals& path = ledger.totals(Layer::kClientPath);
  out.insert(out.end(), {
      {"reid.fetch_ms_per_path",
       ratio(ledger.totals(Layer::kReidFetch).total_s * 1e3, paths), "ms"},
      {"reid.score_ms_per_path", ratio(path.self_s * 1e3, paths), "ms"},
      {"reid.camera_queries_per_path",
       ratio(static_cast<double>(c.camera_queries), paths), "count"},
      {"reid.candidates_per_path",
       ratio(static_cast<double>(c.candidates), paths), "count"},
      {"reid.quantized_pruned_ratio",
       ratio(static_cast<double>(c.quantized_pruned),
             static_cast<double>(c.candidates)),
       "ratio"},
      {"bench.ledger_coverage", ratio(c.timed_covered_s, c.timed_wall_s),
       "ratio"},
      {"bench.trace_overhead",
       ratio(median(traced.round_s), median(plain.round_s)) - 1.0, "ratio"},
  });
  return out;
}

void print_metric(const Metric& m) {
  std::printf("  %-40s %16.6g %s\n", m.name.c_str(), m.value, m.unit.c_str());
}

void print_result(bool correct, std::uint64_t attempted, std::uint64_t failed,
                  const std::vector<Metric>& metrics) {
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              correct ? "true" : "false",
              static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(failed));
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i == 0 ? "" : ", ", metrics[i].name.c_str(), metrics[i].value,
                metrics[i].unit.c_str());
  }
  std::printf("}}\n");
}

int run(const Options& opt) {
  Clock::time_point begin = Clock::now();
  std::unique_ptr<Workload> workload = make_workload(opt.workload, opt.seed);
  if (workload == nullptr) {
    std::fprintf(stderr, "unknown workload: %s\n", opt.workload.c_str());
    return 2;
  }
  std::printf("workload %s seed %llu seconds %g trace %d\n",
              opt.workload.c_str(), static_cast<unsigned long long>(opt.seed),
              opt.seconds, opt.trace ? 1 : 0);
  std::printf("inputs generated in %.3f s: %zu detections\n",
              seconds_since(begin), workload->detections());

  HostGauge host;
  Recorder plain;
  Recorder traced;
  // Traced runs leave the gauge out of their rounds: it would count as
  // uncovered time in the ledger and skew the trace overhead.
  if (!opt.trace) plain.host = &host;
  Ledger ledger;
  std::vector<Metric> metrics;
  double rss_mb = 0.0;
  for (int i = 0; i < 3; ++i) host.sample();
  if (!opt.trace) {
    workload->run(opt.seconds, nullptr, plain);
    rss_mb = peak_rss_mb();
  } else {
    workload->run(opt.seconds / 2.0, nullptr, plain);
    workload->run(opt.seconds / 2.0, &ledger, traced);
  }
  for (int i = 0; i < 3; ++i) host.sample();
  std::printf("host reference kernel: median %.3f ms over %zu samples "
              "(nominal %.1f ms), host factor %.4f\n",
              host.reference_ms(), host.samples(), HostGauge::kNominalMs,
              host.factor());

  // Oracle gate, outside every timed region.
  std::uint64_t wrong = workload->verify(plain);
  std::uint64_t partial = plain.failed + traced.failed;
  std::uint64_t attempted = plain.attempted + traced.attempted;
  std::uint64_t failed = wrong + partial;
  bool correct = failed == 0;

  const Fingerprint& fp = workload->fingerprint();
  std::printf("work fingerprint (first round): messages=%llu bytes=%llu "
              "fragments=%llu rows_evaluated=%llu rows_returned=%llu "
              "blocks_scanned=%llu blocks_skipped=%llu snapshots=%llu "
              "candidates=%llu digest=%016llx\n",
              static_cast<unsigned long long>(fp.messages),
              static_cast<unsigned long long>(fp.bytes),
              static_cast<unsigned long long>(fp.fragments),
              static_cast<unsigned long long>(fp.rows_evaluated),
              static_cast<unsigned long long>(fp.rows_returned),
              static_cast<unsigned long long>(fp.blocks_scanned),
              static_cast<unsigned long long>(fp.blocks_skipped),
              static_cast<unsigned long long>(fp.snapshots),
              static_cast<unsigned long long>(fp.candidates),
              static_cast<unsigned long long>(fp.digest()));
  std::printf("rounds %zu, queries %zu, steps %zu, answers wrong %llu, "
              "partial %llu\n",
              plain.round_s.size() + traced.round_s.size(),
              plain.query_wall_us.size() + traced.query_wall_us.size(),
              plain.step_wall_ms.size() + traced.step_wall_ms.size(),
              static_cast<unsigned long long>(wrong),
              static_cast<unsigned long long>(partial));
  std::printf("  %-40s %16.6g %s\n", "failed_op_ratio",
              ratio(static_cast<double>(failed),
                    static_cast<double>(attempted)),
              "ratio");
  for (const auto& [name, v] : plain.extra) {
    print_metric({name, v.first, v.second});
  }

  if (!opt.trace) {
    std::printf("raw wall figures:\n");
    for (const Metric& m : end_to_end(plain, rss_mb, 1.0)) print_metric(m);
    std::printf("at nominal host speed (reported):\n");
    metrics = end_to_end(plain, rss_mb, host.factor());
    // Sim-time percentiles repeat exactly across seeds; the JSON carries
    // the mean.
    std::vector<double> sim_us = plain.first_round_query_sim_us();
    print_metric({"query_sim_p50_us", percentile(sim_us, 0.50), "us"});
    print_metric({"query_sim_p99_us", percentile(sim_us, 0.99), "us"});
    if (opt.workload == "reid_paths") {
      // A reid_paths step is one reconstructed path.
      for (const Metric& m : metrics) {
        if (m.name == "step_p50_ms" || m.name == "step_p90_ms") {
          print_metric({"reid_path_" + m.name.substr(5), m.value, m.unit});
        }
      }
      print_metric({"reid_path_sim_p50_ms",
                    percentile(plain.first_round_step_sim_ms(), 0.5), "ms"});
    }
  } else {
    const LayerCounts& counts = workload->layer_counts();
    metrics = per_layer(ledger, counts, plain, traced);
    double setup_coverage = ratio(counts.setup_covered_s, counts.setup_wall_s);
    double coverage = ratio(counts.timed_covered_s, counts.timed_wall_s);
    std::printf("ledger coverage: setup %.4f, timed %.4f (tolerance >= %.2f)\n",
                setup_coverage, coverage, kMinLedgerCoverage);
    if (coverage < kMinLedgerCoverage || setup_coverage < kMinLedgerCoverage) {
      std::fprintf(stderr, "FAILED: ledger coverage below %.2f\n",
                   kMinLedgerCoverage);
      correct = false;
    }
    std::printf("layer self times (traced half):\n");
    for (std::size_t i = 0; i < static_cast<std::size_t>(Layer::kCount); ++i) {
      auto l = static_cast<Layer>(i);
      std::printf("  %-28s self %10.3f ms  calls %10llu\n", layer_name(l),
                  ledger.totals(l).self_s * 1e3,
                  static_cast<unsigned long long>(ledger.totals(l).calls));
    }
    if (!opt.spans_path.empty() && !ledger.write(opt.spans_path)) {
      std::fprintf(stderr, "warning: could not write %s\n",
                   opt.spans_path.c_str());
    }
  }
  for (const Metric& m : metrics) print_metric(m);
  if (failed != 0) {
    std::fprintf(stderr,
                 "FAILED: %llu of %llu operations wrong or partial\n",
                 static_cast<unsigned long long>(failed),
                 static_cast<unsigned long long>(attempted));
  }
  std::printf("total process time %.3f s\n", seconds_since(begin));
  print_result(correct, attempted, failed, metrics);
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  perfbench::Options opt;
  if (!perfbench::parse(argc, argv, opt)) {
    std::fprintf(stderr,
                 "usage: %s --workload <name> --seed <n> --seconds <s> "
                 "--trace <0|1> [--spans <file>]\n",
                 argv[0]);
    return 2;
  }
  try {
    return perfbench::run(opt);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "FAILED: %s\n", e.what());
    return 1;
  }
}
