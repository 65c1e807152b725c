// Metrics reference generator / linter.
//
// Boots a miniature cluster, drives every metric-producing subsystem once
// (ingest, queries, hedging, a crash + recovery, health sampling), then
// walks the merged metrics snapshot and emits a markdown reference built
// from the registered help strings.
//
//   metrics_doc                    # write the reference to stdout
//   metrics_doc --check FILE      # lint: exit 1 if any metric has an empty
//                                  # help string or FILE is not byte for
//                                  # byte what the first form would write
//
// ci.sh gates on the second form, so a metric registered without a help
// line, or a doc that misses a metric or keeps a stale row, fails the build.
#include <cstdio>
#include <cstring>
#include <fstream>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "core/framework.h"
#include "partition/strategies.h"
#include "trace/generator.h"

using namespace stcn;

namespace {

struct Row {
  std::string type;
  std::string help;
};

/// Collapses per-instance name segments so the doc stays stable no matter
/// which node ids a run happens to allocate: "peer.7.hedged" becomes
/// "peer.<node>.hedged".
std::string normalize(const std::string& name) {
  std::string out;
  out.reserve(name.size());
  std::size_t i = 0;
  while (i < name.size()) {
    if (name.compare(i, 5, "peer.") == 0) {
      std::size_t j = i + 5;
      std::size_t digits = j;
      while (digits < name.size() && name[digits] >= '0' &&
             name[digits] <= '9') {
        ++digits;
      }
      if (digits > j && digits < name.size() && name[digits] == '.') {
        out += "peer.<node>.";
        i = digits + 1;
        continue;
      }
    }
    out += name[i++];
  }
  return out;
}

std::map<std::string, Row> collect() {
  TraceConfig trace_config;
  trace_config.cameras.camera_count = 12;
  trace_config.mobility.object_count = 10;
  trace_config.duration = Duration::minutes(2);
  Trace trace = TraceGenerator::generate(trace_config);
  Rect world = trace.roads.bounds(150.0);

  ClusterConfig config;
  config.worker_count = 3;
  Cluster cluster(
      world, std::make_unique<SpatialGridStrategy>(world, 2, 2, trace.cameras),
      config);
  cluster.ingest_all(trace.detections);

  // Touch the lazy registrations: scatter-gather queries create peer.*
  // metrics, a crash/restart cycle exercises recovery counters, and a
  // health sample runs the SLO engine + flight recorder.
  TimeInterval window{TimePoint::origin(), TimePoint::origin() + trace_config.duration};
  (void)cluster.execute(Query::count(cluster.next_query_id(), world, window));
  if (trace.cameras.size() > 0) {
    (void)cluster.execute(Query::camera_window(
        cluster.next_query_id(), trace.cameras.cameras().front().id, window));
  }
  cluster.crash_worker(WorkerId(1));
  (void)cluster.execute(Query::count(cluster.next_query_id(), world, window));
  (void)cluster.restart_worker(WorkerId(1));
  cluster.sample_health();

  MetricsRegistry snapshot = cluster.metrics_snapshot();
  std::map<std::string, Row> rows;
  auto put = [&](const std::string& name, const char* type) {
    std::string key = normalize(name);
    Row& row = rows[key];
    row.type = type;
    if (row.help.empty()) row.help = snapshot.help(name);
  };
  for (const auto& [name, c] : snapshot.counters()) put(name, "counter");
  for (const auto& [name, g] : snapshot.gauges()) put(name, "gauge");
  for (const auto& [name, h] : snapshot.histograms()) put(name, "histogram");
  return rows;
}

std::string render(const std::map<std::string, Row>& rows) {
  std::ostringstream out;
  out << "# Metrics reference\n\n";
  out << "Generated by `tools/metrics_doc` from the help strings passed at\n"
         "metric registration. Do not edit by hand — rerun\n"
         "`./build/tools/metrics_doc > docs/METRICS.md` after adding a "
         "metric.\n"
         "`ci.sh` fails if this file differs from the generated output or a\n"
         "metric was registered without a help string.\n\n";
  out << "Prefixes name the owning subsystem: `net.` (simulated fabric),\n"
         "`coordinator.` (scatter-gather front end, including per-peer\n"
         "`peer.<node>.` series), `worker.` (summed over all workers),\n"
         "`cost.` (resource ledger totals).\n\n";
  out << "| Metric | Type | Description |\n";
  out << "|---|---|---|\n";
  for (const auto& [name, row] : rows) {
    out << "| `" << name << "` | " << row.type << " | " << row.help
        << " |\n";
  }
  return out.str();
}

int check(const std::map<std::string, Row>& rows, const char* path) {
  std::ifstream in(path);
  if (!in) {
    std::fprintf(stderr, "metrics_doc: cannot open %s\n", path);
    return 1;
  }
  std::stringstream buffer;
  buffer << in.rdbuf();
  std::string doc = buffer.str();

  int failures = 0;
  for (const auto& [name, row] : rows) {
    if (row.help.empty()) {
      std::fprintf(stderr,
                   "metrics_doc: %s (%s) registered without a help string\n",
                   name.c_str(), row.type.c_str());
      ++failures;
    }
  }
  if (doc != render(rows)) {
    std::fprintf(stderr,
                 "metrics_doc: %s is stale (regenerate with "
                 "./build/tools/metrics_doc > docs/METRICS.md)\n",
                 path);
    ++failures;
  }
  if (failures == 0) {
    std::fprintf(stderr, "metrics_doc: %zu metrics documented, all helps set\n",
                 rows.size());
  }
  return failures == 0 ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  std::map<std::string, Row> rows = collect();
  if (argc >= 3 && std::strcmp(argv[1], "--check") == 0) {
    return check(rows, argv[2]);
  }
  std::fputs(render(rows).c_str(), stdout);
  return 0;
}
