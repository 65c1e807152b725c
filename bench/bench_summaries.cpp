// Ablation A4 — object-presence summaries for trajectory queries.
//
// Trajectory queries have no spatial footprint, so without extra state
// they broadcast to every worker. Workers periodically publish per-
// partition Bloom filters of the object ids they hold; the coordinator
// prunes trajectory fan-out to partitions whose summary may contain the
// object (watermark-gated for soundness). Reported: fan-out, messages,
// and bytes per trajectory query with and without summaries, plus the
// standing summary traffic that buys the pruning.
#include <cinttypes>
#include <memory>

#include "bench_util.h"
#include "core/framework.h"
#include "partition/strategies.h"

namespace stcn {
namespace {

struct Cost {
  double fanout;
  double msgs;
  double bytes;
};

void run() {
  TraceConfig tc = bench::scenario(bench::quick() ? 0.5 : 2.0,
                                   bench::quick() ? Duration::minutes(1)
                                                  : Duration::minutes(4));
  Trace trace = TraceGenerator::generate(tc);
  Rect world = trace.roads.bounds(150.0);
  TimeInterval covered{TimePoint::origin(),
                       TimePoint::origin() + Duration::minutes(4)};

  bench::print_header(
      "A4 object-presence summaries",
      "trajectory fan-out: Bloom-pruned vs broadcast, 12 workers, " +
          std::to_string(trace.detections.size()) + " detections");
  std::printf("%-16s %10s %10s %12s %18s\n", "mode", "fanout", "msgs/q",
              "bytes/q", "summary_bytes");

  bench::BenchReport report("summaries");
  report.set("detections", static_cast<double>(trace.detections.size()));
  for (bool summaries : {true, false}) {
    ClusterConfig config;
    config.worker_count = 12;
    config.summary_every_ticks = summaries ? 5 : 0;
    Cluster cluster(
        world,
        std::make_unique<SpatialGridStrategy>(world, 4, 4, trace.cameras),
        config);
    cluster.ingest_all(trace.detections);
    cluster.advance_time(Duration::seconds(12));  // summary rounds

    // Standing summary traffic so far (rough: all bytes beyond ingest are
    // dominated by summaries + heartbeats in this phase).
    std::uint64_t summary_bytes = 0;
    if (summaries) {
      std::uint64_t published = 0;
      for (WorkerId w : cluster.worker_ids()) {
        published +=
            cluster.worker(w).metrics().counter_value("summaries_published");
      }
      summary_bytes = published * (2048 / 8 + 8 + 16 + 42);
    }

    const MetricsRegistry& coord = cluster.coordinator().metrics();
    const MetricsRegistry& net = cluster.network().metrics();
    auto q0 = coord.counter_value("queries_submitted");
    auto f0 = coord.counter_value("query_fanout_total");
    auto m0 = net.counter_value("messages_sent");
    auto b0 = net.counter_value("bytes_sent");
    const int kQueries = bench::quick() ? 12 : 50;
    for (int i = 0; i < kQueries; ++i) {
      ObjectId object(1 + static_cast<std::uint64_t>(i) %
                              tc.mobility.object_count);
      (void)cluster.execute(
          Query::trajectory(cluster.next_query_id(), object, covered));
    }
    auto queries = coord.counter_value("queries_submitted") - q0;
    Cost c{static_cast<double>(coord.counter_value("query_fanout_total") -
                               f0) /
               static_cast<double>(queries),
           static_cast<double>(net.counter_value("messages_sent") - m0) /
               kQueries,
           static_cast<double>(net.counter_value("bytes_sent") - b0) /
               kQueries};
    std::printf("%-16s %10.2f %10.1f %12.0f %18" PRIu64 "\n",
                summaries ? "bloom-pruned" : "broadcast", c.fanout, c.msgs,
                c.bytes, summary_bytes);
    std::string suffix = summaries ? "_pruned" : "_broadcast";
    report.set("fanout" + suffix, c.fanout);
    report.set("bytes_per_query" + suffix, c.bytes);
    report.set("summary_bytes" + suffix, static_cast<double>(summary_bytes));
  }
  std::printf(
      "\nexpected shape: pruned fan-out tracks the partitions an object\n"
      "actually visited (well below the fleet); summaries cost a small,\n"
      "constant background stream.\n");
  report.write();
}

}  // namespace
}  // namespace stcn

int main(int argc, char** argv) {
  stcn::bench::parse_args(argc, argv);
  stcn::run();
  return 0;
}
