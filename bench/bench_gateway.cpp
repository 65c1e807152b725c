// Ablation A2 — edge gateway routing vs coordinator relay.
//
// The same detection stream enters the cluster two ways: (a) edge gateways
// route batches straight to the owning workers using a cached partition
// map; (b) gateways relay everything through the coordinator, which
// re-routes (the naive hub-and-spoke architecture). Reported: total wire
// bytes, messages, per-event bytes, and the coordinator's share of traffic.
// Expected shape: relay roughly doubles wire volume and concentrates it on
// one node; direct routing removes the coordinator from the ingest path.
#include <cinttypes>
#include <memory>

#include "bench_util.h"
#include "common/rng.h"
#include "core/framework.h"
#include "obs/cost.h"
#include "partition/strategies.h"

namespace stcn {
namespace {

void run() {
  TraceConfig tc = bench::scenario(bench::quick() ? 0.5 : 2.0,
                                   bench::quick() ? Duration::minutes(1)
                                                  : Duration::minutes(4));
  Trace trace = TraceGenerator::generate(tc);
  Rect world = trace.roads.bounds(150.0);

  bench::print_header(
      "A2 gateway routing",
      std::to_string(trace.detections.size()) +
          " detections, 8 gateways, 8 workers");
  std::printf("%-22s %14s %12s %14s %18s\n", "architecture", "bytes_total",
              "messages", "bytes/event", "coord_forwards");

  bench::BenchReport report("gateway");
  report.set("detections", static_cast<double>(trace.detections.size()));
  for (bool relay : {false, true}) {
    ClusterConfig config;
    config.worker_count = 8;
    Cluster cluster(
        world,
        std::make_unique<SpatialGridStrategy>(world, 4, 4, trace.cameras),
        config);
    GatewayConfig gw;
    gw.relay_through_coordinator = relay;
    GatewayFleet fleet = cluster.make_gateway_fleet(8, gw);

    for (const Detection& d : trace.detections) {
      cluster.network().advance_clock_to(d.time);
      fleet.ingest(d, cluster.network());
    }
    fleet.flush(cluster.network());
    cluster.pump();

    const MetricsRegistry& net = cluster.network().metrics();
    auto bytes = net.counter_value("bytes_sent");
    auto msgs = net.counter_value("messages_sent");
    auto forwards =
        cluster.coordinator().metrics().counter_value("ingest_forwards");
    std::printf("%-22s %14" PRIu64 " %12" PRIu64 " %14.1f %18" PRIu64 "\n",
                relay ? "relay-via-coordinator" : "gateway-direct", bytes,
                msgs,
                static_cast<double>(bytes) /
                    static_cast<double>(trace.detections.size()),
                forwards);
    std::string suffix = relay ? "_relay" : "_direct";
    report.set("bytes_total" + suffix, static_cast<double>(bytes));
    report.set("bytes_per_event" + suffix,
               static_cast<double>(bytes) /
                   static_cast<double>(trace.detections.size()));
    report.set("coord_forwards" + suffix, static_cast<double>(forwards));

    if (!relay) {
      // Tenant-attributed query phase on the direct-routing cluster: each
      // gateway stands in for one tenant issuing range scans. The resource
      // ledger attributes every finished query, and ci.sh asserts the
      // conservation invariant on the emitted scalars: per-tenant
      // rows_evaluated must sum exactly to the cluster total.
      const int kTenants = 8;
      const int kQueriesPerTenant = bench::quick() ? 3 : 10;
      Rng rng(0xC057);
      const std::int64_t span_us = tc.duration.count_micros();
      for (int t = 1; t <= kTenants; ++t) {
        for (int q = 0; q < kQueriesPerTenant; ++q) {
          // Full-region scans with a random bounded time slice: the time
          // predicate forces the per-row filter kernels to run (a fully
          // covering region with an unbounded window takes the zone fast
          // path and would report zero rows evaluated).
          std::int64_t start_us =
              static_cast<std::int64_t>(rng.uniform(0.0, 0.5) * span_us);
          std::int64_t len_us =
              static_cast<std::int64_t>(rng.uniform(0.3, 0.5) * span_us);
          TimeInterval slice{TimePoint::origin() + Duration::micros(start_us),
                             TimePoint::origin() +
                                 Duration::micros(start_us + len_us)};
          (void)cluster.execute(Query::range(cluster.next_query_id(), world,
                                             slice)
                                    .with_tenant(static_cast<std::uint32_t>(t)));
        }
      }
      const ResourceLedger& ledger = cluster.cost_ledger();
      std::printf(
          "\ncost ledger: %" PRIu64 " queries, %" PRIu64
          " rows evaluated, %" PRIu64 " wire bytes in\n",
          ledger.queries(), ledger.totals().rows_evaluated,
          ledger.totals().bytes_in);
      report.set("cost_queries", static_cast<double>(ledger.queries()));
      report.set("cost_rows_evaluated_total",
                 static_cast<double>(ledger.totals().rows_evaluated));
      report.set("cost_bytes_in_total",
                 static_cast<double>(ledger.totals().bytes_in));
      double tenant_rows = 0.0;
      for (const auto& row : ledger.by_tenant().top()) {
        report.set("cost_rows_evaluated_" + row.key,
                   static_cast<double>(row.cost.rows_evaluated));
        tenant_rows += static_cast<double>(row.cost.rows_evaluated);
      }
      report.set("cost_rows_evaluated_tenant_sum", tenant_rows);
      const auto& hists = cluster.coordinator().metrics().histograms();
      auto lat = hists.find("query_latency_us");
      report.set("exemplar_buckets",
                 lat == hists.end()
                     ? 0.0
                     : static_cast<double>(lat->second->exemplar_count()));
      report.add_section("cost", ledger.to_json());
    }

    if (relay) report.add_registry(cluster.metrics_snapshot());
  }
  std::printf(
      "\nexpected shape: relay ≈ 2× the wire bytes of direct routing and\n"
      "funnels every event through the coordinator.\n");
  report.write();
}

}  // namespace
}  // namespace stcn

int main(int argc, char** argv) {
  stcn::bench::parse_args(argc, argv);
  stcn::run();
  return 0;
}
