// Cluster diagnostics: one structured snapshot of everything the framework
// self-instruments — ingest volumes, query routing efficiency, network
// traffic, replication health, per-worker balance. Operators print it;
// tests assert on it; benches mine it.
#pragma once

#include <algorithm>
#include <cstdint>
#include <ostream>
#include <vector>

#include "core/framework.h"

namespace stcn {

struct WorkerStats {
  WorkerId id;
  std::uint64_t primary_events = 0;
  std::uint64_t replica_events = 0;
  std::uint64_t resync_events = 0;
  std::uint64_t queries_served = 0;
  std::size_t stored_detections = 0;
  std::size_t partitions = 0;
};

struct ClusterStats {
  // Ingest.
  std::uint64_t events_ingested = 0;
  // Queries.
  std::uint64_t queries = 0;
  double mean_fanout = 0.0;
  std::uint64_t queries_partial = 0;
  std::uint64_t trajectory_partitions_pruned = 0;
  // Continuous queries.
  std::uint64_t monitors_installed = 0;
  std::uint64_t deltas_positive = 0;
  std::uint64_t deltas_negative = 0;
  // Resilience.
  std::uint64_t failover_retries = 0;
  std::uint64_t partitions_failed_over = 0;
  std::uint64_t partitions_rereplicated = 0;
  std::uint64_t workers_suspected = 0;
  // Network.
  std::uint64_t messages_sent = 0;
  std::uint64_t bytes_sent = 0;
  // Reliable transport (coordinator + workers) and hedging.
  std::uint64_t retransmits = 0;
  std::uint64_t retransmit_exhausted = 0;
  std::uint64_t dup_suppressed = 0;
  std::uint64_t hedges_issued = 0;
  std::uint64_t hedges_won = 0;
  // Balance.
  std::vector<WorkerStats> workers;

  /// Max/mean ratio of stored detections across workers (1.0 = balanced).
  [[nodiscard]] double storage_imbalance() const {
    if (workers.empty()) return 0.0;
    std::size_t max_stored = 0;
    double total = 0.0;
    for (const WorkerStats& w : workers) {
      max_stored = std::max(max_stored, w.stored_detections);
      total += static_cast<double>(w.stored_detections);
    }
    double mean = total / static_cast<double>(workers.size());
    return mean > 0.0 ? static_cast<double>(max_stored) / mean : 0.0;
  }

  friend std::ostream& operator<<(std::ostream& os, const ClusterStats& s) {
    os << "cluster stats\n"
       << "  ingest:    " << s.events_ingested << " events, "
       << s.bytes_sent << " bytes on the wire (" << s.messages_sent
       << " messages)\n"
       << "  queries:   " << s.queries << " (mean fan-out "
       << s.mean_fanout << ", partial " << s.queries_partial
       << ", trajectory partitions pruned "
       << s.trajectory_partitions_pruned << ")\n"
       << "  monitors:  " << s.monitors_installed << " installed, +"
       << s.deltas_positive << "/-" << s.deltas_negative << " deltas\n"
       << "  failures:  " << s.workers_suspected << " suspected, "
       << s.partitions_failed_over << " failed over, "
       << s.partitions_rereplicated << " re-replicated, "
       << s.failover_retries << " query retries\n"
       << "  transport: " << s.retransmits << " retransmits ("
       << s.retransmit_exhausted << " exhausted), " << s.dup_suppressed
       << " dups suppressed, hedges " << s.hedges_issued << " issued / "
       << s.hedges_won << " won\n"
       << "  balance:   storage max/mean " << s.storage_imbalance() << "\n";
    for (const WorkerStats& w : s.workers) {
      os << "    " << w.id << ": " << w.stored_detections << " stored ("
         << w.primary_events << " primary / " << w.replica_events
         << " replica / " << w.resync_events << " resync), "
         << w.queries_served << " queries, " << w.partitions
         << " partitions\n";
    }
    return os;
  }
};

/// Snapshots all counters of a running cluster.
inline ClusterStats collect_stats(Cluster& cluster) {
  ClusterStats s;
  const MetricsRegistry& c = cluster.coordinator().metrics();
  s.events_ingested = c.counter_value("ingested");
  s.queries = c.counter_value("queries_submitted");
  s.mean_fanout = cluster.coordinator().mean_fanout();
  s.queries_partial = c.counter_value("queries_partial");
  s.trajectory_partitions_pruned =
      c.counter_value("trajectory_partitions_pruned");
  s.monitors_installed = c.counter_value("monitors_installed");
  s.deltas_positive = c.counter_value("deltas_positive");
  s.deltas_negative = c.counter_value("deltas_negative");
  s.failover_retries = c.counter_value("failover_retries");
  s.partitions_failed_over = c.counter_value("partitions_failed_over");
  s.partitions_rereplicated = c.counter_value("partitions_rereplicated");
  s.workers_suspected = c.counter_value("workers_suspected");
  const MetricsRegistry& net = cluster.network().metrics();
  s.messages_sent = net.counter_value("messages_sent");
  s.bytes_sent = net.counter_value("bytes_sent");
  // Transport accounting is per-channel: sum the coordinator's and every
  // worker's reliable-channel counters for the cluster-wide picture.
  s.retransmits = c.counter_value("retransmits");
  s.retransmit_exhausted = c.counter_value("retransmit_exhausted");
  s.dup_suppressed = c.counter_value("dup_suppressed");
  s.hedges_issued = c.counter_value("hedges_issued");
  s.hedges_won = c.counter_value("hedges_won");
  for (WorkerId id : cluster.worker_ids()) {
    const WorkerNode& w = cluster.worker(id);
    const MetricsRegistry& m = w.metrics();
    WorkerStats ws;
    ws.id = id;
    ws.primary_events = m.counter_value("ingested_primary");
    ws.replica_events = m.counter_value("ingested_replica");
    // Rows re-acquired through any recovery path: snapshot install,
    // replay-log replay, or holder-to-holder resync transfer.
    ws.resync_events = m.counter_value("ingested_resync") +
                       m.counter_value("replayed_detections") +
                       m.counter_value("snapshot_rows_installed");
    ws.queries_served = m.counter_value("queries_served");
    ws.stored_detections = w.stored_detections();
    ws.partitions = w.partition_count();
    s.workers.push_back(ws);
    s.retransmits += m.counter_value("retransmits");
    s.retransmit_exhausted += m.counter_value("retransmit_exhausted");
    s.dup_suppressed += m.counter_value("dup_suppressed");
  }
  return s;
}

}  // namespace stcn
