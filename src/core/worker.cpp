#include "core/worker.h"

#include <chrono>

namespace stcn {

namespace {
// Timer tokens encode the tick generation so a chain armed before a crash
// cannot double up with the chain re-armed after restart. The reliable
// channel owns its own token range ([2^62, 2^62 + 2^32)), far above any
// plausible generation count.
constexpr std::uint64_t kMonitorTickBase = 1'000;
// Snapshot ticker chain: same generation scheme, disjoint base (far above
// any plausible monitor-tick generation).
constexpr std::uint64_t kSnapshotTickBase = 500'000'000;
// Recovery exchange retry timers: base + a task token that is monotonic
// across restarts, so a timer parked by a crash can never alias a live
// task after the worker rejoins.
constexpr std::uint64_t kRecoveryTimerBase = 1'000'000'000;
constexpr std::uint64_t kRecoveryTimerSpan = std::uint64_t{1} << 32;
}  // namespace

WorkerIndexes& WorkerNode::partition(PartitionId p) {
  auto it = partitions_.find(p);
  if (it == partitions_.end()) {
    it = partitions_.emplace(p, std::make_unique<WorkerIndexes>()).first;
    if (config_.tiered_storage) {
      it->second->store.set_tier_config(
          {true, config_.hot_sealed_blocks});
    }
    vault_rewrite_.insert(p);
  }
  return *it->second;
}

void WorkerNode::start(SimNetwork& network) {
  if (started_) return;
  started_ = true;
  network.set_timer(node_id(), config_.monitor_tick,
                    kMonitorTickBase + tick_generation_);
  if (config_.snapshot_every_ticks > 0) {
    network.set_timer(node_id(),
                      config_.monitor_tick *
                          static_cast<std::int64_t>(config_.snapshot_every_ticks),
                      kSnapshotTickBase + tick_generation_);
  }
}

void WorkerNode::restart_ticks(SimNetwork& network) {
  ++tick_generation_;
  started_ = true;
  network.set_timer(node_id(), config_.monitor_tick,
                    kMonitorTickBase + tick_generation_);
  if (config_.snapshot_every_ticks > 0) {
    network.set_timer(node_id(),
                      config_.monitor_tick *
                          static_cast<std::int64_t>(config_.snapshot_every_ticks),
                      kSnapshotTickBase + tick_generation_);
  }
}

void WorkerNode::handle_timer(std::uint64_t timer_token, SimNetwork& network) {
  if (channel_.owns_timer(timer_token)) {
    channel_.handle_timer(timer_token, network);
    return;
  }
  if (timer_token >= kRecoveryTimerBase &&
      timer_token < kRecoveryTimerBase + kRecoveryTimerSpan) {
    auto it = recovery_tasks_.find(timer_token);
    if (it == recovery_tasks_.end()) return;  // stale incarnation / finished
    RecoveryTask& task = it->second;
    // The doubling ladder gives up on the `resync_max_attempts`-th timer
    // fire (0.5+1+2+4+8+16 s ≈ 31.5 s at the defaults); restart_worker's
    // own deadline may report resync_timeout slightly earlier — both are
    // explicit outcomes, never a silent hang.
    if (++task.attempts >= config_.resync_max_attempts) {
      recovery_failed_.inc();
      recovery_failed_partitions_.inc();
      if (task.span.valid()) {
        tracer_->tag(task.span, "outcome", "failed");
        tracer_->tag(task.span, "attempts", std::to_string(task.attempts - 1));
        tracer_->end_span(task.span, network.now());
      }
      task_by_partition_.erase(task.partition);
      recovery_tasks_.erase(it);
      ++failed_last_;
      return;
    }
    resync_retries_.inc();
    if (tracer_ != nullptr && task.span.valid()) {
      TraceContext retry = tracer_->instant("recovery.retry", task.span,
                                            node_id().value(), network.now());
      tracer_->tag(retry, "attempt", std::to_string(task.attempts));
    }
    task.rto = task.rto * 2;
    send_recovery_request(task, network);
    return;
  }
  if (timer_token == kSnapshotTickBase + tick_generation_) {
    take_snapshots(network.now());
    network.set_timer(node_id(),
                      config_.monitor_tick *
                          static_cast<std::int64_t>(config_.snapshot_every_ticks),
                      timer_token);
    return;
  }
  if (timer_token != kMonitorTickBase + tick_generation_) return;  // stale
  monitors_.advance_to(network.now(), pending_deltas_);
  flush_deltas(network);

  // Age-triggered demotion runs before the footprint refresh so the
  // gauges below already reflect blocks that just moved cold.
  if (config_.tiered_storage && config_.demote_after != Duration::max()) {
    TimePoint cutoff = network.now() - config_.demote_after;
    for (auto& [p, indexes] : partitions_) {
      (void)indexes->store.demote_older_than(cutoff);
    }
  }

  // Exact columnar footprint (capacity-based columns + arena + zones +
  // compressed cold blocks), refreshed per tick for dashboards and load
  // accounting, split by tier.
  double resident = 0;
  double hot = 0, compressed = 0, cold_blocks = 0;
  for (const auto& [p, indexes] : partitions_) {
    DetectionStore::MemoryBreakdown mb = indexes->store.memory_breakdown();
    std::size_t bytes = mb.total();
    resident += static_cast<double>(bytes);
    hot += static_cast<double>(mb.hot_bytes());
    compressed += static_cast<double>(indexes->store.compressed_bytes());
    cold_blocks += static_cast<double>(indexes->store.cold_block_count());
    heat_.set_memory(p, bytes);
  }
  store_memory_bytes_.set(resident);
  store_hot_bytes_.set(hot);
  store_compressed_bytes_.set(compressed);
  store_cold_blocks_.set(cold_blocks);
  store_scratch_bytes_.set(static_cast<double>(cold_scratch_bytes()));
  heat_.sample(network.now());
  heat_partitions_tracked_.set(
      static_cast<double>(heat_.partition_count()));
  update_recovery_gauges();

  if (config_.send_heartbeats) {
    // Best-effort on purpose: a heartbeat that needs retransmission is
    // stale by the time it lands; the next tick supersedes it.
    Heartbeat hb{id_, stored_detections(), heat_.snapshot()};
    network.send({node_id(), coordinator_,
                  static_cast<std::uint32_t>(MsgType::kHeartbeat),
                  encode(hb), network.now(), {}});
  }

  if (config_.summary_every_ticks > 0 &&
      ++ticks_since_summary_ >= config_.summary_every_ticks) {
    ticks_since_summary_ = 0;
    for (const auto& [partition_id, indexes] : partitions_) {
      ObjectSummary summary{partition_id, network.now(),
                            BloomFilter(config_.summary_bloom_bits)};
      for (ObjectId object : indexes->trajectories.object_ids()) {
        summary.objects.insert(object.value());
      }
      // Best-effort: summaries are advisory pruning hints, refreshed
      // periodically; a lost one only costs pruning opportunity.
      network.send({node_id(), coordinator_,
                    static_cast<std::uint32_t>(MsgType::kObjectSummary),
                    encode(summary), network.now(), {}});
      summaries_published_.inc();
    }
  }

  if (config_.retention != Duration::max() &&
      ++ticks_since_compaction_ >= config_.compaction_every_ticks) {
    ticks_since_compaction_ = 0;
    TimePoint horizon = network.now() - config_.retention;
    for (auto& [p, indexes] : partitions_) {
      std::size_t evicted = indexes->compact(horizon);
      // An eviction-free compaction rebuilds an identical store.
      if (evicted > 0) vault_rewrite_.insert(p);
      detections_evicted_.add(evicted);
    }
    compactions_.inc();
  }
  network.set_timer(node_id(), config_.monitor_tick, timer_token);
}

void WorkerNode::handle_message(const Message& message, SimNetwork& network) {
  switch (static_cast<MsgType>(message.type)) {
    case MsgType::kReliableData: {
      if (auto inner = channel_.on_data(message, network)) {
        dispatch(*inner, /*reliable=*/true, network);
      }
      return;
    }
    case MsgType::kReliableAck:
      channel_.on_ack(message);
      return;
    default:
      dispatch(message, /*reliable=*/false, network);
  }
}

void WorkerNode::dispatch(const Message& message, bool reliable,
                          SimNetwork& network) {
  BinaryReader reader(message.payload);
  switch (static_cast<MsgType>(message.type)) {
    case MsgType::kIngestBatch:
      on_ingest(decode_ingest_batch(reader), message.from, network);
      break;
    case MsgType::kQueryRequest:
      on_query(decode_query_request(reader), message.from, reliable,
               message.trace, network);
      break;
    case MsgType::kInstallMonitor: {
      MonitorInstall m = decode_monitor_install(reader);
      monitors_.install({m.query, m.region, m.window});
      break;
    }
    case MsgType::kRemoveMonitor: {
      MonitorInstall m = decode_monitor_install(reader);
      monitors_.remove(m.query);
      break;
    }
    case MsgType::kSyncRequest:
      on_sync_request(decode_sync_request(reader), message.from, reliable,
                      network);
      break;
    case MsgType::kSyncResponse:
      on_sync_response(decode_sync_response(reader), network);
      break;
    case MsgType::kDeltaSyncRequest:
      on_delta_sync_request(decode_delta_sync_request(reader), message.from,
                            reliable, network);
      break;
    case MsgType::kDeltaSyncResponse:
      on_delta_sync_response(decode_delta_sync_response(reader), network);
      break;
    default:
      unknown_message_.inc();
      break;
  }
}

void WorkerNode::on_ingest(const IngestBatch& batch, NodeId source,
                           SimNetwork& network) {
  WorkerIndexes& indexes = partition(batch.partition);
  auto& seen = ingested_ids_[batch.partition];
  std::uint64_t fresh_rows = 0;
  for (const Detection& d : batch.detections) {
    if (!seen.insert(d.id.value()).second) {
      ingest_dups_skipped_.inc();
      continue;
    }
    indexes.ingest(d);
    ++fresh_rows;
    (batch.is_replica ? ingested_replica_ : ingested_primary_).inc();
    if (!batch.is_replica) {
      std::size_t tested = monitors_.on_detection(d, pending_deltas_);
      monitors_tested_.add(tested);
    }
  }
  // Heat counts live ingest only (primary or replica): recovery installs
  // are replayed history, not fresh load, and would distort post-restart
  // rates if they counted.
  if (fresh_rows > 0) heat_.on_ingest(batch.partition, fresh_rows);
  // Watermark + replay log: track the batch under its (source, pbid)
  // identity even when every row deduplicated away — the watermark records
  // batches *applied*, and a dup batch is applied by definition.
  if (batch.pbid != 0) {
    watermarks_[batch.partition][source.value()].note(batch.pbid);
  }
  replay_log(batch.partition).append(source.value(), batch.pbid,
                                     batch.detections);
  if (pending_deltas_.size() >= config_.delta_flush_threshold) {
    flush_deltas(network);
  }
}

void WorkerNode::on_query(const QueryRequest& request, NodeId reply_to,
                          bool reliable, TraceContext parent,
                          SimNetwork& network) {
  queries_served_.inc();
  // Worker compute is instantaneous in virtual time; spans below all share
  // one sim timestamp and carry `wall_us` tags for the real index cost.
  TraceContext qspan;
  if (tracer_ != nullptr && parent.valid()) {
    qspan = tracer_->start_span("worker.query", parent,
                                node_id().value(), network.now());
    tracer_->tag(qspan, "sub_id", std::to_string(request.sub_id));
  }
  auto wall_start = std::chrono::steady_clock::now();
  ResultMerger merger(request.query);
  ScanStats scan_stats;
  std::vector<PartitionId> held;
  for (PartitionId p : request.partitions) {
    auto scan_start = std::chrono::steady_clock::now();
    auto it = partitions_.find(p);
    // One scan span per requested partition — including partitions this
    // worker does not hold (the scan is a no-op, but the trace still shows
    // that the fragment named it).
    if (it != partitions_.end()) {
      ScanStats before = scan_stats;
      merger.add(LocalExecutor::execute(*it->second, request.query,
                                        &scan_stats));
      heat_.on_scan(p, scan_stats.rows_evaluated - before.rows_evaluated,
                    scan_stats.rows_selected - before.rows_selected,
                    scan_stats.blocks_scanned - before.blocks_scanned,
                    scan_stats.blocks_skipped - before.blocks_skipped);
      held.push_back(p);
    }
    if (qspan.valid()) {
      auto wall_us = std::chrono::duration_cast<std::chrono::microseconds>(
                         std::chrono::steady_clock::now() - scan_start)
                         .count();
      TraceContext scan = tracer_->instant("worker.scan", qspan,
                                           node_id().value(), network.now());
      tracer_->tag(scan, "partition", std::to_string(p.value()));
      tracer_->tag(scan, "wall_us", std::to_string(wall_us));
      if (it == partitions_.end()) tracer_->tag(scan, "absent", "true");
    }
  }
  // Scan-loop wall time, measured before serialization so EXPLAIN's
  // `wall_us` reflects index cost only (the histogram below keeps the
  // serialize-inclusive total).
  auto scan_only_us = std::chrono::duration_cast<std::chrono::microseconds>(
                          std::chrono::steady_clock::now() - wall_start)
                          .count();
  QueryResponse response{request.request_id, request.sub_id, merger.take()};
  response.rows_scanned = scan_stats.rows_scanned;
  response.scan_wall_us = static_cast<std::uint64_t>(scan_only_us);
  response.blocks_scanned = scan_stats.blocks_scanned;
  response.blocks_skipped = scan_stats.blocks_skipped;
  response.rows_evaluated = scan_stats.rows_evaluated;
  response.rows_selected = scan_stats.rows_selected;
  response.vectorized_morsels = scan_stats.vectorized_morsels;
  response.cold_blocks_scanned = scan_stats.cold_blocks_scanned;
  response.cold_blocks_skipped = scan_stats.cold_blocks_skipped;
  response.decode_morsels = scan_stats.decode_morsels;
  store_blocks_scanned_.add(scan_stats.blocks_scanned);
  store_blocks_skipped_.add(scan_stats.blocks_skipped);
  vectorized_morsels_.add(scan_stats.vectorized_morsels);
  store_cold_blocks_scanned_.add(scan_stats.cold_blocks_scanned);
  store_cold_blocks_skipped_.add(scan_stats.cold_blocks_skipped);
  store_decode_morsels_.add(scan_stats.decode_morsels);
  TraceContext sspan;
  if (qspan.valid()) {
    sspan = tracer_->start_span("worker.serialize", qspan,
                                node_id().value(), network.now());
  }
  auto payload = encode(response);
  if (sspan.valid()) {
    tracer_->tag(sspan, "bytes", std::to_string(payload.size()));
    tracer_->end_span(sspan, network.now());
  }
  // Fragment + wire-bytes heat, apportioned evenly across the partitions
  // actually scanned (the response is one payload; per-partition byte
  // attribution finer than this does not exist on the wire).
  if (!held.empty()) {
    std::uint64_t share = payload.size() / held.size();
    for (PartitionId p : held) heat_.on_fragment(p, share);
  }
  auto total_wall_us = std::chrono::duration_cast<std::chrono::microseconds>(
                           std::chrono::steady_clock::now() - wall_start)
                           .count();
  scan_wall_us_.observe(static_cast<double>(total_wall_us));
  if (qspan.valid()) {
    tracer_->tag(qspan, "wall_us", std::to_string(total_wall_us));
    tracer_->end_span(qspan, network.now());
  }
  if (reliable) {
    channel_.send(reply_to,
                  static_cast<std::uint32_t>(MsgType::kQueryResponse),
                  std::move(payload), network, qspan);
  } else {
    Message reply;
    reply.from = node_id();
    reply.to = reply_to;
    reply.type = static_cast<std::uint32_t>(MsgType::kQueryResponse);
    reply.payload = std::move(payload);
    reply.sent_at = network.now();
    reply.trace = qspan;
    network.send(std::move(reply));
  }
}

void WorkerNode::on_sync_request(const SyncRequest& request, NodeId reply_to,
                                 bool reliable, SimNetwork& network) {
  sync_requests_served_.inc();
  SyncResponse response;
  response.partition = request.partition;
  auto it = partitions_.find(request.partition);
  if (it != partitions_.end()) {
    const DetectionStore& store = it->second->store;
    response.detections.reserve(store.size());
    for (std::size_t i = 0; i < store.size(); ++i) {
      response.detections.push_back(
          store.get(static_cast<DetectionRef>(i)));
    }
    // Full transfers still carry the watermark + out-of-order tail so the
    // receiver can serve and request *delta* syncs later.
    response.watermark = watermark_of(request.partition);
    response.tail = replay_log(request.partition).collect(response.watermark);
  }
  if (reliable) {
    channel_.send(reply_to,
                  static_cast<std::uint32_t>(MsgType::kSyncResponse),
                  encode(response), network);
  } else {
    network.send({node_id(), reply_to,
                  static_cast<std::uint32_t>(MsgType::kSyncResponse),
                  encode(response), network.now(), {}});
  }
}

void WorkerNode::on_sync_response(const SyncResponse& response,
                                  SimNetwork& network) {
  WorkerIndexes& indexes = partition(response.partition);
  auto& seen = ingested_ids_[response.partition];
  for (const Detection& d : response.detections) {
    if (!seen.insert(d.id.value()).second) {
      ingest_dups_skipped_.inc();
      continue;
    }
    indexes.ingest(d);
    ingested_resync_.inc();
  }
  // Adopt the holder's watermark: everything at or below it arrived in
  // `detections`, so this partition can serve delta requests from here on
  // — but nothing older (those rows live only in the store now).
  auto& trackers = watermarks_[response.partition];
  for (const auto& [src, pbid] : response.watermark) {
    trackers[src].advance_to(pbid);
  }
  replay_log(response.partition).set_floor(response.watermark);
  apply_replay_entries(response.partition, response.tail);
  auto task_it = task_by_partition_.find(response.partition);
  if (task_it != task_by_partition_.end()) {
    finish_task(task_it->second, network);
  }
}

void WorkerNode::on_delta_sync_request(const DeltaSyncRequest& request,
                                       NodeId reply_to, bool reliable,
                                       SimNetwork& network) {
  DeltaSyncResponse response;
  response.partition = request.partition;
  if (partitions_.contains(request.partition) &&
      replay_log(request.partition).can_serve(request.since)) {
    response.ok = true;
    response.watermark = watermark_of(request.partition);
    response.entries = replay_log(request.partition).collect(request.since);
    delta_syncs_served_.inc();
  } else {
    delta_syncs_refused_.inc();
  }
  if (reliable) {
    channel_.send(reply_to,
                  static_cast<std::uint32_t>(MsgType::kDeltaSyncResponse),
                  encode(response), network);
  } else {
    network.send({node_id(), reply_to,
                  static_cast<std::uint32_t>(MsgType::kDeltaSyncResponse),
                  encode(response), network.now(), {}});
  }
}

void WorkerNode::on_delta_sync_response(const DeltaSyncResponse& response,
                                        SimNetwork& network) {
  auto task_it = task_by_partition_.find(response.partition);
  if (task_it == task_by_partition_.end()) return;  // stale / finished
  RecoveryTask& task = recovery_tasks_.at(task_it->second);
  if (!task.delta) return;  // already fell back; ignore the late delta
  if (!response.ok) {
    // Holder pruned its log past our snapshot watermark: fall back to a
    // full sync with a fresh retry ladder.
    delta_sync_fallback_.inc();
    task.delta = false;
    task.attempts = 0;
    task.rto = config_.resync_retry_timeout;
    if (tracer_ != nullptr && task.span.valid()) {
      tracer_->instant("recovery.fallback_full", task.span,
                       node_id().value(), network.now());
    }
    send_recovery_request(task, network);
    return;
  }
  apply_replay_entries(response.partition, response.entries);
  auto& trackers = watermarks_[response.partition];
  for (const auto& [src, pbid] : response.watermark) {
    trackers[src].advance_to(pbid);
  }
  finish_task(task_it->second, network);
}

void WorkerNode::flush_deltas(SimNetwork& network) {
  if (pending_deltas_.empty()) return;
  DeltaBatch batch;
  batch.deltas.reserve(pending_deltas_.size());
  for (const DeltaUpdate& d : pending_deltas_) {
    batch.deltas.push_back({d.query, d.positive, d.detection});
  }
  pending_deltas_.clear();
  channel_.send(coordinator_,
                static_cast<std::uint32_t>(MsgType::kDeltaBatch),
                encode(batch), network);
}

void WorkerNode::lose_state() {
  partitions_.clear();
  pending_deltas_.clear();
  ingested_ids_.clear();
  watermarks_.clear();
  replay_logs_.clear();
  recovery_tasks_.clear();
  task_by_partition_.clear();
  // Re-held partitions are marked again when partition() recreates them.
  vault_rewrite_.clear();
  // Heat totals die with the store: the next heartbeat ships fresh (lower)
  // totals, and every downstream windowed rate clamps at zero rather than
  // going negative across the reset.
  heat_.clear();
  // vault_ survives: snapshots model a checkpoint on local disk, which a
  // process crash does not erase. next_task_token_ also survives so stale
  // parked timers can never alias a post-restart task.
  channel_.reset();
  state_losses_.inc();
}

ReplayLog& WorkerNode::replay_log(PartitionId p) {
  auto [it, inserted] = replay_logs_.try_emplace(p);
  if (inserted) it->second.set_max_bytes(config_.replay_log_max_bytes);
  return it->second;
}

bool WorkerNode::dedup_ingest(PartitionId p, const Detection& d) {
  auto& seen = ingested_ids_[p];
  if (!seen.insert(d.id.value()).second) {
    ingest_dups_skipped_.inc();
    return false;
  }
  partition(p).ingest(d);
  return true;
}

Watermark WorkerNode::watermark_of(PartitionId p) const {
  Watermark mark;
  auto it = watermarks_.find(p);
  if (it == watermarks_.end()) return mark;
  for (const auto& [src, tracker] : it->second) {
    if (tracker.contig > 0) mark[src] = tracker.contig;
  }
  return mark;
}

void WorkerNode::take_snapshots(TimePoint now) {
  for (const auto& [p, indexes] : partitions_) {
    // A partition's first snapshot is always a rewrite: partition() marks
    // every partition it creates.
    bool rewrite = vault_rewrite_.erase(p) > 0;
    PartitionSnapshot& snap = vault_[p];
    if (!rewrite && snap.current(indexes->store)) continue;
    vault_bytes_ -= snap.bytes;
    snapshot_bytes_written_.add(snap.capture(indexes->store, rewrite));
    vault_bytes_ += snap.bytes;
    snap.version = ++snapshot_version_;
    snap.taken_at = now;
    snap.watermark = watermark_of(p);
    // Rows the contiguous watermark does not cover (delivered out of
    // order) ride along as replay entries under their true identity.
    snap.tail = replay_log(p).collect(snap.watermark);
    snapshots_taken_.inc();
  }
  update_recovery_gauges();
}

bool WorkerNode::install_snapshot(PartitionId p) {
  auto it = vault_.find(p);
  if (it == vault_.end()) return false;
  const PartitionSnapshot& snap = it->second;
  DetectionStore decoded;
  if (!snap.restore(decoded)) {
    snapshot_corrupt_.inc();
    return false;
  }
  WorkerIndexes& indexes = partition(p);
  auto& seen = ingested_ids_[p];
  // The store no longer extends its vault image by appends alone.
  vault_rewrite_.insert(p);
  if (indexes.store.empty()) {
    // Bulk path: adopt the decoded columns wholesale (cold blocks stay
    // compressed) and index from them. The move clobbers the partition's
    // tier config, so reapply it for subsequent demotion.
    StoreTierConfig tier = indexes.store.tier_config();
    indexes.store = std::move(decoded);
    indexes.store.set_tier_config(tier);
    indexes.index_rows_from(0);
    for (std::size_t i = 0; i < indexes.store.size(); ++i) {
      seen.insert(indexes.store.id_of(static_cast<DetectionRef>(i)).value());
    }
    snapshot_rows_installed_.add(indexes.store.size());
  } else {
    // A live replica stream beat the install: merge row-by-row through the
    // dedup gate so nothing double-counts.
    for (std::size_t i = 0; i < decoded.size(); ++i) {
      if (dedup_ingest(p, decoded.get(static_cast<DetectionRef>(i)))) {
        snapshot_rows_installed_.inc();
      }
    }
  }
  auto& trackers = watermarks_[p];
  for (const auto& [src, pbid] : snap.watermark) {
    trackers[src].advance_to(pbid);
  }
  replay_log(p).set_floor(snap.watermark);
  apply_replay_entries(p, snap.tail);
  snapshots_installed_.inc();
  return true;
}

void WorkerNode::apply_replay_entries(
    PartitionId p, const std::vector<ReplayEntry>& entries) {
  auto& trackers = watermarks_[p];
  ReplayLog& log = replay_log(p);
  for (const ReplayEntry& e : entries) {
    for (const Detection& d : e.detections) {
      if (dedup_ingest(p, d)) replayed_detections_.inc();
    }
    log.append(e.source, e.pbid, e.detections);
    if (e.pbid != 0) trackers[e.source].note(e.pbid);
  }
}

void WorkerNode::send_recovery_request(RecoveryTask& task,
                                       SimNetwork& network) {
  if (task.delta) {
    DeltaSyncRequest request{task.partition, watermark_of(task.partition)};
    channel_.send(task.holder,
                  static_cast<std::uint32_t>(MsgType::kDeltaSyncRequest),
                  encode(request), network, task.span);
  } else {
    SyncRequest request{task.partition};
    channel_.send(task.holder,
                  static_cast<std::uint32_t>(MsgType::kSyncRequest),
                  encode(request), network, task.span);
  }
  network.set_timer(node_id(), task.rto, task.token);
}

void WorkerNode::finish_task(std::uint64_t token, SimNetwork& network) {
  auto it = recovery_tasks_.find(token);
  if (it == recovery_tasks_.end()) return;
  RecoveryTask task = std::move(it->second);
  recovery_tasks_.erase(it);
  task_by_partition_.erase(task.partition);
  ++recovered_last_;
  partitions_resynced_.inc();
  if (tracer_ != nullptr && task.span.valid()) {
    tracer_->tag(task.span, "outcome", "ok");
    tracer_->tag(task.span, "mode", task.delta ? "delta" : "full");
    tracer_->end_span(task.span, network.now());
  }
  if (task.recovery_id != 0) {
    std::size_t rows = 0;
    auto pit = partitions_.find(task.partition);
    if (pit != partitions_.end()) rows = pit->second->size();
    RecoveryDone done{task.recovery_id, task.partition,
                      static_cast<std::uint64_t>(rows)};
    channel_.send(coordinator_,
                  static_cast<std::uint32_t>(MsgType::kRecoveryDone),
                  encode(done), network, task.span);
  }
}

void WorkerNode::update_recovery_gauges() {
  double log_bytes = 0;
  for (const auto& [p, log] : replay_logs_) {
    log_bytes += static_cast<double>(log.bytes());
  }
  replay_log_bytes_.set(log_bytes);
  snapshot_bytes_.set(static_cast<double>(vault_bytes_));
}

void WorkerNode::start_recovery(std::uint64_t recovery_id,
                                const std::vector<RecoverySpec>& specs,
                                TraceContext parent, SimNetwork& network) {
  // Supersede any tasks from a previous incarnation that never finished
  // (e.g. the worker re-crashed mid-recovery, or an earlier manual resync
  // stalled): their parked retry timers become no-ops once erased.
  for (auto& [token, task] : recovery_tasks_) {
    if (tracer_ != nullptr && task.span.valid()) {
      tracer_->tag(task.span, "outcome", "superseded");
      tracer_->end_span(task.span, network.now());
    }
  }
  recovery_tasks_.clear();
  task_by_partition_.clear();
  recovered_last_ = 0;
  failed_last_ = 0;
  for (const RecoverySpec& spec : specs) {
    bool installed = install_snapshot(spec.partition);
    if (spec.holder == NodeId(0)) {
      // No surviving holder: the vault snapshot is the best obtainable
      // state. No exchange, no completion message — the coordinator knew
      // there was nothing to wait for when it built this spec.
      (installed ? recovered_local_only_ : recovery_no_source_).inc();
      continue;
    }
    std::uint64_t token = kRecoveryTimerBase + (next_task_token_++ %
                                                kRecoveryTimerSpan);
    RecoveryTask task;
    task.partition = spec.partition;
    task.holder = spec.holder;
    task.recovery_id = recovery_id;
    task.rto = config_.resync_retry_timeout;
    task.delta = installed;
    task.token = token;
    if (tracer_ != nullptr && parent.valid()) {
      task.span = tracer_->start_span("recovery.partition", parent,
                                      node_id().value(), network.now());
      tracer_->tag(task.span, "partition",
                   std::to_string(spec.partition.value()));
      tracer_->tag(task.span, "mode", installed ? "delta" : "full");
    }
    task_by_partition_[spec.partition] = token;
    auto it = recovery_tasks_.emplace(token, std::move(task)).first;
    send_recovery_request(it->second, network);
  }
}

void WorkerNode::start_resync(
    const std::vector<std::pair<PartitionId, NodeId>>& replica_holders,
    SimNetwork& network) {
  std::vector<RecoverySpec> specs;
  specs.reserve(replica_holders.size());
  for (const auto& [partition_id, holder] : replica_holders) {
    specs.push_back({partition_id, holder});
  }
  start_recovery(0, specs, {}, network);
}

std::size_t WorkerNode::stored_detections() const {
  std::size_t total = 0;
  for (const auto& [p, indexes] : partitions_) total += indexes->size();
  return total;
}

}  // namespace stcn
