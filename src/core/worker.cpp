#include "core/worker.h"

#include <algorithm>
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
      if (task.span.valid()) {
        tracer_->tag(task.span, "outcome", "failed");
        tracer_->tag(task.span, "attempts", std::to_string(task.attempts - 1));
        tracer_->end_span(task.span, network.now());
      }
      task_by_partition_.erase(task.request.partition);
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
    // stale by the time it lands; the next tick supersedes it. A lost one
    // only costs a tick of pruning opportunity.
    Heartbeat hb{id_, stored_detections(), heat_.snapshot(), {}};
    for (const auto& [p, indexes] : partitions_) {
      hb.summaries.push_back(
          {p, watermark_of(p), indexes->objects});
    }
    summaries_published_.add(hb.summaries.size());
    network.send({node_id(), coordinator_,
                  static_cast<std::uint32_t>(MsgType::kHeartbeat),
                  encode(hb), network.now(), {}});
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
  // An ingest batch or sync answer that does not decode whole is dropped:
  // nothing enters the store or the replay log (which would re-ship its
  // bytes to peers), and a recovery task stays open for its retry.
  auto whole = [&] {
    if (!reader.at_end()) malformed_message_.inc();
    return reader.at_end();
  };
  switch (static_cast<MsgType>(message.type)) {
    case MsgType::kIngestBatch: {
      IngestBatch batch = decode_ingest_batch(reader);
      if (whole()) {
        on_ingest(batch, ingest_batch_rows(message.payload), message.from,
                  network);
      }
      break;
    }
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
    case MsgType::kSyncResponse: {
      SyncResponse response = decode_sync_response(reader);
      if (whole()) on_sync_response(std::move(response), network);
      break;
    }
    default:
      unknown_message_.inc();
      break;
  }
}

void WorkerNode::on_ingest(const IngestBatch& batch,
                           std::span<const std::uint8_t> rows, NodeId source,
                           SimNetwork& network) {
  WorkerIndexes& indexes = partition(batch.partition);
  std::uint64_t fresh_rows = 0;
  for (const Detection& d : batch.detections) {
    if (!indexes.ingest(d)) {
      ingest_dups_skipped_.inc();
      continue;
    }
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
                                     {rows.begin(), rows.end()});
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
    tracer_->tag(qspan, "sub_id", request.sub_id);
  }
  auto wall_start = std::chrono::steady_clock::now();
  const Query& query = request.query;
  // Row-returning kinds keep (store, row) pairs and write the rows to the
  // wire straight from the stores; count and heatmap fold every held
  // partition into one accumulator.
  bool aggregate =
      query.kind == QueryKind::kCount || query.kind == QueryKind::kHeatmap;
  std::vector<FragmentRow> rows;
  AggregateFold fold(query);
  ScanStats scan_stats;
  std::vector<PartitionId> held;
  for (PartitionId p : request.partitions) {
    auto scan_start = std::chrono::steady_clock::now();
    auto it = partitions_.find(p);
    // One scan span per requested partition — including partitions this
    // worker does not hold (the scan is a no-op, but the trace still shows
    // that the fragment named it).
    if (it != partitions_.end()) {
      const DetectionStore& store = it->second->store;
      ScanStats local;
      if (aggregate) {
        local.rows_scanned = fold.add(store, local.store);
      } else {
        std::vector<DetectionRef> refs =
            LocalExecutor::select(store, query, local.store);
        local.rows_scanned = refs.size();
        for (DetectionRef ref : refs) {
          rows.push_back({store.row_key(ref), &store, ref});
        }
      }
      const MorselStats& ms = local.store;
      heat_.on_scan(p, ms.rows_evaluated, ms.rows_selected, ms.blocks_scanned,
                    ms.blocks_skipped);
      scan_stats.rows_scanned += local.rows_scanned;
      scan_stats.store.merge(ms);
      held.push_back(p);
    }
    if (qspan.valid()) {
      auto wall_us = std::chrono::duration_cast<std::chrono::microseconds>(
                         std::chrono::steady_clock::now() - scan_start)
                         .count();
      TraceContext scan = tracer_->instant("worker.scan", qspan,
                                           node_id().value(), network.now());
      tracer_->tag(scan, "partition", p.value());
      tracer_->tag(scan, "wall_us", static_cast<std::uint64_t>(wall_us));
      if (it == partitions_.end()) tracer_->tag(scan, "absent", "true");
    }
  }
  // Scan-loop wall time, measured before serialization so EXPLAIN's
  // `wall_us` reflects index cost only (the histogram below keeps the
  // serialize-inclusive total).
  auto scan_only_us = static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::steady_clock::now() - wall_start)
          .count());
  const MorselStats& ms = scan_stats.store;
  store_blocks_scanned_.add(ms.blocks_scanned);
  store_blocks_skipped_.add(ms.blocks_skipped);
  vectorized_morsels_.add(ms.morsels);
  store_cold_blocks_scanned_.add(ms.cold_blocks_scanned);
  store_cold_blocks_skipped_.add(ms.cold_blocks_skipped);
  store_decode_morsels_.add(ms.decode_morsels);
  TraceContext sspan;
  if (qspan.valid()) {
    sspan = tracer_->start_span("worker.serialize", qspan,
                                node_id().value(), network.now());
  }
  auto payload =
      aggregate
          ? encode(QueryResponse{request.request_id, request.sub_id,
                                 QueryResult{query.id, {}, fold.take()},
                                 scan_stats, scan_only_us})
          : encode_rows_response(request.request_id, request.sub_id, query,
                                 std::move(rows), scan_stats, scan_only_us);
  if (sspan.valid()) {
    tracer_->tag(sspan, "bytes", payload.size());
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
    tracer_->tag(qspan, "wall_us",
                 static_cast<std::uint64_t>(total_wall_us));
    tracer_->end_span(qspan, network.now());
  }
  reply(reply_to, MsgType::kQueryResponse, std::move(payload), reliable, qspan,
        network);
}

void WorkerNode::on_sync_request(const SyncRequest& request, NodeId reply_to,
                                 bool reliable, SimNetwork& network) {
  const PartitionId p = request.partition;
  auto it = partitions_.find(p);
  const bool held = it != partitions_.end();
  // A delta when the log reaches back to the requester's snapshot;
  // otherwise (no snapshot, or a log pruned past it) the store image, cold
  // blocks still compressed. A partition not held here is an empty image.
  const bool delta =
      held && request.since && replay_log(p).can_serve(*request.since);
  (delta ? delta_syncs_served_ : sync_requests_served_).inc();
  if (!delta && request.since) delta_sync_fallback_.inc();
  DetectionStore none;
  const Watermark mark = watermark_of(p);
  std::vector<ReplayEntry> entries;
  if (held) entries = replay_log(p).collect(delta ? *request.since : mark);
  reply(reply_to, MsgType::kSyncResponse,
        encode_sync_response(
            p, delta ? nullptr : held ? &it->second->store : &none, mark,
            entries),
        reliable, {}, network);
}

void WorkerNode::reply(NodeId to, MsgType type,
                       std::vector<std::uint8_t> payload, bool reliable,
                       TraceContext trace, SimNetwork& network) {
  auto wire_type = static_cast<std::uint32_t>(type);
  if (reliable) {
    channel_.send(to, wire_type, std::move(payload), network, trace);
  } else {
    network.send({node_id(), to, wire_type, std::move(payload), network.now(),
                  trace});
  }
}

void WorkerNode::on_sync_response(SyncResponse&& response,
                                  SimNetwork& network) {
  auto task_it = task_by_partition_.find(response.partition);
  if (task_it == task_by_partition_.end()) return;  // stale / finished
  const PartitionId p = response.partition;
  if (response.image) {
    ingested_resync_.add(install_image(p, std::move(*response.image),
                                       response.watermark,
                                       std::move(response.entries)));
  } else {
    auto& trackers = watermarks_[p];
    for (const auto& [src, pbid] : response.watermark) {
      trackers[src].advance_to(pbid);
    }
    apply_replay_entries(p, std::move(response.entries));
  }
  finish_task(task_it->second, response.image.has_value(), network);
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
  if (!partition(p).ingest(d)) {
    ingest_dups_skipped_.inc();
    return false;
  }
  return true;
}

bool WorkerNode::tail_past_watermark(PartitionId p) const {
  auto log = replay_logs_.find(p);
  if (log != replay_logs_.end() && log->second.unsequenced() > 0) return true;
  auto marks = watermarks_.find(p);
  if (marks == watermarks_.end()) return false;
  return std::any_of(
      marks->second.begin(), marks->second.end(),
      [](const auto& source) { return !source.second.ahead.empty(); });
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
    snap.tail = tail_past_watermark(p)
                    ? replay_log(p).collect(snap.watermark)
                    : std::vector<ReplayEntry>{};
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
  snapshot_rows_installed_.add(
      install_image(p, std::move(decoded), snap.watermark, snap.tail));
  snapshots_installed_.inc();
  return true;
}

std::size_t WorkerNode::install_image(PartitionId p, DetectionStore&& image,
                                      const Watermark& watermark,
                                      std::vector<ReplayEntry> entries) {
  // The rejoiner holds the partition from here on, even if the image is
  // empty.
  WorkerIndexes& indexes = partition(p);
  std::size_t installed = 0;
  if (indexes.store.empty()) {
    // Bulk path: adopt the decoded columns wholesale (cold blocks stay
    // compressed) and index from them. The move clobbers the partition's
    // tier config, so reapply it for subsequent demotion.
    StoreTierConfig tier = indexes.store.tier_config();
    indexes.store = std::move(image);
    indexes.store.set_tier_config(tier);
    indexes.index_rows_from(0);
    installed = indexes.store.size();
  } else {
    // A live replica stream beat the install: merge row-by-row through the
    // dedup gate so nothing double-counts.
    for (std::size_t i = 0; i < image.size(); ++i) {
      if (dedup_ingest(p, image.get(static_cast<DetectionRef>(i)))) {
        ++installed;
      }
    }
  }
  // The store no longer extends its vault image by appends alone.
  vault_rewrite_.insert(p);
  auto& trackers = watermarks_[p];
  for (const auto& [src, pbid] : watermark) trackers[src].advance_to(pbid);
  // The image's rows at or below the watermark live only in the store now,
  // so this partition serves deltas from the watermark on, nothing older.
  replay_log(p).set_floor(watermark);
  apply_replay_entries(p, std::move(entries));
  return installed;
}

void WorkerNode::apply_replay_entries(PartitionId p,
                                      std::vector<ReplayEntry> entries) {
  auto& trackers = watermarks_[p];
  ReplayLog& log = replay_log(p);
  for (ReplayEntry& e : entries) {
    BinaryReader rows(e.rows);  // framing checked when the entry arrived
    for (std::uint32_t n = rows.read_u32(); n > 0 && !rows.failed(); --n) {
      if (dedup_ingest(p, deserialize_detection(rows))) {
        replayed_detections_.inc();
      }
    }
    if (e.pbid != 0) trackers[e.source].note(e.pbid);
    log.append(e.source, e.pbid, std::move(e.rows));
  }
}

void WorkerNode::send_recovery_request(RecoveryTask& task,
                                       SimNetwork& network) {
  channel_.send(task.holder,
                static_cast<std::uint32_t>(MsgType::kSyncRequest),
                encode(task.request), network, task.span);
  network.set_timer(node_id(), task.rto, task.token);
}

void WorkerNode::finish_task(std::uint64_t token, bool image,
                             SimNetwork& network) {
  auto it = recovery_tasks_.find(token);
  if (it == recovery_tasks_.end()) return;
  RecoveryTask task = std::move(it->second);
  recovery_tasks_.erase(it);
  task_by_partition_.erase(task.request.partition);
  ++recovered_last_;
  partitions_resynced_.inc();
  if (tracer_ != nullptr && task.span.valid()) {
    tracer_->tag(task.span, "outcome", "ok");
    tracer_->tag(task.span, "mode", image ? "full" : "delta");
    tracer_->end_span(task.span, network.now());
  }
  if (task.recovery_id != 0) {
    std::size_t rows = 0;
    auto pit = partitions_.find(task.request.partition);
    if (pit != partitions_.end()) rows = pit->second->size();
    RecoveryDone done{task.recovery_id, task.request.partition,
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
    task.request.partition = spec.partition;
    if (installed) task.request.since = watermark_of(spec.partition);
    task.holder = spec.holder;
    task.recovery_id = recovery_id;
    task.rto = config_.resync_retry_timeout;
    task.token = token;
    if (tracer_ != nullptr && parent.valid()) {
      task.span = tracer_->start_span("recovery.partition", parent,
                                      node_id().value(), network.now());
      tracer_->tag(task.span, "partition", spec.partition.value());
    }
    task_by_partition_[spec.partition] = token;
    auto it = recovery_tasks_.emplace(token, std::move(task)).first;
    send_recovery_request(it->second, network);
  }
}

std::size_t WorkerNode::stored_detections() const {
  std::size_t total = 0;
  for (const auto& [p, indexes] : partitions_) total += indexes->size();
  return total;
}

}  // namespace stcn
