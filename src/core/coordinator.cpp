#include "core/coordinator.h"

#include <algorithm>

namespace stcn {
namespace {
// The net layer's channel framing is decoupled from the application MsgType
// enum; make sure the defaults agree.
static_assert(static_cast<std::uint32_t>(MsgType::kReliableData) ==
              ReliableChannelConfig{}.data_type);
static_assert(static_cast<std::uint32_t>(MsgType::kReliableAck) ==
              ReliableChannelConfig{}.ack_type);

// Timer token namespaces. Query-timeout timers use the (monotonically
// increasing, small) request id directly; hedge timers set bit 61; the
// reliable channel owns [2^62, 2^62 + 2^32); the failure sweep is all-ones.
constexpr std::uint64_t kSweepToken = ~std::uint64_t{0};
constexpr std::uint64_t kHedgeBit = 1ULL << 61;
}  // namespace

void Coordinator::start(SimNetwork& network) {
  if (config_.detect_failures) {
    network.set_timer(id_, config_.failure_sweep_period, kSweepToken);
  }
}

void Coordinator::handle_message(const Message& message, SimNetwork& network) {
  switch (static_cast<MsgType>(message.type)) {
    case MsgType::kReliableData: {
      if (auto inner = channel_.on_data(message, network)) {
        dispatch(*inner, network);
      }
      return;
    }
    case MsgType::kReliableAck:
      channel_.on_ack(message);
      return;
    default:
      dispatch(message, network);
  }
}

void Coordinator::dispatch(const Message& message, SimNetwork& network) {
  BinaryReader reader(message.payload);
  switch (static_cast<MsgType>(message.type)) {
    case MsgType::kQueryResponse:
      on_response(decode_query_response(reader), message.payload.size(),
                  network.now());
      break;
    case MsgType::kDeltaBatch:
      on_deltas(decode_delta_batch(reader));
      break;
    case MsgType::kHeartbeat: {
      Heartbeat hb = decode_heartbeat(reader);
      last_heartbeat_[hb.worker] = network.now();
      if (suspected_.erase(hb.worker) > 0) {
        workers_unsuspected_.inc();
      }
      for (const PartitionHeat& ph : hb.heat) {
        heat_.ingest(hb.worker, ph, network.now());
      }
      // A garbled filter could read "absent" for objects the partition
      // holds, so a heartbeat that failed to decode installs none.
      if (!reader.failed()) {
        for (ObjectSummary& summary : hb.summaries) {
          summaries_.insert_or_assign(summary.partition, std::move(summary));
        }
      }
      break;
    }
    case MsgType::kIngestForward: {
      // Relay-mode gateway traffic: re-route each detection to its worker.
      IngestForward forward = decode_ingest_forward(reader);
      ingest_forwards_.inc();
      for (const Detection& d : forward.detections) ingest(d, network);
      flush_ingest(network);
      break;
    }
    case MsgType::kRecoveryDone:
      on_recovery_done(decode_recovery_done(reader));
      break;
    default:
      unknown_message_.inc();
      break;
  }
}

void Coordinator::handle_timer(std::uint64_t timer_token,
                               SimNetwork& network) {
  if (channel_.owns_timer(timer_token)) {
    channel_.handle_timer(timer_token, network);
    return;
  }
  if (timer_token == kSweepToken) {
    // Failure-detection sweep: suspect every worker that has heartbeated
    // before but has now been silent past the timeout, and proactively
    // fail its partitions over to their backups.
    for (const auto& [worker, last_seen] : last_heartbeat_) {
      if (suspected_.contains(worker)) continue;
      if (network.now() - last_seen > config_.heartbeat_timeout) {
        suspected_.insert(worker);
        workers_suspected_.inc();
        promote_backups_of(worker);
      }
    }
    network.set_timer(id_, config_.failure_sweep_period, kSweepToken);
    return;
  }
  if (timer_token & kHedgeBit) {
    hedge(timer_token & ~kHedgeBit, network);
    return;
  }
  failover_retry(timer_token, network);
}

// ----------------------------------------------------------------- ingest

void Coordinator::ingest(const Detection& d, SimNetwork& network) {
  PartitionId p = strategy_.partition_of(d.camera, d.position, d.time);
  ingested_.inc();
  auto& buf = ingest_buffers_[p.value()];
  buf.push_back(d);
  if (buf.size() >= config_.ingest_batch_size) {
    flush_partition_buffer(p, buf, network);
  }
}

void Coordinator::flush_partition_buffer(PartitionId p,
                                         std::vector<Detection>& buffer,
                                         SimNetwork& network) {
  if (buffer.empty()) return;
  // One pbid per flushed batch; the primary and backup copies carry the
  // same pbid over identical contents, which is what makes per-source
  // watermarks comparable across holders during recovery.
  IngestBatch batch{p, false, std::move(buffer), ++ingest_pbids_[p.value()]};
  buffer.clear();
  channel_.send(worker_node(map_.primary(p)),
                static_cast<std::uint32_t>(MsgType::kIngestBatch),
                encode(batch), network);
  if (config_.replicate && map_.has_distinct_backup(p)) {
    batch.is_replica = true;
    channel_.send(worker_node(map_.backup(p)),
                  static_cast<std::uint32_t>(MsgType::kIngestBatch),
                  encode(batch), network);
  }
}

void Coordinator::flush_ingest(SimNetwork& network) {
  for (auto& [partition, buf] : ingest_buffers_) {
    flush_partition_buffer(PartitionId(partition), buf, network);
  }
}

// ---------------------------------------------------------------- queries

std::vector<PartitionId> Coordinator::footprint(const Query& query) const {
  switch (query.kind) {
    case QueryKind::kRange:
    case QueryKind::kCount:
    case QueryKind::kHeatmap:
      return strategy_.partitions_for_region(query.region, query.interval);
    case QueryKind::kCircle:
    case QueryKind::kKnn:
      // A k-NN asks the partitions its search circle touches; Cluster
      // checks afterwards that the answer could not lie outside them.
      return strategy_.partitions_for_region(query.circle.bounding_box(),
                                             query.interval);
    case QueryKind::kCameraWindow:
      return strategy_.partitions_for_camera(query.camera, query.interval);
    case QueryKind::kTrajectory: {
      // No spatial footprint, but object-presence summaries prune: p is
      // skipped only when its summary covers every batch this node routed
      // there and no other source, nothing for p waits in the ingest
      // buffer, and the filter rules the object out. Such a summary covers
      // all of p's data, whatever the interval, and Bloom filters have no
      // false negatives, so this is sound.
      std::vector<PartitionId> asked;
      for (PartitionId p : strategy_.all_partitions()) {
        auto summary = summaries_.find(p);
        auto buffer = ingest_buffers_.find(p.value());
        auto pbid = ingest_pbids_.find(p.value());
        Watermark routed;
        if (pbid != ingest_pbids_.end()) routed[id_.value()] = pbid->second;
        if (prune_trajectories_ && summary != summaries_.end() &&
            summary->second.covers == routed &&
            (buffer == ingest_buffers_.end() || buffer->second.empty()) &&
            !summary->second.objects.may_contain(query.object.value())) {
          trajectory_partitions_pruned_.inc();
        } else {
          asked.push_back(p);
        }
      }
      return asked;
    }
  }
  return strategy_.all_partitions();
}

std::size_t Coordinator::send_query_to(
    NodeId worker, std::uint64_t request_id, std::uint64_t sub_id,
    const Query& query, const std::vector<PartitionId>& partitions,
    SimNetwork& network, TraceContext ctx) {
  QueryRequest request{request_id, sub_id, query, partitions};
  std::vector<std::uint8_t> payload = encode(request);
  std::size_t bytes = payload.size();
  channel_.send(worker, static_cast<std::uint32_t>(MsgType::kQueryRequest),
                std::move(payload), network, ctx);
  return bytes;
}

std::uint64_t Coordinator::submit_to(std::vector<PartitionId> partitions,
                                     const Query& query, SimNetwork& network,
                                     TraceContext parent,
                                     double estimated_rows) {
  std::uint64_t request_id = next_request_id_++;
  PendingQuery pending;
  pending.query = query;
  pending.retries_left = config_.max_retries;
  pending.submitted_at = network.now();
  if (tracer_ != nullptr) {
    pending.root = tracer_->start_span("coordinator.fanout", parent,
                                       id_.value(), network.now());
    tracer_->tag(pending.root, "kind", query_kind_name(query.kind));
    tracer_->tag(pending.root, "request_id", request_id);
  }

  std::unordered_map<NodeId, std::vector<PartitionId>> assignment;
  for (PartitionId p : partitions) {
    assignment[worker_node(map_.primary(p))].push_back(p);
  }
  queries_submitted_.inc();
  query_fanout_total_.add(assignment.size());
  std::size_t total_partitions = 0;
  for (const auto& [w, ps] : assignment) total_partitions += ps.size();
  query_partitions_total_.add(total_partitions);

  bool profiling = profiler_ != nullptr && profiler_->active();
  if (profiling) {
    profiled_request_ = request_id;
    profiler_->set_request(request_id);
    std::size_t stage = profiler_->open_stage("partition_selection",
                                              network.now());
    ExplainStage& s = profiler_->stage(stage);
    s.considered = map_.partition_count();
    s.actual = static_cast<std::int64_t>(partitions.size());
    s.pruned = map_.partition_count() >= partitions.size()
                   ? map_.partition_count() - partitions.size()
                   : 0;
    s.note("kind", query_kind_name(query.kind));
    s.note("fanout", std::to_string(assignment.size()));
    std::string ids;
    for (PartitionId p : partitions) {
      if (!ids.empty()) ids += ' ';
      ids += std::to_string(p.value());
    }
    s.note("asked", std::move(ids));
    profiler_->close_stage(stage, network.now());
  }

  for (auto& [worker, partitions] : assignment) {
    std::uint64_t sub_id = next_sub_id_++;
    TraceContext fspan;
    if (tracer_ != nullptr) {
      fspan = tracer_->start_span("fragment", pending.root, id_.value(),
                                  network.now());
      tracer_->tag(fspan, "worker", worker.value());
      tracer_->tag(fspan, "partitions", partitions.size());
    }
    // Apportion the caller's cardinality estimate by partition share: with
    // no better signal, a fragment serving half the partitions is expected
    // to return half the rows.
    double est = -1.0;
    if (estimated_rows >= 0.0 && total_partitions > 0) {
      est = estimated_rows * static_cast<double>(partitions.size()) /
            static_cast<double>(total_partitions);
    }
    pending.cost.bytes_out += send_query_to(worker, request_id, sub_id,
                                            query, partitions, network,
                                            fspan);
    ++pending.cost.fragments;
    pending.fragments.emplace(
        sub_id, Fragment{worker, std::move(partitions), 0, false, {}, fspan,
                         est, network.now()});
    ++pending.outstanding;
  }
  bool empty = pending.outstanding == 0;
  auto [it, inserted] = pending_.emplace(request_id, std::move(pending));
  if (!empty) {
    network.set_timer(id_, config_.query_timeout, request_id);
    if (config_.hedge_queries && config_.hedge_delay_fraction > 0.0) {
      auto delay = Duration::micros(static_cast<std::int64_t>(
          static_cast<double>(config_.query_timeout.count_micros()) *
          config_.hedge_delay_fraction));
      network.set_timer(id_, delay, kHedgeBit | request_id);
    }
  } else {
    maybe_finish(request_id, it->second, network.now());
  }
  return request_id;
}

void Coordinator::maybe_finish(std::uint64_t request_id,
                               PendingQuery& pending, TimePoint now) {
  if (pending.outstanding > 0 || pending.finished) return;
  pending.finished = true;
  Duration latency = now - pending.submitted_at;
  double latency_us = static_cast<double>(latency.count_micros());
  query_latency_us_.observe(latency_us);

  // Commit the accumulated cost vector to the ledger, attributed to query
  // kind, originating tenant, and the camera that dominated the answer.
  pending.cost.sim_latency_us =
      static_cast<std::uint64_t>(latency.count_micros());
  if (tracer_ != nullptr && pending.root.valid()) {
    // Retransmits are recorded as instant spans under the frames that
    // carried this query's fragments, so the trace is the per-query view
    // of what the channel-level counter only shows in aggregate.
    pending.cost.retransmits +=
        tracer_->count_spans(pending.root.trace_id, "net.retransmit");
  }
  CostRecord rec;
  rec.request_id = request_id;
  rec.trace_id = pending.root.trace_id;
  rec.kind = query_kind_name(pending.query.kind);
  rec.tenant = pending.query.tenant;
  rec.partial = pending.partial;
  if (pending.query.kind == QueryKind::kCameraWindow) {
    rec.hottest_camera = pending.query.camera.value();
  } else {
    // Every row that arrived counts, duplicates included. Sorted camera
    // ids count as runs; a run wins only by being longer, so the smallest
    // id wins ties.
    std::vector<std::uint64_t>& cams = camera_scratch_;
    cams.clear();
    for (const QueryResult& fragment : pending.results) {
      for (const Detection& d : fragment.detections) {
        cams.push_back(d.camera.value());
      }
    }
    std::sort(cams.begin(), cams.end());
    std::uint64_t best_cam = CostRecord::kNoCamera;
    std::size_t best_n = 0;
    for (auto run = cams.begin(); run != cams.end();) {
      auto next = std::upper_bound(run, cams.end(), *run);
      if (static_cast<std::size_t>(next - run) > best_n) {
        best_cam = *run;
        best_n = static_cast<std::size_t>(next - run);
      }
      run = next;
    }
    rec.hottest_camera = best_cam;
  }
  rec.cost = pending.cost;
  ledger_.record(rec);

  std::string cost_summary = rec.cost.summary();
  query_latency_us_.set_exemplar(latency_us, rec.trace_id, cost_summary);

  if (profiler_ != nullptr && profiler_->active() &&
      profiled_request_ == request_id) {
    std::size_t stage = profiler_->open_stage("query.cost", now);
    ExplainStage& s = profiler_->stage(stage);
    s.note("summary", cost_summary);
    s.note("tenant", std::to_string(pending.query.tenant));
    if (rec.hottest_camera != CostRecord::kNoCamera) {
      s.note("hottest_camera", std::to_string(rec.hottest_camera));
    }
    profiler_->close_stage(stage, now);
  }

  if (tracer_ != nullptr && pending.root.valid()) {
    if (pending.partial) tracer_->tag(pending.root, "partial", "true");
    tracer_->end_span(pending.root, now);
    slow_log_.maybe_record(*tracer_, pending.root.trace_id, request_id,
                           query_kind_name(pending.query.kind), latency,
                           cost_summary);
  }
}

void Coordinator::on_response(QueryResponse response, std::size_t wire_bytes,
                              TimePoint now) {
  auto it = pending_.find(response.request_id);
  if (it == pending_.end()) return;  // late response after completion
  PendingQuery& pending = it->second;
  const std::size_t rows_returned = response.result.detections.size();
  const std::uint64_t rows_answered =
      rows_returned == 0 && !response.result.counts.empty()
          ? response.result.total_count()
          : rows_returned;
  // Keep every fragment result — even from a fragment already retired by a
  // faster hedge or failover re-issue: the merger dedups detections.
  pending.results.push_back(std::move(response.result));

  // Cost accrues for every answer that arrived, retired fragment or not:
  // a hedged-over primary's scan still happened and still gets billed.
  const std::uint64_t rows_scanned = response.scan.rows_scanned;
  const MorselStats& ms = response.scan.store;
  pending.cost.rows_scanned += rows_scanned;
  pending.cost.rows_returned += rows_returned;
  pending.cost.blocks_scanned += ms.blocks_scanned;
  pending.cost.blocks_skipped += ms.blocks_skipped;
  pending.cost.rows_evaluated += ms.rows_evaluated;
  pending.cost.morsels += ms.morsels;
  pending.cost.scan_wall_us += response.scan_wall_us;
  pending.cost.bytes_in += wire_bytes;

  auto frag = pending.fragments.find(response.sub_id);
  if (frag == pending.fragments.end()) return;  // pre-sub_id sender (tests)
  if (frag->second.retired) return;
  frag->second.retired = true;
  if (tracer_ != nullptr) tracer_->end_span(frag->second.span, now);

  // Per-peer health signal: end-to-end fragment latency against the worker
  // that answered (a gray-slow worker shows as a per-peer latency burn).
  peer_stats(frag->second.worker)
      .latency->observe(static_cast<double>(
          (now - frag->second.sent_at).count_micros()));

  if (profiler_ != nullptr && profiler_->active() &&
      profiled_request_ == response.request_id) {
    std::size_t stage = profiler_->open_stage("worker.scan", now);
    ExplainStage& s = profiler_->stage(stage);
    if (frag->second.est_rows >= 0.0) s.estimated = frag->second.est_rows;
    s.actual = static_cast<std::int64_t>(rows_answered);
    s.considered = rows_scanned;
    s.pruned = rows_scanned >= static_cast<std::uint64_t>(s.actual)
                   ? rows_scanned - static_cast<std::uint64_t>(s.actual)
                   : 0;
    s.wall_us = static_cast<std::int64_t>(response.scan_wall_us);
    s.sim_time = now - frag->second.sent_at;
    s.start = frag->second.sent_at;
    s.note("worker", std::to_string(frag->second.worker.value()));
    s.note("partitions", std::to_string(frag->second.partitions.size()));
    s.note("blocks_scanned", std::to_string(ms.blocks_scanned));
    s.note("blocks_skipped", std::to_string(ms.blocks_skipped));
    if (ms.morsels != 0) {
      s.note("rows_evaluated", std::to_string(ms.rows_evaluated));
      s.note("rows_selected", std::to_string(ms.rows_selected));
      s.note("vectorized_morsels", std::to_string(ms.morsels));
    }
    // Per-tier split: only emitted when the scan touched the cold tier at
    // all, so hot-only deployments keep their EXPLAIN output unchanged.
    if (ms.cold_blocks_scanned != 0 || ms.cold_blocks_skipped != 0) {
      s.note("cold_blocks_scanned", std::to_string(ms.cold_blocks_scanned));
      s.note("cold_blocks_skipped", std::to_string(ms.cold_blocks_skipped));
    }
    if (ms.decode_morsels != 0) {
      s.note("decode_morsels", std::to_string(ms.decode_morsels));
    }
    if (frag->second.covers != 0) s.note("hedge", "true");
    profiler_->close_stage(stage, now);
  }

  if (frag->second.covers == 0) {
    // Primary fragment answered directly.
    if (pending.outstanding > 0) --pending.outstanding;
    maybe_finish(response.request_id, pending, now);
    return;
  }
  // Hedge answer: credit the covered partitions to the primary fragment.
  // A primary's partitions may back up to different workers, so it retires
  // only once hedge answers cumulatively cover its whole partition set.
  auto primary = pending.fragments.find(frag->second.covers);
  if (primary == pending.fragments.end() || primary->second.retired) return;
  for (PartitionId p : frag->second.partitions) {
    primary->second.hedge_covered.insert(p.value());
  }
  bool fully_covered = std::all_of(
      primary->second.partitions.begin(), primary->second.partitions.end(),
      [&](PartitionId p) {
        return primary->second.hedge_covered.contains(p.value());
      });
  if (fully_covered) {
    primary->second.retired = true;
    if (pending.outstanding > 0) --pending.outstanding;
    hedges_won_.inc();
    // Attribute the win to the *slow* peer the hedge raced (the primary
    // fragment's worker): a per-peer hedge-win spike marks it gray.
    peer_stats(primary->second.worker).hedge_wins->inc();
    if (tracer_ != nullptr) {
      tracer_->tag(primary->second.span, "hedged_over", "true");
      tracer_->end_span(primary->second.span, now);
    }
    maybe_finish(response.request_id, pending, now);
  }
}

std::optional<QueryResult> Coordinator::poll(std::uint64_t request_id) {
  auto it = pending_.find(request_id);
  if (it == pending_.end()) return std::nullopt;
  PendingQuery& pending = it->second;
  if (pending.outstanding > 0) return std::nullopt;
  ResultMerger merger(pending.query);
  for (QueryResult& fragment : pending.results) {
    merger.add(std::move(fragment));
  }
  QueryResult result = merger.take();
  pending_.erase(it);
  return result;
}

bool Coordinator::is_complete(std::uint64_t request_id) const {
  auto it = pending_.find(request_id);
  return it == pending_.end() || it->second.outstanding == 0;
}

void Coordinator::hedge(std::uint64_t request_id, SimNetwork& network) {
  if (!config_.hedge_queries) return;
  auto it = pending_.find(request_id);
  if (it == pending_.end()) return;  // completed before the hedge deadline
  PendingQuery& pending = it->second;
  if (pending.outstanding == 0 || pending.hedged) return;
  pending.hedged = true;  // one hedge round per query

  // For every unanswered primary fragment, re-issue its partitions to their
  // backups (grouped per backup worker). The hedge fragment records which
  // primary it covers; whichever answer lands first retires the primary.
  struct HedgePlan {
    NodeId worker;
    std::vector<PartitionId> partitions;
    std::uint64_t covers;
    TraceContext parent;  // primary fragment's span
  };
  std::vector<HedgePlan> plans;
  for (const auto& [sub_id, frag] : pending.fragments) {
    if (frag.retired || frag.covers != 0) continue;
    // The unanswered fragment's worker is the peer being hedged against.
    peer_stats(frag.worker).hedged->inc();
    std::unordered_map<NodeId, std::vector<PartitionId>> by_backup;
    for (PartitionId p : frag.partitions) {
      if (recovering_.contains(p)) {
        // The backup is the mid-resync rejoiner: hedging to it would race
        // an incomplete partition. The surviving holder (the primary we
        // already asked) is the only correct source.
        hedges_suppressed_recovering_.inc();
        continue;
      }
      if (!map_.has_distinct_backup(p)) continue;
      WorkerId backup = map_.backup(p);
      if (worker_node(backup) == frag.worker) continue;
      if (suspected_.contains(backup)) continue;
      by_backup[worker_node(backup)].push_back(p);
    }
    for (auto& [worker, partitions] : by_backup) {
      plans.push_back({worker, std::move(partitions), sub_id, frag.span});
    }
  }
  for (HedgePlan& plan : plans) {
    std::uint64_t sub_id = next_sub_id_++;
    TraceContext hspan;
    if (tracer_ != nullptr) {
      // The hedge rides under the primary fragment it covers, so the trace
      // shows which slow fragment triggered the speculative re-issue.
      hspan = tracer_->start_span("fragment", plan.parent, id_.value(),
                                  network.now());
      tracer_->tag(hspan, "worker", plan.worker.value());
      tracer_->tag(hspan, "hedge", "true");
    }
    pending.cost.bytes_out +=
        send_query_to(plan.worker, request_id, sub_id, pending.query,
                      plan.partitions, network, hspan);
    ++pending.cost.fragments;
    ++pending.cost.hedges;
    std::size_t hedge_partitions = plan.partitions.size();
    pending.fragments.emplace(
        sub_id, Fragment{plan.worker, std::move(plan.partitions),
                         plan.covers, false, {}, hspan, -1.0,
                         network.now()});
    hedges_issued_.inc();
    if (profiler_ != nullptr && profiler_->active() &&
        profiled_request_ == request_id) {
      std::size_t stage = profiler_->open_stage("hedge", network.now());
      ExplainStage& s = profiler_->stage(stage);
      s.considered = hedge_partitions;
      s.note("backup", std::to_string(plan.worker.value()));
      profiler_->close_stage(stage, network.now());
    }
  }
}

void Coordinator::failover_retry(std::uint64_t request_id,
                                 SimNetwork& network) {
  auto it = pending_.find(request_id);
  if (it == pending_.end()) return;  // completed before the deadline
  PendingQuery& pending = it->second;
  if (pending.outstanding == 0) return;
  if (pending.retries_left-- <= 0) {
    pending.partial = true;
    for (auto& [sub_id, frag] : pending.fragments) {
      if (tracer_ != nullptr && !frag.retired) {
        tracer_->tag(frag.span, "timed_out", "true");
        tracer_->end_span(frag.span, network.now());
      }
      frag.retired = true;
    }
    pending.outstanding = 0;
    queries_partial_.inc();
    maybe_finish(request_id, pending, network.now());
    return;
  }
  failover_retries_.inc();

  // Re-route every unanswered primary fragment's partitions to their
  // backups and re-issue as fresh fragments. Results already received stay;
  // duplicates are deduped by the merger.
  struct RetryPlan {
    NodeId worker;
    std::vector<PartitionId> partitions;
  };
  std::vector<RetryPlan> plans;
  for (auto& [sub_id, frag] : pending.fragments) {
    if (frag.retired || frag.covers != 0) continue;
    frag.retired = true;
    peer_stats(frag.worker).timeouts->inc();
    if (tracer_ != nullptr) {
      tracer_->tag(frag.span, "timed_out", "true");
      tracer_->end_span(frag.span, network.now());
    }
    if (pending.outstanding > 0) --pending.outstanding;
    std::unordered_map<NodeId, std::vector<PartitionId>> by_backup;
    for (PartitionId p : frag.partitions) {
      if (recovering_.contains(p)) continue;  // backup is mid-resync
      WorkerId backup = map_.backup(p);
      if (worker_node(backup) == frag.worker) continue;  // no usable replica
      if (suspected_.contains(backup)) continue;         // replica also down
      map_.set_primary(p, backup);
      by_backup[worker_node(backup)].push_back(p);
    }
    for (auto& [worker, partitions] : by_backup) {
      plans.push_back({worker, std::move(partitions)});
    }
  }
  for (RetryPlan& plan : plans) {
    std::uint64_t sub_id = next_sub_id_++;
    TraceContext rspan;
    if (tracer_ != nullptr) {
      rspan = tracer_->start_span("fragment", pending.root, id_.value(),
                                  network.now());
      tracer_->tag(rspan, "worker", plan.worker.value());
      tracer_->tag(rspan, "retry", "true");
    }
    pending.cost.bytes_out +=
        send_query_to(plan.worker, request_id, sub_id, pending.query,
                      plan.partitions, network, rspan);
    ++pending.cost.fragments;
    std::size_t retry_partitions = plan.partitions.size();
    pending.fragments.emplace(
        sub_id,
        Fragment{plan.worker, std::move(plan.partitions), 0, false, {},
                 rspan, -1.0, network.now()});
    ++pending.outstanding;
    if (profiler_ != nullptr && profiler_->active() &&
        profiled_request_ == request_id) {
      std::size_t stage = profiler_->open_stage("failover_retry",
                                                network.now());
      ExplainStage& s = profiler_->stage(stage);
      s.considered = retry_partitions;
      s.note("backup", std::to_string(plan.worker.value()));
      profiler_->close_stage(stage, network.now());
    }
  }
  if (pending.outstanding > 0) {
    network.set_timer(id_, config_.query_timeout, request_id);
  } else {
    // No replica could take over any lost partition: the answer is partial.
    pending.partial = true;
    queries_partial_.inc();
    maybe_finish(request_id, pending, network.now());
  }
}

Coordinator::PeerStats& Coordinator::peer_stats(NodeId worker) {
  auto [it, inserted] = peer_stats_.try_emplace(worker.value());
  if (inserted) {
    std::string prefix = "peer." + std::to_string(worker.value()) + ".";
    it->second.hedged = &metrics_.counter(
        prefix + "hedged", "Hedges issued against this worker's fragments");
    it->second.hedge_wins = &metrics_.counter(
        prefix + "hedge_wins",
        "This worker's fragments beaten by a backup's hedge answer");
    it->second.timeouts = &metrics_.counter(
        prefix + "timeouts", "Fragments this worker failed to answer in time");
    it->second.latency = &metrics_.histogram(
        prefix + "fragment_latency_us",
        "Fragment round-trip latency against this worker (sim us)");
  }
  return it->second;
}

void Coordinator::refresh_heat_gauges(TimePoint now) {
  HeatMapSnapshot::Skew s = heat_.skew(now, &map_);
  partition_load_relative_stddev_.set(s.load_relative_stddev);
  partition_hot_cold_ratio_.set(s.hot_cold_ratio);
  partition_replicate_factor_.set(s.replicate_factor);
  partition_scan_gini_.set(s.scan_gini);
  partition_hottest_load_.set(s.hottest_load);
  partition_tracked_.set(static_cast<double>(heat_.entries().size()));
  // Exemplar labels: the gauge value says *how* skewed, the label says
  // *which* partition — so an operator (or the advisor) can go straight
  // from the alert to the subject.
  if (s.hottest_load > 0.0) {
    metrics_.set_labels(
        "partition.hottest_load",
        {{"partition", "p" + std::to_string(s.hottest.value())}});
    metrics_.set_labels(
        "partition.hot_cold_ratio",
        {{"hottest", "p" + std::to_string(s.hottest.value())},
         {"coldest", "p" + std::to_string(s.coldest.value())}});
  } else {
    metrics_.set_labels("partition.hottest_load", {});
    metrics_.set_labels("partition.hot_cold_ratio", {});
  }
}

void Coordinator::promote_backups_of(WorkerId worker) {
  for (std::size_t i = 0; i < map_.partition_count(); ++i) {
    PartitionId p(i);
    if (recovering_.contains(p)) continue;  // backup is mid-resync
    if (map_.primary(p) == worker && map_.has_distinct_backup(p) &&
        !suspected_.contains(map_.backup(p))) {
      map_.set_primary(p, map_.backup(p));
      partitions_failed_over_.inc();
    }
  }
}

// ---------------------------------------------------------------- recovery

Coordinator::RecoveryPlan Coordinator::begin_worker_recovery(WorkerId w) {
  // Stale RECOVERING entries for the same target mean the previous
  // recovery never completed (the worker re-crashed, or the exchange gave
  // up); replan them from the current map.
  std::erase_if(recovering_,
                [&](const auto& kv) { return kv.second.target == w; });
  RecoveryPlan plan;
  plan.recovery_id = next_recovery_id_++;
  for (std::size_t i = 0; i < map_.partition_count(); ++i) {
    PartitionId p(i);
    WorkerId primary = map_.primary(p);
    WorkerId backup = map_.backup(p);
    if (primary == w && backup != w) {
      // The rejoiner was primary: serve from the surviving backup while it
      // recovers, and keep the rejoiner as backup so the live replica
      // stream warms it during the catch-up window.
      map_.set_primary(p, backup);
      map_.set_backup(p, w);
      recovering_[p] = {w, backup, /*restore_primary=*/true,
                        plan.recovery_id};
      plan.specs.push_back({p, worker_node(backup)});
    } else if (backup == w && primary != w) {
      recovering_[p] = {w, primary, /*restore_primary=*/false,
                        plan.recovery_id};
      plan.specs.push_back({p, worker_node(primary)});
    } else if (primary == backup && primary != w) {
      // Failover earlier collapsed this partition onto one holder;
      // re-replicate onto the rejoining worker.
      map_.set_backup(p, w);
      recovering_[p] = {w, primary, /*restore_primary=*/false,
                        plan.recovery_id};
      plan.specs.push_back({p, worker_node(primary)});
      partitions_rereplicated_.inc();
    } else if (primary == w && backup == w) {
      // No surviving holder anywhere: recovery is local-only (vault
      // snapshot or nothing). Not marked RECOVERING — queries against it
      // answer from whatever the snapshot restores, or go partial.
      plan.specs.push_back({p, NodeId(0)});
    }
  }
  if (recovering_count_for(w) > 0) recoveries_started_.inc();
  partitions_recovering_.set(static_cast<double>(recovering_.size()));
  return plan;
}

void Coordinator::on_recovery_done(const RecoveryDone& done) {
  auto it = recovering_.find(done.partition);
  if (it == recovering_.end() ||
      it->second.recovery_id != done.recovery_id) {
    // Stale completion from a previous incarnation (the worker re-crashed
    // and a new plan superseded this one): must not flip routing.
    recovery_done_stale_.inc();
    return;
  }
  RecoveringPartition r = it->second;
  recovering_.erase(it);
  if (r.restore_primary) {
    map_.set_primary(done.partition, r.target);
    map_.set_backup(done.partition, r.holder);
  }
  partitions_recovered_.inc();
  partitions_recovering_.set(static_cast<double>(recovering_.size()));
}

// ---------------------------------------------------- continuous queries

void Coordinator::install_monitor(const ContinuousQuerySpec& spec,
                                  SimNetwork& network) {
  MonitorInstall install{spec.id, spec.region, spec.window};
  auto payload = encode(install);
  // Install on every worker owning a partition that overlaps the region:
  // those are the only workers that can see matching detections as primary.
  std::unordered_set<std::uint64_t> targets;
  for (PartitionId p :
       strategy_.partitions_for_region(spec.region, TimeInterval::all())) {
    targets.insert(map_.primary(p).value());
  }
  for (std::uint64_t w : targets) {
    network.send({id_, NodeId(w),
                  static_cast<std::uint32_t>(MsgType::kInstallMonitor),
                  payload, network.now(), {}});
  }
  monitors_installed_.inc();
  monitor_fanout_total_.add(targets.size());
}

void Coordinator::remove_monitor(QueryId id, const Rect& region,
                                 SimNetwork& network) {
  MonitorInstall install{id, region, Duration::zero()};
  auto payload = encode(install);
  std::unordered_set<std::uint64_t> targets;
  for (PartitionId p :
       strategy_.partitions_for_region(region, TimeInterval::all())) {
    targets.insert(map_.primary(p).value());
  }
  for (std::uint64_t w : targets) {
    network.send({id_, NodeId(w),
                  static_cast<std::uint32_t>(MsgType::kRemoveMonitor),
                  payload, network.now(), {}});
  }
  delta_log_.erase(id);
  live_answers_.erase(id);
}

void Coordinator::on_deltas(const DeltaBatch& batch) {
  for (const WireDelta& d : batch.deltas) {
    delta_log_[d.query].push_back({d.query, d.positive, d.detection});
    auto& live = live_answers_[d.query];
    if (d.positive) {
      live.emplace(d.detection.id.value(), d.detection);
    } else {
      live.erase(d.detection.id.value());
    }
    (d.positive ? deltas_positive_ : deltas_negative_).inc();
  }
}

std::vector<DeltaUpdate> Coordinator::drain_deltas(QueryId id) {
  auto it = delta_log_.find(id);
  if (it == delta_log_.end()) return {};
  std::vector<DeltaUpdate> out = std::move(it->second);
  it->second.clear();
  return out;
}

std::vector<Detection> Coordinator::live_answer(QueryId id) const {
  std::vector<Detection> out;
  auto it = live_answers_.find(id);
  if (it == live_answers_.end()) return out;
  out.reserve(it->second.size());
  for (const auto& [det_id, d] : it->second) out.push_back(d);
  std::sort(out.begin(), out.end(), [](const Detection& a, const Detection& b) {
    return a.id < b.id;
  });
  return out;
}

}  // namespace stcn
