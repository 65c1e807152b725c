#include "ledger.h"

#include <cstdio>

#include "core/protocol.h"

namespace perfbench {

using stcn::MsgType;

const char* layer_name(Layer layer) {
  switch (layer) {
    case Layer::kClientIngest: return "client.ingest";
    case Layer::kClientQuery: return "client.query";
    case Layer::kClientPath: return "client.path";
    case Layer::kClientSetup: return "client.setup";
    case Layer::kCoordRoute: return "coordinator.route";
    case Layer::kCoordSubmit: return "coordinator.submit";
    case Layer::kCoordPoll: return "coordinator.poll";
    case Layer::kCoordDrain: return "coordinator.drain";
    case Layer::kCoordHeartbeat: return "coordinator.heartbeat";
    case Layer::kCoordSummary: return "coordinator.summary";
    case Layer::kCoordResponse: return "coordinator.response";
    case Layer::kCoordOtherMsg: return "coordinator.other_msg";
    case Layer::kCoordTimer: return "coordinator.timer";
    case Layer::kNetPump: return "net.pump";
    case Layer::kWorkerApply: return "worker.apply";
    case Layer::kWorkerFragment: return "worker.fragment";
    case Layer::kWorkerOtherMsg: return "worker.other_msg";
    case Layer::kWorkerSnapshot: return "worker.snapshot";
    case Layer::kWorkerTick: return "worker.tick";
    case Layer::kReidFetch: return "reid.fetch";
    case Layer::kCount: break;
  }
  return "?";
}

// ------------------------------------------------------------------ Ledger

void Ledger::open(Layer provisional) {
  Frame f{provisional, Clock::now()};
  if (spans_.size() < kMaxSpans) {
    SpanRecord rec;
    rec.parent = stack_.empty() ? 0 : stack_.back().record;
    rec.request = request_;
    spans_.push_back(rec);
    f.record = static_cast<std::uint32_t>(spans_.size());
  } else {
    ++dropped_;
  }
  stack_.push_back(f);
}

void Ledger::close(Layer layer) {
  Clock::time_point end = Clock::now();
  Frame f = stack_.back();
  stack_.pop_back();
  double dur = std::chrono::duration<double>(end - f.start).count();
  Totals& t = totals_[static_cast<std::size_t>(layer)];
  t.self_s += dur - f.child_s;
  t.total_s += dur;
  ++t.calls;
  if (stack_.empty()) {
    top_level_s_ += dur;
  } else {
    stack_.back().child_s += dur;
  }
  if (f.record != 0) {
    SpanRecord& rec = spans_[f.record - 1];
    rec.layer = layer;
    rec.start_ns =
        std::chrono::duration_cast<std::chrono::nanoseconds>(f.start - origin_)
            .count();
    rec.end_ns =
        std::chrono::duration_cast<std::chrono::nanoseconds>(end - origin_)
            .count();
  }
}

std::uint64_t Ledger::events() const {
  std::uint64_t n = 0;
  for (Layer l : {Layer::kCoordHeartbeat, Layer::kCoordSummary,
                  Layer::kCoordResponse, Layer::kCoordOtherMsg,
                  Layer::kCoordTimer, Layer::kWorkerApply,
                  Layer::kWorkerFragment, Layer::kWorkerOtherMsg,
                  Layer::kWorkerSnapshot, Layer::kWorkerTick}) {
    n += totals(l).calls;
  }
  return n;
}

bool Ledger::write(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "# id\tparent\trequest\tname\tstart_ns\tend_ns\n");
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const SpanRecord& s = spans_[i];
    std::fprintf(f, "%zu\t%u\t%llu\t%s\t%lld\t%lld\n", i + 1, s.parent,
                 static_cast<unsigned long long>(s.request),
                 layer_name(s.layer), static_cast<long long>(s.start_ns),
                 static_cast<long long>(s.end_ns));
  }
  if (dropped_ > 0) {
    std::fprintf(f, "# %llu further spans not retained\n",
                 static_cast<unsigned long long>(dropped_));
  }
  return std::fclose(f) == 0;
}

const stcn::Counter& counter(const stcn::MetricsRegistry& m,
                            const char* name) {
  auto it = m.counters().find(name);
  STCN_CHECK(it != m.counters().end());
  return *it->second;
}

std::uint64_t counter_or_zero(const stcn::MetricsRegistry& m,
                              const char* name) {
  auto it = m.counters().find(name);
  return it == m.counters().end() ? 0 : it->second->value();
}

// --------------------------------------------------------------- NodeProxy

NodeProxy::NodeProxy(stcn::NetworkNode& inner, const stcn::WorkerNode* worker,
                     Ledger& ledger, LayerCounts& counts,
                     const bool& in_query)
    : inner_(inner), worker_(worker), ledger_(ledger), counts_(counts),
      in_query_(in_query) {
  if (worker_ != nullptr) {
    primary_ = &counter(worker_->metrics(), "ingested_primary");
    replica_ = &counter(worker_->metrics(), "ingested_replica");
    served_ = &counter(worker_->metrics(), "queries_served");
    snapshots_ = &counter(worker_->metrics(), "snapshots_taken");
  }
}

std::uint64_t NodeProxy::applied() const {
  return primary_->value() + replica_->value();
}

void NodeProxy::handle_message(const stcn::Message& message,
                               stcn::SimNetwork& network) {
  ledger_.open(Layer::kWorkerOtherMsg);
  if (worker_ == nullptr) {
    inner_.handle_message(message, network);
    switch (static_cast<MsgType>(message.type)) {
      case MsgType::kHeartbeat: ledger_.close(Layer::kCoordHeartbeat); break;
      case MsgType::kObjectSummary: ledger_.close(Layer::kCoordSummary); break;
      default:
        ledger_.close(in_query_ ? Layer::kCoordResponse
                                : Layer::kCoordOtherMsg);
    }
    return;
  }
  std::uint64_t applied_before = applied();
  std::uint64_t served_before = served_->value();
  inner_.handle_message(message, network);
  if (applied() != applied_before) {
    ledger_.close(Layer::kWorkerApply);
  } else if (served_->value() != served_before) {
    ledger_.close(Layer::kWorkerFragment);
  } else {
    ledger_.close(Layer::kWorkerOtherMsg);
  }
}

void NodeProxy::handle_timer(std::uint64_t token, stcn::SimNetwork& network) {
  ledger_.open(Layer::kWorkerTick);
  if (worker_ == nullptr) {
    inner_.handle_timer(token, network);
    ledger_.close(Layer::kCoordTimer);
    return;
  }
  std::uint64_t snaps_before = snapshots_->value();
  inner_.handle_timer(token, network);
  if (snapshots_->value() == snaps_before) {
    ledger_.close(Layer::kWorkerTick);
    return;
  }
  ledger_.close(Layer::kWorkerSnapshot);
  // Bytes this tick wrote: the vault entries stamped with the tick's time.
  for (const auto& [p, snap] : worker_->snapshot_vault()) {
    if (snap.taken_at == network.now()) {
      counts_.snapshot_bytes_written += snap.store_bytes.size();
    }
  }
}

// ------------------------------------------------------------------ Client

Client::Client(stcn::Cluster& cluster, stcn::Rect world, Ledger* ledger,
               Recorder& recorder, LayerCounts* counts)
    : cluster_(cluster), ledger_(ledger), recorder_(recorder),
      counts_(counts) {
  if (ledger_ == nullptr) return;
  STCN_CHECK(counts_ != nullptr);
  messages_ = &counter(cluster_.network().metrics(), "messages_sent");
  bytes_ = &counter(cluster_.network().metrics(), "bytes_sent");
  // Same configuration as the estimator inside stcn::Cluster.
  estimator_.emplace(stcn::SelectivityConfig{
      world, 16, 16, stcn::Duration::minutes(1), 32});
  stcn::SimNetwork& net = cluster_.network();
  auto swap_in = [&](stcn::NetworkNode& node,
                     const stcn::WorkerNode* worker) {
    proxies_.push_back(std::make_unique<NodeProxy>(node, worker, *ledger_,
                                                   *counts_, in_query_));
    net.detach(node.node_id());
    net.attach(*proxies_.back());
  };
  swap_in(cluster_.coordinator(), nullptr);
  for (stcn::WorkerId w : cluster_.worker_ids()) {
    stcn::WorkerNode& worker = cluster_.worker(w);
    swap_in(worker, &worker);
  }
}

Client::~Client() {
  if (proxies_.empty()) return;
  stcn::SimNetwork& net = cluster_.network();
  net.detach(cluster_.coordinator().node_id());
  net.attach(cluster_.coordinator());
  for (stcn::WorkerId w : cluster_.worker_ids()) {
    net.detach(cluster_.worker(w).node_id());
    net.attach(cluster_.worker(w));
  }
}

void Client::ingest(std::span<const stcn::Detection> chunk, bool warmup) {
  Clock::time_point start = Clock::now();
  if (ledger_ == nullptr) {
    cluster_.ingest_all(chunk);
  } else {
    std::uint64_t messages = messages_->value();
    std::uint64_t bytes = bytes_->value();
    replay_ingest(chunk);
    counts_->ingest_wall_s += seconds_since(start);
    counts_->dets += chunk.size();
    counts_->ingest_messages += messages_->value() - messages;
    counts_->ingest_bytes += bytes_->value() - bytes;
  }
  if (!warmup) {
    recorder_.ingest_wall_s += seconds_since(start);
    recorder_.ingest_dets += chunk.size();
  }
}

void Client::replay_ingest(std::span<const stcn::Detection> chunk) {
  // Cluster::ingest_all, call for call.
  stcn::SimNetwork& net = cluster_.network();
  stcn::Coordinator& coord = cluster_.coordinator();
  Scope root(ledger_, Layer::kClientIngest);
  for (const stcn::Detection& d : chunk) {
    if (d.time > net.now()) {
      Scope pump(ledger_, Layer::kNetPump);
      net.run_until_idle(d.time);
    }
    Scope route(ledger_, Layer::kCoordRoute);
    coord.ingest(d, net);
  }
  {
    Scope route(ledger_, Layer::kCoordRoute);
    coord.flush_ingest(net);
  }
  Scope pump(ledger_, Layer::kNetPump);
  // Cluster::pump() with its default horizon.
  net.run_until_idle(net.now() + stcn::Duration::seconds(2));
}

stcn::QueryResult Client::execute(const stcn::Query& query) {
  stcn::TimePoint sim_start = cluster_.now();
  Clock::time_point start = Clock::now();
  stcn::QueryResult result;
  if (ledger_ == nullptr) {
    result = cluster_.execute(query);
  } else {
    std::uint64_t messages = messages_->value();
    std::uint64_t bytes = bytes_->value();
    result = replay_execute(query);
    ++counts_->queries;
    counts_->query_messages += messages_->value() - messages;
    counts_->query_bytes += bytes_->value() - bytes;
  }
  double wall_s = seconds_since(start);
  recorder_.query_wall_s += wall_s;
  recorder_.query_wall_us.push_back(wall_s * 1e6);
  recorder_.query_sim_us.push_back(
      static_cast<double>((cluster_.now() - sim_start).count_micros()));
  recorder_.query_kind.push_back(static_cast<std::uint8_t>(query.kind));
  return result;
}

stcn::QueryResult Client::replay_execute(const stcn::Query& query) {
  // Cluster::execute, call for call: root trace span, selectivity estimate,
  // submit, step until complete, poll, then the feedback loop. The root
  // span's self time is the framework's own work.
  using stcn::QueryKind;
  stcn::SimNetwork& net = cluster_.network();
  stcn::Coordinator& coord = cluster_.coordinator();
  stcn::Tracer& tracer = cluster_.tracer();
  ledger_->set_request(query.id.value());
  Scope root(ledger_, Layer::kClientQuery);
  in_query_ = true;

  stcn::TraceContext trace;
  if (tracer.enabled()) trace = tracer.start_trace("gateway.execute", 0,
                                                   net.now());
  double estimated = -1.0;
  switch (query.kind) {
    case QueryKind::kRange:
    case QueryKind::kHeatmap:
      estimated = estimator_->estimate(query.region, query.interval);
      break;
    case QueryKind::kCircle:
      estimated =
          estimator_->estimate(query.circle.bounding_box(), query.interval);
      break;
    default:
      break;
  }

  std::uint64_t request = 0;
  {
    Scope s(ledger_, Layer::kCoordSubmit);
    request = coord.submit(query, net, trace, estimated);
  }
  while (!coord.is_complete(request)) {
    Scope s(ledger_, Layer::kNetPump);
    if (!net.step()) break;
  }
  std::optional<stcn::QueryResult> result;
  {
    Scope s(ledger_, Layer::kCoordPoll);
    result = coord.poll(request);
  }
  STCN_CHECK(result.has_value());
  in_query_ = false;
  if (trace.valid()) {
    tracer.tag(trace, "results", std::to_string(result->detections.size()));
    tracer.end_span(trace, net.now());
  }
  double actual = query.kind == QueryKind::kHeatmap
                      ? static_cast<double>(result->total_count())
                      : static_cast<double>(result->detections.size());
  if (estimated >= 0.0) coord.observe_estimate_error(estimated, actual);
  switch (query.kind) {
    case QueryKind::kRange:
      estimator_->observe(query.region, query.interval,
                          result->detections.size());
      break;
    case QueryKind::kCircle:
      estimator_->observe(query.circle.bounding_box(), query.interval,
                          result->detections.size());
      break;
    case QueryKind::kHeatmap:
      estimator_->observe(query.region, query.interval,
                          result->total_count());
      break;
    default:
      break;
  }
  return std::move(*result);
}

// -------------------------------------------------------------- re-id sources

std::vector<stcn::Detection> TimedSource::detections_at(
    stcn::CameraId camera, const stcn::TimeInterval& window) const {
  ++fetches_;
  Scope fetch(ledger_, Layer::kReidFetch);
  return inner_.detections_at(camera, window);
}

std::vector<stcn::CameraId> ClientSource::all_cameras() const {
  std::vector<stcn::CameraId> out;
  out.reserve(cameras_.size());
  for (const stcn::Camera& cam : cameras_.cameras()) out.push_back(cam.id);
  return out;
}

}  // namespace perfbench
