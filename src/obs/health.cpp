#include "obs/health.h"

#include <algorithm>

namespace stcn {

namespace {

constexpr char kSep = '\x1f';

// Burn over `window`: event deltas against the newest sample at least
// `window` old, or the oldest retained one while the rings warm up; with no
// sample yet, the window covers everything since start.
double burn_over(const SloState& s, TimePoint now, Duration window,
                 double good_now, double total_now) {
  double good_then = 0.0;
  double total_then = 0.0;
  if (s.total.size() > 0) {
    std::size_t i = s.total.baseline_index(now - window);
    good_then = s.good.at(i);
    total_then = s.total.at(i);
  }
  double dt_total = total_now - total_then;
  if (dt_total <= 0.0) return 0.0;  // no traffic in window → no burn
  double dt_bad = std::max(0.0, dt_total - (good_now - good_then));
  double error_rate = dt_bad / dt_total;
  double budget = 1.0 - s.objective;
  if (budget <= 0.0) return error_rate > 0.0 ? 1e9 : 0.0;
  return error_rate / budget;
}

}  // namespace

std::vector<AlertRule> default_health_rules(const HealthThresholds& t) {
  std::vector<AlertRule> rules;

  // Retransmit storm: the reliable channel is fighting loss or a partition.
  // Every node has a channel, so no source filter — the subject is the
  // node whose channel is storming.
  AlertRule retransmit;
  retransmit.name = "retransmit_storm";
  retransmit.metric = "retransmits";
  retransmit.kind = MetricKind::kCounterRate;
  retransmit.threshold = t.retransmit_rate_per_s;
  retransmit.severity = AlertSeverity::kDegraded;
  rules.push_back(std::move(retransmit));

  // Hedge-win spike: backups keep beating one primary — the classic gray
  // failure signature. Coordinator-side per-peer counter; the wildcard
  // capture (the peer's node id) indicts the slow worker.
  AlertRule hedge;
  hedge.name = "hedge_win_spike";
  hedge.metric = "peer.*.hedge_wins";
  hedge.kind = MetricKind::kCounterRate;
  hedge.threshold = t.hedge_win_rate_per_s;
  hedge.severity = AlertSeverity::kSuspect;
  hedge.source_filter = "coordinator";
  hedge.subject_prefix = "worker.";
  rules.push_back(std::move(hedge));

  // Per-node latency burn: windowed mean of one peer's fragment round-trip
  // (delta sum / delta count between samples), so it both fires under slow
  // responses and resolves on fresh fast evidence after healing.
  AlertRule burn;
  burn.name = "latency_burn";
  burn.metric = "peer.*.fragment_latency_us";
  burn.kind = MetricKind::kHistogramMean;
  burn.threshold = t.fragment_latency_mean_us;
  burn.severity = AlertSeverity::kSuspect;
  burn.source_filter = "coordinator";
  burn.subject_prefix = "worker.";
  rules.push_back(std::move(burn));

  // Queue buildup: unacked reliable frames piling up at a node.
  AlertRule queue;
  queue.name = "queue_buildup";
  queue.metric = "unacked_frames";
  queue.kind = MetricKind::kGaugeLevel;
  queue.threshold = t.queue_depth_frames;
  queue.severity = AlertSeverity::kDegraded;
  rules.push_back(std::move(queue));

  // Ingest stall: the coordinator's ingest rate fell below the floor.
  // kBelow rules only arm once the counter has moved, so an idle cluster
  // (or one that never ingested) stays healthy.
  AlertRule stall;
  stall.name = "ingest_stall";
  stall.metric = "ingested";
  stall.kind = MetricKind::kCounterRate;
  stall.compare = AlertComparison::kBelow;
  stall.threshold = t.ingest_stall_rate_per_s;
  stall.for_samples = 3;
  stall.severity = AlertSeverity::kDegraded;
  stall.source_filter = "coordinator";
  rules.push_back(std::move(stall));

  // Recovery stalled: the coordinator still has partitions parked in the
  // RECOVERING state after several samples — a rejoining worker is not
  // catching up (holder down, lossy link, or exchange ladder burning).
  AlertRule stalled;
  stalled.name = "recovery_stalled";
  stalled.metric = "partitions_recovering";
  stalled.kind = MetricKind::kGaugeLevel;
  stalled.threshold = t.partitions_recovering_level;
  stalled.for_samples = 6;
  stalled.severity = AlertSeverity::kDegraded;
  stalled.source_filter = "coordinator";
  rules.push_back(std::move(stalled));

  // Resync retry storm: a recovering worker's sync exchanges keep timing
  // out and walking their backoff ladder — the delta/full resync path is
  // fighting loss or a dead holder.
  AlertRule resync;
  resync.name = "resync_retry_storm";
  resync.metric = "resync_exchange_retries";
  resync.kind = MetricKind::kCounterRate;
  resync.threshold = t.resync_retry_rate_per_s;
  resync.for_samples = 3;
  resync.severity = AlertSeverity::kDegraded;
  resync.source_filter = "worker.*";
  rules.push_back(std::move(resync));

  // Partition imbalance: the heat observatory's relative stddev of
  // per-partition load (stddev/mean over the coordinator's HeatMapSnapshot)
  // stays high — ingest or scan load is concentrating instead of spreading.
  AlertRule imbalance;
  imbalance.name = "partition_imbalance";
  imbalance.metric = "partition.load_relative_stddev";
  imbalance.kind = MetricKind::kGaugeLevel;
  imbalance.threshold = t.partition_load_relative_stddev;
  imbalance.for_samples = 3;
  imbalance.resolve_samples = 3;
  imbalance.severity = AlertSeverity::kDegraded;
  imbalance.source_filter = "coordinator";
  rules.push_back(std::move(imbalance));

  // Hot partition: one partition's load dwarfs the coldest — the signal
  // the PlacementAdvisor turns into a split/migrate recommendation.
  AlertRule hot;
  hot.name = "hot_partition";
  hot.metric = "partition.hot_cold_ratio";
  hot.kind = MetricKind::kGaugeLevel;
  hot.threshold = t.hot_partition_ratio;
  hot.for_samples = 3;
  hot.resolve_samples = 3;
  hot.severity = AlertSeverity::kDegraded;
  hot.source_filter = "coordinator";
  rules.push_back(std::move(hot));

  // SLOs, last so that each sample's events keep their order. Availability:
  // a partial answer (failover retries exhausted, no replica to take over)
  // spends the budget.
  constexpr double kAvailabilityObjective = 0.99;
  constexpr double kLatencyObjective = 0.90;
  AlertRule avail;
  avail.name = "slo:query_availability";
  avail.metric = "queries_submitted";
  avail.kind = MetricKind::kCounterBurn;
  avail.bad_metric = "queries_partial";
  avail.objective = kAvailabilityObjective;
  avail.threshold = 1.0;
  avail.severity = AlertSeverity::kSuspect;
  avail.source_filter = "coordinator";
  avail.short_window = t.slo_short_window;
  avail.long_window = t.slo_long_window;
  rules.push_back(std::move(avail));

  // Latency: the share of queries finishing under the threshold. A gray-slow
  // worker burns this budget long before anything goes partial.
  AlertRule latency;
  latency.name = "slo:query_latency";
  latency.metric = "query_latency_us";
  latency.kind = MetricKind::kHistogramBurn;
  latency.bad_above = t.slo_latency_threshold_us;
  latency.objective = kLatencyObjective;
  latency.threshold = 1.0;
  latency.severity = AlertSeverity::kDegraded;
  latency.source_filter = "coordinator";
  latency.short_window = t.slo_short_window;
  latency.long_window = t.slo_long_window;
  rules.push_back(std::move(latency));

  return rules;
}

bool HealthMonitor::wildcard_match(const std::string& pattern,
                                   const std::string& name,
                                   std::string* capture) {
  std::size_t star = pattern.find('*');
  if (star == std::string::npos) {
    if (pattern != name) return false;
    capture->clear();
    return true;
  }
  std::string prefix = pattern.substr(0, star);
  std::string suffix = pattern.substr(star + 1);
  if (name.size() < prefix.size() + suffix.size()) return false;
  if (name.compare(0, prefix.size(), prefix) != 0) return false;
  if (name.compare(name.size() - suffix.size(), suffix.size(), suffix) !=
      0) {
    return false;
  }
  *capture =
      name.substr(prefix.size(), name.size() - prefix.size() - suffix.size());
  return true;
}

bool HealthMonitor::source_matches(const std::string& filter,
                                   const std::string& source) {
  if (filter.empty()) return true;
  if (!filter.empty() && filter.back() == '*') {
    std::string prefix = filter.substr(0, filter.size() - 1);
    return source.compare(0, prefix.size(), prefix) == 0;
  }
  return filter == source;
}

void HealthMonitor::sample(TimePoint now) {
  double dt =
      samples_ == 0 ? 0.0 : (now - last_sample_).to_seconds();
  for (const AlertRule& rule : rules_) {
    for (const Source& src : sources_) {
      if (!source_matches(rule.source_filter, src.name)) continue;
      sample_rule(rule, src, now, dt);
    }
  }
  last_sample_ = now;
  ++samples_;
}

void HealthMonitor::sample_rule(const AlertRule& rule, const Source& src,
                                TimePoint now, double dt_seconds) {
  // Expand the rule's metric pattern against the right metric family.
  std::string capture;
  auto visit = [&](const std::string& metric_name, auto&& read_value) {
    if (!wildcard_match(rule.metric, metric_name, &capture)) return;
    // Series state is per (source, metric, kind, rule): two rules over the
    // same metric must not consume each other's deltas.
    std::string key = src.name;
    key += kSep;
    key += metric_name;
    key += kSep;
    key += std::to_string(static_cast<int>(rule.kind));
    key += kSep;
    key += rule.name;
    SeriesState& state = series_[key];

    double value = 0.0;
    bool ready = false;  // false freezes the alert streaks (no evidence)
    read_value(state, value, ready);
    if (!ready) return;
    if (rule.compare == AlertComparison::kBelow && !state.armed) return;
    evaluate(rule, src.name, metric_name, capture, value, now);
  };

  switch (rule.kind) {
    case MetricKind::kCounterRate: {
      for (const auto& [name, c] : src.registry->counters()) {
        double raw = static_cast<double>(c->value());
        visit(name, [&](SeriesState& st, double& value, bool& ready) {
          if (raw > 0.0) st.armed = true;
          if (st.has_prev && dt_seconds > 0.0) {
            // Clamped at zero: counters are monotonic and a worker restart
            // keeps its registry, but a source whose registry is replaced
            // goes backwards, and a negative "rate" would both evade kAbove
            // rules and spuriously breach kBelow floors.
            value = raw >= st.prev_a ? (raw - st.prev_a) / dt_seconds : 0.0;
            ready = true;
          }
          st.prev_a = raw;
          st.has_prev = true;
        });
      }
      break;
    }
    case MetricKind::kGaugeLevel: {
      for (const auto& [name, g] : src.registry->gauges()) {
        double raw = g->value();
        visit(name, [&](SeriesState& st, double& value, bool& ready) {
          if (raw != 0.0) st.armed = true;
          value = raw;
          ready = true;
        });
      }
      break;
    }
    case MetricKind::kHistogramMean: {
      for (const auto& [name, h] : src.registry->histograms()) {
        double count = static_cast<double>(h->count());
        double sum = h->sum();
        visit(name, [&](SeriesState& st, double& value, bool& ready) {
          if (count > 0.0) st.armed = true;
          if (st.has_prev && count > st.prev_a) {
            // Windowed mean over only the observations since last sample.
            value = (sum - st.prev_b) / (count - st.prev_a);
            ready = true;
          }
          st.prev_a = count;
          st.prev_b = sum;
          st.has_prev = true;
        });
      }
      break;
    }
    case MetricKind::kHistogramP99: {
      for (const auto& [name, h] : src.registry->histograms()) {
        double p99 = h->p99();
        bool lit = h->count() > 0;
        visit(name, [&](SeriesState& st, double& value, bool& ready) {
          if (lit) st.armed = true;
          value = p99;
          ready = lit;
        });
      }
      break;
    }
    case MetricKind::kCounterBurn:
    case MetricKind::kHistogramBurn:
      sample_burn(rule, src, now);
      break;
  }
}

void HealthMonitor::sample_burn(const AlertRule& rule, const Source& src,
                                TimePoint now) {
  double good = 0.0;
  double total = 0.0;
  if (rule.kind == MetricKind::kCounterBurn) {
    const auto& counters = src.registry->counters();
    auto t = counters.find(rule.metric);
    if (t == counters.end()) return;
    auto b = counters.find(rule.bad_metric);
    double bad =
        b == counters.end() ? 0.0 : static_cast<double>(b->second->value());
    total = static_cast<double>(t->second->value());
    good = std::max(0.0, total - bad);
  } else {
    auto h = src.registry->histograms().find(rule.metric);
    if (h == src.registry->histograms().end()) return;
    total = static_cast<double>(h->second->count());
    good = h->second->count_at_or_below(rule.bad_above);
  }

  auto it = std::find_if(slos_.begin(), slos_.end(), [&](const SloState& s) {
    return s.rule == rule.name && s.source == src.name;
  });
  if (it == slos_.end()) {
    it = slos_.insert(slos_.end(),
                      SloState(rule, src.name, config_.ring_capacity));
  }
  SloState& s = *it;
  double short_burn = burn_over(s, now, rule.short_window, good, total);
  double long_burn = burn_over(s, now, rule.long_window, good, total);
  s.good.push(now, good);
  s.total.push(now, total);
  s.burn_short.push(now, short_burn);
  s.burn_long.push(now, long_burn);
  evaluate(rule, src.name, "slo." + s.name(), /*capture=*/"",
           std::min(short_burn, long_burn), now);
}

void HealthMonitor::evaluate(const AlertRule& rule,
                             const std::string& source,
                             const std::string& metric,
                             const std::string& capture, double value,
                             TimePoint now) {
  std::string key = rule.name;
  key += kSep;
  key += source;
  key += kSep;
  key += metric;
  auto it = alerts_.find(key);
  if (it == alerts_.end()) {
    AlertState fresh;
    fresh.rule = rule.name;
    fresh.source = source;
    fresh.metric = metric;
    fresh.subject =
        capture.empty() ? source : rule.subject_prefix + capture;
    fresh.severity = rule.severity;
    it = alerts_.emplace(std::move(key), std::move(fresh)).first;
  }
  AlertState& state = it->second;
  state.last_value = value;

  bool breach = rule.compare == AlertComparison::kAbove
                    ? value > rule.threshold
                    : value < rule.threshold;
  if (breach) {
    ++state.breach_streak;
    state.clear_streak = 0;
    if (!state.firing && state.breach_streak >= rule.for_samples) {
      state.firing = true;
      ++state.times_fired;
      state.last_transition = now;
      events_.append({now, "firing", rule.name, source, state.subject,
                      alert_severity_name(rule.severity), value,
                      rule.threshold});
    }
  } else {
    ++state.clear_streak;
    state.breach_streak = 0;
    if (state.firing && state.clear_streak >= rule.resolve_samples) {
      state.firing = false;
      state.last_transition = now;
      events_.append({now, "resolved", rule.name, source, state.subject,
                      alert_severity_name(rule.severity), value,
                      rule.threshold});
    }
  }
}

std::vector<const AlertState*> HealthMonitor::alerts() const {
  std::vector<const AlertState*> out;
  out.reserve(alerts_.size());
  for (const auto& [key, state] : alerts_) out.push_back(&state);
  return out;
}

std::vector<const AlertState*> HealthMonitor::firing() const {
  std::vector<const AlertState*> out;
  for (const auto& [key, state] : alerts_) {
    if (state.firing) out.push_back(&state);
  }
  return out;
}

bool HealthMonitor::is_firing(const std::string& rule,
                              const std::string& subject) const {
  for (const auto& [key, state] : alerts_) {
    if (!state.firing || state.rule != rule) continue;
    if (!subject.empty() && state.subject != subject) continue;
    return true;
  }
  return false;
}

ClusterHealth HealthMonitor::health() const {
  ClusterHealth h;
  h.as_of = last_sample_;
  for (const Source& src : sources_) {
    h.nodes.emplace(src.name, HealthStatus::kHealthy);
  }
  for (const auto& [key, state] : alerts_) {
    if (!state.firing) continue;
    HealthStatus status = state.severity == AlertSeverity::kSuspect
                              ? HealthStatus::kSuspect
                              : HealthStatus::kDegraded;
    HealthStatus& current = h.nodes[state.subject];
    if (static_cast<int>(status) > static_cast<int>(current)) {
      current = status;
    }
  }
  return h;
}

void HealthMonitor::append_slo_json(obs::JsonWriter& w) const {
  w.begin_array();
  for (const SloState& s : slos_) {
    w.begin_object();
    w.key("name");
    w.value(s.name());
    w.key("objective");
    w.value(s.objective);
    w.key("burn_short");
    w.value(s.burn_short.back());
    w.key("burn_long");
    w.value(s.burn_long.back());
    w.key("burn_threshold");
    w.value(s.burn_threshold);
    w.key("good");
    w.value(static_cast<std::uint64_t>(s.good.back()));
    w.key("total");
    w.value(static_cast<std::uint64_t>(s.total.back()));
    w.key("firing");
    w.value(is_firing(s.rule, s.source));
    w.key("burn_series");
    w.begin_array();
    for (std::size_t i = 0; i < s.burn_short.size(); ++i) {
      w.begin_array();
      w.value(s.burn_short.time_at(i).micros_since_origin());
      w.value(s.burn_short.at(i));
      w.value(s.burn_long.at(i));
      w.end_array();
    }
    w.end_array();
    w.end_object();
  }
  w.end_array();
}

std::string HealthMonitor::to_json() const {
  obs::JsonWriter w;
  w.begin_object();
  w.key("samples");
  w.value(samples_);
  w.key("as_of_us");
  w.value(last_sample_.micros_since_origin());
  ClusterHealth h = health();
  w.key("nodes");
  w.begin_object();
  for (const auto& [node, status] : h.nodes) {
    w.key(node);
    w.value(health_status_name(status));
  }
  w.end_object();
  w.key("alerts");
  w.begin_array();
  for (const auto& [key, state] : alerts_) {
    w.begin_object();
    w.key("rule");
    w.value(state.rule);
    w.key("source");
    w.value(state.source);
    w.key("metric");
    w.value(state.metric);
    w.key("subject");
    w.value(state.subject);
    w.key("severity");
    w.value(alert_severity_name(state.severity));
    w.key("firing");
    w.value(state.firing);
    w.key("times_fired");
    w.value(state.times_fired);
    w.key("last_value");
    w.value(state.last_value);
    w.end_object();
  }
  w.end_array();
  w.key("events");
  events_.append_json(w);
  w.end_object();
  return w.take();
}

}  // namespace stcn
