// Continuous cluster health monitoring with rule-based alerting.
//
// A HealthMonitor samples a set of live MetricsRegistry sources ("net",
// "coordinator", "worker.<id>") on the sim clock. Each sample derives a
// per-metric value — counter *rate* (delta / dt), gauge *level*, or
// histogram windowed mean / cumulative p99 — into a fixed-size ring-buffer
// time series, then evaluates declarative AlertRules against it.
//
// Rules are hysteretic: a rule must breach for `for_samples` consecutive
// samples to fire, and clear for `resolve_samples` consecutive samples to
// resolve; each transition appends a structured HealthEvent. A one-`*`
// wildcard in the metric name fans a rule out across matching metrics
// (e.g. the coordinator's per-peer `peer.*.fragment_latency_us`), with the
// captured segment naming the alert's subject node — that is how a
// coordinator-side observation ("worker 3's fragments got slow") indicts
// the worker rather than the coordinator.
//
// SLOs are rules too: a burn-rate rule turns cumulative (good, total) event
// counts into an error-budget burn over a short and a long window,
//
//   burn(W) = error_rate(W) / (1 - objective),
//
// where error_rate(W) is the share of bad events among those inside W.
// burn == 1 spends the budget exactly at the rate that exhausts it by the
// end of the SLO period. The rule evaluates min(short, long) — the short
// window proves it is happening now, the long one that it is not a blip —
// through the same hysteresis and event log as every other rule.
//
// ClusterHealth reduces firing alerts to a per-node status
// (healthy/degraded/suspect) that chaos tests assert against: gray-failure
// injection must drive the victim to `suspect` within a bounded number of
// samples, and healing must return it to `healthy`.
#pragma once

#include <algorithm>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "common/time.h"
#include "obs/event_log.h"
#include "obs/json.h"
#include "obs/metrics.h"

namespace stcn {

enum class HealthStatus { kHealthy = 0, kDegraded = 1, kSuspect = 2 };

[[nodiscard]] inline const char* health_status_name(HealthStatus s) {
  switch (s) {
    case HealthStatus::kHealthy: return "healthy";
    case HealthStatus::kDegraded: return "degraded";
    case HealthStatus::kSuspect: return "suspect";
  }
  return "unknown";
}

enum class AlertSeverity { kDegraded, kSuspect };

[[nodiscard]] inline const char* alert_severity_name(AlertSeverity s) {
  return s == AlertSeverity::kSuspect ? "suspect" : "degraded";
}

/// How a sampled metric becomes the rule's evaluated value.
enum class MetricKind {
  kCounterRate,     // (raw - prev) / dt, per second
  kGaugeLevel,      // instantaneous gauge value
  kHistogramMean,   // windowed mean: delta(sum) / delta(count)
  kHistogramP99,    // cumulative p99 level
  kCounterBurn,     // burn rate: `metric` counts events, `bad_metric` bad ones
  kHistogramBurn,   // burn rate: observations above `bad_above` are bad
};

enum class AlertComparison { kAbove, kBelow };

struct AlertRule {
  std::string name;
  /// Metric to watch. At most one '*' wildcard, matching one name segment
  /// or more ("peer.*.hedge_wins"); the capture becomes the subject.
  std::string metric;
  MetricKind kind = MetricKind::kCounterRate;
  AlertComparison compare = AlertComparison::kAbove;
  double threshold = 0.0;
  /// Consecutive breaching samples before the alert fires.
  int for_samples = 2;
  /// Consecutive clear samples before a firing alert resolves.
  int resolve_samples = 2;
  AlertSeverity severity = AlertSeverity::kDegraded;
  /// Restrict to sources with this exact name, or prefix when it ends with
  /// '*' ("worker.*"). Empty = every source.
  std::string source_filter;
  /// Subject = subject_prefix + wildcard capture (or the source name when
  /// the metric has no wildcard).
  std::string subject_prefix;
  /// Burn-rate kinds only: the target share of good events, and the two
  /// windows (sim clock) whose weaker burn is compared with `threshold`.
  /// `metric` is literal and names the total; the alert's metric is
  /// "slo.<name>" (see SloState::name).
  double objective = 0.99;
  Duration short_window = Duration::minutes(5);
  Duration long_window = Duration::hours(1);
  std::string bad_metric;  // kCounterBurn
  double bad_above = 0.0;  // kHistogramBurn
};

/// Tuning knobs for the default rule set.
struct HealthThresholds {
  double retransmit_rate_per_s = 50.0;
  double hedge_win_rate_per_s = 0.5;
  double queue_depth_frames = 64.0;
  double ingest_stall_rate_per_s = 1.0;
  double fragment_latency_mean_us = 5'000.0;
  double partitions_recovering_level = 0.5;
  double resync_retry_rate_per_s = 2.0;
  /// Relative stddev (stddev/mean) of per-partition load above which the
  /// cluster counts as imbalanced.
  double partition_load_relative_stddev = 1.0;
  /// Hottest/coldest partition load ratio above which one partition is
  /// flagged hot (coldest load floored at 1 so the ratio is defined).
  double hot_partition_ratio = 8.0;
  /// A query slower than this spends the latency SLO's error budget.
  double slo_latency_threshold_us = 25'000.0;
  /// Burn-rate windows (sim clock) of the default SLO rules. Tests shrink
  /// these so a chaos scenario burns visibly within seconds.
  Duration slo_short_window = Duration::minutes(5);
  Duration slo_long_window = Duration::hours(1);
};

/// The default rule set: retransmit storm, hedge-win spike, per-node
/// latency burn, queue buildup, ingest stall, recovery and resync trouble,
/// partition skew, then the query availability and latency SLOs.
[[nodiscard]] std::vector<AlertRule> default_health_rules(
    const HealthThresholds& t = {});

/// Per-(rule, source, metric) alert state machine.
struct AlertState {
  std::string rule;
  std::string source;
  std::string metric;   // concrete (wildcard-expanded) name
  std::string subject;
  AlertSeverity severity = AlertSeverity::kDegraded;
  bool firing = false;
  int breach_streak = 0;
  int clear_streak = 0;
  double last_value = 0.0;
  std::uint64_t times_fired = 0;
  TimePoint last_transition;
};

/// Per-node health rollup derived from firing alerts.
struct ClusterHealth {
  TimePoint as_of;
  std::map<std::string, HealthStatus> nodes;

  [[nodiscard]] HealthStatus status(const std::string& node) const {
    auto it = nodes.find(node);
    return it == nodes.end() ? HealthStatus::kHealthy : it->second;
  }
};

/// Fixed-capacity ring buffer of (time, value) samples. at(0) is the oldest
/// retained sample, at(size()-1) the newest.
class TimeSeries {
 public:
  explicit TimeSeries(std::size_t capacity)
      : values_(capacity), times_(capacity) {}

  void push(TimePoint t, double v) {
    if (values_.empty()) return;
    std::size_t slot = (head_ + count_) % values_.size();
    if (count_ == values_.size()) {
      head_ = (head_ + 1) % values_.size();
      slot = (head_ + count_ - 1) % values_.size();
    } else {
      ++count_;
    }
    values_[slot] = v;
    times_[slot] = t;
  }

  [[nodiscard]] std::size_t size() const { return count_; }
  [[nodiscard]] std::size_t capacity() const { return values_.size(); }
  [[nodiscard]] double at(std::size_t i) const {
    return values_[(head_ + i) % values_.size()];
  }
  [[nodiscard]] TimePoint time_at(std::size_t i) const {
    return times_[(head_ + i) % values_.size()];
  }
  /// Newest sample, or 0 when the ring is empty.
  [[nodiscard]] double back() const {
    return count_ == 0 ? 0.0 : at(count_ - 1);
  }

  /// Index of the newest sample at least as old as `cutoff` — the baseline
  /// for a windowed delta. When the ring has wrapped and no longer reaches
  /// back to `cutoff`, the oldest retained sample (index 0) is the best
  /// available baseline. Requires size() > 0.
  [[nodiscard]] std::size_t baseline_index(TimePoint cutoff) const {
    for (std::size_t i = count_; i-- > 0;) {
      if (time_at(i) <= cutoff || i == 0) return i;
    }
    return 0;
  }

  /// Windowed per-second rate of a cumulative series: value delta from the
  /// newest sample at least `window` old to the newest sample, divided by
  /// the span those samples actually cover. Dividing by the *actual* span
  /// rather than the nominal window is the wraparound seam fix: right
  /// after the ring wraps, the oldest retained sample is newer than
  /// `now - window`, and a nominal divisor undercounts the first window
  /// past the seam. Clamped at zero so counter resets (a restarted
  /// subject) never yield negative rates. Zero when fewer than 2 samples.
  [[nodiscard]] double rate_over(TimePoint now, Duration window) const {
    if (count_ < 2) return 0.0;
    std::size_t base = baseline_index(now - window);
    Duration span = time_at(count_ - 1) - time_at(base);
    if (span <= Duration::zero()) return 0.0;
    double rate = (back() - at(base)) / span.to_seconds();
    return rate > 0.0 ? rate : 0.0;
  }

  /// Windowed value delta (same baseline rule as rate_over), clamped >= 0.
  [[nodiscard]] double delta_over(TimePoint now, Duration window) const {
    if (count_ == 0) return 0.0;
    double delta = back() - at(baseline_index(now - window));
    return delta > 0.0 ? delta : 0.0;
  }

 private:
  std::vector<double> values_;
  std::vector<TimePoint> times_;
  std::size_t head_ = 0;
  std::size_t count_ = 0;
};

/// One burn-rate rule at one source: the samples behind an SLO.
struct SloState {
  std::string rule;    // "slo:query_latency"
  std::string source;  // also the alert's subject
  double objective = 0.0;
  double burn_threshold = 0.0;
  TimeSeries good;        // cumulative good events per sample
  TimeSeries total;       // cumulative events per sample
  TimeSeries burn_short;  // burn over the short window per sample
  TimeSeries burn_long;

  SloState(const AlertRule& spec, std::string src, std::size_t capacity)
      : rule(spec.name), source(std::move(src)),
        objective(spec.objective), burn_threshold(spec.threshold),
        good(capacity), total(capacity), burn_short(capacity),
        burn_long(capacity) {}

  /// The rule name without its "slo:" prefix ("query_latency").
  [[nodiscard]] std::string name() const {
    return rule.rfind("slo:", 0) == 0 ? rule.substr(4) : rule;
  }
  /// The value the rule evaluates: min(short, long) of the newest sample.
  [[nodiscard]] double burn() const {
    return std::min(burn_short.back(), burn_long.back());
  }
};

struct HealthMonitorConfig {
  /// Ring-buffer capacity of each SLO's burn-rate series.
  std::size_t ring_capacity = 128;
  std::size_t event_capacity = 256;
};

class HealthMonitor {
 public:
  explicit HealthMonitor(HealthMonitorConfig config = {})
      : config_(config), events_(config.event_capacity) {}

  HealthMonitor(const HealthMonitor&) = delete;
  HealthMonitor& operator=(const HealthMonitor&) = delete;

  /// Registers a live registry to sample. `registry` must outlive the
  /// monitor. Source names double as node names in ClusterHealth.
  void add_source(std::string name, const MetricsRegistry* registry) {
    sources_.push_back({std::move(name), registry});
  }
  void add_rule(AlertRule rule) { rules_.push_back(std::move(rule)); }
  void add_default_rules(const HealthThresholds& t = {}) {
    for (AlertRule& r : default_health_rules(t)) add_rule(std::move(r));
  }

  /// Takes one sample of every source: derives series values, evaluates
  /// every rule, records firing/resolved transitions.
  void sample(TimePoint now);

  [[nodiscard]] std::uint64_t samples_taken() const { return samples_; }
  [[nodiscard]] const EventLog& events() const { return events_; }
  [[nodiscard]] const std::vector<AlertRule>& rules() const { return rules_; }

  /// All alert states ever instantiated (firing or not).
  [[nodiscard]] std::vector<const AlertState*> alerts() const;
  [[nodiscard]] std::vector<const AlertState*> firing() const;
  /// True when any instance of `rule` is firing (optionally restricted to
  /// one subject).
  [[nodiscard]] bool is_firing(const std::string& rule,
                               const std::string& subject = "") const;

  /// Per-node status rollup: every source starts healthy; firing alerts
  /// bump their subject to the rule severity.
  [[nodiscard]] ClusterHealth health() const;

  /// Every (burn-rate rule, source) sampled so far, in rule order.
  [[nodiscard]] const std::vector<SloState>& slos() const { return slos_; }
  /// [{"name", "objective", "burn_short", "burn_long", "burn_threshold",
  ///   "good", "total", "firing", "burn_series": [[t_us, short, long], ...]},
  ///  ...] — the postmortem bundle's "slo" section.
  void append_slo_json(obs::JsonWriter& w) const;

  /// {"samples", "nodes", "alerts", "events"} snapshot for bench reports.
  [[nodiscard]] std::string to_json() const;

 private:
  struct Source {
    std::string name;
    const MetricsRegistry* registry;
  };
  /// What a rule's next sample needs from its previous one.
  struct SeriesState {
    double prev_a = 0.0;  // counter raw / histogram count
    double prev_b = 0.0;  // histogram sum
    bool has_prev = false;
    /// kBelow rules only arm after the raw value has been nonzero once, so
    /// an idle cluster does not page for a stream that never started.
    bool armed = false;
  };

  /// Matches `pattern` (at most one '*') against `name`; on success stores
  /// the wildcard capture (empty when the pattern is literal).
  static bool wildcard_match(const std::string& pattern,
                             const std::string& name, std::string* capture);
  static bool source_matches(const std::string& filter,
                             const std::string& source);

  void evaluate(const AlertRule& rule, const std::string& source,
                const std::string& metric, const std::string& capture,
                double value, TimePoint now);
  void sample_rule(const AlertRule& rule, const Source& src, TimePoint now,
                   double dt_seconds);
  void sample_burn(const AlertRule& rule, const Source& src, TimePoint now);

  HealthMonitorConfig config_;
  std::vector<Source> sources_;
  std::vector<AlertRule> rules_;
  std::map<std::string, SeriesState> series_;  // source \x1f metric \x1f kind
  std::map<std::string, AlertState> alerts_;   // rule \x1f source \x1f metric
  std::vector<SloState> slos_;
  EventLog events_;
  TimePoint last_sample_;
  std::uint64_t samples_ = 0;
};

}  // namespace stcn
