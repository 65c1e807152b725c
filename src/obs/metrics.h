// Metrics registry: pre-registered counters, gauges, and log-scale latency
// histograms with machine-readable export.
//
// Every node owns one registry and registers each of its counters, with a
// help string, once at construction. The registry hands out *stable
// handles* at registration time, so a bump never looks a name up:
//
//   Counter& ingested = registry.counter("ingested");
//   ... hot loop: ingested.inc();              // one pointer write
//
// Histograms use fixed power-of-two buckets over microseconds, so p50/p95/
// p99 are available without storing samples (O(1) memory, O(buckets)
// quantile). Exporters: Prometheus text format and JSON; the JSON form
// round-trips through metrics_registry_from_json so downstream tooling can
// diff snapshots across runs.
#pragma once

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdint>
#include <limits>
#include <map>
#include <memory>
#include <string>
#include <vector>

namespace stcn {

/// Monotonic counter. Handle semantics: references returned by the registry
/// stay valid for the registry's lifetime.
class Counter {
 public:
  void inc() { ++value_; }
  void add(std::uint64_t delta) { value_ += delta; }
  [[nodiscard]] std::uint64_t value() const { return value_; }

 private:
  std::uint64_t value_ = 0;
};

/// Last-write-wins instantaneous value (queue depths, map sizes).
class Gauge {
 public:
  void set(double v) { value_ = v; }
  void add(double delta) { value_ += delta; }
  [[nodiscard]] double value() const { return value_; }

 private:
  double value_ = 0.0;
};

/// Fixed-bucket log2 histogram over non-negative values (canonically
/// microseconds). Bucket 0 covers [0, 1); bucket i covers [2^(i-1), 2^i).
/// Quantiles are interpolated within the owning bucket and clamped to the
/// observed [min, max], so p50/p95/p99 are available without retaining
/// samples.
/// Exemplar: a concrete trace pinned to a histogram bucket, so a quantile
/// ("the p99 is 40ms") links to an actual span tree and the cost summary of
/// the query that landed there. One per bucket, most recent wins.
struct Exemplar {
  std::uint64_t trace_id = 0;
  double value = 0.0;
  std::string summary;  // compact cost summary ("rows=812 bytes_in=9k ...")
  bool set = false;
};

class LatencyHistogram {
 public:
  static constexpr int kBuckets = 42;  // 2^41 us ≈ 25 days: plenty of range

  void observe(double v) {
    ++buckets_[bucket_index(v)];
    ++count_;
    sum_ += v;
    min_ = std::min(min_, v);
    max_ = std::max(max_, v);
  }

  [[nodiscard]] std::uint64_t count() const { return count_; }
  [[nodiscard]] double sum() const { return sum_; }
  [[nodiscard]] double mean() const {
    return count_ ? sum_ / static_cast<double>(count_) : 0.0;
  }
  [[nodiscard]] double min() const { return count_ ? min_ : 0.0; }
  [[nodiscard]] double max() const { return count_ ? max_ : 0.0; }
  [[nodiscard]] std::uint64_t bucket(int i) const {
    return buckets_[static_cast<std::size_t>(i)];
  }

  /// Inclusive upper bound of bucket i.
  [[nodiscard]] static double bucket_upper_bound(int i) {
    return std::ldexp(1.0, i);  // 2^i
  }

  static int bucket_index(double v) {
    if (!(v >= 1.0)) return 0;  // also catches NaN / negatives
    int exp = static_cast<int>(std::floor(std::log2(v))) + 1;
    return exp >= kBuckets ? kBuckets - 1 : exp;
  }

  /// Observations with value <= v, linearly interpolated within v's owning
  /// bucket (the inverse of quantile()). Feeds latency-fraction SLOs:
  /// "what share of queries finished under the threshold".
  [[nodiscard]] double count_at_or_below(double v) const {
    int b = bucket_index(v);
    std::uint64_t below = 0;
    for (int i = 0; i < b; ++i) below += buckets_[static_cast<std::size_t>(i)];
    double lower = b == 0 ? 0.0 : bucket_upper_bound(b - 1);
    double upper = bucket_upper_bound(b);
    double frac = upper > lower ? (v - lower) / (upper - lower) : 1.0;
    frac = std::clamp(frac, 0.0, 1.0);
    return static_cast<double>(below) +
           frac * static_cast<double>(buckets_[static_cast<std::size_t>(b)]);
  }

  /// Quantile q in [0, 1], interpolated within the owning bucket.
  [[nodiscard]] double quantile(double q) const;
  [[nodiscard]] double p50() const { return quantile(0.50); }
  [[nodiscard]] double p95() const { return quantile(0.95); }
  [[nodiscard]] double p99() const { return quantile(0.99); }

  void merge(const LatencyHistogram& other);

  /// Pins an exemplar to the bucket owning `v` (most recent wins). The
  /// exemplar array is allocated on first use, so histograms that never see
  /// exemplars pay nothing; the hot observe() path is untouched.
  void set_exemplar(double v, std::uint64_t trace_id, std::string summary) {
    if (exemplars_.empty()) exemplars_.resize(kBuckets);
    Exemplar& e = exemplars_[static_cast<std::size_t>(bucket_index(v))];
    e.trace_id = trace_id;
    e.value = v;
    e.summary = std::move(summary);
    e.set = true;
  }
  /// Exemplar pinned to bucket i, or nullptr.
  [[nodiscard]] const Exemplar* exemplar(int i) const {
    if (exemplars_.empty()) return nullptr;
    const Exemplar& e = exemplars_[static_cast<std::size_t>(i)];
    return e.set ? &e : nullptr;
  }
  /// Number of buckets currently holding an exemplar.
  [[nodiscard]] std::size_t exemplar_count() const {
    std::size_t n = 0;
    for (const Exemplar& e : exemplars_) n += e.set ? 1 : 0;
    return n;
  }

  /// State restoration for the JSON importer: adds `n` observations to
  /// bucket `i` without touching sum/min/max.
  void restore_bucket(int i, std::uint64_t n) {
    buckets_[static_cast<std::size_t>(i)] += n;
    count_ += n;
  }
  /// Overwrites the summary moments (JSON importer; exact round-trip).
  void restore_summary(double sum, double min, double max) {
    sum_ = sum;
    min_ = min;
    max_ = max;
  }

 private:
  std::array<std::uint64_t, kBuckets> buckets_{};
  std::uint64_t count_ = 0;
  double sum_ = 0.0;
  double min_ = std::numeric_limits<double>::infinity();
  double max_ = -std::numeric_limits<double>::infinity();
  // Empty until the first set_exemplar; kBuckets entries afterwards.
  std::vector<Exemplar> exemplars_;
};

/// Named metrics, one instance per node (plus merged cluster snapshots).
/// Names are dot-separated ("query_latency_us", "net.bytes_sent"); the
/// Prometheus exporter mangles dots to underscores.
class MetricsRegistry {
 public:
  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;
  // Movable so snapshots can be returned by value. Handles into the
  // moved-from registry keep working (the unique_ptr targets move with it).
  MetricsRegistry(MetricsRegistry&&) = default;
  MetricsRegistry& operator=(MetricsRegistry&&) = default;

  /// Registers (or finds) a metric; the returned reference is stable.
  Counter& counter(const std::string& name);
  Gauge& gauge(const std::string& name);
  LatencyHistogram& histogram(const std::string& name);

  /// Registration with a help string (rendered as Prometheus `# HELP` and
  /// collected into docs/METRICS.md). A non-empty help overwrites any
  /// previously recorded one for the name.
  Counter& counter(const std::string& name, const std::string& help) {
    set_help(name, help);
    return counter(name);
  }
  Gauge& gauge(const std::string& name, const std::string& help) {
    set_help(name, help);
    return gauge(name);
  }
  LatencyHistogram& histogram(const std::string& name,
                              const std::string& help) {
    set_help(name, help);
    return histogram(name);
  }

  void set_help(const std::string& name, const std::string& help) {
    if (!help.empty()) help_[name] = help;
  }
  /// Help string for `name` ("" when none was registered).
  [[nodiscard]] const std::string& help(const std::string& name) const {
    static const std::string kEmpty;
    auto it = help_.find(name);
    return it == help_.end() ? kEmpty : it->second;
  }
  [[nodiscard]] const std::map<std::string, std::string>& helps() const {
    return help_;
  }

  /// Attaches constant labels to a metric name — exemplar-style metadata
  /// such as `partition.hottest_load{partition="p12"}`. Rendered on the
  /// Prometheus exposition line (label keys mangled to the legal charset,
  /// values backslash-escaped) and round-tripped through JSON. Replaces any
  /// previous label set for the name; an empty map clears it.
  void set_labels(const std::string& name,
                  std::map<std::string, std::string> labels) {
    if (labels.empty()) {
      labels_.erase(name);
    } else {
      labels_[name] = std::move(labels);
    }
  }
  /// Labels attached to `name` (empty map when none).
  [[nodiscard]] const std::map<std::string, std::string>& labels(
      const std::string& name) const {
    static const std::map<std::string, std::string> kEmpty;
    auto it = labels_.find(name);
    return it == labels_.end() ? kEmpty : it->second;
  }
  [[nodiscard]] const std::map<std::string, std::map<std::string,
                                                     std::string>>&
  all_labels() const {
    return labels_;
  }

  [[nodiscard]] const std::map<std::string, std::unique_ptr<Counter>>&
  counters() const {
    return counters_;
  }
  [[nodiscard]] const std::map<std::string, std::unique_ptr<Gauge>>& gauges()
      const {
    return gauges_;
  }
  [[nodiscard]] const std::map<std::string,
                               std::unique_ptr<LatencyHistogram>>&
  histograms() const {
    return histograms_;
  }

  /// Value of counter `name`, or 0 when no such counter is registered.
  [[nodiscard]] std::uint64_t counter_value(const std::string& name) const {
    auto it = counters_.find(name);
    return it == counters_.end() ? 0 : it->second->value();
  }

  /// Adds this registry's metrics into `dst` under `prefix` (counters and
  /// histograms accumulate; gauges accumulate too, which makes merged
  /// worker gauges totals).
  void merge_into(MetricsRegistry& dst, const std::string& prefix) const;

  /// Prometheus text exposition format.
  [[nodiscard]] std::string to_prometheus(
      const std::string& metric_prefix = "stcn_") const;

  /// JSON dump; round-trips through metrics_registry_from_json.
  [[nodiscard]] std::string to_json() const;

 private:
  std::map<std::string, std::unique_ptr<Counter>> counters_;
  std::map<std::string, std::unique_ptr<Gauge>> gauges_;
  std::map<std::string, std::unique_ptr<LatencyHistogram>> histograms_;
  std::map<std::string, std::string> help_;
  std::map<std::string, std::map<std::string, std::string>> labels_;
};

/// Rebuilds a registry from MetricsRegistry::to_json output. Returns false
/// on malformed input.
bool metrics_registry_from_json(const std::string& json,
                                MetricsRegistry& out);

}  // namespace stcn
