#include "obs/metrics.h"

#include <algorithm>
#include <cstdio>

#include "obs/json.h"

namespace stcn {

double LatencyHistogram::quantile(double q) const {
  if (count_ == 0) return 0.0;
  q = std::clamp(q, 0.0, 1.0);
  double target = q * static_cast<double>(count_);
  std::uint64_t seen = 0;
  for (int i = 0; i < kBuckets; ++i) {
    if (buckets_[static_cast<std::size_t>(i)] == 0) continue;
    double before = static_cast<double>(seen);
    seen += buckets_[static_cast<std::size_t>(i)];
    if (static_cast<double>(seen) < target) continue;
    double lower = i == 0 ? 0.0 : bucket_upper_bound(i - 1);
    double upper = bucket_upper_bound(i);
    double in_bucket =
        static_cast<double>(buckets_[static_cast<std::size_t>(i)]);
    double frac = in_bucket > 0.0 ? (target - before) / in_bucket : 0.0;
    double v = lower + frac * (upper - lower);
    return std::clamp(v, min_, max_);
  }
  return max_;
}

void LatencyHistogram::merge(const LatencyHistogram& other) {
  if (other.count_ == 0 && other.exemplars_.empty()) return;
  for (int i = 0; i < kBuckets; ++i) {
    buckets_[static_cast<std::size_t>(i)] +=
        other.buckets_[static_cast<std::size_t>(i)];
  }
  count_ += other.count_;
  sum_ += other.sum_;
  min_ = std::min(min_, other.min_);
  max_ = std::max(max_, other.max_);
  // Exemplars: the merged-in histogram is the fresher view (snapshots merge
  // live registries into a blank destination), so its exemplars win.
  if (!other.exemplars_.empty()) {
    if (exemplars_.empty()) exemplars_.resize(kBuckets);
    for (int i = 0; i < kBuckets; ++i) {
      const Exemplar& e = other.exemplars_[static_cast<std::size_t>(i)];
      if (e.set) exemplars_[static_cast<std::size_t>(i)] = e;
    }
  }
}

Counter& MetricsRegistry::counter(const std::string& name) {
  auto it = counters_.find(name);
  if (it == counters_.end()) {
    it = counters_.emplace(name, std::make_unique<Counter>()).first;
  }
  return *it->second;
}

Gauge& MetricsRegistry::gauge(const std::string& name) {
  auto it = gauges_.find(name);
  if (it == gauges_.end()) {
    it = gauges_.emplace(name, std::make_unique<Gauge>()).first;
  }
  return *it->second;
}

LatencyHistogram& MetricsRegistry::histogram(const std::string& name) {
  auto it = histograms_.find(name);
  if (it == histograms_.end()) {
    it = histograms_.emplace(name, std::make_unique<LatencyHistogram>())
             .first;
  }
  return *it->second;
}

void MetricsRegistry::merge_into(MetricsRegistry& dst,
                                 const std::string& prefix) const {
  for (const auto& [name, c] : counters_) {
    dst.counter(prefix + name).add(c->value());
  }
  for (const auto& [name, g] : gauges_) {
    dst.gauge(prefix + name).add(g->value());
  }
  for (const auto& [name, h] : histograms_) {
    dst.histogram(prefix + name).merge(*h);
  }
  for (const auto& [name, help] : help_) dst.set_help(prefix + name, help);
  for (const auto& [name, labels] : labels_) {
    dst.set_labels(prefix + name, labels);
  }
}

namespace {

std::string prometheus_name(const std::string& prefix,
                            const std::string& name) {
  std::string out = prefix;
  out.reserve(prefix.size() + name.size());
  for (char c : name) {
    bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
              (c >= '0' && c <= '9') || c == '_';
    out += ok ? c : '_';
  }
  return out;
}

void append_number(std::string& out, double v) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  out += buf;
}

// Label *names* share the metric-name charset ([a-zA-Z0-9_], no leading
// digit) but are NOT run through prometheus_name by the caller, so they get
// their own mangling — `partition-id` → `partition_id`, `0rank` → `_0rank`.
std::string prometheus_label_key(const std::string& key) {
  std::string out;
  out.reserve(key.size() + 1);
  if (!key.empty() && key.front() >= '0' && key.front() <= '9') out += '_';
  for (char c : key) {
    bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
              (c >= '0' && c <= '9') || c == '_';
    out += ok ? c : '_';
  }
  if (out.empty()) out = "_";
  return out;
}

// Label values per the text exposition format: backslash, double-quote, and
// line-feed must be escaped; everything else passes through.
void append_label_value(std::string& out, const std::string& value) {
  for (char c : value) {
    switch (c) {
      case '\\': out += "\\\\"; break;
      case '"': out += "\\\""; break;
      case '\n': out += "\\n"; break;
      default: out += c;
    }
  }
}

}  // namespace

std::string MetricsRegistry::to_prometheus(
    const std::string& metric_prefix) const {
  std::string out;
  auto append_help = [&](const std::string& name, const std::string& m) {
    const std::string& h = help(name);
    if (!h.empty()) out += "# HELP " + m + " " + h + "\n";
  };
  // `inner_labels(name)` renders the attached labels as `k="v",...` (no
  // braces) so histogram bucket lines can splice them next to `le`;
  // `label_block(name)` wraps them in braces for plain sample lines.
  auto inner_labels = [&](const std::string& name) {
    std::string b;
    for (const auto& [k, v] : labels(name)) {
      if (!b.empty()) b += ",";
      b += prometheus_label_key(k);
      b += "=\"";
      append_label_value(b, v);
      b += "\"";
    }
    return b;
  };
  auto label_block = [&](const std::string& name) {
    std::string inner = inner_labels(name);
    return inner.empty() ? inner : "{" + inner + "}";
  };
  for (const auto& [name, c] : counters_) {
    std::string m = prometheus_name(metric_prefix, name);
    append_help(name, m);
    out += "# TYPE " + m + " counter\n";
    out += m + label_block(name) + " " + std::to_string(c->value()) + "\n";
  }
  for (const auto& [name, g] : gauges_) {
    std::string m = prometheus_name(metric_prefix, name);
    append_help(name, m);
    out += "# TYPE " + m + " gauge\n";
    out += m + label_block(name) + " ";
    append_number(out, g->value());
    out += "\n";
  }
  for (const auto& [name, h] : histograms_) {
    std::string m = prometheus_name(metric_prefix, name);
    append_help(name, m);
    out += "# TYPE " + m + " histogram\n";
    std::string inner = inner_labels(name);
    std::string bucket_prefix =
        inner.empty() ? m + "_bucket{le=\"" : m + "_bucket{" + inner +
                                                  ",le=\"";
    std::uint64_t cumulative = 0;
    for (int i = 0; i < LatencyHistogram::kBuckets; ++i) {
      if (h->bucket(i) == 0) continue;  // sparse: skip empty buckets
      cumulative += h->bucket(i);
      out += bucket_prefix;
      append_number(out, LatencyHistogram::bucket_upper_bound(i));
      out += "\"} " + std::to_string(cumulative);
      // OpenMetrics-style exemplar: the bucket's pinned trace.
      if (const Exemplar* e = h->exemplar(i)) {
        out += " # {trace_id=\"" + std::to_string(e->trace_id) + "\"} ";
        append_number(out, e->value);
      }
      out += "\n";
    }
    out += bucket_prefix + "+Inf\"} " + std::to_string(h->count()) + "\n";
    out += m + "_sum" + label_block(name) + " ";
    append_number(out, h->sum());
    out += "\n" + m + "_count" + label_block(name) + " " +
           std::to_string(h->count()) + "\n";
  }
  return out;
}

std::string MetricsRegistry::to_json() const {
  obs::JsonWriter w;
  w.begin_object();
  w.key("counters");
  w.begin_object();
  for (const auto& [name, c] : counters_) {
    w.key(name);
    w.value(c->value());
  }
  w.end_object();
  w.key("gauges");
  w.begin_object();
  for (const auto& [name, g] : gauges_) {
    w.key(name);
    w.value(g->value());
  }
  w.end_object();
  w.key("histograms");
  w.begin_object();
  for (const auto& [name, h] : histograms_) {
    w.key(name);
    w.begin_object();
    w.key("count");
    w.value(h->count());
    w.key("sum");
    w.value(h->sum());
    w.key("min");
    w.value(h->min());
    w.key("max");
    w.value(h->max());
    w.key("p50");
    w.value(h->p50());
    w.key("p95");
    w.value(h->p95());
    w.key("p99");
    w.value(h->p99());
    w.key("buckets");
    w.begin_array();
    // Sparse [index, count] pairs keep the dump small.
    for (int i = 0; i < LatencyHistogram::kBuckets; ++i) {
      if (h->bucket(i) == 0) continue;
      w.begin_array();
      w.value(i);
      w.value(h->bucket(i));
      w.end_array();
    }
    w.end_array();
    if (h->exemplar_count() > 0) {
      w.key("exemplars");
      w.begin_array();
      // Sparse [bucket, trace_id, value, summary] rows.
      for (int i = 0; i < LatencyHistogram::kBuckets; ++i) {
        const Exemplar* e = h->exemplar(i);
        if (e == nullptr) continue;
        w.begin_array();
        w.value(i);
        w.value(e->trace_id);
        w.value(e->value);
        w.value(e->summary);
        w.end_array();
      }
      w.end_array();
    }
    w.end_object();
  }
  w.end_object();
  // Emitted only when any metric carries labels, so label-free registries
  // keep their historical byte-exact JSON form.
  if (!labels_.empty()) {
    w.key("labels");
    w.begin_object();
    for (const auto& [name, labels] : labels_) {
      w.key(name);
      w.begin_object();
      for (const auto& [k, v] : labels) {
        w.key(k);
        w.value(v);
      }
      w.end_object();
    }
    w.end_object();
  }
  w.end_object();
  return w.take();
}

bool metrics_registry_from_json(const std::string& json,
                                MetricsRegistry& out) {
  obs::JsonValue root;
  if (!obs::JsonValue::parse(json, root) || !root.is_object()) return false;
  for (const auto& [name, v] : root.at("counters").object()) {
    if (!v.is_number()) return false;
    out.counter(name).add(static_cast<std::uint64_t>(v.number()));
  }
  for (const auto& [name, v] : root.at("gauges").object()) {
    if (!v.is_number()) return false;
    out.gauge(name).set(v.number());
  }
  for (const auto& [name, v] : root.at("histograms").object()) {
    if (!v.is_object()) return false;
    LatencyHistogram& h = out.histogram(name);
    for (const auto& pair : v.at("buckets").array()) {
      if (!pair.is_array() || pair.array().size() != 2) return false;
      int idx = static_cast<int>(pair.array()[0].number());
      if (idx < 0 || idx >= LatencyHistogram::kBuckets) return false;
      h.restore_bucket(idx,
                       static_cast<std::uint64_t>(pair.array()[1].number()));
    }
    if (h.count() > 0) {
      h.restore_summary(v.at("sum").number(), v.at("min").number(),
                        v.at("max").number());
    }
    if (v.has("exemplars")) {
      for (const auto& row : v.at("exemplars").array()) {
        if (!row.is_array() || row.array().size() != 4) return false;
        h.set_exemplar(row.array()[2].number(),
                       static_cast<std::uint64_t>(row.array()[1].number()),
                       row.array()[3].string());
      }
    }
  }
  if (root.has("labels")) {
    for (const auto& [name, ls] : root.at("labels").object()) {
      if (!ls.is_object()) return false;
      std::map<std::string, std::string> parsed;
      for (const auto& [k, v] : ls.object()) {
        if (!v.is_string()) return false;
        parsed[k] = v.string();
      }
      out.set_labels(name, std::move(parsed));
    }
  }
  return true;
}

}  // namespace stcn
