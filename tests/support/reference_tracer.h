// Reference tracer, for differential tests.
//
// This is the Tracer that kept one hash map entry per retained trace, each
// holding its SpanRecords (own name string and tag vector) and a per-trace
// span-id index, with a deque for FIFO eviction. The tracer under test keeps
// flat span and tag records in a ring of trace slots; every observable
// answer (spans, tags, Chrome JSON, counts, retention) must equal this one's
// byte for byte.
#pragma once

#include <algorithm>
#include <cstdint>
#include <deque>
#include <string>
#include <string_view>
#include <unordered_map>
#include <utility>
#include <vector>

#include "obs/json.h"
#include "obs/tracer.h"

namespace stcn {

class ReferenceTracer {
 public:
  explicit ReferenceTracer(TracerConfig config = {}) : config_(config) {}

  [[nodiscard]] bool enabled() const { return config_.max_traces > 0; }

  TraceContext start_trace(std::string name, std::uint64_t node,
                           TimePoint now) {
    if (!enabled()) return {};
    std::uint64_t trace_id = next_trace_id_++;
    while (traces_.size() >= config_.max_traces && !eviction_order_.empty()) {
      traces_.erase(eviction_order_.front());
      eviction_order_.pop_front();
    }
    traces_.emplace(trace_id, TraceBuffer{});
    eviction_order_.push_back(trace_id);
    return start_span(std::move(name), TraceContext{trace_id, 0}, node, now);
  }

  TraceContext start_span(std::string name, TraceContext parent,
                          std::uint64_t node, TimePoint now) {
    if (!enabled()) return {};
    if (!parent.valid()) return start_trace(std::move(name), node, now);
    auto it = traces_.find(parent.trace_id);
    if (it == traces_.end()) return {};  // trace already evicted
    SpanRecord span;
    span.trace_id = parent.trace_id;
    span.span_id = next_span_id_++;
    span.parent_id = parent.span_id;
    span.name = std::move(name);
    span.node = node;
    span.start = now;
    span.end = now;
    ++spans_started_;
    it->second.by_span_id.emplace(span.span_id, it->second.spans.size());
    it->second.spans.push_back(std::move(span));
    return {parent.trace_id, it->second.spans.back().span_id};
  }

  void tag(TraceContext ctx, std::string key, std::string value) {
    if (SpanRecord* span = find_span(ctx)) {
      span->tags.emplace_back(std::move(key), std::move(value));
    }
  }

  void end_span(TraceContext ctx, TimePoint now) {
    if (SpanRecord* span = find_span(ctx)) {
      span->end = now;
      span->finished = true;
    }
  }

  TraceContext instant(std::string name, TraceContext parent,
                       std::uint64_t node, TimePoint now) {
    TraceContext ctx = start_span(std::move(name), parent, node, now);
    end_span(ctx, now);
    return ctx;
  }

  [[nodiscard]] std::vector<SpanRecord> trace(std::uint64_t trace_id) const {
    auto it = traces_.find(trace_id);
    return it == traces_.end() ? std::vector<SpanRecord>{} : it->second.spans;
  }

  [[nodiscard]] std::size_t count_spans(std::uint64_t trace_id,
                                        std::string_view name) const {
    auto it = traces_.find(trace_id);
    if (it == traces_.end()) return 0;
    return static_cast<std::size_t>(
        std::count_if(it->second.spans.begin(), it->second.spans.end(),
                      [name](const SpanRecord& s) { return s.name == name; }));
  }

  [[nodiscard]] bool has_trace(std::uint64_t trace_id) const {
    return traces_.contains(trace_id);
  }
  [[nodiscard]] std::size_t trace_count() const { return traces_.size(); }
  [[nodiscard]] std::uint64_t spans_started() const { return spans_started_; }

  [[nodiscard]] std::string to_chrome_json(std::uint64_t trace_id) const {
    obs::JsonWriter w;
    w.begin_object();
    w.key("displayTimeUnit");
    w.value("ms");
    w.key("traceEvents");
    w.begin_array();
    for (const SpanRecord& span : trace(trace_id)) {
      w.begin_object();
      w.key("name");
      w.value(span.name);
      w.key("cat");
      w.value("stcn");
      w.key("ph");
      w.value("X");
      w.key("ts");
      w.value(span.start.micros_since_origin());
      w.key("dur");
      w.value(span.duration().count_micros());
      w.key("pid");
      w.value(span.trace_id);
      w.key("tid");
      w.value(span.node);
      w.key("args");
      w.begin_object();
      w.key("span_id");
      w.value(span.span_id);
      w.key("parent_id");
      w.value(span.parent_id);
      for (const auto& [k, v] : span.tags) {
        w.key(k);
        w.value(v);
      }
      w.end_object();
      w.end_object();
    }
    w.end_array();
    w.end_object();
    return w.take();
  }

  void clear() {
    traces_.clear();
    eviction_order_.clear();
  }

 private:
  struct TraceBuffer {
    std::vector<SpanRecord> spans;
    std::unordered_map<std::uint64_t, std::size_t> by_span_id;
  };

  SpanRecord* find_span(TraceContext ctx) {
    if (!ctx.valid() || ctx.span_id == 0) return nullptr;
    auto it = traces_.find(ctx.trace_id);
    if (it == traces_.end()) return nullptr;
    auto span_it = it->second.by_span_id.find(ctx.span_id);
    if (span_it == it->second.by_span_id.end()) return nullptr;
    return &it->second.spans[span_it->second];
  }

  TracerConfig config_;
  std::uint64_t next_trace_id_ = 1;
  std::uint64_t next_span_id_ = 1;
  std::uint64_t spans_started_ = 0;
  std::unordered_map<std::uint64_t, TraceBuffer> traces_;
  std::deque<std::uint64_t> eviction_order_;
};

}  // namespace stcn
