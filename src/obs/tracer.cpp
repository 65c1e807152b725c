#include "obs/tracer.h"

#include <algorithm>

#include "obs/json.h"

namespace stcn {

TraceContext Tracer::start_trace(std::string name, std::uint64_t node,
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

TraceContext Tracer::start_span(std::string name, TraceContext parent,
                                std::uint64_t node, TimePoint now) {
  if (!enabled()) return {};
  if (!parent.valid()) {
    return start_trace(std::move(name), node, now);
  }
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

SpanRecord* Tracer::find_span(TraceContext ctx) {
  if (!ctx.valid() || ctx.span_id == 0) return nullptr;
  auto it = traces_.find(ctx.trace_id);
  if (it == traces_.end()) return nullptr;
  auto span_it = it->second.by_span_id.find(ctx.span_id);
  if (span_it == it->second.by_span_id.end()) return nullptr;
  return &it->second.spans[span_it->second];
}

void Tracer::tag(TraceContext ctx, std::string key, std::string value) {
  if (SpanRecord* span = find_span(ctx)) {
    span->tags.emplace_back(std::move(key), std::move(value));
  }
}

void Tracer::end_span(TraceContext ctx, TimePoint now) {
  if (SpanRecord* span = find_span(ctx)) {
    span->end = now;
    span->finished = true;
  }
}

std::vector<SpanRecord> Tracer::trace(std::uint64_t trace_id) const {
  auto it = traces_.find(trace_id);
  return it == traces_.end() ? std::vector<SpanRecord>{} : it->second.spans;
}

std::size_t Tracer::count_spans(std::uint64_t trace_id,
                                std::string_view name) const {
  auto it = traces_.find(trace_id);
  if (it == traces_.end()) return 0;
  return static_cast<std::size_t>(
      std::count_if(it->second.spans.begin(), it->second.spans.end(),
                    [name](const SpanRecord& s) { return s.name == name; }));
}

std::string Tracer::to_chrome_json(std::uint64_t trace_id) const {
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
    w.value("X");  // complete event: ts + dur
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

void Tracer::clear() {
  traces_.clear();
  eviction_order_.clear();
}

// -------------------------------------------------------------- span tree

SpanTree::SpanTree(std::vector<SpanRecord> spans) : spans_(std::move(spans)) {
  std::unordered_map<std::uint64_t, std::size_t> by_id;
  by_id.reserve(spans_.size());
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    by_id.emplace(spans_[i].span_id, i);
  }
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    if (spans_[i].parent_id == 0 || !by_id.contains(spans_[i].parent_id)) {
      roots_.push_back(i);
    } else {
      children_[spans_[i].parent_id].push_back(i);
    }
  }
}

const std::vector<std::size_t>& SpanTree::children_of(
    std::uint64_t span_id) const {
  static const std::vector<std::size_t> kNone;
  auto it = children_.find(span_id);
  return it == children_.end() ? kNone : it->second;
}

std::vector<const SpanRecord*> SpanTree::named(
    const std::string& name) const {
  std::vector<const SpanRecord*> out;
  for (const SpanRecord& span : spans_) {
    if (span.name == name) out.push_back(&span);
  }
  return out;
}

void SpanTree::render_span(std::string& out, std::size_t index,
                           int depth) const {
  const SpanRecord& span = spans_[index];
  out.append(static_cast<std::size_t>(depth) * 2, ' ');
  out += span.name;
  out += " [" + std::to_string(span.duration().count_micros()) + "us";
  if (!span.finished) out += ", open";
  out += "]";
  for (const auto& [k, v] : span.tags) {
    out += " " + k + "=" + v;
  }
  out += "\n";
  for (std::size_t child : children_of(span.span_id)) {
    render_span(out, child, depth + 1);
  }
}

std::string SpanTree::render() const {
  std::string out;
  for (std::size_t root : roots_) render_span(out, root, 0);
  return out;
}

}  // namespace stcn
