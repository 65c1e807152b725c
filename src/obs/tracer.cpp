#include "obs/tracer.h"

#include <algorithm>
#include <charconv>

#include "obs/json.h"

namespace stcn {

namespace {

// What a reused slot keeps: room for a city-wide count (about 90 spans,
// 170 tags and 3 KB of text). A larger trace's buffers are released when
// its slot is reused, so the ring keeps at most about 19 KB per slot.
constexpr std::size_t kSlotSpans = 128;
constexpr std::size_t kSlotTags = 256;
constexpr std::size_t kSlotArenaBytes = 8 << 10;

template <typename Buffer>
void recycle(Buffer& buffer, std::size_t keep) {
  if (buffer.capacity() > keep) {
    Buffer().swap(buffer);
  } else {
    buffer.clear();
  }
}

}  // namespace

std::uint32_t Tracer::Slot::store(std::string_view bytes) {
  auto offset = static_cast<std::uint32_t>(arena.size());
  arena.append(bytes);
  return offset;
}

void Tracer::Slot::reuse(std::uint64_t id) {
  trace_id = id;
  recycle(spans, kSlotSpans);
  recycle(tags, kSlotTags);
  recycle(arena, kSlotArenaBytes);
}

Tracer::Span* Tracer::Slot::find(std::uint64_t span_id) {
  // Most tags land on the span just started.
  if (!spans.empty() && spans.back().span_id == span_id) return &spans.back();
  auto it = std::lower_bound(
      spans.begin(), spans.end(), span_id,
      [](const Span& s, std::uint64_t id) { return s.span_id < id; });
  return it == spans.end() || it->span_id != span_id ? nullptr : &*it;
}

const Tracer::Slot* Tracer::slot_of(std::uint64_t trace_id) const {
  // Trace ids are consecutive, so a trace's age places it behind the next
  // slot without dividing: (trace_id - 1) % max_traces.
  std::uint64_t age = next_trace_id_ - trace_id;  // 1 = the newest trace
  if (trace_id == 0 || trace_id >= next_trace_id_ ||
      age > config_.max_traces) {
    return nullptr;
  }
  std::size_t index = next_slot_ >= age
                          ? next_slot_ - age
                          : next_slot_ + config_.max_traces - age;
  if (index >= slots_.size() || slots_[index].trace_id != trace_id) {
    return nullptr;
  }
  return &slots_[index];
}

TraceContext Tracer::start_trace(std::string_view name, std::uint64_t node,
                                 TimePoint now) {
  if (!enabled()) return {};
  std::uint64_t trace_id = next_trace_id_++;
  std::size_t index = next_slot_;
  next_slot_ = index + 1 == config_.max_traces ? 0 : index + 1;
  if (index >= slots_.size()) slots_.resize(index + 1);
  Slot& slot = slots_[index];
  if (slot.trace_id == 0) ++live_;
  slot.reuse(trace_id);
  return start_span(name, TraceContext{trace_id, 0}, node, now);
}

TraceContext Tracer::start_span(std::string_view name, TraceContext parent,
                                std::uint64_t node, TimePoint now) {
  if (!enabled()) return {};
  if (!parent.valid()) return start_trace(name, node, now);
  Slot* slot = slot_of(parent.trace_id);
  if (slot == nullptr) return {};  // trace already evicted
  Span span;
  span.span_id = next_span_id_++;
  span.parent_id = parent.span_id;
  span.node = node;
  span.start = now;
  span.end = now;
  span.name_offset = slot->store(name);
  span.name_size = static_cast<std::uint32_t>(name.size());
  slot->spans.push_back(span);
  ++spans_started_;
  return {parent.trace_id, span.span_id};
}

void Tracer::tag(TraceContext ctx, std::string_view key,
                 std::string_view value) {
  Slot* slot = slot_of(ctx.trace_id);
  Span* span = slot == nullptr ? nullptr : slot->find(ctx.span_id);
  if (span == nullptr) return;
  Tag tag;
  tag.span = static_cast<std::uint32_t>(span - slot->spans.data());
  tag.offset = slot->store(key);
  slot->store(value);
  tag.key_size = static_cast<std::uint32_t>(key.size());
  tag.value_size = static_cast<std::uint32_t>(value.size());
  slot->tags.push_back(tag);
}

void Tracer::tag(TraceContext ctx, std::string_view key,
                 std::uint64_t value) {
  char digits[20];
  char* end = std::to_chars(digits, digits + sizeof digits, value).ptr;
  tag(ctx, key,
      std::string_view(digits, static_cast<std::size_t>(end - digits)));
}

void Tracer::end_span(TraceContext ctx, TimePoint now) {
  Slot* slot = slot_of(ctx.trace_id);
  if (Span* span = slot == nullptr ? nullptr : slot->find(ctx.span_id)) {
    span->end = now;
    span->finished = true;
  }
}

std::vector<SpanRecord> Tracer::trace(std::uint64_t trace_id) const {
  std::vector<SpanRecord> out;
  const Slot* slot = slot_of(trace_id);
  if (slot == nullptr) return out;
  out.reserve(slot->spans.size());
  for (const Span& s : slot->spans) {
    SpanRecord& r = out.emplace_back();
    r.trace_id = trace_id;
    r.span_id = s.span_id;
    r.parent_id = s.parent_id;
    r.name = slot->text(s.name_offset, s.name_size);
    r.node = s.node;
    r.start = s.start;
    r.end = s.end;
    r.finished = s.finished;
  }
  for (const Tag& t : slot->tags) {
    out[t.span].tags.emplace_back(
        slot->text(t.offset, t.key_size),
        slot->text(t.offset + t.key_size, t.value_size));
  }
  return out;
}

std::size_t Tracer::count_spans(std::uint64_t trace_id,
                                std::string_view name) const {
  const Slot* slot = slot_of(trace_id);
  if (slot == nullptr) return 0;
  return static_cast<std::size_t>(std::count_if(
      slot->spans.begin(), slot->spans.end(), [&](const Span& s) {
        return slot->text(s.name_offset, s.name_size) == name;
      }));
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
  slots_.clear();
  live_ = 0;
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
