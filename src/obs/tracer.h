// Per-query distributed tracer over the simulation clock.
//
// One Tracer instance is shared by every node of a simulated cluster (the
// sim is single-threaded, so no locking). Spans form a tree per trace:
//
//   gateway.execute                        (client-facing entry)
//   └─ coordinator.fanout                  (scatter-gather)
//      ├─ fragment {worker=3}              (send → response, per worker)
//      │  ├─ net.retransmit {attempt=2}    (reliable-channel retry)
//      │  └─ worker.query                  (worker-side, via Message header)
//      │     ├─ worker.scan {partition=7}
//      │     └─ worker.serialize
//      └─ fragment {worker=5, hedge=true}  (speculative re-issue)
//
// Span timestamps are virtual (sim-clock) time, so a span's duration is the
// latency the distributed system actually modeled (network, retries,
// timeouts). Worker-side compute is instantaneous in virtual time; spans
// carry a `wall_us` tag for real compute cost where it matters.
//
// Retention is bounded: the tracer keeps the most recent `max_traces`
// traces (FIFO eviction), so long benches cannot grow memory without bound.
// It is one ring of `max_traces` slots, trace `t` in slot
// `(t - 1) % max_traces`; starting a trace overwrites the slot of the trace
// `max_traces` older. A slot holds flat span records, flat tag records and
// one byte arena for names, keys and values, and is cleared without being
// freed when it is reused (only buffers an unusually large trace grew are
// released), so a query pays no allocation and no eviction once the ring
// is warm. Span ids grow within a trace, so a span is found
// by binary search. SpanRecords are built only on export (`trace()`,
// `to_chrome_json`).
// Export: Chrome trace-event JSON (load in chrome://tracing or Perfetto).
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/time.h"
#include "obs/trace_context.h"

namespace stcn {

struct SpanRecord {
  std::uint64_t trace_id = 0;
  std::uint64_t span_id = 0;
  std::uint64_t parent_id = 0;  // 0 = root
  std::string name;
  std::uint64_t node = 0;  // NodeId value of the emitting node
  TimePoint start;
  TimePoint end;
  bool finished = false;
  std::vector<std::pair<std::string, std::string>> tags;

  [[nodiscard]] Duration duration() const { return end - start; }
  [[nodiscard]] bool has_tag(const std::string& key,
                             const std::string& value) const {
    for (const auto& [k, v] : tags) {
      if (k == key && v == value) return true;
    }
    return false;
  }
};

struct TracerConfig {
  /// Traces retained; the oldest is evicted when a new trace would exceed
  /// this. 0 disables tracing entirely (every call becomes a no-op).
  std::size_t max_traces = 512;
};

class Tracer {
 public:
  explicit Tracer(TracerConfig config = {}) : config_(config) {}

  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  [[nodiscard]] bool enabled() const { return config_.max_traces > 0; }

  /// Starts a new trace with a root span, evicting the trace `max_traces`
  /// older.
  TraceContext start_trace(std::string_view name, std::uint64_t node,
                           TimePoint now);

  /// Starts a child span of `parent`. An invalid parent starts a fresh
  /// trace (so call sites need no special casing).
  TraceContext start_span(std::string_view name, TraceContext parent,
                          std::uint64_t node, TimePoint now);

  /// Attaches a key/value tag to an open or finished span.
  void tag(TraceContext ctx, std::string_view key, std::string_view value);
  /// Same as tagging the value's decimal string.
  void tag(TraceContext ctx, std::string_view key, std::uint64_t value);

  void end_span(TraceContext ctx, TimePoint now);

  /// Zero-duration annotation span (retransmits, drops): start == end.
  /// Returns the span's context so callers can tag it.
  TraceContext instant(std::string_view name, TraceContext parent,
                       std::uint64_t node, TimePoint now) {
    TraceContext ctx = start_span(name, parent, node, now);
    end_span(ctx, now);
    return ctx;
  }

  /// All spans of a trace, in creation order (includes still-open spans).
  [[nodiscard]] std::vector<SpanRecord> trace(std::uint64_t trace_id) const;

  /// Spans of a trace with the given name, counted in place.
  [[nodiscard]] std::size_t count_spans(std::uint64_t trace_id,
                                        std::string_view name) const;

  [[nodiscard]] bool has_trace(std::uint64_t trace_id) const {
    return slot_of(trace_id) != nullptr;
  }
  [[nodiscard]] std::size_t trace_count() const { return live_; }
  [[nodiscard]] std::uint64_t spans_started() const { return spans_started_; }

  /// Chrome trace-event JSON ({"traceEvents": [...]}) for one trace.
  [[nodiscard]] std::string to_chrome_json(std::uint64_t trace_id) const;

  void clear();

 private:
  struct Span {
    std::uint64_t span_id = 0;
    std::uint64_t parent_id = 0;
    std::uint64_t node = 0;
    TimePoint start;
    TimePoint end;
    std::uint32_t name_offset = 0;  // into the slot's arena
    std::uint32_t name_size = 0;
    bool finished = false;
  };
  /// Key then value, adjacent in the slot's arena.
  struct Tag {
    std::uint32_t span = 0;  // index into the slot's spans
    std::uint32_t offset = 0;
    std::uint32_t key_size = 0;
    std::uint32_t value_size = 0;
  };
  struct Slot {
    std::uint64_t trace_id = 0;  // 0 = empty
    std::vector<Span> spans;     // span ids ascending
    std::vector<Tag> tags;       // in tagging order
    std::string arena;

    [[nodiscard]] std::string_view text(std::uint32_t offset,
                                        std::uint32_t size) const {
      return std::string_view(arena).substr(offset, size);
    }
    /// The span with `span_id`, or nullptr.
    Span* find(std::uint64_t span_id);
    /// Appends `bytes` to the arena; returns their offset.
    std::uint32_t store(std::string_view bytes);
    /// Empties the slot for `trace_id`, keeping its buffers unless a large
    /// trace grew them past what a slot keeps.
    void reuse(std::uint64_t trace_id);
  };

  [[nodiscard]] const Slot* slot_of(std::uint64_t trace_id) const;
  Slot* slot_of(std::uint64_t trace_id) {
    return const_cast<Slot*>(std::as_const(*this).slot_of(trace_id));
  }

  TracerConfig config_;
  std::uint64_t next_trace_id_ = 1;
  std::uint64_t next_span_id_ = 1;
  std::uint64_t spans_started_ = 0;
  std::size_t next_slot_ = 0;  // (next_trace_id_ - 1) % max_traces
  std::size_t live_ = 0;       // slots holding a trace
  std::vector<Slot> slots_;    // grown on first use, up to max_traces
};

/// Children-by-parent view over one trace's spans, for tree asserts and the
/// slow-query log printout.
class SpanTree {
 public:
  explicit SpanTree(std::vector<SpanRecord> spans);

  [[nodiscard]] const std::vector<SpanRecord>& spans() const {
    return spans_;
  }
  /// Root spans (parent_id == 0 or parent not present in this trace).
  [[nodiscard]] const std::vector<std::size_t>& roots() const {
    return roots_;
  }
  [[nodiscard]] const std::vector<std::size_t>& children_of(
      std::uint64_t span_id) const;

  /// Spans with the given name.
  [[nodiscard]] std::vector<const SpanRecord*> named(
      const std::string& name) const;

  /// Indented text rendering (slow-query log, debugging).
  [[nodiscard]] std::string render() const;

 private:
  void render_span(std::string& out, std::size_t index, int depth) const;

  std::vector<SpanRecord> spans_;
  std::vector<std::size_t> roots_;
  std::unordered_map<std::uint64_t, std::vector<std::size_t>> children_;
};

}  // namespace stcn
