// Flight recorder: a bounded ring of recent cluster state frames, frozen
// into a postmortem bundle when an alert fires.
//
// During normal operation the Cluster appends one compact frame per health
// sample (node statuses, firing alerts, ledger scalars). The ring is cheap
// and always on — the point is that when something finally breaks, the
// moments *before* the trigger are already captured. On a trigger (an alert
// rule firing, an SLO burning hot, or a worker's recovery_failed counter
// moving) the Cluster freezes a PostmortemBundle: the firing rule, SLO
// burn-rate series, exemplar traces for the slowest buckets, top-K cost
// rows from the ResourceLedger, slow-query entries, recent health events,
// cluster config, and the frame ring itself — one JSON document a human (or
// ci.sh chaos run) can read to answer "what happened and who did it".
// Sections are stored exactly as the Cluster wrote them; the bundle only
// frames them.
#pragma once

#include <cstdint>
#include <deque>
#include <string>

#include "common/time.h"
#include "obs/json.h"

namespace stcn {

/// What tripped the recorder.
struct FlightTrigger {
  std::string kind;     // "alert" | "slo" | "recovery_failed"
  std::string rule;     // firing rule name ("slo:query_latency", ...)
  std::string subject;  // node the alert indicts ("" when cluster-wide)
  std::string severity;
  double value = 0.0;
  double threshold = 0.0;
};

/// The sections the Cluster writes at freeze time: raw JSON fragments, each
/// a complete value (empty string = omitted), kept verbatim.
struct PostmortemSections {
  std::string slo_json;           // SLO status + burn series
  std::string cost_json;          // ledger totals + top-K heavy hitters
  std::string exemplars_json;     // exemplar rows with attached span trees
  std::string events_json;        // recent health events
  std::string slow_queries_json;  // slow-query log entries
  std::string config_json;        // cluster config scalars
  std::string heat_json;          // heat table + top-K placement advice
};

/// A frozen postmortem: the Cluster's sections plus the trigger and the
/// ring of pre-trigger frames.
struct PostmortemBundle : PostmortemSections {
  TimePoint frozen_at;
  std::uint64_t sequence = 0;  // 1-based freeze index
  FlightTrigger trigger;
  std::string frames_json;     // the ring of pre-trigger frames

  [[nodiscard]] std::string to_json() const;
  void append_json(obs::JsonWriter& w) const;
};

struct FlightRecorderConfig {
  /// Pre-trigger frames retained in the ring.
  std::size_t frame_capacity = 32;
  /// Frozen bundles retained (oldest evicted first).
  std::size_t max_bundles = 4;
};

class FlightRecorder {
 public:
  struct Frame {
    TimePoint at;
    std::string data_json;  // compact cluster-state object
  };

  explicit FlightRecorder(FlightRecorderConfig config = {})
      : config_(config) {}

  /// Appends one frame to the ring (oldest evicted at capacity).
  void record_frame(TimePoint at, std::string data_json) {
    while (frames_.size() >= config_.frame_capacity && !frames_.empty()) {
      frames_.pop_front();
    }
    if (config_.frame_capacity > 0) {
      frames_.push_back(Frame{at, std::move(data_json)});
    }
  }

  /// Freezes the current ring plus `sections` (kept verbatim) into a
  /// bundle.
  const PostmortemBundle& freeze(TimePoint now, const FlightTrigger& trigger,
                                 PostmortemSections sections);

  [[nodiscard]] const std::deque<Frame>& frames() const { return frames_; }
  [[nodiscard]] const std::deque<PostmortemBundle>& bundles() const {
    return bundles_;
  }
  /// Bundles ever frozen (>= bundles().size() once eviction kicks in).
  [[nodiscard]] std::uint64_t total_frozen() const { return total_frozen_; }
  [[nodiscard]] const PostmortemBundle* latest() const {
    return bundles_.empty() ? nullptr : &bundles_.back();
  }

 private:
  FlightRecorderConfig config_;
  std::deque<Frame> frames_;
  std::deque<PostmortemBundle> bundles_;
  std::uint64_t total_frozen_ = 0;
};

}  // namespace stcn
