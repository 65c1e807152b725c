#include "obs/flight_recorder.h"

namespace stcn {
namespace {

void append_section(obs::JsonWriter& w, const char* key,
                    const std::string& raw) {
  if (raw.empty()) return;
  w.key(key);
  w.raw_value(raw);
}

}  // namespace

void PostmortemBundle::append_json(obs::JsonWriter& w) const {
  w.begin_object();
  w.key("frozen_at_us");
  w.value(frozen_at.micros_since_origin());
  w.key("sequence");
  w.value(sequence);
  w.key("trigger");
  w.begin_object();
  w.key("kind");
  w.value(trigger.kind);
  w.key("rule");
  w.value(trigger.rule);
  w.key("subject");
  w.value(trigger.subject);
  w.key("severity");
  w.value(trigger.severity);
  w.key("value");
  w.value(trigger.value);
  w.key("threshold");
  w.value(trigger.threshold);
  w.end_object();
  append_section(w, "slo", slo_json);
  append_section(w, "cost", cost_json);
  append_section(w, "exemplars", exemplars_json);
  append_section(w, "events", events_json);
  append_section(w, "slow_queries", slow_queries_json);
  append_section(w, "config", config_json);
  append_section(w, "heat", heat_json);
  append_section(w, "frames", frames_json);
  w.end_object();
}

std::string PostmortemBundle::to_json() const {
  obs::JsonWriter w;
  append_json(w);
  return w.take();
}

const PostmortemBundle& FlightRecorder::freeze(TimePoint now,
                                               const FlightTrigger& trigger,
                                               PostmortemSections sections) {
  PostmortemBundle b;
  static_cast<PostmortemSections&>(b) = std::move(sections);
  b.frozen_at = now;
  b.sequence = ++total_frozen_;
  b.trigger = trigger;

  obs::JsonWriter w;
  w.begin_array();
  for (const Frame& f : frames_) {
    w.begin_object();
    w.key("at_us");
    w.value(f.at.micros_since_origin());
    if (!f.data_json.empty()) {
      w.key("data");
      w.raw_value(f.data_json);
    }
    w.end_object();
  }
  w.end_array();
  b.frames_json = w.take();

  while (bundles_.size() >= config_.max_bundles && !bundles_.empty()) {
    bundles_.pop_front();
  }
  bundles_.push_back(std::move(b));
  return bundles_.back();
}

}  // namespace stcn
