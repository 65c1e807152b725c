// Per-object trajectory index.
//
// Maps object id → time-ordered detections of that object, supporting
// trajectory reconstruction queries ("where was obj/42 between t1 and t2").
// Tolerates mildly out-of-order arrival with sorted insert: near-time-ordered
// arrival appends at the back in O(1).
// It also keeps a Bloom filter of the object ids it holds (the partition's
// object-presence summary), rebuilt with the store on compaction.
#pragma once

#include <algorithm>
#include <unordered_map>
#include <vector>

#include "common/ids.h"
#include "common/time.h"
#include "index/bloom.h"
#include "index/detection_store.h"

namespace stcn {

class TrajectoryStore {
 public:
  void insert(const DetectionStore& store, DetectionRef ref) {
    TimePoint time = store.time_of(ref);
    auto [slot, opened] = tracks_.try_emplace(store.object_of(ref));
    if (opened) objects_.insert(slot->first.value());
    auto& track = slot->second;
    Entry entry{time, ref};
    if (track.empty() || track.back().time <= time) {
      track.push_back(entry);
    } else {
      auto it = std::upper_bound(
          track.begin(), track.end(), time,
          [](TimePoint t, const Entry& e) { return t < e.time; });
      track.insert(it, entry);
    }
    ++size_;
  }

  /// Detections of `object` during `interval`, time-ordered.
  [[nodiscard]] std::vector<DetectionRef> query(
      ObjectId object, const TimeInterval& interval) const {
    std::vector<DetectionRef> out;
    auto it = tracks_.find(object);
    if (it == tracks_.end()) return out;
    const auto& track = it->second;
    auto lo = std::lower_bound(
        track.begin(), track.end(), interval.begin,
        [](const Entry& e, TimePoint t) { return e.time < t; });
    for (auto e = lo; e != track.end() && e->time < interval.end; ++e) {
      out.push_back(e->ref);
    }
    return out;
  }

  [[nodiscard]] bool has_object(ObjectId object) const {
    return tracks_.contains(object);
  }

  /// Bloom filter of every object with at least one detection here.
  [[nodiscard]] const BloomFilter& objects() const { return objects_; }
  [[nodiscard]] std::size_t size() const { return size_; }
  [[nodiscard]] std::size_t object_count() const { return tracks_.size(); }

 private:
  struct Entry {
    TimePoint time;
    DetectionRef ref;
  };
  static constexpr std::size_t kObjectFilterBits = 2048;

  std::unordered_map<ObjectId, std::vector<Entry>> tracks_;
  BloomFilter objects_{kObjectFilterBits};
  std::size_t size_ = 0;
};

}  // namespace stcn
