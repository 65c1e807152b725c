// Query results and partial-result merging.
//
// Workers return QueryResult fragments; the coordinator merges them. Merging
// must be idempotent with respect to duplicated detections (a failover can
// cause a primary and a promoted backup to both report the same event), so
// detection merging dedups on DetectionId.
#pragma once

#include <algorithm>
#include <cstdint>
#include <map>
#include <unordered_set>
#include <vector>

#include "common/serialize.h"
#include "query/query.h"
#include "trace/detection.h"

namespace stcn {

struct QueryResult {
  QueryId query;
  std::vector<Detection> detections;
  /// For kCount: group key → count. Key 0 is the ungrouped total;
  /// otherwise keys are camera ids.
  std::map<std::uint64_t, std::uint64_t> counts;

  [[nodiscard]] std::uint64_t total_count() const {
    std::uint64_t t = 0;
    for (const auto& [key, n] : counts) t += n;
    return t;
  }
};

inline void serialize(BinaryWriter& w, const QueryResult& r) {
  std::size_t payload = 8 + 4 + 4 + 16 * r.counts.size();
  for (const Detection& d : r.detections) payload += wire_size(d);
  w.reserve(payload);
  w.write_id(r.query);
  w.write_vector(r.detections, [](BinaryWriter& bw, const Detection& d) {
    serialize(bw, d);
  });
  w.write_u32(static_cast<std::uint32_t>(r.counts.size()));
  for (const auto& [key, n] : r.counts) {
    w.write_u64(key);
    w.write_u64(n);
  }
}

inline QueryResult deserialize_query_result(BinaryReader& r) {
  QueryResult out;
  out.query = r.read_id<QueryIdTag>();
  out.detections = r.read_vector<Detection>(
      [](BinaryReader& br) { return deserialize_detection(br); });
  std::uint32_t n = r.read_u32();
  for (std::uint32_t i = 0; i < n && !r.failed(); ++i) {
    std::uint64_t key = r.read_u64();
    out.counts[key] += r.read_u64();
  }
  return out;
}

/// Merges worker fragments into the final result for `query`.
class ResultMerger {
 public:
  explicit ResultMerger(const Query& query) : query_(query) {
    merged_.query = query.id;
  }

  void add(const QueryResult& fragment) {
    for (const Detection& d : fragment.detections) {
      if (seen_.insert(d.id.value()).second) {
        merged_.detections.push_back(d);
      }
    }
    for (const auto& [key, n] : fragment.counts) {
      merged_.counts[key] += n;
    }
  }

  /// Finalizes ordering / truncation by query kind:
  ///  * kKnn      — nearest-first, truncated to k
  ///  * others    — time-ordered (ties by detection id), truncated to the
  ///                query's `limit` when one is set.
  ///
  /// Limit semantics compose across merge levels: the earliest `limit`
  /// detections of a union are always among the union of each fragment's
  /// earliest `limit`, so per-worker truncation plus final truncation
  /// yields exactly the global earliest `limit`.
  [[nodiscard]] QueryResult take() {
    auto& ds = merged_.detections;
    if (query_.kind == QueryKind::kKnn) {
      Point center = query_.circle.center;
      std::sort(ds.begin(), ds.end(),
                [center](const Detection& a, const Detection& b) {
                  double da = squared_distance(a.position, center);
                  double db = squared_distance(b.position, center);
                  if (da != db) return da < db;
                  return a.id < b.id;
                });
      if (ds.size() > query_.k) ds.resize(query_.k);
    } else {
      std::sort(ds.begin(), ds.end(), [](const Detection& a, const Detection& b) {
        if (a.time != b.time) return a.time < b.time;
        return a.id < b.id;
      });
      if (query_.limit > 0 && ds.size() > query_.limit) {
        ds.resize(query_.limit);
      }
    }
    return std::move(merged_);
  }

 private:
  Query query_;
  QueryResult merged_;
  std::unordered_set<std::uint64_t> seen_;
};

}  // namespace stcn
