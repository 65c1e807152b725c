// Query results and partial-result merging.
//
// Workers return QueryResult fragments; the coordinator merges them. Merging
// must be idempotent with respect to duplicated detections (a failover can
// cause a primary and a promoted backup to both report the same event), so
// detection merging dedups on DetectionId.
#pragma once

#include <algorithm>
#include <cstdint>
#include <iterator>
#include <map>
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

/// Puts result rows in the answer order of `query` and cuts them, for any
/// row type whose RowKey `key(row)` returns:
///  * kKnn      — nearest-first (ties by detection id), truncated to k
///  * others    — time-ordered (ties by detection id), truncated to the
///                query's `limit` when one is set.
/// Copies of one row are made adjacent by a sort whose key ends in the
/// detection id, and all but the first are removed before the cut. The
/// coordinator's merge (ResultMerger) and the worker's fragment writer
/// (encode_rows_response) both order through here.
///
/// Limit semantics compose across merge levels: the earliest `limit`
/// detections of a union are always among the union of each fragment's
/// earliest `limit`, so per-worker truncation plus final truncation
/// yields exactly the global earliest `limit`.
template <typename Row, typename KeyOf>
void order_rows(const Query& query, std::vector<Row>& rows, KeyOf key) {
  auto same_id = [&key](const Row& a, const Row& b) {
    return key(a).id == key(b).id;
  };
  if (query.kind == QueryKind::kKnn) {
    // Copies of one row can differ in position by the cold tier's quantum
    // when one holder has demoted its block and the other has not, and a
    // row between them in distance would part them. So k-NN drops
    // duplicates in id order; its rows number k per partition.
    std::sort(rows.begin(), rows.end(), [&key](const Row& a, const Row& b) {
      return key(a).id < key(b).id;
    });
    rows.erase(std::unique(rows.begin(), rows.end(), same_id), rows.end());
    Point center = query.circle.center;
    std::sort(rows.begin(), rows.end(),
              [&key, center](const Row& a, const Row& b) {
                const RowKey& ka = key(a);
                const RowKey& kb = key(b);
                double da = squared_distance(ka.position, center);
                double db = squared_distance(kb.position, center);
                if (da != db) return da < db;
                return ka.id < kb.id;
              });
    if (rows.size() > query.k) rows.resize(query.k);
  } else {
    std::sort(rows.begin(), rows.end(), [&key](const Row& a, const Row& b) {
      const RowKey& ka = key(a);
      const RowKey& kb = key(b);
      if (ka.time != kb.time) return ka.time < kb.time;
      return ka.id < kb.id;
    });
    rows.erase(std::unique(rows.begin(), rows.end(), same_id), rows.end());
    if (query.limit > 0 && rows.size() > query.limit) {
      rows.resize(query.limit);
    }
  }
}

/// Merges worker fragments into the final result for `query`.
///
/// Fragments are moved in, never copied. Duplicates (hedge answers,
/// failover re-issues, duplicated messages) carry the same detection id and
/// are dropped by `take()` after a sort makes them adjacent.
class ResultMerger {
 public:
  explicit ResultMerger(const Query& query) : query_(query) {
    merged_.query = query.id;
  }

  void add(QueryResult fragment) {
    auto& ds = merged_.detections;
    if (ds.empty()) {
      ds = std::move(fragment.detections);
    } else {
      ds.insert(ds.end(), std::make_move_iterator(fragment.detections.begin()),
                std::make_move_iterator(fragment.detections.end()));
    }
    if (merged_.counts.empty()) {
      merged_.counts = std::move(fragment.counts);
    } else {
      for (const auto& [key, n] : fragment.counts) merged_.counts[key] += n;
    }
  }

  /// Finalizes ordering and truncation by query kind (order_rows).
  [[nodiscard]] QueryResult take() {
    order_rows(query_, merged_.detections, [](const Detection& d) {
      return RowKey{d.id, d.time, d.position};
    });
    return std::move(merged_);
  }

 private:
  Query query_;
  QueryResult merged_;
};

}  // namespace stcn
