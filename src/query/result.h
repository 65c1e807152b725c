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
#include <utility>
#include <vector>

#include "common/serialize.h"
#include "query/query.h"
#include "trace/detection.h"

namespace stcn {

/// An aggregate answer: (group key, count) pairs, keys ascending and unique.
using CountPairs = std::vector<std::pair<std::uint64_t, std::uint64_t>>;

/// Sums the counts of adjacent pairs with equal keys into the first of them.
inline void sum_adjacent_keys(CountPairs& pairs) {
  std::size_t w = 0;
  for (std::size_t i = 0; i < pairs.size(); ++i) {
    if (w > 0 && pairs[w - 1].first == pairs[i].first) {
      pairs[w - 1].second += pairs[i].second;
    } else {
      pairs[w++] = pairs[i];
    }
  }
  pairs.resize(w);
}

/// Puts `pairs` in key order and sums the counts of equal keys.
inline void sort_and_sum(CountPairs& pairs) {
  std::sort(pairs.begin(), pairs.end());
  sum_adjacent_keys(pairs);
}

struct QueryResult {
  QueryId query;
  std::vector<Detection> detections;
  /// For kCount and kHeatmap. Key 0 is the ungrouped count, present even
  /// when it is 0; a group-by keys cameras by id and a heatmap keys cells
  /// by flat index, and both list only non-zero counts.
  CountPairs counts;

  /// The count under `key`; 0 when absent.
  [[nodiscard]] std::uint64_t count_of(std::uint64_t key) const {
    auto it = std::lower_bound(
        counts.begin(), counts.end(), key,
        [](const auto& pair, std::uint64_t k) { return pair.first < k; });
    return it != counts.end() && it->first == key ? it->second : 0;
  }

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

/// Encoders write the pairs in key order; pairs out of order or repeated
/// are sorted and summed, so any pair sequence decodes to valid counts.
inline QueryResult deserialize_query_result(BinaryReader& r) {
  QueryResult out;
  out.query = r.read_id<QueryIdTag>();
  out.detections = r.read_vector<Detection>(
      [](BinaryReader& br) { return deserialize_detection(br); });
  std::uint32_t n = r.read_u32();
  // A pair is 16 bytes: a count the remaining bytes cannot hold is corrupt
  // and must not size an allocation.
  if (n > r.remaining() / 16) {
    r.fail();
    return out;
  }
  out.counts.reserve(n);
  bool ordered = true;
  for (std::uint32_t i = 0; i < n; ++i) {
    std::uint64_t key = r.read_u64();
    std::uint64_t count = r.read_u64();
    if (!out.counts.empty() && key <= out.counts.back().first) ordered = false;
    out.counts.emplace_back(key, count);
  }
  if (!ordered) sort_and_sum(out.counts);
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
    // Both count runs are in key order: one linear merge keeps the union
    // sorted, and take() sums the equal keys it leaves adjacent.
    auto& cs = merged_.counts;
    if (cs.empty()) {
      cs = std::move(fragment.counts);
    } else if (!fragment.counts.empty()) {
      auto mid = cs.insert(cs.end(), fragment.counts.begin(),
                           fragment.counts.end());
      std::inplace_merge(cs.begin(), mid, cs.end(),
                         [](const auto& a, const auto& b) {
                           return a.first < b.first;
                         });
    }
  }

  /// Finalizes ordering and truncation by query kind (order_rows) and sums
  /// the counts of keys that several fragments reported.
  [[nodiscard]] QueryResult take() {
    sum_adjacent_keys(merged_.counts);
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
