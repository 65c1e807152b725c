// Shared plumbing for the end-to-end benchmark: command-line options, the
// per-run recorder, order-statistics helpers and answer digests.
#pragma once

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <unordered_map>
#include <vector>

#include "query/result.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

[[nodiscard]] inline double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Where the traced run writes its spans (empty: not written).
  std::string spans_path;
};

/// Nearest-rank percentile (q in [0, 1]) of an unsorted sample.
[[nodiscard]] inline double percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  auto rank = static_cast<std::size_t>(q * static_cast<double>(v.size()));
  if (rank >= v.size()) rank = v.size() - 1;
  return v[rank];
}

[[nodiscard]] inline double median(std::vector<double> v) {
  return percentile(std::move(v), 0.5);
}

/// Median over rounds of each round's percentile: a host hiccup during one
/// round moves that round's figure only. `ends` holds the sample count at
/// the end of each round.
[[nodiscard]] inline double round_percentile(
    const std::vector<double>& v, const std::vector<std::size_t>& ends,
    double q) {
  std::vector<double> per_round;
  std::size_t begin = 0;
  for (std::size_t end : ends) {
    per_round.push_back(percentile(
        {v.begin() + static_cast<std::ptrdiff_t>(begin),
         v.begin() + static_cast<std::ptrdiff_t>(end)},
        q));
    begin = end;
  }
  return median(std::move(per_round));
}

[[nodiscard]] inline double mean(const std::vector<double>& v) {
  double sum = 0.0;
  for (double x : v) sum += x;
  return v.empty() ? 0.0 : sum / static_cast<double>(v.size());
}

[[nodiscard]] inline double ratio(double num, double den) {
  return den > 0.0 ? num / den : 0.0;
}

/// FNV-1a style mixing, used for answer digests and the work fingerprint.
[[nodiscard]] inline std::uint64_t mix(std::uint64_t h, std::uint64_t v) {
  h ^= v + 0x9e3779b97f4a7c15ULL + (h << 6) + (h >> 2);
  return h * 0x100000001b3ULL;
}

/// Order-independent digest of a query answer: the multiset of detection
/// ids plus every (group key, count) pair.
[[nodiscard]] inline std::uint64_t digest(const stcn::QueryResult& r) {
  std::vector<std::uint64_t> ids;
  ids.reserve(r.detections.size());
  for (const stcn::Detection& d : r.detections) ids.push_back(d.id.value());
  std::sort(ids.begin(), ids.end());
  std::uint64_t h = mix(0, ids.size());
  for (std::uint64_t id : ids) h = mix(h, id);
  for (const auto& [key, n] : r.counts) h = mix(mix(h, key), n);
  return h;
}

/// Host speed gauge. A shared host can change speed between runs and within
/// one (by 2.4x for many minutes on the 4-core cloud VM the bounds were set
/// on), while the work a run does stays fixed. The gauge times a fixed
/// reference kernel that uses none of stcn's code: hash-table probes, a
/// sort and byte-buffer appends, the operation mix of the ingest and query
/// paths. The host's speed also flickers by ±15% from one sample to the
/// next, so the gauge is sampled throughout the run (before the workload,
/// about once a second between client steps, and after), and the median
/// of all samples restates wall figures at a nominal host speed.
class HostGauge {
 public:
  /// Reference-kernel time on an unloaded host (the 4-core VM above).
  static constexpr double kNominalMs = 40.0;

  void sample() {
    Clock::time_point start = Clock::now();
    std::uint64_t x = 1;
    std::uint64_t acc = 0;
    auto next = [&x] {
      x += 0x9e3779b97f4a7c15ULL;
      std::uint64_t z = x;
      z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
      z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
      return z ^ (z >> 31);
    };
    // About 4 MB at its peak, so it barely moves the run's peak RSS.
    std::unordered_map<std::uint64_t, std::uint64_t> table;
    for (int i = 0; i < 50'000; ++i) table[next() % 200'000] = i;
    for (int pass = 0; pass < 2; ++pass) {
      for (int i = 0; i < 400'000; ++i) {
        auto it = table.find(next() % 200'000);
        if (it != table.end()) acc += it->second;
      }
    }
    std::vector<std::uint64_t> keys(200'000);
    for (int pass = 0; pass < 2; ++pass) {
      for (std::uint64_t& k : keys) k = next();
      std::sort(keys.begin(), keys.end());
    }
    std::vector<std::uint8_t> bytes;
    for (int pass = 0; pass < 16; ++pass) {
      bytes.clear();
      for (int i = 0; i < 125'000; ++i) {
        std::uint64_t v = next();
        auto* p = reinterpret_cast<const std::uint8_t*>(&v);
        bytes.insert(bytes.end(), p, p + sizeof v);
      }
      acc += bytes[bytes.size() / 2];
    }
    acc += keys[keys.size() / 2];
    sink_ = acc;
    samples_.push_back(seconds_since(start) * 1e3);
  }

  [[nodiscard]] double reference_ms() const { return median(samples_); }
  [[nodiscard]] std::size_t samples() const { return samples_.size(); }
  /// Multiply a wall time by this (divide a rate) to restate it at the
  /// nominal host speed.
  [[nodiscard]] double factor() const {
    return samples_.empty() ? 1.0 : kNominalMs / reference_ms();
  }

 private:
  std::vector<double> samples_;
  // Every kernel result lands here, so no part can be optimized away.
  volatile std::uint64_t sink_ = 0;
};

/// Everything one run measures. Wall figures are host time; "sim" figures
/// are deltas of the cluster's virtual clock and repeat exactly per seed.
struct Recorder {
  std::vector<double> setup_s;
  /// Detections per wall second inside ingest calls, one value per ingest
  /// phase (the timed stream, or each set-up preload).
  double ingest_wall_s = 0.0;
  std::uint64_t ingest_dets = 0;
  std::vector<double> preload_dps;

  std::vector<double> query_wall_us;
  std::vector<double> query_sim_us;
  std::vector<std::uint8_t> query_kind;
  double query_wall_s = 0.0;

  /// One client step: an ingest chunk plus its dashboard batch, one query,
  /// or one reconstructed path, depending on the workload.
  std::vector<double> step_wall_ms;
  std::vector<double> step_sim_ms;

  /// Wall time of each complete round of the workload's fixed work.
  std::vector<double> round_s;
  /// Samples recorded by the end of the first round. Sim figures come from
  /// the first round only, so they repeat exactly for a seed however many
  /// rounds the host's speed allowed.
  std::size_t first_round_queries = 0;
  std::size_t first_round_steps = 0;
  /// Sample counts at the end of each round.
  std::vector<std::size_t> query_round_ends;
  std::vector<std::size_t> step_round_ends;

  /// Sampled about once a second, between client steps.
  HostGauge* host = nullptr;
  Clock::time_point last_host_sample = Clock::now();

  /// Records one client step: its wall time and its sim time.
  void end_step(Clock::time_point start, double sim_ms) {
    step_wall_ms.push_back(seconds_since(start) * 1e3);
    step_sim_ms.push_back(sim_ms);
    if (host != nullptr && seconds_since(last_host_sample) >= 1.0) {
      host->sample();
      last_host_sample = Clock::now();
    }
  }

  void end_round(Clock::time_point round_start) {
    round_s.push_back(seconds_since(round_start));
    query_round_ends.push_back(query_wall_us.size());
    step_round_ends.push_back(step_wall_ms.size());
    if (round_s.size() == 1) {
      first_round_queries = query_sim_us.size();
      first_round_steps = step_sim_ms.size();
    }
  }
  [[nodiscard]] std::vector<double> first_round_query_sim_us() const {
    return {query_sim_us.begin(),
            query_sim_us.begin() +
                static_cast<std::ptrdiff_t>(first_round_queries)};
  }
  [[nodiscard]] std::vector<double> first_round_step_sim_ms() const {
    return {step_sim_ms.begin(),
            step_sim_ms.begin() +
                static_cast<std::ptrdiff_t>(first_round_steps)};
  }

  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;

  /// Workload-specific figures printed in the report (name → value, unit).
  std::map<std::string, std::pair<double, std::string>> extra;
};

/// Counts behind the per-layer metrics of a traced run, summed over every
/// cluster the run built (see main.cpp for the derived metrics).
struct LayerCounts {
  // Filled by Client around each public call.
  std::uint64_t dets = 0;
  std::uint64_t ingest_messages = 0;
  std::uint64_t ingest_bytes = 0;
  double ingest_wall_s = 0.0;
  std::uint64_t queries = 0;
  std::uint64_t query_messages = 0;
  std::uint64_t query_bytes = 0;
  // Filled by the worker proxies on snapshot ticks.
  std::uint64_t snapshot_bytes_written = 0;
  // Read from each cluster's public counters and gauges before teardown.
  std::uint64_t monitor_tests = 0;
  std::uint64_t retransmits = 0;
  std::uint64_t fragments = 0;
  std::uint64_t rows_evaluated = 0;
  std::uint64_t rows_returned = 0;
  std::uint64_t blocks_scanned = 0;
  std::uint64_t blocks_skipped = 0;
  double store_bytes = 0.0;
  double stored_dets = 0.0;
  double vault_bytes = 0.0;
  double replay_log_bytes = 0.0;
  // Filled by the re-id workload.
  std::uint64_t paths = 0;
  std::uint64_t camera_queries = 0;
  std::uint64_t candidates = 0;
  std::uint64_t quantized_pruned = 0;
  // Ledger coverage: top-level span time against wall time, per phase.
  double setup_wall_s = 0.0;
  double setup_covered_s = 0.0;
  double timed_wall_s = 0.0;
  double timed_covered_s = 0.0;
};

}  // namespace perfbench
