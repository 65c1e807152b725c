#include "workloads.h"

#include <functional>
#include <set>
#include <stdexcept>
#include <unordered_map>

#include "baseline/centralized.h"
#include "partition/strategies.h"
#include "reid/path_reconstruction.h"
#include "trace/generator.h"

namespace perfbench {
namespace {

using stcn::Cluster;
using stcn::Detection;
using stcn::Duration;
using stcn::Query;
using stcn::QueryResult;
using stcn::Rect;
using stcn::TimeInterval;
using stcn::TimePoint;

// ----------------------------------------------------------------- inputs

/// City-sized scenario: a 20×20-block road grid (2.4 km square) with 300
/// cameras. The city and its cameras are the deployment and stay fixed;
/// the benchmark seed draws the traffic (mobility, detector noise).
stcn::TraceConfig city(std::uint64_t seed, std::size_t objects,
                       Duration duration, double hotspot_fraction) {
  stcn::Rng rng(seed);
  stcn::TraceConfig c;
  c.roads.grid_cols = 20;
  c.roads.grid_rows = 20;
  c.roads.block_size_m = 120.0;
  c.roads.seed = 101;
  c.cameras.camera_count = 300;
  c.cameras.seed = 102;
  c.mobility.object_count = objects;
  c.mobility.hotspot_fraction = hotspot_fraction;
  c.mobility.seed = rng.next_u64();
  c.duration = duration;
  c.seed = rng.next_u64();
  return c;
}

/// The deployment shape the benchmark fixes: 8 workers, hybrid
/// partitioning. Every ClusterConfig tuning knob stays at its default.
std::unique_ptr<Cluster> make_cluster(const stcn::Trace& trace, Rect world) {
  stcn::ClusterConfig config;
  config.worker_count = 8;
  return std::make_unique<Cluster>(
      world,
      std::make_unique<stcn::HybridStrategy>(world, trace.cameras,
                                             stcn::HybridStrategy::Config{}),
      config);
}

TimePoint at(Duration d) { return TimePoint::origin() + d; }

Duration random_duration(stcn::Rng& rng, Duration lo, Duration hi) {
  return Duration::micros(
      rng.uniform_int(lo.count_micros(), hi.count_micros()));
}

stcn::Point random_camera_point(stcn::Rng& rng, const stcn::Trace& trace) {
  const auto& cams = trace.cameras.cameras();
  return cams[rng.uniform_index(cams.size())].fov.apex;
}

Rect square_at(stcn::Rng& rng, const stcn::Trace& trace, double lo_m,
               double hi_m) {
  return Rect::centered(random_camera_point(rng, trace),
                        rng.uniform(lo_m, hi_m) / 2.0);
}

/// Index range [first, last) of the detections with time in [begin, end).
std::pair<std::size_t, std::size_t> slice(const std::vector<Detection>& dets,
                                          TimePoint begin, TimePoint end) {
  auto lo = std::lower_bound(
      dets.begin(), dets.end(), begin,
      [](const Detection& d, TimePoint t) { return d.time < t; });
  auto hi = std::lower_bound(
      lo, dets.end(), end,
      [](const Detection& d, TimePoint t) { return d.time < t; });
  return {static_cast<std::size_t>(lo - dets.begin()),
          static_cast<std::size_t>(hi - dets.begin())};
}

// ------------------------------------------------------ cluster bookkeeping

/// Cumulative work counters of one cluster (deltas make the fingerprint).
struct Snap {
  std::uint64_t messages = 0, bytes = 0, fragments = 0, rows_evaluated = 0,
                rows_returned = 0, blocks_scanned = 0, blocks_skipped = 0,
                snapshots = 0, partial = 0;
};

Snap snap(Cluster& c) {
  Snap s;
  s.messages = counter(c.network().metrics(), "messages_sent").value();
  s.bytes = counter(c.network().metrics(), "bytes_sent").value();
  const stcn::CostVector& cost = c.cost_ledger().totals();
  s.fragments = cost.fragments;
  s.rows_evaluated = cost.rows_evaluated;
  s.rows_returned = cost.rows_returned;
  s.blocks_scanned = cost.blocks_scanned;
  s.blocks_skipped = cost.blocks_skipped;
  for (stcn::WorkerId w : c.worker_ids()) {
    s.snapshots += counter(c.worker(w).metrics(), "snapshots_taken").value();
  }
  s.partial = counter(c.coordinator().metrics(), "queries_partial").value();
  return s;
}

Fingerprint delta(const Snap& a, const Snap& b) {
  Fingerprint f;
  f.messages = b.messages - a.messages;
  f.bytes = b.bytes - a.bytes;
  f.fragments = b.fragments - a.fragments;
  f.rows_evaluated = b.rows_evaluated - a.rows_evaluated;
  f.rows_returned = b.rows_returned - a.rows_returned;
  f.blocks_scanned = b.blocks_scanned - a.blocks_scanned;
  f.blocks_skipped = b.blocks_skipped - a.blocks_skipped;
  f.snapshots = b.snapshots - a.snapshots;
  return f;
}

double gauge_sum(Cluster& c, const char* name) {
  double total = 0.0;
  for (stcn::WorkerId w : c.worker_ids()) {
    const auto& gauges = c.worker(w).metrics().gauges();
    auto it = gauges.find(name);
    if (it != gauges.end()) total += it->second->value();
  }
  return total;
}

/// Adds a cluster's lifetime counters to the traced run's counts; gauges
/// describe the last cluster.
void absorb(Cluster& c, LayerCounts& counts) {
  counts.retransmits +=
      counter_or_zero(c.coordinator().metrics(), "retransmits");
  std::size_t stored = 0;
  for (stcn::WorkerId w : c.worker_ids()) {
    stcn::WorkerNode& worker = c.worker(w);
    counts.monitor_tests += counter(worker.metrics(), "monitors_tested").value();
    counts.retransmits += counter_or_zero(worker.metrics(), "retransmits");
    stored += worker.stored_detections();
  }
  const stcn::CostVector& cost = c.cost_ledger().totals();
  counts.fragments += cost.fragments;
  counts.rows_evaluated += cost.rows_evaluated;
  counts.rows_returned += cost.rows_returned;
  counts.blocks_scanned += cost.blocks_scanned;
  counts.blocks_skipped += cost.blocks_skipped;
  counts.store_bytes = gauge_sum(c, "store_memory_bytes");
  counts.stored_dets = static_cast<double>(stored);
  counts.vault_bytes = gauge_sum(c, "snapshot_bytes");
  counts.replay_log_bytes = gauge_sum(c, "replay_log_bytes");
}

/// Checks a round's answers against the expected digests.
std::uint64_t mismatches(const std::vector<std::vector<std::uint64_t>>& got,
                         const std::vector<std::uint64_t>& expected) {
  std::uint64_t bad = 0;
  for (const auto& round : got) {
    for (std::size_t i = 0; i < round.size(); ++i) {
      if (i >= expected.size() || round[i] != expected[i]) ++bad;
    }
  }
  return bad;
}

/// Records one client step: its wall time and its sim time.
void record_step(Recorder& rec, Clock::time_point start, Cluster& c,
                 TimePoint sim_start) {
  rec.end_step(start,
               static_cast<double>((c.now() - sim_start).count_micros()) /
                   1e3);
}

/// State and bookkeeping the three workloads share.
class Base : public Workload {
 public:
  [[nodiscard]] std::size_t detections() const override {
    return trace_.detections.size();
  }

 protected:
  explicit Base(const stcn::TraceConfig& config)
      : trace_(stcn::TraceGenerator::generate(config)),
        world_(trace_.roads.bounds(150.0)) {}

  /// Set-up bookkeeping: set-up time, and ledger coverage when traced.
  void end_setup(Clock::time_point start, double covered, Ledger* ledger,
                 Recorder& rec) {
    rec.setup_s.push_back(seconds_since(start));
    if (ledger != nullptr) {
      counts_.setup_wall_s += seconds_since(start);
      counts_.setup_covered_s += ledger->top_level_s() - covered;
    }
  }

  /// Builds a cluster and preloads the whole trace into it, `setups` times
  /// over (so set-up time and preload rate are medians), keeping the last.
  /// `also` runs inside each set-up after the preload.
  void preload(int setups, Ledger* ledger, Recorder& rec,
               std::unique_ptr<Cluster>& cluster,
               std::unique_ptr<Client>& client,
               const std::function<void()>& also) {
    for (int i = 0; i < setups; ++i) {
      client.reset();
      cluster.reset();
      Clock::time_point start = Clock::now();
      double covered = ledger != nullptr ? ledger->top_level_s() : 0.0;
      {
        Scope setup(ledger, Layer::kClientSetup);
        cluster = make_cluster(trace_, world_);
        client = std::make_unique<Client>(*cluster, world_, ledger, rec,
                                          &counts_);
        Clock::time_point ingest_start = Clock::now();
        client->ingest(trace_.detections, /*warmup=*/true);
        rec.preload_dps.push_back(
            static_cast<double>(trace_.detections.size()) /
            seconds_since(ingest_start));
        also();
      }
      end_setup(start, covered, ledger, rec);
    }
  }

  /// One round of timed work on one cluster.
  struct Round {
    Clock::time_point start;
    double covered;
    Snap before;
    std::vector<std::uint64_t> answers;
  };
  static Round begin_round(Cluster& c, Ledger* ledger) {
    return {Clock::now(), ledger != nullptr ? ledger->top_level_s() : 0.0,
            snap(c), {}};
  }
  /// Counts partial answers, keeps the answers for the oracle and the
  /// first round's fingerprint, and adds to the ledger coverage.
  void end_round(Round& round, Cluster& c, Ledger* ledger, Recorder& rec,
                 std::uint64_t candidates = 0) {
    Snap after = snap(c);
    rec.failed += after.partial - round.before.partial;
    answers_.push_back(std::move(round.answers));
    if (answers_.size() == 1) {
      print_ = delta(round.before, after);
      print_.candidates = candidates;
    }
    if (ledger != nullptr) {
      counts_.timed_wall_s += seconds_since(round.start);
      counts_.timed_covered_s += ledger->top_level_s() - round.covered;
    }
    rec.end_round(round.start);
  }

  stcn::Trace trace_;
  Rect world_;
  /// Answer digests, one vector per round, checked by verify().
  std::vector<std::vector<std::uint64_t>> answers_;
};

// ============================================================= city_ingest

/// Long-history live stream with standing zone monitors; dashboard queries
/// over the most recent minutes after every sim-time chunk.
class CityIngest final : public Base {
 public:
  explicit CityIngest(std::uint64_t seed)
      : Base(city(seed, 500, kHistory, /*hotspot_fraction=*/0.6)) {
    stcn::Rng rng(seed ^ 0xc17'1a6e57ULL);
    for (int i = 0; i < kMonitors; ++i) {
      monitors_.push_back({stcn::QueryId(0), square_at(rng, trace_, 250, 400),
                           Duration::minutes(1)});
    }
    warmup_ = slice(trace_.detections, TimePoint::origin(), at(kWarmup));
    for (Duration t = kWarmup; t < kHistory; t = t + kChunk) {
      chunks_.push_back(slice(trace_.detections, at(t), at(t + kChunk)));
      // Dashboard batch over the most recent minutes, ending at the
      // chunk's end (exclusive), so answers are final once it is ingested.
      TimeInterval recent{at(t + kChunk - kRecent), at(t + kChunk)};
      std::vector<Query> batch;
      // Two of each aggregate are city-wide, which the workers answer by
      // columnar scans pruned by the blocks' zone maps.
      for (int i = 0; i < 8; ++i) {
        batch.push_back(Query::count(
            stcn::QueryId(0),
            i < 6 ? square_at(rng, trace_, 300, 600) : world_, recent,
            i % 3 == 0 ? stcn::GroupBy::kCamera : stcn::GroupBy::kNone));
      }
      for (int i = 0; i < 8; ++i) {
        batch.push_back(Query::range(stcn::QueryId(0),
                                     square_at(rng, trace_, 150, 400),
                                     recent));
      }
      for (int i = 0; i < 4; ++i) {
        batch.push_back(Query::heatmap(
            stcn::QueryId(0),
            i < 2 ? square_at(rng, trace_, 800, 1600) : world_, 100.0,
            recent));
      }
      batches_.push_back(std::move(batch));
    }
  }

  void run(double seconds, Ledger* ledger, Recorder& rec) override {
    Clock::time_point start = Clock::now();
    do {
      // Every round streams into a fresh cluster.
      Clock::time_point setup_start = Clock::now();
      double covered = ledger != nullptr ? ledger->top_level_s() : 0.0;
      auto cluster = make_cluster(trace_, world_);
      Client client(*cluster, world_, ledger, rec, &counts_);
      std::vector<stcn::QueryId> monitor_ids;
      {
        Scope setup(ledger, Layer::kClientSetup);
        for (stcn::ContinuousQuerySpec spec : monitors_) {
          spec.id = cluster->next_query_id();
          monitor_ids.push_back(spec.id);
          cluster->install_monitor(spec);
        }
        client.ingest(span(warmup_), /*warmup=*/true);
      }
      end_setup(setup_start, covered, ledger, rec);

      Round round = begin_round(*cluster, ledger);
      for (std::size_t c = 0; c < chunks_.size(); ++c) {
        Clock::time_point step = Clock::now();
        TimePoint sim = cluster->now();
        client.ingest(span(chunks_[c]));
        for (Query q : batches_[c]) {
          q.id = cluster->next_query_id();
          round.answers.push_back(digest(client.execute(q)));
        }
        {
          Scope drain(ledger, Layer::kCoordDrain);
          for (stcn::QueryId id : monitor_ids) {
            deltas_ += cluster->drain_deltas(id).size();
          }
        }
        record_step(rec, step, *cluster, sim);
        rec.attempted += 1 + batches_[c].size();
      }
      end_round(round, *cluster, ledger, rec);
      if (ledger != nullptr) absorb(*cluster, counts_);
    } while (seconds_since(start) < seconds);
  }

  std::uint64_t verify(Recorder& rec) override {
    stcn::CentralizedIndex oracle(world_);
    oracle.ingest_all(trace_.detections);
    std::vector<std::uint64_t> expected;
    for (const auto& batch : batches_) {
      for (const Query& q : batch) expected.push_back(digest(oracle.execute(q)));
    }
    rec.extra["monitor_deltas_per_round"] = {
        static_cast<double>(deltas_) / static_cast<double>(answers_.size()),
        "count"};
    return mismatches(answers_, expected);
  }

 private:
  static constexpr Duration kHistory = Duration::minutes(30);
  static constexpr Duration kWarmup = Duration::minutes(5);
  static constexpr Duration kChunk = Duration::seconds(10);
  static constexpr Duration kRecent = Duration::minutes(2);
  static constexpr int kMonitors = 8;

  [[nodiscard]] std::span<const Detection> span(
      std::pair<std::size_t, std::size_t> r) const {
    return std::span<const Detection>(trace_.detections)
        .subspan(r.first, r.second - r.first);
  }

  std::vector<stcn::ContinuousQuerySpec> monitors_;
  std::pair<std::size_t, std::size_t> warmup_;
  std::vector<std::pair<std::size_t, std::size_t>> chunks_;
  std::vector<std::vector<Query>> batches_;
  std::uint64_t deltas_ = 0;
};

// ============================================================ forensic_mix

/// Dense, short, uniform history preloaded during set-up; then a seeded,
/// interleaved mix of all seven query kinds from one closed-loop client.
class ForensicMix final : public Base {
 public:
  explicit ForensicMix(std::uint64_t seed)
      : Base(city(seed, 1000, kHistory, /*hotspot_fraction=*/0.0)) {
    stcn::Rng rng(seed ^ 0xf0'4e451cULL);
    warmup_ = draw(rng, kWarmupQueries);
    mix_ = draw(rng, kMixQueries);
  }

  void run(double seconds, Ledger* ledger, Recorder& rec) override {
    std::unique_ptr<Cluster> cluster;
    std::unique_ptr<Client> client;  // destroyed before the cluster
    preload(ledger != nullptr ? 1 : kSetups, ledger, rec, cluster, client,
            [] {});
    // Warm-up queries: answers and latencies are discarded.
    std::size_t recorded = rec.query_wall_us.size();
    double recorded_wall_s = rec.query_wall_s;
    for (Query q : warmup_) {
      q.id = cluster->next_query_id();
      (void)client->execute(q);
    }
    rec.query_wall_us.resize(recorded);
    rec.query_sim_us.resize(recorded);
    rec.query_kind.resize(recorded);
    rec.query_wall_s = recorded_wall_s;

    Clock::time_point start = Clock::now();
    do {
      Round round = begin_round(*cluster, ledger);
      round.answers.reserve(mix_.size());
      for (Query q : mix_) {
        q.id = cluster->next_query_id();
        Clock::time_point step = Clock::now();
        TimePoint sim = cluster->now();
        round.answers.push_back(digest(client->execute(q)));
        record_step(rec, step, *cluster, sim);
      }
      rec.attempted += mix_.size();
      end_round(round, *cluster, ledger, rec);
    } while (seconds_since(start) < seconds);
    if (ledger != nullptr) absorb(*cluster, counts_);
  }

  std::uint64_t verify(Recorder&) override {
    stcn::CentralizedIndex oracle(world_);
    oracle.ingest_all(trace_.detections);
    std::vector<std::uint64_t> expected;
    expected.reserve(mix_.size());
    for (const Query& q : mix_) expected.push_back(digest(oracle.execute(q)));
    return mismatches(answers_, expected);
  }

 private:
  static constexpr Duration kHistory = Duration::minutes(10);
  static constexpr int kSetups = 3;
  static constexpr int kWarmupQueries = 200;
  static constexpr int kMixQueries = 1000;

  /// Draws `n` queries whose kinds and window types follow the mix
  /// exactly (per 20 queries: 4 k-NN, 3 range, 3 camera, 3 count,
  /// 2 circle, 2 heatmap, 3 trajectory; half of each kind all-time), in a
  /// seeded interleaved order. Only the parameters vary with the seed.
  std::vector<Query> draw(stcn::Rng& rng, int n) const {
    using stcn::QueryKind;
    static constexpr std::pair<QueryKind, int> kMix[] = {
        {QueryKind::kKnn, 4},        {QueryKind::kRange, 3},
        {QueryKind::kCameraWindow, 3}, {QueryKind::kCount, 3},
        {QueryKind::kCircle, 2},     {QueryKind::kHeatmap, 2},
        {QueryKind::kTrajectory, 3}};
    std::vector<std::pair<QueryKind, bool>> slots;
    for (int block = 0; block < n / 20; ++block) {
      for (auto [kind, count] : kMix) {
        for (int i = 0; i < count; ++i) {
          // Alternate all-time and bounded windows within each kind.
          slots.emplace_back(kind, (block * count + i) % 2 == 0);
        }
      }
    }
    for (std::size_t i = slots.size(); i > 1; --i) {
      std::swap(slots[i - 1], slots[rng.uniform_index(i)]);
    }
    std::vector<Query> out;
    out.reserve(slots.size());
    for (auto [kind, all_time] : slots) {
      out.push_back(make_query(rng, kind, all_time ? TimeInterval::all()
                                                   : window(rng)));
    }
    return out;
  }

  /// A bounded window of 1–3 minutes inside the history.
  static TimeInterval window(stcn::Rng& rng) {
    Duration len = random_duration(rng, Duration::minutes(1),
                                   Duration::minutes(3));
    Duration begin = random_duration(rng, Duration::zero(), kHistory - len);
    return {at(begin), at(begin + len)};
  }

  Query make_query(stcn::Rng& rng, stcn::QueryKind kind,
                   TimeInterval w) const {
    using stcn::QueryKind;
    stcn::QueryId id(0);
    switch (kind) {
      case QueryKind::kKnn: {
        stcn::Point c = random_camera_point(rng, trace_);
        c.x += rng.uniform(-100, 100);
        c.y += rng.uniform(-100, 100);
        return Query::knn(id, c, 10, w);
      }
      case QueryKind::kRange:
        return Query::range(id, square_at(rng, trace_, 150, 400), w);
      case QueryKind::kCircle:
        return Query::circle_query(
            id, {random_camera_point(rng, trace_), rng.uniform(100, 250)}, w);
      case QueryKind::kCount:
        // Local counts use the grid; city-wide ones use columnar scans.
        return Query::count(
            id, rng.bernoulli(0.5) ? square_at(rng, trace_, 300, 600) : world_,
            w,
            rng.bernoulli(0.5) ? stcn::GroupBy::kCamera
                               : stcn::GroupBy::kNone);
      case QueryKind::kHeatmap:
        return Query::heatmap(id, world_, 50.0, w);
      case QueryKind::kCameraWindow: {
        const auto& cams = trace_.cameras.cameras();
        return Query::camera_window(id, cams[rng.uniform_index(cams.size())].id,
                                    w);
      }
      case QueryKind::kTrajectory:
        break;
    }
    return Query::trajectory(
        id,
        stcn::ObjectId(1 +
                       rng.uniform_index(trace_.config.mobility.object_count)),
        w);
  }

  std::vector<Query> warmup_;
  std::vector<Query> mix_;
};

// ============================================================== reid_paths

/// Moderate history preloaded and a transition graph learned during set-up;
/// then one path reconstruction at a time from seeded multi-camera probes.
class ReidPaths final : public Base {
 public:
  explicit ReidPaths(std::uint64_t seed)
      : Base(city(seed, 500, kHistory, /*hotspot_fraction=*/0.0)) {
    // Probe candidates: the first detection of every object seen at four
    // or more cameras, early enough to leave a full hop horizon after it.
    std::unordered_map<std::uint64_t, std::set<std::uint64_t>> cameras;
    std::unordered_map<std::uint64_t, const Detection*> first;
    for (const Detection& d : trace_.detections) {
      cameras[d.object.value()].insert(d.camera.value());
      first.emplace(d.object.value(), &d);
    }
    std::vector<const Detection*> eligible;
    for (const auto& [object, cams] : cameras) {
      const Detection* d = first.at(object);
      if (cams.size() >= 4 && d->time < at(kHistory - kHorizon)) {
        eligible.push_back(d);
      }
    }
    std::sort(eligible.begin(), eligible.end(),
              [](const Detection* a, const Detection* b) {
                return a->id < b->id;
              });
    if (eligible.size() < kProbes) {
      throw std::runtime_error("reid_paths: too few multi-camera objects");
    }
    stcn::Rng rng(seed ^ 0x4e1d'9a75ULL);
    for (std::size_t i = 0; i < kProbes; ++i) {
      std::size_t j = i + rng.uniform_index(eligible.size() - i);
      std::swap(eligible[i], eligible[j]);
      probes_.push_back(*eligible[i]);
    }
    params_.cone.max_hops = 2;
    params_.cone.min_edge_count = 2;
    params_.min_similarity = 0.55;
    params_.max_matches = 5;
    path_.beam_width = 4;
    path_.max_path_length = 8;
    path_.hop_horizon = kHorizon;
  }
  void run(double seconds, Ledger* ledger, Recorder& rec) override {
    std::unique_ptr<Cluster> cluster;
    std::unique_ptr<Client> client;  // destroyed before the cluster
    preload(ledger != nullptr ? 1 : kSetups, ledger, rec, cluster, client,
            [this] {
              graph_ = stcn::TransitionGraph();
              graph_.learn(trace_.detections);
            });
    stcn::ReidEngine engine(graph_, params_);
    stcn::MetricsRegistry reid_metrics;
    engine.register_metrics(reid_metrics);
    stcn::PathReconstructor reconstructor(engine, path_);
    ClientSource source(*client, trace_.cameras);
    TimedSource timed(source, ledger);

    Clock::time_point start = Clock::now();
    do {
      Round round = begin_round(*cluster, ledger);
      std::uint64_t candidates = 0;
      for (const Detection& probe : probes_) {
        Clock::time_point step = Clock::now();
        TimePoint sim = cluster->now();
        stcn::ReconstructedPath path;
        {
          if (ledger != nullptr) ledger->set_request(probe.id.value());
          Scope root(ledger, Layer::kClientPath);
          path = reconstructor.reconstruct(probe, timed);
        }
        record_step(rec, step, *cluster, sim);
        candidates += path.candidates_examined;
        round.answers.push_back(path_digest(path));
        if (answers_.empty()) {
          accuracy_ += stcn::PathReconstructor::hop_accuracy(
              path, probe.object, /*truth_has_continuation=*/true);
        }
      }
      rec.attempted += probes_.size();
      if (ledger != nullptr) {
        counts_.paths += probes_.size();
        counts_.candidates += candidates;
      }
      end_round(round, *cluster, ledger, rec, candidates);
    } while (seconds_since(start) < seconds);
    if (ledger != nullptr) {
      counts_.camera_queries += timed.fetches();
      counts_.quantized_pruned +=
          counter(reid_metrics, "reid_quantized_pruned").value();
      absorb(*cluster, counts_);
    }
  }

  std::uint64_t verify(Recorder& rec) override {
    stcn::CentralizedIndex oracle(world_);
    oracle.ingest_all(trace_.detections);
    stcn::LocalCandidateSource local(oracle, trace_.cameras);
    stcn::ReidEngine engine(graph_, params_);
    stcn::PathReconstructor reconstructor(engine, path_);
    std::vector<std::uint64_t> expected;
    for (const Detection& probe : probes_) {
      expected.push_back(path_digest(reconstructor.reconstruct(probe, local)));
    }
    rec.extra["reid_hop_accuracy"] = {
        accuracy_ / static_cast<double>(probes_.size()), "ratio"};
    return mismatches(answers_, expected);
  }

 private:
  static constexpr Duration kHistory = Duration::minutes(8);
  static constexpr Duration kHorizon = Duration::minutes(2);
  static constexpr std::size_t kProbes = 400;
  static constexpr int kSetups = 3;

  static std::uint64_t path_digest(const stcn::ReconstructedPath& path) {
    std::uint64_t h = mix(0, path.hops.size());
    for (const Detection& d : path.hops) h = mix(h, d.id.value());
    return h;
  }

  std::vector<Detection> probes_;
  stcn::TransitionGraph graph_;
  stcn::ReidParams params_;
  stcn::PathParams path_;
  double accuracy_ = 0.0;
};

}  // namespace

std::uint64_t Fingerprint::digest() const {
  std::uint64_t h = 0;
  for (std::uint64_t v : {messages, bytes, fragments, rows_evaluated,
                          rows_returned, blocks_scanned, blocks_skipped,
                          snapshots, candidates}) {
    h = mix(h, v);
  }
  return h;
}

std::unique_ptr<Workload> make_workload(const std::string& name,
                                        std::uint64_t seed) {
  if (name == "city_ingest") return std::make_unique<CityIngest>(seed);
  if (name == "forensic_mix") return std::make_unique<ForensicMix>(seed);
  if (name == "reid_paths") return std::make_unique<ReidPaths>(seed);
  return nullptr;
}

}  // namespace perfbench
