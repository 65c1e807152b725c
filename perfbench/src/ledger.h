// Per-layer ledger, measured from outside the program.
//
// The traced run times calls into each layer's public functions and never
// edits the library:
//   * NodeProxy stands in for the coordinator or a worker on the simulated
//     network (SimNetwork::detach + attach under the same NodeId) and times
//     every handle_message / handle_timer, classifying the call by message
//     type or by which public counter it advanced;
//   * Client replays the public call sequences of Cluster::ingest_all and
//     Cluster::execute (Coordinator::ingest/flush_ingest/submit/poll,
//     SimNetwork::step/run_until_idle) so each of those calls is a span;
//   * TimedSource wraps the re-id CandidateSource.
// Spans nest on a stack; a span's self time is its duration minus that of
// its children. Spans stay in memory and are written out at exit.
#pragma once

#include <array>
#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "common.h"
#include "core/framework.h"

namespace perfbench {

enum class Layer : std::uint8_t {
  // Client roots: one per public call the benchmark makes.
  kClientIngest,   // replay of Cluster::ingest_all (its own loop = self)
  kClientQuery,    // replay of Cluster::execute (self = framework work)
  kClientPath,     // PathReconstructor::reconstruct (self = re-id scoring)
  kClientSetup,    // cluster construction, monitors, graph learning
  // core/coordinator
  kCoordRoute,     // Coordinator::ingest + flush_ingest
  kCoordSubmit,    // Coordinator::submit (planning + fan-out)
  kCoordPoll,      // Coordinator::poll
  kCoordDrain,     // Coordinator::drain_deltas (monitor answers)
  kCoordHeartbeat, // handler: kHeartbeat
  kCoordSummary,   // handler: kObjectSummary
  kCoordResponse,  // handler: reliable frames during a query
  kCoordOtherMsg,  // handler: reliable frames outside queries (ingest acks)
  kCoordTimer,     // handler: coordinator timers
  // net
  kNetPump,        // SimNetwork::step / run_until_idle, outside handlers
  // core/worker
  kWorkerApply,    // handler that advanced ingested_primary/_replica
  kWorkerFragment, // handler that advanced queries_served
  kWorkerOtherMsg, // any other worker message (acks, monitor installs)
  kWorkerSnapshot, // timer that advanced snapshots_taken
  kWorkerTick,     // any other worker timer (monitor tick, retransmits)
  // reid
  kReidFetch,      // CandidateSource::detections_at
  kCount
};

[[nodiscard]] const char* layer_name(Layer layer);

class Ledger {
 public:
  Ledger() = default;
  Ledger(const Ledger&) = delete;
  Ledger& operator=(const Ledger&) = delete;

  /// Opens a span; the name may be settled later by close().
  void open(Layer provisional);
  /// Closes the innermost span under `layer`.
  void close(Layer layer);

  /// Identifier shared by every span of one client operation.
  void set_request(std::uint64_t request) { request_ = request; }

  struct Totals {
    double self_s = 0.0;
    double total_s = 0.0;
    std::uint64_t calls = 0;
  };
  [[nodiscard]] const Totals& totals(Layer layer) const {
    return totals_[static_cast<std::size_t>(layer)];
  }
  /// Summed duration of top-level spans (client calls), for coverage.
  [[nodiscard]] double top_level_s() const { return top_level_s_; }
  /// Handler calls dispatched by the network (events the pump delivered).
  [[nodiscard]] std::uint64_t events() const;

  /// Writes every retained span as TSV (id, parent, request, name,
  /// start_ns, end_ns). Returns false if the file could not be written.
  bool write(const std::string& path) const;

 private:
  struct Frame {
    Layer layer;
    Clock::time_point start;
    double child_s = 0.0;
    std::uint32_t record = 0;  // index into spans_ + 1 (0: not retained)
  };
  struct SpanRecord {
    std::uint32_t parent = 0;
    Layer layer = Layer::kCount;
    std::uint64_t request = 0;
    std::int64_t start_ns = 0;
    std::int64_t end_ns = 0;
  };
  static constexpr std::size_t kMaxSpans = 200'000;

  std::vector<Frame> stack_;
  std::vector<SpanRecord> spans_;
  std::uint64_t dropped_ = 0;
  std::uint64_t request_ = 0;
  double top_level_s_ = 0.0;
  Clock::time_point origin_ = Clock::now();
  std::array<Totals, static_cast<std::size_t>(Layer::kCount)> totals_{};
};

/// Looks up a registered counter by name (must exist).
[[nodiscard]] const stcn::Counter& counter(const stcn::MetricsRegistry& m,
                                           const char* name);
/// Value of a registered counter, or 0 when it was never registered.
[[nodiscard]] std::uint64_t counter_or_zero(const stcn::MetricsRegistry& m,
                                            const char* name);

/// Scoped span for straight-line code.
class Scope {
 public:
  Scope(Ledger* ledger, Layer layer) : ledger_(ledger), layer_(layer) {
    if (ledger_ != nullptr) ledger_->open(layer_);
  }
  ~Scope() {
    if (ledger_ != nullptr) ledger_->close(layer_);
  }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  Ledger* ledger_;
  Layer layer_;
};

/// Stand-in for the coordinator or one worker on the simulated network.
class NodeProxy final : public stcn::NetworkNode {
 public:
  /// `worker` is null when `inner` is the coordinator.
  NodeProxy(stcn::NetworkNode& inner, const stcn::WorkerNode* worker,
            Ledger& ledger, LayerCounts& counts, const bool& in_query);

  [[nodiscard]] stcn::NodeId node_id() const override {
    return inner_.node_id();
  }
  void handle_message(const stcn::Message& message,
                      stcn::SimNetwork& network) override;
  void handle_timer(std::uint64_t token, stcn::SimNetwork& network) override;

 private:
  [[nodiscard]] std::uint64_t applied() const;

  stcn::NetworkNode& inner_;
  const stcn::WorkerNode* worker_;
  Ledger& ledger_;
  LayerCounts& counts_;
  const bool& in_query_;
  const stcn::Counter* primary_ = nullptr;
  const stcn::Counter* replica_ = nullptr;
  const stcn::Counter* served_ = nullptr;
  const stcn::Counter* snapshots_ = nullptr;
};

/// Issues the benchmark's calls into the public Cluster API. Untraced, it
/// calls Cluster::ingest_all / execute. Traced, it replays their public call
/// sequences under spans, with proxies swapped in for every node.
class Client {
 public:
  /// Traced when `ledger` is set; `counts` must then be set as well.
  Client(stcn::Cluster& cluster, stcn::Rect world, Ledger* ledger,
         Recorder& recorder, LayerCounts* counts);
  ~Client();
  Client(const Client&) = delete;
  Client& operator=(const Client&) = delete;

  /// Ingests one chunk; counts into the ingest rate unless `warmup`.
  void ingest(std::span<const stcn::Detection> chunk, bool warmup = false);
  /// Executes one query and records its wall and sim latency.
  stcn::QueryResult execute(const stcn::Query& query);

  [[nodiscard]] stcn::Cluster& cluster() { return cluster_; }

 private:
  void replay_ingest(std::span<const stcn::Detection> chunk);
  stcn::QueryResult replay_execute(const stcn::Query& query);

  stcn::Cluster& cluster_;
  Ledger* ledger_;
  Recorder& recorder_;
  LayerCounts* counts_;
  const stcn::Counter* messages_ = nullptr;
  const stcn::Counter* bytes_ = nullptr;
  bool in_query_ = false;
  // Traced runs keep their own selectivity estimator with the Cluster's
  // configuration, fed exactly as Cluster::execute feeds its own.
  std::optional<stcn::SelectivityEstimator> estimator_;
  std::vector<std::unique_ptr<NodeProxy>> proxies_;
};

/// Timing decorator around the re-id CandidateSource: counts fetches and
/// spans each one in a traced run.
class TimedSource final : public stcn::CandidateSource {
 public:
  TimedSource(const stcn::CandidateSource& inner, Ledger* ledger)
      : inner_(inner), ledger_(ledger) {}

  [[nodiscard]] std::vector<stcn::Detection> detections_at(
      stcn::CameraId camera, const stcn::TimeInterval& window) const override;
  [[nodiscard]] std::vector<stcn::CameraId> all_cameras() const override {
    return inner_.all_cameras();
  }
  [[nodiscard]] std::uint64_t fetches() const { return fetches_; }

 private:
  const stcn::CandidateSource& inner_;
  Ledger* ledger_;
  mutable std::uint64_t fetches_ = 0;
};

/// stcn::DistributedCandidateSource, with its camera-window queries issued
/// through a Client so each is timed and a traced run can decompose it.
class ClientSource final : public stcn::CandidateSource {
 public:
  ClientSource(Client& client, const stcn::CameraNetwork& cameras)
      : client_(client), cameras_(cameras) {}

  [[nodiscard]] std::vector<stcn::Detection> detections_at(
      stcn::CameraId camera, const stcn::TimeInterval& window) const override {
    return client_.execute(stcn::Query::camera_window(
                               client_.cluster().next_query_id(), camera,
                               window))
        .detections;
  }
  [[nodiscard]] std::vector<stcn::CameraId> all_cameras() const override;

 private:
  Client& client_;
  const stcn::CameraNetwork& cameras_;
};

}  // namespace perfbench
