// The benchmark's workloads. Each generates its inputs from the seed,
// then repeats a fixed round of work until the run's time is spent.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common.h"
#include "ledger.h"

namespace perfbench {

/// Deterministic counts of the work one round did. Equal counts mean the
/// program did the same work, so a change in wall time is host noise.
struct Fingerprint {
  std::uint64_t messages = 0;
  std::uint64_t bytes = 0;
  std::uint64_t fragments = 0;
  std::uint64_t rows_evaluated = 0;
  std::uint64_t rows_returned = 0;
  std::uint64_t blocks_scanned = 0;
  std::uint64_t blocks_skipped = 0;
  std::uint64_t snapshots = 0;
  std::uint64_t candidates = 0;

  [[nodiscard]] std::uint64_t digest() const;
};

class Workload {
 public:
  virtual ~Workload() = default;

  /// Runs set-up and then whole rounds (at least one) until `seconds` have
  /// passed. A non-null ledger makes this a traced run.
  virtual void run(double seconds, Ledger* ledger, Recorder& rec) = 0;

  /// Checks every answer recorded by run() against the oracle built from
  /// the same detections. Returns the number of failed operations.
  virtual std::uint64_t verify(Recorder& rec) = 0;

  [[nodiscard]] virtual std::size_t detections() const = 0;
  [[nodiscard]] const Fingerprint& fingerprint() const { return print_; }
  [[nodiscard]] const LayerCounts& layer_counts() const { return counts_; }

 protected:
  Fingerprint print_;   // of the first round
  LayerCounts counts_;  // traced runs only
};

[[nodiscard]] std::unique_ptr<Workload> make_workload(const std::string& name,
                                                      std::uint64_t seed);

}  // namespace perfbench
