// The named workloads.  Each is a closed loop with one client: the
// driver issues request i, waits for it, checks its output against a
// reference computed outside the timed loop, then issues the next.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "bench.hpp"

namespace perfbench {

class Workload {
 public:
  virtual ~Workload() = default;

  /// Builds the inputs the timed loop needs: the part timed as setup_s.
  /// Runs several times, before the loop and between its cycles; every
  /// call rebuilds the same state.
  virtual void setup() = 0;

  /// Counts the work units and computes the references the output checks
  /// compare against.  Runs after setup, outside setup_s and outside the
  /// timed loop.
  virtual void prepare_checks() = 0;

  /// Distinct requests; the driver issues them in seeded-shuffled cycles.
  virtual std::size_t request_count() const = 0;

  /// Runs request `index`.  Returns false when the output does not match
  /// its reference (or the reference itself failed its check); throws
  /// whatever the layer under test throws.
  virtual bool request(std::size_t index) = 0;

  /// Work units of one request for instances_per_s: statement instances
  /// simulated.
  virtual double work(std::size_t index) const = 0;

  /// Programs the per-layer probes run on.
  virtual std::vector<BenchProgram> probe_programs() const = 0;

  /// Per-program check records (id -> "pick<TAB>fraction") that the
  /// Python driver compares with a committed artifact; empty when the
  /// workload has none.
  virtual std::vector<std::pair<std::string, std::string>> check_records()
      const {
    return {};
  }
};

/// Throws std::invalid_argument on an unknown name.  The inputs are fixed;
/// the driver's seed orders the requests.
std::unique_ptr<Workload> make_workload(const std::string& name,
                                        sap::ThreadPool& pool);

}  // namespace perfbench
