// Per-layer probes for the traced run.
//
// Each probe times calls into one layer's public functions, from outside,
// over the workload's own programs, and takes its work counts from the
// values those functions return (SimulationResult, AdvisorReport,
// ProgramBytecode), never from obs counters.  Timed probes repeat and
// report the median repetition; their counts must repeat exactly.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "bench.hpp"

namespace perfbench {

/// Checks the probes made (count repeats, derived-metric ranges) and how
/// many failed.
struct ProbeTally {
  std::uint64_t checks = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> failures;

  void expect(bool ok, const std::string& what) {
    ++checks;
    if (!ok) {
      ++failed;
      failures.push_back(what);
    }
  }
};

/// Runs every layer probe and returns the per-layer metrics in a fixed
/// order (minus the self-time and tracing metrics, which the driver adds
/// from the traced loop).
std::vector<Metric> run_layer_probes(const std::vector<BenchProgram>& programs,
                                     sap::ThreadPool& pool, ProbeTally& tally);

/// Range checks on the derived metrics (accounting.ms, accounting.share,
/// advisor.measure_share, pool.busy_ratio) of a probe result.
void check_derived_ranges(const std::vector<Metric>& metrics,
                          ProbeTally& tally);

/// Layers whose self time the traced loop reports, as "<layer>.self_ms".
const std::vector<std::string>& span_layers();

}  // namespace perfbench
