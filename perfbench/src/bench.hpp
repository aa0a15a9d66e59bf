// Shared pieces of the perfbench driver: the pinned machine and advisor
// settings, program handles, work counts taken from returned values, the
// benchmark's own layer spans, and small statistics helpers.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "advisor/advisor.hpp"
#include "core/simulator.hpp"
#include "obs/trace.hpp"
#include "stats/sim_result.hpp"
#include "support/thread_pool.hpp"

namespace perfbench {

// ------------------------------------------------------------ pinned setup

/// The paper's machine at 16 PEs: page 32, 256-element LRU cache, modulo.
sap::MachineConfig paper_config();

/// The joint-strategy options of ablation A9 (BENCH_ablation_joint.json).
sap::AdvisorOptions joint_options();

/// Threads the load may use in total: the caller plus a 3-worker pool.
inline constexpr unsigned kPoolWorkers = 3;
inline constexpr unsigned kShardWorkers = 4;

/// Replaces the program's bytecode with an explicitly compiled and
/// optimized one, so no SAPART_* variable a builder consulted can change
/// what is measured.
void pin_bytecode(sap::CompiledProgram& program);

/// DSL text -> program through the public path with the engine and
/// optimizer tier pinned.
sap::CompiledProgram compile_dsl(const std::string& source);

// ------------------------------------------------------------- work counts

/// Every Stmt node (loops, IFs, assignments, REINIT) of the program.
std::uint64_t count_statements(const sap::Program& program);

/// Instructions across every compiled program of the bytecode.
std::uint64_t count_instructions(const sap::ProgramBytecode& bytecode);

/// Statement instances (reduction commits included), counted by a walker
/// riding SequentialExecutor::on_instance over a bare ArrayRegistry.
std::uint64_t count_instances(const sap::CompiledProgram& program);

/// Claim 7: byte-identical results (counters, cache, network, contention).
bool same_result(const sap::SimulationResult& a,
                 const sap::SimulationResult& b);

/// A program with the handles the probes need.
struct BenchProgram {
  std::string dsl;  // source text; printed from the AST for builder programs
  std::shared_ptr<const sap::CompiledProgram> compiled;
  std::uint64_t instances = 0;
};

// ------------------------------------------------------------------ timing

std::uint64_t now_ns() noexcept;

double median(std::vector<double> values);

/// Linear-interpolated percentile, q in [0, 1].
double percentile(std::vector<double> values, double q);

// ------------------------------------------------------------------- spans

/// The benchmark's own layer span: wraps one call into a layer's public
/// function.  While tracing is on it records an obs::Span (category
/// "perfbench", name = layer) for the Chrome trace and accumulates the
/// layer's self time (duration minus nested LayerSpans on the same
/// thread).  Off, it costs one relaxed load.
class LayerSpan {
 public:
  explicit LayerSpan(const char* layer) noexcept;
  ~LayerSpan();

  LayerSpan(const LayerSpan&) = delete;
  LayerSpan& operator=(const LayerSpan&) = delete;

 private:
  sap::obs::Span span_;
  const char* layer_;
  bool armed_ = false;
  std::uint64_t start_ns_ = 0;
  std::uint64_t child_ns_ = 0;
  LayerSpan* parent_ = nullptr;
};

/// Self time per layer name accumulated since the last reset.
struct LayerTime {
  std::string layer;
  double self_ms = 0.0;
};
std::vector<LayerTime> layer_times();
void reset_layer_times();

// ----------------------------------------------------------------- metrics

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// True when `name` matches [A-Za-z0-9_.-]+.
bool valid_metric_name(const std::string& name);

}  // namespace perfbench
