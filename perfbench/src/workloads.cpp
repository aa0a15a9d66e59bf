#include "workloads.hpp"

#include <functional>
#include <iostream>
#include <stdexcept>

#include "core/dataflow_interpreter.hpp"
#include "frontend/parser.hpp"
#include "frontend/printer.hpp"
#include "kernels/dsl_sources.hpp"
#include "kernels/livermore.hpp"
#include "kernels/synthetic.hpp"
#include "runtime/sim_runtime.hpp"
#include "support/error.hpp"
#include "support/text_table.hpp"

namespace perfbench {

using namespace sap;

namespace {

/// A program reached either from DSL text (parse + sema + bytecode, each
/// under its own layer span) or from a ProgramBuilder function.
struct Source {
  std::string id;
  std::string dsl;  // empty: use `build`
  std::function<CompiledProgram()> build;
};

CompiledProgram compile_source_traced(const Source& source) {
  if (source.dsl.empty()) {
    CompiledProgram program = [&] {
      const LayerSpan span("kernels");
      return source.build();
    }();
    const LayerSpan span("bytecode");
    pin_bytecode(program);
    return program;
  }
  Program ast = [&] {
    const LayerSpan span("frontend");
    return Parser::parse(source.dsl);
  }();
  CompiledProgram program = [&] {
    const LayerSpan span("frontend");
    return compile(std::move(ast), EvalEngine::kTree, BytecodeOpt::kOff);
  }();
  const LayerSpan span("bytecode");
  pin_bytecode(program);
  return program;
}

BenchProgram make_bench_program(const Source& source,
                                CompiledProgram compiled) {
  BenchProgram program;
  program.dsl =
      source.dsl.empty() ? print_program(compiled.program) : source.dsl;
  program.compiled = std::make_shared<const CompiledProgram>(
      std::move(compiled));
  return program;
}

/// Sources -> compiled programs.  The programs come out the same on every
/// call, so a rebuild keeps the instance counts prepare_checks took.
void compile_all(const std::vector<Source>& sources,
                 std::vector<BenchProgram>& programs) {
  std::vector<BenchProgram> fresh;
  fresh.reserve(sources.size());
  for (const Source& source : sources) {
    fresh.push_back(make_bench_program(source, compile_source_traced(source)));
    if (fresh.size() <= programs.size()) {
      fresh.back().instances = programs[fresh.size() - 1].instances;
    }
  }
  programs = std::move(fresh);
}

/// Work units for instances_per_s; benchmark bookkeeping, so it runs in
/// prepare_checks, outside setup_s.
void count_all_instances(std::vector<BenchProgram>& programs) {
  for (BenchProgram& program : programs) {
    program.instances = count_instances(*program.compiled);
  }
}

SimulationResult run_dataflow_on(const CompiledProgram& program,
                                 const MachineConfig& config,
                                 ThreadPool* pool) {
  Machine machine(config);
  materialize_arrays(program, machine);
  if (pool == nullptr) {
    run_dataflow_serial(program, machine);
  } else {
    const LayerSpan span("runtime");
    run_dataflow_sharded(program, machine,
                         ShardRuntimeOptions{kShardWorkers, pool});
  }
  return machine.snapshot(program.name());
}

// ------------------------------------------------------- advise_registry

class AdviseRegistry final : public Workload {
 public:
  explicit AdviseRegistry(ThreadPool& pool) : pool_(pool) {
    for (const KernelSpec& spec : livermore_kernels()) {
      Source source{spec.id, "", spec.build};
      for (const DslKernelSource& dsl : dsl_kernel_sources()) {
        if (dsl.id == spec.id) source.dsl = std::string(dsl.source);
      }
      sources_.push_back(std::move(source));
    }
    // The two mixed-shape synthetics of ablation A9.
    sources_.push_back({"syn_mixed_skew_rate", "",
                        [] { return make_mixed_skew_vs_rate(16384, 4096); }});
    sources_.push_back({"syn_mixed_multigroup", "",
                        [] { return make_mixed_multigroup(16384, 4096); }});
  }

  void setup() override { compile_all(sources_, programs_); }

  void prepare_checks() override {
    count_all_instances(programs_);
    const MachineConfig base = paper_config();
    refs_.clear();
    for (const BenchProgram& program : programs_) {
      const AdvisorReport report =
          advise(*program.compiled, base, joint_options(), &pool_);
      const AdvisorCandidate& pick = report.best();
      // The pick's measured fraction must equal a fresh run of its config
      // and must not lose to an independently measured modulo baseline.
      const double fresh = Simulator(pick.config)
                               .run(*program.compiled)
                               .remote_read_fraction();
      const double modulo = Simulator(base.with_partition(
                                          PartitionKind::kModulo))
                                .run(*program.compiled)
                                .remote_read_fraction();
      Reference ref;
      ref.label = pick.label();
      ref.fraction = pick.measured_remote_fraction;
      ref.validated = report.validated_count;
      ref.candidates = report.candidates.size();
      ref.ok = pick.validated && fresh == ref.fraction &&
               ref.fraction <= modulo;
      refs_.push_back(ref);
    }
  }

  std::size_t request_count() const override { return sources_.size(); }

  bool request(std::size_t index) override {
    const CompiledProgram program = compile_source_traced(sources_[index]);
    const AdvisorReport report = [&] {
      const LayerSpan span("advisor");
      return advise(program, paper_config(), joint_options(), &pool_);
    }();
    const Reference& ref = refs_[index];
    const AdvisorCandidate& pick = report.best();
    return ref.ok && pick.label() == ref.label &&
           pick.measured_remote_fraction == ref.fraction &&
           report.validated_count == ref.validated &&
           report.candidates.size() == ref.candidates;
  }

  double work(std::size_t index) const override {
    // Each validated candidate is one measured simulation of the program.
    return static_cast<double>(refs_[index].validated) *
           static_cast<double>(programs_[index].instances);
  }

  std::vector<BenchProgram> probe_programs() const override {
    return programs_;
  }

  std::vector<std::pair<std::string, std::string>> check_records()
      const override {
    std::vector<std::pair<std::string, std::string>> records;
    for (std::size_t i = 0; i < refs_.size(); ++i) {
      records.emplace_back(sources_[i].id,
                           refs_[i].label + "\t" +
                               TextTable::pct(refs_[i].fraction));
    }
    return records;
  }

 private:
  struct Reference {
    std::string label;
    double fraction = 0.0;
    std::size_t validated = 0;
    std::size_t candidates = 0;
    bool ok = false;
  };

  ThreadPool& pool_;
  std::vector<Source> sources_;
  std::vector<BenchProgram> programs_;
  std::vector<Reference> refs_;
};

// ----------------------------------------------------- simulate_dataflow

class SimulateDataflow final : public Workload {
 public:
  explicit SimulateDataflow(ThreadPool& pool) : pool_(pool) {
    sources_ = {
        {"k01_hydro_50000", "", [] { return build_k1_hydro(50000); }},
        {"k02_iccg_32768", "", [] { return build_k2_iccg(32768); }},
        {"k18_hydro2d_800", "",
         [] { return build_k18_explicit_hydro_2d(800); }},
        {"k06_glr_400", "",
         [] { return build_k6_general_linear_recurrence(400); }},
    };
  }

  void setup() override { compile_all(sources_, programs_); }

  void prepare_checks() override {
    count_all_instances(programs_);
    refs_.clear();
    for (const BenchProgram& program : programs_) {
      refs_.push_back(
          run_dataflow_on(*program.compiled, paper_config(), nullptr));
    }
  }

  std::size_t request_count() const override { return sources_.size(); }

  bool request(std::size_t index) override {
    const CompiledProgram& program = *programs_[index].compiled;
    const auto run = [&] {
      return run_dataflow_on(program, paper_config(), &pool_);
    };
    // The serial scheduler completed this program in prepare_checks, so a
    // deadlock here is the sharded runtime's rare spurious quiescence (see
    // perfbench/README.md): the request repeats once, inside its latency,
    // and fails if the repeat throws or differs from the reference.
    try {
      return same_result(run(), refs_[index]);
    } catch (const DeadlockError& e) {
      std::cout << "repeated: " << sources_[index].id
                << " after a spurious deadlock: " << e.what() << "\n";
    }
    return same_result(run(), refs_[index]);
  }

  double work(std::size_t index) const override {
    return static_cast<double>(programs_[index].instances);
  }

  std::vector<BenchProgram> probe_programs() const override {
    return programs_;
  }

 private:
  ThreadPool& pool_;
  std::vector<Source> sources_;
  std::vector<BenchProgram> programs_;
  std::vector<SimulationResult> refs_;
};

}  // namespace

std::unique_ptr<Workload> make_workload(const std::string& name,
                                        ThreadPool& pool) {
  if (name == "advise_registry") return std::make_unique<AdviseRegistry>(pool);
  if (name == "simulate_dataflow") {
    return std::make_unique<SimulateDataflow>(pool);
  }
  throw std::invalid_argument("unknown workload '" + name + "'");
}

}  // namespace perfbench
