#include "layers.hpp"

#include <iostream>
#include <memory>
#include <type_traits>

#include "advisor/access_summary.hpp"
#include "advisor/cost_model.hpp"
#include "cache/page_cache.hpp"
#include "core/counting_interpreter.hpp"
#include "core/dataflow_interpreter.hpp"
#include "core/executor_base.hpp"
#include "frontend/parser.hpp"
#include "memory/sa_array.hpp"
#include "obs/metrics.hpp"
#include "partition/partitioner.hpp"
#include "runtime/sim_runtime.hpp"
#include "support/error.hpp"
#include "support/rng.hpp"

namespace perfbench {

using namespace sap;

namespace {

constexpr int kReps = 3;       // repetitions of each timed program probe
constexpr int kMicroReps = 5;  // repetitions of each micro probe

double ms(std::uint64_t ns) { return static_cast<double>(ns) / 1e6; }

/// Times `fn` and adds the elapsed nanoseconds to `total`.
template <typename Fn>
auto timed(std::uint64_t& total, Fn&& fn) {
  const std::uint64_t start = now_ns();
  if constexpr (std::is_void_v<decltype(fn())>) {
    fn();
    total += now_ns() - start;
  } else {
    auto result = fn();
    total += now_ns() - start;
    return result;
  }
}

/// Median over repetitions of a per-repetition total (ns), plus a check
/// that the per-repetition counts repeat exactly.
struct Repeated {
  std::vector<double> totals_ns;
  std::vector<std::vector<std::uint64_t>> counts;

  double median_ns() const { return median(totals_ns); }
  void expect_counts_repeat(ProbeTally& tally, const std::string& what) const {
    for (const auto& rep : counts) {
      tally.expect(rep == counts.front(), what + " counts repeat");
    }
  }
};

void add(std::vector<Metric>& out, const char* name, double value,
         const char* unit) {
  out.push_back({name, value, unit});
}

// ---------------------------------------------------------------- frontend

void probe_frontend(const std::vector<BenchProgram>& programs,
                    std::vector<Metric>& out, ProbeTally& tally) {
  Repeated parse;
  Repeated sema;
  for (int rep = 0; rep < kReps; ++rep) {
    std::uint64_t parse_ns = 0;
    std::uint64_t sema_ns = 0;
    std::uint64_t statements = 0;
    for (const BenchProgram& program : programs) {
      Program ast = timed(parse_ns, [&] { return Parser::parse(program.dsl); });
      const CompiledProgram compiled = timed(sema_ns, [&] {
        return compile(std::move(ast), EvalEngine::kTree, BytecodeOpt::kOff);
      });
      statements += count_statements(compiled.program);
    }
    parse.totals_ns.push_back(static_cast<double>(parse_ns));
    sema.totals_ns.push_back(static_cast<double>(sema_ns));
    parse.counts.push_back({statements});
  }
  parse.expect_counts_repeat(tally, "frontend");
  add(out, "frontend.parse_us", parse.median_ns() / 1e3, "us");
  add(out, "frontend.sema_us", sema.median_ns() / 1e3, "us");
  add(out, "frontend.statements", static_cast<double>(parse.counts[0][0]),
      "count");
}

// ---------------------------------------------------------------- bytecode

void probe_bytecode(const std::vector<BenchProgram>& programs,
                    std::vector<Metric>& out, ProbeTally& tally) {
  Repeated compile_rep;
  Repeated optimize_rep;
  for (int rep = 0; rep < kReps; ++rep) {
    std::uint64_t compile_ns = 0;
    std::uint64_t optimize_ns = 0;
    std::uint64_t raw = 0;
    std::uint64_t opt = 0;
    for (const BenchProgram& program : programs) {
      const CompiledProgram& p = *program.compiled;
      ProgramBytecode bytecode = timed(compile_ns, [&] {
        return compile_bytecode(p.program, p.sema);
      });
      raw += count_instructions(bytecode);
      const ProgramBytecode optimized = timed(optimize_ns, [&] {
        return optimize_bytecode(std::move(bytecode), p.program, p.sema);
      });
      opt += count_instructions(optimized);
    }
    compile_rep.totals_ns.push_back(static_cast<double>(compile_ns));
    optimize_rep.totals_ns.push_back(static_cast<double>(optimize_ns));
    compile_rep.counts.push_back({raw, opt});
  }
  compile_rep.expect_counts_repeat(tally, "bytecode");
  add(out, "bytecode.compile_us", compile_rep.median_ns() / 1e3, "us");
  add(out, "bytecode.optimize_us", optimize_rep.median_ns() / 1e3, "us");
  add(out, "bytecode.instructions_raw",
      static_cast<double>(compile_rep.counts[0][0]), "count");
  add(out, "bytecode.instructions_opt",
      static_cast<double>(compile_rep.counts[0][1]), "count");
}

// ------------------------------------------------------ exec + accounting

void probe_exec_and_accounting(const std::vector<BenchProgram>& programs,
                               std::vector<Metric>& out, ProbeTally& tally) {
  Repeated stmt;
  Repeated counting;
  std::uint64_t instances = 0;
  for (const BenchProgram& program : programs) instances += program.instances;
  for (int rep = 0; rep < kReps; ++rep) {
    std::uint64_t stmt_ns = 0;
    std::uint64_t counting_ns = 0;
    std::vector<std::uint64_t> counts(7, 0);
    for (const BenchProgram& program : programs) {
      const CompiledProgram& p = *program.compiled;
      {
        ArrayRegistry registry;
        materialize_arrays(p, registry);
        SequentialExecutor executor;
        timed(stmt_ns, [&] { executor.execute(p, registry); });
      }
      Machine machine(paper_config());
      materialize_arrays(p, machine);
      timed(counting_ns, [&] { run_counting(p, machine); });
      const SimulationResult result = machine.snapshot(p.name());
      counts[0] += result.totals.total_reads();
      counts[1] += result.totals.remote_reads;
      counts[2] += result.cache_totals.hits;
      counts[3] += result.cache_totals.misses;
      counts[4] += result.network.messages;
      counts[5] += result.network.payload_elements;
      counts[6] += result.totals.writes;
    }
    stmt.totals_ns.push_back(static_cast<double>(stmt_ns));
    counting.totals_ns.push_back(static_cast<double>(counting_ns));
    counting.counts.push_back(counts);
  }
  counting.expect_counts_repeat(tally, "accounting");
  const double stmt_ms = stmt.median_ns() / 1e6;
  const double counting_ms = counting.median_ns() / 1e6;
  add(out, "exec.stmt_ms", stmt_ms, "ms");
  add(out, "exec.instances", static_cast<double>(instances), "count");
  add(out, "exec.ns_per_instance",
      instances == 0 ? 0.0 : stmt_ms * 1e6 / static_cast<double>(instances),
      "ns");
  const std::vector<std::uint64_t>& c = counting.counts[0];
  add(out, "accounting.counting_ms", counting_ms, "ms");
  add(out, "accounting.ms", counting_ms - stmt_ms, "ms");
  add(out, "accounting.share",
      counting_ms > 0.0 ? (counting_ms - stmt_ms) / counting_ms : 0.0,
      "ratio");
  add(out, "accounting.reads", static_cast<double>(c[0]), "count");
  add(out, "accounting.remote_reads", static_cast<double>(c[1]), "count");
  add(out, "cache.hits", static_cast<double>(c[2]), "count");
  add(out, "cache.misses", static_cast<double>(c[3]), "count");
  add(out, "cache.hit_ratio",
      c[2] + c[3] == 0 ? 0.0
                       : static_cast<double>(c[2]) /
                             static_cast<double>(c[2] + c[3]),
      "ratio");
  add(out, "network.messages", static_cast<double>(c[4]), "count");
  add(out, "network.payload_elements", static_cast<double>(c[5]), "count");
}

// -------------------------------------------------------------- micro ops

/// ns per PageCache lookup (+ insert on a miss) over 64 pages through a
/// paper-sized cache: 256 elements of 32-element pages = 8 frames.
double micro_cache_ns() {
  constexpr int kOps = 1 << 16;
  std::vector<double> reps;
  for (int rep = 0; rep < kMicroReps; ++rep) {
    PageCache cache(256, 32, ReplacementPolicy::kLru, 42);
    SplitMix64 rng(7);
    std::vector<PageIndex> pages(kOps);
    for (PageIndex& page : pages) {
      page = static_cast<PageIndex>(rng.next_below(64));
    }
    std::uint64_t ns = 0;
    timed(ns, [&] {
      for (const PageIndex page : pages) {
        const PageId id{0, page};
        if (!cache.lookup(id, 0)) cache.insert(id, 0);
      }
    });
    reps.push_back(static_cast<double>(ns) / kOps);
  }
  return median(reps);
}

/// ns per Partitioner::owner_of_element under the paper's modulo scheme.
double micro_owner_ns() {
  constexpr int kOps = 1 << 18;
  const Partitioner partitioner(make_partition_scheme(PartitionKind::kModulo),
                                32, 16);
  const SaArray array(0, "A", ArrayShape::vector_1based(1 << 16));
  std::vector<double> reps;
  std::uint64_t sink = 0;
  for (int rep = 0; rep < kMicroReps; ++rep) {
    std::uint64_t ns = 0;
    timed(ns, [&] {
      std::int64_t linear = rep;
      for (int i = 0; i < kOps; ++i) {
        sink += partitioner.owner_of_element(array, linear);
        linear = (linear + 97) & 0xFFFF;
      }
    });
    reps.push_back(static_cast<double>(ns) / kOps);
  }
  if (sink == 0xFFFFFFFF) std::cout << "";  // defeat dead-code elimination
  return median(reps);
}

// ------------------------------------------------------ dataflow/runtime

std::uint64_t wakes_counter() {
  for (const obs::CounterSample& c : obs::snapshot_metrics().counters) {
    if (c.name == "runtime/wakes") return c.value;
  }
  return 0;
}

/// run_dataflow_sharded on a fresh machine, timed into `total`.  The
/// sharded runtime very rarely reports a deadlock on a program the serial
/// scheduler has just completed (a few runs in ten thousand on the small
/// generated programs); such a run is repeated once, counted in
/// `spurious`, and its time dropped.
DataflowStats sharded_run(const CompiledProgram& p, unsigned workers,
                          ThreadPool& pool, std::uint64_t& total,
                          std::uint64_t& spurious) {
  for (int attempt = 0;; ++attempt) {
    Machine machine(paper_config());
    materialize_arrays(p, machine);
    const std::uint64_t start = now_ns();
    try {
      const DataflowStats stats = run_dataflow_sharded(
          p, machine, ShardRuntimeOptions{workers, &pool});
      total += now_ns() - start;
      return stats;
    } catch (const DeadlockError&) {
      if (attempt > 0) throw;
      ++spurious;
    }
  }
}

void probe_dataflow(const std::vector<BenchProgram>& programs,
                    ThreadPool& pool, std::vector<Metric>& out) {
  Repeated serial;
  Repeated w1;
  Repeated w4;
  std::uint64_t parks = 0;
  std::uint64_t steals = 0;
  std::uint64_t wakes = 0;
  std::uint64_t spurious = 0;
  for (int rep = 0; rep < kReps; ++rep) {
    std::uint64_t serial_ns = 0;
    std::uint64_t w1_ns = 0;
    std::uint64_t w4_ns = 0;
    for (const BenchProgram& program : programs) {
      const CompiledProgram& p = *program.compiled;
      Machine m0(paper_config());
      materialize_arrays(p, m0);
      timed(serial_ns, [&] { run_dataflow_serial(p, m0); });
      sharded_run(p, 1, pool, w1_ns, spurious);
      const std::uint64_t wakes_before = wakes_counter();
      const DataflowStats stats =
          sharded_run(p, kShardWorkers, pool, w4_ns, spurious);
      if (rep == 0) {
        parks += stats.parks;
        steals += stats.steals;
        wakes += wakes_counter() - wakes_before;
      }
    }
    serial.totals_ns.push_back(static_cast<double>(serial_ns));
    w1.totals_ns.push_back(static_cast<double>(w1_ns));
    w4.totals_ns.push_back(static_cast<double>(w4_ns));
  }
  if (spurious > 0) {
    std::cout << "runtime: " << spurious
              << " sharded run(s) reported a spurious deadlock and were "
                 "repeated\n";
  }
  const double serial_ms = serial.median_ns() / 1e6;
  const double w4_ms = w4.median_ns() / 1e6;
  add(out, "dataflow.serial_ms", serial_ms, "ms");
  add(out, "dataflow.w1_ms", w1.median_ns() / 1e6, "ms");
  add(out, "dataflow.w4_ms", w4_ms, "ms");
  add(out, "runtime.speedup_w4", w4_ms > 0.0 ? serial_ms / w4_ms : 0.0,
      "ratio");
  // Scheduler-class counts: they depend on thread timing and are not
  // expected to repeat between runs.
  add(out, "runtime.parks", static_cast<double>(parks), "count");
  add(out, "runtime.wakes", static_cast<double>(wakes), "count");
  add(out, "runtime.steals", static_cast<double>(steals), "count");
}

// ---------------------------------------------------------------- advisor

void probe_advisor(const std::vector<BenchProgram>& programs,
                   ThreadPool& pool, std::vector<Metric>& out) {
  const MachineConfig base = paper_config();
  const AdvisorOptions options = joint_options();
  std::uint64_t price_ns = 0;
  std::uint64_t advise_ns = 0;
  std::uint64_t measure_ns = 0;
  std::uint64_t measured_runs = 0;
  std::uint64_t candidates = 0;
  for (const BenchProgram& program : programs) {
    const CompiledProgram& p = *program.compiled;
    timed(price_ns, [&] {
      const AccessSummary summary = summarize_access(
          p, ClassifierConfig{base.page_size, base.cache_elements});
      double sink = 0.0;
      for (const AdvisorCandidate& c : enumerate_candidates(base, options)) {
        sink += estimate_cost(summary, c.config).remote_reads;
      }
      return sink;
    });
    const AdvisorReport report =
        timed(advise_ns, [&] { return advise(p, base, options, &pool); });
    for (const AdvisorCandidate& c : report.candidates) {
      if (!c.validated) continue;
      timed(measure_ns, [&] { return Simulator(c.config).run(p); });
    }
    measured_runs += report.validated_count;
    candidates += report.candidates.size();
  }
  const double price_ms = ms(price_ns);
  const double measure_ms = ms(measure_ns);
  const double advise_ms = ms(advise_ns);
  add(out, "advisor.price_ms", price_ms, "ms");
  add(out, "advisor.measure_cpu_ms", measure_ms, "ms");
  add(out, "advisor.advise_ms", advise_ms, "ms");
  add(out, "advisor.measured_runs", static_cast<double>(measured_runs),
      "count");
  add(out, "advisor.candidates", static_cast<double>(candidates), "count");
  add(out, "advisor.measure_share",
      price_ms + measure_ms > 0.0 ? measure_ms / (price_ms + measure_ms) : 0.0,
      "ratio");
  add(out, "pool.busy_ratio",
      advise_ms > 0.0
          ? measure_ms / (advise_ms * static_cast<double>(kPoolWorkers + 1))
          : 0.0,
      "ratio");
}

double value_of(const std::vector<Metric>& metrics, const std::string& name) {
  for (const Metric& m : metrics) {
    if (m.name == name) return m.value;
  }
  return -1.0;
}

}  // namespace

std::vector<Metric> run_layer_probes(const std::vector<BenchProgram>& programs,
                                     ThreadPool& pool, ProbeTally& tally) {
  std::vector<Metric> out;
  probe_frontend(programs, out, tally);
  probe_bytecode(programs, out, tally);
  probe_exec_and_accounting(programs, out, tally);
  add(out, "cache.lookup_insert_ns", micro_cache_ns(), "ns");
  add(out, "partition.owner_lookup_ns", micro_owner_ns(), "ns");
  probe_dataflow(programs, pool, out);
  probe_advisor(programs, pool, out);
  check_derived_ranges(out, tally);
  return out;
}

void check_derived_ranges(const std::vector<Metric>& metrics,
                          ProbeTally& tally) {
  const double counting = value_of(metrics, "accounting.counting_ms");
  const double accounting = value_of(metrics, "accounting.ms");
  tally.expect(accounting >= 0.0 && accounting <= counting,
               "accounting.ms in [0, accounting.counting_ms]");
  const double share = value_of(metrics, "accounting.share");
  tally.expect(share >= 0.0 && share <= 1.0, "accounting.share in [0, 1]");
  const double measure_share = value_of(metrics, "advisor.measure_share");
  tally.expect(measure_share > 0.0 && measure_share < 1.0,
               "advisor.measure_share in (0, 1)");
  // Serial re-runs can come out slightly slower than the same runs inside
  // advise(), so allow 10% over the ideal bound of 1.
  const double busy = value_of(metrics, "pool.busy_ratio");
  tally.expect(busy > 0.0 && busy <= 1.1, "pool.busy_ratio in (0, 1.1]");
}

const std::vector<std::string>& span_layers() {
  static const std::vector<std::string> layers = {
      "frontend", "kernels", "bytecode", "runtime", "advisor", "request"};
  return layers;
}

}  // namespace perfbench
