// perfbench — the layered benchmark driver (see perfbench/README.md).
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--trace-out <path>]
//   perfbench --self-test
//
// Untraced runs (--trace 0) report the end-to-end metrics of one closed
// loop with one client.  Traced runs (--trace 1) run the loop in pairs of
// untraced and traced blocks, for the tracing overhead and per-layer self
// time, then run the per-layer probes untraced and write the Chrome trace
// to --trace-out.  The last stdout line is "PERFBENCH <json>", which
// perfbench/run.py turns into the benchmark's result line.
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <fstream>
#include <iostream>
#include <numeric>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "bench.hpp"
#include "core/bytecode.hpp"
#include "frontend/parser.hpp"
#include "kernels/dsl_sources.hpp"
#include "layers.hpp"
#include "support/rng.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

using namespace sap;

/// Set-up repeats this often before the loop, and then between the loop's
/// cycles for this share of its time: load from outside the process comes
/// in phases of seconds, so set-up is sampled across the whole run.
constexpr std::size_t kSetupMinReps = 9;
constexpr double kSetupShare = 0.05;
/// Enough samples that p90 has at least ten beyond it.
constexpr std::size_t kMinSamples = 100;
/// Share of --seconds the paired loop of a traced run takes, the pairs
/// it runs at least, and the requests of one block (whole cycles).
constexpr double kPairedLoopShare = 0.6;
constexpr std::size_t kMinPairs = 6;
constexpr std::size_t kMinBlockRequests = 20;

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string trace_out;
  bool self_test = false;
};

[[noreturn]] void usage(const std::string& message) {
  std::cerr << "perfbench: " << message
            << "\nusage: perfbench --workload <name> --seed <n> --seconds <s>"
               " --trace <0|1> [--trace-out <path>]\n"
               "       perfbench --self-test\n";
  std::exit(2);
}

Args parse_args(int argc, char** argv) {
  Args args;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--self-test") {
      args.self_test = true;
      continue;
    }
    if (i + 1 >= argc) usage(flag + " needs a value");
    const std::string value = argv[++i];
    try {
      if (flag == "--workload") {
        args.workload = value;
      } else if (flag == "--seed") {
        args.seed = std::stoull(value);
      } else if (flag == "--seconds") {
        args.seconds = std::stod(value);
      } else if (flag == "--trace") {
        if (value != "0" && value != "1") usage("--trace takes 0 or 1");
        args.trace = value == "1";
      } else if (flag == "--trace-out") {
        args.trace_out = value;
      } else {
        usage("unknown flag " + flag);
      }
    } catch (const std::logic_error&) {
      usage("bad value for " + flag + ": " + value);
    }
  }
  if (!args.self_test && args.workload.empty()) usage("--workload is required");
  if (args.seconds <= 0.0) usage("--seconds must be positive");
  return args;
}

std::string compiler_id() {
#if defined(__clang__)
  return std::string("clang ") + __VERSION__;
#elif defined(__GNUC__)
  return std::string("gcc ") + __VERSION__;
#else
  return "unknown";
#endif
}

void print_fingerprint() {
  std::cout << "host: nproc=" << std::thread::hardware_concurrency()
            << " compiler=\"" << compiler_id()
            << "\" build=" << PERFBENCH_BUILD_TYPE
            << " dispatch=" << bytecode_dispatch_kind()
            << " pool_workers=" << kPoolWorkers
            << " shard_workers=" << kShardWorkers << "\n";
}

double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;  // kB -> MiB
    }
  }
  return 0.0;
}

// ------------------------------------------------------------ closed loop

/// Every set-up repetition's wall time.
struct SetupTimes {
  std::vector<double> reps_s;
  double total_s = 0.0;

  void run_once(Workload& workload) {
    const std::uint64_t t0 = now_ns();
    workload.setup();
    reps_s.push_back(static_cast<double>(now_ns() - t0) / 1e9);
    total_s += reps_s.back();
  }
};

struct LoopResult {
  std::vector<double> latencies_ms;
  /// Requests and work units per second of each whole cycle.
  std::vector<double> cycle_requests_per_s;
  std::vector<double> cycle_work_per_s;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::uint64_t cycles = 0;
  double work = 0.0;
  double wall_s = 0.0;
  std::string first_error;
};

/// Every request once, in an order shuffled from `rng`.
std::vector<std::size_t> shuffled_cycle(std::size_t requests,
                                        SplitMix64& rng) {
  std::vector<std::size_t> order(requests);
  std::iota(order.begin(), order.end(), std::size_t{0});
  for (std::size_t i = order.size(); i > 1; --i) {
    std::swap(order[i - 1], order[rng.next_below(i)]);
  }
  return order;
}

/// One client: issues the requests of `order` one after another.
void run_requests(Workload& workload, const std::vector<std::size_t>& order,
                  LoopResult& loop) {
  const std::uint64_t start = now_ns();
  for (const std::size_t index : order) {
    const std::uint64_t t0 = now_ns();
    bool ok = false;
    try {
      const LayerSpan span("request");
      ok = workload.request(index);
      if (!ok && loop.first_error.empty()) {
        loop.first_error = "output check failed on request " +
                           std::to_string(index);
      }
    } catch (const std::exception& e) {
      if (loop.first_error.empty()) loop.first_error = e.what();
    }
    loop.latencies_ms.push_back(static_cast<double>(now_ns() - t0) / 1e6);
    ++loop.attempted;
    if (ok) {
      loop.work += workload.work(index);
    } else {
      ++loop.failed;
    }
  }
  loop.wall_s += static_cast<double>(now_ns() - start) / 1e9;
}

/// Whole cycles over every request, each in a fresh seeded order, until
/// `seconds` have passed and at least kMinSamples requests ran.  Between
/// cycles, outside the loop's time, set-up repeats until it has taken
/// kSetupShare of the loop's time.
LoopResult closed_loop(Workload& workload, SplitMix64& order_rng,
                       double seconds, SetupTimes& setup) {
  LoopResult loop;
  const double setup_before_s = setup.total_s;
  do {
    const double wall_before_s = loop.wall_s;
    const double work_before = loop.work;
    run_requests(workload, shuffled_cycle(workload.request_count(), order_rng),
                 loop);
    ++loop.cycles;
    const double cycle_s = loop.wall_s - wall_before_s;
    loop.cycle_requests_per_s.push_back(
        static_cast<double>(workload.request_count()) / cycle_s);
    loop.cycle_work_per_s.push_back((loop.work - work_before) / cycle_s);
    while (setup.total_s - setup_before_s < kSetupShare * loop.wall_s) {
      setup.run_once(workload);
    }
  } while (loop.wall_s < seconds || loop.attempted < kMinSamples);
  return loop;
}

/// A traced run's loop: pairs of one untraced and one traced block over
/// the same request order, the side that goes first alternating between
/// pairs, so host drift of a few seconds hits both sides alike.
struct PairedLoop {
  LoopResult untraced;
  LoopResult traced;
  /// One per pair: the median over its requests of traced / untraced
  /// latency of the same request, minus 1.
  std::vector<double> overheads;
};

PairedLoop paired_loop(Workload& workload, SplitMix64& order_rng,
                       double seconds) {
  PairedLoop loop;
  const std::uint64_t start = now_ns();
  for (std::size_t pair = 0;
       pair < kMinPairs ||
       static_cast<double>(now_ns() - start) / 1e9 < seconds;
       ++pair) {
    std::vector<std::size_t> order;
    while (order.size() < kMinBlockRequests) {
      const std::vector<std::size_t> cycle =
          shuffled_cycle(workload.request_count(), order_rng);
      order.insert(order.end(), cycle.begin(), cycle.end());
    }
    const auto run_block = [&](bool traced) {
      // start_tracing() drops the previous block's events, so the trace
      // file holds the last traced block; self times add up over all.
      if (traced) obs::start_tracing();
      run_requests(workload, order, traced ? loop.traced : loop.untraced);
      if (traced) obs::stop_tracing();
    };
    run_block(pair % 2 == 1);
    run_block(pair % 2 == 0);
    // Both sides hold the same number of samples, this pair's last.
    const std::vector<double>& on = loop.traced.latencies_ms;
    const std::vector<double>& off = loop.untraced.latencies_ms;
    std::vector<double> ratios;
    for (std::size_t i = on.size() - order.size(); i < on.size(); ++i) {
      ratios.push_back(on[i] / off[i]);
    }
    loop.overheads.push_back(median(ratios) - 1.0);
  }
  return loop;
}

// ------------------------------------------------------------------ output

std::string json_string(const std::string& text) {
  std::string out = "\"";
  for (const char c : text) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\t': out += "\\t"; break;
      case '\n': out += "\\n"; break;
      default: out += c;
    }
  }
  return out + "\"";
}

std::string json_number(double value) {
  char buffer[64];
  std::snprintf(buffer, sizeof buffer, "%.17g", value);
  return buffer;
}

void emit(const std::string& workload, std::uint64_t attempted,
          std::uint64_t failed, const std::vector<Metric>& metrics,
          const std::vector<std::pair<std::string, std::string>>& records,
          const std::vector<std::string>& errors) {
  for (const Metric& m : metrics) {
    std::cout << "  " << m.name << " = " << json_number(m.value) << " "
              << m.unit << "\n";
  }
  std::ostringstream json;
  json << "{\"workload\": " << json_string(workload)
       << ", \"attempted\": " << attempted << ", \"failed\": " << failed
       << ", \"metrics\": [";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    json << (i == 0 ? "" : ", ") << "{\"name\": "
         << json_string(metrics[i].name)
         << ", \"value\": " << json_number(metrics[i].value)
         << ", \"unit\": " << json_string(metrics[i].unit) << "}";
  }
  json << "], \"check_records\": {";
  for (std::size_t i = 0; i < records.size(); ++i) {
    json << (i == 0 ? "" : ", ") << json_string(records[i].first) << ": "
         << json_string(records[i].second);
  }
  json << "}, \"errors\": [";
  for (std::size_t i = 0; i < errors.size(); ++i) {
    json << (i == 0 ? "" : ", ") << json_string(errors[i]);
  }
  json << "]}";
  std::cout << "PERFBENCH " << json.str() << std::endl;
}

// --------------------------------------------------------------------- run

int run(const Args& args) {
  ThreadPool pool(kPoolWorkers);
  std::unique_ptr<Workload> workload;
  try {
    workload = make_workload(args.workload, pool);
  } catch (const std::invalid_argument& e) {
    usage(e.what());
  }

  SetupTimes setup;
  while (setup.reps_s.size() < kSetupMinReps) setup.run_once(*workload);
  workload->prepare_checks();

  SplitMix64 order_rng(args.seed ^ 0x6f72646572ull);
  std::vector<std::string> errors;
  std::vector<Metric> metrics;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  const auto count = [&](const LoopResult& loop) {
    attempted += loop.attempted;
    failed += loop.failed;
    if (!loop.first_error.empty()) errors.push_back(loop.first_error);
  };

  if (!args.trace) {
    const LoopResult loop =
        closed_loop(*workload, order_rng, args.seconds, setup);
    count(loop);
    std::cout << "samples: " << loop.attempted << " requests ("
              << loop.cycles << " cycles of " << workload->request_count()
              << ") in " << loop.wall_s << " s\n"
              << "setup: " << setup.reps_s.size() << " repetitions, median "
              << median(setup.reps_s) * 1e3 << " ms, quartiles "
              << percentile(setup.reps_s, 0.25) * 1e3 << " / "
              << percentile(setup.reps_s, 0.75) * 1e3 << " ms\n";
    metrics = {
        {"setup_s", median(setup.reps_s), "s"},
        {"request_p50_ms", percentile(loop.latencies_ms, 0.50), "ms"},
        {"request_p90_ms", percentile(loop.latencies_ms, 0.90), "ms"},
        {"requests_per_s", median(loop.cycle_requests_per_s), "1/s"},
        {"instances_per_s", median(loop.cycle_work_per_s), "1/s"},
        {"peak_rss_mb", peak_rss_mb(), "MB"},
    };
  } else {
    obs::set_thread_name("perfbench-client");
    reset_layer_times();
    const PairedLoop loop =
        paired_loop(*workload, order_rng, args.seconds * kPairedLoopShare);
    const std::vector<LayerTime> self_times = layer_times();
    count(loop.untraced);
    count(loop.traced);
    std::cout << "paired loop: " << loop.overheads.size()
              << " pairs, overhead quartiles "
              << percentile(loop.overheads, 0.25) << " / "
              << median(loop.overheads) << " / "
              << percentile(loop.overheads, 0.75) << "\n";

    // The probes time their calls with now_ns() and run untraced, so no
    // instrumentation gated on obs::collecting() is in what they measure.
    ProbeTally tally;
    metrics = run_layer_probes(workload->probe_programs(), pool, tally);
    attempted += tally.checks;
    failed += tally.failed;
    errors.insert(errors.end(), tally.failures.begin(), tally.failures.end());

    const double requests = static_cast<double>(loop.traced.attempted);
    for (const std::string& layer : span_layers()) {
      double self_ms = 0.0;
      for (const LayerTime& t : self_times) {
        if (t.layer == layer) self_ms = t.self_ms;
      }
      metrics.push_back({layer + ".self_ms", self_ms / requests, "ms"});
    }
    metrics.push_back({"trace.overhead", median(loop.overheads), "ratio"});
    if (!args.trace_out.empty()) {
      obs::write_chrome_trace_file(args.trace_out);
      std::cout << "trace: " << args.trace_out << "\n";
    }
  }
  emit(args.workload, attempted, failed, metrics, workload->check_records(),
       errors);
  return 0;
}

// --------------------------------------------------------------- self-test

int self_test() {
  ProbeTally tally;
  for (const std::string bad : {"", "a b", "x/y", "p50%"}) {
    tally.expect(!valid_metric_name(bad), "'" + bad + "' is rejected");
  }

  // A live probe over three small registry kernels: every emitted metric
  // name is valid and the derived metrics land in range.
  ThreadPool pool(kPoolWorkers);
  std::vector<BenchProgram> programs;
  for (const char* id : {"k01_hydro", "k06_glr", "k16_min_search"}) {
    BenchProgram program;
    program.dsl = std::string(dsl_source_for(id));
    program.compiled =
        std::make_shared<const CompiledProgram>(compile_dsl(program.dsl));
    program.instances = count_instances(*program.compiled);
    programs.push_back(std::move(program));
  }
  const std::vector<Metric> metrics = run_layer_probes(programs, pool, tally);
  for (const Metric& m : metrics) {
    tally.expect(valid_metric_name(m.name), "metric name " + m.name);
  }
  for (const std::string& layer : span_layers()) {
    tally.expect(valid_metric_name(layer + ".self_ms"), "span layer " + layer);
  }

  for (const std::string& failure : tally.failures) {
    std::cout << "FAIL " << failure << "\n";
  }
  std::cout << "self-test: " << tally.checks - tally.failed << "/"
            << tally.checks << " checks passed\n";
  return tally.failed == 0 ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  const perfbench::Args args = perfbench::parse_args(argc, argv);
  perfbench::print_fingerprint();
#if !defined(__OPTIMIZE__)
  std::cerr << "perfbench: refusing to report timings from an unoptimized "
               "build (configure with -DCMAKE_BUILD_TYPE=Release)\n";
  return 3;
#else
  try {
    return args.self_test ? perfbench::self_test() : perfbench::run(args);
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << e.what() << "\n";
    return 1;
  }
#endif
}
