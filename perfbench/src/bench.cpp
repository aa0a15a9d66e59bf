#include "bench.hpp"

#include <algorithm>
#include <chrono>
#include <map>
#include <mutex>
#include <type_traits>
#include <variant>

#include "core/bytecode.hpp"
#include "core/executor_base.hpp"
#include "frontend/parser.hpp"

namespace perfbench {

using namespace sap;

MachineConfig paper_config() {
  MachineConfig config;
  config.page_size = 32;
  config.cache_elements = 256;
  return config.with_pes(16);
}

AdvisorOptions joint_options() {
  AdvisorOptions options;
  options.strategy = AdvisorStrategy::kJoint;
  options.page_sizes = {16, 32, 64};
  options.beam_width = 4;
  options.measurement_budget = 16;
  options.joint_measurement_budget = 24;
  return options;
}

void pin_bytecode(CompiledProgram& program) {
  ProgramBytecode bytecode = compile_bytecode(program.program, program.sema);
  bytecode = optimize_bytecode(std::move(bytecode), program.program,
                               program.sema);
  program.bytecode =
      std::make_shared<const ProgramBytecode>(std::move(bytecode));
}

CompiledProgram compile_dsl(const std::string& source) {
  return compile(Parser::parse(source), EvalEngine::kBytecode,
                 BytecodeOpt::kOn);
}

namespace {

std::uint64_t count_body(const std::vector<StmtPtr>& body) {
  std::uint64_t count = 0;
  for (const StmtPtr& stmt : body) {
    ++count;
    std::visit(
        [&](const auto& node) {
          using Node = std::decay_t<decltype(node)>;
          if constexpr (std::is_same_v<Node, DoLoop>) {
            count += count_body(node.body);
          } else if constexpr (std::is_same_v<Node, IfStmt>) {
            count += count_body(node.then_body) + count_body(node.else_body);
          }
        },
        stmt->node);
  }
  return count;
}

class InstanceCounter final : public SequentialExecutor {
 public:
  std::uint64_t count = 0;

 protected:
  void on_instance(const ArrayAssign&, PeId, std::int64_t, const EvalEnv&,
                   bool) override {
    ++count;
  }
};

}  // namespace

std::uint64_t count_statements(const Program& program) {
  return count_body(program.body);
}

std::uint64_t count_instructions(const ProgramBytecode& bytecode) {
  std::uint64_t total = 0;
  for (const auto& [stmt, assign] : bytecode.assigns) {
    total += assign.target.code.size() + assign.value.code.size();
  }
  for (const auto& [stmt, expr] : bytecode.scalar_assigns) {
    total += expr.code.size();
  }
  for (const auto& [stmt, loop] : bytecode.loops) {
    total += loop.lower.code.size() + loop.upper.code.size();
    if (loop.step) total += loop.step->code.size();
  }
  for (const auto& [stmt, guard] : bytecode.guards) total += guard.code.size();
  for (const CompiledExpr& hoist : bytecode.hoists) total += hoist.code.size();
  return total;
}

std::uint64_t count_instances(const CompiledProgram& program) {
  ArrayRegistry registry;
  materialize_arrays(program, registry);
  InstanceCounter counter;
  counter.execute(program, registry);
  return counter.count;
}

bool same_result(const SimulationResult& a, const SimulationResult& b) {
  return a.totals == b.totals && a.per_pe == b.per_pe &&
         a.cache_totals.hits == b.cache_totals.hits &&
         a.cache_totals.misses == b.cache_totals.misses &&
         a.cache_totals.evictions == b.cache_totals.evictions &&
         a.cache_totals.invalidations == b.cache_totals.invalidations &&
         a.network == b.network && a.max_link_load == b.max_link_load &&
         a.contention_factor == b.contention_factor &&
         a.reinit_messages == b.reinit_messages;
}

std::uint64_t now_ns() noexcept {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

double median(std::vector<double> values) { return percentile(values, 0.5); }

double percentile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

// ------------------------------------------------------------------ spans

namespace {

thread_local LayerSpan* t_open_span = nullptr;

std::mutex g_layer_mutex;
std::map<std::string, LayerTime> g_layer_times;  // guarded by g_layer_mutex

}  // namespace

LayerSpan::LayerSpan(const char* layer) noexcept
    : span_("perfbench", layer), layer_(layer) {
  if (!obs::tracing_enabled()) return;
  armed_ = true;
  parent_ = t_open_span;
  t_open_span = this;
  start_ns_ = now_ns();
}

LayerSpan::~LayerSpan() {
  if (!armed_) return;
  const std::uint64_t duration = now_ns() - start_ns_;
  t_open_span = parent_;
  if (parent_ != nullptr) parent_->child_ns_ += duration;
  const std::uint64_t self =
      duration > child_ns_ ? duration - child_ns_ : std::uint64_t{0};
  const std::lock_guard<std::mutex> lock(g_layer_mutex);
  LayerTime& entry = g_layer_times[layer_];
  entry.layer = layer_;
  entry.self_ms += static_cast<double>(self) / 1e6;
}

std::vector<LayerTime> layer_times() {
  const std::lock_guard<std::mutex> lock(g_layer_mutex);
  std::vector<LayerTime> out;
  for (const auto& [name, entry] : g_layer_times) out.push_back(entry);
  return out;
}

void reset_layer_times() {
  const std::lock_guard<std::mutex> lock(g_layer_mutex);
  g_layer_times.clear();
}

bool valid_metric_name(const std::string& name) {
  if (name.empty()) return false;
  return std::all_of(name.begin(), name.end(), [](char c) {
    return (c >= 'A' && c <= 'Z') || (c >= 'a' && c <= 'z') ||
           (c >= '0' && c <= '9') || c == '_' || c == '.' || c == '-';
  });
}

}  // namespace perfbench
