#include "engines/engine.hpp"

#include "wasm/baseline/bytecode.hpp"
#include "wasm/baseline/compiler.hpp"
#include "wasm/decoder.hpp"
#include "wasm/exec/instance.hpp"
#include "wasm/validator.hpp"

namespace wasmctr::engines {

namespace {

/// Bench-controlled tier override (ScopedTierOverride). Process-global
/// because the engines are process-wide installations; the simulation is
/// single-threaded, and benches run their cells sequentially.
std::optional<Tier> g_tier_override;

CompileMeasurement measure_of(const wasm::baseline::CompiledModule& cm) {
  const wasm::baseline::CompileStats& s = cm.stats();
  CompileMeasurement m;
  m.content_hash = s.content_hash;
  m.wasm_bytes = s.wasm_bytes;
  m.wasm_ops = s.wasm_ops;
  m.bytecode_bytes = s.bytecode_bytes;
  m.meta_bytes = s.meta_bytes;
  m.fused = s.fused;
  m.code_pages = cm.code_pages();
  m.meta_pages = cm.meta_pages();
  return m;
}

}  // namespace

void set_tier_override(std::optional<Tier> tier) { g_tier_override = tier; }
std::optional<Tier> tier_override() { return g_tier_override; }

Tier Engine::tier() const noexcept {
  return g_tier_override.value_or(profile_.tier);
}

const Engine* installed(Integration integration, EngineKind kind) {
  static const std::vector<Engine> engines = [] {
    std::vector<Engine> all;
    for (const EngineProfile& p : kCrunEngineProfiles) {
      all.emplace_back(p, Integration::kCrun);
    }
    for (const EngineProfile& p : kShimEngineProfiles) {
      all.emplace_back(p, Integration::kRunwasi);
    }
    return all;
  }();
  for (const Engine& e : engines) {
    if (e.integration() == integration && e.kind() == kind) return &e;
  }
  return nullptr;
}

std::string Engine::library_name() const {
  const bool shim = integration_ == Integration::kRunwasi;
  return std::string(shim ? "containerd-shim-" : "lib") +
         engine_name(profile_.kind) + (shim ? "" : ".so");
}

Result<std::shared_ptr<const wasm::baseline::CompiledModule>>
Engine::compiled_module(std::span<const uint8_t> module_bytes) const {
  const uint64_t hash = wasm::baseline::content_hash(module_bytes);
  auto it = compiled_cache_.find(hash);
  if (it != compiled_cache_.end()) return it->second;
  WASMCTR_ASSIGN_OR_RETURN(wasm::Module module,
                           wasm::decode_module(module_bytes));
  WASMCTR_RETURN_IF_ERROR(wasm::validate_module(module));
  WASMCTR_ASSIGN_OR_RETURN(
      auto compiled, wasm::baseline::compile_module(module, module_bytes));
  compiled_cache_.emplace(hash, compiled);
  return compiled;
}

Result<CompileMeasurement> Engine::measure_compile(
    std::span<const uint8_t> module_bytes) const {
  WASMCTR_ASSIGN_OR_RETURN(auto compiled, compiled_module(module_bytes));
  return measure_of(*compiled);
}

Status Engine::instantiate(std::span<const uint8_t> module_bytes,
                           wasi::WasiOptions wasi_options, wasi::VirtualFs& fs,
                           uint64_t fuel, WasiInstance& out) const {
  WASMCTR_ASSIGN_OR_RETURN(wasm::Module module,
                           wasm::decode_module(module_bytes));
  WASMCTR_RETURN_IF_ERROR(wasm::validate_module(module));

  // Baseline tier runs the node's compiled artifact (memoized above).
  std::shared_ptr<const wasm::baseline::CompiledModule> compiled;
  if (tier() == Tier::kBaseline) {
    WASMCTR_ASSIGN_OR_RETURN(compiled, compiled_module(module_bytes));
    out.compile = measure_of(*compiled);
  }

  out.ctx.emplace(std::move(wasi_options), fs).register_imports(out.resolver);

  wasm::ExecLimits limits;
  limits.fuel = fuel;  // sandbox: no unbounded loops
  auto instance = wasm::Instance::instantiate(std::move(module), out.resolver,
                                              limits, std::move(compiled));
  if (!instance) {
    out.reset();
    return instance.status();
  }
  out.instance = std::move(*instance);
  return Status::ok();
}

Result<ExecutionReport> Engine::run_module(
    std::span<const uint8_t> module_bytes, wasi::WasiOptions wasi_options,
    wasi::VirtualFs& fs, uint64_t fuel) const {
  ExecutionReport report;
  report.tier = tier();
  WasiInstance live;
  WASMCTR_RETURN_IF_ERROR(
      instantiate(module_bytes, std::move(wasi_options), fs, fuel, live));
  report.compile = live.compile;
  wasi::WasiContext& ctx = *live.ctx;
  wasm::Instance& instance = *live.instance;

  auto r = instance.invoke("_start");
  if (!r) {
    if (r.status().code() == ErrorCode::kTrap &&
        r.status().message() == "proc_exit" && ctx.exited()) {
      report.exit_code = ctx.exit_code();
    } else {
      return r.status();  // genuine trap or missing export
    }
  }
  report.stdout_data = ctx.stdout_data();
  report.stderr_data = ctx.stderr_data();
  report.instructions = instance.instructions_retired();
  report.measured_instance =
      Bytes(instance.resident_bytes() + ctx.resident_bytes());
  report.modeled_instance = Bytes(static_cast<uint64_t>(
      static_cast<double>(report.measured_instance.value) *
      profile_.instance_multiplier));
  return report;
}

StartupCost Engine::startup_cost(std::size_t module_size,
                                 const CompileMeasurement* compile) const {
  StartupCost cost;
  cost.init_cpu_s = profile_.init_cpu_s;
  const double kib = static_cast<double>(module_size) / 1024.0;
  cost.load_cpu_s = profile_.load_cpu_s_per_kib * kib;
  if (tier() == Tier::kBaseline && compile != nullptr) {
    cost.compile_cpu_s = compile_cpu_s(*compile);
  }
  return cost;
}

Status run_python(std::string_view script,
                  const std::vector<std::string>& argv,
                  const std::vector<std::pair<std::string, std::string>>& env,
                  PythonInstance& out) {
  WASMCTR_ASSIGN_OR_RETURN(pylite::Program program,
                           pylite::parse_source(script));
  pylite::Program& prog = out.program.emplace(std::move(program));
  pylite::InterpOptions opts;
  opts.argv = argv;
  opts.env = env;
  Status st = out.interp.emplace(std::move(opts)).run(prog);
  if (!st.is_ok()) out.reset();
  return st;
}

}  // namespace wasmctr::engines
