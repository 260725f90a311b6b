// Engine execution layer: really runs Wasm modules through the interpreter
// or the baseline bytecode tier (with WASI) and reports measured +
// profile-modeled footprints.
//
// One Engine object per integration × engine kind (installed()) serves
// every container, as engines share their .so across containers; each
// container execution produces an ExecutionReport the container runtime
// feeds into the memory model.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "engines/calibration.hpp"
#include "pylite/ast.hpp"
#include "pylite/interp.hpp"
#include "support/status.hpp"
#include "wasi/wasi.hpp"

namespace wasmctr::wasm::baseline {
class CompiledModule;
}

namespace wasmctr::engines {

/// What the singlepass compiler measured for one module: real quantities
/// from actually compiling it, not calibrated constants. The page counts
/// are the two caller-owned contiguous regions (bytecode + metadata) the
/// container runtime maps as shared code-space.
struct CompileMeasurement {
  uint64_t content_hash = 0;
  uint64_t wasm_bytes = 0;
  uint64_t wasm_ops = 0;        ///< lowered Wasm opcodes (prices the compile)
  uint64_t bytecode_bytes = 0;  ///< emitted direct-threaded bytecode
  uint64_t meta_bytes = 0;      ///< function metadata region
  uint64_t fused = 0;           ///< superinstruction fusions performed
  uint32_t code_pages = 0;      ///< 4 KiB pages of the code region
  uint32_t meta_pages = 0;      ///< 4 KiB pages of the metadata region
};

/// Result of executing a module to completion inside an engine.
struct ExecutionReport {
  uint32_t exit_code = 0;
  std::string stdout_data;
  std::string stderr_data;
  uint64_t instructions = 0;
  /// Tier the module actually executed under.
  Tier tier = Tier::kInterpreter;
  /// Filled for kBaseline: the real compile of this module.
  CompileMeasurement compile;
  /// Real bytes our interpreter held for this instance (module structures,
  /// linear memory, tables, frames, WASI context).
  Bytes measured_instance;
  /// measured_instance × profile multiplier: what this engine's
  /// architecture (JIT code, arenas) would keep resident.
  Bytes modeled_instance;
};

/// Startup CPU demand for one container using this engine. Whether the
/// compile is paid per pod or once per node through a shared artifact
/// cache is the container runtime's call (OciRuntimeBase::launch_wasm).
struct StartupCost {
  double init_cpu_s = 0;     ///< engine runtime initialization
  double load_cpu_s = 0;     ///< per-container module decode/validate
  double compile_cpu_s = 0;  ///< measured baseline-tier compile
};

/// A module instantiated under WASI, built in place by
/// Engine::instantiate in storage the caller owns (a start's stack frame,
/// a serving slot). It never moves: the instance's host funcs point into
/// `ctx`, which is declared first so the instance is destroyed before it.
/// `resolver` holds the imports the instance was linked against and lives
/// as long as the instance, so a start frees it after `_start`, not in
/// between: freeing it early reshuffles the host heap under the run and
/// slowed perfbench's scale_startup by 10-27% on a 4-core Xeon.
struct WasiInstance {
  WasiInstance() = default;
  WasiInstance(const WasiInstance&) = delete;
  WasiInstance& operator=(const WasiInstance&) = delete;

  /// Drop the instance, its imports and its context, in that order.
  void reset() {
    instance.reset();
    resolver = {};
    ctx.reset();
  }

  std::optional<wasi::WasiContext> ctx;
  wasm::ImportResolver resolver;
  std::unique_ptr<wasm::Instance> instance;
  /// Filled on the baseline tier: the real compile of this module.
  CompileMeasurement compile;
};

/// A pylite script after its top level ran, built in place by run_python:
/// `interp` holds functions whose bodies live in `program`.
struct PythonInstance {
  void reset() {
    interp.reset();
    program.reset();
  }

  std::optional<pylite::Program> program;
  std::optional<pylite::Interp> interp;
};

/// Parse `script` and run its top level under pylite into `out` — the
/// Python twin of Engine::instantiate, shared by container start and cold
/// serving. On failure `out` is left empty.
Status run_python(std::string_view script,
                  const std::vector<std::string>& argv,
                  const std::vector<std::pair<std::string, std::string>>& env,
                  PythonInstance& out);

/// Default fuel budget for a container start: generous enough for every
/// real workload, finite so no startup loop runs unbounded (§III-C item 3).
inline constexpr uint64_t kDefaultStartupFuel = 50'000'000;

/// Process-global tier override, set by benches to sweep both tiers over
/// the same engine profiles (the engines themselves are the process-wide
/// installations of installed()). nullopt = every engine uses its profile default.
void set_tier_override(std::optional<Tier> tier);
[[nodiscard]] std::optional<Tier> tier_override();

/// RAII tier override for one bench cell.
class ScopedTierOverride {
 public:
  explicit ScopedTierOverride(Tier t) : prev_(tier_override()) {
    set_tier_override(t);
  }
  ~ScopedTierOverride() { set_tier_override(prev_); }
  ScopedTierOverride(const ScopedTierOverride&) = delete;
  ScopedTierOverride& operator=(const ScopedTierOverride&) = delete;

 private:
  std::optional<Tier> prev_;
};

/// How an engine reaches the container (paper Fig 1's two paths): run by
/// crun (embedded or exec'd), or linked into a runwasi containerd shim.
enum class Integration { kCrun, kRunwasi };

/// An engine installation on a node.
class Engine {
 public:
  Engine(EngineProfile profile, Integration integration)
      : profile_(profile), integration_(integration) {}

  [[nodiscard]] const EngineProfile& profile() const noexcept {
    return profile_;
  }
  [[nodiscard]] EngineKind kind() const noexcept { return profile_.kind; }
  [[nodiscard]] Integration integration() const noexcept {
    return integration_;
  }
  [[nodiscard]] std::string library_name() const;

  /// Effective execution tier: the global override if set, else the
  /// profile default.
  [[nodiscard]] Tier tier() const noexcept;

  /// Decode + validate + (baseline tier) fetch the compiled artifact +
  /// build the WASI context and its imports + instantiate into `out`, with
  /// `fuel` capping executed instructions. Container start and cold
  /// serving both stand their instances up here. On failure `out` holds no
  /// context or instance.
  Status instantiate(std::span<const uint8_t> module_bytes,
                     wasi::WasiOptions wasi_options, wasi::VirtualFs& fs,
                     uint64_t fuel, WasiInstance& out) const;

  /// instantiate() + run `_start`. The module actually executes (through
  /// the baseline bytecode when tier() is kBaseline); proc_exit(0) is
  /// success. The fault injector passes a tiny `fuel` budget to force a
  /// genuine "all fuel consumed" trap through the whole stack.
  Result<ExecutionReport> run_module(std::span<const uint8_t> module_bytes,
                                     wasi::WasiOptions wasi_options,
                                     wasi::VirtualFs& fs,
                                     uint64_t fuel = kDefaultStartupFuel) const;

  /// Singlepass-compile `module_bytes` (memoized by content hash — the
  /// node's artifact store) and return the shared compiled form.
  Result<std::shared_ptr<const wasm::baseline::CompiledModule>>
  compiled_module(std::span<const uint8_t> module_bytes) const;

  /// Compile `module_bytes` and report the measured quantities.
  Result<CompileMeasurement> measure_compile(
      std::span<const uint8_t> module_bytes) const;

  /// CPU demand of the baseline compile for a measured module: the
  /// profile's per-kop rate × the module's real op count.
  [[nodiscard]] double compile_cpu_s(const CompileMeasurement& m) const noexcept {
    return profile_.compile_cpu_s_per_kop * static_cast<double>(m.wasm_ops) /
           1000.0;
  }

  /// CPU demand to start one container with a module of `module_size`.
  /// `compile` (optional) is the measured module; without it, or on the
  /// interpreter tier, no compile stage is charged.
  [[nodiscard]] StartupCost startup_cost(
      std::size_t module_size,
      const CompileMeasurement* compile = nullptr) const;

 private:
  EngineProfile profile_;
  Integration integration_;
  /// Content-hash-keyed compiled artifacts. Wall-clock memoization only:
  /// the virtual-time cost of compiling is modeled by the container
  /// runtime (a node CompileCache for shared-cache engines, per-pod
  /// bursts otherwise).
  mutable std::map<uint64_t,
                   std::shared_ptr<const wasm::baseline::CompiledModule>>
      compiled_cache_;
};

/// The process's one installation of `kind` under `integration`, built
/// from the calibrated profiles and alive for the whole run; nullptr where
/// that integration ships no such engine (there is no WAMR runwasi shim).
const Engine* installed(Integration integration, EngineKind kind);

}  // namespace wasmctr::engines
