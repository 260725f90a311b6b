// Low-level container runtimes below the CRI: crun (with the paper's
// WAMR integration), runC, youki, and the runwasi shims that run the
// engine inside the shim process (paper Fig 1's two integration paths).
//
// The Crun class is the reproduction of the paper's contribution (§III-C):
//  1. Dynamic library loading — libwamr.so is mapped into the container
//     process only when a Wasm container starts (lazy, shared node-wide).
//  2. WASI argument handling — OCI process args/env/mounts are translated
//     into WASI argv/environ/preopens.
//  3. Sandboxed execution — the module runs under fuel metering with the
//     OCI memory limit mapped to a Wasm page cap, inside the pod cgroup.
#pragma once

#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <string>

#include "engines/compile_cache.hpp"
#include "engines/engine.hpp"
#include "engines/serve_slot.hpp"
#include "oci/bundle.hpp"
#include "sim/node.hpp"

namespace wasmctr::oci {

enum class ContainerState { kCreated, kRunning, kStopped };

[[nodiscard]] constexpr const char* container_state_name(ContainerState s) {
  switch (s) {
    case ContainerState::kCreated: return "created";
    case ContainerState::kRunning: return "running";
    case ContainerState::kStopped: return "stopped";
  }
  return "?";
}

/// Exit codes the kubelet pattern-matches on (Linux conventions): 137 is
/// SIGKILL — what the kernel OOM-killer delivers; 128 marks a start that
/// never reached the workload's main().
inline constexpr uint32_t kOomKillExitCode = 137;
inline constexpr uint32_t kStartFailureExitCode = 128;

/// Public view of a container (the `crun state` analogue).
struct ContainerInfo {
  std::string id;
  ContainerState state = ContainerState::kCreated;
  sim::Pid pid = 0;
  std::string cgroup_path;
  uint32_t exit_code = 0;
  std::string stdout_data;
  uint64_t instructions = 0;
};

/// Callback fired when the container's workload begins executing (the
/// paper's startup-latency endpoint) or when startup fails.
using OnRunning = std::function<void(Status)>;

/// Translate a bundle's OCI process/mounts into WASI options (§III-C
/// item 2), with a `random_get` seed unique to container `id`. Every Wasm
/// launch path (crun/youki and the runwasi shims) builds its options here.
[[nodiscard]] wasi::WasiOptions wasi_options_for(const Bundle& bundle,
                                                 const std::string& id);

/// Interface all low-level runtimes implement (what containerd drives).
class LowLevelRuntime {
 public:
  virtual ~LowLevelRuntime() = default;

  [[nodiscard]] virtual std::string name() const = 0;

  /// `crun create`: read the bundle, prepare the cgroup. Synchronous
  /// bookkeeping; the heavy lifting happens at start().
  virtual Status create(const std::string& id, const std::string& bundle_path,
                        const std::string& cgroup_path) = 0;

  /// `crun start`: run the startup pipeline on the node's CPU; fires
  /// `on_running` when the workload's main() executes.
  virtual Status start(const std::string& id, OnRunning on_running) = 0;

  /// `crun kill` + reap: stop the workload process.
  virtual Status kill(const std::string& id) = 0;

  /// Grow the running workload's anonymous memory (an allocation spike).
  /// When the charge breaches a cgroup memory.max, the kernel OOM-killer
  /// fires: the process is reaped, the container flips to stopped with
  /// exit code 137, and the breaching kResourceExhausted status is
  /// returned so the caller can propagate the kill upward.
  virtual Status grow_memory(const std::string& id, Bytes delta) = 0;

  /// `crun delete`: remove the stopped container and its cgroup.
  virtual Status remove(const std::string& id) = 0;

  /// Dispatch one request to the running workload's handler (the serving
  /// path, DESIGN.md §8). The first request lazily builds the container's
  /// ServeSlot (cold start); later requests hit the warm instance.
  /// `parent` (optional) nests the serving spans under the caller's span.
  virtual void invoke(const std::string& id, int32_t arg,
                      engines::InvokeCallback done,
                      obs::SpanId parent = {}) = 0;

  [[nodiscard]] virtual Result<ContainerInfo> state(
      const std::string& id) const = 0;
};

/// Shared implementation of every runtime: one container state machine
/// (create → running → stopped, OOM kill to 137, serving slot) and one
/// launch path. Subclasses differ only in their calibrated constants (exec
/// cost, kernel-side residuals, whether the shim process is itself the
/// workload), their Wasm engine and the process name it runs under.
class OciRuntimeBase : public LowLevelRuntime {
 public:
  /// `engine` is the runtime's Wasm engine, a process-lifetime installation
  /// from engines::installed() (nullptr: no Wasm handler); a Wasm workload
  /// runs as process `process`.
  OciRuntimeBase(sim::Node& node, const engines::Engine* engine,
                 std::string process)
      : node_(node), engine_(engine), process_(std::move(process)) {}

  Status create(const std::string& id, const std::string& bundle_path,
                const std::string& cgroup_path) override;
  Status start(const std::string& id, OnRunning on_running) override;
  Status kill(const std::string& id) override;
  Status grow_memory(const std::string& id, Bytes delta) override;
  Status remove(const std::string& id) override;
  void invoke(const std::string& id, int32_t arg, engines::InvokeCallback done,
              obs::SpanId parent = {}) override;
  Result<ContainerInfo> state(const std::string& id) const override;

  /// Containers currently tracked (created/running/stopped).
  [[nodiscard]] std::size_t container_count() const noexcept {
    return containers_.size();
  }

 protected:
  /// Runtime-specific: CPU seconds for the create+start exec path.
  [[nodiscard]] virtual double exec_cpu_s() const = 0;
  /// Runtime-specific kernel-object overhead beyond the common baseline.
  [[nodiscard]] virtual Bytes kernel_extra() const { return Bytes(0); }
  /// Runtime-specific residual private memory in the workload process.
  [[nodiscard]] virtual Bytes process_residual() const { return Bytes(0); }
  /// True when the shim process is itself the workload (runwasi): start()
  /// skips the exec burst and the engine.load burst pays it instead; the
  /// pod cgroup, the kernel objects and the shim-crash check all arrive
  /// with the process at launch, not at create; and there is no Python
  /// handler, as the shim's process is its Wasm engine.
  [[nodiscard]] virtual bool shim_is_workload() const { return false; }

 private:
  struct ContainerRecord {
    ContainerInfo info;
    Bundle bundle;
    Bytes kernel_charged{0};     // node-level kernel objects (netns, ...)
    /// Live serving instance (built lazily by the first invoke()).
    std::unique_ptr<engines::ServeSlot> serve;
  };

  /// Launch dispatch once the exec burst finishes: a Python payload to
  /// launch_python, a Wasm payload through the handler annotation and
  /// engine checks to launch_wasm.
  void launch_workload(ContainerRecord& rec, OnRunning on_running);
  void launch_python(ContainerRecord& rec, OnRunning on_running);
  /// One engine.load burst, then finish_wasm_launch. A baseline-tier engine
  /// with a shared compile cache compiles once per runtime (later starters
  /// pay the artifact load, concurrent ones wait for the compile); any
  /// other baseline-tier engine pays its measured compile in the burst.
  void launch_wasm(ContainerRecord& rec, OnRunning on_running);
  /// Run the module for real, spawn the workload process named
  /// `process_:<id>`, charge memory, flip state.
  void finish_wasm_launch(ContainerRecord& rec, const OnRunning& on_running);

  /// Fault-injection target: the pod name containerd annotated the bundle
  /// with, falling back to the container id for bare-runtime embeddings.
  [[nodiscard]] std::string_view fault_target(const ContainerRecord& rec) const;
  /// Whether the injector fires `kind` for this container right now.
  [[nodiscard]] bool injected(sim::FaultKind kind, const ContainerRecord& rec);

  /// Set up the container's cgroup: memory.max, plus an injected OOM.
  void enter_cgroup(const ContainerRecord& rec);
  /// Charge the kernel objects the runtime allocates for the container.
  Status charge_kernel(ContainerRecord& rec);

  void fail(ContainerRecord& rec, Status status, const OnRunning& on_running);

  sim::Node& node_;
  const engines::Engine* engine_;
  std::string process_;
  /// Node-wide shared compilation cache (wasmtime's on-disk code cache).
  engines::CompileCache compile_cache_;
  std::map<std::string, ContainerRecord> containers_;
};

/// crun — lightweight C runtime; supports Python workloads and one
/// compiled-in Wasm backend. `EngineKind::kWamr` selects the paper's
/// integration: WAMR embedded in the crun process itself (§III-C), no
/// engine exec. Other kinds exec the engine binary as the container
/// process (the pre-existing integrations the paper compares against in
/// Fig 3/4).
class Crun final : public OciRuntimeBase {
 public:
  Crun(sim::Node& node, std::optional<engines::EngineKind> wasm_backend);

  [[nodiscard]] std::string name() const override {
    if (!wasm_backend_) return "crun";
    return std::string("crun-") + engines::engine_name(*wasm_backend_);
  }

 protected:
  [[nodiscard]] double exec_cpu_s() const override {
    return engines::kInfra.crun_exec_cpu_s;
  }

 private:
  std::optional<engines::EngineKind> wasm_backend_;
};

/// runC — Kubernetes' default; no Wasm handler (paper §IV-D uses it for
/// the Python baseline only).
class Runc final : public OciRuntimeBase {
 public:
  explicit Runc(sim::Node& node) : OciRuntimeBase(node, nullptr, "") {}
  [[nodiscard]] std::string name() const override { return "runc"; }

 protected:
  [[nodiscard]] double exec_cpu_s() const override {
    return engines::kInfra.runc_exec_cpu_s;
  }
  [[nodiscard]] Bytes kernel_extra() const override {
    return engines::kInfra.runc_runtime_extra;
  }
  [[nodiscard]] Bytes process_residual() const override {
    return engines::kInfra.runc_process_residual;
  }
};

/// youki — Rust runtime with WasmEdge support (Fig 1's third low-level
/// runtime); implemented for completeness and the ablation benches.
class Youki final : public OciRuntimeBase {
 public:
  explicit Youki(sim::Node& node)
      : OciRuntimeBase(node,
                       engines::installed(engines::Integration::kCrun,
                                          engines::EngineKind::kWasmEdge),
                       "wasmedge") {}
  [[nodiscard]] std::string name() const override { return "youki"; }

 protected:
  [[nodiscard]] double exec_cpu_s() const override {
    return engines::kInfra.youki_exec_cpu_s;
  }
};

/// containerd-shim-<engine> (runwasi): the engine runs inside the shim,
/// and the shim process is the workload, living in the pod cgroup — its
/// whole footprint is visible to the metrics server (why Fig 6's
/// metrics-server gap to shims exceeds the free-command gap in Fig 5).
/// There is no OCI runtime exec: shim boot and the runwasi create fuse
/// with the engine's init/load/compile into one engine.load burst. No
/// shim ships WAMR: a kWamr shim has no engine and refuses Wasm.
class RunwasiShim final : public OciRuntimeBase {
 public:
  RunwasiShim(sim::Node& node, engines::EngineKind engine)
      : OciRuntimeBase(node,
                       engines::installed(engines::Integration::kRunwasi,
                                          engine),
                       std::string("containerd-shim-") +
                           engines::engine_name(engine)),
        kind_(engine) {}

  [[nodiscard]] std::string name() const override {
    return std::string("containerd-shim-") + engines::engine_name(kind_);
  }

 protected:
  [[nodiscard]] double exec_cpu_s() const override {
    return engines::kInfra.shim_spawn_cpu_s +
           engines::kInfra.runwasi_create_cpu_s;
  }
  /// ttrpc/event plumbing next to the per-pod kernel objects (netns,
  /// veth, cgroup structs) an OCI runtime would create.
  [[nodiscard]] Bytes kernel_extra() const override {
    return engines::kInfra.runwasi_node_extra;
  }
  [[nodiscard]] bool shim_is_workload() const override { return true; }

 private:
  engines::EngineKind kind_;
};

}  // namespace wasmctr::oci
