// Engine calibration constants.
//
// Every number here is anchored to a relative result in the paper's
// evaluation (Figures 3–10); absolute magnitudes are chosen to be plausible
// for the engines' real architectures (interpreter vs JIT, arena sizing,
// shim process layout) and then fitted so the *relative* statistics the
// paper reports emerge from the simulation:
//
//   Fig 3/4: crun-WAMR uses ≥50.34 % (metrics server) / ≥40.0 % (free)
//            less memory than any other engine embedded in crun.
//   Fig 5:   crun-WAMR beats containerd-shim-wasmtime by ≥10.87 % and
//            containerd-shim-wasmer by 77.53 % (free).
//   Fig 6/7: crun-WAMR is the only Wasm config under Python containers
//            (≥17.98 % / 18.15 % metrics; ≥16.38 % / 17.87 % free);
//            shim-wasmtime beats Python by ≥4.66 % on free only.
//   Fig 8:   at 10 containers, runwasi shims are fastest (up to 11.45 %
//            ahead of ours); ours beats every other crun engine (≥2.66 %)
//            and Python (3–18 %); ours ≈ 3.24 s.
//   Fig 9:   at 400 containers the ranking flips: ours beats
//            shim-wasmedge/-wasmtime by 18.82 % / 28.38 %, trails
//            crun-Wasmtime by 6.93 %, still beats Python.
//
// The *mechanisms* that turn these constants into density-dependent curves
// (page sharing, first-toucher memcg charging, shim-per-pod processes,
// containerd serialization, processor-sharing CPU contention, wasmtime's
// shared compilation cache) live in src/oci, src/containerd and src/sim —
// not here.
#pragma once

#include "support/units.hpp"

namespace wasmctr::engines {

/// Wasm engines the paper benchmarks (§IV, Table I).
enum class EngineKind { kWamr, kWasmtime, kWasmer, kWasmEdge };

constexpr const char* engine_name(EngineKind k) {
  switch (k) {
    case EngineKind::kWamr: return "wamr";
    case EngineKind::kWasmtime: return "wasmtime";
    case EngineKind::kWasmer: return "wasmer";
    case EngineKind::kWasmEdge: return "wasmedge";
  }
  return "?";
}

/// Execution tier. kInterpreter dispatches Wasm directly (WAMR's classic
/// interpreter); kBaseline runs the singlepass compiler first and executes
/// the resulting direct-threaded bytecode (the stand-in for Wasmtime's /
/// Wasmer's compiled tiers and WAMR's fast-interp). The tier decides
/// whether a pod pays a compile and maps code-space pages, and which
/// per-instruction rate prices its requests.
enum class Tier { kInterpreter, kBaseline };

constexpr const char* tier_name(Tier t) {
  return t == Tier::kInterpreter ? "interp" : "baseline";
}

/// Memory/startup profile of one engine when *embedded in crun* (engine
/// runs inside the container process).
struct EngineProfile {
  EngineKind kind;
  /// Default execution tier. WAMR-in-crun interprets; every other engine
  /// runs a compiled tier (modeled by our baseline bytecode compiler).
  /// Engine::tier() lets benches override this per cell.
  Tier tier;
  /// Size of the engine shared library (.so) — mapped shared, resident
  /// once per node no matter how many containers use it.
  Bytes shared_lib;
  /// Per-process private memory the engine touches at startup: relocated
  /// GOT/PLT pages, allocator arenas, JIT code-space reservations. This is
  /// what separates WAMR (tiny interpreter) from the JIT engines.
  Bytes private_fixed;
  /// Multiplier applied to the *measured* instance footprint (module
  /// structures + linear memory + stacks from our real interpreter): JIT
  /// engines hold compiled code alongside, roughly N× the decoded module.
  double instance_multiplier;
  /// CPU cost of engine initialization inside the container (seconds).
  double init_cpu_s;
  /// CPU per KiB of module for decode + validate (every tier pays this).
  double load_cpu_s_per_kib;
  /// CPU per 1000 Wasm ops for the baseline-tier compile. The op count is
  /// *measured* by running the singlepass compiler on the actual module
  /// (Engine::measure_compile), replacing the old flat per-engine compile
  /// constant; the rates are fitted so the standard 295-byte / 37-op
  /// microservice module reproduces the calibrated totals the figures
  /// were anchored to (1.20 / 1.80 / 1.50 s for the crun JIT engines).
  double compile_cpu_s_per_kop;
  /// CPU to load a cache-hit precompiled artifact (shared_compile_cache).
  double cache_load_cpu_s;
  /// Whole-module compile performed once per node and shared via an
  /// on-disk code cache (wasmtime's `--cache`; the crun integrations
  /// mount a shared cache volume). false = every container compiles
  /// privately (runwasi shims ship no cross-pod artifact cache).
  bool shared_compile_cache;
};

/// Profiles for engines embedded in crun (paper Fig 3/4, our integration
/// in red). WAMR: interpreter, small .so, no JIT arenas.
constexpr EngineProfile kCrunEngineProfiles[] = {
    // kind        tier                  shared_lib           private_fixed        mult  init   /KiB    s/kop  cacheload shared$
    // All three JIT engines ship a precompiled-artifact cache (wasmtime
    // --cache, wasmer's module cache, wasmedge AOT): expensive first
    // compile, near-free loads afterwards. WAMR interprets: no compile at
    // all, but each start pays full runtime init (the Fig 8/9 crossover).
    // WAMR's rate is only charged when a bench forces the baseline tier
    // (fast-interp ablation); it is ~0.4× wasmtime's singlepass rate.
    {EngineKind::kWamr,     Tier::kInterpreter, Bytes(1200 * 1024),  Bytes(3550 * 1024),  1.0, 0.33, 0.0004, 13.0, 0.0,  false},
    {EngineKind::kWasmtime, Tier::kBaseline,    Bytes(6000 * 1024),  Bytes(8750 * 1024),  3.0, 0.09, 0.0002, 32.4, 0.02, true},
    {EngineKind::kWasmer,   Tier::kBaseline,    Bytes(7000 * 1024),  Bytes(11050 * 1024), 3.0, 0.10, 0.0002, 48.6, 0.04, true},
    {EngineKind::kWasmEdge, Tier::kBaseline,    Bytes(5000 * 1024),  Bytes(7900 * 1024),  2.0, 0.12, 0.0002, 40.5, 0.06, true},
};

/// Profiles for the runwasi shims (containerd-shim-<engine>): the whole
/// shim + engine runs as one process *inside the pod cgroup* (no separate
/// low-level runtime). Their fixed footprints differ from the crun
/// embeddings because the shim links the engine statically plus the
/// containerd ttrpc stack (paper Fig 5: shim-wasmtime is the second-best
/// config overall; shim-wasmer is the worst at 77.53 % above ours).
/// No shared artifact cache: every pod compiles privately, so the old
/// per-KiB load constant is split in half between decode+validate and a
/// measured per-module compile (fitted on the standard module).
constexpr EngineProfile kShimEngineProfiles[] = {
    {EngineKind::kWasmtime, Tier::kBaseline, Bytes(5000 * 1024),  Bytes(4420 * 1024),  3.0, 0.22, 0.0003, 0.0023, 0.0, false},
    {EngineKind::kWasmer,   Tier::kBaseline, Bytes(10000 * 1024), Bytes(23400 * 1024), 3.0, 0.28, 0.0004, 0.0031, 0.0, false},
    {EngineKind::kWasmEdge, Tier::kBaseline, Bytes(6000 * 1024),  Bytes(6000 * 1024),  2.0, 0.19, 0.0003, 0.0023, 0.0, false},
};

// --- Python baseline (paper §IV-D) ---

/// CPython-equivalent profile: libpython mapped shared; interpreter state,
/// import machinery and site-packages dictionaries private per process.
struct PythonProfile {
  Bytes shared_lib{4000 * 1024};     // libpython3.x.so
  Bytes private_fixed{4600 * 1024};  // interpreter state + imports
  double instance_multiplier = 1.0;  // pylite measured bytes count as-is
  double init_cpu_s = 0.55;          // interpreter boot + site imports
  double exec_cpu_s_per_kstep = 0.00001;
};

constexpr PythonProfile kPythonProfile{};

// --- Per-process / per-pod infrastructure (common to all configs) ---

struct InfraCalibration {
  /// Pause container private RSS (one per pod).
  Bytes pause_private{300 * 1024};
  /// Pause binary, shared across every pod on the node.
  Bytes pause_shared{200 * 1024};
  /// Container process base private cost (libc relocations, stack).
  Bytes process_base{150 * 1024};
  /// containerd-shim-runc-v2 manager process, per pod, lives in the
  /// system cgroup: visible to `free`, invisible to the metrics server
  /// (this is why Fig 4 > Fig 3 for crun-path configs).
  Bytes runc_shim_private{1000 * 1024};
  Bytes runc_shim_shared{800 * 1024};
  /// runwasi shims carry their manager inside the pod cgroup instead, but
  /// keep extra node-level state (ttrpc sockets, event plumbing).
  Bytes runwasi_node_extra{610 * 1024};
  /// kubelet bookkeeping per pod (kubelet process, system cgroup).
  Bytes kubelet_per_pod{350 * 1024};
  /// Kernel objects per pod: netns, veth, cgroup structures.
  Bytes kernel_per_pod{250 * 1024};
  /// Extra kernel/socket state of a Python container (more fds, pycache).
  Bytes python_extra{220 * 1024};
  /// Extra kernel state when runC (not crun) sets up the container.
  Bytes runc_runtime_extra{110 * 1024};
  /// runC leaves slightly more residual private memory than crun.
  Bytes runc_process_residual{10 * 1024};

  // --- startup CPU (seconds) ---
  double sandbox_cpu_s = 0.90;       ///< RunPodSandbox: netns, pause start
  double shim_spawn_cpu_s = 0.40;    ///< fork/exec of the per-pod shim
  double crun_exec_cpu_s = 1.00;     ///< crun create+start (pivot_root, ...)
  double runc_exec_cpu_s = 1.12;     ///< runC is measurably slower than crun
  double youki_exec_cpu_s = 1.05;    ///< youki create+start
  double runwasi_create_cpu_s = 0.74;///< runwasi skips the OCI runtime exec
  double python_boot_extra_cpu_s = 0.23;  ///< beyond PythonProfile.init
  /// Fixed (non-CPU) pipeline latency per pod: scheduler binding, kubelet
  /// sync, network programming waits.
  double fixed_latency_s = 0.55;
  /// containerd daemon critical section per shim registration, serialized
  /// on the daemon's event loop. For runwasi shims the cost grows with the
  /// number of live shim ttrpc connections the loop must service, so the
  /// serialized total is ~quadratic in pod count: negligible at 10 pods,
  /// dominant at 400 (the Fig 8 → Fig 9 ranking flip). runc-v2 shims are
  /// connection-light and stay constant.
  double daemon_serial_runc_shim_s = 0.004;
  double runwasi_serial_base_wasmtime_s = 0.008;
  double runwasi_serial_base_wasmedge_s = 0.0075;
  double runwasi_serial_base_wasmer_s = 0.009;
  double runwasi_serial_per_conn_wasmtime_s = 0.00064;
  double runwasi_serial_per_conn_wasmedge_s = 0.00054;
  double runwasi_serial_per_conn_wasmer_s = 0.00085;

  // --- restart (serving/recovery) ---
  /// Kubelet sync latency when restarting a container inside an existing
  /// sandbox: no scheduler round-trip, no CNI, no pause start — just the
  /// kubelet noticing the dead container on its sync loop. Compare
  /// fixed_latency_s + sandbox_cpu_s for the full-recreation path.
  double restart_sync_latency_s = 0.08;

  // --- request serving (invoke path) ---
  /// Fixed per-request overhead: CRI round-trip, shim dispatch, WASI fd
  /// setup for the response.
  double invoke_overhead_cpu_s = 0.0003;
  /// Per 1000 guest instructions, interpreter tier (WAMR, pylite).
  double invoke_interp_cpu_s_per_kinst = 0.00005;
  /// Per 1000 guest instructions, JIT tier (wasmtime/wasmer/wasmedge).
  double invoke_jit_cpu_s_per_kinst = 0.000006;
  /// Cold request: fraction of the engine's init paid to stand up a
  /// serving instance inside an already-running container process.
  double serve_instantiate_fraction = 0.35;
  /// Cold request on the Python path: compiling the handler function.
  double python_handler_compile_cpu_s = 0.02;
};

constexpr InfraCalibration kInfra{};

}  // namespace wasmctr::engines
