#include "oci/runtime.hpp"

#include "support/log.hpp"

namespace wasmctr::oci {

using engines::kInfra;

Status OciRuntimeBase::create(const std::string& id,
                              const std::string& bundle_path,
                              const std::string& cgroup_path) {
  if (containers_.contains(id)) {
    return already_exists("container " + id);
  }
  WASMCTR_ASSIGN_OR_RETURN(Bundle bundle, read_bundle(node_.fs(), bundle_path));
  ContainerRecord rec;
  rec.info.id = id;
  rec.info.state = ContainerState::kCreated;
  rec.info.cgroup_path =
      cgroup_path.empty() ? bundle.spec.cgroups_path : cgroup_path;
  if (rec.info.cgroup_path.empty()) rec.info.cgroup_path = "ctr/" + id;
  rec.bundle = std::move(bundle);
  if (!shim_is_workload()) {
    enter_cgroup(rec);
    WASMCTR_RETURN_IF_ERROR(charge_kernel(rec));
  }
  containers_.emplace(id, std::move(rec));
  return Status::ok();
}

void OciRuntimeBase::enter_cgroup(const ContainerRecord& rec) {
  mem::Cgroup& cg = node_.cgroups().ensure(rec.info.cgroup_path);
  if (rec.bundle.spec.memory_limit != 0) {
    cg.set_limit(Bytes(rec.bundle.spec.memory_limit));
  }
  // Injected OOM: tighten memory.max below any workload's footprint so the
  // first charge trips check_headroom — the kill then travels the same
  // OOM path a real limit breach takes. Restarts recreate the cgroup and
  // consult the injector afresh, so the fault is transient.
  if (injected(sim::FaultKind::kOomKill, rec)) cg.set_limit(Bytes(64_KiB));
}

Status OciRuntimeBase::charge_kernel(ContainerRecord& rec) {
  // Kernel objects the runtime allocates (netns, veth, cgroup
  // structures): node-visible (free), outside any pod cgroup.
  const Bytes kernel = kInfra.kernel_per_pod + kernel_extra();
  WASMCTR_RETURN_IF_ERROR(node_.memory().charge_anon(kernel, nullptr));
  rec.kernel_charged = kernel;
  return Status::ok();
}

Status OciRuntimeBase::start(const std::string& id, OnRunning on_running) {
  auto it = containers_.find(id);
  if (it == containers_.end()) return not_found("container " + id);
  ContainerRecord& rec = it->second;
  if (rec.info.state != ContainerState::kCreated) {
    return failed_precondition("container " + id + " is " +
                               container_state_name(rec.info.state));
  }
  // The shim boots the engine itself: its exec is part of engine.load.
  if (shim_is_workload()) {
    launch_workload(rec, std::move(on_running));
    return Status::ok();
  }
  // The create+start exec path (clone, pivot_root, cgroup attach, exec).
  node_.obs().tracer.pod_phase(std::string(fault_target(rec)), "runtime.exec",
                               "oci");
  node_.burst(exec_cpu_s(), [this, id, on_running = std::move(on_running)] {
    auto lookup = containers_.find(id);
    if (lookup == containers_.end()) {
      if (on_running) on_running(not_found("container vanished: " + id));
      return;
    }
    launch_workload(lookup->second, on_running);
  });
  return Status::ok();
}

Status OciRuntimeBase::grow_memory(const std::string& id, Bytes delta) {
  auto it = containers_.find(id);
  if (it == containers_.end()) return not_found("container " + id);
  ContainerRecord& rec = it->second;
  if (rec.info.state != ContainerState::kRunning || rec.info.pid == 0) {
    return failed_precondition("container " + id + " is " +
                               container_state_name(rec.info.state));
  }
  sim::Process* proc = node_.procs().find(rec.info.pid);
  if (proc == nullptr) {
    return internal_error("container " + id + " has no process");
  }
  Status st = proc->add_anon(delta);
  if (st.is_ok()) return st;
  // memory.max breached: the kernel OOM-killer reaps the workload. The
  // container does not vanish — it flips to stopped/137 so the layer above
  // can observe the kill and restart per policy.
  if (rec.serve) {
    rec.serve->close(unavailable("container " + id + " OOM-killed"));
    rec.serve.reset();
  }
  (void)node_.procs().kill(rec.info.pid);
  rec.info.pid = 0;
  rec.info.state = ContainerState::kStopped;
  rec.info.exit_code = kOomKillExitCode;
  WASMCTR_LOG(kWarn, "oci") << "container " << id
                            << " OOM-killed: " << st.to_string();
  return st;
}

Status OciRuntimeBase::kill(const std::string& id) {
  auto it = containers_.find(id);
  if (it == containers_.end()) return not_found("container " + id);
  ContainerRecord& rec = it->second;
  if (rec.serve) {
    rec.serve->close(unavailable("container " + id + " killed"));
    rec.serve.reset();
  }
  if (rec.info.state == ContainerState::kRunning && rec.info.pid != 0) {
    WASMCTR_RETURN_IF_ERROR(node_.procs().kill(rec.info.pid));
    rec.info.pid = 0;
  }
  rec.info.state = ContainerState::kStopped;
  return Status::ok();
}

Status OciRuntimeBase::remove(const std::string& id) {
  auto it = containers_.find(id);
  if (it == containers_.end()) return not_found("container " + id);
  ContainerRecord& rec = it->second;
  if (rec.info.state == ContainerState::kRunning) {
    return failed_precondition("container " + id + " still running");
  }
  if (rec.serve) {
    rec.serve->close(unavailable("container " + id + " removed"));
    rec.serve.reset();
  }
  if (rec.info.pid != 0) {
    (void)node_.procs().kill(rec.info.pid);
  }
  node_.memory().uncharge_anon(rec.kernel_charged, nullptr);
  (void)node_.cgroups().remove(rec.info.cgroup_path);
  containers_.erase(it);
  return Status::ok();
}

void OciRuntimeBase::invoke(const std::string& id, int32_t arg,
                            engines::InvokeCallback done, obs::SpanId parent) {
  auto it = containers_.find(id);
  if (it == containers_.end()) {
    if (done) done(not_found("container " + id));
    return;
  }
  ContainerRecord& rec = it->second;
  if (rec.info.state != ContainerState::kRunning) {
    if (done) {
      done(unavailable("container " + id + " is " +
                       container_state_name(rec.info.state)));
    }
    return;
  }
  if (!rec.serve) {
    if (rec.bundle.payload.kind == Payload::Kind::kPython) {
      rec.serve = std::make_unique<engines::ServeSlot>(
          node_, rec.bundle.payload.script, rec.bundle.spec.args,
          rec.bundle.spec.env);
    } else if (engine_ != nullptr) {
      rec.serve = std::make_unique<engines::ServeSlot>(
          node_, *engine_, rec.bundle.payload.wasm,
          wasi_options_for(rec.bundle, rec.info.id));
    } else {
      if (done) {
        done(failed_precondition("container " + id +
                                 " has no serving runtime"));
      }
      return;
    }
  }
  rec.serve->invoke(arg, std::move(done), parent);
}

Result<ContainerInfo> OciRuntimeBase::state(const std::string& id) const {
  auto it = containers_.find(id);
  if (it == containers_.end()) return not_found("container " + id);
  return it->second.info;
}

void OciRuntimeBase::fail(ContainerRecord& rec, Status status,
                          const OnRunning& on_running) {
  rec.info.state = ContainerState::kStopped;
  rec.info.exit_code = status.code() == ErrorCode::kResourceExhausted
                           ? kOomKillExitCode
                           : kStartFailureExitCode;
  WASMCTR_LOG(kError, "oci") << "container " << rec.info.id
                             << " failed to start: " << status.to_string();
  if (on_running) on_running(std::move(status));
}

std::string_view OciRuntimeBase::fault_target(
    const ContainerRecord& rec) const {
  auto it = rec.bundle.spec.annotations.find(
      std::string(kSandboxNameAnnotation));
  if (it != rec.bundle.spec.annotations.end()) return it->second;
  return rec.info.id;
}

bool OciRuntimeBase::injected(sim::FaultKind kind,
                              const ContainerRecord& rec) {
  return node_.faults().enabled() &&
         node_.faults().should_fault(kind, fault_target(rec));
}

wasi::WasiOptions wasi_options_for(const Bundle& bundle,
                                   const std::string& id) {
  wasi::WasiOptions opts;
  // §III-C item 2 — WASI argument handling: OCI process config maps 1:1.
  opts.args = bundle.spec.args;
  opts.env = bundle.spec.env;
  const std::string rootfs = bundle.path + "/" + bundle.spec.root_path;
  for (const Mount& m : bundle.spec.mounts) {
    opts.preopens.emplace_back(m.destination, m.source);
  }
  // The container's own /data and /tmp are always preopened.
  opts.preopens.emplace_back("/data", rootfs + "/data");
  opts.preopens.emplace_back("/tmp", rootfs + "/tmp");
  opts.random_seed = 0x5eed ^ std::hash<std::string>{}(id);
  return opts;
}

Crun::Crun(sim::Node& node, std::optional<engines::EngineKind> wasm_backend)
    : OciRuntimeBase(
          node,
          wasm_backend ? engines::installed(engines::Integration::kCrun,
                                            *wasm_backend)
                       : nullptr,
          // Embedded WAMR runs as crun itself; crun execs the other
          // engines' CLIs as the container process.
          !wasm_backend ? ""
          : *wasm_backend == engines::EngineKind::kWamr
              ? "crun-wamr"
              : engines::engine_name(*wasm_backend)),
      wasm_backend_(wasm_backend) {}

void OciRuntimeBase::launch_workload(ContainerRecord& rec,
                                     OnRunning on_running) {
  if (rec.bundle.payload.kind == Payload::Kind::kPython) {
    if (shim_is_workload()) {
      fail(rec, unimplemented(name() + " has no python handler"), on_running);
      return;
    }
    launch_python(rec, std::move(on_running));
    return;
  }
  if (!rec.bundle.spec.wants_wasm_handler()) {
    fail(rec,
         invalid_argument("wasm payload without wasm handler annotation"),
         on_running);
    return;
  }
  if (engine_ == nullptr) {
    fail(rec, unimplemented(name() + " has no wasm handler"), on_running);
    return;
  }
  launch_wasm(rec, std::move(on_running));
}

void OciRuntimeBase::launch_wasm(ContainerRecord& rec, OnRunning on_running) {
  const engines::Engine& engine = *engine_;
  // The shim boots the engine itself: its exec is part of engine.load.
  const double extra_cpu_s = shim_is_workload() ? exec_cpu_s() : 0.0;
  // Only a baseline-tier engine has anything to compile; its cost is
  // measured from the real module (the singlepass compiler's op count ×
  // the engine's per-kop rate).
  std::optional<engines::CompileMeasurement> measured;
  if (engine.tier() == engines::Tier::kBaseline) {
    if (auto m = engine.measure_compile(rec.bundle.payload.wasm); m.is_ok()) {
      measured = *m;
    }
  }
  const engines::StartupCost cost = engine.startup_cost(
      rec.bundle.payload.size(), measured ? &*measured : nullptr);
  node_.obs().tracer.pod_phase(std::string(fault_target(rec)), "engine.load",
                               "engines");
  auto finish = [this, id = rec.info.id, on_running = std::move(on_running)] {
    auto it = containers_.find(id);
    if (it == containers_.end()) return;
    finish_wasm_launch(it->second, on_running);
  };
  if (!measured || !engine.profile().shared_compile_cache) {
    // Private compile (or none): one burst.
    node_.burst(extra_cpu_s + cost.init_cpu_s + cost.load_cpu_s +
                    cost.compile_cpu_s,
                std::move(finish));
    return;
  }
  // Shared compile cache: the first starter compiles, concurrent ones wait
  // for it, later ones load the artifact. Neither pays the decode/validate
  // load — the cached artifact replaces it.
  const std::string key = std::to_string(measured->content_hash);
  const double cache_load_cpu_s = engine.profile().cache_load_cpu_s;
  const auto continue_with = [this, extra_cpu_s, init = cost.init_cpu_s,
                              finish = std::move(finish)](
                                 double after_compile_cpu_s) {
    node_.burst(extra_cpu_s + init + after_compile_cpu_s, finish);
  };
  switch (compile_cache_.lookup(key, [continue_with, cache_load_cpu_s] {
    continue_with(cache_load_cpu_s);
  })) {
    case engines::CompileCache::Outcome::kHit:
      continue_with(cache_load_cpu_s);
      return;
    case engines::CompileCache::Outcome::kMiss:
      // This container compiles; publish when the burst completes.
      node_.burst(cost.compile_cpu_s, [this, key, continue_with] {
        compile_cache_.publish(key);
        continue_with(0.0);
      });
      return;
    case engines::CompileCache::Outcome::kWait:
      return;  // queued callback fires at publish()
  }
}

void OciRuntimeBase::finish_wasm_launch(ContainerRecord& rec,
                                        const OnRunning& on_running) {
  const engines::Engine& engine = *engine_;
  node_.obs().tracer.pod_phase(std::string(fault_target(rec)), "wasi.start",
                               "engines");
  // Injected shim crash: a runwasi shim dies while booting, before its
  // engine ever runs.
  if (shim_is_workload() && injected(sim::FaultKind::kShimCrash, rec)) {
    fail(rec,
         unavailable(process_ + " for " + std::string(fault_target(rec)) +
                     " crashed during boot (injected)"),
         on_running);
    return;
  }
  // Injected engine failure: libwamr.so, the engine CLI or the shim's
  // engine fails to initialize — e.g. a corrupt AOT artifact.
  if (injected(sim::FaultKind::kEngineInstantiate, rec)) {
    fail(rec,
         unavailable("engine " +
                     std::string(engines::engine_name(engine.kind())) +
                     " failed to instantiate (injected)"),
         on_running);
    return;
  }
  // Injected wasm trap: starve the sandbox's fuel budget so the module
  // genuinely traps ("all fuel consumed") inside the engine — the
  // trap travels the real error path, not a synthesized status.
  uint64_t fuel = engines::kDefaultStartupFuel;
  if (injected(sim::FaultKind::kWasmTrap, rec)) fuel = 64;
  // Run the module for real on the engine's tier (decode → validate →
  // instantiate → _start under WASI).
  auto report =
      engine.run_module(rec.bundle.payload.wasm,
                        wasi_options_for(rec.bundle, rec.info.id), node_.fs(),
                        fuel);
  if (!report) {
    fail(rec, report.status(), on_running);
    return;
  }

  // A runwasi shim process is spawned only now, into the pod cgroup.
  if (shim_is_workload()) enter_cgroup(rec);
  mem::Cgroup* cg = node_.cgroups().find(rec.info.cgroup_path);
  auto pid = node_.procs().spawn(process_ + ":" + rec.info.id, cg);
  if (!pid) {
    fail(rec, pid.status(), on_running);
    return;
  }
  sim::Process* proc = node_.procs().find(*pid);

  // §III-C item 1 — dynamic library loading: the engine library is mapped
  // only now (wasm container actually starting), shared across containers.
  const mem::FileId lib = node_.file_id(engine.library_name());
  Status st = proc->map_shared(lib, engine.profile().shared_lib);
  // Baseline tier: the compiled bytecode and its metadata live in two
  // contiguous regions backed by the node's artifact store — mapped
  // shared, so N pods running the same module keep one resident copy per
  // node. The page counts are measured from the real compile.
  if (st.is_ok() && report->tier == engines::Tier::kBaseline &&
      report->compile.code_pages > 0) {
    const std::string tag = engine.library_name() + ":" +
                            std::to_string(report->compile.content_hash);
    st = proc->map_shared(node_.file_id("wasmcode:" + tag),
                          Bytes(uint64_t{report->compile.code_pages} * 4096));
    if (st.is_ok()) {
      st = proc->map_shared(
          node_.file_id("wasmmeta:" + tag),
          Bytes(uint64_t{report->compile.meta_pages} * 4096));
    }
  }
  if (st.is_ok()) {
    st = proc->add_anon(kInfra.process_base + process_residual() +
                        engine.profile().private_fixed +
                        report->modeled_instance);
  }
  if (st.is_ok() && shim_is_workload()) st = charge_kernel(rec);
  if (!st.is_ok()) {
    (void)node_.procs().kill(*pid);
    fail(rec, std::move(st), on_running);
    return;
  }

  rec.info.pid = *pid;
  rec.info.state = ContainerState::kRunning;
  rec.info.exit_code = report->exit_code;
  rec.info.stdout_data = report->stdout_data;
  rec.info.instructions = report->instructions;
  if (on_running) on_running(Status::ok());
}

void OciRuntimeBase::launch_python(ContainerRecord& rec,
                                   OnRunning on_running) {
  const std::string id = rec.info.id;
  node_.obs().tracer.pod_phase(std::string(fault_target(rec)), "interp.boot",
                               "engines");
  const double boot = engines::kPythonProfile.init_cpu_s +
                      kInfra.python_boot_extra_cpu_s;
  node_.burst(boot, [this, id, on_running = std::move(on_running)] {
    auto it = containers_.find(id);
    if (it == containers_.end()) return;
    ContainerRecord& rec = it->second;

    // Injected interpreter failure: the CPython stand-in dies during boot
    // (bad site-packages, missing shared object) — the Python twin of the
    // engine-instantiate fault on the Wasm paths.
    if (injected(sim::FaultKind::kInterpreterStart, rec)) {
      fail(rec,
           unavailable("python interpreter for " +
                       std::string(fault_target(rec)) +
                       " failed to start (injected)"),
           on_running);
      return;
    }

    // Parse + execute the script for real with pylite.
    engines::PythonInstance py;
    Status run_status = engines::run_python(
        rec.bundle.payload.script, rec.bundle.spec.args, rec.bundle.spec.env,
        py);
    if (!run_status.is_ok()) {
      fail(rec, std::move(run_status), on_running);
      return;
    }

    mem::Cgroup* cg = node_.cgroups().find(rec.info.cgroup_path);
    auto pid = node_.procs().spawn("python:" + rec.info.id, cg);
    if (!pid) {
      fail(rec, pid.status(), on_running);
      return;
    }
    sim::Process* proc = node_.procs().find(*pid);
    const mem::FileId libpython = node_.file_id("libpython3.so");
    Status st =
        proc->map_shared(libpython, engines::kPythonProfile.shared_lib);
    if (st.is_ok()) {
      const Bytes script_heap = Bytes(static_cast<uint64_t>(
          static_cast<double>(py.interp->resident_bytes() +
                              py.program->resident_bytes()) *
          engines::kPythonProfile.instance_multiplier));
      st = proc->add_anon(kInfra.process_base + process_residual() +
                          engines::kPythonProfile.private_fixed + script_heap);
    }
    if (!st.is_ok()) {
      (void)node_.procs().kill(*pid);
      fail(rec, std::move(st), on_running);
      return;
    }
    // The workload's extra kernel/socket state (fds, pycache inodes).
    if (node_.memory().charge_anon(kInfra.python_extra, nullptr).is_ok()) {
      rec.kernel_charged += kInfra.python_extra;
    }
    rec.info.pid = *pid;
    rec.info.state = ContainerState::kRunning;
    rec.info.stdout_data = py.interp->stdout_data();
    rec.info.instructions = py.interp->steps_executed();
    if (on_running) on_running(Status::ok());
  });
}

}  // namespace wasmctr::oci
