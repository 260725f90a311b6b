#include "containerd/containerd.hpp"

#include <algorithm>

#include "support/log.hpp"

namespace wasmctr::containerd {

using engines::kInfra;

namespace {

/// One shim engine installation per kind per process — runwasi shims link
/// the engine statically, and every pod's shim maps the same binary.
const engines::Engine& shim_engine(engines::EngineKind kind) {
  static const engines::Engine wasmtime =
      engines::make_shim_engine(engines::EngineKind::kWasmtime);
  static const engines::Engine wasmer =
      engines::make_shim_engine(engines::EngineKind::kWasmer);
  static const engines::Engine wasmedge =
      engines::make_shim_engine(engines::EngineKind::kWasmEdge);
  return kind == engines::EngineKind::kWasmtime
             ? wasmtime
             : (kind == engines::EngineKind::kWasmer ? wasmer : wasmedge);
}

}  // namespace

Containerd::Containerd(sim::Node& node, ImageStore& images)
    : node_(node), images_(images) {}

void Containerd::register_handler(const std::string& name,
                                  HandlerConfig config) {
  handlers_.insert_or_assign(name, std::move(config));
}

std::vector<std::string> Containerd::handler_names() const {
  std::vector<std::string> names;
  names.reserve(handlers_.size());
  for (const auto& [name, _] : handlers_) names.push_back(name);
  return names;
}

oci::LowLevelRuntime* Containerd::runtime_for(const HandlerConfig& config) {
  std::string key = config.oci_runtime;
  if (config.engine) key += std::string("+") + engines::engine_name(*config.engine);
  auto it = oci_runtimes_.find(key);
  if (it != oci_runtimes_.end()) return it->second.get();

  std::unique_ptr<oci::LowLevelRuntime> runtime;
  if (config.oci_runtime == "crun") {
    runtime = std::make_unique<oci::Crun>(node_, config.engine);
  } else if (config.oci_runtime == "runc") {
    runtime = std::make_unique<oci::Runc>(node_);
  } else if (config.oci_runtime == "youki") {
    runtime = std::make_unique<oci::Youki>(node_);
  } else {
    return nullptr;
  }
  oci::LowLevelRuntime* ptr = runtime.get();
  oci_runtimes_.emplace(std::move(key), std::move(runtime));
  return ptr;
}

void Containerd::run_pod_sandbox(
    const std::string& pod_name,
    std::function<void(Result<std::string>)> done) {
  const std::string id = "sb-" + std::to_string(next_id_++);
  // Covers cgroup + netns/CNI setup and the pause-container start.
  node_.obs().tracer.pod_phase(pod_name, "sandbox.cni", "containerd");
  node_.burst(kInfra.sandbox_cpu_s, [this, id, pod_name,
                                     done = std::move(done)] {
    // Injected sandbox-creation failure (netns/CNI setup error): nothing
    // is allocated yet, so the kubelet can simply retry the pod.
    if (node_.faults().enabled() &&
        node_.faults().should_fault(sim::FaultKind::kSandboxCreate,
                                    pod_name)) {
      done(unavailable("RunPodSandbox " + pod_name +
                       ": CNI setup failed (injected)"));
      return;
    }
    SandboxInfo sb;
    sb.id = id;
    sb.pod_name = pod_name;
    sb.cgroup_path = "kubepods/pod-" + pod_name;
    mem::Cgroup& cg = node_.cgroups().ensure(sb.cgroup_path);

    auto pause = node_.procs().spawn("pause:" + pod_name, &cg);
    if (!pause) {
      done(pause.status());
      return;
    }
    sim::Process* proc = node_.procs().find(*pause);
    Status st =
        proc->map_shared(node_.file_id("pause"), kInfra.pause_shared);
    if (st.is_ok()) st = proc->add_anon(kInfra.pause_private);
    if (!st.is_ok()) {
      (void)node_.procs().kill(*pause);
      done(std::move(st));
      return;
    }
    sb.pause_pid = *pause;
    sandboxes_.emplace(id, std::move(sb));
    node_.obs().metrics.counter("wasmctr_sandboxes_created_total").inc();
    done(id);
  });
}

Result<std::string> Containerd::create_and_start(
    const std::string& sandbox_id, const ContainerRequest& request,
    const std::string& handler, oci::OnRunning on_running) {
  auto sb = sandboxes_.find(sandbox_id);
  if (sb == sandboxes_.end()) return not_found("sandbox " + sandbox_id);
  auto hc = handlers_.find(handler);
  if (hc == handlers_.end()) return not_found("runtime handler " + handler);
  // Image/bundle resolution is synchronous bookkeeping (≈0 virtual time);
  // the phase still marks the CRI hand-off in the trace.
  node_.obs().tracer.pod_phase(sb->second.pod_name, "cri.create",
                               "containerd");
  // Injected transient CRI error (dropped ttrpc connection, deadline
  // exceeded): fails before any resource is acquired, so a plain retry of
  // CreateContainer recovers.
  if (node_.faults().enabled() &&
      node_.faults().should_fault(sim::FaultKind::kCriTransient,
                                  sb->second.pod_name)) {
    return unavailable("CRI CreateContainer " + request.name +
                       ": transient RPC failure (injected)");
  }
  WASMCTR_ASSIGN_OR_RETURN(const Image* image, images_.get(request.image));
  WASMCTR_RETURN_IF_ERROR(images_.acquire_layers(request.image));

  const std::string container_id = "ctr-" + std::to_string(next_id_++);
  const std::string cgroup_path = sb->second.cgroup_path + "/" + container_id;
  const std::string bundle_path =
      "run/containerd/io.containerd.runtime.v2.task/k8s.io/" + container_id;

  // Build the OCI runtime spec the kubelet would assemble from the pod.
  oci::RuntimeSpec spec;
  spec.args.push_back(image->payload.entrypoint());
  spec.args.insert(spec.args.end(), request.args.begin(), request.args.end());
  spec.env = request.env;
  spec.memory_limit = request.memory_limit;
  spec.cgroups_path = cgroup_path;
  if (image->payload.kind == oci::Payload::Kind::kWasm) {
    spec.annotations.emplace(std::string(oci::kHandlerAnnotation), "wasm");
    spec.annotations.emplace(std::string(oci::kWasmVariantAnnotation),
                             "compat");
  }
  // The CRI plugin stamps the owning pod on every container; fault
  // budgets key off it so they survive container-id churn on restart.
  spec.annotations.emplace(std::string(oci::kSandboxNameAnnotation),
                           sb->second.pod_name);
  // Tenant rides along the same way, so per-tenant attribution survives
  // down to the OCI bundle.
  if (!request.tenant.empty()) {
    spec.annotations.emplace("io.kubernetes.cri.tenant", request.tenant);
  }
  WASMCTR_RETURN_IF_ERROR(
      oci::write_bundle(node_.fs(), bundle_path, spec, image->payload));

  ContainerRecord rec;
  rec.sandbox_id = sandbox_id;
  rec.handler = handler;
  rec.image = request.image;
  rec.path = hc->second.path;
  rec.info.id = container_id;
  rec.info.cgroup_path = cgroup_path;
  containers_.emplace(container_id, std::move(rec));
  sb->second.container_ids.push_back(container_id);

  if (hc->second.path == HandlerPath::kRuncV2) {
    start_via_runc_shim(container_id, bundle_path, cgroup_path, hc->second,
                        std::move(on_running));
  } else {
    start_via_runwasi(container_id, cgroup_path, hc->second,
                      std::move(on_running));
  }
  return container_id;
}

void Containerd::start_via_runc_shim(const std::string& container_id,
                                     const std::string& bundle_path,
                                     const std::string& cgroup_path,
                                     const HandlerConfig& config,
                                     oci::OnRunning on_running) {
  oci::LowLevelRuntime* runtime = runtime_for(config);
  if (runtime == nullptr) {
    if (on_running) {
      on_running(not_found("oci runtime " + config.oci_runtime));
    }
    return;
  }
  if (auto rec = containers_.find(container_id); rec != containers_.end()) {
    // Covers the daemon's serialized shim registration plus the
    // containerd-shim-runc-v2 process spawn.
    node_.obs().tracer.pod_phase(pod_name_of(rec->second), "shim.spawn",
                                 "containerd");
  }
  // Registering the shim with the daemon is a short, serialized section.
  node_.daemon_lock().acquire(
      sim_s(kInfra.daemon_serial_runc_shim_s),
      [this, container_id, bundle_path, cgroup_path, runtime,
       on_running = std::move(on_running)] {
        node_.burst(kInfra.shim_spawn_cpu_s, [this, container_id, bundle_path,
                                              cgroup_path, runtime,
                                              on_running] {
          auto rec = containers_.find(container_id);
          if (rec == containers_.end()) return;
          // Injected shim crash: the shim dies during task setup. Any
          // already-spawned shim process is reaped and its record dropped
          // so a retry spawns a fresh one.
          if (node_.faults().enabled() &&
              node_.faults().should_fault(sim::FaultKind::kShimCrash,
                                          pod_name_of(rec->second))) {
            if (auto shim_it = shims_.find(rec->second.sandbox_id);
                shim_it != shims_.end()) {
              if (shim_it->second.pid != 0) {
                (void)node_.procs().kill(shim_it->second.pid);
              }
              shims_.erase(shim_it);
            }
            if (on_running) {
              on_running(unavailable("containerd-shim-runc-v2 for " +
                                     pod_name_of(rec->second) +
                                     " crashed during start (injected)"));
            }
            return;
          }
          // One containerd-shim-runc-v2 process per pod, in the system
          // cgroup: visible to `free`, not to the metrics server.
          auto& shim = shims_[rec->second.sandbox_id];
          if (shim.pid == 0) {
            auto pid = node_.procs().spawn(
                "containerd-shim-runc-v2:" + rec->second.sandbox_id, nullptr);
            if (!pid) {
              if (on_running) on_running(pid.status());
              return;
            }
            shim.pid = *pid;
            shim.path = HandlerPath::kRuncV2;
            sim::Process* proc = node_.procs().find(*pid);
            Status st = proc->map_shared(node_.file_id("shim-runc-v2"),
                                         kInfra.runc_shim_shared);
            if (st.is_ok()) st = proc->add_anon(kInfra.runc_shim_private);
            if (!st.is_ok()) {
              if (on_running) on_running(std::move(st));
              return;
            }
          }
          Status st = runtime->create(container_id, bundle_path, cgroup_path);
          if (st.is_ok()) {
            st = runtime->start(container_id, [this, container_id, runtime,
                                               on_running](Status run_st) {
              // Mirror the low-level state into the CRI view.
              auto rec = containers_.find(container_id);
              if (rec != containers_.end() && run_st.is_ok()) {
                if (auto info = runtime->state(container_id)) {
                  rec->second.info = *info;
                }
              }
              if (on_running) on_running(std::move(run_st));
            });
          }
          if (!st.is_ok() && on_running) on_running(std::move(st));
        });
      });
}

void Containerd::start_via_runwasi(const std::string& container_id,
                                   const std::string& cgroup_path,
                                   const HandlerConfig& config,
                                   oci::OnRunning on_running) {
  if (!config.engine) {
    if (on_running) {
      on_running(invalid_argument("runwasi handler without engine"));
    }
    return;
  }
  const engines::EngineKind kind = *config.engine;
  // Daemon event-loop cost grows with the number of live runwasi ttrpc
  // connections it already services — negligible at 10 pods, dominant at
  // 400 (the paper's Fig 8 → Fig 9 ranking flip).
  double base = kInfra.runwasi_serial_base_wasmtime_s;
  double per_conn = kInfra.runwasi_serial_per_conn_wasmtime_s;
  if (kind == engines::EngineKind::kWasmer) {
    base = kInfra.runwasi_serial_base_wasmer_s;
    per_conn = kInfra.runwasi_serial_per_conn_wasmer_s;
  } else if (kind == engines::EngineKind::kWasmEdge) {
    base = kInfra.runwasi_serial_base_wasmedge_s;
    per_conn = kInfra.runwasi_serial_per_conn_wasmedge_s;
  }
  const double serial =
      base + per_conn * static_cast<double>(runwasi_connections_++);

  if (auto rec = containers_.find(container_id); rec != containers_.end()) {
    // The wait for the daemon's serialized ttrpc section *is* the runwasi
    // shim-spawn cost that grows with density (Fig 8 → Fig 9 flip).
    node_.obs().tracer.pod_phase(pod_name_of(rec->second), "shim.spawn",
                                 "containerd");
  }
  node_.daemon_lock().acquire(sim_s(serial), [this, container_id, cgroup_path,
                                              kind, on_running =
                                                        std::move(on_running)] {
    auto rec_it = containers_.find(container_id);
    if (rec_it == containers_.end()) return;
    // Shim boot + engine create/init/load run as one fused burst; the
    // phase covers it all (the engine dominates, per EngineProfile).
    node_.obs().tracer.pod_phase(pod_name_of(rec_it->second), "engine.load",
                                 "engines");
    const engines::Engine& engine = shim_engine(kind);

    // The shim process boots, then loads/compiles the module in-process.
    auto image = images_.get(rec_it->second.image);
    if (!image) {
      if (on_running) on_running(image.status());
      return;
    }
    // Runwasi shims have no cross-pod artifact cache: each pod's shim
    // compiles the module privately, priced by the measured op count.
    engines::CompileMeasurement measured;
    const engines::CompileMeasurement* meas_ptr = nullptr;
    if (engine.tier() == engines::Tier::kBaseline &&
        (*image)->payload.kind == oci::Payload::Kind::kWasm) {
      if (auto m = engine.measure_compile((*image)->payload.wasm);
          m.is_ok()) {
        measured = *m;
        meas_ptr = &measured;
      }
    }
    const engines::StartupCost cost =
        engine.startup_cost((*image)->payload.size(), false, meas_ptr);
    node_.burst(
        kInfra.shim_spawn_cpu_s + kInfra.runwasi_create_cpu_s +
            cost.init_cpu_s + cost.load_cpu_s + cost.compile_cpu_s,
        [this, container_id, cgroup_path, &engine, on_running] {
          auto rec_it = containers_.find(container_id);
          if (rec_it == containers_.end()) return;
          ContainerRecord& rec = rec_it->second;
          const std::string pod = pod_name_of(rec);
          node_.obs().tracer.pod_phase(pod, "wasi.start", "engines");

          // Injected shim crash: the runwasi shim process dies while
          // booting, before the engine ever runs.
          if (node_.faults().enabled() &&
              node_.faults().should_fault(sim::FaultKind::kShimCrash, pod)) {
            rec.info.state = oci::ContainerState::kStopped;
            rec.info.exit_code = oci::kStartFailureExitCode;
            if (on_running) {
              on_running(unavailable(engine.library_name() + " for " + pod +
                                     " crashed during boot (injected)"));
            }
            return;
          }
          // Injected engine-instantiation failure inside the shim.
          if (node_.faults().enabled() &&
              node_.faults().should_fault(sim::FaultKind::kEngineInstantiate,
                                          pod)) {
            rec.info.state = oci::ContainerState::kStopped;
            rec.info.exit_code = oci::kStartFailureExitCode;
            if (on_running) {
              on_running(unavailable(
                  "engine " +
                  std::string(engines::engine_name(engine.kind())) +
                  " failed to instantiate (injected)"));
            }
            return;
          }

          const std::string bundle_path =
              "run/containerd/io.containerd.runtime.v2.task/k8s.io/" +
              container_id;
          auto bundle = oci::read_bundle(node_.fs(), bundle_path);
          if (!bundle) {
            if (on_running) on_running(bundle.status());
            return;
          }
          rec.bundle = std::move(*bundle);

          // Injected wasm trap: a starved fuel budget makes the module
          // genuinely trap inside the engine.
          uint64_t fuel = engines::kDefaultStartupFuel;
          if (node_.faults().enabled() &&
              node_.faults().should_fault(sim::FaultKind::kWasmTrap, pod)) {
            fuel = 64;
          }
          auto report = engine.run_module(
              rec.bundle.payload.wasm,
              oci::wasi_options_for(rec.bundle, rec.info.id), node_.fs(),
              fuel);
          if (!report) {
            rec.info.state = oci::ContainerState::kStopped;
            rec.info.exit_code = oci::kStartFailureExitCode;
            if (on_running) on_running(report.status());
            return;
          }

          // The runwasi shim *is* the workload process and lives in the
          // pod cgroup — its whole footprint is visible to the metrics
          // server (why Fig 6's metrics-server gap to shims exceeds the
          // free-command gap in Fig 5).
          mem::Cgroup& cg = node_.cgroups().ensure(cgroup_path);
          if (rec.bundle.spec.memory_limit != 0) {
            cg.set_limit(Bytes(rec.bundle.spec.memory_limit));
          }
          // Injected OOM: tighten memory.max so the shim's first charge
          // trips check_headroom and the kill takes the real OOM path.
          if (node_.faults().enabled() &&
              node_.faults().should_fault(sim::FaultKind::kOomKill, pod)) {
            cg.set_limit(Bytes(64_KiB));
          }
          auto pid =
              node_.procs().spawn(engine.library_name() + ":" + container_id,
                                  &cg);
          if (!pid) {
            if (on_running) on_running(pid.status());
            return;
          }
          sim::Process* proc = node_.procs().find(*pid);
          Status st = proc->map_shared(node_.file_id(engine.library_name()),
                                       engine.profile().shared_lib);
          // Baseline-tier code space: the compiled bytecode + metadata
          // regions are file-backed and shared across pods of the same
          // module (measured page counts from the real compile).
          if (st.is_ok() && report->tier == engines::Tier::kBaseline &&
              report->compile.code_pages > 0) {
            const std::string tag =
                engine.library_name() + ":" +
                std::to_string(report->compile.content_hash);
            st = proc->map_shared(
                node_.file_id("wasmcode:" + tag),
                Bytes(uint64_t{report->compile.code_pages} * 4096));
            if (st.is_ok()) {
              st = proc->map_shared(
                  node_.file_id("wasmmeta:" + tag),
                  Bytes(uint64_t{report->compile.meta_pages} * 4096));
            }
          }
          if (st.is_ok()) {
            st = proc->add_anon(kInfra.process_base +
                                engine.profile().private_fixed +
                                report->modeled_instance);
          }
          if (st.is_ok()) {
            // ttrpc/event plumbing plus the same per-pod kernel objects
            // (netns, veth, cgroup structs) an OCI runtime would create.
            const Bytes node_extra =
                kInfra.runwasi_node_extra + kInfra.kernel_per_pod;
            st = node_.memory().charge_anon(node_extra, nullptr);
            if (st.is_ok()) rec.node_extra = node_extra;
          }
          if (!st.is_ok()) {
            (void)node_.procs().kill(*pid);
            rec.info.state = oci::ContainerState::kStopped;
            rec.info.exit_code = st.code() == ErrorCode::kResourceExhausted
                                     ? oci::kOomKillExitCode
                                     : oci::kStartFailureExitCode;
            if (on_running) on_running(std::move(st));
            return;
          }
          rec.shim_pid = *pid;
          rec.info.state = oci::ContainerState::kRunning;
          rec.info.pid = *pid;
          rec.info.exit_code = report->exit_code;
          rec.info.stdout_data = report->stdout_data;
          rec.info.instructions = report->instructions;
          if (on_running) on_running(Status::ok());
        });
  });
}

Status Containerd::remove_container(const std::string& container_id) {
  auto rec_it = containers_.find(container_id);
  if (rec_it == containers_.end()) {
    return not_found("container " + container_id);
  }
  ContainerRecord& rec = rec_it->second;
  if (rec.serve) {
    rec.serve->close(unavailable("container " + container_id + " removed"));
    rec.serve.reset();
  }
  if (rec.path == HandlerPath::kRuncV2) {
    auto hc = handlers_.find(rec.handler);
    if (hc != handlers_.end()) {
      if (oci::LowLevelRuntime* runtime = runtime_for(hc->second)) {
        (void)runtime->kill(container_id);
        (void)runtime->remove(container_id);
      }
    }
  } else {
    if (rec.shim_pid != 0) {
      (void)node_.procs().kill(rec.shim_pid);
    }
    if (rec.node_extra.value != 0) {
      node_.memory().uncharge_anon(rec.node_extra, nullptr);
    }
    (void)node_.cgroups().remove(rec.info.cgroup_path);
  }
  images_.release_layers(rec.image);
  if (auto sb = sandboxes_.find(rec.sandbox_id); sb != sandboxes_.end()) {
    auto& ids = sb->second.container_ids;
    ids.erase(std::remove(ids.begin(), ids.end(), container_id), ids.end());
  }
  containers_.erase(rec_it);
  return Status::ok();
}

Status Containerd::remove_pod_sandbox(const std::string& sandbox_id) {
  auto sb = sandboxes_.find(sandbox_id);
  if (sb == sandboxes_.end()) return not_found("sandbox " + sandbox_id);

  // remove_container unlinks each id from the sandbox; iterate a copy.
  const std::vector<std::string> cids = sb->second.container_ids;
  for (const std::string& cid : cids) {
    (void)remove_container(cid);
  }

  if (auto shim = shims_.find(sandbox_id); shim != shims_.end()) {
    if (shim->second.pid != 0) (void)node_.procs().kill(shim->second.pid);
    shims_.erase(shim);
  }
  if (sb->second.pause_pid != 0) {
    (void)node_.procs().kill(sb->second.pause_pid);
  }
  (void)node_.cgroups().remove(sb->second.cgroup_path);
  sandboxes_.erase(sb);
  return Status::ok();
}

std::string Containerd::pod_name_of(const ContainerRecord& rec) const {
  auto sb = sandboxes_.find(rec.sandbox_id);
  if (sb != sandboxes_.end()) return sb->second.pod_name;
  return rec.info.id;
}

void Containerd::notify_exit(const std::string& container_id,
                             const Status& status) {
  auto it = containers_.find(container_id);
  if (it == containers_.end()) return;
  const std::string pod = pod_name_of(it->second);
  for (const ExitWatcher& w : exit_watchers_) {
    w(pod, container_id, status);
  }
}

Status Containerd::grow_container_memory(const std::string& container_id,
                                         Bytes delta) {
  auto it = containers_.find(container_id);
  if (it == containers_.end()) return not_found("container " + container_id);
  ContainerRecord& rec = it->second;

  if (rec.path == HandlerPath::kRuncV2) {
    auto hc = handlers_.find(rec.handler);
    if (hc == handlers_.end()) return not_found("handler " + rec.handler);
    oci::LowLevelRuntime* runtime = runtime_for(hc->second);
    if (runtime == nullptr) {
      return not_found("oci runtime " + hc->second.oci_runtime);
    }
    Status st = runtime->grow_memory(container_id, delta);
    if (auto info = runtime->state(container_id)) rec.info = *info;
    if (st.code() == ErrorCode::kResourceExhausted) {
      notify_exit(container_id, st);
    }
    return st;
  }

  // Runwasi: the shim is the workload process; charge it directly.
  if (rec.info.state != oci::ContainerState::kRunning || rec.shim_pid == 0) {
    return failed_precondition("container " + container_id + " is " +
                               oci::container_state_name(rec.info.state));
  }
  sim::Process* proc = node_.procs().find(rec.shim_pid);
  if (proc == nullptr) {
    return internal_error("container " + container_id + " has no shim");
  }
  Status st = proc->add_anon(delta);
  if (st.is_ok()) return st;
  if (rec.serve) {
    rec.serve->close(unavailable("container " + container_id +
                                 " OOM-killed"));
    rec.serve.reset();
  }
  (void)node_.procs().kill(rec.shim_pid);
  rec.shim_pid = 0;
  rec.info.pid = 0;
  rec.info.state = oci::ContainerState::kStopped;
  rec.info.exit_code = oci::kOomKillExitCode;
  WASMCTR_LOG(kWarn, "containerd")
      << "container " << container_id << " OOM-killed: " << st.to_string();
  notify_exit(container_id, st);
  return st;
}

void Containerd::invoke_container(const std::string& container_id,
                                  int32_t arg, engines::InvokeCallback done,
                                  obs::SpanId parent) {
  auto it = containers_.find(container_id);
  if (it == containers_.end()) {
    if (done) done(not_found("container " + container_id));
    return;
  }
  ContainerRecord& rec = it->second;

  // Cold requests grow the pod's memory by the new instance's resident
  // bytes, and warm requests by any linear-memory growth the handler did
  // (memory.grow — the thrasher aggressor's whole point), through the
  // real charging path: a tight limit OOM-kills the container
  // mid-serving and the exit watchers drive restart policy.
  auto charging_done = [this, container_id, done = std::move(done)](
                           Result<engines::InvokeReport> r) mutable {
    if (r) {
      const Bytes charge{(r->cold ? r->resident.value : 0) + r->grown.value};
      if (charge.value > 0) {
        Status st = grow_container_memory(container_id, charge);
        if (st.code() == ErrorCode::kResourceExhausted) {
          if (done) {
            done(unavailable("container " + container_id +
                             " OOM-killed while serving"));
          }
          return;
        }
      }
    }
    if (done) done(std::move(r));
  };

  if (rec.path == HandlerPath::kRuncV2) {
    auto hc = handlers_.find(rec.handler);
    oci::LowLevelRuntime* runtime =
        hc == handlers_.end() ? nullptr : runtime_for(hc->second);
    if (runtime == nullptr) {
      charging_done(not_found("oci runtime for " + container_id));
      return;
    }
    runtime->invoke(container_id, arg, std::move(charging_done), parent);
    return;
  }

  // Runwasi: the engine lives in the shim process.
  if (rec.info.state != oci::ContainerState::kRunning) {
    charging_done(unavailable("container " + container_id + " is " +
                              oci::container_state_name(rec.info.state)));
    return;
  }
  if (!rec.serve) {
    auto hc = handlers_.find(rec.handler);
    if (hc == handlers_.end() || !hc->second.engine) {
      charging_done(failed_precondition("container " + container_id +
                                        " has no serving engine"));
      return;
    }
    rec.serve = std::make_unique<engines::ServeSlot>(
        node_, shim_engine(*hc->second.engine), rec.bundle.payload.wasm,
        oci::wasi_options_for(rec.bundle, rec.info.id));
  }
  rec.serve->invoke(arg, std::move(charging_done), parent);
}

Result<const SandboxInfo*> Containerd::sandbox(const std::string& id) const {
  auto it = sandboxes_.find(id);
  if (it == sandboxes_.end()) return not_found("sandbox " + id);
  return &it->second;
}

Result<oci::ContainerInfo> Containerd::container_state(
    const std::string& container_id) const {
  auto it = containers_.find(container_id);
  if (it == containers_.end()) return not_found("container " + container_id);
  if (it->second.path == HandlerPath::kRuncV2) {
    auto hc = handlers_.find(it->second.handler);
    if (hc != handlers_.end()) {
      auto* self = const_cast<Containerd*>(this);
      if (oci::LowLevelRuntime* runtime = self->runtime_for(hc->second)) {
        return runtime->state(container_id);
      }
    }
  }
  return it->second.info;
}

}  // namespace wasmctr::containerd
