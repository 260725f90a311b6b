#include "containerd/containerd.hpp"

#include <algorithm>

#include "support/log.hpp"

namespace wasmctr::containerd {

using engines::kInfra;

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
  const bool shim = config.path == HandlerPath::kRunwasi;
  std::string key = shim ? "containerd-shim" : config.oci_runtime;
  if (config.engine) key += std::string("+") + engines::engine_name(*config.engine);
  auto it = oci_runtimes_.find(key);
  if (it != oci_runtimes_.end()) return it->second.get();

  std::unique_ptr<oci::LowLevelRuntime> runtime;
  if (shim) {
    if (!config.engine) return nullptr;
    runtime = std::make_unique<oci::RunwasiShim>(node_, *config.engine);
  } else if (config.oci_runtime == "crun") {
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

double Containerd::daemon_serial_s(const HandlerConfig& config,
                                   const std::string& container_id) {
  if (config.path == HandlerPath::kRuncV2) {
    return kInfra.daemon_serial_runc_shim_s;
  }
  // Daemon event-loop cost grows with the number of live runwasi ttrpc
  // connections it already services — negligible at 10 pods, dominant at
  // 400 (the paper's Fig 8 → Fig 9 ranking flip).
  double base = kInfra.runwasi_serial_base_wasmtime_s;
  double per_conn = kInfra.runwasi_serial_per_conn_wasmtime_s;
  if (config.engine == engines::EngineKind::kWasmer) {
    base = kInfra.runwasi_serial_base_wasmer_s;
    per_conn = kInfra.runwasi_serial_per_conn_wasmer_s;
  } else if (config.engine == engines::EngineKind::kWasmEdge) {
    base = kInfra.runwasi_serial_base_wasmedge_s;
    per_conn = kInfra.runwasi_serial_per_conn_wasmedge_s;
  }
  const double serial =
      base + per_conn * static_cast<double>(runwasi_connections_.size());
  runwasi_connections_.insert(container_id);
  return serial;
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
  oci::LowLevelRuntime* runtime = runtime_for(hc->second);
  if (runtime == nullptr) return not_found("runtime for handler " + handler);
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

  containers_.emplace(container_id,
                      ContainerRecord{sandbox_id, request.image, runtime});
  sb->second.container_ids.push_back(container_id);

  // Covers the daemon's serialized shim registration plus the shim
  // process spawn. For runwasi the wait for the serialized ttrpc section
  // *is* the shim-spawn cost that grows with density (Fig 8 → Fig 9 flip).
  node_.obs().tracer.pod_phase(sb->second.pod_name, "shim.spawn",
                               "containerd");
  const bool runwasi = hc->second.path == HandlerPath::kRunwasi;
  node_.daemon_lock().acquire(
      sim_s(daemon_serial_s(hc->second, container_id)),
      [this, container_id, bundle_path, cgroup_path, runwasi,
       on_running = std::move(on_running)] {
        if (runwasi) {
          // The runwasi runtime boots its own shim, engine inside.
          if (containers_.contains(container_id)) {
            run_in_runtime(container_id, bundle_path, cgroup_path,
                           on_running);
          }
          return;
        }
        node_.burst(kInfra.shim_spawn_cpu_s, [this, container_id, bundle_path,
                                              cgroup_path, on_running] {
          if (!containers_.contains(container_id)) return;
          if (ensure_runc_shim(container_id, on_running)) {
            run_in_runtime(container_id, bundle_path, cgroup_path,
                           on_running);
          }
        });
      });
  return container_id;
}

bool Containerd::ensure_runc_shim(const std::string& container_id,
                                  const oci::OnRunning& on_running) {
  const std::string pod = pod_name_of(container_id);
  const std::string& sandbox_id = containers_.at(container_id).sandbox_id;
  // Injected shim crash: the shim dies during task setup. Any
  // already-spawned shim process is reaped and its record dropped so a
  // retry spawns a fresh one.
  if (node_.faults().enabled() &&
      node_.faults().should_fault(sim::FaultKind::kShimCrash, pod)) {
    if (auto shim = runc_shims_.find(sandbox_id); shim != runc_shims_.end()) {
      if (shim->second != 0) (void)node_.procs().kill(shim->second);
      runc_shims_.erase(shim);
    }
    if (on_running) {
      on_running(unavailable("containerd-shim-runc-v2 for " + pod +
                             " crashed during start (injected)"));
    }
    return false;
  }
  // One containerd-shim-runc-v2 process per pod, in the system cgroup:
  // visible to `free`, not to the metrics server.
  sim::Pid& shim = runc_shims_[sandbox_id];
  if (shim != 0) return true;
  auto pid = node_.procs().spawn("containerd-shim-runc-v2:" + sandbox_id,
                                 nullptr);
  if (!pid) {
    if (on_running) on_running(pid.status());
    return false;
  }
  shim = *pid;
  sim::Process* proc = node_.procs().find(*pid);
  Status st =
      proc->map_shared(node_.file_id("shim-runc-v2"), kInfra.runc_shim_shared);
  if (st.is_ok()) st = proc->add_anon(kInfra.runc_shim_private);
  if (!st.is_ok()) {
    if (on_running) on_running(std::move(st));
    return false;
  }
  return true;
}

void Containerd::run_in_runtime(const std::string& container_id,
                                const std::string& bundle_path,
                                const std::string& cgroup_path,
                                const oci::OnRunning& on_running) {
  oci::LowLevelRuntime* runtime = containers_.at(container_id).runtime;
  Status st = runtime->create(container_id, bundle_path, cgroup_path);
  if (st.is_ok()) st = runtime->start(container_id, on_running);
  if (!st.is_ok() && on_running) on_running(std::move(st));
}

Status Containerd::remove_container(const std::string& container_id) {
  auto rec_it = containers_.find(container_id);
  if (rec_it == containers_.end()) {
    return not_found("container " + container_id);
  }
  ContainerRecord& rec = rec_it->second;
  (void)rec.runtime->kill(container_id);
  (void)rec.runtime->remove(container_id);
  runwasi_connections_.erase(container_id);
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

  if (auto shim = runc_shims_.find(sandbox_id); shim != runc_shims_.end()) {
    if (shim->second != 0) (void)node_.procs().kill(shim->second);
    runc_shims_.erase(shim);
  }
  if (sb->second.pause_pid != 0) {
    (void)node_.procs().kill(sb->second.pause_pid);
  }
  (void)node_.cgroups().remove(sb->second.cgroup_path);
  sandboxes_.erase(sb);
  return Status::ok();
}

std::string Containerd::pod_name_of(const std::string& container_id) const {
  auto rec = containers_.find(container_id);
  if (rec == containers_.end()) return container_id;
  auto sb = sandboxes_.find(rec->second.sandbox_id);
  if (sb != sandboxes_.end()) return sb->second.pod_name;
  return container_id;
}

void Containerd::notify_exit(const std::string& container_id,
                             const Status& status) {
  if (!containers_.contains(container_id)) return;
  const std::string pod = pod_name_of(container_id);
  for (const ExitWatcher& w : exit_watchers_) {
    w(pod, container_id, status);
  }
}

Status Containerd::grow_container_memory(const std::string& container_id,
                                         Bytes delta) {
  auto it = containers_.find(container_id);
  if (it == containers_.end()) return not_found("container " + container_id);
  Status st = it->second.runtime->grow_memory(container_id, delta);
  if (st.code() == ErrorCode::kResourceExhausted) {
    notify_exit(container_id, st);
  }
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
  oci::LowLevelRuntime* runtime = it->second.runtime;

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

  runtime->invoke(container_id, arg, std::move(charging_done), parent);
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
  return it->second.runtime->state(container_id);
}

}  // namespace wasmctr::containerd
