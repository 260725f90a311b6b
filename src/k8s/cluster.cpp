#include "k8s/cluster.hpp"

#include <algorithm>

#include "pylite/scripts.hpp"
#include "wasm/workloads.hpp"

namespace wasmctr::k8s {

const char* deploy_config_name(DeployConfig c) {
  switch (c) {
    case DeployConfig::kCrunWamr: return "crun-wamr";
    case DeployConfig::kCrunWasmtime: return "crun-wasmtime";
    case DeployConfig::kCrunWasmer: return "crun-wasmer";
    case DeployConfig::kCrunWasmEdge: return "crun-wasmedge";
    case DeployConfig::kShimWasmtime: return "containerd-shim-wasmtime";
    case DeployConfig::kShimWasmer: return "containerd-shim-wasmer";
    case DeployConfig::kShimWasmEdge: return "containerd-shim-wasmedge";
    case DeployConfig::kCrunPython: return "crun-python";
    case DeployConfig::kRuncPython: return "runc-python";
  }
  return "?";
}

const char* deploy_config_label(DeployConfig c) {
  // Figure labels: ours is highlighted, Python baselines marked non-Wasm.
  switch (c) {
    case DeployConfig::kCrunWamr: return "crun-wamr (ours)";
    case DeployConfig::kCrunPython: return "crun-python (non-wasm)";
    case DeployConfig::kRuncPython: return "runc-python (non-wasm)";
    default: return deploy_config_name(c);
  }
}

bool deploy_config_is_wasm(DeployConfig c) {
  return c != DeployConfig::kCrunPython && c != DeployConfig::kRuncPython;
}

namespace {

struct ConfigRoute {
  const char* runtime_class;
  const char* image;
};

ConfigRoute route_for(DeployConfig c) {
  switch (c) {
    case DeployConfig::kCrunWamr: return {"crun-wamr", "microservice:wasm"};
    case DeployConfig::kCrunWasmtime:
      return {"crun-wasmtime", "microservice:wasm"};
    case DeployConfig::kCrunWasmer:
      return {"crun-wasmer", "microservice:wasm"};
    case DeployConfig::kCrunWasmEdge:
      return {"crun-wasmedge", "microservice:wasm"};
    case DeployConfig::kShimWasmtime:
      return {"wasmtime-shim", "microservice:wasm"};
    case DeployConfig::kShimWasmer: return {"wasmer-shim", "microservice:wasm"};
    case DeployConfig::kShimWasmEdge:
      return {"wasmedge-shim", "microservice:wasm"};
    case DeployConfig::kCrunPython: return {"crun", "microservice:python"};
    case DeployConfig::kRuncPython: return {"runc", "microservice:python"};
  }
  return {"runc", "microservice:python"};
}

}  // namespace

std::vector<Cluster::Worker> Cluster::build_workers(
    const ClusterOptions& options) {
  std::vector<Worker> workers;
  const uint32_t count = std::max<uint32_t>(options.workers, 1);
  workers.reserve(count);
  for (uint32_t i = 0; i < count; ++i) {
    Worker w;
    w.name = "node-" + std::to_string(i);
    sim::NodeConfig cfg = options.node;
    // Worker 0 keeps the configured seed bit-for-bit (single-node runs
    // reproduce the pre-multi-node cluster); the rest derive distinct
    // jitter streams from it.
    cfg.seed = options.node.seed + i;
    w.node = std::make_unique<sim::Node>(cfg, &kernel_, &faults_, &obs_);
    w.images = std::make_unique<containerd::ImageStore>(*w.node);
    w.cri = std::make_unique<containerd::Containerd>(*w.node, *w.images);
    w.kubelet = std::make_unique<Kubelet>(
        KubeletConfig{w.name, options.max_pods, "runc",
                      options.backoff_base, options.backoff_cap,
                      options.backoff_reset_after,
                      options.eviction_min_available,
                      /*heartbeat_interval=*/sim_s(10.0),
                      /*partition_window=*/sim_s(30.0),
                      options.node_restart_delay},
        *w.node, api_, *w.cri);
    workers.push_back(std::move(w));
  }
  return workers;
}

Cluster::Cluster(ClusterOptions options)
    : kernel_(),
      faults_(kernel_, options.node.seed),
      obs_(kernel_),
      api_(),
      scheduler_(kernel_, api_, &obs_),
      gate_(kernel_, api_, &obs_),
      workers_(build_workers(options)),
      restart_policy_(options.restart_policy),
      metrics_(api_, *workers_.front().node),
      free_probe_(*workers_.front().node),
      lifecycle_(kernel_, api_, &obs_, options.lifecycle),
      lifecycle_enabled_(options.workers > 1 || options.node_lifecycle),
      deployments_(kernel_, api_),
      endpoints_(kernel_, api_) {
  for (const Worker& w : workers_) {
    scheduler_.add_node(w.name, options.max_pods);
    w.kubelet->set_disruption_gate(&gate_);
  }
  lifecycle_.set_disruption_gate(&gate_);
  register_handlers_and_classes();
  register_images();
  free_probe_.reset_baseline();
  // The heartbeat/monitor loops self-reschedule forever, so they only
  // start when lifecycle is on: the single-node default keeps the exact
  // seed event stream and run()-to-quiescence semantics.
  if (lifecycle_enabled_) {
    for (const Worker& w : workers_) w.kubelet->start_heartbeats();
    lifecycle_.start();
  }
}

containerd::Containerd* Cluster::cri_for(const std::string& node_name) {
  for (Worker& w : workers_) {
    if (w.name == node_name) return w.cri.get();
  }
  return nullptr;
}

void Cluster::register_handlers_and_classes() {
  using containerd::HandlerConfig;
  using containerd::HandlerPath;
  using engines::EngineKind;

  const auto add = [&](const char* name, HandlerConfig config) {
    for (Worker& w : workers_) w.cri->register_handler(name, config);
    (void)api_.create_runtime_class({name, name});
  };
  add("runc", {HandlerPath::kRuncV2, "runc", std::nullopt});
  add("crun", {HandlerPath::kRuncV2, "crun", std::nullopt});
  add("youki", {HandlerPath::kRuncV2, "youki", std::nullopt});
  add("crun-wamr", {HandlerPath::kRuncV2, "crun", EngineKind::kWamr});
  add("crun-wasmtime", {HandlerPath::kRuncV2, "crun", EngineKind::kWasmtime});
  add("crun-wasmer", {HandlerPath::kRuncV2, "crun", EngineKind::kWasmer});
  add("crun-wasmedge", {HandlerPath::kRuncV2, "crun", EngineKind::kWasmEdge});
  add("wasmtime-shim", {HandlerPath::kRunwasi, "", EngineKind::kWasmtime});
  add("wasmer-shim", {HandlerPath::kRunwasi, "", EngineKind::kWasmer});
  add("wasmedge-shim", {HandlerPath::kRunwasi, "", EngineKind::kWasmEdge});
}

void Cluster::register_images() {
  // Each worker's containerd pulls from its own store (per-node image
  // cache); build every image once and copy it to all stores.
  const auto add_all = [&](containerd::Image image) {
    for (std::size_t i = 0; i + 1 < workers_.size(); ++i) {
      containerd::Image copy = image;
      workers_[i].images->add(std::move(copy));
    }
    workers_.back().images->add(std::move(image));
  };

  // The paper's minimal C microservice, compiled to Wasm (§IV-A)...
  containerd::Image wasm_image;
  wasm_image.name = "microservice:wasm";
  wasm_image.payload.kind = oci::Payload::Kind::kWasm;
  wasm_image.payload.wasm = wasm::build_minimal_microservice();
  wasm_image.disk_size = Bytes(wasm_image.payload.wasm.size() + 4096);
  add_all(std::move(wasm_image));

  // ... and its Python twin for the non-Wasm baseline (§IV-D). The image
  // holds the script; CPython itself is modeled via the shared libpython
  // mapping plus interpreter private memory (engines::kPythonProfile).
  containerd::Image py_image;
  py_image.name = "microservice:python";
  py_image.payload.kind = oci::Payload::Kind::kPython;
  py_image.payload.script = pylite::minimal_microservice_script();
  py_image.disk_size = Bytes(py_image.payload.script.size() + 16384);
  add_all(std::move(py_image));

  // Extra workloads used by examples and ablation benches.
  containerd::Image kernel_image;
  kernel_image.name = "compute-kernel:wasm";
  kernel_image.payload.kind = oci::Payload::Kind::kWasm;
  kernel_image.payload.wasm = wasm::build_minimal_microservice();
  kernel_image.disk_size = Bytes(kernel_image.payload.wasm.size() + 4096);
  add_all(std::move(kernel_image));

  containerd::Image logger_image;
  logger_image.name = "file-logger:wasm";
  logger_image.payload.kind = oci::Payload::Kind::kWasm;
  logger_image.payload.wasm = wasm::build_file_logger();
  logger_image.disk_size = Bytes(logger_image.payload.wasm.size() + 4096);
  add_all(std::move(logger_image));

  containerd::Image py_kernel;
  py_kernel.name = "compute-kernel:python";
  py_kernel.payload.kind = oci::Payload::Kind::kPython;
  py_kernel.payload.script = pylite::compute_kernel_script();
  py_kernel.disk_size = Bytes(py_kernel.payload.script.size() + 16384);
  add_all(std::move(py_kernel));

  // Serving workloads: a long-lived instance exporting a request handler
  // (the traffic driver's targets, DESIGN.md §8). Separate images so the
  // calibrated microservice:* bytes stay untouched.
  containerd::Image serve_wasm;
  serve_wasm.name = "request-service:wasm";
  serve_wasm.payload.kind = oci::Payload::Kind::kWasm;
  serve_wasm.payload.wasm = wasm::build_request_microservice();
  serve_wasm.disk_size = Bytes(serve_wasm.payload.wasm.size() + 4096);
  add_all(std::move(serve_wasm));

  // Noisy-neighbor aggressors for the isolation bench: a linear-memory
  // thrasher and a fuel burner, both driven through the serving path.
  containerd::Image thrasher;
  thrasher.name = "mem-thrasher:wasm";
  thrasher.payload.kind = oci::Payload::Kind::kWasm;
  thrasher.payload.wasm = wasm::build_memory_thrasher();
  thrasher.disk_size = Bytes(thrasher.payload.wasm.size() + 4096);
  add_all(std::move(thrasher));

  containerd::Image burner;
  burner.name = "fuel-burner:wasm";
  burner.payload.kind = oci::Payload::Kind::kWasm;
  burner.payload.wasm = wasm::build_fuel_burner();
  burner.disk_size = Bytes(burner.payload.wasm.size() + 4096);
  add_all(std::move(burner));

  containerd::Image serve_py;
  serve_py.name = "request-service:python";
  serve_py.payload.kind = oci::Payload::Kind::kPython;
  serve_py.payload.script = pylite::request_handler_script();
  serve_py.disk_size = Bytes(serve_py.payload.script.size() + 16384);
  add_all(std::move(serve_py));
}

Status Cluster::deploy(DeployConfig config, uint32_t count,
                       const std::string& name_prefix) {
  const ConfigRoute route = route_for(config);
  for (uint32_t i = 0; i < count; ++i) {
    PodSpec spec;
    spec.name = name_prefix + "-" + deploy_config_name(config) + "-" +
                std::to_string(i);
    spec.image = route.image;
    spec.runtime_class = route.runtime_class;
    spec.env = {{"SERVICE_NAME", spec.name}, {"PORT", "8080"}};
    spec.restart_policy = restart_policy_;
    WASMCTR_RETURN_IF_ERROR(api_.create_pod(std::move(spec)));
  }
  return Status::ok();
}

Status Cluster::deploy_pod(PodSpec spec) {
  return api_.create_pod(std::move(spec));
}

SimDuration Cluster::startup_makespan() const {
  SimTime last{0};
  for (const Pod* pod : api_.pods()) {
    if (pod->status.phase == PodPhase::kRunning) {
      last = std::max(last, pod->status.running_at);
    }
  }
  return last;
}

std::size_t Cluster::running_count() const {
  std::size_t n = 0;
  for (const Pod* pod : api_.pods()) {
    if (pod->status.phase == PodPhase::kRunning) ++n;
  }
  return n;
}

std::size_t Cluster::failed_count() const {
  std::size_t n = 0;
  for (const Pod* pod : api_.pods()) {
    if (pod->status.phase == PodPhase::kFailed) ++n;
  }
  return n;
}

void Cluster::enable_timeseries(TimeSeriesOptions options) {
  if (ts_scraper_ != nullptr) return;
  obs::tsdb::TimeSeriesStore::Options store_options;
  store_options.capacity_per_series = options.capacity_per_series;
  ts_store_ = std::make_unique<obs::tsdb::TimeSeriesStore>(store_options);
  ts_alerts_ = std::make_unique<obs::tsdb::AlertEvaluator>(
      *ts_store_, obs_.tracer, obs_.metrics);
  ts_scraper_ = std::make_unique<obs::tsdb::Scraper>(
      kernel_, obs_.metrics, *ts_store_, options.scrape);
  ts_scraper_->set_alert_evaluator(ts_alerts_.get());
  ts_scraper_->add_collector(
      [this, per_pod = options.per_pod_gauges](SimTime) {
        collect_memory_attribution(per_pod);
      });
  if (options.metrics_window_s > 0) {
    metrics_.set_window(ts_store_.get(), options.metrics_window_s);
  }
  ts_scraper_->start();
}

void Cluster::stop_timeseries() {
  if (ts_scraper_ != nullptr) ts_scraper_->stop();
}

void Cluster::collect_memory_attribution(bool per_pod_gauges) {
  obs::Registry& reg = obs_.metrics;
  for (Worker& w : workers_) {
    mem::NodeMemory& m = w.node->memory();
    const std::string node_label = obs::label("node", w.name);
    const auto set_kind = [&](const char* kind, Bytes b) {
      reg.gauge("wasmctr_node_mem_bytes",
                node_label + "," + obs::label("kind", kind))
          .set(static_cast<double>(b.value));
    };
    // The kinds partition the node's non-base residency exactly: anon +
    // the five shared-mapping kinds + page cache = free's used-plus-cache
    // delta (the invariant tests/obs/tsdb pin).
    set_kind("anon", m.anon_total());
    for (std::size_t k = 0; k < mem::kMappingKindCount; ++k) {
      const auto kind = static_cast<mem::MappingKind>(k);
      set_kind(mem::mapping_kind_name(kind), m.shared_by_kind(kind));
    }
    set_kind("cache", m.page_cache());
  }
  // Tenant attribution: cgroup working sets of Running pods grouped by
  // the pod's tenant (unlabelled pods pool under "default").
  std::map<std::string, double> tenant_rss;
  for (const Pod* pod : api_.pods()) {
    if (pod->status.phase != PodPhase::kRunning) continue;
    sim::Node* node = nullptr;
    for (Worker& w : workers_) {
      if (w.name == pod->status.node) node = w.node.get();
    }
    if (node == nullptr) continue;
    mem::Cgroup* cg = node->cgroups().find("kubepods/pod-" + pod->spec.name);
    if (cg == nullptr) continue;
    const Bytes ws = cg->working_set();
    const std::string tenant =
        pod->spec.tenant.empty() ? "default" : pod->spec.tenant;
    tenant_rss[tenant] += static_cast<double>(ws.value);
    if (per_pod_gauges) {
      const std::string pod_label = obs::label("pod", pod->spec.name);
      reg.gauge("wasmctr_pod_working_set_bytes", pod_label)
          .set(static_cast<double>(ws.value));
      reg.gauge("wasmctr_pod_usage_bytes", pod_label)
          .set(static_cast<double>(cg->usage().value));
    }
  }
  for (const auto& [tenant, rss] : tenant_rss) {
    reg.gauge("wasmctr_tenant_rss_bytes", obs::label("tenant", tenant))
        .set(rss);
  }
}

Result<std::string> Cluster::pod_stdout(const std::string& pod_name) const {
  const Pod* pod = api_.pod(pod_name);
  if (pod == nullptr) return not_found("pod " + pod_name);
  if (pod->status.container_id.empty()) {
    return failed_precondition("pod has no container yet");
  }
  // Container ids are per-node: resolve against the bound node's CRI.
  const containerd::Containerd* cri = nullptr;
  for (const Worker& w : workers_) {
    if (w.name == pod->status.node) cri = w.cri.get();
  }
  if (cri == nullptr) return not_found("node " + pod->status.node);
  WASMCTR_ASSIGN_OR_RETURN(oci::ContainerInfo info,
                           cri->container_state(pod->status.container_id));
  return info.stdout_data;
}

}  // namespace wasmctr::k8s
