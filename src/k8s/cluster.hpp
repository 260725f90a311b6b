// Cluster facade: assembles N worker nodes (each node + containerd +
// kubelet) around one control plane (API server, scheduler, node
// lifecycle, deployment/endpoints controllers) and the paper's nine
// runtime configurations; the primary embedding API for examples and
// benches. The default is a single worker with node lifecycle off —
// behaviorally identical to the pre-multi-node cluster.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "containerd/containerd.hpp"
#include "k8s/api_server.hpp"
#include "k8s/disruption.hpp"
#include "k8s/kubelet.hpp"
#include "k8s/metrics_server.hpp"
#include "k8s/node_lifecycle.hpp"
#include "k8s/scheduler.hpp"
#include "obs/tsdb/scraper.hpp"
#include "serve/deployment.hpp"
#include "serve/endpoints.hpp"

namespace wasmctr::k8s {

/// The runtime configurations evaluated in the paper (Table II, Fig 3–10).
enum class DeployConfig {
  kCrunWamr,      ///< our WAMR-in-crun integration (the contribution)
  kCrunWasmtime,  ///< pre-existing crun Wasm integrations (Fig 3/4)
  kCrunWasmer,
  kCrunWasmEdge,
  kShimWasmtime,  ///< runwasi shims (Fig 5)
  kShimWasmer,
  kShimWasmEdge,
  kCrunPython,    ///< non-Wasm baselines (Fig 6/7)
  kRuncPython,
};

inline constexpr DeployConfig kAllConfigs[] = {
    DeployConfig::kCrunWamr,     DeployConfig::kCrunWasmtime,
    DeployConfig::kCrunWasmer,   DeployConfig::kCrunWasmEdge,
    DeployConfig::kShimWasmtime, DeployConfig::kShimWasmer,
    DeployConfig::kShimWasmEdge, DeployConfig::kCrunPython,
    DeployConfig::kRuncPython,
};

[[nodiscard]] const char* deploy_config_name(DeployConfig c);
[[nodiscard]] const char* deploy_config_label(DeployConfig c);  // figure label
[[nodiscard]] bool deploy_config_is_wasm(DeployConfig c);

struct ClusterOptions {
  sim::NodeConfig node;
  /// Worker-node count. Every worker shares one virtual clock, fault
  /// plan, and observability surface; memory/CPU/jitter-RNG stay
  /// per-node. Worker 0 uses `node.seed` exactly (single-node runs are
  /// bit-identical to the pre-multi-node cluster); worker i derives
  /// seed + i.
  uint32_t workers = 1;
  /// Force heartbeats + the node lifecycle controller on even with one
  /// worker. With ≥2 workers lifecycle is always on. When on, the
  /// monitor/heartbeat loops self-reschedule forever: drive the cluster
  /// with run_for()/run_until(), not run().
  bool node_lifecycle = false;
  NodeLifecycleOptions lifecycle;
  /// Reboot delay applied after a node crash (0 = stay down until
  /// recover_node()).
  SimDuration node_restart_delay{0};
  /// kubelet max pods: stock 110; the paper's extended config is 500.
  uint32_t max_pods = 500;
  /// restartPolicy stamped on pods created by deploy(). Defaults to Never
  /// (not Kubernetes' Always) so run-to-quiescence terminates; recovery
  /// benches/tests opt into OnFailure/Always.
  RestartPolicy restart_policy = RestartPolicy::kNever;
  /// CrashLoopBackOff constants (stock kubelet: 10 s base, ×2, 5 min cap,
  /// counter reset after 10 min healthy).
  SimDuration backoff_base = sim_s(10.0);
  SimDuration backoff_cap = sim_s(300.0);
  SimDuration backoff_reset_after = sim_s(600.0);
  /// Node-pressure eviction threshold (0 = disabled, seed behavior).
  Bytes eviction_min_available{0};
};

/// Configuration for the cluster's time-series pipeline (DESIGN.md §14):
/// a virtual-time Scraper samples the shared Registry into a ring-buffer
/// TimeSeriesStore, with a memory-attribution collector refreshing
/// per-node/per-tenant gauges before every scrape.
struct TimeSeriesOptions {
  obs::tsdb::Scraper::Options scrape;
  /// Ring capacity per series (512 × 12 B ≈ 6 KiB; ~42 min of history at
  /// the 5 s cadence).
  std::size_t capacity_per_series = 512;
  /// Export wasmctr_pod_working_set_bytes/wasmctr_pod_usage_bytes per
  /// running pod — the series the MetricsServer's windowed mode reads.
  /// Cardinality O(pods); turn off for 100k-pod sweeps.
  bool per_pod_gauges = true;
  /// MetricsServer lookback in virtual seconds: >0 answers top_pods from
  /// windowed maxima over the TSDB (cgroup fallback for unscraped pods);
  /// 0 keeps the instantaneous read path byte-identical to before.
  double metrics_window_s = 0;
};

class Cluster {
 public:
  explicit Cluster(ClusterOptions options = {});

  Cluster(const Cluster&) = delete;
  Cluster& operator=(const Cluster&) = delete;

  // --- deployment ---

  /// Create `count` single-container pods of `config` (one container per
  /// pod, as in every paper experiment — Table II).
  Status deploy(DeployConfig config, uint32_t count,
                const std::string& name_prefix = "pod");

  /// Create one pod from an explicit spec (examples use this directly).
  Status deploy_pod(PodSpec spec);

  /// Run the simulation until quiescent. Only terminates when node
  /// lifecycle is off (its loops self-reschedule); multi-node drivers use
  /// run_for()/run_until().
  void run() { kernel_.run(); }
  void run_until(SimTime deadline) { kernel_.run_until(deadline); }
  void run_for(SimDuration d) { kernel_.run_until(kernel_.now() + d); }

  // --- node fault operations (multi-node) ---

  /// Kill worker `i`: all its sandboxes die silently, kubelet state and
  /// memory reset. The control plane notices via missed heartbeats.
  void crash_node(uint32_t i) { worker(i).kubelet->crash(); }
  /// Reboot worker `i` after a crash.
  void recover_node(uint32_t i) { worker(i).kubelet->recover(); }
  /// Partition worker `i` from the control plane for `window`.
  void partition_node(uint32_t i, SimDuration window) {
    worker(i).kubelet->partition(window);
  }

  // --- measurement (the paper's two methodologies + latency) ---

  [[nodiscard]] Bytes metrics_avg_per_container() const {
    return metrics_.average_working_set();
  }
  [[nodiscard]] Bytes free_avg_per_container() const {
    return free_probe_.delta_per_container(running_count());
  }
  /// Time from the first pod's creation to the last workload executing —
  /// Fig 8/9's "time to start N concurrent containers".
  [[nodiscard]] SimDuration startup_makespan() const;

  [[nodiscard]] std::size_t running_count() const;
  [[nodiscard]] std::size_t failed_count() const;

  /// Captured stdout of a pod's workload (end-to-end verification).
  /// Routed to the containerd instance of the pod's bound node.
  [[nodiscard]] Result<std::string> pod_stdout(
      const std::string& pod_name) const;

  // --- component access (index 0 = the default worker) ---
  [[nodiscard]] uint32_t worker_count() const noexcept {
    return static_cast<uint32_t>(workers_.size());
  }
  [[nodiscard]] sim::Node& node(uint32_t i = 0) { return *worker(i).node; }
  [[nodiscard]] containerd::Containerd& cri(uint32_t i = 0) {
    return *worker(i).cri;
  }
  [[nodiscard]] Kubelet& kubelet(uint32_t i = 0) {
    return *worker(i).kubelet;
  }
  /// Containerd of the worker named `node_name` (nullptr if unknown) —
  /// the request path routes invocations by pod.status.node.
  [[nodiscard]] containerd::Containerd* cri_for(const std::string& node_name);
  [[nodiscard]] obs::Observability& obs() noexcept { return obs_; }
  [[nodiscard]] sim::Kernel& kernel() noexcept { return kernel_; }
  [[nodiscard]] sim::FaultInjector& faults() noexcept { return faults_; }
  [[nodiscard]] ApiServer& api() noexcept { return api_; }
  [[nodiscard]] MetricsServer& metrics() noexcept { return metrics_; }
  [[nodiscard]] FreeProbe& free_probe() noexcept { return free_probe_; }
  [[nodiscard]] Scheduler& scheduler() noexcept { return scheduler_; }
  [[nodiscard]] DisruptionGate& disruption_gate() noexcept { return gate_; }
  [[nodiscard]] NodeLifecycleController& lifecycle() noexcept {
    return lifecycle_;
  }
  [[nodiscard]] bool lifecycle_enabled() const noexcept {
    return lifecycle_enabled_;
  }
  [[nodiscard]] serve::DeploymentController& deployments() noexcept {
    return deployments_;
  }
  [[nodiscard]] serve::EndpointsController& endpoints() noexcept {
    return endpoints_;
  }

  // --- time-series pipeline (DESIGN.md §14) ---

  /// Construct store + alert evaluator + scraper and start scraping.
  /// Idempotent. The scraper self-reschedules forever: drive the cluster
  /// with run_for()/run_until() and call stop_timeseries() before a final
  /// run-to-quiescence drain (same contract as node lifecycle).
  void enable_timeseries(TimeSeriesOptions options = {});

  /// Cancel the pending scrape so run() can drain. The store, evaluator
  /// and scrape history stay readable.
  void stop_timeseries();

  [[nodiscard]] bool timeseries_enabled() const noexcept {
    return ts_scraper_ != nullptr;
  }
  /// Valid only after enable_timeseries().
  [[nodiscard]] obs::tsdb::TimeSeriesStore& timeseries() {
    return *ts_store_;
  }
  [[nodiscard]] obs::tsdb::Scraper& scraper() { return *ts_scraper_; }
  [[nodiscard]] obs::tsdb::AlertEvaluator& alerts() { return *ts_alerts_; }

 private:
  /// One worker = fault domain: node resources + containerd + kubelet.
  struct Worker {
    std::string name;
    std::unique_ptr<sim::Node> node;
    std::unique_ptr<containerd::ImageStore> images;
    std::unique_ptr<containerd::Containerd> cri;
    std::unique_ptr<Kubelet> kubelet;
  };

  [[nodiscard]] std::vector<Worker> build_workers(
      const ClusterOptions& options);
  Worker& worker(uint32_t i) { return workers_.at(i); }
  void register_handlers_and_classes();
  void register_images();
  /// The scraper's pre-scrape collector: refresh per-node mapping-kind,
  /// per-tenant and (optionally) per-pod memory gauges.
  void collect_memory_attribution(bool per_pod_gauges);

  // Cluster-wide infrastructure shared by every worker (declaration order
  // is construction order: workers reference all three).
  sim::Kernel kernel_;
  sim::FaultInjector faults_;
  obs::Observability obs_;
  ApiServer api_;
  // Constructed before the workers so its API-server watchers fire first
  // (slot release happens before kubelets/controllers reconcile).
  Scheduler scheduler_;
  // Shared PodDisruptionBudget gate, consulted by every kubelet's
  // pressure eviction and the lifecycle controller's NodeLost eviction.
  DisruptionGate gate_;
  std::vector<Worker> workers_;
  RestartPolicy restart_policy_;
  // Worker-0 scoped: the paper's measurement probes ran on one node.
  MetricsServer metrics_;
  FreeProbe free_probe_;
  NodeLifecycleController lifecycle_;
  bool lifecycle_enabled_ = false;
  serve::DeploymentController deployments_;
  serve::EndpointsController endpoints_;
  // Time-series pipeline, constructed lazily by enable_timeseries().
  std::unique_ptr<obs::tsdb::TimeSeriesStore> ts_store_;
  std::unique_ptr<obs::tsdb::AlertEvaluator> ts_alerts_;
  std::unique_ptr<obs::tsdb::Scraper> ts_scraper_;
};

}  // namespace wasmctr::k8s
