// containerd: the high-level container runtime Kubernetes drives through
// the CRI. Owns pod sandboxes (pause containers), the daemon's serialized
// shim registration and the per-pod containerd-shim-runc-v2 processes, and
// hands every container's lifecycle to one oci::LowLevelRuntime: crun,
// runC or youki behind shim-runc-v2, or a runwasi shim that runs the Wasm
// engine in-process (paper Fig 1's two integration paths).
#pragma once

#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "containerd/image_store.hpp"
#include "oci/runtime.hpp"

namespace wasmctr::containerd {

/// How a runtime handler executes containers.
enum class HandlerPath {
  kRuncV2,   ///< shim-runc-v2 + a low-level OCI runtime
  kRunwasi,  ///< containerd-shim-<engine>: engine inside the shim process
};

struct HandlerConfig {
  HandlerPath path = HandlerPath::kRuncV2;
  /// kRuncV2: which low-level runtime ("crun", "runc", "youki").
  std::string oci_runtime = "crun";
  /// kRuncV2+crun: compiled-in Wasm backend; kRunwasi: the shim's engine.
  std::optional<engines::EngineKind> engine;
};

/// What the kubelet asks containerd to run (CRI ContainerConfig subset).
struct ContainerRequest {
  std::string name;
  std::string image;
  std::vector<std::string> args;
  std::vector<std::pair<std::string, std::string>> env;
  uint64_t memory_limit = 0;
  /// Owning tenant (empty = untenanted); labels the container's traces.
  std::string tenant;
};

/// Observer for exits containerd detects after a container reached
/// Running (today: OOM kills). Receives (pod_name, container_id, status).
using ExitWatcher = std::function<void(
    const std::string&, const std::string&, const Status&)>;

struct SandboxInfo {
  std::string id;
  std::string pod_name;
  std::string cgroup_path;
  sim::Pid pause_pid = 0;
  std::vector<std::string> container_ids;
};

class Containerd {
 public:
  Containerd(sim::Node& node, ImageStore& images);

  /// Register a runtime handler (containerd config.toml
  /// [plugins."io.containerd.grpc.v1.cri".containerd.runtimes.<name>]).
  void register_handler(const std::string& name, HandlerConfig config);
  [[nodiscard]] bool has_handler(const std::string& name) const {
    return handlers_.contains(name);
  }
  [[nodiscard]] std::vector<std::string> handler_names() const;

  // --- CRI RuntimeService (subset) ---

  /// RunPodSandbox: create the pod cgroup + pause container. Asynchronous;
  /// `done` receives the sandbox id.
  void run_pod_sandbox(const std::string& pod_name,
                       std::function<void(Result<std::string>)> done);

  /// CreateContainer + StartContainer fused (the kubelet always pairs
  /// them): resolves the image, writes the OCI bundle, routes through the
  /// handler's shim. `on_running` fires when workload main() executes.
  /// Returns the container id.
  Result<std::string> create_and_start(const std::string& sandbox_id,
                                       const ContainerRequest& request,
                                       const std::string& handler,
                                       oci::OnRunning on_running);

  /// StopPodSandbox + RemovePodSandbox fused: tear down containers, shim,
  /// pause container and the pod cgroup.
  Status remove_pod_sandbox(const std::string& sandbox_id);

  /// RemoveContainer: tear down one container, leaving its sandbox (pause
  /// container, pod cgroup, shim) intact — what an in-place restart
  /// removes before recreating the container inside the same sandbox.
  Status remove_container(const std::string& container_id);

  /// Dispatch one request to a running container's handler (CRI → OCI →
  /// engine, DESIGN.md §8). On a cold hit the new serving instance's
  /// resident bytes are charged to the pod cgroup via
  /// grow_container_memory — a tight limit can OOM-kill mid-serving.
  /// `parent` (optional) nests the serving-layer spans under the caller's
  /// request span.
  void invoke_container(const std::string& container_id, int32_t arg,
                        engines::InvokeCallback done,
                        obs::SpanId parent = {});

  [[nodiscard]] Result<const SandboxInfo*> sandbox(
      const std::string& id) const;
  [[nodiscard]] std::size_t sandbox_count() const noexcept {
    return sandboxes_.size();
  }

  /// Container state passthrough (for the metrics server and tests).
  [[nodiscard]] Result<oci::ContainerInfo> container_state(
      const std::string& container_id) const;

  /// Subscribe to post-Running container exits (OOM kills). The kubelet
  /// uses this to drive restart policy for containers that died after
  /// startup succeeded.
  void watch_container_exit(ExitWatcher watcher) {
    exit_watchers_.push_back(std::move(watcher));
  }

  /// Grow a running container's anonymous memory (workload allocation
  /// spike). A cgroup memory.max breach OOM-kills the container — state
  /// flips to stopped/137, exit watchers fire — and the breaching
  /// kResourceExhausted status is returned.
  Status grow_container_memory(const std::string& container_id, Bytes delta);

  [[nodiscard]] ImageStore& images() noexcept { return images_; }
  [[nodiscard]] sim::Node& node() noexcept { return node_; }

 private:
  /// A thin routing entry: the container's state lives in its runtime.
  struct ContainerRecord {
    std::string sandbox_id;
    std::string image;
    oci::LowLevelRuntime* runtime = nullptr;
  };

  oci::LowLevelRuntime* runtime_for(const HandlerConfig& config);

  /// How long the daemon's serialized section holds the shim that
  /// `container_id` starts; a runwasi shim also opens a live connection.
  double daemon_serial_s(const HandlerConfig& config,
                         const std::string& container_id);

  /// Pod name owning a container (fault-injection target + exit events).
  [[nodiscard]] std::string pod_name_of(const std::string& container_id) const;

  void notify_exit(const std::string& container_id, const Status& status);

  /// The per-pod containerd-shim-runc-v2 process, spawned on first use.
  /// False (and `on_running` told why) when it crashed or could not start.
  bool ensure_runc_shim(const std::string& container_id,
                        const oci::OnRunning& on_running);

  /// `create` + `start` in the container's runtime.
  void run_in_runtime(const std::string& container_id,
                      const std::string& bundle_path,
                      const std::string& cgroup_path,
                      const oci::OnRunning& on_running);

  sim::Node& node_;
  ImageStore& images_;
  std::map<std::string, HandlerConfig> handlers_;
  std::map<std::string, SandboxInfo> sandboxes_;
  /// containerd-shim-runc-v2 pid per sandbox id.
  std::map<std::string, sim::Pid> runc_shims_;
  std::map<std::string, ContainerRecord> containers_;
  // One low-level runtime instance per distinct configuration.
  std::map<std::string, std::unique_ptr<oci::LowLevelRuntime>> oci_runtimes_;
  std::vector<ExitWatcher> exit_watchers_;
  uint64_t next_id_ = 1;
  /// Containers whose runwasi shim holds a live ttrpc connection.
  std::set<std::string> runwasi_connections_;
};

}  // namespace wasmctr::containerd
