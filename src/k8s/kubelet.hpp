// kubelet: the per-node agent. Watches for pods bound to its node and
// drives them through the CRI (containerd): RunPodSandbox →
// CreateContainer → StartContainer, then reports Running with timestamps —
// the interval the paper's startup experiments measure (§IV-E).
//
// The paper extends the stock kubelet configuration from 110 to 500 pods
// per node (§III-C); `KubeletConfig::max_pods` models exactly that knob.
//
// Failure recovery follows stock kubelet semantics: retryable start
// failures and post-Running OOM kills re-enter the start pipeline through
// CrashLoopBackOff (exponential delay, 10 s base doubling to a 5 min cap,
// reset after 10 min of healthy running), gated by the pod's
// restartPolicy. Under node memory pressure the kubelet evicts the
// highest-usage Running pod without a memory limit before failing new
// admissions — the same ordering the real eviction manager applies to
// BestEffort pods first.
#pragma once

#include <string>
#include <vector>

#include "containerd/containerd.hpp"
#include "k8s/api_server.hpp"
#include "sim/node.hpp"

namespace wasmctr::k8s {

class DisruptionGate;

struct KubeletConfig {
  std::string node_name = "node-0";
  /// Stock kubelet default is 110; the paper raises it to 500 (§III-C).
  uint32_t max_pods = 110;
  std::string default_runtime_handler = "runc";
  /// CrashLoopBackOff: delay = min(base · 2^(failures−1), cap); the
  /// failure counter resets after `backoff_reset_after` of healthy
  /// running. Defaults are the stock kubelet constants.
  SimDuration backoff_base = sim_s(10.0);
  SimDuration backoff_cap = sim_s(300.0);
  SimDuration backoff_reset_after = sim_s(600.0);
  /// Node-pressure eviction threshold on `free`'s available column;
  /// 0 disables eviction (seed behavior).
  Bytes eviction_min_available{0};
  /// Node-lease renewal cadence once start_heartbeats() is called
  /// (stock node-status-update-frequency: 10 s).
  SimDuration heartbeat_interval = sim_s(10.0);
  /// Partition length applied when the fault injector fires
  /// kNodePartition at a heartbeat (scripted partitions pass their own).
  SimDuration partition_window = sim_s(30.0);
  /// Reboot time after a node crash; 0 keeps the node down until
  /// recover() is called explicitly.
  SimDuration restart_delay{0};
  /// Retry cadence for pressure evictions deferred by a
  /// PodDisruptionBudget: the gate denies the eviction, pressure
  /// persists, and the kubelet re-runs the scan after this backoff.
  SimDuration eviction_retry_period = sim_s(10.0);
};

/// One CrashLoopBackOff episode (for tests and the recovery bench).
struct BackoffEvent {
  std::string pod;
  uint32_t attempt = 0;  ///< consecutive-failure count, 1-based
  SimDuration delay{0};
  SimTime at{0};  ///< when the backoff began
};

class Kubelet {
 public:
  Kubelet(KubeletConfig config, sim::Node& node, ApiServer& api,
          containerd::Containerd& cri);

  [[nodiscard]] const KubeletConfig& config() const noexcept {
    return config_;
  }
  [[nodiscard]] uint32_t pods_started() const noexcept {
    return pods_started_;
  }
  [[nodiscard]] uint32_t pods_failed() const noexcept { return pods_failed_; }
  /// Pods currently holding a slot + per-pod bookkeeping charge.
  [[nodiscard]] uint32_t active_pods() const noexcept { return active_pods_; }
  /// Container (re)starts after a pod's first attempt, across all pods.
  [[nodiscard]] uint32_t restarts_total() const noexcept {
    return restarts_total_;
  }
  [[nodiscard]] uint32_t pods_evicted() const noexcept {
    return pods_evicted_;
  }
  /// Restarts that reused the existing sandbox (in-place restarts).
  [[nodiscard]] uint32_t in_place_restarts() const noexcept {
    return in_place_restarts_;
  }
  [[nodiscard]] const std::vector<BackoffEvent>& backoff_trace()
      const noexcept {
    return backoff_trace_;
  }
  /// Canonical text form of the backoff trace (determinism comparisons).
  [[nodiscard]] std::string backoff_trace_string() const;

  /// Exponential CrashLoopBackOff delay for the k-th consecutive failure.
  [[nodiscard]] SimDuration backoff_delay(uint32_t failures) const;

  // --- node fault domain (multi-node clusters) ---

  /// Begin renewing this node's lease in the API server every
  /// heartbeat_interval. Each beat is also the decision point for the
  /// node-scoped fault kinds (kNodeCrash / kNodePartition). The loop
  /// self-reschedules; stop_heartbeats() lets the kernel drain.
  void start_heartbeats();
  void stop_heartbeats();

  /// Node crash: every container/sandbox on the node dies silently (no
  /// exit events — there is nobody left to report them), kubelet
  /// bookkeeping and per-pod memory charges reset, heartbeats stop. Pod
  /// objects in the API server keep their last (now stale) status until
  /// the NodeLifecycleController notices the missing heartbeats. With
  /// config.restart_delay > 0 the node reboots itself via recover().
  void crash();

  /// Node reboot/rejoin after crash(): renews the lease, restarts
  /// heartbeats, and re-admits every pod still bound to this node that
  /// the control plane has not evicted (full start path — the sandboxes
  /// died with the node).
  void recover();

  /// Control-plane partition: stop posting heartbeats for `window`; pods
  /// keep running and serving. On rejoin the kubelet reconciles: pods
  /// deleted or evicted while it was unreachable have their (still
  /// running) local sandboxes garbage-collected.
  void partition(SimDuration window);

  [[nodiscard]] bool down() const noexcept { return down_; }
  [[nodiscard]] bool partitioned() const noexcept { return partitioned_; }
  [[nodiscard]] uint32_t crashes() const noexcept { return crashes_; }
  /// Pods restarted by recover() after a node reboot.
  [[nodiscard]] uint32_t pods_recovered() const noexcept {
    return pods_recovered_;
  }
  /// Stale local sandboxes garbage-collected on partition rejoin.
  [[nodiscard]] uint32_t stale_pods_gced() const noexcept {
    return stale_gced_;
  }
  /// Per-pod bookkeeping entries currently held (leak checks).
  [[nodiscard]] std::size_t record_count() const noexcept {
    return records_.size();
  }

  /// Install the shared PodDisruptionBudget gate. Pressure evictions the
  /// gate defers are retried after config.eviction_retry_period. Null
  /// (the default) evicts unconditionally — the pre-PDB behavior.
  void set_disruption_gate(DisruptionGate* gate) noexcept { gate_ = gate; }

  /// True while a deferred pressure-eviction retry is armed (regression
  /// tests for the deferral dedup / crash-epoch interactions).
  [[nodiscard]] bool eviction_retry_pending() const noexcept {
    return eviction_retry_pending_;
  }

 private:
  struct PodRecord {
    std::string handler;
    RestartPolicy policy = RestartPolicy::kNever;
    uint32_t consecutive_failures = 0;
    SimTime running_since{0};
    bool running = false;  ///< reached Running in the current attempt
    bool active = false;   ///< holds slot + kubelet_per_pod charge
  };

  void sync_pod(const Pod& pod);
  /// Admission: capacity check + handler resolution + slot/bookkeeping
  /// charge. Shared by sync_pod and the post-reboot re-admission path.
  bool admit_pod(const Pod& pod);
  /// Heartbeat loop body (lease renewal + node-fault decision points).
  void heartbeat();
  /// Partition end: rejoin the control plane and GC stale local state.
  void rejoin();
  /// The retryable section: fixed latency → RunPodSandbox →
  /// CreateContainer+Start. Re-entered on every restart attempt.
  void start_pod(const std::string& name);
  /// In-place restart: recreate only the container inside the pod's
  /// existing sandbox — no scheduler latency, no CNI, no pause start.
  void restart_container(const std::string& name);
  /// CreateContainer+StartContainer against a live sandbox (shared tail
  /// of start_pod and restart_container).
  void create_and_start_container(const std::string& name,
                                  const PodSpec& spec,
                                  const std::string& sandbox_id);
  /// Route a failed attempt (or post-Running exit) through restart policy.
  void handle_failure(const std::string& name, const Status& status);
  /// Terminal failure: mark Failed and release the pod's node resources.
  void fail_pod(const std::string& name, const Status& status);
  /// Node-pressure eviction loop (runs at admission and on every
  /// heartbeat — serving pods grow memory between admissions, so an
  /// admission-only check would never fire at steady state).
  void maybe_evict_for_pressure();
  /// Arm one epoch-guarded retry after a PDB deferred a pressure
  /// eviction (at most one pending at a time).
  void schedule_eviction_retry();
  void evict_pod(const std::string& name);
  /// Tear down the pod's sandbox + containers via the CRI, if any.
  void teardown_sandbox(Pod& pod);
  /// Tear down only the pod's container, keeping its sandbox alive.
  void teardown_container(Pod& pod);
  /// Drop the slot and per-pod bookkeeping charge (idempotent).
  void release_pod(const std::string& name);

  KubeletConfig config_;
  sim::Node& node_;
  ApiServer& api_;
  containerd::Containerd& cri_;
  DisruptionGate* gate_ = nullptr;
  bool eviction_retry_pending_ = false;
  std::map<std::string, PodRecord> records_;
  std::vector<BackoffEvent> backoff_trace_;
  uint32_t active_pods_ = 0;
  uint32_t pods_started_ = 0;
  uint32_t pods_failed_ = 0;
  uint32_t restarts_total_ = 0;
  uint32_t pods_evicted_ = 0;
  uint32_t in_place_restarts_ = 0;
  // Node fault-domain state.
  bool down_ = false;          ///< crashed and not yet recovered
  bool partitioned_ = false;   ///< heartbeats suppressed, pods running
  bool heartbeats_on_ = false;
  SimTime partitioned_until_{0};
  sim::EventId hb_event_{};
  /// Bumped by crash(): in-flight async completions from before the crash
  /// carry the old epoch and must not act on the rebooted node's state.
  uint32_t epoch_ = 0;
  uint32_t crashes_ = 0;
  uint32_t pods_recovered_ = 0;
  uint32_t stale_gced_ = 0;
  /// (pod, sandbox) deleted by the API server while partitioned: their
  /// local sandboxes stay up until the rejoin reconcile.
  std::vector<std::pair<std::string, std::string>> stale_;
  /// Pods bound to this node while partitioned (sync deferred to rejoin).
  std::vector<std::string> pending_binds_;
};

}  // namespace wasmctr::k8s
