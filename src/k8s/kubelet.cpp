#include "k8s/kubelet.hpp"

#include <algorithm>
#include <cstdio>
#include <utility>
#include <vector>

#include "k8s/disruption.hpp"
#include "support/log.hpp"

namespace wasmctr::k8s {

using engines::kInfra;

Kubelet::Kubelet(KubeletConfig config, sim::Node& node, ApiServer& api,
                 containerd::Containerd& cri)
    : config_(std::move(config)), node_(node), api_(api), cri_(cri) {
  api_.watch_bound([this](const Pod& pod) {
    if (pod.status.node != config_.node_name) return;
    // A crashed node cannot see the binding; the pod sits Scheduled until
    // the lifecycle controller evicts it or recover() picks it up. A
    // partitioned node syncs it at rejoin.
    if (down_) return;
    if (partitioned_) {
      pending_binds_.push_back(pod.spec.name);
      return;
    }
    sync_pod(pod);
  });
  api_.watch_deleted([this](const Pod& pod) {
    if (pod.status.node != config_.node_name) return;
    if (down_) return;  // local state already died with the node
    if (partitioned_) {
      // The API-side delete cannot reach us: the sandbox keeps running
      // until the rejoin reconcile garbage-collects it.
      stale_.emplace_back(pod.spec.name, pod.status.sandbox_id);
      return;
    }
    if (!pod.status.sandbox_id.empty()) {
      (void)cri_.remove_pod_sandbox(pod.status.sandbox_id);
    }
    release_pod(pod.spec.name);
  });
  cri_.watch_container_exit([this](const std::string& pod_name,
                                   const std::string& container_id,
                                   const Status& status) {
    (void)container_id;
    if (down_) return;
    const Pod* p = api_.pod(pod_name);
    if (p == nullptr || p->status.node != config_.node_name) return;
    // Only a Running pod has an exit to react to; anything else is a
    // stale notification from an attempt already routed elsewhere.
    if (p->status.phase != PodPhase::kRunning) return;
    handle_failure(pod_name, status);
  });
}

SimDuration Kubelet::backoff_delay(uint32_t failures) const {
  if (failures == 0) return SimDuration{0};
  SimDuration d = config_.backoff_base;
  for (uint32_t i = 1; i < failures && d < config_.backoff_cap; ++i) d *= 2;
  return std::min(d, config_.backoff_cap);
}

std::string Kubelet::backoff_trace_string() const {
  std::string out;
  char line[160];
  for (const BackoffEvent& e : backoff_trace_) {
    std::snprintf(line, sizeof(line), "%s attempt=%u delay=%.3fs at=%.6fs\n",
                  e.pod.c_str(), e.attempt, to_seconds(e.delay),
                  to_seconds(e.at));
    out += line;
  }
  return out;
}

void Kubelet::teardown_sandbox(Pod& pod) {
  if (!pod.status.sandbox_id.empty()) {
    (void)cri_.remove_pod_sandbox(pod.status.sandbox_id);
  }
  pod.status.sandbox_id.clear();
  pod.status.container_id.clear();
}

void Kubelet::teardown_container(Pod& pod) {
  if (!pod.status.container_id.empty()) {
    (void)cri_.remove_container(pod.status.container_id);
  }
  pod.status.container_id.clear();
}

void Kubelet::release_pod(const std::string& name) {
  auto it = records_.find(name);
  if (it == records_.end()) return;
  if (it->second.active) {
    --active_pods_;
    node_.memory().uncharge_anon(kInfra.kubelet_per_pod, nullptr);
  }
  records_.erase(it);
}

void Kubelet::fail_pod(const std::string& name, const Status& status) {
  ++pods_failed_;
  node_.obs().tracer.pod_end(name, "Failed");
  node_.obs().metrics.counter("wasmctr_pods_failed_total").inc();
  if (const Pod* p = api_.pod(name); p != nullptr && !p->spec.tenant.empty()) {
    node_.obs()
        .metrics
        .counter("wasmctr_tenant_pods_failed_total",
                 "tenant=\"" + p->spec.tenant + "\"")
        .inc();
  }
  if (Pod* p = api_.pod(name)) {
    p->status.phase = PodPhase::kFailed;
    p->status.message = status.to_string();
    if (p->status.reason.empty()) {
      p->status.reason =
          status.code() == ErrorCode::kResourceExhausted ? "OOMKilled"
                                                         : "Error";
    }
    teardown_sandbox(*p);
  }
  release_pod(name);
  api_.notify_status(name);
  WASMCTR_LOG(kWarn, "kubelet") << "pod " << name << " failed: "
                                << status.to_string();
}

void Kubelet::evict_pod(const std::string& name) {
  Pod* p = api_.pod(name);
  if (p == nullptr) return;
  ++pods_evicted_;
  node_.obs().tracer.pod_end(name, "Evicted");
  node_.obs().metrics.counter("wasmctr_pods_evicted_total").inc();
  if (!p->spec.tenant.empty()) {
    node_.obs()
        .metrics
        .counter("wasmctr_tenant_pods_evicted_total",
                 "tenant=\"" + p->spec.tenant + "\"")
        .inc();
  }
  {
    const obs::SpanId ev =
        node_.obs().tracer.instant("pod.evicted", "k8s");
    node_.obs().tracer.set_attr(ev, "pod", name);
    if (!p->spec.tenant.empty()) {
      node_.obs().tracer.set_attr(ev, "tenant", p->spec.tenant);
    }
  }
  p->status.phase = PodPhase::kEvicted;
  p->status.reason = "Evicted";
  p->status.message =
      "node was low on memory: evicted to reclaim working set";
  teardown_sandbox(*p);
  release_pod(name);
  api_.notify_status(name);
  WASMCTR_LOG(kWarn, "kubelet") << "evicted pod " << name
                                << " (node memory pressure)";
}

void Kubelet::maybe_evict_for_pressure() {
  if (config_.eviction_min_available.value == 0) return;
  bool deferred = false;
  while (node_.memory().free_report().available.value <
         config_.eviction_min_available.value) {
    // Rank like the eviction manager: pods with no memory limit
    // (BestEffort) go first, highest anon usage first, pod name as the
    // tie-break — map iteration order must never pick the victim.
    // Limited pods keep their reservation.
    std::vector<std::pair<Bytes, const Pod*>> candidates;
    for (const std::string& pod_name : api_.pods_on_node(config_.node_name)) {
      const Pod* p = api_.pod(pod_name);
      if (p == nullptr) continue;
      if (p->status.phase != PodPhase::kRunning) continue;
      if (p->spec.memory_limit != 0) continue;
      Bytes usage{0};
      if (mem::Cgroup* cg =
              node_.cgroups().find("kubepods/pod-" + p->spec.name)) {
        usage = cg->usage();
      }
      candidates.emplace_back(usage, p);
    }
    std::sort(candidates.begin(), candidates.end(),
              [](const auto& a, const auto& b) {
                if (a.first.value != b.first.value) {
                  return a.first.value > b.first.value;
                }
                return a.second->spec.name < b.second->spec.name;
              });
    const Pod* victim = nullptr;
    for (const auto& [usage, p] : candidates) {
      (void)usage;
      if (gate_ != nullptr) {
        // Dedup against the other eviction path: a pod the gate already
        // holds a *NodeLost* deferral for is retried by the lifecycle
        // controller's monitor tick — arming our backoff retry for it
        // too would double-enqueue the retry. A pod this path deferred
        // itself stays ours: the backoff loop must keep retrying until
        // pressure relents or the budget frees.
        const std::string& owner = gate_->deferral_owner(p->spec.name);
        const bool foreign_pending = !owner.empty() && owner != "NodePressure";
        if (!gate_->allow_eviction(*p, "NodePressure")) {
          if (!foreign_pending) deferred = true;
          continue;  // budget-protected: try the next-largest pod
        }
      }
      victim = p;
      break;
    }
    if (victim == nullptr) break;  // nothing evictable; admission may fail
    evict_pod(victim->spec.name);
  }
  // Every candidate was budget-protected but pressure persists: retry
  // once the budget may have freed up (replacements going Running).
  if (deferred) schedule_eviction_retry();
}

void Kubelet::schedule_eviction_retry() {
  if (eviction_retry_pending_) return;
  eviction_retry_pending_ = true;
  const uint32_t epoch = epoch_;
  node_.kernel().schedule_after(config_.eviction_retry_period,
                                [this, epoch] {
                                  // Epoch check before touching the flag:
                                  // a stale pre-crash retry must not clear
                                  // a pending bit owned by a retry armed
                                  // after recover() — clearing it would
                                  // let a second retry be enqueued while
                                  // the fresh one is still in flight.
                                  if (epoch != epoch_) return;
                                  eviction_retry_pending_ = false;
                                  if (down_) return;
                                  maybe_evict_for_pressure();
                                });
}

bool Kubelet::admit_pod(const Pod& pod) {
  const std::string name = pod.spec.name;
  if (active_pods_ >= config_.max_pods) {
    fail_pod(name, resource_exhausted(
                       "node capacity: max_pods=" +
                       std::to_string(config_.max_pods) +
                       " reached (kubelet config, paper §III-C raises it)"));
    return false;
  }

  PodRecord rec;
  rec.policy = pod.spec.restart_policy;

  // Resolve the runtime handler through the pod's RuntimeClass.
  rec.handler = config_.default_runtime_handler;
  if (!pod.spec.runtime_class.empty()) {
    const RuntimeClass* rc = api_.runtime_class(pod.spec.runtime_class);
    if (rc == nullptr) {
      fail_pod(name, not_found("runtimeClass " + pod.spec.runtime_class));
      return false;
    }
    rec.handler = rc->handler;
  }
  if (!cri_.has_handler(rec.handler)) {
    fail_pod(name, not_found("containerd handler " + rec.handler));
    return false;
  }

  // Admitted: take a slot and the per-pod kubelet bookkeeping (probes,
  // status cache) — kubelet process memory, outside pod cgroups. Both are
  // returned by release_pod() on failure, eviction or deletion.
  ++active_pods_;
  (void)node_.memory().charge_anon(kInfra.kubelet_per_pod, nullptr);
  rec.active = true;
  records_[name] = std::move(rec);

  node_.obs().tracer.pod_attr(name, "handler", records_[name].handler);
  node_.obs().tracer.pod_attr(name, "image", pod.spec.image);
  if (!pod.spec.tenant.empty()) {
    node_.obs().tracer.pod_attr(name, "tenant", pod.spec.tenant);
  }
  return true;
}

void Kubelet::start_heartbeats() {
  if (heartbeats_on_) return;
  heartbeats_on_ = true;
  const SimTime now = node_.kernel().now();
  if (api_.node_object(config_.node_name) == nullptr) {
    (void)api_.register_node(config_.node_name, config_.max_pods, now);
  } else {
    (void)api_.node_heartbeat(config_.node_name, now);
  }
  hb_event_ = node_.kernel().schedule_after(config_.heartbeat_interval,
                                            [this] { heartbeat(); });
}

void Kubelet::stop_heartbeats() {
  if (!heartbeats_on_) return;
  heartbeats_on_ = false;
  node_.kernel().cancel(hb_event_);
}

void Kubelet::heartbeat() {
  if (down_ || !heartbeats_on_) return;
  // Each beat is the deterministic decision point for the node-scoped
  // fault kinds: (seed, kind, node, occurrence) fully determine whether
  // this node dies or partitions here.
  if (node_.faults().should_fault(sim::FaultKind::kNodeCrash,
                                  config_.node_name)) {
    crash();
    return;
  }
  if (!partitioned_ &&
      node_.faults().should_fault(sim::FaultKind::kNodePartition,
                                  config_.node_name)) {
    partition(config_.partition_window);
  }
  // A partitioned kubelet keeps ticking locally but its status posts
  // never reach the API server.
  if (!partitioned_) {
    (void)api_.node_heartbeat(config_.node_name, node_.kernel().now());
    // Each beat also runs the pressure scan (the real eviction manager's
    // monitor interval): serving pods grow memory between admissions, so
    // an admission-only check would never fire at steady state.
    maybe_evict_for_pressure();
  }
  hb_event_ = node_.kernel().schedule_after(config_.heartbeat_interval,
                                            [this] { heartbeat(); });
}

void Kubelet::crash() {
  if (down_) return;
  down_ = true;
  partitioned_ = false;
  ++crashes_;
  ++epoch_;  // invalidate every in-flight completion from before the crash
  if (heartbeats_on_) node_.kernel().cancel(hb_event_);
  // Every sandbox dies with the node — silently: a dead node reports no
  // exit events. Collect ids first; removal must not alias the pod scan.
  // The per-node index keeps this O(pods on this node) at cluster scale.
  std::vector<std::string> sandboxes;
  for (const std::string& pod_name : api_.pods_on_node(config_.node_name)) {
    const Pod* p = api_.pod(pod_name);
    if (p == nullptr) continue;
    if (!p->status.sandbox_id.empty() && cri_.sandbox(p->status.sandbox_id)) {
      sandboxes.push_back(p->status.sandbox_id);
    }
  }
  for (const std::string& id : sandboxes) (void)cri_.remove_pod_sandbox(id);
  // Kubelet process state resets with the reboot: slots and the per-pod
  // bookkeeping memory go back to baseline. Pod objects in the API keep
  // their last (now stale) status until the lifecycle controller reacts.
  for (const auto& [name, rec] : records_) {
    if (rec.active) {
      node_.memory().uncharge_anon(kInfra.kubelet_per_pod, nullptr);
    }
  }
  records_.clear();
  active_pods_ = 0;
  stale_.clear();
  pending_binds_.clear();
  // Any in-flight pressure-eviction retry carries the old epoch and will
  // be a no-op; without this reset a post-recover deferral would see the
  // flag still set and never arm a fresh, current-epoch retry.
  eviction_retry_pending_ = false;
  node_.obs().metrics.counter("wasmctr_node_crashes_total").inc();
  {
    const obs::SpanId ev = node_.obs().tracer.instant("node.crash", "k8s");
    node_.obs().tracer.set_attr(ev, "node", config_.node_name);
  }
  WASMCTR_LOG(kWarn, "kubelet")
      << "node " << config_.node_name << " crashed ("
      << sandboxes.size() << " sandboxes lost)";
  if (config_.restart_delay > SimDuration{0}) {
    node_.kernel().schedule_after(config_.restart_delay,
                                  [this] { recover(); });
  }
}

void Kubelet::recover() {
  if (!down_) return;
  down_ = false;
  const SimTime now = node_.kernel().now();
  (void)api_.node_heartbeat(config_.node_name, now);
  if (heartbeats_on_) {
    hb_event_ = node_.kernel().schedule_after(config_.heartbeat_interval,
                                              [this] { heartbeat(); });
  }
  {
    const obs::SpanId ev = node_.obs().tracer.instant("node.recover", "k8s");
    node_.obs().tracer.set_attr(ev, "node", config_.node_name);
  }
  // Re-admit every pod still bound here that the control plane has not
  // evicted or deleted. Collect names first: admission failures notify
  // controllers that mutate the pod store re-entrantly.
  std::vector<std::string> mine;
  for (const std::string& pod_name : api_.pods_on_node(config_.node_name)) {
    const Pod* p = api_.pod(pod_name);
    if (p == nullptr) continue;
    switch (p->status.phase) {
      case PodPhase::kScheduled:
      case PodPhase::kCreating:
      case PodPhase::kRunning:
      case PodPhase::kCrashLoopBackOff:
        mine.push_back(p->spec.name);
        break;
      default:
        break;
    }
  }
  for (const std::string& name : mine) {
    Pod* p = api_.pod(name);
    if (p == nullptr) continue;
    // The sandboxes died with the node; stale ids would alias fresh ones.
    p->status.sandbox_id.clear();
    p->status.container_id.clear();
    node_.obs().tracer.pod_phase(name, "kubelet.sync", "k8s");
    if (!admit_pod(*p)) continue;
    p->status.phase = PodPhase::kCreating;
    p->status.restart_count += 1;
    // The demotion must be visible to the control plane: a pod that was
    // Running when the node died is restarting now, and the endpoints
    // controller has to drop it from the ready set until it comes back.
    api_.notify_status(name);
    ++pods_recovered_;
    ++restarts_total_;
    start_pod(name);
  }
  WASMCTR_LOG(kInfo, "kubelet")
      << "node " << config_.node_name << " recovered, restarting "
      << mine.size() << " pods";
}

void Kubelet::partition(SimDuration window) {
  if (down_ || window <= SimDuration{0}) return;
  const SimTime until = node_.kernel().now() + window;
  if (partitioned_) {
    // Overlapping partitions extend the window; the pending rejoin check
    // re-arms itself until the extended deadline passes.
    if (until > partitioned_until_) partitioned_until_ = until;
    return;
  }
  partitioned_ = true;
  partitioned_until_ = until;
  node_.obs().metrics.counter("wasmctr_node_partitions_total").inc();
  {
    const obs::SpanId ev =
        node_.obs().tracer.instant("node.partition", "k8s");
    node_.obs().tracer.set_attr(ev, "node", config_.node_name);
  }
  WASMCTR_LOG(kWarn, "kubelet")
      << "node " << config_.node_name << " partitioned for "
      << to_seconds(window) << "s";
  node_.kernel().schedule_after(window, [this] { rejoin(); });
}

void Kubelet::rejoin() {
  if (down_ || !partitioned_) return;
  const SimTime now = node_.kernel().now();
  if (now < partitioned_until_) {  // window was extended while waiting
    node_.kernel().schedule_after(partitioned_until_ - now,
                                  [this] { rejoin(); });
    return;
  }
  partitioned_ = false;
  (void)api_.node_heartbeat(config_.node_name, now);
  {
    const obs::SpanId ev = node_.obs().tracer.instant("node.rejoin", "k8s");
    node_.obs().tracer.set_attr(ev, "node", config_.node_name);
  }
  // Reconcile pass 1: pods the API server deleted while we were
  // unreachable — their local sandboxes kept running the whole time.
  std::vector<std::pair<std::string, std::string>> deleted =
      std::move(stale_);
  stale_.clear();
  for (const auto& [pod, sandbox] : deleted) {
    if (!sandbox.empty() && cri_.sandbox(sandbox)) {
      (void)cri_.remove_pod_sandbox(sandbox);
    }
    release_pod(pod);
    ++stale_gced_;
  }
  // Reconcile pass 2: pods evicted (terminal phase, object retained)
  // while we were unreachable — same zombie sandboxes, found by scanning
  // our own records against current API state.
  std::vector<std::string> names;
  names.reserve(records_.size());
  for (const auto& [name, rec] : records_) names.push_back(name);
  for (const std::string& name : names) {
    Pod* p = api_.pod(name);
    if (p == nullptr) continue;
    if (p->status.phase == PodPhase::kFailed ||
        p->status.phase == PodPhase::kEvicted) {
      teardown_sandbox(*p);
      release_pod(name);
      ++stale_gced_;
    }
  }
  // Reconcile pass 3: bindings that arrived during the partition.
  std::vector<std::string> binds = std::move(pending_binds_);
  pending_binds_.clear();
  for (const std::string& name : binds) {
    const Pod* p = api_.pod(name);
    if (p == nullptr || p->status.phase != PodPhase::kScheduled) continue;
    if (p->status.node != config_.node_name) continue;
    sync_pod(*p);
  }
  WASMCTR_LOG(kInfo, "kubelet")
      << "node " << config_.node_name << " rejoined (gc="
      << stale_gced_ << " total)";
}

void Kubelet::sync_pod(const Pod& pod) {
  const std::string name = pod.spec.name;
  node_.obs().tracer.pod_phase(name, "kubelet.sync", "k8s");
  maybe_evict_for_pressure();
  if (!admit_pod(pod)) return;
  if (Pod* p = api_.pod(name)) {
    p->status.phase = PodPhase::kCreating;
    p->status.created_at = node_.kernel().now();
  }
  start_pod(name);
}

void Kubelet::start_pod(const std::string& name) {
  // Fixed pipeline latency: watch propagation, sync loop, CNI waits.
  const double jitter = node_.rng().uniform(0.0, 0.04);
  const uint32_t epoch = epoch_;
  node_.kernel().schedule_after(
      sim_s(kInfra.fixed_latency_s + jitter), [this, name, epoch] {
        if (down_ || epoch != epoch_) return;  // node died under us
        const Pod* pod = api_.pod(name);
        if (pod == nullptr || pod->status.phase != PodPhase::kCreating) {
          return;  // deleted or re-routed while we waited
        }
        const PodSpec spec = pod->spec;
        cri_.run_pod_sandbox(name, [this, name, epoch,
                                    spec](Result<std::string> sandbox) {
          if (down_ || epoch != epoch_) {
            // The node crashed while the sandbox was coming up: the
            // completion is from a previous boot. Don't leak the sandbox.
            if (sandbox) (void)cri_.remove_pod_sandbox(*sandbox);
            return;
          }
          Pod* p = api_.pod(name);
          if (p == nullptr || p->status.phase != PodPhase::kCreating) {
            // Deleted mid-flight: don't leak a sandbox nobody tracks.
            if (sandbox) (void)cri_.remove_pod_sandbox(*sandbox);
            return;
          }
          if (!sandbox) {
            handle_failure(name, sandbox.status());
            return;
          }
          const std::string sandbox_id = *sandbox;
          p->status.sandbox_id = sandbox_id;
          create_and_start_container(name, spec, sandbox_id);
        });
      });
}

void Kubelet::create_and_start_container(const std::string& name,
                                         const PodSpec& spec,
                                         const std::string& sandbox_id) {
  auto rec_it = records_.find(name);
  if (rec_it == records_.end()) return;
  containerd::ContainerRequest request;
  request.name = name + "-ctr";
  request.image = spec.image;
  request.args = spec.args;
  request.env = spec.env;
  request.memory_limit = spec.memory_limit;
  request.tenant = spec.tenant;
  const uint32_t epoch = epoch_;
  auto container_id = cri_.create_and_start(
      sandbox_id, request, rec_it->second.handler,
      [this, name, epoch](Status run_st) {
        if (down_ || epoch != epoch_) return;  // completion from a dead boot
        Pod* p = api_.pod(name);
        if (p == nullptr) return;
        if (!run_st.is_ok()) {
          handle_failure(name, run_st);
          return;
        }
        if (p->status.phase != PodPhase::kCreating) return;
        p->status.phase = PodPhase::kRunning;
        p->status.running_at = node_.kernel().now();
        p->status.reason.clear();
        p->status.message.clear();
        if (auto it = records_.find(name); it != records_.end()) {
          it->second.running = true;
          it->second.running_since = node_.kernel().now();
        }
        ++pods_started_;
        const SimDuration startup =
            node_.obs().tracer.pod_end(name, "Running");
        node_.obs().metrics.counter("wasmctr_pods_started_total").inc();
        if (!p->spec.tenant.empty()) {
          node_.obs()
              .metrics
              .counter("wasmctr_tenant_pods_started_total",
                       "tenant=\"" + p->spec.tenant + "\"")
              .inc();
        }
        node_.obs()
            .metrics
            .histogram("wasmctr_pod_startup_seconds",
                       obs::default_startup_buckets_s())
            .observe(to_seconds(startup));
        api_.notify_status(name);
      });
  if (!container_id) {
    handle_failure(name, container_id.status());
  } else if (Pod* bound = api_.pod(name)) {
    bound->status.container_id = *container_id;
  }
}

void Kubelet::restart_container(const std::string& name) {
  // The in-place path pays only the sync-loop latency: no scheduler
  // round-trip, no CNI setup, no pause-container start.
  const uint32_t epoch = epoch_;
  node_.kernel().schedule_after(
      sim_s(kInfra.restart_sync_latency_s), [this, name, epoch] {
        if (down_ || epoch != epoch_) return;
        const Pod* pod = api_.pod(name);
        if (pod == nullptr || pod->status.phase != PodPhase::kCreating) {
          return;  // deleted or re-routed while we waited
        }
        if (pod->status.sandbox_id.empty() ||
            !cri_.sandbox(pod->status.sandbox_id)) {
          start_pod(name);  // sandbox vanished: fall back to the full path
          return;
        }
        create_and_start_container(name, pod->spec, pod->status.sandbox_id);
      });
}

void Kubelet::handle_failure(const std::string& name, const Status& status) {
  if (down_) return;  // the whole node failed; this pod's fate is moot
  Pod* p = api_.pod(name);
  if (p == nullptr) return;
  // Only a live attempt (starting or running) routes through recovery;
  // anything else is a stale callback from a superseded attempt.
  if (p->status.phase != PodPhase::kCreating &&
      p->status.phase != PodPhase::kRunning) {
    return;
  }
  auto rec_it = records_.find(name);
  if (rec_it == records_.end()) return;
  PodRecord& rec = rec_it->second;

  // Stock kubelet: the backoff counter resets once the container has run
  // healthily for backoff_reset_after (10 min by default).
  if (rec.running && node_.kernel().now() - rec.running_since >=
                         config_.backoff_reset_after) {
    rec.consecutive_failures = 0;
  }
  rec.running = false;

  if (status.code() == ErrorCode::kResourceExhausted) {
    p->status.oom_killed = true;
    p->status.reason = "OOMKilled";
    node_.obs().metrics.counter("wasmctr_oom_kills_total").inc();
    if (!p->spec.tenant.empty()) {
      node_.obs()
          .metrics
          .counter("wasmctr_oom_kills_total",
                   "tenant=\"" + p->spec.tenant + "\"")
          .inc();
    }
  } else {
    p->status.reason = status.is_transient() ? "Unavailable" : "Error";
  }

  // restartPolicy decision: Always/OnFailure restart any retryable
  // failure. Never still retries *transient infrastructure* errors — the
  // sync loop re-runs regardless of policy when no container ever exited.
  const bool restart =
      is_retryable_failure_code(status.code()) &&
      (rec.policy == RestartPolicy::kAlways ||
       rec.policy == RestartPolicy::kOnFailure ||
       (rec.policy == RestartPolicy::kNever &&
        is_transient_code(status.code())));
  if (!restart) {
    fail_pod(name, status);  // tears down the full sandbox
    return;
  }

  // Restarting: keep the sandbox (pause container, netns, pod cgroup)
  // and remove only the dead container. Failures before the sandbox
  // existed take the full path.
  if (!p->status.sandbox_id.empty()) {
    teardown_container(*p);
  } else {
    teardown_sandbox(*p);
  }

  ++rec.consecutive_failures;
  ++restarts_total_;
  p->status.restart_count += 1;
  const SimDuration delay = backoff_delay(rec.consecutive_failures);
  p->status.phase = PodPhase::kCrashLoopBackOff;
  p->status.message = status.to_string();
  // A failure mid-startup closes the open attempt timeline; the retry
  // opens a fresh one. Failures after Running find no open timeline.
  node_.obs().tracer.pod_end(name, "CrashLoopBackOff");
  node_.obs().metrics.counter("wasmctr_crashloop_backoffs_total").inc();
  {
    const obs::SpanId ev =
        node_.obs().tracer.instant("crashloop.backoff", "k8s");
    node_.obs().tracer.set_attr(ev, "pod", name);
    node_.obs().tracer.set_attr(
        ev, "attempt", std::to_string(rec.consecutive_failures));
    char delay_s[32];
    std::snprintf(delay_s, sizeof(delay_s), "%.3f", to_seconds(delay));
    node_.obs().tracer.set_attr(ev, "delay_s", delay_s);
  }
  api_.notify_status(name);
  backoff_trace_.push_back(
      {name, rec.consecutive_failures, delay, node_.kernel().now()});
  WASMCTR_LOG(kInfo, "kubelet")
      << "pod " << name << " in CrashLoopBackOff (attempt "
      << rec.consecutive_failures << ", retry in " << to_seconds(delay)
      << "s): " << status.to_string();
  const uint32_t epoch = epoch_;
  node_.kernel().schedule_after(delay, [this, name, epoch] {
    if (down_ || epoch != epoch_) return;  // node crashed while backing off
    Pod* pod = api_.pod(name);
    if (pod == nullptr || pod->status.phase != PodPhase::kCrashLoopBackOff) {
      return;  // deleted (or evicted) while backing off
    }
    pod->status.phase = PodPhase::kCreating;
    // Fresh attempt timeline covering the restart path (not the backoff
    // wait, which is idle time, not startup work).
    node_.obs().tracer.pod_phase(name, "kubelet.sync", "k8s");
    if (!pod->status.sandbox_id.empty()) {
      ++in_place_restarts_;
      restart_container(name);
    } else {
      start_pod(name);
    }
  });
}

}  // namespace wasmctr::k8s
