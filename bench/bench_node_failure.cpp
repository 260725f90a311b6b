// Node-failure bench — the paper's density-400 deployment spread across a
// 4-worker cluster, then node-level faults injected mid-traffic on top of
// a 10 % container-fault background (DESIGN.md §10): node-1 is killed
// outright (sandboxes die, kubelet state resets) and node-2 is partitioned
// from the control plane for 55 s (pods keep serving, heartbeats stop).
// The control plane must notice via missed heartbeats, evict exactly the
// dead node's pods after grace (40 s) + tolerance (60 s), reschedule the
// replacements onto Ready survivors, and re-admit both nodes — while
// ≥ 99 % of requests are eventually served, with zero leaked scheduler
// slots or kubelet pod-memory entries and byte-identical same-seed fault
// and node-lifecycle traces. The sub-eviction partition must cause zero
// pod churn.
//
// `--export <path>` additionally writes the fault / lifecycle / endpoint /
// request traces to a file so CI can cmp two invocations byte for byte.
#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

#include "bench_support/report.hpp"
#include "serve/traffic.hpp"

using namespace wasmctr;
using namespace wasmctr::bench;

namespace {

constexpr uint32_t kWorkers = 4;
constexpr uint32_t kReplicasPerClass = 200;  // 400 pods total, 100/worker
constexpr uint32_t kRequestsPerClass = 1200;
constexpr double kRateRps = 10.0;  // 120 s of arrivals spans the fault arc
constexpr double kCrashAt = 10.0;  // seconds after traffic start
constexpr double kPartitionAt = 30.0;
constexpr double kPartitionWindow = 55.0;  // NotReady, but back pre-eviction
constexpr double kRecoverAt = 260.0;       // reboot node-1 post-eviction

struct ClassStats {
  std::string runtime_class;
  uint32_t served = 0;
  uint32_t failed = 0;
  uint32_t retries = 0;
  uint32_t cold = 0;
  uint32_t warm = 0;
  serve::LatencyStats lat;
  double recovery_s = -1;  // crash → ready replicas back at spec
  std::string trace;
};

struct NodeFailureRun {
  uint32_t steady_ready = 0;  // before any node fault
  uint32_t final_ready = 0;
  uint32_t evicted = 0;
  uint32_t not_ready = 0;
  uint32_t readmitted = 0;
  double eviction_s = -1;  // crash → NodeLost evictions observed
  std::size_t min_endpoints = 0;
  uint32_t bound_total = 0;
  uint32_t dead_node_bound = 0;
  uint32_t records_total = 0;
  uint32_t dead_node_records = 0;
  uint32_t partitioned_recovered = 0;
  uint32_t partitioned_stale_gced = 0;
  uint32_t unschedulable = 0;
  bool dead_node_ready_again = false;
  uint64_t faults_injected = 0;
  std::string fault_trace;
  std::string lifecycle_trace;
  std::string endpoints_trace;
  ClassStats wasm;
  ClassStats py;
};

serve::DeploymentSpec deployment(const std::string& name,
                                 const std::string& image,
                                 const std::string& runtime_class,
                                 uint64_t memory_limit) {
  serve::DeploymentSpec spec;
  spec.name = name;
  spec.replicas = kReplicasPerClass;
  spec.pod_template.image = image;
  spec.pod_template.runtime_class = runtime_class;
  spec.pod_template.restart_policy = k8s::RestartPolicy::kOnFailure;
  spec.pod_template.memory_limit = memory_limit;
  return spec;
}

NodeFailureRun run_cell() {
  k8s::ClusterOptions opts;
  opts.workers = kWorkers;
  opts.restart_policy = k8s::RestartPolicy::kOnFailure;
  k8s::Cluster cluster(opts);
  // 10 % lifecycle-fault background on every container path; node kinds
  // are excluded from the sweep — the kill and the partition below are
  // injected deterministically instead.
  cluster.faults().set_rate_all(0.10);
  cluster.faults().set_max_faults_per_target(3);

  k8s::Service wsvc;
  wsvc.name = "wasm-svc";
  wsvc.selector = {{"app", "wsrv"}};
  wsvc.policy = k8s::LbPolicy::kLeastOutstanding;
  k8s::Service psvc;
  psvc.name = "py-svc";
  psvc.selector = {{"app", "psrv"}};
  psvc.policy = k8s::LbPolicy::kRoundRobin;
  if (!cluster.api().create_service(wsvc).is_ok() ||
      !cluster.api().create_service(psvc).is_ok() ||
      !cluster.deployments()
           .create(deployment("wsrv", "request-service:wasm", "crun-wamr",
                              64ull << 20))
           .is_ok() ||
      !cluster.deployments()
           .create(deployment("psrv", "request-service:python", "runc", 0))
           .is_ok()) {
    std::fprintf(stderr, "node-failure bench: setup failed\n");
    std::exit(1);
  }
  // Lifecycle loops never quiesce, so drive in steps until every replica
  // is Ready: background faults can chain across kinds on an unlucky pod,
  // each restart doubling its CrashLoopBackOff delay, so the drain tail
  // varies with the fault plan: an unlucky pod can burn its per-kind
  // fault budget across several kinds, stacking capped 300 s backoffs
  // (bounded here at 3000 s of sim time — fractions of a real second).
  uint32_t steady = 0;
  for (int i = 0; i < 600 && steady < 2 * kReplicasPerClass; ++i) {
    cluster.run_for(sim_s(5.0));
    steady = cluster.deployments().ready_replicas("wsrv") +
             cluster.deployments().ready_replicas("psrv");
  }

  NodeFailureRun r;
  r.steady_ready = steady;

  serve::TrafficOptions wopts;
  wopts.service = "wasm-svc";
  wopts.total_requests = kRequestsPerClass;
  wopts.rate_rps = kRateRps;
  wopts.seed = 0x7001;
  serve::TrafficDriver wasm_driver(cluster.kernel(), cluster.api(),
                                   cluster.cri(), cluster.endpoints(),
                                   wopts);
  serve::TrafficOptions popts = wopts;
  popts.service = "py-svc";
  popts.seed = 0x7002;
  serve::TrafficDriver py_driver(cluster.kernel(), cluster.api(),
                                 cluster.cri(), cluster.endpoints(), popts);
  // Container ids are per-node: route each attempt to the containerd of
  // the pod's bound node.
  const auto resolver = [&cluster](const std::string& node) {
    return cluster.cri_for(node);
  };
  wasm_driver.set_cri_resolver(resolver);
  py_driver.set_cri_resolver(resolver);
  wasm_driver.start();
  py_driver.start();

  sim::Kernel& kernel = cluster.kernel();
  const double t0 = to_seconds(kernel.now());
  kernel.schedule_after(sim_s(kCrashAt), [&cluster] { cluster.crash_node(1); });
  kernel.schedule_after(sim_s(kPartitionAt), [&cluster] {
    cluster.partition_node(2, sim_s(kPartitionWindow));
  });
  kernel.schedule_after(sim_s(kRecoverAt),
                        [&cluster] { cluster.recover_node(1); });

  // Drive in 5 s steps, sampling endpoint availability and the recovery
  // milestones. ready_replicas stays at spec until the eviction (stale
  // Running pods on the dead node), so recovery timing gates on it.
  const auto eps = [&cluster](const char* svc) {
    const k8s::Endpoints* e = cluster.endpoints().endpoints(svc);
    return e == nullptr ? std::size_t{0} : e->ready.size();
  };
  r.min_endpoints = eps("wasm-svc") + eps("py-svc");
  // At least 300 s (the reboot at +260 s must land inside the window),
  // then until both classes are back at spec; generously bounded for a
  // replacement whose own restarts chain into deep backoff.
  for (int tick = 0; tick < 600; ++tick) {
    if (tick >= 60 && r.wasm.recovery_s >= 0 && r.py.recovery_s >= 0) break;
    cluster.run_for(sim_s(5.0));
    r.min_endpoints =
        std::min(r.min_endpoints, eps("wasm-svc") + eps("py-svc"));
    const double rel = to_seconds(kernel.now()) - t0;
    if (r.eviction_s < 0 && cluster.lifecycle().pods_evicted() > 0) {
      r.eviction_s = rel - kCrashAt;
    }
    if (r.eviction_s >= 0) {
      if (r.wasm.recovery_s < 0 &&
          cluster.deployments().ready_replicas("wsrv") == kReplicasPerClass) {
        r.wasm.recovery_s = rel - kCrashAt;
      }
      if (r.py.recovery_s < 0 &&
          cluster.deployments().ready_replicas("psrv") == kReplicasPerClass) {
        r.py.recovery_s = rel - kCrashAt;
      }
    }
  }

  r.final_ready = cluster.deployments().ready_replicas("wsrv") +
                  cluster.deployments().ready_replicas("psrv");
  r.evicted = cluster.lifecycle().pods_evicted();
  r.not_ready = cluster.lifecycle().nodes_marked_not_ready();
  r.readmitted = cluster.lifecycle().nodes_readmitted();
  r.bound_total = cluster.scheduler().bound_count();
  r.dead_node_bound = cluster.scheduler().node_bound("node-1");
  for (uint32_t i = 0; i < kWorkers; ++i) {
    r.records_total += cluster.kubelet(i).record_count();
  }
  r.dead_node_records = cluster.kubelet(1).record_count();
  r.partitioned_recovered = cluster.kubelet(2).pods_recovered();
  r.partitioned_stale_gced = cluster.kubelet(2).stale_pods_gced();
  r.unschedulable = cluster.scheduler().unschedulable_count();
  const k8s::NodeObject* dead = cluster.api().node_object("node-1");
  r.dead_node_ready_again = dead != nullptr && dead->ready;
  r.faults_injected = cluster.faults().faults_injected();
  r.fault_trace = cluster.faults().trace_string();
  r.lifecycle_trace = cluster.lifecycle().trace_string();
  r.endpoints_trace = cluster.endpoints().trace_string();
  const auto collect = [](const serve::TrafficDriver& d, const char* cls,
                          ClassStats& s) {
    s.runtime_class = cls;
    s.served = d.served();
    s.failed = d.failed();
    s.retries = d.retries();
    s.cold = d.cold_hits();
    s.warm = d.warm_hits();
    s.lat = d.latency();
    s.trace = d.trace_string();
  };
  collect(wasm_driver, "crun-wamr", r.wasm);
  collect(py_driver, "runc-python", r.py);
  return r;
}

void print_class(const ClassStats& s) {
  std::printf("%-12s %6u %6u %7u %5u %5u %9.2f %9.2f %9.2f %10.1f\n",
              s.runtime_class.c_str(), s.served, s.failed, s.retries, s.cold,
              s.warm, s.lat.p50_ms, s.lat.p95_ms, s.lat.p99_ms,
              s.recovery_s);
}

}  // namespace

int main(int argc, char** argv) {
  const std::string export_path =
      parse_args(argc, argv, kFlagExport).export_path;

  std::printf(
      "node-failure: density 400 across %u workers (wasm=crun-wamr, "
      "python=runc), 10 %% container-fault background;\n"
      "node-1 killed at +%.0f s, node-2 partitioned %.0f s at +%.0f s "
      "(grace 40 s + tolerance 60 s => eviction ~+%.0f s)\n\n",
      kWorkers, kCrashAt, kPartitionWindow, kPartitionAt, kCrashAt + 105.0);
  std::printf("%-12s %6s %6s %7s %5s %5s %9s %9s %9s %10s\n", "class",
              "served", "failed", "retries", "cold", "warm", "p50-ms",
              "p95-ms", "p99-ms", "recovery-s");

  const NodeFailureRun r = run_cell();
  print_class(r.wasm);
  print_class(r.py);
  const uint32_t density = 2 * kReplicasPerClass;
  std::printf(
      "\nevicted=%u  node transitions: not-ready=%u readmitted=%u\n"
      "availability: min ready endpoints %zu/%u (dip %.1f %%)\n"
      "time-to-eviction +%.1f s after the kill; rescheduled wasm +%.1f s, "
      "python +%.1f s\n\n",
      r.evicted, r.not_ready, r.readmitted, r.min_endpoints, density,
      100.0 * (density - static_cast<double>(r.min_endpoints)) / density,
      r.eviction_s, r.wasm.recovery_s, r.py.recovery_s);

  ShapeChecks checks;
  checks.check(r.steady_ready == density, "steady state before the faults",
               density, r.steady_ready);
  for (const ClassStats* s : {&r.wasm, &r.py}) {
    const auto total = static_cast<double>(s->served + s->failed);
    checks.check(s->served >= 0.99 * total,
                 s->runtime_class + " >=99% requests eventually served",
                 99.0, 100.0 * s->served / total);
    checks.check(s->cold + s->warm == s->served,
                 s->runtime_class + " cold+warm bookkeeping");
    checks.check(s->recovery_s > 0,
                 s->runtime_class + " replicas back at spec post-eviction");
  }
  checks.check(r.wasm.retries + r.py.retries > 0,
               "traffic rerouted around the dead node (retry path)");
  checks.check(r.evicted == density / kWorkers,
               "exactly the dead node's pods evicted (NodeLost)",
               density / kWorkers, r.evicted);
  checks.check(r.partitioned_recovered == 0 && r.partitioned_stale_gced == 0,
               "sub-eviction partition caused zero pod churn");
  checks.check(r.dead_node_bound == 0,
               "replacements bound to Ready survivors only", 0,
               r.dead_node_bound);
  checks.check(r.final_ready == density, "ready replicas back at spec",
               density, r.final_ready);
  checks.check(r.bound_total == density, "zero leaked scheduler slots",
               density, r.bound_total);
  checks.check(r.records_total == density && r.dead_node_records == 0,
               "zero leaked kubelet pod-memory entries", density,
               r.records_total);
  checks.check(r.unschedulable == 0, "no pod left unschedulable", 0,
               r.unschedulable);
  checks.check(r.dead_node_ready_again,
               "rebooted node re-admitted as Ready");

  // Determinism: the full scenario again, same seed — fault plan and every
  // trace must agree byte for byte.
  const NodeFailureRun again = run_cell();
  checks.check(again.fault_trace == r.fault_trace && !r.fault_trace.empty(),
               "same-seed identical fault trace");
  checks.check(
      again.lifecycle_trace == r.lifecycle_trace &&
          !r.lifecycle_trace.empty(),
      "same-seed identical node-lifecycle trace");
  checks.check(again.endpoints_trace == r.endpoints_trace,
               "same-seed identical endpoint churn");
  checks.check(again.wasm.trace == r.wasm.trace &&
                   again.py.trace == r.py.trace,
               "same-seed identical request traces");
  checks.check(again.faults_injected == r.faults_injected,
               "same-seed identical fault plan",
               static_cast<double>(r.faults_injected),
               static_cast<double>(again.faults_injected));

  if (!export_path.empty()) {
    std::string blob;
    blob += "== fault trace ==\n" + r.fault_trace;
    blob += "== node lifecycle trace ==\n" + r.lifecycle_trace;
    blob += "== endpoints trace ==\n" + r.endpoints_trace;
    blob += "== wasm request trace ==\n" + r.wasm.trace;
    blob += "== python request trace ==\n" + r.py.trace;
    write_export(export_path, blob);
  }
  return checks.summarize("node_failure");
}
