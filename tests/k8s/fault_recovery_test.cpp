// Failure-recovery tests: fault injection through the whole stack,
// CrashLoopBackOff timing on the virtual clock, the restart-policy
// matrix, OOM-kill propagation, node-pressure eviction, and the node
// bookkeeping (slots, kubelet memory) that earlier versions leaked.
#include <gtest/gtest.h>

#include "k8s/cluster.hpp"

namespace wasmctr::k8s {
namespace {

using sim::FaultKind;

TEST(FaultRecoveryTest, TransientCriFaultRecoversUnderPolicyNever) {
  // restartPolicy=Never still retries *transient infrastructure* errors:
  // no container ever exited, the sync loop just runs again.
  Cluster cluster;
  cluster.node().faults().set_rate(FaultKind::kCriTransient, 1.0);
  cluster.node().faults().set_max_faults_per_target(2);
  ASSERT_TRUE(cluster.deploy(DeployConfig::kCrunWamr, 1, "t").is_ok());
  cluster.run();

  EXPECT_EQ(cluster.running_count(), 1u);
  EXPECT_EQ(cluster.failed_count(), 0u);
  const Pod* pod = cluster.api().pod("t-crun-wamr-0");
  ASSERT_NE(pod, nullptr);
  EXPECT_EQ(pod->status.restart_count, 2u);
  EXPECT_FALSE(pod->status.oom_killed);
  EXPECT_EQ(cluster.node().faults().faults_injected(), 2u);

  const auto& trace = cluster.kubelet().backoff_trace();
  ASSERT_EQ(trace.size(), 2u);
  EXPECT_EQ(trace[0].delay, sim_s(10.0));
  EXPECT_EQ(trace[1].delay, sim_s(20.0));
}

TEST(FaultRecoveryTest, BackoffFollowsStockKubeletCurve) {
  // Six consecutive failures walk the stock curve: 10, 20, 40, 80, 160,
  // then the 300 s (5 min) cap.
  Cluster cluster;
  cluster.node().faults().set_rate(FaultKind::kSandboxCreate, 1.0);
  cluster.node().faults().set_rate(FaultKind::kCriTransient, 1.0);
  cluster.node().faults().set_max_faults_per_target(3);
  ASSERT_TRUE(cluster.deploy(DeployConfig::kCrunWamr, 1, "b").is_ok());
  cluster.run();

  EXPECT_EQ(cluster.running_count(), 1u);
  const auto& trace = cluster.kubelet().backoff_trace();
  ASSERT_EQ(trace.size(), 6u);
  const double expected[] = {10, 20, 40, 80, 160, 300};
  for (std::size_t i = 0; i < 6; ++i) {
    EXPECT_EQ(trace[i].attempt, i + 1);
    EXPECT_EQ(trace[i].delay, sim_s(expected[i])) << "attempt " << i + 1;
  }
  // The backoff gaps are real virtual-clock waits between attempts.
  for (std::size_t i = 1; i < 6; ++i) {
    EXPECT_GE(trace[i].at - trace[i - 1].at, trace[i - 1].delay);
  }
}

TEST(FaultRecoveryTest, WasmTrapTerminalUnderPolicyNever) {
  Cluster cluster;  // deploy() stamps restartPolicy=Never by default
  cluster.node().faults().set_rate(FaultKind::kWasmTrap, 1.0);
  cluster.node().faults().set_max_faults_per_target(1);
  ASSERT_TRUE(cluster.deploy(DeployConfig::kCrunWamr, 1, "trap").is_ok());
  cluster.run();

  EXPECT_EQ(cluster.running_count(), 0u);
  EXPECT_EQ(cluster.failed_count(), 1u);
  const Pod* pod = cluster.api().pod("trap-crun-wamr-0");
  ASSERT_NE(pod, nullptr);
  EXPECT_EQ(pod->status.phase, PodPhase::kFailed);
  EXPECT_EQ(pod->status.reason, "Error");
  EXPECT_EQ(pod->status.restart_count, 0u);
  EXPECT_TRUE(cluster.kubelet().backoff_trace().empty());
}

TEST(FaultRecoveryTest, WasmTrapRecoversUnderRestartPolicies) {
  for (const RestartPolicy policy :
       {RestartPolicy::kOnFailure, RestartPolicy::kAlways}) {
    ClusterOptions opts;
    opts.restart_policy = policy;
    Cluster cluster(opts);
    cluster.node().faults().set_rate(FaultKind::kWasmTrap, 1.0);
    cluster.node().faults().set_max_faults_per_target(1);
    ASSERT_TRUE(cluster.deploy(DeployConfig::kCrunWamr, 1, "trap").is_ok());
    cluster.run();

    EXPECT_EQ(cluster.running_count(), 1u) << restart_policy_name(policy);
    const Pod* pod = cluster.api().pod("trap-crun-wamr-0");
    ASSERT_NE(pod, nullptr);
    EXPECT_EQ(pod->status.restart_count, 1u) << restart_policy_name(policy);
    EXPECT_EQ(cluster.kubelet().restarts_total(), 1u);
  }
}

TEST(FaultRecoveryTest, InjectedOomKillRecoversUnderPolicyOnFailure) {
  ClusterOptions opts;
  opts.restart_policy = RestartPolicy::kOnFailure;
  Cluster cluster(opts);
  cluster.node().faults().set_rate(FaultKind::kOomKill, 1.0);
  cluster.node().faults().set_max_faults_per_target(1);
  ASSERT_TRUE(cluster.deploy(DeployConfig::kCrunWamr, 1, "oom").is_ok());
  cluster.run();

  EXPECT_EQ(cluster.running_count(), 1u);
  const Pod* pod = cluster.api().pod("oom-crun-wamr-0");
  ASSERT_NE(pod, nullptr);
  EXPECT_EQ(pod->status.restart_count, 1u);
  EXPECT_TRUE(pod->status.oom_killed) << "the OOM kill must be recorded";
  EXPECT_TRUE(pod->status.reason.empty()) << "recovered pods clear reason";
}

TEST(FaultRecoveryTest, ShimAndEngineFaultsRecoverOnBothCriPaths) {
  // The runc-shim path and the runwasi path take different code routes to
  // the same recovery behaviour.
  for (const DeployConfig config :
       {DeployConfig::kCrunWamr, DeployConfig::kShimWasmtime}) {
    ClusterOptions opts;
    opts.restart_policy = RestartPolicy::kOnFailure;
    Cluster cluster(opts);
    cluster.node().faults().set_rate(FaultKind::kShimCrash, 1.0);
    cluster.node().faults().set_rate(FaultKind::kEngineInstantiate, 1.0);
    cluster.node().faults().set_max_faults_per_target(1);
    ASSERT_TRUE(cluster.deploy(config, 2, "s").is_ok());
    cluster.run();
    EXPECT_EQ(cluster.running_count(), 2u) << deploy_config_name(config);
    EXPECT_EQ(cluster.failed_count(), 0u) << deploy_config_name(config);
    EXPECT_GE(cluster.node().faults().faults_injected(), 2u);
  }
}

TEST(FaultRecoveryTest, TerminalFailureReleasesSlotAndKubeletMemory) {
  // Regression: active_pods_ was never decremented and the per-pod
  // kubelet charge never returned, so failed pods permanently consumed
  // node capacity and memory.
  ClusterOptions opts;
  opts.max_pods = 2;
  Cluster cluster(opts);
  const Bytes baseline = cluster.node().memory().anon_total();
  cluster.node().faults().set_rate(FaultKind::kWasmTrap, 1.0);
  ASSERT_TRUE(cluster.deploy(DeployConfig::kCrunWamr, 2, "bad").is_ok());
  cluster.run();
  EXPECT_EQ(cluster.failed_count(), 2u);
  EXPECT_EQ(cluster.kubelet().active_pods(), 0u)
      << "terminal failures must release their slots";
  EXPECT_EQ(cluster.node().memory().anon_total().value, baseline.value)
      << "terminal failures must release kubelet bookkeeping + sandbox";

  // The freed capacity is reusable once the failed pods are deleted
  // (deletion also returns the scheduler binding).
  cluster.node().faults().set_rate(FaultKind::kWasmTrap, 0.0);
  ASSERT_TRUE(cluster.api().delete_pod("bad-crun-wamr-0").is_ok());
  ASSERT_TRUE(cluster.api().delete_pod("bad-crun-wamr-1").is_ok());
  ASSERT_TRUE(cluster.deploy(DeployConfig::kCrunWamr, 2, "good").is_ok());
  cluster.run();
  EXPECT_EQ(cluster.running_count(), 2u);
  EXPECT_EQ(cluster.kubelet().active_pods(), 2u);
}

TEST(FaultRecoveryTest, DeletingRunningPodReleasesEverything) {
  ClusterOptions opts;
  opts.max_pods = 1;
  Cluster cluster(opts);
  ASSERT_TRUE(cluster.deploy(DeployConfig::kCrunWamr, 1, "first").is_ok());
  cluster.run();
  ASSERT_EQ(cluster.running_count(), 1u);
  ASSERT_EQ(cluster.cri().sandbox_count(), 1u);

  ASSERT_TRUE(cluster.api().delete_pod("first-crun-wamr-0").is_ok());
  EXPECT_EQ(cluster.kubelet().active_pods(), 0u);
  EXPECT_EQ(cluster.cri().sandbox_count(), 0u)
      << "deletion must tear down the sandbox";

  ASSERT_TRUE(cluster.deploy(DeployConfig::kCrunWamr, 1, "second").is_ok());
  cluster.run();
  EXPECT_EQ(cluster.running_count(), 1u);
}

TEST(FaultRecoveryTest, PostRunningOomKillRestartsPerPolicy) {
  Cluster cluster;
  PodSpec spec;
  spec.name = "spiky";
  spec.image = "microservice:wasm";
  spec.runtime_class = "crun-wamr";
  spec.memory_limit = 32ull << 20;  // enough to start, not to spike
  spec.restart_policy = RestartPolicy::kOnFailure;
  ASSERT_TRUE(cluster.deploy_pod(std::move(spec)).is_ok());
  cluster.run();
  const Pod* pod = cluster.api().pod("spiky");
  ASSERT_NE(pod, nullptr);
  ASSERT_EQ(pod->status.phase, PodPhase::kRunning);
  const std::string first_container = pod->status.container_id;

  // The workload allocates past memory.max: kernel OOM kill (exit 137),
  // observed by the kubelet through the CRI exit watch.
  const Status oom =
      cluster.cri().grow_container_memory(first_container, Bytes(64ull << 20));
  EXPECT_EQ(oom.code(), ErrorCode::kResourceExhausted);
  EXPECT_EQ(pod->status.phase, PodPhase::kCrashLoopBackOff);
  EXPECT_TRUE(pod->status.oom_killed);

  cluster.run();  // serve the backoff timer + restart
  EXPECT_EQ(pod->status.phase, PodPhase::kRunning);
  EXPECT_EQ(pod->status.restart_count, 1u);
  EXPECT_NE(pod->status.container_id, first_container);
  const auto& trace = cluster.kubelet().backoff_trace();
  ASSERT_EQ(trace.size(), 1u);
  EXPECT_EQ(trace[0].delay, sim_s(10.0));
}

TEST(FaultRecoveryTest, HealthyRunResetsBackoffCounter) {
  // With backoff_reset_after = 0, any failure after a Running phase
  // counts as "ran healthily first": the counter restarts at 1 and the
  // delay stays at the 10 s base instead of doubling.
  ClusterOptions opts;
  opts.backoff_reset_after = sim_s(0.0);
  Cluster cluster(opts);
  PodSpec spec;
  spec.name = "leaky";
  spec.image = "microservice:wasm";
  spec.runtime_class = "crun-wamr";
  spec.memory_limit = 32ull << 20;
  spec.restart_policy = RestartPolicy::kOnFailure;
  ASSERT_TRUE(cluster.deploy_pod(std::move(spec)).is_ok());
  cluster.run();

  for (int round = 0; round < 2; ++round) {
    const Pod* pod = cluster.api().pod("leaky");
    ASSERT_EQ(pod->status.phase, PodPhase::kRunning);
    EXPECT_EQ(cluster.cri()
                  .grow_container_memory(pod->status.container_id,
                                         Bytes(64ull << 20))
                  .code(),
              ErrorCode::kResourceExhausted);
    cluster.run();
  }
  const auto& trace = cluster.kubelet().backoff_trace();
  ASSERT_EQ(trace.size(), 2u);
  EXPECT_EQ(trace[0].attempt, 1u);
  EXPECT_EQ(trace[1].attempt, 1u) << "healthy run must reset the counter";
  EXPECT_EQ(trace[1].delay, sim_s(10.0)) << "delay must not double";
  EXPECT_EQ(cluster.api().pod("leaky")->status.restart_count, 2u);
}

TEST(FaultRecoveryTest, EvictionPrefersHighestUsageNoLimitPod) {
  ClusterOptions opts;
  opts.eviction_min_available = Bytes(250ull << 30);  // 250 GiB floor
  Cluster cluster(opts);
  ASSERT_TRUE(cluster.deploy(DeployConfig::kCrunWamr, 3, "mem").is_ok());
  PodSpec limited;
  limited.name = "limited";
  limited.image = "microservice:wasm";
  limited.runtime_class = "crun-wamr";
  limited.memory_limit = 64ull << 20;
  ASSERT_TRUE(cluster.deploy_pod(std::move(limited)).is_ok());
  cluster.run();
  ASSERT_EQ(cluster.running_count(), 4u);

  // One no-limit pod balloons by 20 GiB, dragging available below the
  // eviction floor.
  const std::string hog = "mem-crun-wamr-0";
  ASSERT_TRUE(cluster.cri()
                  .grow_container_memory(
                      cluster.api().pod(hog)->status.container_id,
                      Bytes(20ull << 30))
                  .is_ok());

  // The next admission triggers the pressure check: the hog is evicted
  // (highest usage, no limit); smaller and limited pods survive.
  ASSERT_TRUE(cluster.deploy(DeployConfig::kCrunWamr, 1, "late").is_ok());
  cluster.run();

  EXPECT_EQ(cluster.kubelet().pods_evicted(), 1u);
  EXPECT_EQ(cluster.api().pod(hog)->status.phase, PodPhase::kEvicted);
  EXPECT_EQ(cluster.api().pod(hog)->status.reason, "Evicted");
  EXPECT_EQ(cluster.api().pod("mem-crun-wamr-1")->status.phase,
            PodPhase::kRunning);
  EXPECT_EQ(cluster.api().pod("mem-crun-wamr-2")->status.phase,
            PodPhase::kRunning);
  EXPECT_EQ(cluster.api().pod("limited")->status.phase, PodPhase::kRunning)
      << "pods with a memory limit keep their reservation";
  EXPECT_EQ(cluster.api().pod("late-crun-wamr-0")->status.phase,
            PodPhase::kRunning)
      << "the admission that triggered eviction must succeed";
}

TEST(FaultRecoveryTest, AllPodsRecoverUnderMixedFaults) {
  ClusterOptions opts;
  opts.restart_policy = RestartPolicy::kOnFailure;
  Cluster cluster(opts);
  cluster.node().faults().set_rate_all(0.10);
  cluster.node().faults().set_max_faults_per_target(3);
  ASSERT_TRUE(cluster.deploy(DeployConfig::kCrunWamr, 30).is_ok());
  cluster.run();
  EXPECT_EQ(cluster.running_count(), 30u) << "every pod must recover";
  EXPECT_EQ(cluster.failed_count(), 0u);
  EXPECT_GT(cluster.node().faults().faults_injected(), 0u)
      << "a 10 % rate over 30 pods must inject something";
}

TEST(FaultRecoveryTest, InterpreterStartFaultPolicyMatrix) {
  // ISSUE 3 satellite 2: the Python (crun/runc) path has its own start
  // fault — the interpreter fails to come up. It surfaces as a transient
  // kUnavailable, so every policy (including Never) retries through
  // CrashLoopBackOff and recovers once the fault cap is hit.
  for (const DeployConfig config :
       {DeployConfig::kRuncPython, DeployConfig::kCrunPython}) {
    for (const RestartPolicy policy :
         {RestartPolicy::kNever, RestartPolicy::kOnFailure,
          RestartPolicy::kAlways}) {
      ClusterOptions opts;
      opts.restart_policy = policy;
      Cluster cluster(opts);
      cluster.node().faults().set_rate(FaultKind::kInterpreterStart, 1.0);
      cluster.node().faults().set_max_faults_per_target(2);
      ASSERT_TRUE(cluster.deploy(config, 1, "py").is_ok());
      cluster.run();

      const std::string label = std::string(deploy_config_name(config)) +
                                "/" + restart_policy_name(policy);
      EXPECT_EQ(cluster.running_count(), 1u) << label;
      EXPECT_EQ(cluster.failed_count(), 0u) << label;
      EXPECT_EQ(cluster.node().faults().faults_injected(), 2u) << label;
      EXPECT_EQ(cluster.kubelet().backoff_trace().size(), 2u) << label;
      EXPECT_NE(cluster.node().faults().trace_string().find(
                    "interpreter-start"),
                std::string::npos)
          << label;
    }
  }
}

TEST(FaultRecoveryTest, InterpreterStartFaultDoesNotFireOnWasmPath) {
  Cluster cluster;
  cluster.node().faults().set_rate(FaultKind::kInterpreterStart, 1.0);
  ASSERT_TRUE(cluster.deploy(DeployConfig::kCrunWamr, 2, "w").is_ok());
  cluster.run();
  EXPECT_EQ(cluster.running_count(), 2u);
  EXPECT_EQ(cluster.node().faults().faults_injected(), 0u)
      << "interpreter-start is a Python-path fault only";
}

TEST(FaultRecoveryTest, InPlaceRestartFasterThanFullRecreation) {
  // An OnFailure restart reuses the existing sandbox (no CNI, no pause
  // container, no RunPodSandbox cost), so recovering a crashed container
  // must beat creating the same pod from scratch.
  auto running_at = [](bool fault) {
    ClusterOptions opts;
    opts.restart_policy = RestartPolicy::kOnFailure;
    Cluster cluster(opts);
    if (fault) {
      cluster.node().faults().set_rate(FaultKind::kEngineInstantiate, 1.0);
      cluster.node().faults().set_max_faults_per_target(1);
    }
    EXPECT_TRUE(cluster.deploy(DeployConfig::kCrunWamr, 1, "r").is_ok());
    cluster.run();
    const Pod* pod = cluster.api().pod("r-crun-wamr-0");
    EXPECT_NE(pod, nullptr);
    EXPECT_EQ(pod->status.phase, PodPhase::kRunning);
    EXPECT_EQ(pod->status.restart_count, fault ? 1u : 0u);
    EXPECT_EQ(cluster.kubelet().in_place_restarts(), fault ? 1u : 0u);
    if (!fault) return pod->status.running_at;
    // Recovery latency: backoff expiry → Running again.
    const BackoffEvent& backoff = cluster.kubelet().backoff_trace().back();
    return pod->status.running_at - (backoff.at + backoff.delay);
  };
  const SimDuration recovery = running_at(true);
  const SimTime created = running_at(false);
  EXPECT_LT(recovery, created)
      << "in-place restart must beat full sandbox creation";
  // The saving is at least the sandbox path's fixed latency (0.55 s sync
  // + CNI) minus the in-place sync cost (0.08 s).
  EXPECT_GE(created - recovery, sim_s(0.4));
}

TEST(FaultRecoveryTest, InPlaceRestartKeepsSandboxAndReplacesContainer) {
  ClusterOptions opts;
  opts.restart_policy = RestartPolicy::kOnFailure;
  Cluster cluster(opts);
  PodSpec spec;
  spec.name = "spiky";
  spec.image = "microservice:wasm";
  spec.runtime_class = "crun-wamr";
  spec.memory_limit = 32ull << 20;
  spec.restart_policy = RestartPolicy::kOnFailure;
  ASSERT_TRUE(cluster.deploy_pod(std::move(spec)).is_ok());
  cluster.run();
  const Pod* pod = cluster.api().pod("spiky");
  ASSERT_NE(pod, nullptr);
  const std::string sandbox_before = pod->status.sandbox_id;
  const std::string container_before = pod->status.container_id;
  ASSERT_EQ(cluster.cri().sandbox_count(), 1u);

  EXPECT_EQ(cluster.cri()
                .grow_container_memory(container_before, Bytes(64ull << 20))
                .code(),
            ErrorCode::kResourceExhausted);
  EXPECT_EQ(cluster.cri().sandbox_count(), 1u)
      << "the sandbox must survive the container's OOM kill";
  cluster.run();

  EXPECT_EQ(pod->status.phase, PodPhase::kRunning);
  EXPECT_EQ(pod->status.sandbox_id, sandbox_before)
      << "in-place restart must reuse the sandbox";
  EXPECT_NE(pod->status.container_id, container_before)
      << "the container itself is recreated";
  EXPECT_EQ(cluster.kubelet().in_place_restarts(), 1u);
}

TEST(FaultRecoveryTest, SameSeedIdenticalRecoveryTraces) {
  auto trace_of = [] {
    ClusterOptions opts;
    opts.restart_policy = RestartPolicy::kOnFailure;
    Cluster cluster(opts);
    cluster.node().faults().set_rate_all(0.10);
    cluster.node().faults().set_max_faults_per_target(3);
    EXPECT_TRUE(cluster.deploy(DeployConfig::kCrunWamr, 25).is_ok());
    cluster.run();
    EXPECT_EQ(cluster.running_count(), 25u);
    return std::tuple(cluster.node().faults().trace_string(),
                      cluster.kubelet().backoff_trace_string(),
                      cluster.startup_makespan());
  };
  const auto a = trace_of();
  const auto b = trace_of();
  EXPECT_EQ(std::get<0>(a), std::get<0>(b)) << "fault plans must match";
  EXPECT_EQ(std::get<1>(a), std::get<1>(b)) << "backoff traces must match";
  EXPECT_EQ(std::get<2>(a), std::get<2>(b));
}

}  // namespace
}  // namespace wasmctr::k8s
