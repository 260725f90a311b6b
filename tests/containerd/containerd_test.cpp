#include "containerd/containerd.hpp"

#include <gtest/gtest.h>

#include <algorithm>

#include "wasm/builder.hpp"
#include "wasm/workloads.hpp"

namespace wasmctr::containerd {
namespace {

// A WASI command whose _start writes 8 bytes of random_get output to
// stdout, then exits 0.
std::vector<uint8_t> build_random_printer() {
  using wasm::ValType;
  wasm::ModuleBuilder b;
  const uint32_t random_get = b.import_function(
      "wasi_snapshot_preview1", "random_get", {ValType::kI32, ValType::kI32},
      {ValType::kI32});
  const uint32_t fd_write = b.import_function(
      "wasi_snapshot_preview1", "fd_write",
      {ValType::kI32, ValType::kI32, ValType::kI32, ValType::kI32},
      {ValType::kI32});
  const uint32_t proc_exit = b.import_function(
      "wasi_snapshot_preview1", "proc_exit", {ValType::kI32}, {});
  b.add_memory(1, 1);
  wasm::FnBuilder& f = b.add_function("_start", {}, {});
  f.i32_const(64).i32_const(8).call(random_get).drop();
  // iovec{base=64, len=8} at 16, then fd_write(stdout).
  f.i32_const(16).i32_const(64).i32_store();
  f.i32_const(20).i32_const(8).i32_store();
  f.i32_const(1).i32_const(16).i32_const(1).i32_const(80).call(fd_write).drop();
  f.i32_const(0).call(proc_exit);
  f.end();
  return b.build();
}

class ContainerdTest : public ::testing::Test {
 protected:
  ContainerdTest() : images_(node_), ctrd_(node_, images_) {
    Image wasm_image;
    wasm_image.name = "svc:wasm";
    wasm_image.payload.kind = oci::Payload::Kind::kWasm;
    wasm_image.payload.wasm = wasm::build_minimal_microservice();
    wasm_image.disk_size = Bytes(8192);
    images_.add(std::move(wasm_image));
    Image random_image;
    random_image.name = "svc:random";
    random_image.payload.kind = oci::Payload::Kind::kWasm;
    random_image.payload.wasm = build_random_printer();
    random_image.disk_size = Bytes(8192);
    images_.add(std::move(random_image));
    Image request_image;
    request_image.name = "svc:request";
    request_image.payload.kind = oci::Payload::Kind::kWasm;
    request_image.payload.wasm = wasm::build_request_microservice();
    request_image.disk_size = Bytes(8192);
    images_.add(std::move(request_image));

    ctrd_.register_handler(
        "crun-wamr", {HandlerPath::kRuncV2, "crun", engines::EngineKind::kWamr});
    ctrd_.register_handler(
        "wasmtime-shim",
        {HandlerPath::kRunwasi, "", engines::EngineKind::kWasmtime});
  }

  Result<std::string> make_sandbox(const std::string& pod) {
    Result<std::string> out = internal_error("no callback");
    ctrd_.run_pod_sandbox(pod, [&](Result<std::string> r) { out = std::move(r); });
    node_.kernel().run();
    return out;
  }

  sim::Node node_;
  ImageStore images_;
  Containerd ctrd_;
};

TEST_F(ContainerdTest, SandboxCreatesPauseAndCgroup) {
  auto sb = make_sandbox("pod-a");
  ASSERT_TRUE(sb.is_ok()) << sb.status().to_string();
  auto info = ctrd_.sandbox(*sb);
  ASSERT_TRUE(info.is_ok());
  EXPECT_EQ((*info)->pod_name, "pod-a");
  EXPECT_NE((*info)->pause_pid, 0u);
  mem::Cgroup* cg = node_.cgroups().find("kubepods/pod-pod-a");
  ASSERT_NE(cg, nullptr);
  EXPECT_GE(cg->working_set().value, 300u * 1024)
      << "pause container private memory charged to the pod cgroup";
}

TEST_F(ContainerdTest, RuncV2PathRunsContainer) {
  auto sb = make_sandbox("pod-a");
  ASSERT_TRUE(sb.is_ok());
  ContainerRequest req;
  req.name = "c";
  req.image = "svc:wasm";
  Status running = internal_error("no callback");
  auto cid = ctrd_.create_and_start(*sb, req, "crun-wamr",
                                    [&](Status st) { running = std::move(st); });
  ASSERT_TRUE(cid.is_ok()) << cid.status().to_string();
  node_.kernel().run();
  ASSERT_TRUE(running.is_ok()) << running.to_string();
  auto state = ctrd_.container_state(*cid);
  ASSERT_TRUE(state.is_ok());
  EXPECT_EQ(state->state, oci::ContainerState::kRunning);
  EXPECT_EQ(state->stdout_data, "hello from wasm microservice\n");
  // One shim-runc-v2 process exists, outside pod cgroups: the node's anon
  // grew by more than the pod cgroup.
  mem::Cgroup* cg = node_.cgroups().find("kubepods/pod-pod-a");
  EXPECT_GT(node_.memory().anon_total(), cg->anon());
}

TEST_F(ContainerdTest, RunwasiPathRunsInPodCgroup) {
  auto sb = make_sandbox("pod-b");
  ASSERT_TRUE(sb.is_ok());
  ContainerRequest req;
  req.name = "c";
  req.image = "svc:wasm";
  Status running = internal_error("no callback");
  auto cid = ctrd_.create_and_start(*sb, req, "wasmtime-shim",
                                    [&](Status st) { running = std::move(st); });
  ASSERT_TRUE(cid.is_ok());
  node_.kernel().run();
  ASSERT_TRUE(running.is_ok()) << running.to_string();
  auto state = ctrd_.container_state(*cid);
  ASSERT_TRUE(state.is_ok());
  EXPECT_EQ(state->state, oci::ContainerState::kRunning);
  EXPECT_EQ(state->exit_code, 0u);
  // The shim process (engine included) is charged inside the pod cgroup.
  mem::Cgroup* cg = node_.cgroups().find("kubepods/pod-pod-b");
  ASSERT_NE(cg, nullptr);
  EXPECT_GT(cg->working_set().value, 4u << 20)
      << "runwasi shim footprint must land in the pod cgroup";
}

TEST_F(ContainerdTest, RunwasiContainersGetDistinctRandomSeeds) {
  std::vector<std::string> outputs;
  for (const char* pod : {"pod-r1", "pod-r2"}) {
    auto sb = make_sandbox(pod);
    ASSERT_TRUE(sb.is_ok());
    ContainerRequest req;
    req.name = "c";
    req.image = "svc:random";
    auto cid = ctrd_.create_and_start(*sb, req, "wasmtime-shim", nullptr);
    ASSERT_TRUE(cid.is_ok()) << cid.status().to_string();
    node_.kernel().run();
    auto state = ctrd_.container_state(*cid);
    ASSERT_TRUE(state.is_ok());
    ASSERT_EQ(state->exit_code, 0u);
    ASSERT_EQ(state->stdout_data.size(), 8u);
    outputs.push_back(state->stdout_data);
  }
  EXPECT_NE(outputs[0], outputs[1])
      << "random_get is seeded per container, as on the crun path";
}

TEST_F(ContainerdTest, UnknownHandlerRejected) {
  auto sb = make_sandbox("pod-c");
  ASSERT_TRUE(sb.is_ok());
  ContainerRequest req;
  req.name = "c";
  req.image = "svc:wasm";
  EXPECT_EQ(ctrd_.create_and_start(*sb, req, "nonexistent", nullptr)
                .status()
                .code(),
            ErrorCode::kNotFound);
}

TEST_F(ContainerdTest, RunwasiHandlerForUnshippedEngineRejected) {
  // No runwasi shim ships WAMR: the handler must be refused up front, not
  // quietly run another engine's shim under a containerd-shim-wamr name.
  ctrd_.register_handler(
      "wamr-shim", {HandlerPath::kRunwasi, "", engines::EngineKind::kWamr});
  auto sb = make_sandbox("pod-w");
  ASSERT_TRUE(sb.is_ok());
  ContainerRequest req;
  req.name = "c";
  req.image = "svc:wasm";
  bool called = false;
  EXPECT_EQ(ctrd_.create_and_start(*sb, req, "wamr-shim",
                                   [&](Status) { called = true; })
                .status()
                .code(),
            ErrorCode::kNotFound);
  node_.kernel().run();
  EXPECT_FALSE(called) << "a refused handler starts nothing";
}

TEST_F(ContainerdTest, UnknownImageRejected) {
  auto sb = make_sandbox("pod-d");
  ASSERT_TRUE(sb.is_ok());
  ContainerRequest req;
  req.name = "c";
  req.image = "missing:latest";
  EXPECT_EQ(ctrd_.create_and_start(*sb, req, "crun-wamr", nullptr)
                .status()
                .code(),
            ErrorCode::kNotFound);
}

TEST_F(ContainerdTest, RemoveSandboxReleasesEverything) {
  const mem::FreeReport before = node_.memory().free_report();
  auto sb = make_sandbox("pod-e");
  ASSERT_TRUE(sb.is_ok());
  ContainerRequest req;
  req.name = "c";
  req.image = "svc:wasm";
  ASSERT_TRUE(
      ctrd_.create_and_start(*sb, req, "crun-wamr", nullptr).is_ok());
  node_.kernel().run();
  EXPECT_GT(node_.memory().free_report().used, before.used);
  ASSERT_TRUE(ctrd_.remove_pod_sandbox(*sb).is_ok());
  const mem::FreeReport after = node_.memory().free_report();
  EXPECT_EQ(after.used, before.used) << "full teardown must restore memory";
  EXPECT_EQ(after.buffcache, before.buffcache);
  EXPECT_EQ(ctrd_.sandbox_count(), 0u);
  EXPECT_EQ(node_.procs().count(), 0u);
}

TEST_F(ContainerdTest, RemoveSandboxWithRunwasiReleasesEverything) {
  const Bytes before = node_.memory().anon_total();
  auto sb = make_sandbox("pod-f");
  ASSERT_TRUE(sb.is_ok());
  ContainerRequest req;
  req.name = "c";
  req.image = "svc:wasm";
  ASSERT_TRUE(
      ctrd_.create_and_start(*sb, req, "wasmtime-shim", nullptr).is_ok());
  node_.kernel().run();
  ASSERT_TRUE(ctrd_.remove_pod_sandbox(*sb).is_ok());
  EXPECT_EQ(node_.memory().anon_total(), before);
  EXPECT_EQ(node_.memory().shared_resident().value, 0u);
}

TEST_F(ContainerdTest, RemovedRunwasiShimsStopSlowingLaterStarts) {
  // The daemon's serialized ttrpc section grows with the *live* runwasi
  // connections it services; a shim torn down with its sandbox no longer
  // counts, so pod churn must not make later starts wait longer.
  auto start_latency = [&](const std::string& pod) {
    auto sb = make_sandbox(pod);
    EXPECT_TRUE(sb.is_ok());
    ContainerRequest req;
    req.name = "c";
    req.image = "svc:wasm";
    const SimTime t0 = node_.kernel().now();
    SimTime running_at{};
    auto cid = ctrd_.create_and_start(
        *sb, req, "wasmtime-shim", [&](Status st) {
          EXPECT_TRUE(st.is_ok()) << st.to_string();
          running_at = node_.kernel().now();
        });
    EXPECT_TRUE(cid.is_ok());
    node_.kernel().run();
    EXPECT_TRUE(ctrd_.remove_pod_sandbox(*sb).is_ok());
    return running_at - t0;
  };
  const SimDuration first = start_latency("pod-s0");
  for (int i = 1; i <= 4; ++i) start_latency("pod-s" + std::to_string(i));
  EXPECT_EQ(start_latency("pod-s5"), first);
}

TEST_F(ContainerdTest, ImageLayersCachedOncePerImage) {
  auto sb1 = make_sandbox("pod-g");
  auto sb2 = make_sandbox("pod-h");
  ASSERT_TRUE(sb1.is_ok());
  ASSERT_TRUE(sb2.is_ok());
  ContainerRequest req;
  req.name = "c";
  req.image = "svc:wasm";
  ASSERT_TRUE(ctrd_.create_and_start(*sb1, req, "crun-wamr", nullptr).is_ok());
  ASSERT_TRUE(ctrd_.create_and_start(*sb2, req, "crun-wamr", nullptr).is_ok());
  node_.kernel().run();
  EXPECT_EQ(node_.memory().page_cache().value, 8192u)
      << "two containers, one image: cached once";
}

TEST_F(ContainerdTest, HandlerNamesListed) {
  auto names = ctrd_.handler_names();
  EXPECT_EQ(names.size(), 2u);
  EXPECT_TRUE(ctrd_.has_handler("crun-wamr"));
  EXPECT_FALSE(ctrd_.has_handler("youki"));
}

// Both Fig 1 integration paths (shim-runc-v2 → crun, and a runwasi shim)
// drive one container lifecycle: serve cold then warm, OOM-kill on a
// memory.max breach, refuse requests once stopped, and give every byte
// back when the sandbox goes.
class ContainerdLifecycleTest
    : public ContainerdTest,
      public ::testing::WithParamInterface<const char*> {
 protected:
  Result<engines::InvokeReport> invoke(const std::string& cid) {
    Result<engines::InvokeReport> out = internal_error("no callback");
    ctrd_.invoke_container(cid, 10, [&](Result<engines::InvokeReport> r) {
      out = std::move(r);
    });
    node_.kernel().run();
    return out;
  }
};

TEST_P(ContainerdLifecycleTest, ServesThenOomKillsThenReleasesEverything) {
  const Bytes anon_before = node_.memory().anon_total();
  const Bytes shared_before = node_.memory().shared_resident();
  auto sb = make_sandbox("pod-l");
  ASSERT_TRUE(sb.is_ok());
  ContainerRequest req;
  req.name = "c";
  req.image = "svc:request";
  req.memory_limit = 32ull << 20;
  Status running = internal_error("no callback");
  auto cid = ctrd_.create_and_start(*sb, req, GetParam(),
                                    [&](Status st) { running = std::move(st); });
  ASSERT_TRUE(cid.is_ok()) << cid.status().to_string();
  node_.kernel().run();
  ASSERT_TRUE(running.is_ok()) << running.to_string();

  auto cold = invoke(*cid);
  ASSERT_TRUE(cold.is_ok()) << cold.status().to_string();
  EXPECT_TRUE(cold->cold);
  auto warm = invoke(*cid);
  ASSERT_TRUE(warm.is_ok()) << warm.status().to_string();
  EXPECT_FALSE(warm->cold);

  int exits = 0;
  Status exit_status = Status::ok();
  ctrd_.watch_container_exit(
      [&](const std::string& pod, const std::string& id, const Status& st) {
        ++exits;
        EXPECT_EQ(pod, "pod-l");
        EXPECT_EQ(id, *cid);
        exit_status = st;
      });
  EXPECT_EQ(ctrd_.grow_container_memory(*cid, Bytes(64ull << 20)).code(),
            ErrorCode::kResourceExhausted);
  auto state = ctrd_.container_state(*cid);
  ASSERT_TRUE(state.is_ok());
  EXPECT_EQ(state->state, oci::ContainerState::kStopped);
  EXPECT_EQ(state->exit_code, oci::kOomKillExitCode);
  EXPECT_EQ(exits, 1);
  EXPECT_EQ(exit_status.code(), ErrorCode::kResourceExhausted);

  EXPECT_EQ(invoke(*cid).status().code(), ErrorCode::kUnavailable);
  EXPECT_EQ(exits, 1) << "a refused request is not another exit";

  ASSERT_TRUE(ctrd_.remove_pod_sandbox(*sb).is_ok());
  EXPECT_EQ(node_.memory().anon_total(), anon_before);
  EXPECT_EQ(node_.memory().shared_resident(), shared_before);
}

INSTANTIATE_TEST_SUITE_P(
    Handlers, ContainerdLifecycleTest,
    ::testing::Values("crun-wamr", "wasmtime-shim"),
    [](const ::testing::TestParamInfo<const char*>& info) {
      std::string name = info.param;
      std::replace(name.begin(), name.end(), '-', '_');
      return name;
    });

}  // namespace
}  // namespace wasmctr::containerd
