// crun-wasmtime shared compilation cache, exercised through the full OCI
// lifecycle: concurrent containers must serialize on one compile, later
// containers must hit the cache, and the timing difference must be
// visible on the virtual clock (the Fig 8 → Fig 9 mechanism).
#include <gtest/gtest.h>

#include "oci/runtime.hpp"
#include "wasm/builder.hpp"
#include "wasm/workloads.hpp"

namespace wasmctr::oci {
namespace {

class CacheTest : public ::testing::Test {
 protected:
  void write_bundle(const std::string& path,
                    std::vector<uint8_t> module = {}) {
    RuntimeSpec spec;
    spec.args = {"app.wasm"};
    spec.annotations["run.oci.handler"] = "wasm";
    Payload payload;
    payload.kind = Payload::Kind::kWasm;
    payload.wasm =
        module.empty() ? wasm::build_minimal_microservice() : std::move(module);
    ASSERT_TRUE(
        oci::write_bundle(node_.fs(), path, spec, payload).is_ok());
  }

  /// Create+start one container; returns the virtual time its workload
  /// began executing.
  SimTime start_one(Crun& crun, const std::string& id,
                    std::vector<uint8_t> module = {}) {
    write_bundle("b/" + id, std::move(module));
    EXPECT_TRUE(crun.create(id, "b/" + id, "pod/" + id).is_ok());
    SimTime running_at{-1};
    EXPECT_TRUE(crun.start(id, [&, this](Status st) {
                      EXPECT_TRUE(st.is_ok()) << st.to_string();
                      running_at = node_.kernel().now();
                    })
                    .is_ok());
    node_.kernel().run();
    return running_at;
  }

  sim::Node node_;
};

TEST_F(CacheTest, FirstContainerPaysCompileLaterOnesDoNot) {
  Crun crun(node_, engines::EngineKind::kWasmtime);
  const SimTime first = start_one(crun, "c1");
  const SimTime origin = node_.kernel().now();
  const SimTime second = start_one(crun, "c2");
  const double first_s = to_seconds(first);
  const double second_s = to_seconds(second - origin);
  EXPECT_GT(first_s, second_s + 1.0)
      << "first start includes the ~1.2 s compile; second hits the cache";
}

TEST_F(CacheTest, ConcurrentStartersShareOneCompile) {
  Crun crun(node_, engines::EngineKind::kWasmtime);
  constexpr int kContainers = 6;
  std::vector<SimTime> running(kContainers, SimTime{-1});
  for (int i = 0; i < kContainers; ++i) {
    const std::string id = "c" + std::to_string(i);
    write_bundle("b/" + id);
    ASSERT_TRUE(crun.create(id, "b/" + id, "pod/" + id).is_ok());
    ASSERT_TRUE(crun.start(id, [&, i](Status st) {
                      ASSERT_TRUE(st.is_ok()) << st.to_string();
                      running[i] = node_.kernel().now();
                    })
                    .is_ok());
  }
  node_.kernel().run();
  // All ran, and everyone converges shortly after the single compile:
  // had each compiled privately, total CPU would be ~6x larger and the
  // spread between first and last would blow up.
  SimTime min_t = running[0];
  SimTime max_t = running[0];
  for (const SimTime t : running) {
    ASSERT_GE(t.count(), 0);
    min_t = std::min(min_t, t);
    max_t = std::max(max_t, t);
  }
  EXPECT_LT(to_seconds(max_t - min_t), 1.0)
      << "waiters resume together once the compile publishes";
  // Total CPU consumed stays near one compile + N cheap starts.
  const double cpu = node_.cpu().consumed_cpu_seconds();
  const engines::Engine& engine = *engines::installed(
      engines::Integration::kCrun, engines::EngineKind::kWasmtime);
  const engines::EngineProfile& p = engine.profile();
  auto measured = engine.measure_compile(wasm::build_minimal_microservice());
  ASSERT_TRUE(measured.is_ok());
  const double upper_bound =
      kContainers * (engines::kInfra.crun_exec_cpu_s + p.init_cpu_s +
                     p.cache_load_cpu_s + 0.1) +
      engine.compile_cpu_s(*measured) + 1.0;
  EXPECT_LT(cpu, upper_bound) << "no duplicated compiles";
}

// A module whose _start pushes and drops `value`: modules built with
// one-byte-LEB values differ in content but not in size.
std::vector<uint8_t> build_const_module(int32_t value) {
  wasm::ModuleBuilder b;
  b.add_memory(1, 1);
  wasm::FnBuilder& f = b.add_function("_start", {}, {});
  f.i32_const(value).drop().end();
  return b.build();
}

TEST_F(CacheTest, SameSizeModulesEachPayTheirCompile) {
  const std::vector<uint8_t> five = build_const_module(5);
  const std::vector<uint8_t> six = build_const_module(6);
  ASSERT_EQ(five.size(), six.size());
  ASSERT_NE(five, six);
  Crun crun(node_, engines::EngineKind::kWasmtime);
  SimTime origin = node_.kernel().now();
  const double five_s = to_seconds(start_one(crun, "m5", five) - origin);
  origin = node_.kernel().now();
  const double six_s = to_seconds(start_one(crun, "m6", six) - origin);
  origin = node_.kernel().now();
  const double again_s = to_seconds(start_one(crun, "m5b", five) - origin);
  EXPECT_NEAR(six_s, five_s, 1e-6)
      << "a module with other bytes compiles, whatever its size";
  EXPECT_LT(again_s, five_s) << "the same bytes again hit the cache";
}

TEST_F(CacheTest, WamrTimingIsFlatAcrossContainers) {
  Crun crun(node_, engines::EngineKind::kWamr);
  const SimTime first = start_one(crun, "w1");
  const SimTime origin = node_.kernel().now();
  const SimTime second = start_one(crun, "w2");
  const double first_s = to_seconds(first);
  const double second_s = to_seconds(second - origin);
  EXPECT_NEAR(first_s, second_s, 0.05)
      << "the interpreter has no warm-up asymmetry";
}

TEST_F(CacheTest, DifferentEnginesKeepSeparateCaches) {
  // A wasmtime compile must not warm wasmer's cache: separate Crun
  // builds (one per backend) model separately-installed runtimes.
  Crun wasmtime(node_, engines::EngineKind::kWasmtime);
  const SimTime wt_first = start_one(wasmtime, "wt1");
  const SimTime origin = node_.kernel().now();
  Crun wasmer(node_, engines::EngineKind::kWasmer);
  const SimTime wm_first = start_one(wasmer, "wm1") - origin;
  EXPECT_GT(to_seconds(wm_first), 1.0)
      << "wasmer still pays its own first compile";
  EXPECT_GT(to_seconds(wt_first), 1.0);
}

}  // namespace
}  // namespace wasmctr::oci
