// Pins every Wasm start path below the CRI on a fresh node: the virtual
// time each container reaches Running and its pod cgroup's working set,
// for each runtime × engine, both tiers, and three start patterns (one
// container; a second one after the first, which hits a shared compile
// cache; two started together, one compiling while the other waits).
// Any change to how a start is priced or charged moves one of these.
#include <array>
#include <memory>
#include <string>

#include <gtest/gtest.h>

#include "oci/runtime.hpp"
#include "wasm/workloads.hpp"

namespace wasmctr::oci {
namespace {

using engines::EngineKind;
using engines::Tier;

enum class Pattern { kOne, kAfter, kTogether };

struct PinCase {
  const char* runtime;
  Tier tier;
  Pattern pattern;
  /// Per container: virtual ns at Running, pod cgroup working set (bytes).
  /// kOne fills only the first entry.
  std::array<int64_t, 2> running_ns;
  std::array<uint64_t, 2> working_set;
};

std::unique_ptr<LowLevelRuntime> make_runtime(sim::Node& node,
                                              const std::string& name) {
  if (name == "youki") return std::make_unique<Youki>(node);
  const std::string crun = "crun-";
  const std::string shim = "runwasi-";
  for (EngineKind k : {EngineKind::kWamr, EngineKind::kWasmtime,
                       EngineKind::kWasmer, EngineKind::kWasmEdge}) {
    if (name == crun + engines::engine_name(k)) {
      return std::make_unique<Crun>(node, k);
    }
    if (name == shim + engines::engine_name(k)) {
      return std::make_unique<RunwasiShim>(node, k);
    }
  }
  return nullptr;
}

void PrintTo(const PinCase& c, std::ostream* os) {
  *os << c.runtime << "/" << engines::tier_name(c.tier);
}

class RuntimePinTest : public ::testing::TestWithParam<PinCase> {};

TEST_P(RuntimePinTest, RunningTimeAndWorkingSet) {
  const PinCase& c = GetParam();
  engines::ScopedTierOverride tier(c.tier);
  sim::Node node;
  std::unique_ptr<LowLevelRuntime> rt = make_runtime(node, c.runtime);
  ASSERT_NE(rt, nullptr) << c.runtime;

  const int containers = c.pattern == Pattern::kOne ? 1 : 2;
  std::array<SimTime, 2> running{SimTime{-1}, SimTime{-1}};
  const auto start = [&](int i) {
    const std::string id = "c" + std::to_string(i);
    RuntimeSpec spec;
    spec.args = {"app.wasm"};
    spec.annotations["run.oci.handler"] = "wasm";
    Payload payload;
    payload.kind = Payload::Kind::kWasm;
    payload.wasm = wasm::build_minimal_microservice();
    ASSERT_TRUE(write_bundle(node.fs(), "b/" + id, spec, payload).is_ok());
    ASSERT_TRUE(rt->create(id, "b/" + id, "pod/" + id).is_ok());
    ASSERT_TRUE(rt->start(id, [&, i](Status st) {
                    EXPECT_TRUE(st.is_ok()) << st.to_string();
                    running[i] = node.kernel().now();
                  }).is_ok());
  };
  for (int i = 0; i < containers; ++i) {
    start(i);
    if (c.pattern != Pattern::kTogether) node.kernel().run();
  }
  node.kernel().run();

  for (int i = 0; i < containers; ++i) {
    SCOPED_TRACE("container " + std::to_string(i));
    const mem::Cgroup* cg = node.cgroups().find("pod/c" + std::to_string(i));
    ASSERT_NE(cg, nullptr);
    EXPECT_EQ(running[i].count(), c.running_ns[i]);
    EXPECT_EQ(cg->working_set().value, c.working_set[i]);
  }
}

constexpr Tier kI = Tier::kInterpreter;
constexpr Tier kB = Tier::kBaseline;
constexpr Pattern kOne = Pattern::kOne;
constexpr Pattern kAfter = Pattern::kAfter;
constexpr Pattern kTogether = Pattern::kTogether;

// clang-format off
const PinCase kCases[] = {
    // runtime            tier  pattern    running_ns {c0, c1}  working_set {c0, c1}
    {"crun-wamr", kI, kOne, {1330115234, 0}, {5151111, 0}},
    {"crun-wamr", kI, kAfter, {1330115234, 2660230468}, {5151111, 3922311}},
    {"crun-wamr", kI, kTogether, {1330115234, 1330115234}, {5151111, 3922311}},
    {"crun-wamr", kB, kOne, {1811115234, 0}, {5159147, 0}},
    {"crun-wamr", kB, kAfter, {1811115234, 3622230468}, {5159147, 3922155}},
    {"crun-wamr", kB, kTogether, {1811115234, 1811115234}, {5159147, 3922155}},
    {"crun-wasmtime", kI, kOne, {1090057617, 0}, {15658133, 0}},
    {"crun-wasmtime", kI, kAfter, {1090057617, 2180115234}, {15658133, 9514133}},
    {"crun-wasmtime", kI, kTogether, {1090057617, 1090057617}, {15658133, 9514133}},
    {"crun-wasmtime", kB, kOne, {2288799999, 0}, {15665857, 0}},
    {"crun-wasmtime", kB, kAfter, {2288799999, 3398799999}, {15665857, 9513665}},
    {"crun-wasmtime", kB, kTogether, {2288799999, 2308800000}, {15665857, 9513665}},
    {"crun-wasmer", kI, kOne, {1100057617, 0}, {19037333, 0}},
    {"crun-wasmer", kI, kAfter, {1100057617, 2200115234}, {19037333, 11869333}},
    {"crun-wasmer", kI, kTogether, {1100057617, 1100057617}, {19037333, 11869333}},
    {"crun-wasmer", kB, kOne, {2898200000, 0}, {19045057, 0}},
    {"crun-wasmer", kB, kAfter, {2898200000, 4038200000}, {19045057, 11868865}},
    {"crun-wasmer", kB, kTogether, {2898200000, 2938200001}, {19045057, 11868865}},
    {"crun-wasmedge", kI, kOne, {1120057617, 0}, {13630222, 0}},
    {"crun-wasmedge", kI, kAfter, {1120057617, 2240115234}, {13630222, 8510222}},
    {"crun-wasmedge", kI, kTogether, {1120057617, 1120057617}, {13630222, 8510222}},
    {"crun-wasmedge", kB, kOne, {2618500000, 0}, {13638102, 0}},
    {"crun-wasmedge", kB, kAfter, {2618500000, 3798500000}, {13638102, 8509910}},
    {"crun-wasmedge", kB, kTogether, {2618500000, 2678500000}, {13638102, 8509910}},
    {"runwasi-wasmtime", kI, kOne, {1360086425, 0}, {10200213, 0}},
    {"runwasi-wasmtime", kI, kAfter, {1360086425, 2720172850}, {10200213, 5080213}},
    {"runwasi-wasmtime", kI, kTogether, {1360086425, 1360086425}, {10200213, 5080213}},
    {"runwasi-wasmtime", kB, kOne, {1360171525, 0}, {10207937, 0}},
    {"runwasi-wasmtime", kB, kAfter, {1360171525, 2720343050}, {10207937, 5079745}},
    {"runwasi-wasmtime", kB, kTogether, {1360171525, 1360171525}, {10207937, 5079745}},
    {"runwasi-wasmer", kI, kOne, {1420115234, 0}, {34755733, 0}},
    {"runwasi-wasmer", kI, kAfter, {1420115234, 2840230468}, {34755733, 24515733}},
    {"runwasi-wasmer", kI, kTogether, {1420115234, 1420115234}, {34755733, 24515733}},
    {"runwasi-wasmer", kB, kOne, {1420229934, 0}, {34763457, 0}},
    {"runwasi-wasmer", kB, kAfter, {1420229934, 2840459868}, {34763457, 24515265}},
    {"runwasi-wasmer", kB, kTogether, {1420229934, 1420229934}, {34763457, 24515265}},
    {"runwasi-wasmedge", kI, kOne, {1330086425, 0}, {12708622, 0}},
    {"runwasi-wasmedge", kI, kAfter, {1330086425, 2660172850}, {12708622, 6564622}},
    {"runwasi-wasmedge", kI, kTogether, {1330086425, 1330086425}, {12708622, 6564622}},
    {"runwasi-wasmedge", kB, kOne, {1330171525, 0}, {12716502, 0}},
    {"runwasi-wasmedge", kB, kAfter, {1330171525, 2660343050}, {12716502, 6564310}},
    {"runwasi-wasmedge", kB, kTogether, {1330171525, 1330171525}, {12716502, 6564310}},
    {"youki", kI, kOne, {1170057617, 0}, {13630222, 0}},
    {"youki", kI, kAfter, {1170057617, 2340115234}, {13630222, 8510222}},
    {"youki", kI, kTogether, {1170057617, 1170057617}, {13630222, 8510222}},
    // youki runs crun's WasmEdge and pays its shared compile like
    // crun-wasmedge, 0.05 s of exec behind it.
    {"youki", kB, kOne, {2668500000, 0}, {13638102, 0}},
    {"youki", kB, kAfter, {2668500000, 3898500000}, {13638102, 8509910}},
    {"youki", kB, kTogether, {2668500000, 2728500000}, {13638102, 8509910}},
};
// clang-format on

std::string case_name(const ::testing::TestParamInfo<PinCase>& info) {
  std::string name = info.param.runtime;
  for (char& ch : name) {
    if (ch == '-') ch = '_';
  }
  name += std::string("_") + engines::tier_name(info.param.tier);
  switch (info.param.pattern) {
    case Pattern::kOne: return name + "_one";
    case Pattern::kAfter: return name + "_after";
    case Pattern::kTogether: return name + "_together";
  }
  return name;
}

INSTANTIATE_TEST_SUITE_P(Paths, RuntimePinTest, ::testing::ValuesIn(kCases),
                         case_name);

}  // namespace
}  // namespace wasmctr::oci
