// Invariants over the calibration constants: these encode the *architectural*
// relationships the paper's results rest on. If a future re-calibration
// breaks one of these, the benches will drift in ways the shape checks may
// not localize — this test names the broken relationship directly.
#include <gtest/gtest.h>

#include <vector>

#include "engines/calibration.hpp"
#include "engines/engine.hpp"
#include "wasm/workloads.hpp"

namespace wasmctr::engines {
namespace {

const EngineProfile& crun_profile(EngineKind k) {
  return installed(Integration::kCrun, k)->profile();
}

const EngineProfile& shim_profile(EngineKind k) {
  return installed(Integration::kRunwasi, k)->profile();
}

TEST(CalibrationTest, InterpreterHasNoCompileJitsDo) {
  const EngineProfile& wamr = crun_profile(EngineKind::kWamr);
  EXPECT_EQ(wamr.tier, Tier::kInterpreter)
      << "WAMR interprets; a compile stage would break the Fig 8 shape";
  EXPECT_FALSE(wamr.shared_compile_cache)
      << "nothing to cache when no artifact is produced by default";
  for (EngineKind k : {EngineKind::kWasmtime, EngineKind::kWasmer,
                       EngineKind::kWasmEdge}) {
    const EngineProfile& p = crun_profile(k);
    EXPECT_EQ(p.tier, Tier::kBaseline) << engine_name(k);
    EXPECT_TRUE(p.shared_compile_cache) << engine_name(k);
    EXPECT_GT(p.compile_cpu_s_per_kop, 0.0) << engine_name(k);
  }
}

TEST(CalibrationTest, MeasuredCompileReproducesCalibratedTotals) {
  // The per-kop rates were fitted so the standard microservice module
  // (the image every figure bench deploys) costs what the original
  // calibrated constants said: 1.20 / 1.80 / 1.50 s for the crun JIT
  // engines. A drift here silently reshapes Fig 8/9.
  const std::vector<uint8_t> wasm = wasm::build_minimal_microservice();
  const struct {
    EngineKind kind;
    double expect_s;
  } kFits[] = {{EngineKind::kWasmtime, 1.20},
               {EngineKind::kWasmer, 1.80},
               {EngineKind::kWasmEdge, 1.50}};
  for (const auto& fit : kFits) {
    const Engine& engine = *installed(Integration::kCrun, fit.kind);
    auto m = engine.measure_compile(wasm);
    ASSERT_TRUE(m.is_ok()) << engine_name(fit.kind);
    const double compile_s = engine.compile_cpu_s(*m);
    EXPECT_NEAR(compile_s, fit.expect_s, fit.expect_s * 0.02)
        << engine_name(fit.kind);
    EXPECT_GT(compile_s, engine.profile().cache_load_cpu_s * 10)
        << engine_name(fit.kind) << ": compile must dwarf a cache hit";
  }
}

TEST(CalibrationTest, WamrSteadyStateSlowerThanCachedJits) {
  // The Fig 9 mechanism: once the cache is warm, every JIT engine's
  // per-container cost (init + cache load) undercuts WAMR's full
  // interpreter init. Otherwise the 400-pod ranking cannot flip.
  const EngineProfile& wamr = crun_profile(EngineKind::kWamr);
  for (EngineKind k : {EngineKind::kWasmtime, EngineKind::kWasmer,
                       EngineKind::kWasmEdge}) {
    const EngineProfile& p = crun_profile(k);
    EXPECT_LT(p.init_cpu_s + p.cache_load_cpu_s, wamr.init_cpu_s)
        << engine_name(k);
  }
}

TEST(CalibrationTest, WasmtimeIsTheFastestCachedEngine) {
  // Paper Fig 9: crun-Wasmtime specifically is "the most performant".
  const EngineProfile& wt = crun_profile(EngineKind::kWasmtime);
  for (EngineKind k : {EngineKind::kWasmer, EngineKind::kWasmEdge}) {
    const EngineProfile& p = crun_profile(k);
    EXPECT_LT(wt.init_cpu_s + wt.cache_load_cpu_s,
              p.init_cpu_s + p.cache_load_cpu_s)
        << engine_name(k);
  }
}

TEST(CalibrationTest, ShimWasmerIsTheMemoryWorstCase) {
  // Paper Fig 5/10: containerd-shim-wasmer is the most memory-hungry
  // configuration (ours is 77.53 % below it).
  const Bytes wasmer = shim_profile(EngineKind::kWasmer).private_fixed;
  for (EngineKind k : {EngineKind::kWasmtime, EngineKind::kWasmEdge}) {
    EXPECT_GT(wasmer, shim_profile(k).private_fixed) << engine_name(k);
  }
  for (EngineKind k : {EngineKind::kWamr, EngineKind::kWasmtime,
                       EngineKind::kWasmer, EngineKind::kWasmEdge}) {
    EXPECT_GT(wasmer, crun_profile(k).private_fixed) << engine_name(k);
  }
}

TEST(CalibrationTest, ShimWasmtimeLeanerThanItsCrunEmbedding) {
  // Fig 5 vs Fig 4: the wasmtime shim undercuts crun-wasmtime (it skips
  // the OCI runtime and shares the compiled-in runtime text), which is
  // what makes it the second-best config overall.
  EXPECT_LT(shim_profile(EngineKind::kWasmtime).private_fixed,
            crun_profile(EngineKind::kWasmtime).private_fixed);
}

TEST(CalibrationTest, RunwasiSerializationOrdersTheFig9Shims) {
  // shim-wasmtime must queue worse than shim-wasmedge at the daemon for
  // the paper's 28.38 % vs 18.82 % split.
  EXPECT_GT(kInfra.runwasi_serial_per_conn_wasmtime_s,
            kInfra.runwasi_serial_per_conn_wasmedge_s);
  EXPECT_GE(kInfra.runwasi_serial_per_conn_wasmer_s,
            kInfra.runwasi_serial_per_conn_wasmtime_s);
  // runc-v2 shims must be effectively free at the daemon or crun paths
  // would also collapse at 400 pods.
  EXPECT_LT(kInfra.daemon_serial_runc_shim_s,
            kInfra.runwasi_serial_base_wasmedge_s);
}

TEST(CalibrationTest, RuncCostsMoreThanCrun) {
  // Paper §III-B picks crun for its "lightweight nature and performance
  // efficiency"; runC must be strictly heavier on both axes.
  EXPECT_GT(kInfra.runc_exec_cpu_s, kInfra.crun_exec_cpu_s);
  EXPECT_GT(kInfra.runc_runtime_extra.value, 0u);
}

TEST(CalibrationTest, PythonHeavierThanWamrLighterThanJits) {
  // Fig 6/7's ordering: WAMR < Python < every other Wasm engine.
  const PythonProfile& py = kPythonProfile;
  EXPECT_GT(py.private_fixed,
            crun_profile(EngineKind::kWamr).private_fixed);
  for (EngineKind k : {EngineKind::kWasmtime, EngineKind::kWasmer,
                       EngineKind::kWasmEdge}) {
    EXPECT_LT(py.private_fixed, crun_profile(k).private_fixed)
        << engine_name(k);
  }
}

TEST(CalibrationTest, MetricsFreeGapComponentsArePositive) {
  // Fig 3-vs-4 gap = runc-v2 shim + kubelet + kernel objects; all three
  // must exist or `free` would not exceed the metrics server.
  EXPECT_GT(kInfra.runc_shim_private.value, 0u);
  EXPECT_GT(kInfra.kubelet_per_pod.value, 0u);
  EXPECT_GT(kInfra.kernel_per_pod.value, 0u);
}

}  // namespace
}  // namespace wasmctr::engines
