#include "engines/engine.hpp"

#include <gtest/gtest.h>

#include "engines/compile_cache.hpp"
#include "wasm/builder.hpp"
#include "wasm/workloads.hpp"

namespace wasmctr::engines {
namespace {

TEST(EngineProfileTest, ProfilesResolve) {
  for (EngineKind k : {EngineKind::kWamr, EngineKind::kWasmtime,
                       EngineKind::kWasmer, EngineKind::kWasmEdge}) {
    EXPECT_EQ(crun_engine_profile(k).kind, k);
  }
  for (EngineKind k :
       {EngineKind::kWasmtime, EngineKind::kWasmer, EngineKind::kWasmEdge}) {
    EXPECT_EQ(shim_engine_profile(k).kind, k);
  }
}

TEST(EngineProfileTest, WamrIsTheLightestCrunEngine) {
  const EngineProfile& wamr = crun_engine_profile(EngineKind::kWamr);
  for (EngineKind k : {EngineKind::kWasmtime, EngineKind::kWasmer,
                       EngineKind::kWasmEdge}) {
    const EngineProfile& other = crun_engine_profile(k);
    EXPECT_LT(wamr.private_fixed, other.private_fixed)
        << engine_name(k);
    EXPECT_LT(wamr.shared_lib, other.shared_lib) << engine_name(k);
    EXPECT_LE(wamr.instance_multiplier, other.instance_multiplier)
        << "interpreter must not hold JIT code";
  }
}

TEST(EngineTest, LibraryNames) {
  EXPECT_EQ(make_crun_engine(EngineKind::kWamr).library_name(), "libwamr.so");
  EXPECT_EQ(make_shim_engine(EngineKind::kWasmtime).library_name(),
            "containerd-shim-wasmtime");
}

TEST(EngineTest, RunsMicroserviceEndToEnd) {
  const Engine wamr = make_crun_engine(EngineKind::kWamr);
  wasi::VirtualFs fs;
  wasi::WasiOptions opts;
  opts.args = {"app.wasm"};
  auto report = wamr.run_module(wasm::build_minimal_microservice(),
                                std::move(opts), fs);
  ASSERT_TRUE(report.is_ok()) << report.status().to_string();
  EXPECT_EQ(report->exit_code, 0u);
  EXPECT_EQ(report->stdout_data, "hello from wasm microservice\n");
  EXPECT_GT(report->instructions, 0u);
  EXPECT_GT(report->measured_instance.value, 128u * 1024)
      << "two Wasm pages of linear memory must be counted";
}

TEST(EngineTest, ModeledInstanceAppliesMultiplier) {
  wasi::VirtualFs fs;
  wasi::WasiOptions opts;
  opts.args = {"app.wasm"};
  const auto bytes = wasm::build_minimal_microservice();
  const Engine wamr = make_crun_engine(EngineKind::kWamr);
  const Engine wasmtime = make_crun_engine(EngineKind::kWasmtime);
  auto interp = wamr.run_module(bytes, opts, fs);
  auto jit = wasmtime.run_module(bytes, opts, fs);
  ASSERT_TRUE(interp.is_ok());
  ASSERT_TRUE(jit.is_ok());
  EXPECT_EQ(interp->tier, Tier::kInterpreter);
  EXPECT_EQ(jit->tier, Tier::kBaseline);
  EXPECT_EQ(interp->instructions, jit->instructions)
      << "tiers are observationally identical (differential suite)";
  EXPECT_EQ(jit->modeled_instance.value, jit->measured_instance.value * 3)
      << "wasmtime profile holds 3x (compiled code)";
  EXPECT_EQ(interp->modeled_instance, interp->measured_instance);
  // Baseline execution reports the real compile of this module.
  EXPECT_GT(jit->compile.wasm_ops, 0u);
  EXPECT_GT(jit->compile.bytecode_bytes, 0u);
  EXPECT_GE(jit->compile.code_pages, 1u);
  EXPECT_GE(jit->compile.meta_pages, 1u);
  EXPECT_EQ(interp->compile.wasm_ops, 0u) << "no compile at interp tier";
}

// Pins the host-measured instance footprint exactly. It feeds every Wasm
// config's memory per container, yet it is computed from host layout: at
// the interp tier, the interpreter's own std::map/std::vector state. So
// running crun-wamr on another executor moves the paper's figures (tried
// for ROADMAP item 5: bench_paper's crun-wamr free memory at 100 pods went
// from 5.618 to 5.617 MiB, and bench_timeline lost 616 B per serving pod).
// A change here needs re-derived reference figures, not a new constant.
TEST(EngineTest, MeasuredInstanceFootprintIsPinned) {
  struct Case {
    const char* workload;
    std::vector<uint8_t> bytes;
    uint64_t interp_bytes;    // crun-wamr, Tier::kInterpreter
    uint64_t baseline_bytes;  // crun-wasmtime, Tier::kBaseline
  };
  const Case cases[] = {
      {"minimal", wasm::build_minimal_microservice(), 133255, 133099},
      {"request", wasm::build_request_microservice(), 133391, 133131},
  };
  const Engine wamr = make_crun_engine(EngineKind::kWamr);
  const Engine wasmtime = make_crun_engine(EngineKind::kWasmtime);
  for (const Case& c : cases) {
    wasi::VirtualFs fs;
    wasi::WasiOptions opts;
    opts.args = {"app.wasm"};
    auto interp = wamr.run_module(c.bytes, opts, fs);
    auto baseline = wasmtime.run_module(c.bytes, opts, fs);
    ASSERT_TRUE(interp.is_ok()) << c.workload;
    ASSERT_TRUE(baseline.is_ok()) << c.workload;
    ASSERT_EQ(interp->tier, Tier::kInterpreter);
    ASSERT_EQ(baseline->tier, Tier::kBaseline);
    EXPECT_EQ(interp->measured_instance.value, c.interp_bytes) << c.workload;
    EXPECT_EQ(baseline->measured_instance.value, c.baseline_bytes)
        << c.workload;
  }
}

TEST(EngineTest, TierOverrideFlipsBothDirections) {
  const Engine wamr = make_crun_engine(EngineKind::kWamr);
  const Engine wasmtime = make_crun_engine(EngineKind::kWasmtime);
  EXPECT_EQ(wamr.tier(), Tier::kInterpreter);
  EXPECT_EQ(wasmtime.tier(), Tier::kBaseline);
  {
    ScopedTierOverride force_baseline(Tier::kBaseline);
    EXPECT_EQ(wamr.tier(), Tier::kBaseline);
    EXPECT_EQ(wasmtime.tier(), Tier::kBaseline);
    {
      ScopedTierOverride force_interp(Tier::kInterpreter);
      EXPECT_EQ(wamr.tier(), Tier::kInterpreter);
      EXPECT_EQ(wasmtime.tier(), Tier::kInterpreter);
    }
    EXPECT_EQ(wamr.tier(), Tier::kBaseline) << "nested override restores";
  }
  EXPECT_EQ(wamr.tier(), Tier::kInterpreter);
  EXPECT_EQ(wasmtime.tier(), Tier::kBaseline);
  EXPECT_FALSE(tier_override().has_value());
}

TEST(EngineTest, MeasureCompileIsMemoizedAndMeasured) {
  const Engine wasmtime = make_crun_engine(EngineKind::kWasmtime);
  const auto bytes = wasm::build_minimal_microservice();
  auto a = wasmtime.measure_compile(bytes);
  auto b = wasmtime.measure_compile(bytes);
  ASSERT_TRUE(a.is_ok()) << a.status().to_string();
  ASSERT_TRUE(b.is_ok());
  EXPECT_EQ(a->content_hash, b->content_hash);
  EXPECT_EQ(a->wasm_ops, b->wasm_ops);
  EXPECT_EQ(a->wasm_bytes, bytes.size());
  auto ca = wasmtime.compiled_module(bytes);
  auto cb = wasmtime.compiled_module(bytes);
  ASSERT_TRUE(ca.is_ok() && cb.is_ok());
  EXPECT_EQ(ca->get(), cb->get()) << "second compile hits the artifact cache";
  EXPECT_GT(wasmtime.compile_cpu_s(*a), 0.0);
}

TEST(EngineTest, RejectsMalformedModule) {
  const Engine wamr = make_crun_engine(EngineKind::kWamr);
  wasi::VirtualFs fs;
  const std::vector<uint8_t> garbage = {0xde, 0xad, 0xbe, 0xef};
  auto report = wamr.run_module(garbage, {}, fs);
  EXPECT_EQ(report.status().code(), ErrorCode::kMalformed);
}

TEST(EngineTest, NonZeroExitCodeSurfaces) {
  // A module whose _start exits 7.
  wasm::ModuleBuilder b;
  const uint32_t proc_exit = b.import_function(
      "wasi_snapshot_preview1", "proc_exit", {wasm::ValType::kI32}, {});
  b.add_memory(1, 1);
  wasm::FnBuilder& f = b.add_function("_start", {}, {});
  f.i32_const(7).call(proc_exit).end();
  const Engine wamr = make_crun_engine(EngineKind::kWamr);
  wasi::VirtualFs fs;
  auto report = wamr.run_module(b.build(), {}, fs);
  ASSERT_TRUE(report.is_ok()) << report.status().to_string();
  EXPECT_EQ(report->exit_code, 7u);
}

TEST(EngineTest, GenuineTrapIsAnError) {
  wasm::ModuleBuilder b;
  b.add_memory(1, 1);
  wasm::FnBuilder& f = b.add_function("_start", {}, {});
  f.unreachable().end();
  const Engine wamr = make_crun_engine(EngineKind::kWamr);
  wasi::VirtualFs fs;
  auto report = wamr.run_module(b.build(), {}, fs);
  ASSERT_FALSE(report.is_ok());
  EXPECT_EQ(report.status().code(), ErrorCode::kTrap);
}

TEST(StartupCostTest, CacheSplitsCompileFromLoad) {
  const Engine wasmtime = make_crun_engine(EngineKind::kWasmtime);
  const auto bytes = wasm::build_minimal_microservice();
  auto meas = wasmtime.measure_compile(bytes);
  ASSERT_TRUE(meas.is_ok());
  const StartupCost cold = wasmtime.startup_cost(bytes.size(), false, &*meas);
  const StartupCost warm = wasmtime.startup_cost(bytes.size(), true, &*meas);
  EXPECT_GT(cold.shared_compile_cpu_s, 1.0);
  EXPECT_EQ(cold.cache_load_cpu_s, 0.0);
  EXPECT_EQ(cold.compile_cpu_s, 0.0) << "shared-cache engines compile once";
  EXPECT_EQ(warm.shared_compile_cpu_s, 0.0);
  EXPECT_GT(warm.cache_load_cpu_s, 0.0);
  EXPECT_LT(warm.cache_load_cpu_s, cold.shared_compile_cpu_s);
}

TEST(StartupCostTest, InterpreterTierChargesNoCompile) {
  const Engine wasmtime = make_crun_engine(EngineKind::kWasmtime);
  const auto bytes = wasm::build_minimal_microservice();
  auto meas = wasmtime.measure_compile(bytes);
  ASSERT_TRUE(meas.is_ok());
  ScopedTierOverride interp(Tier::kInterpreter);
  const StartupCost cost = wasmtime.startup_cost(bytes.size(), false, &*meas);
  EXPECT_EQ(cost.shared_compile_cpu_s, 0.0);
  EXPECT_EQ(cost.compile_cpu_s, 0.0);
  EXPECT_EQ(cost.cache_load_cpu_s, 0.0);
  EXPECT_GT(cost.init_cpu_s, 0.0);
}

TEST(StartupCostTest, ShimPaysPerPodCompile) {
  // No shared artifact cache: the compile lands in the per-container
  // field regardless of what the "node cache" claims.
  const Engine shim = make_shim_engine(EngineKind::kWasmtime);
  const auto bytes = wasm::build_minimal_microservice();
  auto meas = shim.measure_compile(bytes);
  ASSERT_TRUE(meas.is_ok());
  const StartupCost cost = shim.startup_cost(bytes.size(), true, &*meas);
  EXPECT_GT(cost.compile_cpu_s, 0.0);
  EXPECT_EQ(cost.shared_compile_cpu_s, 0.0);
  EXPECT_EQ(cost.cache_load_cpu_s, 0.0);
}

TEST(StartupCostTest, WamrHasNoCompileStage) {
  const Engine wamr = make_crun_engine(EngineKind::kWamr);
  const StartupCost cost = wamr.startup_cost(3000, false);
  EXPECT_EQ(cost.shared_compile_cpu_s, 0.0);
  EXPECT_EQ(cost.cache_load_cpu_s, 0.0);
  EXPECT_GT(cost.init_cpu_s, 0.0);
}

TEST(StartupCostTest, LoadScalesWithModuleSize) {
  const Engine wamr = make_crun_engine(EngineKind::kWamr);
  EXPECT_GT(wamr.startup_cost(1 << 20, false).load_cpu_s,
            wamr.startup_cost(1 << 10, false).load_cpu_s);
}

TEST(CompileCacheTest, MissThenHit) {
  CompileCache cache;
  int ready_calls = 0;
  EXPECT_EQ(cache.lookup("m", [&] { ++ready_calls; }),
            CompileCache::Outcome::kMiss);
  EXPECT_EQ(cache.lookup("m", [&] { ++ready_calls; }),
            CompileCache::Outcome::kWait);
  EXPECT_EQ(cache.lookup("m", [&] { ++ready_calls; }),
            CompileCache::Outcome::kWait);
  EXPECT_FALSE(cache.is_ready("m"));
  cache.publish("m");
  EXPECT_EQ(ready_calls, 2) << "both waiters released";
  EXPECT_TRUE(cache.is_ready("m"));
  EXPECT_EQ(cache.lookup("m", [] {}), CompileCache::Outcome::kHit);
}

TEST(CompileCacheTest, PublishFiresEveryWaiterExactlyOnce) {
  CompileCache cache;
  int a = 0;
  int b = 0;
  int c = 0;
  ASSERT_EQ(cache.lookup("m", [&] { ++a; }), CompileCache::Outcome::kMiss);
  ASSERT_EQ(cache.lookup("m", [&] { ++a; }), CompileCache::Outcome::kWait);
  ASSERT_EQ(cache.lookup("m", [&] { ++b; }), CompileCache::Outcome::kWait);
  ASSERT_EQ(cache.lookup("m", [&] { ++c; }), CompileCache::Outcome::kWait);
  EXPECT_EQ(a + b + c, 0) << "nothing fires before publish";
  cache.publish("m");
  EXPECT_EQ(a, 1) << "the kMiss caller's callback must NOT fire";
  EXPECT_EQ(b, 1);
  EXPECT_EQ(c, 1);
  // A second publish on the same key must not re-fire drained waiters.
  cache.publish("m");
  EXPECT_EQ(a, 1);
  EXPECT_EQ(b, 1);
  EXPECT_EQ(c, 1);
}

TEST(CompileCacheTest, PublishOnUnknownKeyIsNoOp) {
  CompileCache cache;
  cache.publish("never-looked-up");
  EXPECT_FALSE(cache.is_ready("never-looked-up"))
      << "publish must not conjure an entry nobody compiled";
  // The key is still virgin: the next lookup becomes the compiler.
  EXPECT_EQ(cache.lookup("never-looked-up", [] {}),
            CompileCache::Outcome::kMiss);
}

TEST(CompileCacheTest, HitAfterPublishPaysOnlyArtifactLoad) {
  CompileCache cache;
  ASSERT_EQ(cache.lookup("m", [] {}), CompileCache::Outcome::kMiss);
  cache.publish("m");
  // Every later starter sees kHit — synchronously, its queued callback
  // never enters the waiter list — so the caller charges only
  // cache_load_cpu_s, never a second compile.
  int stray = 0;
  for (int i = 0; i < 3; ++i) {
    EXPECT_EQ(cache.lookup("m", [&] { ++stray; }),
              CompileCache::Outcome::kHit);
  }
  cache.publish("m");
  EXPECT_EQ(stray, 0) << "kHit callers are never enqueued as waiters";
}

TEST(CompileCacheTest, KeysAreIndependent) {
  CompileCache cache;
  EXPECT_EQ(cache.lookup("a", [] {}), CompileCache::Outcome::kMiss);
  EXPECT_EQ(cache.lookup("b", [] {}), CompileCache::Outcome::kMiss);
  cache.publish("a");
  EXPECT_EQ(cache.lookup("a", [] {}), CompileCache::Outcome::kHit);
  EXPECT_EQ(cache.lookup("b", [] {}), CompileCache::Outcome::kWait);
}

}  // namespace
}  // namespace wasmctr::engines
