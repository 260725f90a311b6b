// google-benchmark microbenchmarks of the real engine code paths: decode,
// validate, instantiate, execute, WASI I/O, and pylite. These measure the
// actual interpreter work the simulation's latency model abstracts into
// calibrated CPU constants.
#include <benchmark/benchmark.h>

#include "engines/engine.hpp"
#include "pylite/interp.hpp"
#include "pylite/scripts.hpp"
#include "wasm/baseline/bytecode.hpp"
#include "wasm/baseline/compiler.hpp"
#include "wasm/decoder.hpp"
#include "wasm/exec/instance.hpp"
#include "wasm/validator.hpp"
#include "wasm/workloads.hpp"

namespace {

using namespace wasmctr;

void BM_DecodeMicroservice(benchmark::State& state) {
  const auto bytes = wasm::build_minimal_microservice();
  for (auto _ : state) {
    auto m = wasm::decode_module(bytes);
    benchmark::DoNotOptimize(m);
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(bytes.size()));
}
BENCHMARK(BM_DecodeMicroservice);

void BM_ValidateMicroservice(benchmark::State& state) {
  const auto bytes = wasm::build_minimal_microservice();
  auto m = wasm::decode_module(bytes);
  for (auto _ : state) {
    auto st = wasm::validate_module(*m);
    benchmark::DoNotOptimize(st);
  }
}
BENCHMARK(BM_ValidateMicroservice);

void BM_InstantiateAndRunMicroservice(benchmark::State& state) {
  const auto bytes = wasm::build_minimal_microservice();
  const engines::Engine& wamr = *engines::installed(
      engines::Integration::kCrun, engines::EngineKind::kWamr);
  for (auto _ : state) {
    wasi::VirtualFs fs;
    wasi::WasiOptions opts;
    opts.args = {"app.wasm"};
    auto report = wamr.run_module(bytes, std::move(opts), fs);
    benchmark::DoNotOptimize(report);
  }
}
BENCHMARK(BM_InstantiateAndRunMicroservice);

void BM_ComputeKernel(benchmark::State& state) {
  const auto bytes = wasm::build_compute_kernel();
  auto m = wasm::decode_module(bytes);
  wasm::ImportResolver empty;
  auto inst = wasm::Instance::instantiate(std::move(*m), empty);
  const wasm::Value arg =
      wasm::Value::from_i32(static_cast<int32_t>(state.range(0)));
  for (auto _ : state) {
    auto r = (*inst)->invoke("run", std::span<const wasm::Value>(&arg, 1));
    benchmark::DoNotOptimize(r);
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          state.range(0));
}
BENCHMARK(BM_ComputeKernel)->Arg(100)->Arg(1000)->Arg(10000);

void BM_TableDispatch(benchmark::State& state) {
  const auto bytes = wasm::build_table_dispatch();
  auto m = wasm::decode_module(bytes);
  wasm::ImportResolver empty;
  auto inst = wasm::Instance::instantiate(std::move(*m), empty);
  int i = 0;
  for (auto _ : state) {
    const wasm::Value args[] = {wasm::Value::from_i32(i++ & 3),
                                wasm::Value::from_i32(7)};
    auto r = (*inst)->invoke("dispatch", args);
    benchmark::DoNotOptimize(r);
  }
}
BENCHMARK(BM_TableDispatch);

void BM_WasiFdWrite(benchmark::State& state) {
  const auto bytes = wasm::build_minimal_microservice();
  for (auto _ : state) {
    wasi::VirtualFs fs;
    wasi::WasiOptions opts;
    opts.args = {"app.wasm"};
    wasi::WasiContext ctx(std::move(opts), fs);
    wasm::ImportResolver resolver;
    ctx.register_imports(resolver);
    auto m = wasm::decode_module(bytes);
    auto inst = wasm::Instance::instantiate(std::move(*m), resolver);
    auto r = (*inst)->invoke("_start");
    benchmark::DoNotOptimize(r);
  }
}
BENCHMARK(BM_WasiFdWrite);

// Singlepass compile throughput: the real cost behind the tier's
// compile_cpu_s_per_kop pricing. Bytes/s is wasm in; the counter reports
// the code-expansion ratio (bytecode bytes out per wasm byte in).
void BM_BaselineCompile(benchmark::State& state) {
  const auto bytes = wasm::build_minimal_microservice();
  uint64_t bytecode_bytes = 0;
  for (auto _ : state) {
    auto m = wasm::decode_module(bytes);
    auto st = wasm::validate_module(*m);
    benchmark::DoNotOptimize(st);
    auto compiled = wasm::baseline::compile_module(*m, bytes);
    bytecode_bytes = (*compiled)->stats().bytecode_bytes;
    benchmark::DoNotOptimize(compiled);
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(bytes.size()));
  state.counters["bc_bytes_per_wasm_byte"] =
      static_cast<double>(bytecode_bytes) / static_cast<double>(bytes.size());
}
BENCHMARK(BM_BaselineCompile);

// Per-tier dispatch rate over the same guest work: items/s is retired
// guest instructions per second, the number the tier's per-kinst invoke
// pricing abstracts.
void run_dispatch_bench(
    benchmark::State& state,
    std::shared_ptr<const wasm::baseline::CompiledModule> compiled) {
  const auto bytes = wasm::build_compute_kernel();
  auto m = wasm::decode_module(bytes);
  wasm::ImportResolver empty;
  auto inst = wasm::Instance::instantiate(std::move(*m), empty,
                                          wasm::ExecLimits{},
                                          std::move(compiled));
  const wasm::Value arg =
      wasm::Value::from_i32(static_cast<int32_t>(state.range(0)));
  uint64_t retired = 0;
  for (auto _ : state) {
    const uint64_t before = (*inst)->instructions_retired();
    auto r = (*inst)->invoke("run", std::span<const wasm::Value>(&arg, 1));
    retired += (*inst)->instructions_retired() - before;
    benchmark::DoNotOptimize(r);
  }
  state.SetItemsProcessed(static_cast<int64_t>(retired));
}

void BM_DispatchInterpTier(benchmark::State& state) {
  run_dispatch_bench(state, nullptr);
}
BENCHMARK(BM_DispatchInterpTier)->Arg(1000)->Arg(10000);

void BM_DispatchBaselineTier(benchmark::State& state) {
  const auto bytes = wasm::build_compute_kernel();
  auto m = wasm::decode_module(bytes);
  auto st = wasm::validate_module(*m);
  benchmark::DoNotOptimize(st);
  auto compiled = wasm::baseline::compile_module(*m, bytes);
  run_dispatch_bench(state, *compiled);
}
BENCHMARK(BM_DispatchBaselineTier)->Arg(1000)->Arg(10000);

void BM_PyliteMicroservice(benchmark::State& state) {
  const std::string script = pylite::minimal_microservice_script();
  for (auto _ : state) {
    auto prog = pylite::parse_source(script);
    pylite::Interp interp;
    auto st = interp.run(*prog);
    benchmark::DoNotOptimize(st);
  }
}
BENCHMARK(BM_PyliteMicroservice);

void BM_PyliteComputeKernel(benchmark::State& state) {
  const std::string script = pylite::compute_kernel_script();
  auto prog = pylite::parse_source(script);
  for (auto _ : state) {
    pylite::Interp interp;
    auto st = interp.run(*prog);
    benchmark::DoNotOptimize(st);
  }
}
BENCHMARK(BM_PyliteComputeKernel);

}  // namespace

BENCHMARK_MAIN();
