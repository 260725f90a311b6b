// Per-layer host timings for the traced run. Each probe calls one layer's
// public entry point on the workload's own inputs — its Wasm image, its
// scripts, the config.json a pod of it gets — and reports the median over
// batches of about 5 ms, so a single slow batch does not move it.
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "engines/serve_slot.hpp"
#include "obs/trace.hpp"
#include "oci/spec.hpp"
#include "perfbench.hpp"
#include "pylite/ast.hpp"
#include "pylite/interp.hpp"
#include "pylite/scripts.hpp"
#include "sim/cpu.hpp"
#include "sim/node.hpp"
#include "support/rng.hpp"
#include "wasi/vfs.hpp"
#include "wasi/wasi.hpp"
#include "wasm/baseline/compiler.hpp"
#include "wasm/decoder.hpp"
#include "wasm/exec/instance.hpp"
#include "wasm/validator.hpp"
#include "wasm/workloads.hpp"

namespace perfbench {

using namespace wasmctr;

namespace {

constexpr auto kBatch = std::chrono::milliseconds(5);
constexpr auto kProbeBudget = std::chrono::milliseconds(60);
constexpr std::size_t kMinBatches = 7;

/// Median over batches of host seconds per unit of work. `op(seconds,
/// work)` performs one operation and adds the host seconds it timed and
/// the work it did (1 for "one call", retired instructions for a rate).
double median_seconds_per_work(
    const std::function<void(double& seconds, double& work)>& op) {
  std::vector<double> per_work;
  const auto end = Clock::now() + kProbeBudget;
  while (per_work.size() < kMinBatches || Clock::now() < end) {
    double seconds = 0;
    double work = 0;
    const auto batch_end = Clock::now() + kBatch;
    do {
      op(seconds, work);
    } while (Clock::now() < batch_end);
    if (work > 0) per_work.push_back(seconds / work);
  }
  std::sort(per_work.begin(), per_work.end());
  return per_work[per_work.size() / 2];
}

/// Shorthand for one timed call per operation.
double median_call_s(const std::function<void()>& call) {
  return median_seconds_per_work([&](double& seconds, double& work) {
    timed(seconds, call);
    work += 1;
  });
}

[[noreturn]] void probe_failed(const std::string& what, const Status& st) {
  std::fprintf(stderr, "layer probe failed: %s: %s\n", what.c_str(),
               st.to_string().c_str());
  std::exit(3);
}

template <class T>
T expect(Result<T> r, const std::string& what) {
  if (!r) probe_failed(what, r.status());
  return std::move(*r);
}

/// WASI state an instance needs for the lifetime of its imports.
struct WasiHost {
  wasi::VirtualFs fs;
  wasi::WasiContext ctx;
  wasm::ImportResolver resolver;
  WasiHost() : ctx(options(), fs) { ctx.register_imports(resolver); }
  static wasi::WasiOptions options() {
    wasi::WasiOptions o;
    o.args = {"app.wasm"};
    o.env = {{"SERVICE_NAME", "probe"}, {"PORT", "8080"}};
    return o;
  }
};

/// Retired guest instructions per host second of the workload's own guest
/// entry point: handle(n) on a warm instance when the workload serves
/// requests, else one `_start` per fresh instance, as a pod runs it.
double guest_mops(const std::vector<uint8_t>& bytes, bool baseline,
                  bool serving, int32_t n) {
  std::shared_ptr<const wasm::baseline::CompiledModule> compiled;
  if (baseline) {
    const wasm::Module m = expect(wasm::decode_module(bytes), "decode");
    compiled = expect(wasm::baseline::compile_module(m, bytes), "compile");
  }
  wasm::ExecLimits limits;
  limits.fuel = engines::kRequestFuel;
  const auto instantiate = [&](WasiHost& host) {
    return expect(wasm::Instance::instantiate(
                      expect(wasm::decode_module(bytes), "decode"),
                      host.resolver, limits, compiled),
                  "instantiate");
  };
  const auto run = [&](wasm::Instance& inst, std::string_view entry,
                       std::span<const wasm::Value> args, double& seconds,
                       double& work) {
    inst.set_fuel(engines::kRequestFuel);
    const uint64_t before = inst.instructions_retired();
    timed(seconds, [&] { (void)inst.invoke(entry, args); });
    work += static_cast<double>(inst.instructions_retired() - before);
  };
  double s_per_inst = 0;
  if (serving) {
    WasiHost host;
    auto inst = instantiate(host);
    const wasm::Value arg[] = {wasm::Value::from_i32(n)};
    s_per_inst = median_seconds_per_work([&](double& s, double& w) {
      run(*inst, "handle", arg, s, w);
    });
  } else {
    s_per_inst = median_seconds_per_work([&](double& s, double& w) {
      WasiHost host;
      auto inst = instantiate(host);
      run(*inst, "_start", {}, s, w);
    });
  }
  return 1e-6 / s_per_inst;
}

/// Host ns per task completion of one node's CPU model holding `runnable`
/// tasks: every completion submits a fresh burst, so the load stays put.
double cpu_completion_ns(std::size_t runnable, uint64_t seed) {
  sim::Kernel kernel;
  sim::CpuScheduler cpu(kernel, sim::NodeConfig{}.cores);
  Rng rng(seed);
  double completions = 0;
  std::function<void()> submit = [&] {
    cpu.submit(sim_ms(static_cast<int64_t>(1 + rng.next_below(10))), [&] {
      completions += 1;
      submit();
    });
  };
  for (std::size_t i = 0; i < std::max<std::size_t>(runnable, 1); ++i) submit();
  return 1e9 * median_seconds_per_work([&](double& s, double& w) {
    const double before = completions;
    timed(s, [&] { kernel.step(); });
    w += completions - before;
  });
}

}  // namespace

std::map<std::string, double> probe_layers(const Inputs& in,
                                           std::size_t runnable_max) {
  const bool serving = in.workload == "serve_churn";
  const std::vector<uint8_t> bytes = serving
                                         ? wasm::build_request_microservice()
                                         : wasm::build_minimal_microservice();
  const std::string script = serving ? pylite::request_handler_script()
                                     : pylite::minimal_microservice_script();
  std::map<std::string, double> out;

  // wasm: the front end, the baseline compiler, instantiation, execution.
  const wasm::Module module = expect(wasm::decode_module(bytes), "decode");
  out["wasm.decode_us"] =
      1e6 * median_call_s([&] { (void)wasm::decode_module(bytes); });
  out["wasm.validate_us"] =
      1e6 * median_call_s([&] { (void)wasm::validate_module(module); });
  out["wasm.compile_us"] = 1e6 * median_call_s([&] {
    (void)wasm::baseline::compile_module(module, bytes);
  });
  out["wasm.instantiate_us"] =
      1e6 * median_seconds_per_work([&](double& s, double& w) {
        WasiHost host;
        wasm::Module m = expect(wasm::decode_module(bytes), "decode");
        std::unique_ptr<wasm::Instance> inst;  // destroyed untimed
        timed(s, [&] {
          inst = expect(wasm::Instance::instantiate(std::move(m), host.resolver),
                        "instantiate");
        });
        w += 1;
      });
  out["wasm.interp.mops_per_s"] = guest_mops(bytes, false, serving, in.request_n);
  out["wasm.baseline.mops_per_s"] = guest_mops(bytes, true, serving, in.request_n);

  // pylite: parse the script; run it (a pod's start) or call handle(n).
  out["pylite.parse_us"] =
      1e6 * median_call_s([&] { (void)pylite::parse_source(script); });
  const pylite::Program program =
      expect(pylite::parse_source(script), "pylite parse");
  if (serving) {
    pylite::Interp interp;
    if (const Status st = interp.run(program); !st.is_ok()) {
      probe_failed("pylite run", st);
    }
    out["pylite.call_us"] = 1e6 * median_call_s([&] {
      interp.set_step_limit(interp.steps_executed() + engines::kRequestStepBudget);
      (void)interp.call("handle", {pylite::PyValue::integer(in.request_n)});
    });
  } else {
    out["pylite.call_us"] =
        1e6 * median_seconds_per_work([&](double& s, double& w) {
          pylite::Interp interp;
          timed(s, [&] { (void)interp.run(program); });
          w += 1;
        });
  }

  // oci: the config.json containerd writes for one of the workload's pods.
  oci::RuntimeSpec spec;
  spec.args = {serving ? "handler.wasm" : "app.wasm"};
  spec.env = {{"SERVICE_NAME", "pod-crun-wamr-0"}, {"PORT", "8080"}};
  spec.memory_limit = serving ? 64ull << 20 : 0;
  spec.cgroups_path = "kubepods/besteffort/pod-0/ctr-1";
  spec.annotations = {{std::string(oci::kHandlerAnnotation), "wasm"},
                      {std::string(oci::kWasmVariantAnnotation), "compat"},
                      {std::string(oci::kSandboxNameAnnotation), "pod-0"}};
  const std::string config_json = spec.to_config_json();
  out["oci.spec_parse_us"] =
      1e6 * median_call_s([&] { (void)oci::RuntimeSpec::parse(config_json); });

  // obs: one begin/end span pair on a fresh tracer.
  {
    sim::Kernel kernel;
    obs::Tracer tracer(kernel);
    out["obs.trace.span_ns"] =
        1e9 * median_seconds_per_work([&](double& s, double& w) {
          timed(s, [&] {
            for (int i = 0; i < 1000; ++i) {
              tracer.end_span(tracer.begin_span("probe.span", "bench"));
            }
          });
          w += 1000;
          tracer.clear();
        });
  }

  // sim CPU model at the workload's own peak runnable count.
  out["sim.cpu.completion_ns"] = cpu_completion_ns(runnable_max, in.seed);
  return out;
}

}  // namespace perfbench
