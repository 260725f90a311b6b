// Startup-phase breakdown — *where* Fig 8/9's time goes, per runtime
// class, at densities 10 and 400. Every pod's startup timeline (opened at
// scheduler binding, closed when the workload executes) is split into
// tiled phases: sched.bind → kubelet.sync → sandbox.cni → cri.create →
// shim.spawn → runtime.exec (runc-v2 path) → engine.load / interp.boot →
// wasi.start. The breakdown explains the paper's shape: daemon-serialized
// shim spawn dominates the runwasi shims at 400, interpreter boot
// dominates Python, and WAMR-in-crun's engine phase stays negligible.
//
// `--export <path>` writes per-run Chrome trace JSON plus Prometheus
// metrics text, byte-identical across same-seed runs — CI runs this bench
// twice and diffs the files.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <string>
#include <vector>

#include "bench_support/report.hpp"
#include "obs/observability.hpp"

using namespace wasmctr;
using namespace wasmctr::bench;
using k8s::Cluster;
using k8s::DeployConfig;

namespace {

struct Breakdown {
  DeployConfig config;
  uint32_t density = 0;
  std::vector<obs::PhaseStat> phases;   // first-appearance order
  double mean_startup_s = 0;            // mean per-pod root duration
  double makespan_s = 0;                // Cluster::startup_makespan()
  double max_tiling_error = 0;          // worst |phase sum − root| / root
  double max_root_end_s = 0;            // latest root-span end
  uint64_t pods = 0;
};

const obs::PhaseStat* phase_of(const Breakdown& b, const std::string& name) {
  for (const obs::PhaseStat& p : b.phases) {
    if (p.phase == name) return &p;
  }
  return nullptr;
}

Breakdown run_breakdown(DeployConfig config, uint32_t density,
                        std::string* export_out) {
  Cluster cluster;
  const Status st = cluster.deploy(config, density);
  cluster.run();
  if (!st.is_ok() || cluster.running_count() != density) {
    std::fprintf(stderr, "%s n=%u did not start every pod\n",
                 k8s::deploy_config_name(config), density);
    std::exit(1);
  }

  const obs::Tracer& tracer = cluster.obs().tracer;
  Breakdown b;
  b.config = config;
  b.density = density;
  b.phases = tracer.pod_phase_stats();
  b.makespan_s = to_seconds(cluster.startup_makespan());

  // Per-pod tiling check: the closed phase children of each root span
  // must sum to the root's duration (phases begin exactly where the
  // previous one ends, so any gap is an instrumentation bug).
  std::map<uint64_t, double> child_sum;
  for (const obs::Span& s : tracer.spans()) {
    if (s.parent != 0 && s.closed && !s.instant) {
      child_sum[s.parent] += to_seconds(s.duration());
    }
  }
  double startup_sum = 0;
  for (const obs::Span* root : tracer.pod_roots()) {
    const double dur = to_seconds(root->duration());
    startup_sum += dur;
    ++b.pods;
    if (dur > 0) {
      const double err = std::abs(child_sum[root->id] - dur) / dur;
      b.max_tiling_error = std::max(b.max_tiling_error, err);
    }
    b.max_root_end_s = std::max(b.max_root_end_s, to_seconds(root->end));
  }
  b.mean_startup_s = b.pods == 0 ? 0 : startup_sum / static_cast<double>(b.pods);

  if (export_out != nullptr) {
    char header[128];
    std::snprintf(header, sizeof(header), "=== %s n=%u ===\n",
                  k8s::deploy_config_name(config), density);
    *export_out += header;
    *export_out += tracer.chrome_trace_json();
    *export_out += '\n';
    *export_out += cluster.obs().metrics.prometheus_text();
  }
  return b;
}

void print_breakdown(const Breakdown& b) {
  double total = 0;
  for (const obs::PhaseStat& p : b.phases) total += p.total_s;
  std::printf("\n  %-14s n=%-4u makespan=%8.3fs mean/pod=%8.3fs\n",
              k8s::deploy_config_name(b.config), b.density, b.makespan_s,
              b.mean_startup_s);
  for (const obs::PhaseStat& p : b.phases) {
    const double share = total > 0 ? p.total_s / total * 100.0 : 0;
    const double per_pod_ms =
        b.pods == 0 ? 0 : p.total_s / static_cast<double>(b.pods) * 1e3;
    std::printf("    %-14s %10.3fs total %10.3f ms/pod %6.2f %%\n",
                p.phase.c_str(), p.total_s, per_pod_ms, share);
  }
}

}  // namespace

int main(int argc, char** argv) {
  const std::string export_path =
      parse_args(argc, argv, kFlagExport).export_path;
  const std::vector<uint32_t> densities = {10, 400};
  std::string export_data;
  std::vector<Breakdown> all;

  std::printf("STARTUP-PHASE BREAKDOWN per runtime class (Fig 8/9 anatomy)\n");
  for (const DeployConfig config : k8s::kAllConfigs) {
    for (const uint32_t density : densities) {
      std::printf("running %s n=%u ...\n", k8s::deploy_config_name(config),
                  density);
      all.push_back(run_breakdown(
          config, density, export_path.empty() ? nullptr : &export_data));
      print_breakdown(all.back());
    }
  }

  if (!export_path.empty()) write_export(export_path, export_data);

  const auto get = [&](DeployConfig c, uint32_t d) -> const Breakdown& {
    for (const Breakdown& b : all) {
      if (b.config == c && b.density == d) return b;
    }
    std::fprintf(stderr, "breakdown not measured\n");
    std::exit(1);
  };

  ShapeChecks checks;
  // Accounting: every pod's phases tile its startup exactly, and the
  // latest timeline end is the makespan the paper measures.
  double worst_tiling = 0;
  double worst_makespan_gap = 0;
  for (const Breakdown& b : all) {
    worst_tiling = std::max(worst_tiling, b.max_tiling_error);
    if (b.makespan_s > 0) {
      worst_makespan_gap =
          std::max(worst_makespan_gap,
                   std::abs(b.max_root_end_s - b.makespan_s) / b.makespan_s);
    }
  }
  checks.check(worst_tiling < 0.01,
               "per-pod phase sums within 1 % of startup time", 0.01,
               worst_tiling);
  checks.check(worst_makespan_gap < 0.01,
               "latest timeline end matches startup_makespan", 0.01,
               worst_makespan_gap);

  // Per-pod seconds spent in `phase`, 0 when absent.
  const auto per_pod = [&](DeployConfig c, uint32_t d,
                           const std::string& phase) -> double {
    const obs::PhaseStat* p = phase_of(get(c, d), phase);
    if (p == nullptr || p->count == 0) return 0;
    return p->total_s / static_cast<double>(p->count);
  };

  // Runwasi anatomy, the Fig 8 → Fig 9 flip: at density 10 engine load
  // is the runtime-side cost and shim spawn is negligible; at 400 the
  // daemon-serialized spawn queue overtakes it and keeps growing.
  for (const DeployConfig shim :
       {DeployConfig::kShimWasmtime, DeployConfig::kShimWasmer,
        DeployConfig::kShimWasmEdge}) {
    const std::string name = k8s::deploy_config_name(shim);
    checks.check(per_pod(shim, 10, "shim.spawn") <
                     per_pod(shim, 10, "engine.load"),
                 "engine.load outweighs shim.spawn at n=10 (" + name + ")");
    checks.check(per_pod(shim, 400, "shim.spawn") >
                     per_pod(shim, 400, "engine.load"),
                 "shim.spawn overtakes engine.load at n=400 (" + name + ")");
    checks.check(per_pod(shim, 400, "shim.spawn") >
                     2.0 * per_pod(shim, 10, "shim.spawn"),
                 "per-pod shim.spawn grows >2x from n=10 to n=400 (" + name +
                     ")");
  }

  // Python anatomy: the interpreter boot each pod pays costs more than
  // the whole WAMR engine phase, and the class starts slower than ours
  // at both densities.
  for (const DeployConfig py :
       {DeployConfig::kCrunPython, DeployConfig::kRuncPython}) {
    const std::string name = k8s::deploy_config_name(py);
    for (const uint32_t d : densities) {
      checks.check(per_pod(py, d, "interp.boot") >
                       per_pod(DeployConfig::kCrunWamr, d, "engine.load"),
                   "interp.boot (" + name + ") > crun-wamr engine.load at n=" +
                       std::to_string(d));
      checks.check(get(py, d).makespan_s >
                       get(DeployConfig::kCrunWamr, d).makespan_s,
                   name + " makespan > crun-wamr makespan at n=" +
                       std::to_string(d));
    }
  }

  // The contribution: at density 10 (no contention, intrinsic cost)
  // WAMR-in-crun pays the cheapest engine.load of the crun Wasm family —
  // a sliver next to the preexisting integrations' full engine starts.
  for (const DeployConfig other :
       {DeployConfig::kCrunWasmtime, DeployConfig::kCrunWasmer,
        DeployConfig::kCrunWasmEdge}) {
    checks.check(per_pod(DeployConfig::kCrunWamr, 10, "engine.load") <
                     0.5 * per_pod(other, 10, "engine.load"),
                 "crun-wamr engine.load < half of " +
                     std::string(k8s::deploy_config_name(other)) +
                     "'s at n=10");
  }

  // Runwasi pays no separate runtime.exec phase (the shim is the runtime).
  checks.check(phase_of(get(DeployConfig::kShimWasmtime, 10),
                        "runtime.exec") == nullptr,
               "runwasi path has no runtime.exec phase");

  return checks.summarize("startup_breakdown");
}
