// The paper's evaluation (§IV) in one run: Table I, Table II with a
// two-pod deploy smoke per configuration, Figs 3-10 as ASCII bar charts
// with their PASS/FAIL shape checks, the §III-C ablations, and one CSV of
// the measured matrix. Every figure reads the same 9-config ×
// {10,100,400} matrix, measured once (fresh cluster per cell, as the
// paper re-provisions between experiments). Takes no arguments; exits 0
// iff every deploy smoke and shape check passes.
#include <algorithm>
#include <cmath>
#include <cstdio>

#include "bench_support/report.hpp"
#include "engines/calibration.hpp"

using namespace wasmctr;
using namespace wasmctr::bench;
using k8s::Cluster;
using k8s::DeployConfig;

namespace {

using Samples = std::vector<Sample>;

const std::vector<DeployConfig> kConfigs(std::begin(k8s::kAllConfigs),
                                         std::end(k8s::kAllConfigs));
const std::vector<uint32_t> kDensities = {10, 100, 400};
// The Wasm engines embedded in crun: the Fig 3 / Fig 4 configurations.
const std::vector<DeployConfig> kCrunWasm = {
    DeployConfig::kCrunWamr, DeployConfig::kCrunWasmtime,
    DeployConfig::kCrunWasmer, DeployConfig::kCrunWasmEdge};

// Table I — software stack for the evaluation: the paper's stack and the
// wasmctr module that substitutes for each component (see DESIGN.md §2 for
// why each substitution preserves behaviour).
void table1() {
  constexpr const char* kRows[][3] = {
      {"Software", "Paper version", "wasmctr substitute"},
      {"--------", "-------------", "------------------"},
      {"Linux", "5.4.0-187-generic",
       "src/sim + src/mem (processes, cgroups, page cache)"},
      {"Kubernetes", "1.27.0",
       "src/k8s (apiserver, scheduler, kubelet, metrics)"},
      {"containerd", "1.1.1", "src/containerd (daemon, shims, CRI, images)"},
      {"runC", "1.6.31", "src/oci (Runc)"},
      {"crun", "(modified)", "src/oci (Crun + WAMR integration)"},
      {"WAMR", "2.1.0", "src/wasm + src/wasi (real interpreter + WASI)"},
      {"WasmEdge", "0.14.0",
       "src/engines profile, baseline tier + compile cache"},
      {"Wasmer", "4.3.5", "src/engines profile, baseline tier + compile cache"},
      {"Wasmtime", "23.0.1",
       "src/engines profile, baseline tier + compile cache"},
      {"Python", "3.x", "src/pylite interpreter + CPython memory profile"},
  };
  std::printf("TABLE I: SOFTWARE STACK FOR THE EVALUATION\n");
  for (const auto& row : kRows) {
    std::printf("%-14s %-18s %s\n", row[0], row[1], row[2]);
  }

  std::printf("\nTestbed (paper §IV-A): Intel Xeon Silver 4210R, 20 cores, "
              "256 GB RAM\n");
  Cluster cluster;
  const auto& cfg = cluster.node().config();
  std::printf("Simulated node: %u cores, %.0f GB RAM, %.1f GB base usage\n",
              cfg.cores, cfg.ram.mib() / 1024.0, cfg.base_used.mib() / 1024.0);
  std::printf("Registered containerd handlers:");
  for (const auto& name : cluster.cri().handler_names()) {
    std::printf(" %s", name.c_str());
  }
  std::printf("\n");
}

// Table II — experiments overview: which sections measure what, with which
// runtimes, and where this binary reports each figure. Verifies every
// listed configuration actually deploys; returns false if one does not.
bool table2() {
  constexpr const char* kRows[][5] = {
      {"Section", "Metric", "Container runtime", "Language runtime",
       "Bench binary"},
      {"-------", "------", "-----------------", "----------------",
       "------------"},
      {"IV-B", "Memory", "crun", "WAMR, WasmEdge, Wasmer, Wasmtime",
       "bench_paper (Fig 3, 4)"},
      {"IV-C", "Memory", "crun, containerd", "WAMR, WasmEdge, Wasmer, Wasmtime",
       "bench_paper (Fig 5)"},
      {"IV-D", "Memory", "crun, runC", "WAMR, Python",
       "bench_paper (Fig 6, 7)"},
      {"IV-E", "Latency", "crun, runC, containerd",
       "WAMR, WasmEdge, Wasmer, Wasmtime, Python", "bench_paper (Fig 8, 9)"},
      {"IV-F", "Memory", "all", "all", "bench_paper (Fig 10)"},
  };
  std::printf("\nTABLE II: EXPERIMENTS OVERVIEW (10-400 containers, "
              "1 container per pod)\n\n");
  for (const auto& row : kRows) {
    std::printf("%-8s %-8s %-24s %-40s %s\n", row[0], row[1], row[2], row[3],
                row[4]);
  }

  std::printf("\nSmoke: deploying 2 pods of every configuration...\n");
  bool all_ok = true;
  for (const DeployConfig c : kConfigs) {
    Cluster cluster;
    const bool ok =
        cluster.deploy(c, 2).is_ok() && (cluster.run(), true) &&
        cluster.running_count() == 2 && cluster.failed_count() == 0;
    std::printf("  [%s] %s\n", ok ? "OK" : "BROKEN",
                k8s::deploy_config_label(c));
    all_ok = all_ok && ok;
  }
  return all_ok;
}

// Fig 3 — average memory per container for Wasm runtimes embedded in crun,
// measured by the Kubernetes metrics server, at 10/100/400 containers.
// Paper claim (§IV-B): crun-WAMR uses at least 50.34 % less memory than
// any other crun Wasm integration, at every density.
int fig3(const Samples& samples) {
  print_bars("FIG 3: memory per container, Wasm runtimes in crun "
             "(Kubernetes metrics server)",
             samples, kCrunWasm, kDensities,
             [](const Sample& s) { return s.metrics_mib; }, "MiB");

  ShapeChecks checks;
  for (const uint32_t d : kDensities) {
    const double ours = find(samples, DeployConfig::kCrunWamr, d).metrics_mib;
    double best_other = 1e9;
    for (DeployConfig c : {DeployConfig::kCrunWasmtime,
                           DeployConfig::kCrunWasmer,
                           DeployConfig::kCrunWasmEdge}) {
      best_other = std::min(best_other, find(samples, c, d).metrics_mib);
    }
    const double red = reduction_pct(ours, best_other);
    checks.check(red >= 50.34,
                 "density " + std::to_string(d) +
                     ": reduction vs best other crun engine >= 50.34 %",
                 50.34, red);
  }
  // Density invariance (§IV-B: "does not vary significantly").
  for (const DeployConfig c : kCrunWasm) {
    const double at10 = find(samples, c, 10).metrics_mib;
    const double at400 = find(samples, c, 400).metrics_mib;
    const double drift = std::abs(at10 - at400) / at400 * 100.0;
    checks.check(drift < 10.0,
                 std::string(k8s::deploy_config_name(c)) +
                     ": density drift < 10 %",
                 10.0, drift);
  }
  return checks.summarize("fig3");
}

// Fig 4 — same configurations as Fig 3, measured with the Linux `free`
// command. Paper claims (§IV-B): crun-WAMR uses at least 40.0 % less than
// the second-best (crun-wasmedge); free reports more than the metrics
// server, by up to 42 % (checked for every configuration: C7).
int fig4(const Samples& samples) {
  print_bars("FIG 4: memory per container, Wasm runtimes in crun (free)",
             samples, kCrunWasm, kDensities,
             [](const Sample& s) { return s.free_mib; }, "MiB");

  ShapeChecks checks;
  for (const uint32_t d : kDensities) {
    const double ours = find(samples, DeployConfig::kCrunWamr, d).free_mib;
    double best_other = 1e9;
    DeployConfig best_cfg = DeployConfig::kCrunWasmtime;
    for (DeployConfig c : {DeployConfig::kCrunWasmtime,
                           DeployConfig::kCrunWasmer,
                           DeployConfig::kCrunWasmEdge}) {
      const double v = find(samples, c, d).free_mib;
      if (v < best_other) {
        best_other = v;
        best_cfg = c;
      }
    }
    const double red = reduction_pct(ours, best_other);
    checks.check(red >= 40.0,
                 "density " + std::to_string(d) +
                     ": reduction vs best other crun engine >= 40.0 %",
                 40.0, red);
    checks.check(best_cfg == DeployConfig::kCrunWasmEdge,
                 "density " + std::to_string(d) +
                     ": second-best crun engine on free is crun-wasmedge");
  }
  // free > metrics, by up to ~42 % (paper §IV-B), for every cell.
  double min_excess = 1e9;
  double max_excess = 0;
  for (const DeployConfig c : kConfigs) {
    for (const uint32_t d : kDensities) {
      const Sample& s = find(samples, c, d);
      const double excess = (s.free_mib / s.metrics_mib - 1.0) * 100.0;
      min_excess = std::min(min_excess, excess);
      max_excess = std::max(max_excess, excess);
    }
  }
  checks.check(min_excess > 0.0,
               "free exceeds metrics-server values for all 9 configs at "
               "every density",
               0.0, min_excess);
  checks.check(max_excess <= 42.0,
               "free exceeds metrics-server values by up to 42 % (all 9 "
               "configs, every density)",
               42.0, max_excess);
  return checks.summarize("fig4");
}

// Fig 5 — memory per container for the runwasi shims vs our integration,
// measured with `free`. Paper claims (§IV-C): ours is lowest regardless of
// density; >=10.87 % below containerd-shim-wasmtime (the second-best
// overall) and 77.53 % below containerd-shim-wasmer (the worst).
int fig5(const Samples& samples) {
  const std::vector<DeployConfig> configs = {
      DeployConfig::kCrunWamr, DeployConfig::kShimWasmtime,
      DeployConfig::kShimWasmer, DeployConfig::kShimWasmEdge};
  print_bars("FIG 5: memory per container, runwasi shims vs ours (free)",
             samples, configs, kDensities,
             [](const Sample& s) { return s.free_mib; }, "MiB");

  ShapeChecks checks;
  double min_vs_wasmtime = 1e9;
  double worst_vs_wasmer = 77.53;
  for (const uint32_t d : kDensities) {
    const double ours = find(samples, DeployConfig::kCrunWamr, d).free_mib;
    for (DeployConfig c : {DeployConfig::kShimWasmtime,
                           DeployConfig::kShimWasmer,
                           DeployConfig::kShimWasmEdge}) {
      checks.check(ours < find(samples, c, d).free_mib,
                   "density " + std::to_string(d) + ": ours < " +
                       k8s::deploy_config_name(c));
    }
    min_vs_wasmtime = std::min(
        min_vs_wasmtime,
        reduction_pct(ours, find(samples, DeployConfig::kShimWasmtime, d)
                                .free_mib));
    const double vs_wasmer = reduction_pct(
        ours, find(samples, DeployConfig::kShimWasmer, d).free_mib);
    if (std::abs(vs_wasmer - 77.53) > std::abs(worst_vs_wasmer - 77.53)) {
      worst_vs_wasmer = vs_wasmer;
    }
  }
  checks.check(min_vs_wasmtime >= 10.87,
               "reduction vs containerd-shim-wasmtime >= 10.87 % at every "
               "density",
               10.87, min_vs_wasmtime);
  checks.check(std::abs(worst_vs_wasmer - 77.53) < 2.0,
               "reduction vs containerd-shim-wasmer ~= 77.53 % at every "
               "density",
               77.53, worst_vs_wasmer);
  return checks.summarize("fig5");
}

// Fig 6 — our integration vs Python containers (crun and runC), measured
// by the Kubernetes metrics server. Paper claims (§IV-D): ours uses
// >=17.98 % less than crun+Python and >=18.15 % less than runC+Python; it
// is the only Wasm runtime below Python; the second-most efficient Wasm
// runtime (containerd-shim-wasmtime) sits 21.07 % above ours.
int fig6(const Samples& samples) {
  const std::vector<DeployConfig> configs = {
      DeployConfig::kCrunWamr, DeployConfig::kShimWasmtime,
      DeployConfig::kCrunPython, DeployConfig::kRuncPython};
  print_bars("FIG 6: ours vs Python containers (Kubernetes metrics server)",
             samples, configs, kDensities,
             [](const Sample& s) { return s.metrics_mib; }, "MiB");

  ShapeChecks checks;
  double min_vs_crun_py = 1e9;
  double min_vs_runc_py = 1e9;
  for (const uint32_t d : kDensities) {
    const double ours = find(samples, DeployConfig::kCrunWamr, d).metrics_mib;
    min_vs_crun_py = std::min(
        min_vs_crun_py,
        reduction_pct(ours,
                      find(samples, DeployConfig::kCrunPython, d).metrics_mib));
    min_vs_runc_py = std::min(
        min_vs_runc_py,
        reduction_pct(ours,
                      find(samples, DeployConfig::kRuncPython, d).metrics_mib));
    // Only ours beats Python on the metrics server: the lowest other Wasm
    // config stays above crun+Python (measured: its margin, in %).
    double lowest_other = 1e9;
    for (const DeployConfig c : kConfigs) {
      if (c != DeployConfig::kCrunWamr && k8s::deploy_config_is_wasm(c)) {
        lowest_other = std::min(lowest_other, find(samples, c, d).metrics_mib);
      }
    }
    const double crun_py =
        find(samples, DeployConfig::kCrunPython, d).metrics_mib;
    checks.check(lowest_other > crun_py,
                 "density " + std::to_string(d) +
                     ": all six other Wasm configs stay above crun+Python "
                     "(metrics server)",
                 0.0, (lowest_other / crun_py - 1.0) * 100.0);
  }
  checks.check(min_vs_crun_py >= 17.98,
               "reduction vs crun+Python >= 17.98 %", 17.98, min_vs_crun_py);
  checks.check(min_vs_runc_py >= 18.15,
               "reduction vs runC+Python >= 18.15 %", 18.15, min_vs_runc_py);
  const double vs_shim = reduction_pct(
      find(samples, DeployConfig::kCrunWamr, 400).metrics_mib,
      find(samples, DeployConfig::kShimWasmtime, 400).metrics_mib);
  checks.check(std::abs(vs_shim - 21.07) < 3.0,
               "reduction vs second-best Wasm runtime ~= 21.07 %", 21.07,
               vs_shim);
  return checks.summarize("fig6");
}

// Fig 7 — ours vs Python containers measured with `free`. Paper claims
// (§IV-D): ours uses >=16.38 % less than crun+Python and >=17.87 % less
// than runC+Python; containerd-shim-wasmtime now also beats Python, by at
// least 4.66 % (the only other Wasm runtime to do so).
int fig7(const Samples& samples) {
  const std::vector<DeployConfig> configs = {
      DeployConfig::kCrunWamr, DeployConfig::kShimWasmtime,
      DeployConfig::kShimWasmEdge, DeployConfig::kCrunPython,
      DeployConfig::kRuncPython};
  print_bars("FIG 7: ours vs Python containers (free)", samples, configs,
             kDensities, [](const Sample& s) { return s.free_mib; }, "MiB");

  ShapeChecks checks;
  double min_vs_crun_py = 1e9;
  double min_vs_runc_py = 1e9;
  double min_shim_vs_py = 1e9;
  for (const uint32_t d : kDensities) {
    const double ours = find(samples, DeployConfig::kCrunWamr, d).free_mib;
    const double crun_py = find(samples, DeployConfig::kCrunPython, d).free_mib;
    const double runc_py = find(samples, DeployConfig::kRuncPython, d).free_mib;
    min_vs_crun_py = std::min(min_vs_crun_py, reduction_pct(ours, crun_py));
    min_vs_runc_py = std::min(min_vs_runc_py, reduction_pct(ours, runc_py));
    min_shim_vs_py = std::min(
        min_shim_vs_py,
        reduction_pct(find(samples, DeployConfig::kShimWasmtime, d).free_mib,
                      crun_py));
    checks.check(find(samples, DeployConfig::kShimWasmEdge, d).free_mib >
                     crun_py,
                 "density " + std::to_string(d) +
                     ": shim-wasmedge stays above Python on free");
  }
  checks.check(min_vs_crun_py >= 16.38, "reduction vs crun+Python >= 16.38 %",
               16.38, min_vs_crun_py);
  checks.check(min_vs_runc_py >= 17.87, "reduction vs runC+Python >= 17.87 %",
               17.87, min_vs_runc_py);
  checks.check(min_shim_vs_py >= 4.66,
               "shim-wasmtime beats Python on free by >= 4.66 %", 4.66,
               min_shim_vs_py);
  return checks.summarize("fig7");
}

// Fig 8 — time to start 10 concurrent containers across all runtimes.
// Paper claims (§IV-E): our integration starts all modules in ~3.24 s;
// containerd-shim-wasmedge/-wasmtime are fastest (up to 11.45 % ahead);
// ours beats every other crun Wasm engine (>=2.66 %) and both Python
// configurations.
int fig8(const Samples& samples) {
  print_bars("FIG 8: time to start 10 concurrent containers", samples,
             kConfigs, {10}, [](const Sample& s) { return s.startup_s; },
             "s");

  ShapeChecks checks;
  const double ours = find(samples, DeployConfig::kCrunWamr, 10).startup_s;
  checks.check(std::abs(ours - 3.24) < 0.25,
               "ours starts 10 containers in ~3.24 s", 3.24, ours);
  // Shims are fastest at low density.
  const double shim_we =
      find(samples, DeployConfig::kShimWasmEdge, 10).startup_s;
  const double shim_wt =
      find(samples, DeployConfig::kShimWasmtime, 10).startup_s;
  checks.check(shim_we < ours && shim_wt < ours,
               "runwasi shims are fastest at 10 containers");
  const double shim_lead = reduction_pct(shim_we, ours);
  checks.check(shim_lead >= 5.0 && shim_lead <= 11.45 + 2.0,
               "fastest shim leads ours by up to 11.45 %", 11.45, shim_lead);
  // Ours beats every other crun engine by >= 2.66 %.
  for (DeployConfig c : {DeployConfig::kCrunWasmtime, DeployConfig::kCrunWasmer,
                         DeployConfig::kCrunWasmEdge}) {
    const double lead = reduction_pct(ours, find(samples, c, 10).startup_s);
    checks.check(lead >= 2.66,
                 std::string("ours >= 2.66 % faster than ") +
                     k8s::deploy_config_name(c),
                 2.66, lead);
  }
  // Ours beats Python by 3-18 % (abstract).
  for (DeployConfig c : {DeployConfig::kCrunPython, DeployConfig::kRuncPython}) {
    const double lead = reduction_pct(ours, find(samples, c, 10).startup_s);
    checks.check(lead >= 3.0 && lead <= 18.0,
                 std::string("ours 3-18 % faster than ") +
                     k8s::deploy_config_name(c),
                 18.0, lead);
  }
  return checks.summarize("fig8");
}

// Fig 9 — time to start 400 concurrent containers. Paper claims (§IV-E):
// the ranking flips at scale — ours is 18.82 % faster than
// containerd-shim-wasmedge and 28.38 % faster than
// containerd-shim-wasmtime, but 6.93 % slower than crun-Wasmtime (whose
// shared compilation cache amortizes); still faster than both Python
// configurations.
int fig9(const Samples& samples) {
  print_bars("FIG 9: time to start 400 concurrent containers", samples,
             kConfigs, {400}, [](const Sample& s) { return s.startup_s; },
             "s");

  ShapeChecks checks;
  const double ours = find(samples, DeployConfig::kCrunWamr, 400).startup_s;
  const double vs_shim_we = reduction_pct(
      ours, find(samples, DeployConfig::kShimWasmEdge, 400).startup_s);
  checks.check(std::abs(vs_shim_we - 18.82) < 3.0,
               "ours ~18.82 % faster than shim-wasmedge at 400", 18.82,
               vs_shim_we);
  const double vs_shim_wt = reduction_pct(
      ours, find(samples, DeployConfig::kShimWasmtime, 400).startup_s);
  checks.check(std::abs(vs_shim_wt - 28.38) < 3.0,
               "ours ~28.38 % faster than shim-wasmtime at 400", 28.38,
               vs_shim_wt);
  const double cwt = find(samples, DeployConfig::kCrunWasmtime, 400).startup_s;
  const double slower = (ours / cwt - 1.0) * 100.0;
  checks.check(std::abs(slower - 6.93) < 2.0,
               "ours ~6.93 % slower than crun-wasmtime at 400", 6.93, slower);
  checks.check(
      ours < find(samples, DeployConfig::kCrunPython, 400).startup_s &&
          ours < find(samples, DeployConfig::kRuncPython, 400).startup_s,
      "ours still beats both Python configurations at 400");
  return checks.summarize("fig9");
}

// Fig 10 — memory per container for every runtime, averaged over all
// deployment sizes (the paper's summary chart, §IV-F). Checks the overall
// ordering: ours lowest; shim-wasmtime second; only those two under
// Python; shim-wasmer worst.
int fig10(const Samples& samples) {
  std::printf("\nFIG 10: memory per container averaged over all deployment "
              "sizes (free)\n\n");
  struct Row {
    DeployConfig config;
    double avg_free;
    double avg_metrics;
  };
  std::vector<Row> rows;
  for (const DeployConfig c : kConfigs) {
    double free_sum = 0;
    double metrics_sum = 0;
    for (const uint32_t d : kDensities) {
      free_sum += find(samples, c, d).free_mib;
      metrics_sum += find(samples, c, d).metrics_mib;
    }
    rows.push_back({c, free_sum / kDensities.size(),
                    metrics_sum / kDensities.size()});
  }
  std::sort(rows.begin(), rows.end(),
            [](const Row& a, const Row& b) { return a.avg_free < b.avg_free; });
  const double max_v = rows.back().avg_free;
  for (const Row& r : rows) {
    const int bars = std::max(1, static_cast<int>(r.avg_free / max_v * 46));
    std::printf("  %-28s |%-46s| %6.2f MiB (metrics: %6.2f)\n",
                k8s::deploy_config_label(r.config),
                std::string(static_cast<std::size_t>(bars), '#').c_str(),
                r.avg_free, r.avg_metrics);
  }

  ShapeChecks checks;
  checks.check(rows.front().config == DeployConfig::kCrunWamr,
               "ours has the lowest average memory overall");
  checks.check(rows[1].config == DeployConfig::kShimWasmtime,
               "containerd-shim-wasmtime is second-best overall");
  checks.check(rows.back().config == DeployConfig::kShimWasmer,
               "containerd-shim-wasmer is the worst overall");
  // Exactly two Wasm configs sit below the best Python config on free.
  double python_best = 1e9;
  for (const Row& r : rows) {
    if (!k8s::deploy_config_is_wasm(r.config)) {
      python_best = std::min(python_best, r.avg_free);
    }
  }
  int wasm_below_python = 0;
  for (const Row& r : rows) {
    if (k8s::deploy_config_is_wasm(r.config) && r.avg_free < python_best) {
      ++wasm_below_python;
    }
  }
  checks.check(wasm_below_python == 2,
               "exactly two Wasm configs (ours + shim-wasmtime) beat Python "
               "on free",
               2, wasm_below_python);
  return checks.summarize("fig10");
}

// Ablations of the design choices DESIGN.md calls out (per §III-C):
//  A1 — dynamic library loading: what if libwamr pages were private per
//       container instead of a shared mapping?
//  A2 — shim-per-pod vs embedded engine: node memory consumed by shim
//       manager processes at density.
//  A3 — shared compilation cache: crun-wasmtime startup with the cache
//       mechanism exercised vs WAMR's no-compile path, across densities.
//       Only its n=50 and n=200 cells are measured here; the rest come
//       from the matrix.
int ablation(const Samples& samples) {
  ShapeChecks checks;

  // --- A1: value of the shared engine library mapping -------------------
  std::printf("\nABLATION A1: shared vs private engine library pages\n");
  for (const uint32_t n : kDensities) {
    const Sample& s = find(samples, DeployConfig::kCrunWamr, n);
    const double shared_mib =
        engines::crun_engine_profile(engines::EngineKind::kWamr)
            .shared_lib.mib();
    // Without sharing, every container would privately map the library.
    const double without = s.free_mib + shared_mib * (1.0 - 1.0 / n);
    std::printf("  n=%-4u with sharing: %6.2f MiB/ctr   without: %6.2f "
                "MiB/ctr  (+%4.1f %%)\n",
                n, s.free_mib, without,
                (without / s.free_mib - 1.0) * 100.0);
    if (n == 400) {
      checks.check(without > s.free_mib * 1.15,
                   "at 400 pods, private library copies would cost >15 % "
                   "more memory per container");
    }
  }

  // --- A2: shim process overhead at density -----------------------------
  std::printf("\nABLATION A2: per-pod shim manager overhead (free - metrics "
              "gap)\n");
  const Sample& crun = find(samples, DeployConfig::kCrunWamr, 100);
  const Sample& shim = find(samples, DeployConfig::kShimWasmtime, 100);
  for (const Sample* s : {&crun, &shim}) {
    std::printf("  %-28s node-only overhead: %5.2f MiB/ctr\n",
                k8s::deploy_config_label(s->config),
                s->free_mib - s->metrics_mib);
  }
  checks.check(
      (crun.free_mib - crun.metrics_mib) > (shim.free_mib - shim.metrics_mib),
      "crun path hides more memory from the metrics server (runc-v2 shim "
      "manager lives outside pod cgroups)");

  // --- A3: compilation cache vs interpreter across densities ------------
  std::printf("\nABLATION A3: crun-wasmtime shared compile cache vs WAMR "
              "interpreter\n");
  Samples a3 = run_matrix(
      {DeployConfig::kCrunWamr, DeployConfig::kCrunWasmtime}, {50, 200});
  a3.insert(a3.end(), samples.begin(), samples.end());
  double crossover_low = 0;
  double crossover_high = 0;
  for (const uint32_t n : {10u, 50u, 100u, 200u, 400u}) {
    const Sample& wamr = find(a3, DeployConfig::kCrunWamr, n);
    const Sample& cwt = find(a3, DeployConfig::kCrunWasmtime, n);
    std::printf("  n=%-4u wamr: %6.2f s   crun-wasmtime: %6.2f s   (%s)\n", n,
                wamr.startup_s, cwt.startup_s,
                wamr.startup_s < cwt.startup_s ? "wamr wins" : "wasmtime wins");
    if (n == 10) crossover_low = cwt.startup_s - wamr.startup_s;
    if (n == 400) crossover_high = wamr.startup_s - cwt.startup_s;
  }
  checks.check(crossover_low > 0,
               "at 10 pods the one-off compile makes crun-wasmtime slower");
  checks.check(crossover_high > 0,
               "at 400 pods the amortized cache makes crun-wasmtime faster "
               "(the paper's Fig 8 -> Fig 9 flip)");

  return checks.summarize("ablation");
}

}  // namespace

int main() {
  table1();
  int rc = table2() ? 0 : 1;
  const Samples samples = run_matrix(kConfigs, kDensities);
  for (int (*figure)(const Samples&) :
       {fig3, fig4, fig5, fig6, fig7, fig8, fig9, fig10, ablation}) {
    rc |= figure(samples);
  }
  print_csv(samples);
  return rc;
}
