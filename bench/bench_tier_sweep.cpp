// Tier sweep — the headline bench for the baseline compiler tier:
// interpreter-vs-baseline memory and startup curves per engine profile
// (DESIGN.md §13).
//
// Every cell deploys a fresh cluster under a ScopedTierOverride and
// measures what the paper's figures measure (metrics-server MiB/pod,
// `free` MiB/pod, startup makespan) plus what only this tier can
// produce: the *measured* compile of the deployed module — wasm ops in,
// bytecode bytes out, fused superinstructions, and the code/meta page
// counts that become real shared mappings in src/mem.
//
// The sweep's shape: under the baseline tier crun-wasmtime pays one
// shared compile per node that amortizes with density, while crun-wamr
// (no artifact cache) pays a per-pod compile whose aggregate CPU grows
// linearly — so the tier gap *shrinks* with density for wasmtime and
// *widens* in absolute seconds for wamr. Memory stays put: the tier
// swaps jump-table side structures for slot frames and 2 shared pages,
// noise next to the MB-scale fixed footprints.
//
// Flags:
//   --smoke          density 10 only (the CI step)
//   --out <path>     where to write BENCH_tier.json
//   --export <path>  run one deterministic cell (crun-wasmtime,
//                    baseline, n=100) and write its trace bundle so CI
//                    can cmp two same-seed invocations byte for byte
#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include "bench_support/report.hpp"
#include "engines/engine.hpp"
#include "k8s/cluster.hpp"
#include "support/json.hpp"
#include "wasm/workloads.hpp"

using namespace wasmctr;
using namespace wasmctr::bench;
using engines::Tier;
using k8s::Cluster;
using k8s::DeployConfig;

namespace {

constexpr DeployConfig kConfigs[] = {DeployConfig::kCrunWamr,
                                     DeployConfig::kCrunWasmtime};
constexpr Tier kTiers[] = {Tier::kInterpreter, Tier::kBaseline};
constexpr uint32_t kDensities[] = {10, 100, 400};

engines::EngineKind engine_kind_of(DeployConfig config) {
  return config == DeployConfig::kCrunWamr ? engines::EngineKind::kWamr
                                           : engines::EngineKind::kWasmtime;
}

struct TierCell {
  DeployConfig config;
  Tier tier;
  uint32_t density = 0;
  double metrics_mib = 0;
  double free_mib = 0;
  double makespan_s = 0;
  // Measured compile of the deployed module (all-zero under interp).
  engines::CompileMeasurement compile;
  double compile_cpu_s = 0;
  std::string bundle;  // filled only in --export mode
};

TierCell run_cell(DeployConfig config, Tier tier, uint32_t density,
                  bool want_bundle) {
  engines::ScopedTierOverride override(tier);
  Cluster cluster;
  Status st = cluster.deploy(config, density);
  if (!st.is_ok()) {
    std::fprintf(stderr, "deploy failed: %s\n", st.to_string().c_str());
    std::exit(1);
  }
  cluster.run();
  if (cluster.running_count() != density) {
    std::fprintf(stderr, "only %zu/%u pods running\n",
                 cluster.running_count(), density);
    std::exit(1);
  }

  TierCell cell;
  cell.config = config;
  cell.tier = tier;
  cell.density = density;
  cell.metrics_mib = cluster.metrics_avg_per_container().mib();
  cell.free_mib = cluster.free_avg_per_container().mib();
  cell.makespan_s = to_seconds(cluster.startup_makespan());
  if (tier == Tier::kBaseline) {
    // Same measurement the runtime path feeds into map_shared and the
    // compile burst: the module every figure bench deploys.
    const engines::Engine& engine = *engines::installed(
        engines::Integration::kCrun, engine_kind_of(config));
    auto m = engine.measure_compile(wasm::build_minimal_microservice());
    if (m.is_ok()) {
      cell.compile = *m;
      cell.compile_cpu_s = engine.compile_cpu_s(*m);
    }
  }
  if (want_bundle) {
    cell.bundle = cluster.obs().tracer.chrome_trace_json();
    cell.bundle += '\n';
    cell.bundle += cluster.obs().metrics.prometheus_text();
  }
  return cell;
}

void print_cell(const TierCell& c) {
  std::printf("  %-14s %-9s n=%-4u metrics=%7.2f MiB  free=%7.2f MiB  "
              "makespan=%8.3f s",
              k8s::deploy_config_name(c.config),
              engines::tier_name(c.tier), c.density, c.metrics_mib,
              c.free_mib, c.makespan_s);
  if (c.tier == Tier::kBaseline) {
    std::printf("  compile=%5.3f s (%llu ops -> %llu B bc, %u+%u pages)",
                c.compile_cpu_s,
                static_cast<unsigned long long>(c.compile.wasm_ops),
                static_cast<unsigned long long>(c.compile.bytecode_bytes),
                c.compile.code_pages, c.compile.meta_pages);
  }
  std::printf("\n");
}

json::Object results_json(const std::vector<TierCell>& cells) {
  json::Array arr;
  for (const TierCell& c : cells) {
    json::Object o;
    o["config"] = std::string(k8s::deploy_config_name(c.config));
    o["tier"] = std::string(engines::tier_name(c.tier));
    o["density"] = static_cast<double>(c.density);
    o["metrics_mib"] = c.metrics_mib;
    o["free_mib"] = c.free_mib;
    o["makespan_s"] = c.makespan_s;
    if (c.tier == Tier::kBaseline) {
      json::Object m;
      m["wasm_bytes"] = static_cast<double>(c.compile.wasm_bytes);
      m["wasm_ops"] = static_cast<double>(c.compile.wasm_ops);
      m["bytecode_bytes"] = static_cast<double>(c.compile.bytecode_bytes);
      m["meta_bytes"] = static_cast<double>(c.compile.meta_bytes);
      m["fused"] = static_cast<double>(c.compile.fused);
      m["code_pages"] = static_cast<double>(c.compile.code_pages);
      m["meta_pages"] = static_cast<double>(c.compile.meta_pages);
      m["compile_cpu_s"] = c.compile_cpu_s;
      o["compile"] = std::move(m);
    }
    arr.push_back(json::Value(std::move(o)));
  }
  json::Object root;
  root["bench"] = std::string("tier_sweep");
  root["cells"] = std::move(arr);
  return root;
}

const TierCell& find_cell(const std::vector<TierCell>& cells,
                          DeployConfig config, Tier tier, uint32_t density) {
  for (const TierCell& c : cells) {
    if (c.config == config && c.tier == tier && c.density == density) {
      return c;
    }
  }
  std::fprintf(stderr, "cell not measured\n");
  std::exit(1);
}

int check_cells(const std::vector<TierCell>& cells, bool smoke) {
  ShapeChecks checks;
  const auto get = [&](DeployConfig c, Tier t, uint32_t d) -> const TierCell& {
    return find_cell(cells, c, t, d);
  };

  // The compile is measured, not calibrated: real ops counted, real
  // bytecode emitted, page counts that src/mem actually maps.
  for (const TierCell& c : cells) {
    if (c.tier != Tier::kBaseline) continue;
    checks.check(c.compile.wasm_ops > 0 && c.compile.bytecode_bytes > 0,
                 "measured compile nonzero (" +
                     std::string(k8s::deploy_config_name(c.config)) + ")");
    checks.check(c.compile.code_pages >= 1 && c.compile.meta_pages >= 1,
                 "code/meta regions occupy >=1 page each (" +
                     std::string(k8s::deploy_config_name(c.config)) + ")");
    checks.check(c.compile_cpu_s > 0, "compile cost priced from measurement");
  }

  // Startup: compiling costs more than not compiling at low density.
  for (const DeployConfig config : kConfigs) {
    const std::string name = k8s::deploy_config_name(config);
    checks.check(get(config, Tier::kBaseline, 10).makespan_s >
                     get(config, Tier::kInterpreter, 10).makespan_s,
                 name + " baseline makespan > interp makespan at n=10");
  }

  // Memory: the tier trades jump tables for slot frames plus 2 shared
  // pages per node — invisible next to the MB-scale fixed footprints.
  for (const DeployConfig config : kConfigs) {
    for (const Tier tier : kTiers) {
      for (const TierCell& c : cells) {
        if (c.config != config || c.tier != tier) continue;
        const TierCell& other =
            get(config, tier == Tier::kBaseline ? Tier::kInterpreter
                                                : Tier::kBaseline,
                c.density);
        const double gap =
            std::abs(c.metrics_mib - other.metrics_mib) /
            std::max(other.metrics_mib, 1e-9);
        checks.check(gap < 0.05,
                     std::string(k8s::deploy_config_name(config)) +
                         " tier memory gap < 5 % at n=" +
                         std::to_string(c.density),
                     0.05, gap);
        break;
      }
    }
  }

  if (!smoke) {
    // Amortization, the Fig 8 -> Fig 9 mechanism restated per tier:
    // wasmtime's one shared compile per node fades as density grows...
    const auto rel_gap = [&](DeployConfig c, uint32_t d) {
      const double interp = get(c, Tier::kInterpreter, d).makespan_s;
      const double base = get(c, Tier::kBaseline, d).makespan_s;
      return (base - interp) / std::max(interp, 1e-9);
    };
    checks.check(rel_gap(DeployConfig::kCrunWasmtime, 400) <
                     rel_gap(DeployConfig::kCrunWasmtime, 10),
                 "crun-wasmtime relative tier gap shrinks from n=10 to "
                 "n=400 (shared compile amortizes)");
    // ...while wamr's per-pod compile piles up CPU with every pod.
    const double wamr_gap_10 =
        get(DeployConfig::kCrunWamr, Tier::kBaseline, 10).makespan_s -
        get(DeployConfig::kCrunWamr, Tier::kInterpreter, 10).makespan_s;
    const double wamr_gap_400 =
        get(DeployConfig::kCrunWamr, Tier::kBaseline, 400).makespan_s -
        get(DeployConfig::kCrunWamr, Tier::kInterpreter, 400).makespan_s;
    checks.check(wamr_gap_400 > wamr_gap_10,
                 "crun-wamr absolute tier gap widens from n=10 to n=400 "
                 "(per-pod compile, no cache)");
  }

  return checks.summarize("tier_sweep");
}

}  // namespace

int main(int argc, char** argv) {
  const BenchArgs args = parse_args(argc, argv,
                                    kFlagSmoke | kFlagOut | kFlagExport,
                                    "BENCH_tier.json");
  const bool smoke = args.smoke;

  if (!args.export_path.empty()) {
    // Determinism mode: the cell where both the shared compile and the
    // cache-hit waiters appear — baseline wasmtime at density 100.
    std::printf("tier determinism cell: crun-wasmtime/baseline/d100\n");
    TierCell cell =
        run_cell(DeployConfig::kCrunWasmtime, Tier::kBaseline, 100, true);
    write_export(args.export_path, cell.bundle);
    ShapeChecks checks;
    checks.check(cell.compile.wasm_ops > 0 && cell.compile.bytecode_bytes > 0,
                 "measured compile nonzero");
    checks.check(!cell.bundle.empty(), "trace bundle nonempty");
    return checks.summarize("tier_sweep_export");
  }

  std::printf("TIER SWEEP interpreter vs baseline compiler "
              "(memory + startup per engine profile)%s\n\n",
              smoke ? " [smoke: density 10 only]" : "");
  std::vector<TierCell> cells;
  for (const DeployConfig config : kConfigs) {
    for (const Tier tier : kTiers) {
      for (const uint32_t density : kDensities) {
        if (smoke && density != 10) continue;
        std::printf("running %s/%s n=%u ...\n",
                    k8s::deploy_config_name(config),
                    engines::tier_name(tier), density);
        cells.push_back(run_cell(config, tier, density, false));
        print_cell(cells.back());
      }
    }
  }
  write_json(args.out, results_json(cells));
  return check_cells(cells, smoke);
}
