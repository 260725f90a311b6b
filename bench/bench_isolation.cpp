// Isolation bench — measured blast radius of noisy-neighbor tenants
// (DESIGN.md §12).
//
// Co-schedules a PDB-protected victim serving Deployment (4 replicas,
// minAvailable 2) with one adversarial tenant per cell — a linear-memory
// thrasher, a fuel burner, or a request spammer — at aggressor densities
// 10/100/400 across 4 worker nodes, with cgroup limits on the aggressor
// vs none, per engine profile (in-process crun-wamr vs shim-per-pod
// wasmtime-shim). Records per cell: victim p99 and its inflation over
// the victim-only baseline, per-tenant OOM kills and evictions,
// PDB eviction deferrals, and the victim's Ready-endpoints floor.
// Results land in BENCH_isolation.json.
//
// The pressure floor scales with density (fixed overhead ~2 GiB plus
// ~1.75 MiB per aggressor pod of legitimate baseline), so only memory
// growth beyond the expected footprint — the thrasher's ratcheting
// memory.grow — trips node-pressure eviction.
//
// Flags:
//   --smoke          run one thrasher cell + its baseline (the CI step)
//   --out <path>     where to write BENCH_isolation.json
//   --export <path>  run one deterministic cell and write its
//                    virtual-time trace bundle so CI can cmp two
//                    same-seed invocations byte for byte
#include <algorithm>
#include <cstdio>
#include <cstring>
#include <sstream>
#include <string>
#include <vector>

#include "bench_support/report.hpp"
#include "k8s/cluster.hpp"
#include "serve/traffic.hpp"
#include "support/json.hpp"

using namespace wasmctr;
using namespace wasmctr::bench;

namespace {

constexpr uint32_t kVictimReplicas = 4;
constexpr uint32_t kPdbMinAvailable = 2;
constexpr uint32_t kVictimRequests = 240;
constexpr double kVictimRateRps = 40.0;
constexpr uint32_t kDensities[] = {10, 100, 400};
const char* const kProfiles[] = {"crun-wamr", "wasmtime-shim"};

struct Aggressor {
  const char* name;
  const char* image;
  int32_t request_arg;    // per-request workload argument
  double rate_rps;        // aggressor arrival rate
  uint32_t requests_per_pod;
  uint64_t memory_limit;  // cgroup memory.max in limits mode
};

// The thrasher ratchets memory.grow 8 pages per request toward its
// 64-page module max: 6 MiB of pod cgroup clears the cold footprint
// (~3-4 MiB with the sandbox) but caps the ratchet mid-flight. The
// burner spins a hot loop per request and must stay memory-innocent,
// so its limit sits above its flat footprint. The spammer is the plain
// serving workload driven at a flood rate.
constexpr Aggressor kAggressors[] = {
    {"mem-thrasher", "mem-thrasher:wasm", 8, 200.0, 6, 6ull << 20},
    {"fuel-burner", "fuel-burner:wasm", 20000, 200.0, 6, 8ull << 20},
    {"request-spammer", "request-service:wasm", 100, 1000.0, 10,
     8ull << 20},
};

struct IsoResult {
  std::string profile;
  std::string aggressor;  // empty = victim-only baseline
  uint32_t density = 0;
  bool limits = false;
  double victim_p99_ms = 0;
  double p99_inflation = 1.0;
  uint32_t victim_served = 0;
  uint32_t victim_failed = 0;
  double victim_oom = 0;
  double noisy_oom = 0;
  double victim_evicted = 0;
  double noisy_evicted = 0;
  uint32_t deferrals = 0;
  int min_ready = -1;
  std::string bundle;  // filled only in --export mode
};

/// Replay the endpoints trace and return the lowest victim ready count
/// observed at or after the list first reached `full`.
int min_ready_after_full(const std::string& trace, const std::string& svc,
                         int full) {
  const std::string key = "svc=" + svc + " ";
  int count = 0;
  int min_seen = full;
  bool reached_full = false;
  std::istringstream in(trace);
  std::string line;
  while (std::getline(in, line)) {
    const auto pos = line.find(key);
    if (pos == std::string::npos) continue;
    count += line[pos + key.size()] == '+' ? 1 : -1;
    if (count >= full) reached_full = true;
    if (reached_full) min_seen = std::min(min_seen, count);
  }
  return reached_full ? min_seen : -1;
}

double counter_value(k8s::Cluster& cluster, const std::string& name,
                     const std::string& labels) {
  const obs::Counter* c = cluster.obs().metrics.find_counter(name, labels);
  return c == nullptr ? 0.0 : c->value();
}

/// Pressure floor for one cell: evict when available drops below
/// ram − (fixed overhead + per-aggressor baseline allowance).
Bytes pressure_floor(uint64_t ram, uint32_t density) {
  const uint64_t allowance =
      (2090ull << 20) + density * ((1ull << 20) * 7 / 4);
  return Bytes(ram - allowance);
}

IsoResult run_cell(const std::string& profile, const Aggressor* agg,
                   uint32_t density, bool limits, bool want_bundle) {
  IsoResult r;
  r.profile = profile;
  r.aggressor = agg == nullptr ? "" : agg->name;
  r.density = agg == nullptr ? 0 : density;
  r.limits = limits;

  k8s::ClusterOptions opts;
  opts.workers = 4;
  opts.node.seed = 42;
  opts.eviction_min_available =
      pressure_floor(opts.node.ram.value, r.density);
  k8s::Cluster cluster(opts);
  cluster.obs().tracer.set_span_capture(false);

  k8s::Service vs;
  vs.name = "victim-svc";
  vs.selector = {{"app", "victim"}};
  if (!cluster.api().create_service(vs).is_ok()) std::exit(1);
  serve::DeploymentSpec victim;
  victim.name = "victim";
  victim.replicas = kVictimReplicas;
  victim.pod_template.image = "request-service:wasm";
  victim.pod_template.runtime_class = profile;
  victim.pod_template.restart_policy = k8s::RestartPolicy::kNever;
  victim.pod_template.tenant = "victim";
  if (!cluster.deployments().create(victim).is_ok()) std::exit(1);
  k8s::PodDisruptionBudget pdb;
  pdb.name = "victim-pdb";
  pdb.selector = {{"tenant", "victim"}};
  pdb.min_available = kPdbMinAvailable;
  if (!cluster.api().create_pod_disruption_budget(pdb).is_ok()) std::exit(1);
  cluster.run_for(sim_s(40.0));

  if (agg != nullptr) {
    k8s::Service as;
    as.name = "noisy-svc";
    as.selector = {{"app", "noisy"}};
    if (!cluster.api().create_service(as).is_ok()) std::exit(1);
    serve::DeploymentSpec noisy;
    noisy.name = "noisy";
    noisy.replicas = density;
    noisy.pod_template.image = agg->image;
    noisy.pod_template.runtime_class = profile;
    noisy.pod_template.restart_policy = k8s::RestartPolicy::kOnFailure;
    noisy.pod_template.tenant = "noisy";
    if (limits) noisy.pod_template.memory_limit = agg->memory_limit;
    if (!cluster.deployments().create(noisy).is_ok()) std::exit(1);
    cluster.run_for(sim_s(60.0));
  }

  serve::TrafficOptions vt;
  vt.service = "victim-svc";
  vt.rate_rps = kVictimRateRps;
  vt.total_requests = kVictimRequests;
  vt.request_arg = 100;
  vt.seed = 0x7001;
  vt.tenant = "victim";
  serve::TrafficDriver victim_driver(cluster.kernel(), cluster.api(),
                                     cluster.cri(), cluster.endpoints(), vt);
  const auto resolver = [&cluster](const std::string& node) {
    return cluster.cri_for(node);
  };
  victim_driver.set_cri_resolver(resolver);
  victim_driver.start();

  std::unique_ptr<serve::TrafficDriver> noisy_driver;
  if (agg != nullptr) {
    serve::TrafficOptions nt;
    nt.service = "noisy-svc";
    nt.rate_rps = agg->rate_rps;
    nt.total_requests = density * agg->requests_per_pod;
    nt.request_arg = agg->request_arg;
    nt.seed = 0x9001;
    nt.tenant = "noisy";
    noisy_driver = std::make_unique<serve::TrafficDriver>(
        cluster.kernel(), cluster.api(), cluster.cri(), cluster.endpoints(),
        nt);
    noisy_driver->set_cri_resolver(resolver);
    noisy_driver->start();
  }
  cluster.run_for(sim_s(180.0));

  r.victim_p99_ms = victim_driver.latency().p99_ms;
  r.victim_served = victim_driver.served();
  r.victim_failed = victim_driver.failed();
  r.victim_oom =
      counter_value(cluster, "wasmctr_oom_kills_total", "tenant=\"victim\"");
  r.noisy_oom =
      counter_value(cluster, "wasmctr_oom_kills_total", "tenant=\"noisy\"");
  r.victim_evicted = counter_value(
      cluster, "wasmctr_tenant_pods_evicted_total", "tenant=\"victim\"");
  r.noisy_evicted = counter_value(
      cluster, "wasmctr_tenant_pods_evicted_total", "tenant=\"noisy\"");
  r.deferrals = cluster.disruption_gate().deferrals();
  r.min_ready = min_ready_after_full(cluster.endpoints().trace_string(),
                                     "victim-svc",
                                     static_cast<int>(kVictimReplicas));

  if (want_bundle) {
    // Virtual-time state only: byte-identical across same-seed runs.
    std::string blob;
    char line[256];
    std::snprintf(line, sizeof(line),
                  "== isolation cell profile=%s aggressor=%s density=%u "
                  "limits=%d ==\n"
                  "served=%u failed=%u victim_oom=%.0f noisy_oom=%.0f "
                  "victim_evicted=%.0f noisy_evicted=%.0f deferrals=%u "
                  "min_ready=%d\n",
                  r.profile.c_str(), r.aggressor.c_str(), r.density,
                  limits ? 1 : 0, r.victim_served, r.victim_failed,
                  r.victim_oom, r.noisy_oom, r.victim_evicted,
                  r.noisy_evicted, r.deferrals, r.min_ready);
    blob += line;
    blob += "== victim traffic trace ==\n" + victim_driver.trace_string();
    if (noisy_driver != nullptr) {
      blob += "== noisy traffic trace ==\n" + noisy_driver->trace_string();
    }
    blob += "== endpoints trace ==\n" + cluster.endpoints().trace_string();
    blob += "== disruption trace ==\n" +
            cluster.disruption_gate().trace_string();
    r.bundle = std::move(blob);
  }
  return r;
}

void print_cell(const IsoResult& r) {
  std::printf("%-14s %-16s %7u %6s %10.2f %9.2f %8.0f %8.0f %9.0f %9u %9d\n",
              r.profile.c_str(),
              r.aggressor.empty() ? "(baseline)" : r.aggressor.c_str(),
              r.density, r.aggressor.empty() ? "-" : (r.limits ? "on" : "off"),
              r.victim_p99_ms, r.p99_inflation, r.noisy_oom, r.noisy_evicted,
              r.victim_evicted, r.deferrals, r.min_ready);
}

int check_cells(const std::vector<IsoResult>& results) {
  ShapeChecks checks;
  for (const IsoResult& r : results) {
    const std::string cell =
        r.profile + "/" +
        (r.aggressor.empty() ? "baseline" : r.aggressor) + "/d" +
        std::to_string(r.density) + (r.limits ? "/limits" : "/none");
    checks.check(r.victim_served == kVictimRequests,
                 cell + " every victim request served", kVictimRequests,
                 r.victim_served);
    checks.check(r.victim_p99_ms > 0, cell + " victim p99 measured");
    checks.check(r.min_ready >= static_cast<int>(kPdbMinAvailable),
                 cell + " PDB held the victim endpoints floor",
                 kPdbMinAvailable, r.min_ready);
    checks.check(r.victim_oom == 0, cell + " victim never OOM-killed", 0,
                 r.victim_oom);
    if (r.aggressor == "mem-thrasher" && r.limits) {
      checks.check(r.noisy_oom > 0,
                   cell + " cgroup limit OOM-kills the thrasher");
    }
    if (r.aggressor == "mem-thrasher" && !r.limits && r.density >= 400) {
      checks.check(r.noisy_evicted > 0,
                   cell + " unlimited thrashing trips pressure eviction");
    }
    if (r.aggressor == "fuel-burner") {
      checks.check(r.noisy_evicted == 0 && r.noisy_oom == 0,
                   cell + " the fuel burner stays memory-innocent");
    }
  }
  return checks.summarize("isolation");
}

json::Object results_json(const std::vector<IsoResult>& results) {
  json::Array cells;
  for (const IsoResult& r : results) {
    json::Object c;
    c["profile"] = r.profile;
    c["aggressor"] = r.aggressor.empty() ? "baseline" : r.aggressor;
    c["density"] = static_cast<int64_t>(r.density);
    c["cgroup_limits"] = r.limits;
    c["victim_p99_ms"] = r.victim_p99_ms;
    c["victim_p99_inflation"] = r.p99_inflation;
    c["victim_served"] = static_cast<int64_t>(r.victim_served);
    c["victim_failed"] = static_cast<int64_t>(r.victim_failed);
    c["victim_oom_kills"] = r.victim_oom;
    c["noisy_oom_kills"] = r.noisy_oom;
    c["victim_evictions"] = r.victim_evicted;
    c["noisy_evictions"] = r.noisy_evicted;
    c["eviction_deferrals"] = static_cast<int64_t>(r.deferrals);
    c["victim_endpoints_floor"] = static_cast<int64_t>(r.min_ready);
    cells.emplace_back(std::move(c));
  }
  json::Object root;
  root["bench"] = "isolation";
  root["victim"] = "request-service:wasm x4, PDB minAvailable=2";
  root["note"] =
      "p99 inflation is relative to the same profile's victim-only "
      "baseline; the pressure floor scales with aggressor density so "
      "only growth beyond the expected footprint trips eviction";
  root["cells"] = std::move(cells);
  return root;
}

}  // namespace

int main(int argc, char** argv) {
  const BenchArgs args = parse_args(argc, argv,
                                    kFlagSmoke | kFlagOut | kFlagExport,
                                    "BENCH_isolation.json");
  const bool smoke = args.smoke;

  if (!args.export_path.empty()) {
    // Determinism mode: the worst well-behaved cell — unlimited
    // thrashing at density 100 under crun-wamr.
    std::printf("isolation determinism cell: crun-wamr/mem-thrasher/"
                "d100/no-limits\n");
    IsoResult r = run_cell("crun-wamr", &kAggressors[0], 100, false, true);
    write_export(args.export_path, r.bundle);
    return check_cells({r});
  }

  std::printf("isolation sweep: victim x%u + aggressor tenants "
              "(PDB minAvailable=%u)%s\n\n",
              kVictimReplicas, kPdbMinAvailable,
              smoke ? " [smoke: thrasher d10 cell only]" : "");
  std::printf("%-14s %-16s %7s %6s %10s %9s %8s %8s %9s %9s %9s\n",
              "profile", "aggressor", "density", "limits", "p99-ms",
              "inflate", "agg-oom", "agg-ev", "victim-ev", "deferral",
              "min-ready");

  std::vector<IsoResult> results;
  for (const char* profile : kProfiles) {
    if (smoke && std::strcmp(profile, "crun-wamr") != 0) continue;
    IsoResult base = run_cell(profile, nullptr, 0, false, false);
    const double base_p99 = base.victim_p99_ms;
    print_cell(base);
    results.push_back(std::move(base));
    for (const Aggressor& agg : kAggressors) {
      if (smoke && std::strcmp(agg.name, "mem-thrasher") != 0) continue;
      for (uint32_t density : kDensities) {
        if (smoke && density != 10) continue;
        for (bool limits : {true, false}) {
          if (smoke && !limits) continue;
          IsoResult r = run_cell(profile, &agg, density, limits, false);
          if (base_p99 > 0) r.p99_inflation = r.victim_p99_ms / base_p99;
          print_cell(r);
          results.push_back(std::move(r));
        }
      }
    }
  }
  write_json(args.out, results_json(results));
  return check_cells(results);
}
