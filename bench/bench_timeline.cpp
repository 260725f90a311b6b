// Timeline bench — the time-series observability pipeline end to end
// (DESIGN.md §14).
//
// Two parts. The matrix cells replay the paper's density experiment with
// the scraper on and render what a static snapshot cannot show: node RSS
// *by mapping kind* (anon / wasmcode / wasmmeta / lib / image / other /
// page cache) as a virtual-time curve per {engine} × {tier} × {density}
// cell — under the baseline tier the wasmcode/wasmmeta curves rise as
// compiled pages get mapped shared, under the interpreter they stay flat
// at zero. The serving-churn scenario drives real traffic through a
// 4-replica Deployment, overloads it until the windowed p99 breaches a
// latency SLO for three consecutive evaluations (alert fires), then lets
// light traffic drain the queue (alert resolves) — both transitions as
// deterministic trace instants.
//
// Everything exported derives from virtual time and seeded RNGs, so
// BENCH_timeline.json and the --export bundle are byte-identical across
// same-seed runs; CI cmps both.
//
// Flags:
//   --smoke          density 10 cells only (the CI step)
//   --out <path>     where to write BENCH_timeline.json
//   --export <path>  run only the serving-churn scenario and write its
//                    deterministic bundle (alert history + store digest)
//                    so CI can cmp two same-seed invocations byte for byte
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include "bench_support/report.hpp"
#include "engines/engine.hpp"
#include "k8s/cluster.hpp"
#include "obs/tsdb/query.hpp"
#include "serve/traffic.hpp"
#include "support/json.hpp"

using namespace wasmctr;
using namespace wasmctr::bench;
using engines::Tier;
using k8s::Cluster;
using k8s::DeployConfig;

namespace {

constexpr DeployConfig kConfigs[] = {DeployConfig::kCrunWamr,
                                     DeployConfig::kCrunWasmtime};
constexpr Tier kTiers[] = {Tier::kInterpreter, Tier::kBaseline};
constexpr uint32_t kDensities[] = {10, 400};
constexpr const char* kKinds[] = {"anon", "wasmcode", "wasmmeta", "lib",
                                  "image", "other", "cache"};
constexpr double kCellSeconds = 60.0;  // 13 scrapes at the 5 s cadence

// Serving-churn scenario constants. The SLO threshold sits on a bucket
// boundary gap: windowed p99 reports bucket upper bounds, so a breach
// (>250) means the exact p99 left the 250 ms bucket.
constexpr char kService[] = "timeline-svc";
constexpr double kSloThresholdMs = 250.0;
constexpr double kSloWindowS = 15.0;
constexpr uint32_t kReplicas = 4;

void drive(Cluster& cluster, double seconds) {
  // The scraper self-reschedules: tick the kernel rather than run().
  for (int i = 0; i < static_cast<int>(seconds); ++i) {
    cluster.run_for(sim_s(1.0));
  }
}

// ---------------------------------------------------------------------------
// Part 1: RSS-by-mapping-kind curves per matrix cell.

struct KindCurve {
  std::string kind;
  std::vector<obs::tsdb::SamplePoint> points;
};

struct TimelineCell {
  DeployConfig config;
  Tier tier;
  uint32_t density = 0;
  uint64_t scrapes = 0;
  double store_bytes = 0;  // the store's self-reported footprint gauge
  std::vector<KindCurve> curves;
};

double final_value(const TimelineCell& cell, const char* kind) {
  for (const KindCurve& c : cell.curves) {
    if (c.kind == kind && !c.points.empty()) return c.points.back().value;
  }
  return -1.0;
}

TimelineCell run_cell(DeployConfig config, Tier tier, uint32_t density) {
  engines::ScopedTierOverride override(tier);
  Cluster cluster;
  cluster.enable_timeseries();
  const Status st = cluster.deploy(config, density);
  if (!st.is_ok()) {
    std::fprintf(stderr, "deploy failed: %s\n", st.to_string().c_str());
    std::exit(1);
  }
  drive(cluster, kCellSeconds);
  // Slow cells (crun-wamr under the baseline tier pays a per-pod compile)
  // outlive the fixed window: keep scraping until every pod runs, plus
  // two steady-state scrapes so the final samples show the full mapping.
  for (int guard = 0;
       cluster.running_count() < density && guard < 200; ++guard) {
    cluster.run_for(sim_s(5.0));
  }
  drive(cluster, 10.0);
  cluster.stop_timeseries();
  cluster.run();
  if (cluster.running_count() != density) {
    std::fprintf(stderr, "only %zu/%u pods running\n",
                 cluster.running_count(), density);
    std::exit(1);
  }

  TimelineCell cell;
  cell.config = config;
  cell.tier = tier;
  cell.density = density;
  cell.scrapes = cluster.scraper().scrapes();
  const auto& store = cluster.timeseries();
  if (const obs::tsdb::Series* self =
          store.find("wasmctr_tsdb_store_bytes")) {
    cell.store_bytes = self->latest() ? self->latest()->value : 0;
  }
  for (const char* kind : kKinds) {
    KindCurve curve;
    curve.kind = kind;
    const obs::tsdb::Series* s = store.find(
        "wasmctr_node_mem_bytes",
        obs::label("node", "node-0") + "," + obs::label("kind", kind));
    if (s != nullptr) curve.points = s->samples();
    cell.curves.push_back(std::move(curve));
  }
  return cell;
}

void print_cell(const TimelineCell& cell) {
  std::printf("  %-14s %-9s n=%-4u scrapes=%2" PRIu64 "  store=%7.1f KiB\n",
              k8s::deploy_config_name(cell.config),
              engines::tier_name(cell.tier), cell.density, cell.scrapes,
              cell.store_bytes / 1024.0);
  // One bar per kind: final resident MiB, log-ish scale via sqrt so the
  // KiB-scale wasm pages stay visible next to MB-scale anon.
  double max_mib = 1e-9;
  for (const char* kind : kKinds) {
    max_mib = std::max(max_mib, final_value(cell, kind) / (1024.0 * 1024.0));
  }
  for (const char* kind : kKinds) {
    const double mib =
        std::max(final_value(cell, kind), 0.0) / (1024.0 * 1024.0);
    const int width =
        static_cast<int>(40.0 * std::sqrt(mib / max_mib) + 0.5);
    std::printf("    %-8s %9.3f MiB |", kind, mib);
    for (int i = 0; i < width; ++i) std::printf("#");
    std::printf("\n");
  }
}

// ---------------------------------------------------------------------------
// Part 2: serving-churn SLO scenario.

struct AlertScenario {
  uint64_t fired = 0;
  uint64_t resolved = 0;
  std::string alert_trace;          // deterministic fire/resolve log
  std::size_t fire_instants = 0;    // alert.fire spans in the tracer
  std::size_t resolve_instants = 0;
  std::vector<obs::tsdb::SamplePoint> p99_curve;  // (t, windowed p99 ms)
  uint32_t served = 0;
  uint32_t failed = 0;
  double exact_p99_ms = 0;     // registry nearest-rank over the full run
  double windowed_p99_ms = 0;  // TSDB bucket-bound over the full run
  double bucket_below = 0;     // bound preceding windowed_p99_ms
  double store_bytes = 0;
  std::string bundle;  // filled only in --export mode
};

std::size_t count_occurrences(const std::string& text,
                              const std::string& needle) {
  std::size_t n = 0;
  for (std::size_t pos = text.find(needle); pos != std::string::npos;
       pos = text.find(needle, pos + needle.size())) {
    ++n;
  }
  return n;
}

serve::TrafficOptions traffic_phase(double rate_rps, uint32_t total,
                                    uint64_t seed, int32_t arg = 100) {
  serve::TrafficOptions opts;
  opts.service = kService;
  opts.rate_rps = rate_rps;
  opts.total_requests = total;
  opts.request_arg = arg;
  opts.seed = seed;
  opts.tenant = "timeline";
  return opts;
}

AlertScenario run_alert_scenario(bool want_bundle) {
  k8s::ClusterOptions copts;
  copts.restart_policy = k8s::RestartPolicy::kOnFailure;
  Cluster cluster(copts);
  k8s::TimeSeriesOptions ts;
  cluster.enable_timeseries(ts);

  obs::tsdb::AlertRule rule;
  rule.name = "p99-latency-high";
  rule.kind = obs::tsdb::AlertRule::Kind::kQuantileAbove;
  rule.metric = "wasmctr_request_latency_ms";
  rule.labels = obs::label("service", kService);
  rule.q = 0.99;
  rule.window = sim_s(kSloWindowS);
  rule.threshold = kSloThresholdMs;
  rule.for_windows = 3;
  cluster.alerts().add_rule(rule);

  k8s::Service svc;
  svc.name = kService;
  svc.selector = {{"app", "tsrv"}};
  svc.policy = k8s::LbPolicy::kLeastOutstanding;
  serve::DeploymentSpec dspec;
  dspec.name = "tsrv";
  dspec.replicas = kReplicas;
  dspec.pod_template.image = "request-service:wasm";
  dspec.pod_template.runtime_class = "crun-wamr";
  dspec.pod_template.restart_policy = k8s::RestartPolicy::kOnFailure;
  dspec.pod_template.memory_limit = 64ull << 20;
  if (!cluster.api().create_service(svc).is_ok() ||
      !cluster.deployments().create(dspec).is_ok()) {
    std::fprintf(stderr, "alert scenario setup failed\n");
    std::exit(1);
  }
  drive(cluster, 10.0);  // replicas ready; scrapes at t = 0, 5, 10

  // Phase 1 (healthy): light traffic, p99 comfortably inside the SLO.
  serve::TrafficDriver warm(cluster.node().kernel(), cluster.api(),
                            cluster.cri(), cluster.endpoints(),
                            traffic_phase(40.0, 400, 0x9001));
  warm.start();
  drive(cluster, 20.0);  // t = 30

  // Phase 2 (churn): heavy requests (~24 ms of guest compute each, so 4
  // replicas saturate near 160 rps) arriving at 500 rps queue at the
  // instances, pushing p99 over the threshold for more than for_windows
  // consecutive 5 s evaluations.
  serve::TrafficDriver burst(cluster.node().kernel(), cluster.api(),
                             cluster.cri(), cluster.endpoints(),
                             traffic_phase(500.0, 2000, 0x9002, 20000));
  burst.start();
  drive(cluster, 25.0);  // t = 55: burst arrivals done, queues drained

  // Phase 3 (recovery): light traffic again; once the slow completions
  // age out of the 15 s window the evaluation clears and the alert
  // resolves on fresh fast samples, not on missing data.
  serve::TrafficDriver cool(cluster.node().kernel(), cluster.api(),
                            cluster.cri(), cluster.endpoints(),
                            traffic_phase(40.0, 1200, 0x9003));
  cool.start();
  drive(cluster, 45.0);  // t = 100
  cluster.stop_timeseries();
  cluster.run();

  AlertScenario out;
  out.fired = cluster.alerts().fired_total();
  out.resolved = cluster.alerts().resolved_total();
  out.alert_trace = cluster.alerts().trace_string();
  const std::string chrome = cluster.obs().tracer.chrome_trace_json();
  out.fire_instants = count_occurrences(chrome, "alert.fire");
  out.resolve_instants = count_occurrences(chrome, "alert.resolve");
  out.served = warm.served() + burst.served() + cool.served();
  out.failed = warm.failed() + burst.failed() + cool.failed();

  const auto& store = cluster.timeseries();
  const std::string slabel = obs::label("service", kService);
  const SimTime end = cluster.kernel().now();
  for (double t = 5.0; t <= to_seconds(end); t += 5.0) {
    const auto p99 = obs::tsdb::quantile_over_window(
        store, "wasmctr_request_latency_ms", slabel, 0.99, sim_s(t),
        sim_s(kSloWindowS));
    out.p99_curve.push_back({sim_s(t), p99.value_or(0.0)});
  }

  // Full-run window: every observation since the t=0 scrape is in scope,
  // so the bucket-bound quantile must bracket the registry's exact
  // nearest-rank within one bucket.
  obs::Histogram& h = cluster.obs().metrics.histogram(
      "wasmctr_request_latency_ms", obs::default_latency_buckets_ms(),
      slabel);
  out.exact_p99_ms = h.quantile(0.99);
  out.windowed_p99_ms =
      obs::tsdb::quantile_over_window(store, "wasmctr_request_latency_ms",
                                      slabel, 0.99, end, end)
          .value_or(-1.0);
  for (const double b : h.bounds()) {
    if (b == out.windowed_p99_ms) break;
    out.bucket_below = b;
  }
  if (const obs::tsdb::Series* self =
          store.find("wasmctr_tsdb_store_bytes")) {
    out.store_bytes = self->latest() ? self->latest()->value : 0;
  }

  if (want_bundle) {
    // Virtual-time state only: alert history, the p99 curve, and a
    // digest of every series in the store.
    std::string blob = "== alert history ==\n" + out.alert_trace;
    char line[192];
    blob += "== p99 by window ==\n";
    for (const auto& p : out.p99_curve) {
      std::snprintf(line, sizeof(line), "t=%.1f p99=%.6f\n",
                    to_seconds(p.t), p.value);
      blob += line;
    }
    blob += "== store digest ==\n";
    store.for_each([&](const std::string& name, const std::string& labels,
                       const obs::tsdb::Series& s) {
      const auto latest = s.latest();
      std::snprintf(line, sizeof(line),
                    "%s{%s} n=%zu appended=%" PRIu64 " last=%.6f\n",
                    name.c_str(), labels.c_str(), s.size(), s.appended(),
                    latest ? latest->value : 0.0);
      blob += line;
    });
    out.bundle = std::move(blob);
  }
  return out;
}

void print_scenario(const AlertScenario& s) {
  std::printf(
      "serving churn: %u replicas, SLO p99(%s) <= %.0f ms over %.0f s "
      "windows, for 3 evaluations\n",
      kReplicas, kService, kSloThresholdMs, kSloWindowS);
  std::printf("  served=%u failed=%u fired=%" PRIu64 " resolved=%" PRIu64
              "  exact p99=%.2f ms  windowed p99=%.0f ms\n",
              s.served, s.failed, s.fired, s.resolved, s.exact_p99_ms,
              s.windowed_p99_ms);
  std::printf("  windowed p99 over time (0 = empty window):\n");
  for (const auto& p : s.p99_curve) {
    const int width = static_cast<int>(
        p.value > 0 ? 3.0 * std::log2(1.0 + p.value) : 0.0);
    std::printf("    t=%5.1f %9.1f ms |", to_seconds(p.t), p.value);
    for (int i = 0; i < width; ++i) std::printf("#");
    std::printf("%s\n", p.value > kSloThresholdMs ? " BREACH" : "");
  }
  std::printf("  alert history:\n");
  std::printf("%s", s.alert_trace.c_str());
}

// ---------------------------------------------------------------------------

json::Array curve_json(const std::vector<obs::tsdb::SamplePoint>& points) {
  json::Array arr;
  for (const auto& p : points) {
    json::Array pt;
    pt.emplace_back(to_seconds(p.t));
    pt.emplace_back(p.value);
    arr.emplace_back(std::move(pt));
  }
  return arr;
}

json::Object results_json(const std::vector<TimelineCell>& cells,
                          const AlertScenario& scenario) {
  json::Array arr;
  for (const TimelineCell& c : cells) {
    json::Object o;
    o["config"] = std::string(k8s::deploy_config_name(c.config));
    o["tier"] = std::string(engines::tier_name(c.tier));
    o["density"] = static_cast<int64_t>(c.density);
    o["scrapes"] = static_cast<int64_t>(c.scrapes);
    o["store_bytes"] = c.store_bytes;
    json::Object kinds;
    for (const KindCurve& curve : c.curves) {
      kinds[curve.kind] = curve_json(curve.points);
    }
    o["rss_by_kind"] = std::move(kinds);
    arr.emplace_back(std::move(o));
  }
  json::Object alert;
  alert["service"] = std::string(kService);
  alert["threshold_ms"] = kSloThresholdMs;
  alert["window_s"] = kSloWindowS;
  alert["fired"] = static_cast<int64_t>(scenario.fired);
  alert["resolved"] = static_cast<int64_t>(scenario.resolved);
  alert["served"] = static_cast<int64_t>(scenario.served);
  alert["failed"] = static_cast<int64_t>(scenario.failed);
  alert["exact_p99_ms"] = scenario.exact_p99_ms;
  alert["windowed_p99_ms"] = scenario.windowed_p99_ms;
  alert["trace"] = scenario.alert_trace;
  alert["p99_by_window"] = curve_json(scenario.p99_curve);
  json::Object root;
  root["bench"] = std::string("timeline");
  root["cells"] = std::move(arr);
  root["alert_scenario"] = std::move(alert);
  return root;
}

int check_all(const std::vector<TimelineCell>& cells,
              const AlertScenario& s) {
  ShapeChecks checks;
  for (const TimelineCell& c : cells) {
    const std::string tag = std::string(k8s::deploy_config_name(c.config)) +
                            "/" + engines::tier_name(c.tier) + "/n=" +
                            std::to_string(c.density);
    checks.check(c.scrapes >= 12, "scraper held the 5 s cadence, " + tag,
                 12, static_cast<double>(c.scrapes));
    checks.check(final_value(c, "anon") > 0 && final_value(c, "lib") > 0 &&
                     final_value(c, "cache") > 0,
                 "anon/lib/cache curves nonzero, " + tag);
    if (c.tier == Tier::kBaseline) {
      checks.check(final_value(c, "wasmcode") > 0 &&
                       final_value(c, "wasmmeta") > 0,
                   "baseline tier maps wasm code+meta pages, " + tag);
    } else {
      checks.check(final_value(c, "wasmcode") == 0,
                   "interpreter has no wasm code pages, " + tag);
    }
    checks.check(c.store_bytes > 0 && c.store_bytes < 16.0 * 1024 * 1024,
                 "TSDB self-footprint accounted and under 16 MiB, " + tag,
                 16.0 * 1024 * 1024, c.store_bytes);
  }

  // The acceptance gate: the SLO alert fires and resolves, with matching
  // trace instants, off deterministic virtual-time data.
  checks.check(s.fired >= 1, "SLO alert fired during the burst", 1,
               static_cast<double>(s.fired));
  checks.check(s.resolved >= 1, "SLO alert resolved after recovery", 1,
               static_cast<double>(s.resolved));
  checks.check(s.fire_instants == s.fired &&
                   s.resolve_instants == s.resolved,
               "alert transitions emitted matching trace instants");
  const double total = s.served + s.failed;
  checks.check(s.served >= 0.99 * total, ">=99% of requests served", 99.0,
               total > 0 ? 100.0 * s.served / total : 0.0);
  // Bucket-bound error contract over the full run: reported quantile is
  // the smallest bound >= the exact nearest-rank value.
  checks.check(s.windowed_p99_ms >= s.exact_p99_ms,
               "windowed p99 never below the exact quantile",
               s.exact_p99_ms, s.windowed_p99_ms);
  checks.check(s.bucket_below < s.exact_p99_ms,
               "windowed p99 within one bucket of the exact quantile",
               s.exact_p99_ms, s.bucket_below);
  return checks.summarize("timeline");
}

}  // namespace

int main(int argc, char** argv) {
  const BenchArgs args = parse_args(argc, argv,
                                    kFlagSmoke | kFlagOut | kFlagExport,
                                    "BENCH_timeline.json");
  const bool smoke = args.smoke;

  if (!args.export_path.empty()) {
    std::printf("timeline determinism cell: serving-churn scenario\n");
    const AlertScenario s = run_alert_scenario(true);
    write_export(args.export_path, s.bundle);
    ShapeChecks checks;
    checks.check(s.fired >= 1 && s.resolved >= 1,
                 "alert fired and resolved in the export run");
    checks.check(!s.bundle.empty(), "bundle nonempty");
    return checks.summarize("timeline_export");
  }

  std::printf("TIMELINE: scraped RSS-by-mapping-kind curves + windowed "
              "p99 SLO alerting%s\n\n",
              smoke ? " [smoke: density 10 only]" : "");
  std::vector<TimelineCell> cells;
  for (const DeployConfig config : kConfigs) {
    for (const Tier tier : kTiers) {
      for (const uint32_t density : kDensities) {
        if (smoke && density != 10) continue;
        std::printf("running %s/%s n=%u ...\n",
                    k8s::deploy_config_name(config),
                    engines::tier_name(tier), density);
        cells.push_back(run_cell(config, tier, density));
        print_cell(cells.back());
      }
    }
  }
  std::printf("\n");
  const AlertScenario scenario = run_alert_scenario(false);
  print_scenario(scenario);
  write_json(args.out, results_json(cells, scenario));
  return check_all(cells, scenario);
}
