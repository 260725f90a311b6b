// Scale sweep — the cluster-scale event-engine trajectory (DESIGN.md §11).
//
// Runs the paper's crun-wamr configuration at 1k/10k/100k pods across
// 32/64/256 worker nodes (node lifecycle + heartbeats on, span capture
// off) and records per cell: wall-clock, peak host RSS, kernel events
// executed and events/sec, plus the kernel heap/compaction counters that
// pin the tombstone fix. Results land in BENCH_scale.json so every later
// PR shows a perf delta against this first trajectory.
//
// Cells run in ascending size because peak_rss_mb reads ru_maxrss, which
// is monotone over the process lifetime: each cell's value is the peak up
// to and including that cell.
//
// Flags:
//   --smoke          run only the 1k-pod cell (the CI step)
//   --out <path>     where to write BENCH_scale.json (default ./BENCH_scale.json)
//   --export <path>  run only the 10k-pod cell and write its deterministic
//                    trace bundle (virtual-time state only; no wall clock)
//                    so CI can cmp two same-seed invocations byte for byte
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <string>
#include <vector>

#include "bench_support/report.hpp"
#include "support/json.hpp"

using namespace wasmctr;
using namespace wasmctr::bench;

namespace {

struct ScaleCell {
  uint32_t pods;
  uint32_t nodes;
};

constexpr ScaleCell kSweep[] = {{1000, 32}, {10000, 64}, {100000, 256}};
constexpr ScaleCell kSmoke = {1000, 32};
constexpr ScaleCell kDeterminism = {10000, 64};
constexpr int kMaxTicks = 400;  // × 5 s virtual per tick

struct ScaleResult {
  uint32_t pods = 0;
  uint32_t nodes = 0;
  double wall_ms = 0;
  double peak_rss_mb = 0;
  double events_per_sec = 0;
  uint64_t events = 0;
  double virtual_s = 0;
  std::size_t running = 0;
  uint32_t bound = 0;
  uint32_t unschedulable = 0;
  uint32_t records = 0;
  std::size_t max_heap = 0;
  std::size_t max_pending = 0;
  uint64_t compactions = 0;
  bool heap_bounded = true;
  bool exposition_ok = false;  // lean-mode registry still renders fully
  std::string bundle;  // filled only for the determinism cell
};

double process_peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // Linux: KiB
}

ScaleResult run_cell(uint32_t pods, uint32_t nodes, bool want_bundle) {
  k8s::ClusterOptions opts;
  opts.workers = nodes;  // lifecycle + heartbeats on for every cell
  k8s::Cluster cluster(opts);
  // Scale mode: pod_end() still yields exact startup durations for the
  // histogram, but no span objects accumulate across 100k startups.
  cluster.obs().tracer.set_span_capture(false);
  // Likewise for metrics: lean mode drops raw histogram samples (100k
  // startups would hoard one double each); buckets/sum/count still
  // aggregate, so the exposition stays complete.
  cluster.obs().metrics.set_sample_retention(false);

  ScaleResult r;
  r.pods = pods;
  r.nodes = nodes;

  sim::Kernel& kernel = cluster.kernel();
  const auto t0 = std::chrono::steady_clock::now();
  if (!cluster.deploy(k8s::DeployConfig::kCrunWamr, pods, "scale").is_ok()) {
    std::fprintf(stderr, "scale bench: deploy failed\n");
    std::exit(1);
  }
  std::size_t running = 0;
  for (int tick = 0; tick < kMaxTicks && running < pods; ++tick) {
    cluster.run_for(sim_s(5.0));
    running = cluster.running_count();
    r.max_heap = std::max(r.max_heap, kernel.heap_size());
    r.max_pending = std::max(r.max_pending, kernel.pending());
    // The compaction invariant: tombstones never outnumber live events
    // (beyond the small-heap threshold where compaction is pointless).
    if (kernel.heap_size() >
        std::max<std::size_t>(2 * kernel.pending(), 64)) {
      r.heap_bounded = false;
    }
  }
  const auto t1 = std::chrono::steady_clock::now();

  r.wall_ms =
      std::chrono::duration<double, std::milli>(t1 - t0).count();
  r.peak_rss_mb = process_peak_rss_mb();
  r.events = kernel.executed();
  r.virtual_s = to_seconds(kernel.now());
  r.events_per_sec =
      r.wall_ms > 0 ? static_cast<double>(r.events) / (r.wall_ms / 1e3) : 0;
  r.running = running;
  r.bound = cluster.scheduler().bound_count();
  r.unschedulable = cluster.scheduler().unschedulable_count();
  for (uint32_t i = 0; i < cluster.worker_count(); ++i) {
    r.records += cluster.kubelet(i).record_count();
  }
  r.compactions = kernel.compactions();
  const std::string expo = cluster.obs().metrics.prometheus_text();
  r.exposition_ok = expo.find("_bucket{") != std::string::npos &&
                    expo.find("_count") != std::string::npos &&
                    expo.find("wasmctr_") != std::string::npos;

  if (want_bundle) {
    // Everything here is virtual-time state: byte-identical across
    // same-seed runs or the determinism invariant broke.
    std::string blob;
    char line[256];
    std::snprintf(line, sizeof(line),
                  "== scale cell pods=%u nodes=%u ==\n"
                  "virtual_s=%.6f events=%llu running=%zu bound=%u "
                  "unschedulable=%u records=%u\n",
                  pods, nodes, r.virtual_s,
                  static_cast<unsigned long long>(r.events), r.running,
                  r.bound, r.unschedulable, r.records);
    blob += line;
    blob += "== fault trace ==\n" + cluster.faults().trace_string();
    blob += "== node lifecycle trace ==\n" +
            cluster.lifecycle().trace_string();
    blob += "== pod digest ==\n";
    for (const k8s::Pod* p : cluster.api().pods()) {
      std::snprintf(line, sizeof(line),
                    "pod=%s node=%s phase=%s running_at=%.6f\n",
                    p->spec.name.c_str(), p->status.node.c_str(),
                    k8s::pod_phase_name(p->status.phase),
                    to_seconds(p->status.running_at));
      blob += line;
    }
    r.bundle = std::move(blob);
  }
  return r;
}

void print_cell(const ScaleResult& r) {
  std::printf("%8u %6u %11.1f %12.1f %12llu %13.0f %10zu %12llu\n", r.pods,
              r.nodes, r.wall_ms, r.peak_rss_mb,
              static_cast<unsigned long long>(r.events), r.events_per_sec,
              r.max_heap, static_cast<unsigned long long>(r.compactions));
}

int check_cells(const std::vector<ScaleResult>& results) {
  ShapeChecks checks;
  for (const ScaleResult& r : results) {
    const std::string cell =
        std::to_string(r.pods) + "-pod/" + std::to_string(r.nodes) + "-node";
    checks.check(r.running == r.pods, cell + " all pods Running", r.pods,
                 static_cast<double>(r.running));
    checks.check(r.unschedulable == 0, cell + " no pod unschedulable", 0,
                 r.unschedulable);
    checks.check(r.bound == r.pods, cell + " zero leaked scheduler slots",
                 r.pods, r.bound);
    checks.check(r.records == r.pods,
                 cell + " kubelet records match live pods", r.pods,
                 r.records);
    checks.check(r.heap_bounded,
                 cell + " kernel heap bounded by 2x pending (tombstone "
                        "compaction)");
    checks.check(r.exposition_ok,
                 cell + " lean-mode exposition renders buckets/sum/count");
  }
  return checks.summarize("scale");
}

json::Object results_json(const std::vector<ScaleResult>& results) {
  json::Array cells;
  for (const ScaleResult& r : results) {
    json::Object c;
    c["pods"] = static_cast<int64_t>(r.pods);
    c["nodes"] = static_cast<int64_t>(r.nodes);
    c["wall_ms"] = r.wall_ms;
    c["peak_rss_mb"] = r.peak_rss_mb;
    c["events_per_sec"] = r.events_per_sec;
    c["events"] = static_cast<int64_t>(r.events);
    c["virtual_s"] = r.virtual_s;
    c["max_heap"] = static_cast<int64_t>(r.max_heap);
    c["max_pending"] = static_cast<int64_t>(r.max_pending);
    c["compactions"] = static_cast<int64_t>(r.compactions);
    cells.emplace_back(std::move(c));
  }
  json::Object root;
  root["bench"] = "scale";
  root["config"] = "crun-wamr";
  root["note"] =
      "peak_rss_mb is process-lifetime ru_maxrss at cell end; cells run "
      "ascending so each value is the peak through that cell";
  root["cells"] = std::move(cells);
  return root;
}

}  // namespace

int main(int argc, char** argv) {
  const BenchArgs args = parse_args(argc, argv,
                                    kFlagSmoke | kFlagOut | kFlagExport,
                                    "BENCH_scale.json");
  const bool smoke = args.smoke;

  if (!args.export_path.empty()) {
    // Determinism mode: one 10k-pod cell, export the virtual-time bundle.
    std::printf("scale determinism cell: %u pods / %u nodes\n",
                kDeterminism.pods, kDeterminism.nodes);
    const ScaleResult r =
        run_cell(kDeterminism.pods, kDeterminism.nodes, true);
    write_export(args.export_path, r.bundle);
    return check_cells({r});
  }

  std::printf(
      "scale sweep: crun-wamr pods across worker nodes (lifecycle on, "
      "span capture off)%s\n\n",
      smoke ? " [smoke: 1k cell only]" : "");
  std::printf("%8s %6s %11s %12s %12s %13s %10s %12s\n", "pods", "nodes",
              "wall-ms", "peak-rss-mb", "events", "events/sec", "max-heap",
              "compactions");

  std::vector<ScaleResult> results;
  if (smoke) {
    results.push_back(run_cell(kSmoke.pods, kSmoke.nodes, false));
    print_cell(results.back());
  } else {
    for (const ScaleCell& cell : kSweep) {
      results.push_back(run_cell(cell.pods, cell.nodes, false));
      print_cell(results.back());
    }
  }
  write_json(args.out, results_json(results));
  return check_cells(results);
}
