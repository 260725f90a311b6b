// The benchmark's three workloads, each one pass: set up clusters, then a
// timed region of deploy -> drive the kernel -> read the outputs, then the
// output checks. Each pass also renders its virtual-time outputs as text;
// its digest must be the same on every pass of one seed, traced or not.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "k8s/cluster.hpp"
#include "perfbench.hpp"
#include "serve/traffic.hpp"

namespace perfbench {

using namespace wasmctr;
using k8s::Cluster;
using k8s::DeployConfig;

// ---------------------------------------------------------------------------
// Kernel driver

bool KernelDriver::timed_step(sim::Kernel& kernel, const bool& marker) {
  const bool before = marker;
  const auto t0 = Clock::now();
  const bool stepped = kernel.step();
  const auto t1 = Clock::now();
  if (!stepped) return false;
  if (marker == before) {
    ++events_;
    event_ns_.push_back(static_cast<uint32_t>(std::min<int64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(t1 - t0).count(),
        UINT32_MAX)));
  }
  heap_max_ = std::max(heap_max_, kernel.heap_size());
  for (const sim::CpuScheduler* cpu : cpus_) {
    runnable_max_ = std::max(runnable_max_, cpu->runnable());
  }
  return true;
}

void KernelDriver::run(sim::Kernel& kernel) {
  if (!traced_) {
    const uint64_t before = kernel.executed();
    kernel.run();
    events_ += kernel.executed() - before;
    return;
  }
  const bool no_marker = false;
  while (timed_step(kernel, no_marker)) {
  }
}

void KernelDriver::run_until(sim::Kernel& kernel, SimTime deadline) {
  if (!traced_) {
    const uint64_t before = kernel.executed();
    kernel.run_until(deadline);
    events_ += kernel.executed() - before;
    return;
  }
  // The kernel has no "time of next event" query, so a marker event at the
  // deadline stops the stepping. Events at exactly the deadline that were
  // scheduled after the marker still belong to this run_until: schedule a
  // fresh marker behind them until one fires with nothing before it.
  for (;;) {
    bool hit = false;
    kernel.schedule_at(deadline, [&hit] { hit = true; });
    uint64_t program_events = 0;
    while (!hit) {
      const uint64_t before = events_;
      timed_step(kernel, hit);
      program_events += events_ - before;
    }
    if (program_events == 0) break;
  }
  kernel.run_until(deadline);  // no events remain <= deadline: sets now()
}

uint64_t fnv1a(const std::string& text) {
  uint64_t h = 1469598103934665603ull;
  for (const char c : text) {
    h ^= static_cast<uint8_t>(c);
    h *= 1099511628211ull;
  }
  return h;
}

namespace {

// ---------------------------------------------------------------------------
// Shared helpers

template <class... Args>
void appendf(std::string& out, const char* fmt, Args... args) {
  char line[512];
  std::snprintf(line, sizeof(line), fmt, args...);
  out += line;
}

void check(PassResult& r, bool ok, const std::string& what) {
  if (!ok) r.check_failures.push_back(what);
}

double reduction_pct(double ours, double other) {
  return (1.0 - ours / other) * 100.0;
}

double sum_counter(Cluster& cluster, const std::string& name) {
  double total = 0;
  cluster.obs().metrics.for_each_counter(
      [&](const std::string& n, const std::string&, const obs::Counter& c) {
        if (n == name) total += c.value();
      });
  return total;
}

/// Startup phases of Tracer::pod_phase_stats() reported as virt.<phase>_*.
constexpr const char* kStartupPhases[] = {
    "sched.bind",  "kubelet.sync", "sandbox.cni", "cri.create", "shim.spawn",
    "runtime.exec", "engine.load", "interp.boot", "wasi.start"};

/// Counts and virtual-clock figures of one cluster, summed into `layer`.
/// A figure a workload never produces reports as zero: phases without
/// spans, the time-series pipeline when it is off, and the serving counts
/// (read from the traffic drivers) on workloads without traffic.
void read_layers(Cluster& cluster, std::map<std::string, double>& layer) {
  for (const char* phase : kStartupPhases) {
    layer.try_emplace(std::string("virt.") + phase + "_s", 0.0);
    layer.try_emplace(std::string("virt.") + phase + "_count", 0.0);
  }
  for (const char* name : {"serve.requests", "serve.retries", "serve.cold",
                           "serve.first_try"}) {
    layer.try_emplace(name, 0.0);
  }
  layer["k8s.scheduler.bound"] +=
      sum_counter(cluster, "wasmctr_scheduler_bound_total");
  layer["k8s.kubelet.pods_started"] +=
      sum_counter(cluster, "wasmctr_pods_started_total");
  layer["k8s.kubelet.pods_failed"] +=
      sum_counter(cluster, "wasmctr_pods_failed_total");
  layer["containerd.sandboxes"] +=
      sum_counter(cluster, "wasmctr_sandboxes_created_total");
  layer["sim.fault.injected"] +=
      static_cast<double>(cluster.faults().faults_injected());
  double restarts = 0;
  double busy = 0;
  for (uint32_t i = 0; i < cluster.worker_count(); ++i) {
    restarts += cluster.kubelet(i).restarts_total();
    busy += cluster.node(i).cpu().consumed_cpu_seconds();
  }
  layer["k8s.kubelet.restarts"] += restarts;
  layer["sim.cpu.busy_cpu_s"] += busy;

  const obs::Tracer& tracer = cluster.obs().tracer;
  layer["obs.trace.spans"] += static_cast<double>(tracer.spans().size());
  for (const obs::PhaseStat& ps : tracer.pod_phase_stats()) {
    layer["virt." + ps.phase + "_s"] += ps.total_s;
    layer["virt." + ps.phase + "_count"] += static_cast<double>(ps.count);
  }
  double queue_s = 0;
  double exec_s = 0;
  for (const obs::Span& s : tracer.spans()) {
    if (!s.closed) continue;
    if (s.name == "serve.queue") queue_s += to_seconds(s.duration());
    if (s.name == "serve.exec") exec_s += to_seconds(s.duration());
  }
  layer["virt.serve.queue_s"] += queue_s;
  layer["virt.serve.exec_s"] += exec_s;
  const bool tsdb = cluster.timeseries_enabled();
  layer["obs.tsdb.scrapes"] +=
      tsdb ? static_cast<double>(cluster.scraper().scrapes()) : 0.0;
  layer["obs.tsdb.store_bytes"] +=
      tsdb ? static_cast<double>(cluster.timeseries().footprint().value) : 0.0;
}

/// Appends every layer value to the digest text (all are virtual-time
/// state, so they must repeat exactly).
void digest_layers(PassResult& r) {
  for (const auto& [k, v] : r.layer) appendf(r.digest_text, "%s=%a\n", k.c_str(), v);
}

// ---------------------------------------------------------------------------
// paper_matrix: the paper's 9 configurations x densities {10, 100, 400}

constexpr uint32_t kDensities[] = {10, 100, 400};

/// bench_fig10_overview's CSV at the default seed (metrics-server and free
/// MiB per container, startup makespan in s). The default-seed pass must
/// reproduce it exactly, which pins the benchmark to the same program.
constexpr const char* kFig10Reference =
    "crun-wamr,10,4.170,5.811,3.227\n"
    "crun-wamr,100,4.047,5.618,13.717\n"
    "crun-wamr,400,4.037,5.601,53.159\n"
    "crun-wasmtime,10,9.972,11.613,4.168\n"
    "crun-wasmtime,100,9.427,10.997,13.665\n"
    "crun-wasmtime,400,9.381,10.946,49.755\n"
    "crun-wasmer,10,12.316,13.957,4.798\n"
    "crun-wasmer,100,11.683,13.253,14.413\n"
    "crun-wasmer,400,11.630,13.194,50.953\n"
    "crun-wasmedge,10,8.917,10.558,4.538\n"
    "crun-wasmedge,100,8.460,10.030,14.312\n"
    "crun-wasmedge,400,8.421,9.986,51.453\n"
    "containerd-shim-wasmtime,10,5.646,6.828,2.924\n"
    "containerd-shim-wasmtime,100,5.188,6.370,12.083\n"
    "containerd-shim-wasmtime,400,5.150,6.332,74.065\n"
    "containerd-shim-wasmer,10,24.670,25.852,3.004\n"
    "containerd-shim-wasmer,100,23.772,24.954,12.512\n"
    "containerd-shim-wasmer,400,23.698,24.879,91.283\n"
    "containerd-shim-wasmedge,10,7.160,8.342,2.885\n"
    "containerd-shim-wasmedge,100,6.614,7.796,11.886\n"
    "containerd-shim-wasmedge,400,6.568,7.750,65.855\n"
    "crun-python,10,5.347,7.204,3.676\n"
    "crun-python,100,4.978,6.763,15.966\n"
    "crun-python,400,4.947,6.726,62.157\n"
    "runc-python,10,5.357,7.321,3.796\n"
    "runc-python,100,4.988,6.880,16.566\n"
    "runc-python,400,4.957,6.844,64.557\n";

struct Cell {
  DeployConfig config;
  uint32_t density;
  double metrics_mib;
  double free_mib;
  double startup_s;
};

/// The C1-C8 shape checks of bench_fig3 ... bench_fig10, with the same
/// thresholds, over one pass's matrix.
void paper_shape_checks(PassResult& r, const std::vector<Cell>& cells) {
  using C = DeployConfig;
  const auto at = [&](C c, uint32_t d) -> const Cell& {
    return *std::find_if(cells.begin(), cells.end(), [&](const Cell& cell) {
      return cell.config == c && cell.density == d;
    });
  };
  const auto name = [](C c) { return std::string(k8s::deploy_config_name(c)); };
  const auto at_d = [](uint32_t d) { return " at density " + std::to_string(d); };

  // Fig 3: crun-WAMR >= 50.34 % below every other crun engine (metrics).
  const C crun_others[] = {C::kCrunWasmtime, C::kCrunWasmer, C::kCrunWasmEdge};
  for (const uint32_t d : kDensities) {
    double best = 1e9;
    for (C c : crun_others) best = std::min(best, at(c, d).metrics_mib);
    check(r, reduction_pct(at(C::kCrunWamr, d).metrics_mib, best) >= 50.34,
          "fig3: reduction vs best other crun engine >= 50.34 %" + at_d(d));
  }
  for (C c : {C::kCrunWamr, C::kCrunWasmtime, C::kCrunWasmer, C::kCrunWasmEdge}) {
    const double at10 = at(c, 10).metrics_mib;
    const double at400 = at(c, 400).metrics_mib;
    check(r, std::abs(at10 - at400) / at400 * 100.0 < 10.0,
          "fig3: " + name(c) + " density drift < 10 %");
  }

  // Fig 4: >= 40 % below the second-best crun engine, which is wasmedge;
  // free exceeds the metrics server by up to 42 %.
  double max_ratio = 0;
  for (const uint32_t d : kDensities) {
    double best = 1e9;
    C best_cfg = C::kCrunWasmtime;
    for (C c : crun_others) {
      if (at(c, d).free_mib < best) {
        best = at(c, d).free_mib;
        best_cfg = c;
      }
    }
    check(r, reduction_pct(at(C::kCrunWamr, d).free_mib, best) >= 40.0,
          "fig4: reduction vs best other crun engine >= 40.0 %" + at_d(d));
    check(r, best_cfg == C::kCrunWasmEdge,
          "fig4: second-best crun engine on free is crun-wasmedge" + at_d(d));
    for (C c : {C::kCrunWamr, C::kCrunWasmtime, C::kCrunWasmer, C::kCrunWasmEdge}) {
      max_ratio = std::max(max_ratio, at(c, d).free_mib / at(c, d).metrics_mib - 1.0);
    }
  }
  check(r, max_ratio > 0.0 && max_ratio <= 0.42,
        "fig4: free exceeds metrics-server values by up to 42 %");

  // Fig 5: ours below every runwasi shim; >= 10.87 % below shim-wasmtime,
  // ~77.53 % below shim-wasmer on average.
  double min_vs_wasmtime = 1e9;
  double wasmer_sum = 0;
  for (const uint32_t d : kDensities) {
    const double ours = at(C::kCrunWamr, d).free_mib;
    for (C c : {C::kShimWasmtime, C::kShimWasmer, C::kShimWasmEdge}) {
      check(r, ours < at(c, d).free_mib, "fig5: ours < " + name(c) + at_d(d));
    }
    min_vs_wasmtime = std::min(
        min_vs_wasmtime, reduction_pct(ours, at(C::kShimWasmtime, d).free_mib));
    wasmer_sum += reduction_pct(ours, at(C::kShimWasmer, d).free_mib);
  }
  check(r, min_vs_wasmtime >= 10.87,
        "fig5: reduction vs containerd-shim-wasmtime >= 10.87 % at every density");
  check(r, std::abs(wasmer_sum / 3.0 - 77.53) < 2.0,
        "fig5: reduction vs containerd-shim-wasmer ~= 77.53 %");

  // Fig 6 (metrics server) and Fig 7 (free): ours vs Python containers.
  double min6_crun = 1e9, min6_runc = 1e9;
  double min7_crun = 1e9, min7_runc = 1e9, min7_shim = 1e9;
  for (const uint32_t d : kDensities) {
    const Cell& ours = at(C::kCrunWamr, d);
    const Cell& crun_py = at(C::kCrunPython, d);
    const Cell& runc_py = at(C::kRuncPython, d);
    min6_crun = std::min(min6_crun, reduction_pct(ours.metrics_mib, crun_py.metrics_mib));
    min6_runc = std::min(min6_runc, reduction_pct(ours.metrics_mib, runc_py.metrics_mib));
    check(r, at(C::kShimWasmtime, d).metrics_mib > crun_py.metrics_mib,
          "fig6: shim-wasmtime stays above Python (metrics server)" + at_d(d));
    min7_crun = std::min(min7_crun, reduction_pct(ours.free_mib, crun_py.free_mib));
    min7_runc = std::min(min7_runc, reduction_pct(ours.free_mib, runc_py.free_mib));
    min7_shim = std::min(
        min7_shim, reduction_pct(at(C::kShimWasmtime, d).free_mib, crun_py.free_mib));
    check(r, at(C::kShimWasmEdge, d).free_mib > crun_py.free_mib,
          "fig7: shim-wasmedge stays above Python on free" + at_d(d));
  }
  check(r, min6_crun >= 17.98, "fig6: reduction vs crun+Python >= 17.98 %");
  check(r, min6_runc >= 18.15, "fig6: reduction vs runC+Python >= 18.15 %");
  check(r,
        std::abs(reduction_pct(at(C::kCrunWamr, 400).metrics_mib,
                               at(C::kShimWasmtime, 400).metrics_mib) -
                 21.07) < 3.0,
        "fig6: reduction vs second-best Wasm runtime ~= 21.07 %");
  check(r, min7_crun >= 16.38, "fig7: reduction vs crun+Python >= 16.38 %");
  check(r, min7_runc >= 17.87, "fig7: reduction vs runC+Python >= 17.87 %");
  check(r, min7_shim >= 4.66, "fig7: shim-wasmtime beats Python on free by >= 4.66 %");

  // Fig 8: start-up of 10 containers.
  const double ours10 = at(C::kCrunWamr, 10).startup_s;
  check(r, std::abs(ours10 - 3.24) < 0.30, "fig8: ours starts 10 containers in ~3.24 s");
  const double shim_we = at(C::kShimWasmEdge, 10).startup_s;
  const double shim_wt = at(C::kShimWasmtime, 10).startup_s;
  check(r, shim_we < ours10 && shim_wt < ours10,
        "fig8: runwasi shims are fastest at 10 containers");
  const double shim_lead = reduction_pct(shim_we, ours10);
  check(r, shim_lead > 4.0 && shim_lead <= 11.45 + 2.0,
        "fig8: fastest shim leads ours by up to 11.45 %");
  for (C c : crun_others) {
    check(r, reduction_pct(ours10, at(c, 10).startup_s) >= 2.66,
          "fig8: ours >= 2.66 % faster than " + name(c));
  }
  for (C c : {C::kCrunPython, C::kRuncPython}) {
    const double lead = reduction_pct(ours10, at(c, 10).startup_s);
    check(r, lead >= 3.0 && lead <= 18.0, "fig8: ours 3-18 % faster than " + name(c));
  }

  // Fig 9: start-up of 400 containers.
  const double ours400 = at(C::kCrunWamr, 400).startup_s;
  check(r,
        std::abs(reduction_pct(ours400, at(C::kShimWasmEdge, 400).startup_s) -
                 18.82) < 3.0,
        "fig9: ours ~18.82 % faster than shim-wasmedge at 400");
  check(r,
        std::abs(reduction_pct(ours400, at(C::kShimWasmtime, 400).startup_s) -
                 28.38) < 3.0,
        "fig9: ours ~28.38 % faster than shim-wasmtime at 400");
  check(r,
        std::abs((ours400 / at(C::kCrunWasmtime, 400).startup_s - 1.0) * 100.0 -
                 6.93) < 2.0,
        "fig9: ours ~6.93 % slower than crun-wasmtime at 400");
  check(r,
        ours400 < at(C::kCrunPython, 400).startup_s &&
            ours400 < at(C::kRuncPython, 400).startup_s,
        "fig9: ours still beats both Python configurations at 400");

  // Fig 10: ordering of the density-averaged free memory.
  std::vector<std::pair<double, C>> avg;
  for (const C c : k8s::kAllConfigs) {
    double sum = 0;
    for (const uint32_t d : kDensities) sum += at(c, d).free_mib;
    avg.emplace_back(sum / 3.0, c);
  }
  std::sort(avg.begin(), avg.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  check(r, avg.front().second == C::kCrunWamr,
        "fig10: ours has the lowest average memory overall");
  check(r, avg[1].second == C::kShimWasmtime,
        "fig10: containerd-shim-wasmtime is second-best overall");
  check(r, avg.back().second == C::kShimWasmer,
        "fig10: containerd-shim-wasmer is the worst overall");
  double python_best = 1e9;
  for (const auto& [v, c] : avg) {
    if (!k8s::deploy_config_is_wasm(c)) python_best = std::min(python_best, v);
  }
  int wasm_below_python = 0;
  for (const auto& [v, c] : avg) {
    if (k8s::deploy_config_is_wasm(c) && v < python_best) ++wasm_below_python;
  }
  check(r, wasm_below_python == 2,
        "fig10: exactly two Wasm configs (ours + shim-wasmtime) beat Python on free");
}

PassResult paper_matrix(const Inputs& in, KernelDriver& driver) {
  // A fresh cluster per cell, as the paper re-provisions between runs.
  // Each cell is set up, then timed; the pass's setup and wall are the
  // sums over its 27 cells, and only one cell's cluster is alive at once.
  PassResult r;
  std::vector<Cell> cells;
  std::string csv;
  for (const DeployConfig config : k8s::kAllConfigs) {
    for (const uint32_t density : kDensities) {
      const auto s0 = Clock::now();
      std::unique_ptr<Cluster> cluster = timed(r.spans.setup_s, [&] {
        k8s::ClusterOptions opts;
        opts.node.seed = in.seed;
        return std::make_unique<Cluster>(opts);
      });
      driver.watch({&cluster->node().cpu()});
      const uint64_t events_before = driver.events();
      const auto w0 = Clock::now();
      const Status st = timed(r.spans.deploy_s,
                              [&] { return cluster->deploy(config, density); });
      timed(r.spans.drive_s, [&] { driver.run(cluster->kernel()); });
      timed(r.spans.measure_s, [&] {
        const std::size_t running = cluster->running_count();
        const Cell cell{config, density,
                        cluster->metrics_avg_per_container().mib(),
                        cluster->free_avg_per_container().mib(),
                        to_seconds(cluster->startup_makespan())};
        cells.push_back(cell);
        r.attempted += density;
        r.failed += density - std::min<std::size_t>(running, density);
        read_layers(*cluster, r.layer);
        r.compactions += cluster->kernel().compactions();
        appendf(csv, "%s,%u,%.3f,%.3f,%.3f\n", k8s::deploy_config_name(config),
                density, cell.metrics_mib, cell.free_mib, cell.startup_s);
        appendf(r.digest_text, "%s,%u,%a,%a,%a,running=%zu,events=%llu,now=%lld\n",
                k8s::deploy_config_name(config), density, cell.metrics_mib,
                cell.free_mib, cell.startup_s, running,
                static_cast<unsigned long long>(driver.events() - events_before),
                static_cast<long long>(cluster->kernel().now().count()));
      });
      const auto w1 = Clock::now();
      r.setup_s += seconds_between(s0, w0);
      r.wall_s += seconds_between(w0, w1);
      check(r, st.is_ok(), std::string("deploy ") +
                               k8s::deploy_config_name(config) + ": " +
                               st.to_string());
    }
  }
  r.events = driver.events();
  r.pods_started = static_cast<uint64_t>(r.layer["k8s.kubelet.pods_started"]);
  r.requests = r.pods_started;  // one _start / script run per start
  digest_layers(r);

  check(r, r.failed == 0, "every paper_matrix pod reaches Running");
  paper_shape_checks(r, cells);
  if (in.seed == kDefaultSeed) {
    check(r, csv == kFig10Reference,
          "default-seed matrix equals the bench_fig10_overview CSV");
  }
  return r;
}

// ---------------------------------------------------------------------------
// scale_startup: crun-wamr, 10k pods on 64 nodes, lifecycle on, lean tracing

constexpr uint32_t kScalePods = 10000;
constexpr uint32_t kScaleNodes = 64;
constexpr int kScaleMaxTicks = 400;  // x 5 s virtual per tick
/// Events BENCH_scale.json records for this cell at the default seed.
constexpr uint64_t kScaleReferenceEvents = 70142;

PassResult scale_startup(const Inputs& in, KernelDriver& driver) {
  PassResult r;
  std::unique_ptr<Cluster> cluster;
  const auto s0 = Clock::now();
  timed(r.spans.setup_s, [&] {
    k8s::ClusterOptions opts;
    opts.workers = kScaleNodes;
    opts.node.seed = in.seed;
    cluster = std::make_unique<Cluster>(opts);
    cluster->obs().tracer.set_span_capture(false);
    cluster->obs().metrics.set_sample_retention(false);
  });
  std::vector<const sim::CpuScheduler*> cpus;
  for (uint32_t i = 0; i < cluster->worker_count(); ++i) {
    cpus.push_back(&cluster->node(i).cpu());
  }
  driver.watch(std::move(cpus));
  sim::Kernel& kernel = cluster->kernel();

  const auto w0 = Clock::now();
  const Status st = timed(r.spans.deploy_s, [&] {
    return cluster->deploy(DeployConfig::kCrunWamr, kScalePods, "scale");
  });
  check(r, st.is_ok(), "deploy: " + st.to_string());
  std::size_t running = 0;
  bool heap_bounded = true;
  timed(r.spans.drive_s, [&] {
    for (int tick = 0; tick < kScaleMaxTicks && running < kScalePods; ++tick) {
      driver.run_until(kernel, kernel.now() + sim_s(5.0));
      running = cluster->running_count();
      heap_bounded = heap_bounded &&
                     kernel.heap_size() <=
                         std::max<std::size_t>(2 * kernel.pending(), 64);
    }
  });
  uint32_t records = 0;
  timed(r.spans.measure_s, [&] {
    for (uint32_t i = 0; i < cluster->worker_count(); ++i) {
      records += static_cast<uint32_t>(cluster->kubelet(i).record_count());
    }
    read_layers(*cluster, r.layer);
    r.compactions = kernel.compactions();
    appendf(r.digest_text,
            "virtual_ns=%lld events=%llu running=%zu bound=%u "
            "unschedulable=%u records=%u\n",
            static_cast<long long>(kernel.now().count()),
            static_cast<unsigned long long>(driver.events()), running,
            cluster->scheduler().bound_count(),
            cluster->scheduler().unschedulable_count(), records);
    r.digest_text += cluster->faults().trace_string();
    r.digest_text += cluster->lifecycle().trace_string();
    for (const k8s::Pod* p : cluster->api().pods()) {
      appendf(r.digest_text, "%s %s %s %lld\n", p->spec.name.c_str(),
              p->status.node.c_str(), k8s::pod_phase_name(p->status.phase),
              static_cast<long long>(p->status.running_at.count()));
    }
  });
  const auto w1 = Clock::now();
  r.setup_s = seconds_between(s0, w0);
  r.wall_s = seconds_between(w0, w1);
  r.events = driver.events();
  r.attempted = kScalePods;
  r.failed = kScalePods - std::min<std::size_t>(running, kScalePods);
  r.pods_started = static_cast<uint64_t>(r.layer["k8s.kubelet.pods_started"]);
  r.requests = r.pods_started;
  digest_layers(r);

  check(r, running == kScalePods, "all scale_startup pods Running");
  check(r, cluster->scheduler().unschedulable_count() == 0,
        "no scale_startup pod unschedulable");
  check(r, cluster->scheduler().bound_count() == running,
        "zero leaked scheduler slots");
  check(r, records == running, "kubelet records match live pods");
  check(r, heap_bounded, "kernel heap <= 2 x pending + 64 after every tick");
  if (in.seed == kDefaultSeed) {
    check(r, r.events == kScaleReferenceEvents,
          "default-seed events equal BENCH_scale.json's 70142 (got " +
              std::to_string(r.events) + ")");
  }
  return r;
}

// ---------------------------------------------------------------------------
// serve_churn: request traffic over Deployments with lifecycle faults

serve::DeploymentSpec deployment(const std::string& name,
                                 const std::string& image,
                                 const std::string& runtime_class,
                                 uint32_t replicas, uint64_t memory_limit) {
  serve::DeploymentSpec spec;
  spec.name = name;
  spec.replicas = replicas;
  spec.pod_template.image = image;
  spec.pod_template.runtime_class = runtime_class;
  spec.pod_template.restart_policy = k8s::RestartPolicy::kOnFailure;
  spec.pod_template.memory_limit = memory_limit;
  return spec;
}

PassResult serve_churn(const Inputs& in, KernelDriver& driver) {
  constexpr int kMaxTicks = 3600;  // x 1 s virtual per tick
  PassResult r;
  std::unique_ptr<Cluster> cluster;
  const auto s0 = Clock::now();
  const Status setup = timed(r.spans.setup_s, [&]() -> Status {
    k8s::ClusterOptions opts;
    opts.restart_policy = k8s::RestartPolicy::kOnFailure;
    opts.node.seed = in.seed;
    cluster = std::make_unique<Cluster>(opts);
    cluster->faults().set_rate_all(0.10);
    cluster->faults().set_max_faults_per_target(3);
    cluster->enable_timeseries();
    k8s::Service wsvc;
    wsvc.name = "wasm-svc";
    wsvc.selector = {{"app", "wsrv"}};
    wsvc.policy = k8s::LbPolicy::kLeastOutstanding;
    k8s::Service psvc;
    psvc.name = "py-svc";
    psvc.selector = {{"app", "psrv"}};
    psvc.policy = k8s::LbPolicy::kRoundRobin;
    WASMCTR_RETURN_IF_ERROR(cluster->api().create_service(wsvc));
    WASMCTR_RETURN_IF_ERROR(cluster->api().create_service(psvc));
    WASMCTR_RETURN_IF_ERROR(cluster->deployments().create(
        deployment("wsrv", "request-service:wasm", "crun-wamr",
                   in.replicas_per_class, 64ull << 20)));
    return cluster->deployments().create(deployment(
        "psrv", "request-service:python", "runc", in.replicas_per_class, 0));
  });
  check(r, setup.is_ok(), "serve_churn setup: " + setup.to_string());
  driver.watch({&cluster->node().cpu()});
  sim::Kernel& kernel = cluster->kernel();
  const auto ready = [&] {
    return cluster->deployments().ready_replicas("wsrv") +
           cluster->deployments().ready_replicas("psrv");
  };
  const uint32_t spec_replicas = 2 * in.replicas_per_class;

  const auto w0 = Clock::now();
  // Replicas come up before traffic starts.
  timed(r.spans.drive_s, [&] {
    for (int tick = 0; tick < kMaxTicks && ready() < spec_replicas; ++tick) {
      driver.run_until(kernel, kernel.now() + sim_s(1.0));
    }
  });
  std::unique_ptr<serve::TrafficDriver> wasm_traffic;
  std::unique_ptr<serve::TrafficDriver> py_traffic;
  timed(r.spans.deploy_s, [&] {
    serve::TrafficOptions wopts;
    wopts.service = "wasm-svc";
    wopts.total_requests = in.requests_per_class;
    wopts.rate_rps = in.rate_rps;
    wopts.request_arg = in.request_n;
    wopts.seed = in.traffic_seed_wasm;
    serve::TrafficOptions popts = wopts;
    popts.service = "py-svc";
    popts.seed = in.traffic_seed_py;
    wasm_traffic = std::make_unique<serve::TrafficDriver>(
        kernel, cluster->api(), cluster->cri(), cluster->endpoints(), wopts);
    py_traffic = std::make_unique<serve::TrafficDriver>(
        kernel, cluster->api(), cluster->cri(), cluster->endpoints(), popts);
    wasm_traffic->start();
    py_traffic->start();
    // Mid-traffic churn (as bench_serving): one Wasm replica is OOM-killed
    // while requests queue behind it, one Python replica is deleted.
    Cluster* c = cluster.get();
    kernel.schedule_after(sim_s(0.1), [c] {
      const k8s::Pod* pod = c->api().pod("wsrv-00000");
      if (pod == nullptr || pod->status.container_id.empty()) return;
      (void)c->cri().grow_container_memory(pod->status.container_id,
                                           Bytes(128ull << 20));
    });
    kernel.schedule_after(sim_s(0.35),
                          [c] { (void)c->api().delete_pod("psrv-00000"); });
  });
  const auto done = [&](const serve::TrafficDriver& t) {
    return t.served() + t.failed() >= in.requests_per_class;
  };
  timed(r.spans.drive_s, [&] {
    for (int tick = 0;
         tick < kMaxTicks && !(done(*wasm_traffic) && done(*py_traffic));
         ++tick) {
      driver.run_until(kernel, kernel.now() + sim_s(1.0));
    }
    cluster->stop_timeseries();
    driver.run(kernel);  // drain restarts and replacements to quiescence
  });
  uint32_t ready_end = 0;
  timed(r.spans.measure_s, [&] {
    ready_end = ready();
    read_layers(*cluster, r.layer);
    r.compactions = kernel.compactions();
    for (const serve::TrafficDriver* t : {wasm_traffic.get(), py_traffic.get()}) {
      r.layer["serve.requests"] += t->served() + t->failed();
      r.layer["serve.retries"] += t->retries();
      r.layer["serve.cold"] += t->cold_hits();
      double first_try = 0;
      for (const serve::RequestOutcome& o : t->outcomes()) {
        if (o.ok && o.attempts == 1) ++first_try;
      }
      r.layer["serve.first_try"] += first_try;
      r.digest_text += t->trace_string();
    }
    r.digest_text += cluster->endpoints().trace_string();
    r.digest_text += cluster->faults().trace_string();
    appendf(r.digest_text, "ready=%u bound=%u active=%u events=%llu now=%lld\n",
            ready_end, cluster->scheduler().bound_count(),
            cluster->kubelet().active_pods(),
            static_cast<unsigned long long>(driver.events()),
            static_cast<long long>(kernel.now().count()));
  });
  const auto w1 = Clock::now();
  r.setup_s = seconds_between(s0, w0);
  r.wall_s = seconds_between(w0, w1);
  r.events = driver.events();
  const uint64_t served = wasm_traffic->served() + py_traffic->served();
  r.attempted = 2ull * in.requests_per_class + spec_replicas;
  r.failed = (2ull * in.requests_per_class - served) +
             (spec_replicas - std::min(ready_end, spec_replicas));
  r.pods_started = static_cast<uint64_t>(r.layer["k8s.kubelet.pods_started"]);
  r.requests = served;
  digest_layers(r);

  for (const auto& [cls, t] :
       {std::pair{"crun-wamr", wasm_traffic.get()}, {"runc-python", py_traffic.get()}}) {
    const double total = t->served() + t->failed();
    check(r, t->served() >= 0.99 * total && total == in.requests_per_class,
          std::string(cls) + ": >= 99 % of requests served");
    check(r, t->cold_hits() + t->warm_hits() == t->served(),
          std::string(cls) + ": cold + warm == served");
  }
  check(r, ready_end == spec_replicas, "ready replicas back at spec");
  check(r, cluster->scheduler().bound_count() == ready_end,
        "zero leaked scheduler slots");
  check(r, cluster->kubelet().active_pods() == ready_end,
        "zero leaked kubelet bookkeeping");
  check(r, wasm_traffic->retries() + py_traffic->retries() > 0,
        "churn exercised the retry path");
  return r;
}

}  // namespace

Inputs make_inputs(const std::string& workload, uint64_t seed) {
  Inputs in;
  in.workload = workload;
  in.seed = seed;
  if (workload == "serve_churn") {
    Rng rng(seed);
    in.traffic_seed_wasm = rng.next_u64();
    in.traffic_seed_py = rng.next_u64();
    in.replicas_per_class = 20;
    in.requests_per_class = 750;
    in.rate_rps = 200.0;
    in.request_n = 1000;
  } else if (workload != "paper_matrix" && workload != "scale_startup") {
    in.workload.clear();
  }
  return in;
}

PassResult run_pass(const Inputs& in, KernelDriver& driver) {
  PassResult r = in.workload == "paper_matrix"    ? paper_matrix(in, driver)
                 : in.workload == "scale_startup" ? scale_startup(in, driver)
                                                  : serve_churn(in, driver);
  r.digest = fnv1a(r.digest_text);
  r.digest_text = std::string();  // a run keeps every pass; keep them small
  return r;
}

}  // namespace perfbench
