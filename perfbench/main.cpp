// wasmctr host-cost benchmark program.
//
//   wasmctr_perfbench --workload <paper_matrix|scale_startup|serve_churn>
//                     [--seed N] [--seconds S] [--trace 0|1]
//
// Repeats passes of one workload for about S seconds of host time and
// prints, as its last stdout line, one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "values": {...}}
// Untraced (--trace 0) the values are the end-to-end figures, each the
// median over passes. Traced (--trace 1) passes alternate between the
// plain kernel loop and single-stepped, per-event-timed driving; the
// values are the per-layer figures, plus layer probes on the workload's
// own inputs. run.py picks from them the metrics BENCHMARK.json lists, with
// their units. Every pass is checked (shape checks, leak checks, reference
// outputs at the default seed), and every pass of a run, traced or not,
// must render the same digest of its virtual-time outputs.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <set>
#include <string>
#include <vector>

#include "perfbench.hpp"

namespace {

using namespace perfbench;

/// Passes per mode before a run may stop, however long they take.
constexpr std::size_t kMinPasses = 3;
constexpr std::size_t kMinTracedPasses = 2;

double median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

template <class F>
double median_of(const std::vector<PassResult>& passes, F f) {
  std::vector<double> v;
  for (const PassResult& p : passes) v.push_back(f(p));
  return median(std::move(v));
}

template <class F>
double mean_of(const std::vector<PassResult>& passes, F f) {
  double sum = 0;
  for (const PassResult& p : passes) sum += f(p);
  return sum / static_cast<double>(passes.size());
}

/// Nearest-rank percentile of unsorted samples.
double percentile(std::vector<uint32_t>& v, double q) {
  if (v.empty()) return 0;
  const std::size_t rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(v.size())));
  const std::size_t idx = std::clamp<std::size_t>(rank, 1, v.size()) - 1;
  std::nth_element(v.begin(), v.begin() + static_cast<std::ptrdiff_t>(idx),
                   v.end());
  return v[idx];
}

/// The process's peak resident set (VmHWM) in MiB.
double peak_rss_mib() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;  // kB
    }
  }
  return 0;
}

double ratio(double num, double den) { return den > 0 ? num / den : 0; }

int usage() {
  std::fprintf(stderr,
               "usage: wasmctr_perfbench --workload <paper_matrix|"
               "scale_startup|serve_churn> [--seed N] [--seconds S] "
               "[--trace 0|1]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  std::string workload;
  uint64_t seed = kDefaultSeed;
  double seconds = 30;
  bool trace = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const char* value = argv[i + 1];
    if (flag == "--workload") {
      workload = value;
    } else if (flag == "--seed") {
      seed = std::strtoull(value, nullptr, 10);
    } else if (flag == "--seconds") {
      seconds = std::strtod(value, nullptr);
    } else if (flag == "--trace") {
      trace = std::strcmp(value, "1") == 0;
    } else {
      return usage();
    }
  }
  if (argc % 2 == 0) return usage();
  const Inputs in = make_inputs(workload, seed);
  if (in.workload.empty() || !(seconds > 0)) return usage();
  std::printf("inputs: workload=%s node_seed=%llu", in.workload.c_str(),
              static_cast<unsigned long long>(in.seed));
  if (in.requests_per_class > 0) {
    std::printf(" traffic_seeds=%llu,%llu replicas=%u+%u requests=%u+%u "
                "rate_rps=%g n=%d",
                static_cast<unsigned long long>(in.traffic_seed_wasm),
                static_cast<unsigned long long>(in.traffic_seed_py),
                in.replicas_per_class, in.replicas_per_class,
                in.requests_per_class, in.requests_per_class, in.rate_rps,
                in.request_n);
  }
  std::printf("\n");
  std::fflush(stdout);

  // Passes. A traced run alternates plain and traced passes so both see
  // the same host conditions; trace_overhead_frac compares their walls.
  std::vector<PassResult> plain;
  std::vector<PassResult> traced;
  std::vector<uint32_t> event_ns;
  std::size_t heap_max = 0;
  std::size_t runnable_max = 0;
  // Peak RSS grows a little with every pass, so it is read after a fixed
  // number of passes, not after however many the host fits in `seconds`.
  double peak_rss_mb = 0;
  const auto start = Clock::now();
  for (std::size_t i = 0;; ++i) {
    const bool trace_pass = trace && i % 2 == 1;
    KernelDriver driver(trace_pass);
    PassResult pass = run_pass(in, driver);
    std::printf("pass %zu%s: setup_s=%.6f wall_s=%.6f events=%llu\n", i,
                trace_pass ? " (traced)" : "", pass.setup_s, pass.wall_s,
                static_cast<unsigned long long>(pass.events));
    if (trace_pass) {
      event_ns.insert(event_ns.end(), driver.event_ns().begin(),
                      driver.event_ns().end());
      heap_max = std::max(heap_max, driver.heap_max());
      runnable_max = std::max(runnable_max, driver.runnable_max());
      traced.push_back(std::move(pass));
    } else {
      plain.push_back(std::move(pass));
      if (plain.size() == kMinPasses) peak_rss_mb = peak_rss_mib();
    }
    const bool enough = trace ? plain.size() >= kMinTracedPasses &&
                                    traced.size() >= kMinTracedPasses
                              : plain.size() >= kMinPasses;
    if (enough && seconds_between(start, Clock::now()) >= seconds) break;
  }

  // Checks over every pass.
  std::vector<std::string> failures;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  const uint64_t digest = plain.front().digest;
  for (const auto* passes : {&plain, &traced}) {
    for (const PassResult& p : *passes) {
      attempted += p.attempted;
      failed += p.failed;
      for (const std::string& f : p.check_failures) failures.push_back(f);
      if (p.digest != digest) {
        failures.push_back("virtual-time digest differs between passes");
      }
      const HostSpans& s = p.spans;
      const double spans = s.setup_s + s.deploy_s + s.drive_s + s.measure_s;
      const double outer = p.setup_s + p.wall_s;
      if (std::abs(spans - outer) > 0.01 * outer) {
        failures.push_back("host spans do not tile setup + wall");
      }
    }
  }
  failed += failures.size();
  const std::set<std::string> distinct(failures.begin(), failures.end());
  for (const std::string& f : distinct) std::printf("[FAIL] %s\n", f.c_str());
  std::printf("passes: %zu plain, %zu traced; digest %016llx; %zu failed checks\n",
              plain.size(), traced.size(),
              static_cast<unsigned long long>(digest), failures.size());

  std::map<std::string, double> values;
  if (!trace) {
    values["wall_s"] = median_of(plain, [](const PassResult& p) { return p.wall_s; });
    values["setup_s"] = median_of(plain, [](const PassResult& p) { return p.setup_s; });
    values["pods_per_s"] = median_of(plain, [](const PassResult& p) {
      return static_cast<double>(p.pods_started) / p.wall_s;
    });
    values["requests_per_s"] = median_of(plain, [](const PassResult& p) {
      return static_cast<double>(p.requests) / p.wall_s;
    });
    values["events_per_s"] = median_of(plain, [](const PassResult& p) {
      return static_cast<double>(p.events) / p.wall_s;
    });
    values["peak_rss_mb"] = peak_rss_mb;
  } else {
    const PassResult& t = traced.front();
    values = t.layer;
    values["host.setup_s"] = mean_of(traced, [](const PassResult& p) { return p.spans.setup_s; });
    values["host.deploy_s"] = mean_of(traced, [](const PassResult& p) { return p.spans.deploy_s; });
    values["host.drive_s"] = mean_of(traced, [](const PassResult& p) { return p.spans.drive_s; });
    values["host.measure_s"] = mean_of(traced, [](const PassResult& p) { return p.spans.measure_s; });
    values["trace_overhead_frac"] =
        median_of(traced, [](const PassResult& p) { return p.wall_s; }) /
            median_of(plain, [](const PassResult& p) { return p.wall_s; }) -
        1.0;
    values["sim.kernel.events"] = static_cast<double>(t.events);
    values["sim.kernel.event_samples"] = static_cast<double>(event_ns.size());
    values["sim.kernel.event_ns_p50"] = percentile(event_ns, 0.50);
    values["sim.kernel.event_ns_p99"] = percentile(event_ns, 0.99);
    values["sim.kernel.heap_max"] = static_cast<double>(heap_max);
    values["sim.kernel.compactions"] = static_cast<double>(t.compactions);
    values["sim.cpu.runnable_max"] = static_cast<double>(runnable_max);
    const auto layer = [&](const char* name) {
      const auto it = t.layer.find(name);
      return it == t.layer.end() ? 0.0 : it->second;
    };
    values["k8s.kubelet.start_success_frac"] =
        ratio(layer("k8s.kubelet.pods_started"),
              layer("k8s.kubelet.pods_started") +
                  layer("k8s.kubelet.pods_failed"));
    values["serve.first_try_frac"] =
        ratio(layer("serve.first_try"), layer("serve.requests"));
    for (const auto& [k, v] : probe_layers(in, runnable_max)) values[k] = v;
  }

  std::string json = "{\"correct\": ";
  json += failures.empty() ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(attempted);
  json += ", \"failed\": " + std::to_string(failed);
  json += ", \"values\": {";
  for (const auto& [name, v] : values) {
    char buf[256];
    std::snprintf(buf, sizeof(buf), "%s\"%s\": %.17g",
                  json.back() == '{' ? "" : ", ", name.c_str(),
                  std::isfinite(v) ? v : 0.0);
    json += buf;
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  return 0;
}
