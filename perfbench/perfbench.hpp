// Shared pieces of the wasmctr host-cost benchmark: the host clock, the
// kernel driver that times single events in the traced run, the seeded
// inputs of a workload, and the result of one measured pass.
//
// The benchmark drives the simulator only through its public API
// (k8s::Cluster, serve::TrafficDriver, sim::Kernel); every host-time span
// it reports is taken here, around those calls, never inside src/.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "sim/cpu.hpp"
#include "sim/kernel.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

/// Run `f` and add its host duration in seconds to `acc`.
template <class F>
auto timed(double& acc, F&& f) {
  const auto t0 = Clock::now();
  struct Charge {
    double& acc;
    Clock::time_point t0;
    ~Charge() { acc += seconds_between(t0, Clock::now()); }
  } charge{acc, t0};
  return f();
}

/// Host-time spans around the benchmark's calls into the program. Within a
/// pass, setup precedes the timed region and deploy + drive + measure tile
/// it, so setup_s + deploy_s + drive_s + measure_s matches the outer
/// setup + wall clocks.
struct HostSpans {
  double setup_s = 0;
  double deploy_s = 0;
  double drive_s = 0;    ///< inside the kernel run loop
  double measure_s = 0;  ///< probes, tracer stats, digest
};

/// Drives a sim::Kernel. Untraced it calls Kernel::run / run_until. Traced
/// it executes one event per Kernel::step(), timing each on the host clock
/// and sampling the kernel heap and every watched node's runnable tasks
/// between steps. Both modes execute the same events in the same order.
class KernelDriver {
 public:
  explicit KernelDriver(bool traced) : traced_(traced) {}

  /// Node CPU models whose runnable count the traced run samples.
  void watch(std::vector<const wasmctr::sim::CpuScheduler*> cpus) {
    cpus_ = std::move(cpus);
  }

  /// Run to quiescence.
  void run(wasmctr::sim::Kernel& kernel);

  /// Run every event with time <= deadline and leave virtual time at the
  /// deadline, exactly as Kernel::run_until does.
  void run_until(wasmctr::sim::Kernel& kernel, wasmctr::SimTime deadline);

  /// Program events executed through this driver (never the driver's own
  /// deadline markers).
  [[nodiscard]] uint64_t events() const noexcept { return events_; }
  [[nodiscard]] const std::vector<uint32_t>& event_ns() const noexcept {
    return event_ns_;
  }
  [[nodiscard]] std::size_t heap_max() const noexcept { return heap_max_; }
  [[nodiscard]] std::size_t runnable_max() const noexcept {
    return runnable_max_;
  }

 private:
  /// Execute one event; returns false when the queue is empty. `marker`
  /// is set by the deadline marker's callback, so a step that sets it
  /// executed the marker, not a program event.
  bool timed_step(wasmctr::sim::Kernel& kernel, const bool& marker);

  bool traced_;
  std::vector<const wasmctr::sim::CpuScheduler*> cpus_;
  uint64_t events_ = 0;
  std::vector<uint32_t> event_ns_;
  std::size_t heap_max_ = 0;
  std::size_t runnable_max_ = 0;
};

/// Everything a workload's pass reads, generated from the seed alone.
struct Inputs {
  std::string workload;
  uint64_t seed = 0;  ///< also every node's seed (jitter, fault plan)
  // serve_churn only
  uint64_t traffic_seed_wasm = 0;
  uint64_t traffic_seed_py = 0;
  uint32_t replicas_per_class = 0;
  uint32_t requests_per_class = 0;
  double rate_rps = 0;
  int32_t request_n = 0;
};

/// The seed each workload uses unless told otherwise: the simulator's own
/// default node seed, under which the committed reference outputs hold.
inline constexpr uint64_t kDefaultSeed = 42;

/// Inputs of `workload` for `seed`; empty workload name when unknown.
Inputs make_inputs(const std::string& workload, uint64_t seed);

/// One measured pass of a workload.
struct PassResult {
  HostSpans spans;
  double setup_s = 0;  ///< outer clock: construction before the timed region
  double wall_s = 0;   ///< outer clock: first deploy call to last output read
  uint64_t events = 0;
  /// Kernel heap compactions; not digested, since the traced run's
  /// deadline markers are extra heap entries that can shift them.
  uint64_t compactions = 0;
  uint64_t pods_started = 0;  ///< pod starts that reached Running
  /// Requests served on serve_churn. The batch workloads send no requests;
  /// there each pod start's one guest call (`_start` or the script run)
  /// counts, so this equals pods_started.
  uint64_t requests = 0;
  uint64_t attempted = 0;     ///< pods deployed + requests sent
  uint64_t failed = 0;        ///< pods never Running + requests not served
  std::vector<std::string> check_failures;
  std::string digest_text;  ///< canonical virtual-time outputs
  uint64_t digest = 0;      ///< fnv1a(digest_text), set by run_pass
  /// Deterministic per-layer values read from public accessors: counts
  /// and virtual-clock figures. Identical across passes of one seed.
  std::map<std::string, double> layer;
};

/// Run one pass of `in.workload`, driving every kernel through `driver`.
PassResult run_pass(const Inputs& in, KernelDriver& driver);

/// Host timings of single layers on the workload's own inputs (Wasm
/// images, scripts, a config.json, the tracer, a CPU model loaded to
/// `runnable_max` tasks), each the median over repeated batches.
std::map<std::string, double> probe_layers(const Inputs& in,
                                           std::size_t runnable_max);

/// FNV-1a 64 of `text`.
uint64_t fnv1a(const std::string& text);

}  // namespace perfbench
