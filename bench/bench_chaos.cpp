// Chaos bench — seeded randomized fault storms with always-on invariant
// oracles (DESIGN.md §15).
//
// Sweeps 54 generated storm schedules across bulk densities 10/100/400
// (24/18/12 storms per density), each run start-to-quiescence against the
// serving + isolation workloads with the InvariantChecker attached for
// the whole run. Per density, the first storm is run twice and its
// composite trace bundle compared byte-for-byte (same-seed determinism).
// Any invariant violation is automatically handed to the ScheduleShrinker
// and the minimized reproducer written to chaos_repro_<seed>.schedule so
// `bench_chaos --replay <file>` reproduces the exact failing trace.
// Results land in BENCH_chaos.json.
//
// Flags:
//   --smoke          3 storms at density 10 + the rerun cmp (the CI step)
//   --out <path>     where to write BENCH_chaos.json
//   --export <path>  run one deterministic storm and write its trace
//                    bundle so CI can cmp two same-seed invocations
//   --replay <path>  parse a schedule file (e.g. a minimized reproducer)
//                    and run exactly it; exit 1 iff an oracle fires
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "bench_support/report.hpp"
#include "sim/chaos/orchestrator.hpp"
#include "sim/chaos/shrink.hpp"
#include "support/json.hpp"

using namespace wasmctr;
using namespace wasmctr::bench;

namespace {

struct DensityPlan {
  uint32_t density;
  uint32_t storms;
};

// 24 + 18 + 12 = 54 storms (the acceptance floor is 50); the heavier
// densities run fewer schedules but each covers far more pods.
constexpr DensityPlan kPlan[] = {{10, 24}, {100, 18}, {400, 12}};
constexpr uint32_t kShrinkBudget = 120;

struct StormRow {
  chaos::StormReport report;
  bool rerun_checked = false;
  bool rerun_identical = false;
};

uint64_t storm_seed(uint32_t density, uint32_t index) {
  // Stable, collision-free across the plan: the density stripes the
  // seed space, the index walks it.
  return static_cast<uint64_t>(density) * 1000 + index;
}

void shrink_and_export(const chaos::StormSchedule& failing,
                       const chaos::StormOptions& opts) {
  std::printf("  shrinking seed %llu to a minimal reproducer...\n",
              static_cast<unsigned long long>(failing.seed));
  chaos::ScheduleShrinker shrinker(
      [&opts](const chaos::StormSchedule& candidate) {
        chaos::ChaosOrchestrator rerun(opts);
        return rerun.run(candidate).violations > 0;
      },
      kShrinkBudget);
  const chaos::ShrinkResult result = shrinker.shrink(failing);
  const std::string path =
      "chaos_repro_" + std::to_string(failing.seed) + ".schedule";
  write_file(path, result.minimal.to_text());
  std::printf("  wrote %s (%u -> %u events, %u reruns%s)\n", path.c_str(),
              result.original_events, result.minimal_events,
              result.oracle_runs,
              result.budget_exhausted ? ", budget exhausted" : "");
}

void print_row(const StormRow& row) {
  const chaos::StormReport& r = row.report;
  std::printf("%8llu %7u %7u %6u %6llu %7u %7u %8u %8u %6s %9s\n",
              static_cast<unsigned long long>(r.seed), r.density,
              r.events_executed, r.violations,
              static_cast<unsigned long long>(r.faults_injected),
              r.node_crashes, r.pods_evicted,
              r.victim_served + r.bulk_served, r.checks_run,
              r.quiesced ? "yes" : "NO",
              row.rerun_checked ? (row.rerun_identical ? "identical" : "DIFF")
                                : "-");
}

int check_rows(const std::vector<StormRow>& rows) {
  ShapeChecks checks;
  for (const StormRow& row : rows) {
    const chaos::StormReport& r = row.report;
    const std::string cell = "seed " + std::to_string(r.seed) + "/d" +
                             std::to_string(r.density);
    checks.check(r.violations == 0, cell + " zero invariant violations", 0,
                 r.violations);
    checks.check(r.quiesced, cell + " drained to quiescence");
    checks.check(r.checks_run > 0, cell + " periodic sweep ran");
    checks.check(r.victim_served + r.bulk_served > 0,
                 cell + " traffic flowed through the storm");
    if (row.rerun_checked) {
      checks.check(row.rerun_identical,
                   cell + " same-seed rerun bundle byte-identical");
    }
  }
  return checks.summarize("chaos");
}

json::Object results_json(const std::vector<StormRow>& rows) {
  json::Array storms;
  uint32_t total_violations = 0;
  for (const StormRow& row : rows) {
    const chaos::StormReport& r = row.report;
    total_violations += r.violations;
    json::Object s;
    s["seed"] = static_cast<int64_t>(r.seed);
    s["density"] = static_cast<int64_t>(r.density);
    s["events_executed"] = static_cast<int64_t>(r.events_executed);
    s["violations"] = static_cast<int64_t>(r.violations);
    s["faults_injected"] = static_cast<int64_t>(r.faults_injected);
    s["node_crashes"] = static_cast<int64_t>(r.node_crashes);
    s["pods_evicted"] = static_cast<int64_t>(r.pods_evicted);
    s["eviction_deferrals"] = static_cast<int64_t>(r.eviction_deferrals);
    s["victim_served"] = static_cast<int64_t>(r.victim_served);
    s["victim_failed"] = static_cast<int64_t>(r.victim_failed);
    s["bulk_served"] = static_cast<int64_t>(r.bulk_served);
    s["bulk_failed"] = static_cast<int64_t>(r.bulk_failed);
    s["checks_run"] = static_cast<int64_t>(r.checks_run);
    s["kernel_events"] = static_cast<int64_t>(r.kernel_events);
    s["quiesced"] = r.quiesced;
    if (row.rerun_checked) s["rerun_identical"] = row.rerun_identical;
    storms.emplace_back(std::move(s));
  }
  json::Object root;
  root["bench"] = "chaos";
  root["storms_run"] = static_cast<int64_t>(rows.size());
  root["total_violations"] = static_cast<int64_t>(total_violations);
  root["note"] =
      "each storm runs a generated fault schedule start-to-quiescence "
      "with every invariant oracle attached; a violation auto-shrinks "
      "to chaos_repro_<seed>.schedule for bench_chaos --replay";
  root["storms"] = std::move(storms);
  return root;
}

int run_replay(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    std::fprintf(stderr, "cannot open %s\n", path.c_str());
    return 2;
  }
  std::ostringstream text;
  text << in.rdbuf();
  const Result<chaos::StormSchedule> schedule =
      chaos::parse_schedule(text.str());
  if (!schedule.is_ok()) {
    std::fprintf(stderr, "%s: %s\n", path.c_str(),
                 schedule.status().to_string().c_str());
    return 2;
  }
  std::printf("replaying %s (seed %llu, density %u, %zu events)\n",
              path.c_str(),
              static_cast<unsigned long long>(schedule.value().seed),
              schedule.value().density, schedule.value().events.size());
  chaos::ChaosOrchestrator orch;
  const chaos::StormReport r = orch.run(schedule.value());
  std::printf("violations=%u quiesced=%s faults=%llu served=%u\n",
              r.violations, r.quiesced ? "yes" : "no",
              static_cast<unsigned long long>(r.faults_injected),
              r.victim_served + r.bulk_served);
  if (r.violations > 0) {
    std::printf("%s", r.violation_trace.c_str());
    return 1;  // the reproducer reproduced
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const BenchArgs args = parse_args(
      argc, argv, kFlagSmoke | kFlagOut | kFlagExport | kFlagReplay,
      "BENCH_chaos.json");
  const bool smoke = args.smoke;

  if (!args.replay_path.empty()) return run_replay(args.replay_path);

  if (!args.export_path.empty()) {
    // Determinism mode: one fixed mid-density storm, full traffic.
    const chaos::StormSchedule schedule = chaos::generate_storm(42, 100);
    chaos::ChaosOrchestrator orch;
    const chaos::StormReport r = orch.run(schedule);
    write_export(args.export_path, r.bundle);
    StormRow row;
    row.report = r;
    return check_rows({row});
  }

  std::printf("chaos sweep: seeded fault storms, all oracles armed%s\n\n",
              smoke ? " [smoke: 3 storms at density 10]" : "");
  std::printf("%8s %7s %7s %6s %6s %7s %7s %8s %8s %6s %9s\n", "seed",
              "density", "events", "viol", "faults", "crashes", "evicted",
              "served", "checks", "quiet", "rerun");

  std::vector<StormRow> rows;
  for (const DensityPlan& plan : kPlan) {
    if (smoke && plan.density != 10) continue;
    const uint32_t storms = smoke ? 3 : plan.storms;
    for (uint32_t i = 0; i < storms; ++i) {
      const chaos::StormSchedule schedule =
          chaos::generate_storm(storm_seed(plan.density, i), plan.density);
      chaos::StormOptions opts;
      chaos::ChaosOrchestrator orch(opts);
      StormRow row;
      row.report = orch.run(schedule);
      if (i == 0) {
        // Same-seed determinism: rerun the first storm of each density
        // and compare the composite bundles byte for byte.
        row.rerun_checked = true;
        row.rerun_identical = orch.run(schedule).bundle == row.report.bundle;
      }
      if (row.report.violations > 0) {
        std::printf("%s", row.report.violation_trace.c_str());
        shrink_and_export(schedule, opts);
      }
      print_row(row);
      rows.push_back(std::move(row));
    }
  }
  write_json(args.out, results_json(rows));
  return check_rows(rows);
}
