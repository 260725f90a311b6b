// Bench harness: run the paper's experiments, print each figure as a
// table + ASCII bar chart, compare against the paper's reported relative
// statistics, emit PASS/FAIL shape checks, and the command line and file
// output every bench shares.
#pragma once

#include <string>
#include <vector>

#include "k8s/cluster.hpp"
#include "support/json.hpp"

namespace wasmctr::bench {

/// One measured configuration at one density.
struct Sample {
  k8s::DeployConfig config;
  uint32_t density = 0;
  double metrics_mib = 0;
  double free_mib = 0;
  double startup_s = 0;
};

/// Run one deployment and measure everything (fresh cluster per run, as
/// the paper re-provisions between experiments). A failed deploy or a pod
/// left not running prints to stderr and exits 1.
Sample run_experiment(k8s::DeployConfig config, uint32_t density);

/// Run `configs` × `densities`, config-major.
std::vector<Sample> run_matrix(const std::vector<k8s::DeployConfig>& configs,
                               const std::vector<uint32_t>& densities);

/// Find a sample; one that was never measured prints to stderr and exits 1.
const Sample& find(const std::vector<Sample>& samples,
                   k8s::DeployConfig config, uint32_t density);

/// Render a grouped horizontal bar chart of `value(sample)` per config and
/// density (the shape of the paper's figures, in ASCII). Bars are scaled to
/// the largest charted cell, so `samples` may hold more than is charted.
void print_bars(const std::string& title, const std::vector<Sample>& samples,
                const std::vector<k8s::DeployConfig>& configs,
                const std::vector<uint32_t>& densities,
                double (*value)(const Sample&), const char* unit);

/// Percentage reduction 1 - ours/other, in percent.
double reduction_pct(double ours, double other);

/// Record a shape check: prints PASS/FAIL and remembers failures.
class ShapeChecks {
 public:
  void check(bool ok, const std::string& what, double paper, double measured);
  /// Also usable for non-numeric assertions.
  void check(bool ok, const std::string& what);
  /// Prints the summary; returns the exit code for main().
  int summarize(const std::string& bench_name) const;

 private:
  int passed_ = 0;
  int failed_ = 0;
};

/// CSV emission for downstream plotting.
void print_csv(const std::vector<Sample>& samples);

/// Flags a bench accepts; or them into parse_args' `accepted` mask.
enum BenchFlag : unsigned {
  kFlagSmoke = 1u << 0,   // --smoke
  kFlagOut = 1u << 1,     // --out <path>
  kFlagExport = 1u << 2,  // --export <path>
  kFlagReplay = 1u << 3,  // --replay <schedule>
};

struct BenchArgs {
  bool smoke = false;
  std::string out;          // --out, else parse_args' `default_out`
  std::string export_path;  // empty: no export run
  std::string replay_path;  // empty: no replay
};

/// Parse argv against `accepted`. A flag outside the mask, or one missing
/// its value, prints a usage line to stderr and exits 2.
BenchArgs parse_args(int argc, char** argv, unsigned accepted,
                     std::string default_out = {});

/// Write `text` to `path`; a failed open or write prints to stderr and
/// exits 1.
void write_file(const std::string& path, const std::string& text);

/// Write a BENCH_*.json root as dump(2) plus a newline.
void write_json(const std::string& path, json::Object root);

/// Write a deterministic export bundle (the CI same-seed `cmp` input).
void write_export(const std::string& path, const std::string& bundle);

}  // namespace wasmctr::bench
