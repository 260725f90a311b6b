#include "bench_support/report.hpp"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>

namespace wasmctr::bench {

using k8s::Cluster;
using k8s::DeployConfig;

namespace {

[[noreturn]] void fail_cell(const char* what, DeployConfig config,
                            uint32_t density) {
  std::fprintf(stderr, "%s: %s n=%u\n", what,
               k8s::deploy_config_name(config), density);
  std::exit(1);
}

}  // namespace

Sample run_experiment(DeployConfig config, uint32_t density) {
  Cluster cluster;
  const Status st = cluster.deploy(config, density);
  if (!st.is_ok()) fail_cell(st.to_string().c_str(), config, density);
  cluster.run();
  if (cluster.running_count() != density) {
    fail_cell("not every pod running", config, density);
  }
  Sample s;
  s.config = config;
  s.density = density;
  s.metrics_mib = cluster.metrics_avg_per_container().mib();
  s.free_mib = cluster.free_avg_per_container().mib();
  s.startup_s = to_seconds(cluster.startup_makespan());
  return s;
}

std::vector<Sample> run_matrix(const std::vector<DeployConfig>& configs,
                               const std::vector<uint32_t>& densities) {
  std::vector<Sample> out;
  for (const DeployConfig c : configs) {
    for (const uint32_t d : densities) {
      out.push_back(run_experiment(c, d));
    }
  }
  return out;
}

const Sample& find(const std::vector<Sample>& samples, DeployConfig config,
                   uint32_t density) {
  for (const Sample& s : samples) {
    if (s.config == config && s.density == density) return s;
  }
  fail_cell("sample not measured", config, density);
}

double reduction_pct(double ours, double other) {
  return (1.0 - ours / other) * 100.0;
}

void print_bars(const std::string& title, const std::vector<Sample>& samples,
                const std::vector<DeployConfig>& configs,
                const std::vector<uint32_t>& densities,
                double (*value)(const Sample&), const char* unit) {
  std::printf("\n%s\n", title.c_str());
  double max_value = 0;
  for (const DeployConfig c : configs) {
    for (const uint32_t d : densities) {
      max_value = std::max(max_value, value(find(samples, c, d)));
    }
  }
  if (max_value <= 0) max_value = 1;
  constexpr int kWidth = 46;
  for (const DeployConfig c : configs) {
    std::printf("  %-28s\n", k8s::deploy_config_label(c));
    for (const uint32_t d : densities) {
      const Sample& s = find(samples, c, d);
      const double v = value(s);
      const int bars = std::max(
          1, static_cast<int>(v / max_value * kWidth + 0.5));
      std::printf("    n=%-4u |%-*s| %8.2f %s\n", d, kWidth,
                  std::string(static_cast<std::size_t>(bars), '#').c_str(), v,
                  unit);
    }
  }
}

void ShapeChecks::check(bool ok, const std::string& what, double paper,
                        double measured) {
  std::printf("  [%s] %s (paper: %.2f, measured: %.2f)\n", ok ? "PASS" : "FAIL",
              what.c_str(), paper, measured);
  ok ? ++passed_ : ++failed_;
}

void ShapeChecks::check(bool ok, const std::string& what) {
  std::printf("  [%s] %s\n", ok ? "PASS" : "FAIL", what.c_str());
  ok ? ++passed_ : ++failed_;
}

int ShapeChecks::summarize(const std::string& bench_name) const {
  std::printf("\n%s shape checks: %d passed, %d failed\n", bench_name.c_str(),
              passed_, failed_);
  return failed_ == 0 ? 0 : 1;
}

void print_csv(const std::vector<Sample>& samples) {
  std::printf("\nconfig,density,metrics_mib_per_ctr,free_mib_per_ctr,"
              "startup_s\n");
  for (const Sample& s : samples) {
    std::printf("%s,%u,%.3f,%.3f,%.3f\n", k8s::deploy_config_name(s.config),
                s.density, s.metrics_mib, s.free_mib, s.startup_s);
  }
}

BenchArgs parse_args(int argc, char** argv, unsigned accepted,
                     std::string default_out) {
  BenchArgs args;
  args.out = std::move(default_out);
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    const bool has_value = i + 1 < argc;
    if (flag == "--smoke" && (accepted & kFlagSmoke) != 0) {
      args.smoke = true;
    } else if (flag == "--out" && (accepted & kFlagOut) != 0 && has_value) {
      args.out = argv[++i];
    } else if (flag == "--export" && (accepted & kFlagExport) != 0 &&
               has_value) {
      args.export_path = argv[++i];
    } else if (flag == "--replay" && (accepted & kFlagReplay) != 0 &&
               has_value) {
      args.replay_path = argv[++i];
    } else {
      const char* prog = std::strrchr(argv[0], '/');
      std::fprintf(stderr, "usage: %s%s%s%s%s\n",
                   prog != nullptr ? prog + 1 : argv[0],
                   (accepted & kFlagSmoke) != 0 ? " [--smoke]" : "",
                   (accepted & kFlagOut) != 0 ? " [--out path]" : "",
                   (accepted & kFlagExport) != 0 ? " [--export path]" : "",
                   (accepted & kFlagReplay) != 0 ? " [--replay schedule]"
                                                 : "");
      std::exit(2);
    }
  }
  return args;
}

void write_file(const std::string& path, const std::string& text) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out << text;
  out.close();
  if (!out) {
    std::fprintf(stderr, "cannot write %s\n", path.c_str());
    std::exit(1);
  }
}

void write_json(const std::string& path, json::Object root) {
  write_file(path, json::Value(std::move(root)).dump(2) + "\n");
  std::printf("\nwrote %s\n", path.c_str());
}

void write_export(const std::string& path, const std::string& bundle) {
  write_file(path, bundle);
  std::printf("exported %zu bytes to %s\n", bundle.size(), path.c_str());
}

}  // namespace wasmctr::bench
