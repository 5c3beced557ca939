/// \file main.cpp
/// The VS2 benchmark binary. Normally started by `vs2bench/run.py`, which
/// builds it first:
///
///   vs2bench --workload NAME --seed N --seconds S --trace 0|1
///            --serve-bin PATH --fleet-bin PATH --run-dir DIR
///
/// prints one line per metric and, last, the JSON result line. Exit code 0
/// when the run completed (the JSON line says whether its outputs were
/// correct), 2 on a usage error, 1 when the system under test could not be
/// started.

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "report.hpp"
#include "workloads.hpp"

int main(int argc, char** argv) {
  vs2bench::RunOptions options;
  options.self_path = argv[0];
  bool have_trace = false;
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg == "--setup-probe" && i + 1 < argc) {
      return vs2bench::SetupProbe(std::atoi(argv[i + 1]));
    }
    if (i + 1 >= argc) {
      std::fprintf(stderr, "vs2bench: %s needs a value\n", arg.c_str());
      return 2;
    }
    std::string value = argv[++i];
    if (arg == "--workload") {
      options.workload = value;
    } else if (arg == "--seed") {
      options.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (arg == "--seconds") {
      options.seconds = std::atof(value.c_str());
    } else if (arg == "--trace") {
      options.trace = value == "1";
      have_trace = value == "0" || value == "1";
    } else if (arg == "--serve-bin") {
      options.serve_bin = value;
    } else if (arg == "--fleet-bin") {
      options.fleet_bin = value;
    } else if (arg == "--run-dir") {
      options.run_dir = value;
    } else {
      std::fprintf(stderr, "vs2bench: unknown argument %s\n", arg.c_str());
      return 2;
    }
  }
  if (options.workload.empty() || !have_trace || options.seconds <= 0.0 ||
      options.serve_bin.empty() || options.fleet_bin.empty() ||
      options.run_dir.empty()) {
    std::fprintf(stderr,
                 "usage: vs2bench --workload NAME --seed N --seconds S "
                 "--trace 0|1 --serve-bin PATH --fleet-bin PATH "
                 "--run-dir DIR\n");
    return 2;
  }
  std::printf("vs2bench workload=%s seed=%llu seconds=%g trace=%d\n",
              options.workload.c_str(),
              static_cast<unsigned long long>(options.seed), options.seconds,
              options.trace ? 1 : 0);
  vs2bench::Report report;
  if (!vs2bench::RunWorkload(options, report)) return 1;
  std::printf("%s\n", report.Json().c_str());
  return 0;
}
