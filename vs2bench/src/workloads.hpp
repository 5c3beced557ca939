#ifndef VS2BENCH_WORKLOADS_HPP_
#define VS2BENCH_WORKLOADS_HPP_

/// \file workloads.hpp
/// The three workloads, one per paper dataset:
///
///  * `forms_batch`         — D1 tax forms through `core::BatchEngine`,
///                            in-process, closed loop;
///  * `posters_daemon_cold` — D2 posters, every request a cache miss, open
///                            loop into one `vs2_serve` daemon;
///  * `flyers_fleet_warm`   — D3 flyers from a pre-warmed working set, open
///                            loop through a 2-worker `vs2_fleet`.
///
/// Without tracing a run reports the end-to-end metrics; with tracing it
/// replays the same inputs in-process through span-wrapped layer calls and
/// reports the per-layer metrics.

#include <cstdint>
#include <string>

#include "report.hpp"

namespace vs2bench {

struct RunOptions {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 15.0;
  bool trace = false;
  std::string self_path;  ///< this binary, for the set-up probes
  std::string serve_bin;  ///< vs2_serve (or its injected variant)
  std::string fleet_bin;  ///< vs2_fleet
  std::string run_dir;    ///< sockets, logs and span files
};

/// Runs one workload and fills `report`. Returns false on a usage error or
/// when the system under test could not be started.
bool RunWorkload(const RunOptions& options, Report& report);

/// Child-process mode behind `setup_s` of the in-process workload: builds
/// the embedding and the pipeline for `dataset`, then exits.
int SetupProbe(int dataset);

}  // namespace vs2bench

#endif  // VS2BENCH_WORKLOADS_HPP_
