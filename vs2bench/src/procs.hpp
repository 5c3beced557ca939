#ifndef VS2BENCH_PROCS_HPP_
#define VS2BENCH_PROCS_HPP_

/// \file procs.hpp
/// Child processes of the benchmark (the daemon, the fleet, set-up probes):
/// started with their output sent to a log file, stopped with SIGTERM and
/// always waited for.

#include <string>
#include <vector>

#include <sys/types.h>

namespace vs2bench {

class Child {
 public:
  Child() = default;
  /// Starts `argv` with this process's environment; stdout and stderr go
  /// to `log_path`.
  bool Start(const std::vector<std::string>& argv, const std::string& log_path);
  /// SIGTERM, then SIGKILL after `grace_seconds`; waits for the exit.
  /// Returns the exit status as waitpid reports it, or -1 when not running.
  /// `cpu_seconds`, when given, receives the child's CPU time (user +
  /// system, all its threads and the children it waited for) from wait4.
  int Stop(double grace_seconds = 15.0, double* cpu_seconds = nullptr);
  /// Waits for the child to exit by itself; `cpu_seconds` as for Stop.
  int Wait(double* cpu_seconds = nullptr);
  ~Child() { Stop(); }

  Child(const Child&) = delete;
  Child& operator=(const Child&) = delete;

  pid_t pid() const { return pid_; }
  bool running() const { return pid_ > 0; }

 private:
  pid_t pid_ = -1;
};

/// Peak resident set (VmHWM) of `pid` plus all its live descendants, MiB.
double PeakRssMiBTree(pid_t pid);

/// CPU time (user + system, all threads) of this process, from getrusage.
double SelfCpuSeconds();

/// CPU time (user + system, all threads) of `pid` plus all its live
/// descendants, seconds. Time the hypervisor steals from the virtual CPUs
/// is not in it.
double CpuSecondsTree(pid_t pid);

}  // namespace vs2bench

#endif  // VS2BENCH_PROCS_HPP_
