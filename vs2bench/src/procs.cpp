#include "procs.hpp"

#include <cerrno>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iterator>
#include <sstream>

#include <fcntl.h>
#include <spawn.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include "clock.hpp"

extern char** environ;

namespace vs2bench {

bool Child::Start(const std::vector<std::string>& argv,
                  const std::string& log_path) {
  if (running() || argv.empty()) return false;
  std::vector<char*> args;
  for (const std::string& a : argv) {
    args.push_back(const_cast<char*>(a.c_str()));
  }
  args.push_back(nullptr);

  posix_spawn_file_actions_t actions;
  posix_spawn_file_actions_init(&actions);
  posix_spawn_file_actions_addopen(&actions, STDIN_FILENO, "/dev/null",
                                   O_RDONLY, 0);
  posix_spawn_file_actions_addopen(&actions, STDOUT_FILENO, log_path.c_str(),
                                   O_WRONLY | O_CREAT | O_APPEND, 0644);
  posix_spawn_file_actions_adddup2(&actions, STDOUT_FILENO, STDERR_FILENO);
  pid_t pid = -1;
  int rc =
      posix_spawn(&pid, args[0], &actions, nullptr, args.data(), environ);
  posix_spawn_file_actions_destroy(&actions);
  if (rc != 0) return false;
  pid_ = pid;
  return true;
}

namespace {

double Seconds(const timeval& t) {
  return static_cast<double>(t.tv_sec) + static_cast<double>(t.tv_usec) * 1e-6;
}

double CpuOf(const rusage& usage) {
  return Seconds(usage.ru_utime) + Seconds(usage.ru_stime);
}

}  // namespace

int Child::Stop(double grace_seconds, double* cpu_seconds) {
  if (!running()) return -1;
  ::kill(pid_, SIGTERM);
  double deadline = Now() + grace_seconds;
  int status = 0;
  rusage usage{};
  while (true) {
    pid_t r = ::wait4(pid_, &status, WNOHANG, &usage);
    if (r == pid_ || (r < 0 && errno != EINTR)) break;
    if (Now() > deadline) {
      ::kill(pid_, SIGKILL);
      ::wait4(pid_, &status, 0, &usage);
      break;
    }
    ::usleep(2000);
  }
  pid_ = -1;
  if (cpu_seconds != nullptr) *cpu_seconds = CpuOf(usage);
  return status;
}

int Child::Wait(double* cpu_seconds) {
  if (!running()) return -1;
  int status = 0;
  rusage usage{};
  while (::wait4(pid_, &status, 0, &usage) < 0 && errno == EINTR) {
  }
  pid_ = -1;
  if (cpu_seconds != nullptr) *cpu_seconds = CpuOf(usage);
  return status;
}

double SelfCpuSeconds() {
  rusage usage{};
  ::getrusage(RUSAGE_SELF, &usage);
  return CpuOf(usage);
}

namespace {

double VmHwmMiB(pid_t pid) {
  std::ifstream status("/proc/" + std::to_string(pid) + "/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::atof(line.c_str() + 6) / 1024.0;  // reported in kB
    }
  }
  return 0.0;
}

std::vector<pid_t> ChildrenOf(pid_t pid) {
  std::vector<pid_t> out;
  std::string dir = "/proc/" + std::to_string(pid) + "/task/";
  std::ifstream tasks(dir + std::to_string(pid) + "/children");
  pid_t child;
  while (tasks >> child) out.push_back(child);
  return out;
}

/// utime + stime of `pid` (fields 14 and 15 of /proc/<pid>/stat), seconds.
double CpuSeconds(pid_t pid) {
  std::ifstream stat("/proc/" + std::to_string(pid) + "/stat");
  std::string text((std::istreambuf_iterator<char>(stat)),
                   std::istreambuf_iterator<char>());
  // The command name (field 2) may hold spaces; fields resume after ')'.
  size_t close = text.rfind(')');
  if (close == std::string::npos) return 0.0;
  std::istringstream fields(text.substr(close + 2));
  std::string field;
  double ticks = 0.0;
  for (int i = 3; i <= 15 && fields >> field; ++i) {
    if (i >= 14) ticks += std::atof(field.c_str());
  }
  return ticks / static_cast<double>(::sysconf(_SC_CLK_TCK));
}

}  // namespace

double CpuSecondsTree(pid_t pid) {
  double total = CpuSeconds(pid);
  for (pid_t child : ChildrenOf(pid)) total += CpuSecondsTree(child);
  return total;
}

double PeakRssMiBTree(pid_t pid) {
  double total = VmHwmMiB(pid);
  for (pid_t child : ChildrenOf(pid)) total += PeakRssMiBTree(child);
  return total;
}

}  // namespace vs2bench
