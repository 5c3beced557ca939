/// \file vs2_fleet.cpp
/// The sharded serving fleet in one command: spawns N `vs2_serve` worker
/// daemons (one per shard, each on its own Unix-domain socket) and runs a
/// `fleet::Router` in front of them — consistent-hash routing on the
/// document content address, health probing with mark-down/mark-up,
/// hot-shard load shedding and draining restarts. See DESIGN.md §15.
///
/// Usage:
///   vs2_fleet [--workers N] [--dataset 1|2|3] [--unix PATH | --port N]
///             [--worker-bin PATH] [--sock-dir DIR] [--jobs N]
///             [--queue-depth N] [--cache-entries N] [--virtual-nodes N]
///             [--health-interval SECONDS] [--shed-fraction F]
///             [--triage=auto|skip|full]
///
/// `--triage` is passed through to every spawned worker (responses carry
/// the routed `"lane"`); the router always counts the fleet's traffic mix
/// in `{"cmd":"stats"}` regardless.
///
/// Defaults: 4 workers over dataset 2, router on an ephemeral 127.0.0.1
/// TCP port (printed on stderr), workers launched from the `vs2_serve`
/// binary next to this one, sockets under /tmp. SIGINT/SIGTERM shut the
/// fleet down gracefully: close the listener, then SIGTERM-drain every
/// worker.
///
/// Talk to it with the ordinary single-daemon tools — the wire protocol is
/// identical:
///   vs2_fleet --workers 4 --port 4215 &
///   vs2_serve_client --port 4215 --demo
///   vs2_top --port 4215            # renders the per-shard fleet table

#include <csignal>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include <unistd.h>

#include "fleet/router.hpp"
#include "util/strings.hpp"

using namespace vs2;

namespace {

volatile std::sig_atomic_t g_shutdown = 0;

void HandleSignal(int) { g_shutdown = 1; }

void Usage() {
  std::fprintf(
      stderr,
      "usage: vs2_fleet [--workers N] [--dataset 1|2|3]\n"
      "                 [--unix PATH | --port N] [--worker-bin PATH]\n"
      "                 [--sock-dir DIR] [--jobs N] [--queue-depth N]\n"
      "                 [--cache-entries N] [--virtual-nodes N]\n"
      "                 [--health-interval SECONDS] [--shed-fraction F]\n"
      "                 [--triage=auto|skip|full]\n");
}

/// `vs2_serve` sitting next to this binary; falls back to PATH lookup.
std::string DefaultWorkerBin(const char* argv0) {
  std::string self(argv0);
  size_t slash = self.rfind('/');
  if (slash == std::string::npos) return "vs2_serve";
  return self.substr(0, slash + 1) + "vs2_serve";
}

}  // namespace

int main(int argc, char** argv) {
  int workers = 4;
  int dataset = 2;
  int jobs = 0;
  int queue_depth = 0;
  int cache_entries = -1;
  std::string triage_flag;
  std::string worker_bin = DefaultWorkerBin(argv[0]);
  std::string sock_dir = "/tmp";
  fleet::RouterOptions options;
  options.tcp_port = 0;  // ephemeral unless told otherwise

  for (int i = 1; i < argc; ++i) {
    auto next_int = [&](int fallback) {
      return i + 1 < argc ? std::atoi(argv[++i]) : fallback;
    };
    if (std::strcmp(argv[i], "--workers") == 0) {
      workers = next_int(workers);
    } else if (std::strcmp(argv[i], "--dataset") == 0) {
      dataset = next_int(dataset);
    } else if (std::strcmp(argv[i], "--unix") == 0 && i + 1 < argc) {
      options.unix_socket_path = argv[++i];
    } else if (std::strcmp(argv[i], "--port") == 0) {
      options.tcp_port = next_int(0);
    } else if (std::strcmp(argv[i], "--worker-bin") == 0 && i + 1 < argc) {
      worker_bin = argv[++i];
    } else if (std::strcmp(argv[i], "--sock-dir") == 0 && i + 1 < argc) {
      sock_dir = argv[++i];
    } else if (std::strcmp(argv[i], "--jobs") == 0) {
      jobs = next_int(0);
    } else if (std::strcmp(argv[i], "--queue-depth") == 0) {
      queue_depth = next_int(0);
    } else if (std::strcmp(argv[i], "--cache-entries") == 0) {
      cache_entries = next_int(-1);
    } else if (std::strcmp(argv[i], "--virtual-nodes") == 0) {
      int v = next_int(64);
      options.virtual_nodes = v > 0 ? static_cast<size_t>(v) : 64;
    } else if (std::strcmp(argv[i], "--health-interval") == 0 &&
               i + 1 < argc) {
      options.health_interval_sec = std::atof(argv[++i]);
    } else if (std::strcmp(argv[i], "--shed-fraction") == 0 && i + 1 < argc) {
      options.shed_queue_fraction = std::atof(argv[++i]);
    } else if (std::strncmp(argv[i], "--triage=", 9) == 0) {
      triage::TriageMode mode;
      if (!triage::ParseTriageMode(argv[i] + 9, &mode)) {
        std::fprintf(stderr,
                     "bad --triage value \"%s\": expected auto, skip, full "
                     "or off\n",
                     argv[i] + 9);
        return 2;
      }
      triage_flag = argv[i];  // forwarded verbatim to each worker
    } else if (std::strcmp(argv[i], "--help") == 0) {
      Usage();
      return 0;
    } else {
      std::fprintf(stderr, "unknown argument: %s\n", argv[i]);
      Usage();
      return 2;
    }
  }
  if (workers < 1 || workers > 64) {
    std::fprintf(stderr, "--workers must be 1..64\n");
    return 2;
  }
  if (dataset < 1 || dataset > 3) {
    std::fprintf(stderr, "dataset must be 1, 2 or 3\n");
    return 2;
  }

  std::vector<fleet::WorkerSpec> specs;
  for (int w = 0; w < workers; ++w) {
    fleet::WorkerSpec spec;
    spec.endpoint.unix_socket_path = util::Format(
        "%s/vs2_fleet.%d.%d.sock", sock_dir.c_str(), ::getpid(), w);
    spec.spawn_argv = {worker_bin, "--dataset", std::to_string(dataset),
                       "--unix", spec.endpoint.unix_socket_path};
    if (jobs > 0) {
      spec.spawn_argv.insert(spec.spawn_argv.end(),
                             {"--jobs", std::to_string(jobs)});
    }
    if (queue_depth > 0) {
      spec.spawn_argv.insert(spec.spawn_argv.end(),
                             {"--queue-depth", std::to_string(queue_depth)});
    }
    if (cache_entries >= 0) {
      spec.spawn_argv.insert(
          spec.spawn_argv.end(),
          {"--cache-entries", std::to_string(cache_entries)});
    }
    if (!triage_flag.empty()) spec.spawn_argv.push_back(triage_flag);
    specs.push_back(std::move(spec));
  }

  std::fprintf(stderr, "vs2_fleet: starting %d workers from %s...\n",
               workers, worker_bin.c_str());
  fleet::Router router(std::move(specs), options);
  Status started = router.Start();
  if (!started.ok()) {
    std::fprintf(stderr, "vs2_fleet: %s\n", started.ToString().c_str());
    return 1;
  }
  if (!options.unix_socket_path.empty()) {
    std::fprintf(stderr, "vs2_fleet: routing on %s over %d workers\n",
                 options.unix_socket_path.c_str(), workers);
  } else {
    std::fprintf(stderr, "vs2_fleet: routing on 127.0.0.1:%d over %d "
                 "workers\n", router.port(), workers);
  }

  std::signal(SIGINT, HandleSignal);
  std::signal(SIGTERM, HandleSignal);
  while (g_shutdown == 0) {
    ::usleep(100 * 1000);
  }

  std::fprintf(stderr, "vs2_fleet: shutting down...\n");
  router.Stop();  // listener first, then SIGTERM-drains every worker
  fleet::Router::Stats stats = router.stats();
  std::fprintf(stderr,
               "vs2_fleet: forwarded %llu (%llu rerouted, %llu shed, %llu "
               "unavailable) over %llu connections; %llu restarts\n",
               static_cast<unsigned long long>(stats.forwarded),
               static_cast<unsigned long long>(stats.rerouted),
               static_cast<unsigned long long>(stats.shed_to_sibling),
               static_cast<unsigned long long>(stats.unavailable),
               static_cast<unsigned long long>(router.connections_served()),
               static_cast<unsigned long long>(stats.restarts));
  return 0;
}
