/// \file vs2_serve.cpp
/// The VS2 extraction daemon — a long-lived process serving the pipeline
/// over a Unix-domain or loopback-TCP socket in newline-delimited JSON:
/// one document (the `doc/serialization.hpp` schema) per request line, one
/// extractions/error object per response line. Admission control, result
/// caching and per-request deadlines live in `serve::ExtractionService`;
/// see DESIGN.md §10 for the semantics.
///
/// Usage:
///   vs2_serve [--dataset 1|2|3] [--unix PATH | --port N] [--jobs N]
///             [--queue-depth N] [--cache-entries N] [--cache-ttl SECONDS]
///             [--deadline-ms MS] [--no-ocr-noise]
///             [--triage=auto|skip|full]
///             [--trace=FILE] [--metrics=FILE] [--profile=FILE]
///
/// With `--triage`, every response object leads with the routed
/// `"lane"` and per-lane `serve.lane.*` / `triage.*` instruments appear in
/// `{"cmd":"stats"}` (DESIGN.md §16).
///
/// Defaults: dataset 2, TCP on an ephemeral 127.0.0.1 port (printed on
/// stderr). SIGINT/SIGTERM shut down gracefully: stop accepting
/// connections, drain in-flight requests, flush trace/metrics exports.
///
/// Try it (the client example speaks the same protocol):
///   vs2_serve --unix /tmp/vs2.sock &
///   vs2_serve_client --unix /tmp/vs2.sock --demo

#include <csignal>
#include <cstdio>
#include <cstring>
#include <string>

#include <unistd.h>

#include "core/pipeline.hpp"
#include "datasets/pretrained.hpp"
#include "obs/profiler.hpp"
#include "obs/trace.hpp"
#include "serve/daemon.hpp"
#include "serve/service.hpp"

using namespace vs2;

namespace {

volatile std::sig_atomic_t g_shutdown = 0;

void HandleSignal(int) { g_shutdown = 1; }

void Usage() {
  std::fprintf(
      stderr,
      "usage: vs2_serve [--dataset 1|2|3] [--unix PATH | --port N]\n"
      "                 [--jobs N] [--queue-depth N] [--cache-entries N]\n"
      "                 [--cache-ttl SECONDS] [--deadline-ms MS]\n"
      "                 [--no-ocr-noise] [--triage=auto|skip|full]\n"
      "                 [--trace=FILE] [--metrics=FILE] [--profile=FILE]\n");
}

}  // namespace

int main(int argc, char** argv) {
  int dataset = 2;
  bool ocr_noise = true;
  triage::TriageMode triage_mode = triage::TriageMode::kOff;
  std::string profile_path;
  serve::ServiceOptions service_options;
  serve::DaemonOptions daemon_options;
  daemon_options.tcp_port = 0;  // ephemeral unless told otherwise

  for (int i = 1; i < argc; ++i) {
    auto next_int = [&](int fallback) {
      return i + 1 < argc ? std::atoi(argv[++i]) : fallback;
    };
    if (std::strcmp(argv[i], "--dataset") == 0) {
      dataset = next_int(dataset);
    } else if (std::strcmp(argv[i], "--unix") == 0 && i + 1 < argc) {
      daemon_options.unix_socket_path = argv[++i];
    } else if (std::strcmp(argv[i], "--port") == 0) {
      daemon_options.tcp_port = next_int(0);
    } else if (std::strcmp(argv[i], "--jobs") == 0) {
      int v = next_int(0);
      service_options.jobs = v > 0 ? static_cast<size_t>(v) : 0;
    } else if (std::strcmp(argv[i], "--queue-depth") == 0) {
      int v = next_int(64);
      service_options.queue_capacity = v > 0 ? static_cast<size_t>(v) : 64;
    } else if (std::strcmp(argv[i], "--cache-entries") == 0) {
      int v = next_int(256);
      service_options.cache_entries = v >= 0 ? static_cast<size_t>(v) : 256;
    } else if (std::strcmp(argv[i], "--cache-ttl") == 0 && i + 1 < argc) {
      service_options.cache_ttl_seconds = std::atof(argv[++i]);
    } else if (std::strcmp(argv[i], "--deadline-ms") == 0 && i + 1 < argc) {
      service_options.default_deadline_ms = std::atof(argv[++i]);
    } else if (std::strncmp(argv[i], "--trace=", 8) == 0) {
      service_options.trace_path = argv[i] + 8;
    } else if (std::strncmp(argv[i], "--metrics=", 10) == 0) {
      service_options.metrics_path = argv[i] + 10;
    } else if (std::strncmp(argv[i], "--profile=", 10) == 0) {
      profile_path = argv[i] + 10;
    } else if (std::strncmp(argv[i], "--triage=", 9) == 0) {
      if (!triage::ParseTriageMode(argv[i] + 9, &triage_mode)) {
        std::fprintf(stderr,
                     "bad --triage value \"%s\": expected auto, skip, full "
                     "or off\n",
                     argv[i] + 9);
        return 2;
      }
    } else if (std::strcmp(argv[i], "--no-ocr-noise") == 0) {
      ocr_noise = false;
    } else if (std::strcmp(argv[i], "--help") == 0) {
      Usage();
      return 0;
    } else {
      std::fprintf(stderr, "unknown argument: %s\n", argv[i]);
      Usage();
      return 2;
    }
  }
  if (dataset < 1 || dataset > 3) {
    std::fprintf(stderr, "dataset must be 1, 2 or 3\n");
    return 2;
  }
  if (!service_options.trace_path.empty()) obs::Trace::Enable();
  if (!profile_path.empty()) {
    Status started = obs::Profiler::Start();
    if (!started.ok()) {
      std::fprintf(stderr, "vs2_serve: profiler: %s\n",
                   started.ToString().c_str());
      return 1;
    }
  }

  doc::DatasetId id = static_cast<doc::DatasetId>(dataset);
  std::fprintf(stderr, "vs2_serve: learning patterns for dataset %d...\n",
               dataset);
  core::PipelineConfig config = core::DefaultConfigFor(id);
  config.simulate_ocr = ocr_noise;
  config.triage.mode = triage_mode;
  core::Vs2 vs2(id, datasets::PretrainedEmbedding(), config);

  serve::ExtractionService service(vs2, service_options);
  serve::Daemon daemon(service, daemon_options);
  Status started = daemon.Start();
  if (!started.ok()) {
    std::fprintf(stderr, "vs2_serve: %s\n", started.ToString().c_str());
    return 1;
  }
  if (!daemon_options.unix_socket_path.empty()) {
    std::fprintf(stderr, "vs2_serve: listening on %s (jobs=%zu queue=%zu "
                 "cache=%zu)\n",
                 daemon_options.unix_socket_path.c_str(), service.jobs(),
                 service_options.queue_capacity,
                 service_options.cache_entries);
  } else {
    std::fprintf(stderr, "vs2_serve: listening on 127.0.0.1:%d (jobs=%zu "
                 "queue=%zu cache=%zu)\n",
                 daemon.port(), service.jobs(),
                 service_options.queue_capacity,
                 service_options.cache_entries);
  }

  std::signal(SIGINT, HandleSignal);
  std::signal(SIGTERM, HandleSignal);
  while (g_shutdown == 0) {
    ::usleep(100 * 1000);
  }

  std::fprintf(stderr, "vs2_serve: shutting down...\n");
  daemon.Stop();      // no new connections or request lines
  service.Drain();    // finish admitted work, flush trace/metrics
  if (!profile_path.empty()) {
    obs::Profiler::Stop();
    Status exported = obs::Profiler::ExportCollapsed(profile_path);
    if (!exported.ok()) {
      std::fprintf(stderr, "vs2_serve: profile export: %s\n",
                   exported.ToString().c_str());
    } else {
      std::fprintf(stderr, "vs2_serve: wrote %zu profile samples to %s\n",
                   obs::Profiler::sample_count(), profile_path.c_str());
    }
  }
  serve::ExtractionService::Stats stats = service.stats();
  std::fprintf(stderr,
               "vs2_serve: served %llu requests (%llu rejected, %llu "
               "deadline-exceeded, cache %llu/%llu hits) over %llu "
               "connections\n",
               static_cast<unsigned long long>(stats.completed),
               static_cast<unsigned long long>(stats.rejected),
               static_cast<unsigned long long>(stats.deadline_exceeded),
               static_cast<unsigned long long>(stats.cache_hits),
               static_cast<unsigned long long>(stats.cache_hits +
                                               stats.cache_misses),
               static_cast<unsigned long long>(
                   daemon.connections_served()));
  return 0;
}
