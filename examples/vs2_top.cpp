/// \file vs2_top.cpp
/// Terminal dashboard for a running `vs2_serve` daemon or `vs2_fleet`
/// router — the operator console of the telemetry plane (DESIGN.md §14,
/// §15). Polls the admin wire commands (`stats`, `health`, `slow`) over
/// one persistent connection and repaints a top(1)-style frame: for a
/// single daemon, throughput, cache hit rate, queue depth, rolling
/// 10s/1m/5m latency percentiles for `serve.extract` and the slowest
/// recent requests; for a fleet router (detected by the `"fleet"` stats
/// envelope), the router counters, fleet totals and a per-shard table
/// with state, queue, hit rate and latency percentiles.
///
/// Usage:
///   vs2_top (--unix PATH | --port N [--host H]) [--interval MS] [--once]
///
/// `--once` prints a single frame without clearing the screen and exits —
/// scripts and CI use it as a non-interactive smoke probe. Exits 1 when
/// the daemon cannot be reached or stops answering.
///
/// The dashboard scrapes the wire JSON with a minimal field extractor
/// rather than a full parser: every value it renders is produced by our
/// own `SnapshotJson()`/`HandleAdmin` serializers, whose shapes are pinned
/// by tests/serve_test.cpp.

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

using std::string;

namespace {

volatile std::sig_atomic_t g_quit = 0;
void HandleSignal(int) { g_quit = 1; }

int Connect(const string& unix_path, const string& host, int port) {
  if (!unix_path.empty()) {
    int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (fd < 0) return -1;
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    std::strncpy(addr.sun_path, unix_path.c_str(), sizeof(addr.sun_path) - 1);
    if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
      ::close(fd);
      return -1;
    }
    return fd;
  }
  int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return -1;
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<uint16_t>(port));
  if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1 ||
      ::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd);
    return -1;
  }
  return fd;
}

bool WriteAll(int fd, const string& data) {
  size_t sent = 0;
  while (sent < data.size()) {
    ssize_t n = ::write(fd, data.data() + sent, data.size() - sent);
    if (n <= 0) {
      if (n < 0 && errno == EINTR) continue;
      return false;
    }
    sent += static_cast<size_t>(n);
  }
  return true;
}

bool ReadLine(int fd, string* buffer, string* line) {
  while (true) {
    size_t nl = buffer->find('\n');
    if (nl != string::npos) {
      *line = buffer->substr(0, nl);
      buffer->erase(0, nl + 1);
      return true;
    }
    char chunk[4096];
    ssize_t n = ::read(fd, chunk, sizeof(chunk));
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) return false;
    buffer->append(chunk, static_cast<size_t>(n));
  }
}

/// Issues one admin command, reads one response line.
bool Query(int fd, string* buffer, const string& cmd, string* response) {
  return WriteAll(fd, "{\"cmd\":\"" + cmd + "\"}\n") &&
         ReadLine(fd, buffer, response);
}

// ------------------------------------------------------ JSON scraping ----
// Shape-pinned extraction (see the file comment): enough to pull numbers
// and balanced sub-objects out of our own serializers' output.

/// Value text following `"key":` at or after `from`; empty when absent.
string RawValue(const string& json, const string& key, size_t from = 0) {
  string needle = "\"" + key + "\":";
  size_t at = json.find(needle, from);
  if (at == string::npos) return "";
  return json.substr(at + needle.size());
}

double Number(const string& json, const string& key, size_t from = 0) {
  string raw = RawValue(json, key, from);
  return raw.empty() ? 0.0 : std::atof(raw.c_str());
}

/// The balanced `{...}` object value of `key`; empty when absent.
string Object(const string& json, const string& key, size_t from = 0) {
  string needle = "\"" + key + "\":{";
  size_t at = json.find(needle, from);
  if (at == string::npos) return "";
  size_t start = at + needle.size() - 1;
  int depth = 0;
  for (size_t i = start; i < json.size(); ++i) {
    if (json[i] == '{') ++depth;
    if (json[i] == '}' && --depth == 0) {
      return json.substr(start, i - start + 1);
    }
  }
  return "";
}

/// One rolling window of one windowed histogram as rendered by
/// SnapshotJson().
struct Window {
  double rate = 0, p50 = 0, p95 = 0, p99 = 0;
};

Window ParseWindow(const string& hist_json, const char* label) {
  Window window;
  string object = Object(hist_json, label);
  if (object.empty()) return window;
  window.rate = Number(object, "rate_per_sec");
  window.p50 = Number(object, "p50");
  window.p95 = Number(object, "p95");
  window.p99 = Number(object, "p99");
  return window;
}

double WindowCount(const string& counter_json, const char* label) {
  string object = Object(counter_json, label);
  return object.empty() ? 0.0 : Number(object, "count");
}

void PrintFrame(const string& stats, const string& health, const string& slow,
                const string& endpoint) {
  const char* kLabels[3] = {"10s", "1m", "5m"};

  std::printf("vs2_top — %s    uptime %.1fs    connections %.0f    [%s]\n",
              endpoint.c_str(), Number(health, "uptime_sec"),
              Number(health, "connections"),
              RawValue(health, "status").rfind("\"ok\"", 0) == 0 ? "accepting"
                                                                 : "DRAINING");
  std::printf("queue %2.0f/%-3.0f  in-flight %2.0f  jobs %2.0f  "
              "completed %.0f  rejected %.0f\n\n",
              Number(health, "queue_depth"), Number(health, "queue_capacity"),
              Number(health, "in_flight"), Number(health, "jobs"),
              Number(health, "completed"), Number(health, "rejected"));

  string windowed = Object(stats, "windowed_histograms");
  string extract = Object(windowed, "serve.extract");
  string counters = Object(stats, "windowed_counters");
  string hits = Object(counters, "serve.cache_hits");
  string misses = Object(counters, "serve.cache_misses");

  std::printf("  serve.extract %12s %10s %10s\n", kLabels[0], kLabels[1],
              kLabels[2]);
  Window windows[3];
  for (int w = 0; w < 3; ++w) windows[w] = ParseWindow(extract, kLabels[w]);
  std::printf("  req/s      %12.2f %10.2f %10.2f\n", windows[0].rate,
              windows[1].rate, windows[2].rate);
  std::printf("  p50 ms     %12.2f %10.2f %10.2f\n", windows[0].p50,
              windows[1].p50, windows[2].p50);
  std::printf("  p95 ms     %12.2f %10.2f %10.2f\n", windows[0].p95,
              windows[1].p95, windows[2].p95);
  std::printf("  p99 ms     %12.2f %10.2f %10.2f\n", windows[0].p99,
              windows[1].p99, windows[2].p99);
  std::printf("  hit rate   ");
  for (int w = 0; w < 3; ++w) {
    double hit = WindowCount(hits, kLabels[w]);
    double miss = WindowCount(misses, kLabels[w]);
    double total = hit + miss;
    if (total > 0) {
      std::printf(w == 0 ? "%12.2f " : "%9.2f ", hit / total);
    } else {
      std::printf(w == 0 ? "%12s " : "%9s ", "-");
    }
  }
  std::printf("\n\nslowest requests:\n");

  // `slow` is already sorted slowest-first; show the top entries with a
  // compact stage breakdown.
  size_t at = 0;
  int shown = 0;
  while (shown < 5) {
    size_t entry_at = slow.find("{\"trace_id\":", at);
    if (entry_at == string::npos) break;
    string trace = RawValue(slow, "trace_id", entry_at);
    trace = trace.size() > 1 ? trace.substr(1, 12) : "?";
    string status = RawValue(slow, "status", entry_at);
    size_t status_end = status.find('"', 1);
    status = status_end == string::npos ? "?"
                                        : status.substr(1, status_end - 1);
    std::printf("  %s…  %8.2f ms  %-18s ", trace.c_str(),
                Number(slow, "total_ms", entry_at), status.c_str());
    string stages = Object(slow, "stages", entry_at);
    if (stages.empty()) {
      // stages is an array; Object() only finds {...} — scan it manually.
      string raw = RawValue(slow, "stages", entry_at);
      size_t end = raw.find(']');
      stages = end == string::npos ? "" : raw.substr(0, end + 1);
    }
    size_t stage_at = 0;
    bool first = true;
    while (true) {
      size_t name_at = stages.find("{\"name\":\"", stage_at);
      if (name_at == string::npos) break;
      size_t name_start = name_at + 9;
      size_t name_end = stages.find('"', name_start);
      if (name_end == string::npos) break;
      std::printf("%s%s %.1f", first ? "" : ", ",
                  stages.substr(name_start, name_end - name_start).c_str(),
                  Number(stages, "ms", name_end));
      first = false;
      stage_at = name_end;
    }
    std::printf("\n");
    ++shown;
    at = entry_at + 1;
  }
  if (shown == 0) std::printf("  (none recorded)\n");
}

/// Renders the fleet router's merged stats (`{"fleet":...,"shards":[...]}`
/// from `fleet::Router::MergedStatsJson`) as a per-shard table. Percentiles
/// stay per-shard — they cannot be merged across histograms — while the
/// counter totals fold.
void PrintFleetFrame(const string& stats, const string& health,
                     const string& slow, const string& endpoint) {
  string fleet = Object(stats, "fleet");
  std::printf(
      "vs2_top — fleet %s    uptime %.1fs    shards %.0f/%.0f live    "
      "connections %.0f    [%s]\n",
      endpoint.c_str(), Number(fleet, "uptime_sec"), Number(fleet, "live"),
      Number(fleet, "shards"), Number(fleet, "connections"),
      RawValue(health, "status").rfind("\"ok\"", 0) == 0 ? "accepting"
                                                         : "DOWN");
  string router = Object(fleet, "router");
  std::printf(
      "router: forwarded %.0f  rerouted %.0f  shed %.0f  unavailable %.0f  "
      "markdowns %.0f  restarts %.0f\n",
      Number(router, "forwarded"), Number(router, "rerouted"),
      Number(router, "shed_to_sibling"), Number(router, "unavailable"),
      Number(router, "markdowns"), Number(router, "restarts"));
  string triage = Object(router, "triage");
  if (!triage.empty()) {
    double skip = Number(triage, "skip");
    double full = Number(triage, "full");
    double total = skip + full;
    std::printf("triage: skip %.0f  full %.0f  (%.0f%% skipped)\n", skip,
                full, total > 0 ? 100.0 * skip / total : 0.0);
  }
  string totals = Object(fleet, "totals");
  std::printf(
      "fleet:  %.1f req/s (10s)  hit rate %.2f  queue %.0f  in-flight %.0f  "
      "completed %.0f  rejected %.0f\n\n",
      Number(totals, "req_per_sec_10s"), Number(totals, "hit_rate"),
      Number(totals, "queue_depth"), Number(totals, "in_flight"),
      Number(totals, "completed"), Number(totals, "rejected"));

  std::printf(
      "  shard  state        queue  infl  req/s   hit    p50ms    p95ms    "
      "p99ms  endpoint\n");
  size_t at = stats.find("\"shards\":[");
  int shown = 0;
  while (at != string::npos) {
    size_t entry_at = stats.find("{\"shard\":", at);
    if (entry_at == string::npos) break;
    string state = RawValue(stats, "state", entry_at);
    size_t state_end = state.find('"', 1);
    state = state_end == string::npos ? "?" : state.substr(1, state_end - 1);
    string shard_endpoint = RawValue(stats, "endpoint", entry_at);
    size_t ep_end = shard_endpoint.find('"', 1);
    shard_endpoint = ep_end == string::npos
                         ? "?"
                         : shard_endpoint.substr(1, ep_end - 1);
    std::printf(
        "  %5.0f  %-11s %6.0f %5.0f %6.1f  %4.2f %8.2f %8.2f %8.2f  %s\n",
        Number(stats, "shard", entry_at), state.c_str(),
        Number(stats, "queue_depth", entry_at),
        Number(stats, "in_flight", entry_at),
        Number(stats, "req_per_sec_10s", entry_at),
        Number(stats, "hit_rate", entry_at),
        Number(stats, "p50_ms", entry_at), Number(stats, "p95_ms", entry_at),
        Number(stats, "p99_ms", entry_at), shard_endpoint.c_str());
    ++shown;
    at = entry_at + 1;
  }
  if (shown == 0) std::printf("  (no shards reported)\n");

  std::printf("\nslowest requests (all shards):\n");
  size_t slow_at = 0;
  int slow_shown = 0;
  while (slow_shown < 5) {
    size_t entry_at = slow.find("{\"trace_id\":", slow_at);
    if (entry_at == string::npos) break;
    string trace = RawValue(slow, "trace_id", entry_at);
    trace = trace.size() > 1 ? trace.substr(1, 12) : "?";
    std::printf("  %s…  %8.2f ms\n", trace.c_str(),
                Number(slow, "total_ms", entry_at));
    ++slow_shown;
    slow_at = entry_at + 1;
  }
  if (slow_shown == 0) std::printf("  (none recorded)\n");
}

}  // namespace

int main(int argc, char** argv) {
  string unix_path;
  string host = "127.0.0.1";
  int port = -1;
  int interval_ms = 1000;
  bool once = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--unix") == 0 && i + 1 < argc) {
      unix_path = argv[++i];
    } else if (std::strcmp(argv[i], "--host") == 0 && i + 1 < argc) {
      host = argv[++i];
    } else if (std::strcmp(argv[i], "--port") == 0 && i + 1 < argc) {
      port = std::atoi(argv[++i]);
    } else if (std::strcmp(argv[i], "--interval") == 0 && i + 1 < argc) {
      interval_ms = std::atoi(argv[++i]);
      if (interval_ms < 100) interval_ms = 100;
    } else if (std::strcmp(argv[i], "--once") == 0) {
      once = true;
    } else if (std::strcmp(argv[i], "--help") == 0) {
      std::fprintf(stderr,
                   "usage: vs2_top (--unix PATH | --port N [--host H]) "
                   "[--interval MS] [--once]\n");
      return 0;
    } else {
      std::fprintf(stderr, "unknown argument: %s (see --help)\n", argv[i]);
      return 2;
    }
  }
  if (unix_path.empty() && port < 0) {
    std::fprintf(stderr, "need --unix PATH or --port N (see --help)\n");
    return 2;
  }
  string endpoint =
      unix_path.empty() ? host + ":" + std::to_string(port) : unix_path;

  int fd = Connect(unix_path, host, port);
  if (fd < 0) {
    std::fprintf(stderr, "vs2_top: cannot connect to %s\n", endpoint.c_str());
    return 1;
  }
  std::signal(SIGINT, HandleSignal);
  std::signal(SIGTERM, HandleSignal);

  string buffer, stats, health, slow;
  while (g_quit == 0) {
    if (!Query(fd, &buffer, "stats", &stats) ||
        !Query(fd, &buffer, "health", &health) ||
        !Query(fd, &buffer, "slow", &slow)) {
      std::fprintf(stderr, "vs2_top: %s stopped answering\n",
                   endpoint.c_str());
      ::close(fd);
      return 1;
    }
    if (!once) std::printf("\x1b[H\x1b[2J");  // home + clear
    // A fleet router's merged stats announce themselves with a "fleet"
    // envelope; a single daemon gets the classic frame.
    if (stats.rfind("{\"fleet\":", 0) == 0) {
      PrintFleetFrame(stats, health, slow, endpoint);
    } else {
      PrintFrame(stats, health, slow, endpoint);
    }
    std::fflush(stdout);
    if (once) break;
    ::usleep(interval_ms * 1000);
  }
  ::close(fd);
  return 0;
}
