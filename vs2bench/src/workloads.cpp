#include "workloads.hpp"

#include <atomic>
#include <cmath>
#include <cstdio>
#include <memory>
#include <thread>

#include <unistd.h>

#include "clock.hpp"
#include "core/batch_engine.hpp"
#include "corpus.hpp"
#include "datasets/pretrained.hpp"
#include "doc/serialization.hpp"
#include "loadgen.hpp"
#include "procs.hpp"
#include "replay.hpp"
#include "spans.hpp"

namespace vs2bench {
namespace {

using vs2::doc::DatasetId;

// ---------------------------------------------------------------------------
// Workload constants. The serving rates are fixed, near 30% (`low`) and 60%
// (`high`) of the knee (`max_rate_rps`) measured when the benchmark was
// defined; README.md records that measurement and why `high` is not 70%.

struct ServingWorkload {
  const char* name;
  DatasetId dataset;
  bool fleet;
  double low_rps;
  double high_rps;
  double limit_ms;  ///< p99 limit of `max_rate_rps`
  size_t distinct;  ///< documents in the workload's pool
  bool warm;        ///< uniform draws from a warm set, else a cold cycle
};

// Cold: the pool is 8x the daemon's default cache (256 entries) and is sent
// in a cycle, so a document recurs only after 2047 others and every request
// misses the LRU cache.
constexpr ServingWorkload kPosters = {"posters_daemon_cold",
                                      DatasetId::kD2EventPosters,
                                      false, 330.0, 660.0, 20.0, 2048, false};
// Warm: 128 documents fit every shard's 256-entry cache even when the ring
// puts them all on one shard.
constexpr ServingWorkload kFlyers = {"flyers_fleet_warm",
                                     DatasetId::kD3RealEstateFlyers,
                                     true, 400.0, 780.0, 20.0, 128, true};

constexpr size_t kFormsDocs = 256;  ///< distinct D1 forms
constexpr size_t kFormsJobs = 2;    ///< BatchEngine jobs
constexpr int kFormsMinRounds = 3;
/// Set-ups measured after every round. Spread over the run, they see the
/// machine's fast and slow spells in the same mix the run's other metrics do.
constexpr int kSetupsPerRound = 2;
constexpr int kSearchSteps = 5;
constexpr int kProbeAttempts = 3;
constexpr int kRounds = 7;
/// Samples per max-rate probe: ten beyond the p99 it is judged by.
constexpr double kMinSamples = 1000.0;
constexpr size_t kTraceRequests = 1000;  ///< replayed requests per traced run
constexpr int kReplayPairs = 3;

/// Connections (and so server-side concurrency) of the load generator.
size_t Connections() { return std::min<size_t>(4, Nproc()); }

double Share(double part, double whole) { return whole > 0 ? part / whole : 0; }

// ---------------------------------------------------------------------------
// The system under test for the serving workloads.

struct System {
  Child child;
  std::string socket;
};

/// Starts the workload's daemon or fleet on a socket and log named after
/// `tag`, and waits until it is healthy.
bool StartSystem(const ServingWorkload& w, const RunOptions& o,
                 const std::string& tag, System* system, std::string* error) {
  const std::string base = o.run_dir + "/" + tag;
  system->socket = base + (w.fleet ? "_fleet.sock" : "_serve.sock");
  ::unlink(system->socket.c_str());
  std::vector<std::string> argv;
  if (w.fleet) {
    argv = {o.fleet_bin,  "--workers",    "2",
            "--jobs",     "1",            "--dataset",
            "3",          "--unix",       system->socket,
            "--sock-dir", o.run_dir,      "--worker-bin",
            o.serve_bin};
  } else {
    argv = {o.serve_bin, "--dataset", "2", "--jobs", "2", "--unix",
            system->socket};
  }
  if (!system->child.Start(argv, base + ".log")) {
    *error = "cannot start " + argv[0];
    return false;
  }
  if (!WaitHealthy(system->socket, 120.0)) {
    *error = "system did not become healthy; see " + base + ".log";
    system->child.Stop();
    return false;
  }
  return true;
}

/// Socket of fleet worker `w` (vs2_fleet's naming under --sock-dir).
std::string WorkerSocket(const RunOptions& o, const System& system, int w) {
  return o.run_dir + "/vs2_fleet." + std::to_string(system.child.pid()) + "." +
         std::to_string(w) + ".sock";
}

DocSequence SequenceFor(const ServingWorkload& w, uint64_t seed) {
  size_t pool = w.distinct;
  if (w.warm) {
    return [pool, seed](uint64_t i) {
      return static_cast<uint32_t>(Mix(Mix(seed) ^ i) % pool);
    };
  }
  uint64_t offset = Mix(seed) % pool;
  return [pool, offset](uint64_t i) {
    return static_cast<uint32_t>((offset + i) % pool);
  };
}

/// Outcome of one fixed-rate phase or max-rate probe.
struct RateCheck {
  double p50_ms = 0.0;
  double p99_ms = 0.0;
  double late_p99_ms = 0.0;
  size_t n = 0;
  bool pass = false;   ///< meets the limit without a growing backlog
  bool valid = true;   ///< the generator kept to its schedule
};

RateCheck Evaluate(const PhaseResult& phase, double limit_ms, size_t conns) {
  RateCheck check;
  std::vector<double> latencies = phase.LatenciesMs();
  std::vector<double> lateness = phase.LatenessMs();
  check.n = latencies.size();
  check.p50_ms = Percentile(latencies, 0.50);
  check.p99_ms = Percentile(latencies, 0.99);
  check.late_p99_ms = Percentile(lateness, 0.99);
  check.valid = check.late_p99_ms <= limit_ms;
  // A stall near the end of the window leaves a backlog of its own; only
  // growth beyond that (3% of the requests) counts as a growing backlog.
  bool growing = static_cast<double>(phase.backlog_end) >
                 static_cast<double>(phase.backlog_mid) +
                     std::max(2.0 * static_cast<double>(conns),
                              0.03 * static_cast<double>(phase.sent()));
  check.pass = !phase.aborted && phase.failed == 0 && !growing &&
               check.p99_ms <= limit_ms &&
               static_cast<double>(phase.completed()) >=
                   0.99 * static_cast<double>(phase.sent());
  return check;
}

void Pause() { ::usleep(50 * 1000); }

/// Runs `replay` (which returns its wall time) untraced and traced,
/// alternately, at least kReplayPairs times and until `until`, and adds
/// every traced pass to `summary`; the first traced pass's spans stay in
/// `traced`. Returns the tracing overhead: median traced over median
/// untraced time, minus 1. Alternating keeps a drift of the machine out of
/// the ratio; running until `until` spreads the passes over the run, as the
/// end-to-end run spreads its rounds, so a spell of the machine moves only
/// its share of them.
template <typename Replay>
double ReplayPairs(Replay&& replay, size_t requests, double until,
                   SpanRecorder& traced, TraceSummary* summary) {
  std::vector<double> plain_s, traced_s;
  for (int k = 0; k < kReplayPairs || Now() < until; ++k) {
    SpanRecorder off(false);
    plain_s.push_back(replay(off));
    SpanRecorder again(true);
    SpanRecorder& spans = k == 0 ? traced : again;
    traced_s.push_back(replay(spans));
    AddPass(spans.spans(), requests, summary);
  }
  return Median(traced_s) / Median(plain_s) - 1.0;
}

/// Per-layer values that come from outside the span tree; zero where the
/// workload does not exercise the layer.
struct LayerExtras {
  double hit_ratio = 0.0;
  double evictions = 0.0;
  double rejected = 0.0;
  double forwarded = 0.0;
  double rerouted = 0.0;
  double shed = 0.0;
  double shard_skew = 0.0;
  double busy_share = 0.0;
  double sent = 0.0;
  std::vector<double> daemon_wait_ms;
  std::vector<double> router_wait_ms;
  std::vector<double> late_ms;
  double trace_overhead = 0.0;
};

/// Span-derived values pool every traced pass: percentiles over all the
/// passes' calls (their count is the printed sample count), shares over all
/// the passes' time, and calls per pass.
void ReportPerLayer(TraceSummary& summary, LayerExtras& x, Report& report) {
  const double passes =
      static_cast<double>(std::max<size_t>(1, summary.passes));
  for (const char* layer : kLayers) {
    LayerTimes& times = summary.layers[layer];
    std::string p = layer;
    long long n = static_cast<long long>(times.calls);
    report.Metric(p + ".calls", static_cast<double>(times.calls) / passes,
                  "count");
    report.Metric(p + ".self_ms_p50", Percentile(times.self_ms, 0.50), "ms", n);
    report.Metric(p + ".self_ms_p99", Percentile(times.self_ms, 0.99), "ms", n);
    report.Metric(p + ".share",
                  Share(times.self_total_ms, summary.request_total_ms),
                  "ratio");
  }
  auto percentiles = [&](const std::string& name, std::vector<double>& v) {
    long long n = static_cast<long long>(v.size());
    report.Metric(name + "_p50", Percentile(v, 0.50), "ms", n);
    report.Metric(name + "_p99", Percentile(v, 0.99), "ms", n);
  };
  report.Metric("serve.cache.hit_ratio", x.hit_ratio, "ratio");
  report.Metric("serve.cache.evictions", x.evictions, "count");
  percentiles("serve.daemon.wait_ms", x.daemon_wait_ms);
  report.Metric("serve.service.rejected", x.rejected, "count");
  percentiles("fleet.router.wait_ms", x.router_wait_ms);
  report.Metric("fleet.router.forwarded", x.forwarded, "count");
  report.Metric("fleet.router.rerouted", x.rerouted, "count");
  report.Metric("fleet.router.shed", x.shed, "count");
  report.Metric("fleet.router.shard_skew", x.shard_skew, "ratio");
  report.Metric("core.batch_engine.busy_share", x.busy_share, "ratio");
  report.Metric("loadgen.sent", x.sent, "count");
  report.Metric("loadgen.late_ms_p99", Percentile(x.late_ms, 0.99), "ms",
                static_cast<long long>(x.late_ms.size()));
  report.Metric("unattributed.share",
                Share(summary.unattributed_ms, summary.request_total_ms),
                "ratio");
  report.Metric("trace.overhead", x.trace_overhead, "ratio");
}

/// The end-to-end results of one run.
struct EndToEnd {
  double cpu_ms_per_doc = 0.0;
  size_t cpu_docs = 0;  ///< documents the CPU time was spent on
  double docs_per_s = 0.0;
  size_t docs_per_s_samples = 0;
  double lat_p50_ms[2] = {0.0, 0.0};  ///< low, high
  double lat_p99_ms[2] = {0.0, 0.0};
  size_t lat_samples[2] = {0, 0};
  double max_rate_rps = 0.0;
  double extraction_f1 = 0.0;
  size_t f1_documents = 0;
  std::vector<double> setup_s;
  double peak_rss_mb = 0.0;
};

/// The result line carries the metrics that stay steady on a shared
/// machine; the wall-clock rates and latencies are printed (README.md,
/// "Noise").
void ReportEndToEnd(const EndToEnd& e, Report& report) {
  auto n = [](size_t v) { return static_cast<long long>(v); };
  report.Metric("cpu_ms_per_doc", e.cpu_ms_per_doc, "ms", n(e.cpu_docs));
  report.Metric("extraction_f1", e.extraction_f1, "ratio", n(e.f1_documents));
  report.Metric("setup_s", Median(e.setup_s), "s", n(e.setup_s.size()));
  std::string setups = "setup_s samples (s):";
  for (double v : e.setup_s) {
    char text[32];
    std::snprintf(text, sizeof(text), " %.4f", v);
    setups += text;
  }
  report.Note(setups);
  report.Metric("peak_rss_mb", e.peak_rss_mb, "MiB");
  report.Info("docs_per_s", e.docs_per_s, "1/s", n(e.docs_per_s_samples));
  const char* levels[] = {"low", "high"};
  for (int l = 0; l < 2; ++l) {
    report.Info(std::string("lat_p50_ms.") + levels[l], e.lat_p50_ms[l], "ms",
                n(e.lat_samples[l]));
    report.Info(std::string("lat_p99_ms.") + levels[l], e.lat_p99_ms[l], "ms",
                n(e.lat_samples[l]));
  }
  report.Info("max_rate_rps", e.max_rate_rps, "1/s", -1);
  report.Note("failed_frac " +
              std::to_string(Share(static_cast<double>(report.failed()),
                                   static_cast<double>(report.attempted()))));
}

// ---------------------------------------------------------------------------
// Serving workloads.

/// Sends every document of the warm set once (the pre-fill).
bool Prefill(LoadGen& gen, const ServingWorkload& w, Report& report) {
  PhasePlan plan;
  plan.doc_at = [](uint64_t i) { return static_cast<uint32_t>(i); };
  plan.depth = 1;
  plan.max_requests = w.distinct;
  plan.seconds = 120.0;
  PhaseResult r = gen.Run(plan);
  report.Count(r.sent(), r.failed + (w.distinct - r.sent()), "pre-fill");
  return r.failed == 0 && r.sent() == w.distinct;
}

bool RunServing(const ServingWorkload& w, const RunOptions& o,
                Report& report) {
  const vs2::embed::Embedding& embedding = vs2::datasets::PretrainedEmbedding();
  vs2::core::Vs2 vs2(w.dataset, embedding,
                     vs2::core::DefaultConfigFor(w.dataset));
  Corpus corpus = MakeCorpus(vs2, w.dataset, w.distinct, o.seed, /*wire=*/true,
                             Nproc());
  if (!corpus.error.empty()) {
    report.Incorrect(corpus.error);
    return true;
  }
  std::vector<vs2::doc::Document>().swap(corpus.docs);  // the lines suffice
  const size_t conns = Connections();
  const DocSequence sequence = SequenceFor(w, o.seed);
  report.Note(std::string("workload ") + w.name + ": " +
              std::to_string(w.distinct) + " distinct documents, " +
              std::to_string(conns) + " connections, 1 generator thread");

  // The system that is measured.
  System system;
  std::string error;
  if (!StartSystem(w, o, "system", &system, &error)) {
    std::fprintf(stderr, "vs2bench: %s\n", error.c_str());
    return false;
  }
  std::unique_ptr<LoadGen> gen =
      LoadGen::Connect(system.socket, conns, &corpus.wire, &error);
  if (gen == nullptr) {
    std::fprintf(stderr, "vs2bench: %s\n", error.c_str());
    return false;
  }
  if (w.warm && !Prefill(*gen, w, report)) return true;

  // `setup_s`: set-ups of a second copy of the system, each a whole life
  // of it without timed traffic (start, health check, connect, pre-fill,
  // stop), taken between the rounds while the measured system idles. A
  // sample is the CPU time the set-up took, this process's plus the copy's
  // (wait4 counts the fleet's workers, which it waits for). False when the
  // copy cannot be started; a failed pre-fill is counted by Prefill.
  std::vector<double> setup_s;
  auto sample_setup = [&]() {
    const double cpu_start = SelfCpuSeconds();
    System copy;
    if (!StartSystem(w, o, "setup", &copy, &error)) return false;
    std::unique_ptr<LoadGen> copy_gen =
        LoadGen::Connect(copy.socket, conns, &corpus.wire, &error);
    if (copy_gen == nullptr) return false;
    bool filled = !w.warm || Prefill(*copy_gen, w, report);
    copy_gen.reset();
    double copy_cpu = 0.0;
    copy.child.Stop(15.0, &copy_cpu);
    if (filled) setup_s.push_back(SelfCpuSeconds() - cpu_start + copy_cpu);
    return true;
  };

  if (o.trace) {
    // ---- traced run: replay in-process, then time the real round trips.
    size_t n = kTraceRequests;
    std::vector<uint32_t> docs(n);
    for (size_t i = 0; i < n; ++i) docs[i] = sequence(i);
    Replayer replayer(vs2, w.fleet);
    auto replay = [&](SpanRecorder& spans) {
      replayer.ResetCache();
      if (w.warm) {
        for (size_t d = 0; d < w.distinct; ++d) {
          replayer.Prefill(corpus.wire.lines[d]);
        }
      }
      size_t mismatches = 0;
      double t0 = Now();
      for (size_t i = 0; i < n; ++i) {
        const std::string& line = corpus.wire.lines[docs[i]];
        std::string out = replayer.Serve(line.substr(0, line.size() - 1), spans,
                                         static_cast<uint32_t>(i));
        if (out != corpus.wire.refs[docs[i]]) ++mismatches;
      }
      double wall = Now() - t0;
      report.Count(n, mismatches,
                   spans.enabled() ? "traced replay vs reference"
                                   : "untraced replay vs reference");
      return wall;
    };
    // The replay takes most of the run; the round trips at `high` follow.
    SpanRecorder traced(true);
    TraceSummary summary;
    const double overhead =
        ReplayPairs(replay, n, Now() + 0.8 * o.seconds, traced, &summary);

    PhasePlan plan;
    plan.doc_at = [&docs](uint64_t i) { return docs[i]; };
    plan.rate = w.high_rps;
    plan.seconds = static_cast<double>(n) / w.high_rps;
    plan.max_requests = n;
    PhaseResult wire = gen->Run(plan);
    report.Count(wire.sent(), wire.failed, "wire round trips at high");
    LayerExtras x;
    std::vector<double>& wait_ms =
        w.fleet ? x.router_wait_ms : x.daemon_wait_ms;
    for (size_t i = 0; i < wire.outcomes.size(); ++i) {
      const Outcome& out = wire.outcomes[i];
      if (out.done < 0) continue;
      traced.AddRoot(w.fleet ? "wire.fleet" : "wire.daemon", out.sent, out.done,
                     static_cast<uint32_t>(i));
      double replayed_ms =
          summary.request_ms[i] / static_cast<double>(summary.passes);
      wait_ms.push_back((out.done - out.sent) * 1e3 - replayed_ms);
    }
    x.late_ms = wire.LatenessMs();
    x.sent = static_cast<double>(wire.sent());
    x.trace_overhead = overhead;

    std::string health = AdminCall(system.socket, "health", 5.0);
    std::string stats = AdminCall(system.socket, "stats", 5.0);
    double hits = 0, misses = 0;
    if (w.fleet) {
      size_t totals = stats.find("\"totals\":");
      hits = JsonNumber(stats, "cache_hits", 0, totals);
      misses = JsonNumber(stats, "cache_misses", 0, totals);
      x.rejected = JsonNumber(stats, "rejected", 0, totals);
      x.forwarded = JsonNumber(stats, "forwarded");
      x.rerouted = JsonNumber(stats, "rerouted");
      x.shed = JsonNumber(stats, "shed_to_sibling");
      double max_completed = 0, sum_completed = 0;
      size_t shards_at = stats.find("\"shards\":[");
      for (int shard = 0; shard < 2; ++shard) {
        size_t at =
            stats.find("{\"shard\":" + std::to_string(shard), shards_at);
        double completed = JsonNumber(stats, "completed", 0, at);
        max_completed = std::max(max_completed, completed);
        sum_completed += completed;
        x.evictions += JsonNumber(
            AdminCall(WorkerSocket(o, system, shard), "stats", 5.0),
            "serve.cache_evictions");
      }
      x.shard_skew = Share(max_completed, sum_completed / 2.0);
    } else {
      hits = JsonNumber(health, "cache_hits");
      misses = JsonNumber(health, "cache_misses");
      x.rejected = JsonNumber(health, "rejected");
      x.evictions = JsonNumber(stats, "serve.cache_evictions");
    }
    x.hit_ratio = Share(hits, hits + misses);
    system.child.Stop();
    ReportPerLayer(summary, x, report);
    if (!traced.WriteChromeTrace(o.run_dir + "/trace_" + w.name + ".json")) {
      report.Note("could not write the span file");
    }
    return true;
  }

  // ---- end-to-end run.
  const double s = o.seconds;
  uint64_t cursor = 0;
  uint64_t attempted = 0, failed = 0;
  auto run_phase = [&](PhasePlan plan) {
    plan.doc_at = sequence;
    plan.first = cursor;
    PhaseResult r = gen->Run(plan);
    cursor += r.sent();
    attempted += r.sent();
    failed += r.failed;
    if (!r.first_error.empty() && r.failed > 0) report.Note(r.first_error);
    Pause();
    return r;
  };
  // Open-loop phase of `fraction` of the run, at least `min_samples` long.
  auto open_loop = [&](double rate, double fraction, double min_samples,
                       double abort_over_ms) {
    PhasePlan plan;
    plan.rate = rate;
    plan.seconds = std::max(min_samples / rate, fraction * s);
    plan.abort_over_ms = abort_over_ms;
    return run_phase(plan);
  };

  // kRounds rounds, each a closed-loop capacity chunk, then a `low` and a
  // `high` sub-phase. Rates and p50s are medians over the rounds, which
  // spread each level over the whole run, so a slow spell of the machine
  // moves at most a round or two; p99s pool every sub-phase's samples.
  struct Level {
    std::vector<double> p50_ms;
    std::vector<double> latencies_ms;
    int passes = 0;  ///< sub-phases that met the limit
  };
  Level low, high;
  std::vector<double> capacities;
  size_t capacity_samples = 0;
  // A sub-phase in which the generator fell behind its schedule by more
  // than the limit measured the generator, not the system: it is left out,
  // and the run is invalid when that leaves a level without a majority.
  auto fixed_rate = [&](Level& level, double rate, double fraction,
                        const char* name) {
    PhaseResult phase = open_loop(rate, fraction, 0.0, 0.0);
    RateCheck check = Evaluate(phase, w.limit_ms, conns);
    report.Note(std::string(name) + ": " + std::to_string(check.n) +
                " requests at " + std::to_string(rate) + "/s, p50 " +
                std::to_string(check.p50_ms) + " ms, p99 " +
                std::to_string(check.p99_ms) + " ms, generator late p99 " +
                std::to_string(check.late_p99_ms) + " ms" +
                (check.valid ? "" : " (generator behind: left out)"));
    if (!check.valid) return;
    level.p50_ms.push_back(check.p50_ms);
    std::vector<double> latencies = phase.LatenciesMs();
    level.latencies_ms.insert(level.latencies_ms.end(), latencies.begin(),
                              latencies.end());
    level.passes += check.pass ? 1 : 0;
  };
  const double cpu_start = CpuSecondsTree(system.child.pid());
  for (int round = 0; round < kRounds; ++round) {
    // Capacity: closed loop, two requests outstanding per connection; the
    // first quarter of the chunk is warm-up.
    PhasePlan capacity;
    capacity.depth = 2;
    capacity.seconds = 0.015 * s;
    PhaseResult cap = run_phase(capacity);
    double window_start = cap.first_due + 0.25 * capacity.seconds;
    size_t completions = 0;
    for (const Outcome& out : cap.outcomes) {
      if (out.done >= window_start && out.done <= cap.send_end) ++completions;
    }
    capacities.push_back(static_cast<double>(completions) /
                         (cap.send_end - window_start));
    capacity_samples += completions;
    fixed_rate(low, w.low_rps, 0.05, "low");
    fixed_rate(high, w.high_rps, 0.025, "high");
    for (int k = 0; k < kSetupsPerRound; ++k) {
      if (!sample_setup()) {
        std::fprintf(stderr, "vs2bench: %s\n", error.c_str());
        return false;
      }
    }
  }
  const double docs_per_s = Median(capacities);
  for (auto [name, level] :
       {std::pair{"low", &low}, std::pair{"high", &high}}) {
    if (level->p50_ms.size() < static_cast<size_t>(kRounds / 2 + 1)) {
      report.Invalid(std::string("the generator fell behind its schedule in "
                                 "most sub-phases at ") + name);
    }
  }

  // Max-rate search: bisection between a passing and a failing rate. A
  // probe rate passes when the majority of kProbeAttempts attempts pass:
  // near the knee one stall of the machine decides an attempt by itself.
  // A failing attempt aborts early, so a failing rate costs little.
  const int majority = kProbeAttempts / 2 + 1;
  double lo = high.passes >= kRounds / 2 + 1
                  ? w.high_rps
                  : (low.passes >= kRounds / 2 + 1 ? w.low_rps : 0.0);
  double hi = std::max(1.25 * docs_per_s, 1.25 * lo);
  for (int step = 0; step < kSearchSteps; ++step) {
    double mid = 0.5 * (lo + hi);
    int passes = 0, fails = 0;
    while (passes < majority && fails < majority) {
      RateCheck check = Evaluate(open_loop(mid, 0.03, kMinSamples, w.limit_ms),
                                 w.limit_ms, conns);
      bool pass = check.pass && check.valid;
      (pass ? passes : fails) += 1;
      report.Note("probe " + std::to_string(mid) + "/s: p99 " +
                  std::to_string(check.p99_ms) + " ms over " +
                  std::to_string(check.n) + (pass ? " -> pass" : " -> fail"));
    }
    bool pass = passes >= majority;
    (pass ? lo : hi) = mid;
  }

  EndToEnd e;
  e.cpu_ms_per_doc =
      (CpuSecondsTree(system.child.pid()) - cpu_start) * 1e3 /
      static_cast<double>(attempted);
  e.cpu_docs = attempted;
  e.peak_rss_mb = PeakRssMiBTree(::getpid());
  system.child.Stop();
  report.Count(attempted, failed, "served requests vs reference");
  e.docs_per_s = docs_per_s;
  e.docs_per_s_samples = capacity_samples;
  Level* levels[] = {&low, &high};
  for (int l = 0; l < 2; ++l) {
    e.lat_p50_ms[l] = Median(levels[l]->p50_ms);
    e.lat_p99_ms[l] = Percentile(levels[l]->latencies_ms, 0.99);
    e.lat_samples[l] = levels[l]->latencies_ms.size();
  }
  e.max_rate_rps = lo;
  e.extraction_f1 = corpus.scores.F1();
  e.f1_documents = w.distinct;
  e.setup_s = setup_s;
  ReportEndToEnd(e, report);
  return true;
}

// ---------------------------------------------------------------------------
// forms_batch: in-process, closed loop.

bool RunForms(const RunOptions& o, Report& report) {
  const DatasetId id = DatasetId::kD1TaxForms;
  const vs2::embed::Embedding& embedding = vs2::datasets::PretrainedEmbedding();
  vs2::core::Vs2 vs2(id, embedding, vs2::core::DefaultConfigFor(id));
  Corpus corpus =
      MakeCorpus(vs2, id, kFormsDocs, o.seed, /*wire=*/false, Nproc());
  if (!corpus.error.empty()) {
    report.Incorrect(corpus.error);
    return true;
  }
  const std::vector<vs2::doc::Document>& docs = corpus.docs;
  const std::vector<std::string>& refs = corpus.wire.refs;
  const uint64_t offset = Mix(o.seed) % docs.size();
  auto doc_at = [&](uint64_t i) { return (offset + i) % docs.size(); };
  report.Note("workload forms_batch: " + std::to_string(docs.size()) +
              " distinct documents, BatchEngine jobs=" +
              std::to_string(kFormsJobs));
  auto matches = [&](const vs2::core::BatchEngine::Output& out, size_t first) {
    size_t bad = 0;
    for (size_t i = 0; i < out.results.size(); ++i) {
      const auto& r = out.results[i];
      if (!r.ok() || vs2::doc::ExtractionsToJson(*r) != refs[first + i]) ++bad;
    }
    return bad;
  };

  if (o.trace) {
    Replayer replayer(vs2, false);
    auto replay = [&](SpanRecorder& spans) {
      size_t mismatches = 0;
      double t0 = Now();
      for (size_t i = 0; i < docs.size(); ++i) {
        std::string out =
            replayer.Process(docs[i], spans, static_cast<uint32_t>(i));
        if (out != refs[i]) ++mismatches;
      }
      double wall = Now() - t0;
      report.Count(docs.size(), mismatches,
                   spans.enabled() ? "traced replay vs reference"
                                   : "untraced replay vs reference");
      return wall;
    };
    SpanRecorder traced(true);
    TraceSummary summary;
    const double overhead = ReplayPairs(replay, docs.size(),
                                        Now() + 0.9 * o.seconds, traced,
                                        &summary);

    vs2::core::BatchEngine engine(vs2, {kFormsJobs});
    double t0 = Now();
    auto out = engine.ProcessAll(docs);
    double wall = Now() - t0;
    report.Count(docs.size(), matches(out, 0), "batch vs reference");
    double pipeline_ms =
        (summary.request_total_ms -
         summary.layers["doc.extractions_to_json"].self_total_ms) /
        static_cast<double>(summary.passes);

    LayerExtras x;
    x.busy_share =
        Share(pipeline_ms * 1e-3, static_cast<double>(kFormsJobs) * wall);
    x.sent = static_cast<double>(docs.size());
    x.trace_overhead = overhead;
    ReportPerLayer(summary, x, report);
    if (!traced.WriteChromeTrace(o.run_dir + "/trace_forms_batch.json")) {
      report.Note("could not write the span file");
    }
    return true;
  }

  const double s = o.seconds;
  uint64_t attempted = 0, failed = 0;

  // Latency: one-form batches from one caller (`low`) and from as many
  // concurrent callers as the engine has jobs (`high`), closed loop. Each
  // chunk sends every form of the pool once, so every chunk has the same
  // mix of the 20 form faces.
  std::vector<std::vector<vs2::doc::Document>> singles(docs.size());
  for (size_t i = 0; i < docs.size(); ++i) singles[i] = {docs[i]};
  auto closed_loop = [&](size_t callers, std::vector<double>* latencies) {
    std::vector<std::vector<double>> lat(callers);
    std::vector<size_t> bad(callers, 0);
    std::atomic<size_t> next{0};
    double start = Now();
    std::vector<std::thread> threads;
    for (size_t c = 0; c < callers; ++c) {
      threads.emplace_back([&, c] {
        vs2::core::BatchEngine one(vs2, {1});
        for (size_t i = next.fetch_add(1); i < docs.size();
             i = next.fetch_add(1)) {
          size_t d = doc_at(i);
          double t0 = Now();
          auto out = one.ProcessAll(singles[d]);
          lat[c].push_back((Now() - t0) * 1e3);
          bad[c] += matches(out, d);
        }
      });
    }
    for (std::thread& t : threads) t.join();
    double elapsed = Now() - start;
    std::vector<double> chunk;
    for (size_t c = 0; c < callers; ++c) {
      chunk.insert(chunk.end(), lat[c].begin(), lat[c].end());
      failed += bad[c];
    }
    attempted += chunk.size();
    latencies->insert(latencies->end(), chunk.begin(), chunk.end());
    return std::make_pair(Median(chunk), static_cast<double>(chunk.size()) /
                                             elapsed);
  };

  // `setup_s`: a fresh process that builds the pattern book, as every user
  // of the pipeline does first; a sample is its CPU time. Taken between
  // the rounds, like the serving workloads' set-ups.
  std::vector<double> setup_s;
  auto sample_setup = [&]() {
    Child probe;
    if (!probe.Start({o.self_path, "--setup-probe", "1"},
                     o.run_dir + "/setup_probe.log")) {
      std::fprintf(stderr, "vs2bench: cannot start the set-up probe\n");
      return false;
    }
    double cpu_s = 0.0;
    if (probe.Wait(&cpu_s) != 0) {
      std::fprintf(stderr, "vs2bench: set-up probe failed\n");
      return false;
    }
    setup_s.push_back(cpu_s);
    return true;
  };

  // Rounds of: one whole batch through the 2-job engine, a `low` chunk, a
  // `high` chunk and the set-ups, until the run's time is used. Rates and
  // p50s are medians over the rounds; p99s pool the rounds' samples.
  vs2::core::BatchEngine engine(vs2, {kFormsJobs});
  std::vector<double> batch_rates, high_rates, low_p50, high_p50;
  std::vector<double> low, high;
  const double until = Now() + 0.95 * s;
  const double cpu_start = CpuSecondsTree(::getpid());
  for (int round = 0; round < kFormsMinRounds || Now() < until; ++round) {
    double t0 = Now();
    auto out = engine.ProcessAll(docs);
    double wall = Now() - t0;
    batch_rates.push_back(static_cast<double>(docs.size()) / wall);
    attempted += docs.size();
    failed += matches(out, 0);
    low_p50.push_back(closed_loop(1, &low).first);
    auto [p50, rate] = closed_loop(kFormsJobs, &high);
    high_p50.push_back(p50);
    high_rates.push_back(rate);
    for (int k = 0; k < kSetupsPerRound; ++k) {
      if (!sample_setup()) return false;
    }
  }
  EndToEnd e;
  e.cpu_ms_per_doc = (CpuSecondsTree(::getpid()) - cpu_start) * 1e3 /
                     static_cast<double>(attempted);
  e.cpu_docs = attempted;
  e.peak_rss_mb = PeakRssMiBTree(::getpid());
  report.Count(attempted, failed, "batch results vs reference");
  e.docs_per_s = Median(batch_rates);
  e.docs_per_s_samples = batch_rates.size() * docs.size();
  e.lat_p50_ms[0] = Median(low_p50);
  e.lat_p50_ms[1] = Median(high_p50);
  e.lat_p99_ms[0] = Percentile(low, 0.99);
  e.lat_p99_ms[1] = Percentile(high, 0.99);
  e.lat_samples[0] = low.size();
  e.lat_samples[1] = high.size();
  e.max_rate_rps = Median(high_rates);
  e.extraction_f1 = corpus.scores.F1();
  e.f1_documents = docs.size();
  e.setup_s = setup_s;
  ReportEndToEnd(e, report);
  return true;
}

}  // namespace

bool RunWorkload(const RunOptions& options, Report& report) {
  if (options.workload == "forms_batch") return RunForms(options, report);
  for (const ServingWorkload* w : {&kPosters, &kFlyers}) {
    if (options.workload == w->name) return RunServing(*w, options, report);
  }
  std::fprintf(stderr, "vs2bench: unknown workload \"%s\"\n",
               options.workload.c_str());
  return false;
}

int SetupProbe(int dataset) {
  if (dataset < 1 || dataset > 3) return 2;
  DatasetId id = static_cast<DatasetId>(dataset);
  vs2::core::Vs2 vs2(id, vs2::datasets::PretrainedEmbedding(),
                     vs2::core::DefaultConfigFor(id));
  return vs2.pattern_book().entities.empty() ? 1 : 0;
}

}  // namespace vs2bench
