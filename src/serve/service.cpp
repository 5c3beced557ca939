#include "serve/service.hpp"

#include <chrono>
#include <cmath>
#include <limits>
#include <utility>

#include "doc/serialization.hpp"
#include "obs/log.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "serve/content_address.hpp"
#include "util/strings.hpp"

namespace vs2::serve {
namespace {

// Process-wide serve instruments. Shared across service instances — they
// aggregate like any other obs counter; per-instance numbers come from
// `ExtractionService::stats()`.
struct ServeInstruments {
  obs::Counter& accepted = obs::Metrics::GetCounter("serve.accepted");
  obs::Counter& rejected = obs::Metrics::GetCounter("serve.rejected");
  obs::Counter& completed = obs::Metrics::GetCounter("serve.completed");
  obs::Counter& deadline_exceeded =
      obs::Metrics::GetCounter("serve.deadline_exceeded");
  obs::Counter& cache_hits = obs::Metrics::GetCounter("serve.cache_hits");
  obs::Counter& cache_misses = obs::Metrics::GetCounter("serve.cache_misses");
  obs::Counter& cache_evictions =
      obs::Metrics::GetCounter("serve.cache_evictions");
  obs::Gauge& queue_depth = obs::Metrics::GetGauge("serve.queue_depth");
  obs::Gauge& in_flight = obs::Metrics::GetGauge("serve.in_flight");
  obs::Gauge& cache_size = obs::Metrics::GetGauge("serve.cache_size");
  obs::Histogram& request_latency =
      obs::Metrics::GetHistogram("serve.request_latency_ms");
  // Histogram-carrying so the lookup registers as a stage in per-request
  // breakdowns — a cache hit's only stage.
  obs::Histogram& cache_lookup =
      obs::Metrics::GetHistogram("serve.cache_lookup_ms");
  // Rolling 10s/1m/5m views for the live telemetry plane (`{"cmd":"stats"}`
  // — DESIGN.md §14). `serve.extract` is the end-to-end latency the fleet
  // console watches.
  obs::WindowedHistogram& extract_windowed =
      obs::Metrics::GetWindowedHistogram("serve.extract");
  obs::WindowedCounter& requests_windowed =
      obs::Metrics::GetWindowedCounter("serve.requests");
  obs::WindowedCounter& rejected_windowed =
      obs::Metrics::GetWindowedCounter("serve.rejected");
  obs::WindowedCounter& cache_hits_windowed =
      obs::Metrics::GetWindowedCounter("serve.cache_hits");
  obs::WindowedCounter& cache_misses_windowed =
      obs::Metrics::GetWindowedCounter("serve.cache_misses");
};

ServeInstruments& Instruments() {
  static ServeInstruments instruments;
  return instruments;
}

double SteadySeconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Per-lane serving outcome (DESIGN.md §16): total counters plus rolling
/// 10s/1m/5m latency/throughput views per triage lane. Registered lazily on
/// first triaged response, so deployments without triage keep their metric
/// snapshot unchanged.
void RecordLaneOutcome(triage::Lane lane, double total_ms) {
  static obs::Counter* totals[] = {
      &obs::Metrics::GetCounter("serve.lane.skip"),
      &obs::Metrics::GetCounter("serve.lane.full"),
  };
  static obs::WindowedHistogram* latency[] = {
      &obs::Metrics::GetWindowedHistogram("serve.lane.skip"),
      &obs::Metrics::GetWindowedHistogram("serve.lane.full"),
  };
  size_t i = static_cast<size_t>(lane);
  totals[i]->Add(1);
  latency[i]->Record(total_ms);
}

}  // namespace

ExtractionService::ExtractionService(const core::Vs2& pipeline,
                                     ServiceOptions options)
    : pipeline_(pipeline), options_(std::move(options)) {
  cache_ = std::make_unique<ResultCache>(ResultCache::Options{
      options_.cache_entries, options_.cache_ttl_seconds});
  size_t jobs = options_.jobs == 0 ? util::ThreadPool::DefaultThreadCount()
                                   : options_.jobs;
  pool_ = std::make_unique<util::ThreadPool>(jobs);
  Instruments();  // force registration before the first snapshot
}

ExtractionService::~ExtractionService() { Drain(); }

double ExtractionService::Now() const {
  return options_.clock ? options_.clock() : SteadySeconds();
}

double ExtractionService::ResolveDeadline(const RequestOptions& options,
                                          double admitted_at) const {
  double deadline_ms = options.deadline_ms;
  if (deadline_ms == 0.0) deadline_ms = options_.default_deadline_ms;
  if (deadline_ms <= 0.0) return std::numeric_limits<double>::infinity();
  return admitted_at + deadline_ms * 1e-3;
}

std::future<ExtractionService::Response> ExtractionService::Submit(
    doc::Document document, RequestOptions options,
    RequestTelemetry* telemetry) {
  auto promise = std::make_shared<std::promise<Response>>();
  std::future<Response> future = promise->get_future();

  // Every request runs under a trace context so slow-log records stay
  // attributable; the caller's id (wire `"trace_id"`) wins when supplied.
  if (!options.trace.valid()) options.trace = obs::TraceContext::Generate();
  if (telemetry != nullptr) {
    *telemetry = RequestTelemetry{};
    telemetry->trace = options.trace;
  }

  double admitted_at = Now();
  {
    // Releasable: the reject paths drop the lock before resolving the
    // promise, so a client blocked on the future never wakes while the
    // admission mutex is still held.
    sync::ReleasableLock lock(&mu_);
    if (!accepting_) {
      ++rejected_;
      Instruments().rejected.Add();
      Instruments().rejected_windowed.Add();
      lock.Release();
      promise->set_value(Status::Unavailable("service is draining"));
      return future;
    }
    if (queued_ >= options_.queue_capacity) {
      ++rejected_;
      size_t queued_now = queued_;
      Instruments().rejected.Add();
      Instruments().rejected_windowed.Add();
      lock.Release();
      promise->set_value(Status::Unavailable(util::Format(
          "admission queue full (%zu queued, capacity %zu)", queued_now,
          options_.queue_capacity)));
      return future;
    }
    ++queued_;
    ++accepted_;
    Instruments().accepted.Add();
    Instruments().requests_windowed.Add();
    Instruments().queue_depth.Set(static_cast<double>(queued_));
  }

  double deadline = ResolveDeadline(options, admitted_at);
  // The request closure owns the document; the promise is shared because
  // `std::function` requires a copyable callable.
  pool_->Submit([this, promise, options, deadline, admitted_at, telemetry,
                 document = std::move(document)]() {
    {
      sync::MutexLock lock(&mu_);
      --queued_;
      ++in_flight_;
      Instruments().queue_depth.Set(static_cast<double>(queued_));
      Instruments().in_flight.Set(static_cast<double>(in_flight_));
    }
    if (options_.dequeue_hook) options_.dequeue_hook();

    // Bind the request's trace context to this worker thread and collect
    // the stage spans (the histogram-carrying ones) it completes — the
    // per-request breakdown echoed on the wire and kept by the slow log.
    obs::TraceContextScope trace_scope(options.trace);
    obs::StageRecorder recorder;
    Response response = RunAdmitted(document, options, deadline);
    double total_ms = (Now() - admitted_at) * 1e3;
    Instruments().request_latency.Record(total_ms);
    Instruments().extract_windowed.Record(total_ms);
    if (response.ok() &&
        pipeline_.config().triage.mode != triage::TriageMode::kOff) {
      // Cache hits count too: the cached result carries the lane the
      // original computation was routed through.
      RecordLaneOutcome((*response).triage.lane, total_ms);
    }
    obs::SlowLog::Global().Record(options.trace, total_ms,
                                  StatusCodeName(response.status().code()),
                                  recorder);
    if (telemetry != nullptr) {
      telemetry->total_ms = total_ms;
      telemetry->stages.assign(recorder.stages(),
                               recorder.stages() + recorder.size());
      telemetry->stages_dropped = recorder.dropped();
    }

    // Account before fulfilling the promise: a client that unblocks on its
    // future must already see this request reflected in stats().
    {
      sync::MutexLock lock(&mu_);
      --in_flight_;
      ++completed_;
      Instruments().in_flight.Set(static_cast<double>(in_flight_));
      Instruments().completed.Add();
    }
    promise->set_value(std::move(response));
  });
  return future;
}

ExtractionService::Response ExtractionService::RunAdmitted(
    const doc::Document& document, const RequestOptions& options,
    double deadline) {
  VS2_TRACE_SPAN("serve.request");
  ServeInstruments& instruments = Instruments();

  // Deadline check at dequeue: a request that died waiting in the queue
  // must not consume pipeline time.
  if (Now() > deadline) {
    sync::MutexLock lock(&mu_);
    ++deadline_exceeded_;
    instruments.deadline_exceeded.Add();
    return Status::DeadlineExceeded("deadline expired while queued");
  }

  const bool use_cache = options_.cache_entries > 0 && !options.bypass_cache;
  // Per-request serving scratch: the canonical cache key is rebuilt into a
  // thread-retained buffer, so a steady-state request reuses its capacity
  // instead of allocating a document-sized string every time.
  thread_local std::string canonical;
  canonical.clear();
  uint64_t hash = 0;
  if (use_cache) {
    obs::Span span("serve.cache_lookup", &instruments.cache_lookup);
    // The shared content address (content_address.hpp): the same hash the
    // fleet router shards on, so a routed request lands on the shard that
    // owns this cache entry.
    hash = ContentAddressInto(document, &canonical);
    uint64_t evictions_before = cache_->evictions();
    if (ResultCache::Value hit = cache_->Get(hash, canonical, Now())) {
      instruments.cache_hits.Add();
      instruments.cache_hits_windowed.Add();
      instruments.cache_size.Set(static_cast<double>(cache_->size()));
      return *hit;  // copy out: callers own their response
    }
    instruments.cache_misses.Add();
    instruments.cache_misses_windowed.Add();
    instruments.cache_evictions.Add(cache_->evictions() - evictions_before);
  }

  core::Vs2::StageCheckpoint checkpoint;
  if (std::isfinite(deadline)) {
    checkpoint = [this, deadline]() -> Status {
      if (Now() > deadline) {
        return Status::DeadlineExceeded(
            "deadline expired between pipeline stages");
      }
      return Status::OK();
    };
  }
  Response response = pipeline_.Process(document, checkpoint);

  if (response.status().code() == StatusCode::kDeadlineExceeded) {
    sync::MutexLock lock(&mu_);
    ++deadline_exceeded_;
    instruments.deadline_exceeded.Add();
  }
  if (response.ok() && use_cache) {
    uint64_t evictions_before = cache_->evictions();
    cache_->Put(hash, canonical,
                std::make_shared<const core::Vs2::DocResult>(*response),
                Now());
    instruments.cache_evictions.Add(cache_->evictions() - evictions_before);
    instruments.cache_size.Set(static_cast<double>(cache_->size()));
    // Cache-coherence audit (DESIGN.md §12) right after the only mutation
    // point on this path. A broken LRU structure would otherwise surface as
    // silently wrong cached responses.
    if (check::AuditsEnabled()) {
      check::AuditReport cache_audit = AuditResultCache(*cache_, Now());
      if (!cache_audit.ok()) {
        VS2_LOG(ERROR) << "result-cache audit failed:\n"
                       << cache_audit.ToString();
        return cache_audit.ToStatus("serve.result_cache");
      }
    }
  }
  return response;
}

ExtractionService::Response ExtractionService::Extract(
    const doc::Document& document, RequestOptions options,
    RequestTelemetry* telemetry) {
  return Submit(document, options, telemetry).get();
}

void ExtractionService::Drain() {
  {
    sync::MutexLock lock(&mu_);
    accepting_ = false;
  }
  // Every admitted request is one pool task; Wait() returns once queued
  // and in-flight work has finished.
  pool_->Wait();
  {
    sync::MutexLock lock(&mu_);
    if (flushed_) return;
    flushed_ = true;
  }
  if (!options_.trace_path.empty()) {
    Status s = obs::Trace::ExportJson(options_.trace_path);
    if (!s.ok()) VS2_LOG(ERROR) << "serve trace export failed: " << s;
  }
  if (!options_.metrics_path.empty()) {
    Status s = obs::Metrics::ExportJson(options_.metrics_path);
    if (!s.ok()) VS2_LOG(ERROR) << "serve metrics export failed: " << s;
  }
}

ExtractionService::Stats ExtractionService::stats() const {
  Stats stats;
  {
    sync::MutexLock lock(&mu_);
    stats.accepted = accepted_;
    stats.rejected = rejected_;
    stats.completed = completed_;
    stats.deadline_exceeded = deadline_exceeded_;
    stats.queue_depth = queued_;
    stats.in_flight = in_flight_;
    stats.accepting = accepting_;
  }
  stats.cache_hits = cache_->hits();
  stats.cache_misses = cache_->misses();
  stats.cache_evictions = cache_->evictions();
  stats.cache_size = cache_->size();
  return stats;
}

}  // namespace vs2::serve
