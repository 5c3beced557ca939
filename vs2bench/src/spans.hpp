#ifndef VS2BENCH_SPANS_HPP_
#define VS2BENCH_SPANS_HPP_

/// \file spans.hpp
/// Outside-in tracing: the benchmark wraps its own calls into each layer's
/// public functions in spans (name, start, end, parent, request id), keeps
/// them in memory and writes them out when the run ends. Nothing inside the
/// program under test is instrumented.

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "clock.hpp"

namespace vs2bench {

/// The layers the traced run attributes time to, in request order. Every
/// per-layer metric is named `<layer>.<stat>` after one of these.
inline constexpr const char* kLayers[] = {
    "doc.from_json",   "serve.content_address", "serve.cache.get",
    "serve.cache.put", "triage.classify",       "ocr.transcribe",
    "core.segment",    "core.interest_points",  "core.select",
    "doc.extractions_to_json",
};

/// Root span of one replayed request; its self time is the unattributed
/// remainder.
inline constexpr const char* kRequestSpan = "request";

class SpanRecorder {
 public:
  struct Span {
    const char* name;
    double start;    ///< steady-clock seconds
    double end;
    int32_t parent;  ///< index into spans(), -1 for a root
    uint32_t request;
  };

  /// A disabled recorder makes every `Scope` a no-op, so the untraced
  /// replay runs the identical code path.
  explicit SpanRecorder(bool enabled) : enabled_(enabled) {}

  SpanRecorder(const SpanRecorder&) = delete;
  SpanRecorder& operator=(const SpanRecorder&) = delete;

  /// RAII span around one call; nests under the innermost open scope.
  class Scope {
   public:
    Scope(SpanRecorder& recorder, const char* name, uint32_t request = 0);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    SpanRecorder& recorder_;
    int32_t index_ = -1;
  };

  /// Records an already-measured span (the wire round trips, timed by the
  /// load generator) as a root.
  void AddRoot(const char* name, double start, double end, uint32_t request);

  bool enabled() const { return enabled_; }
  const std::vector<Span>& spans() const { return spans_; }

  /// Writes the spans as a Chrome trace-event file.
  bool WriteChromeTrace(const std::string& path) const;

 private:
  bool enabled_;
  std::vector<Span> spans_;
  int32_t open_ = -1;
};

/// Runs `fn` inside a span named `name` and returns its result.
template <typename Fn>
auto Timed(SpanRecorder& spans, const char* name, Fn&& fn) {
  SpanRecorder::Scope span(spans, name);
  return fn();
}

/// Self-time aggregates of one span name, over every pass summarized.
struct LayerTimes {
  size_t calls = 0;
  std::vector<double> self_ms;  ///< one entry per call
  double self_total_ms = 0.0;
};

/// Self time per span name (duration minus the children's durations), plus
/// totals of the `kRequestSpan` roots, pooled over replay passes of the same
/// requests.
struct TraceSummary {
  size_t passes = 0;
  std::map<std::string, LayerTimes> layers;
  double request_total_ms = 0.0;     ///< sum of request-root durations
  double unattributed_ms = 0.0;      ///< sum of request-root self times
  std::vector<double> request_ms;     ///< per request id: summed root duration
};

/// Adds one replay pass of `requests` requests to `summary`.
void AddPass(const std::vector<SpanRecorder::Span>& spans, size_t requests,
             TraceSummary* summary);

}  // namespace vs2bench

#endif  // VS2BENCH_SPANS_HPP_
