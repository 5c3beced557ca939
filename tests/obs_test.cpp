/// Tests for src/obs: tracer (span nesting, thread safety, Chrome JSON
/// export), request attribution (TraceContext, StageRecorder), metrics
/// registry (counters, gauges, histogram buckets, percentile semantics,
/// snapshot/reset), the rolling-window instruments, the slow-request ring,
/// the sampling profiler and the structured logger.

#include <gtest/gtest.h>

#include <atomic>
#include <cctype>
#include <chrono>
#include <set>
#include <string>
#include <vector>

#include "datasets/generator.hpp"
#include "datasets/pretrained.hpp"
#include "obs/log.hpp"
#include "obs/metrics.hpp"
#include "obs/profiler.hpp"
#include "obs/slowlog.hpp"
#include "obs/trace.hpp"
#include "serve/service.hpp"
#include "util/color.hpp"
#include "util/geometry.hpp"
#include "util/status.hpp"
#include "util/thread_pool.hpp"

namespace vs2 {
namespace {

// ------------------------------------------------------- JSON validation --

/// Minimal recursive-descent JSON syntax checker. The doc parser in
/// doc/serialization.hpp is schema-bound, so trace/metrics output gets its
/// own structural validator: `Validate` returns true iff the input is one
/// complete, well-formed JSON value.
class JsonChecker {
 public:
  explicit JsonChecker(const std::string& text) : s_(text) {}

  bool Validate() {
    SkipWs();
    if (!Value()) return false;
    SkipWs();
    return pos_ == s_.size();
  }

 private:
  bool Value() {
    if (pos_ >= s_.size()) return false;
    switch (s_[pos_]) {
      case '{':
        return Object();
      case '[':
        return Array();
      case '"':
        return String();
      case 't':
        return Literal("true");
      case 'f':
        return Literal("false");
      case 'n':
        return Literal("null");
      default:
        return Number();
    }
  }

  bool Object() {
    ++pos_;  // '{'
    SkipWs();
    if (Peek() == '}') {
      ++pos_;
      return true;
    }
    while (true) {
      SkipWs();
      if (!String()) return false;
      SkipWs();
      if (Peek() != ':') return false;
      ++pos_;
      SkipWs();
      if (!Value()) return false;
      SkipWs();
      if (Peek() == ',') {
        ++pos_;
        continue;
      }
      if (Peek() == '}') {
        ++pos_;
        return true;
      }
      return false;
    }
  }

  bool Array() {
    ++pos_;  // '['
    SkipWs();
    if (Peek() == ']') {
      ++pos_;
      return true;
    }
    while (true) {
      SkipWs();
      if (!Value()) return false;
      SkipWs();
      if (Peek() == ',') {
        ++pos_;
        continue;
      }
      if (Peek() == ']') {
        ++pos_;
        return true;
      }
      return false;
    }
  }

  bool String() {
    if (Peek() != '"') return false;
    ++pos_;
    while (pos_ < s_.size() && s_[pos_] != '"') {
      if (s_[pos_] == '\\') ++pos_;  // skip the escaped char
      ++pos_;
    }
    if (pos_ >= s_.size()) return false;
    ++pos_;  // closing quote
    return true;
  }

  bool Number() {
    size_t start = pos_;
    if (Peek() == '-') ++pos_;
    while (pos_ < s_.size() &&
           (std::isdigit(static_cast<unsigned char>(s_[pos_])) != 0 ||
            s_[pos_] == '.' || s_[pos_] == 'e' || s_[pos_] == 'E' ||
            s_[pos_] == '+' || s_[pos_] == '-')) {
      ++pos_;
    }
    return pos_ > start;
  }

  bool Literal(const char* lit) {
    for (const char* p = lit; *p != '\0'; ++p, ++pos_) {
      if (pos_ >= s_.size() || s_[pos_] != *p) return false;
    }
    return true;
  }

  char Peek() const { return pos_ < s_.size() ? s_[pos_] : '\0'; }

  void SkipWs() {
    while (pos_ < s_.size() &&
           std::isspace(static_cast<unsigned char>(s_[pos_])) != 0) {
      ++pos_;
    }
  }

  const std::string& s_;
  size_t pos_ = 0;
};

TEST(JsonCheckerTest, AcceptsAndRejects) {
  EXPECT_TRUE(JsonChecker(R"({"a":[1,2.5,-3e-2],"b":{"c":"x\"y"},"d":null})")
                  .Validate());
  EXPECT_FALSE(JsonChecker(R"({"a":1,})").Validate());
  EXPECT_FALSE(JsonChecker(R"({"a":1} extra)").Validate());
  EXPECT_FALSE(JsonChecker(R"({"a")").Validate());
}

// ----------------------------------------------------------------- Trace --

TEST(TraceTest, DisabledSpansRecordNothing) {
  obs::Trace::Disable();
  obs::Trace::Reset();
  {
    VS2_TRACE_SPAN("off");
    VS2_TRACE_SPAN_ARG("off_arg", 7);
  }
  EXPECT_EQ(obs::Trace::EventCount(), 0u);
  EXPECT_EQ(obs::Trace::CurrentDepth(), 0u);
}

TEST(TraceTest, NestedSpansRestoreParentDepth) {
  obs::Trace::Reset();
  obs::Trace::Enable();
  EXPECT_EQ(obs::Trace::CurrentDepth(), 0u);
  {
    obs::Span outer("outer");
    EXPECT_EQ(obs::Trace::CurrentDepth(), 1u);
    {
      obs::Span inner("inner");
      EXPECT_EQ(obs::Trace::CurrentDepth(), 2u);
      {
        obs::Span innermost("innermost", int64_t{42});
        EXPECT_EQ(obs::Trace::CurrentDepth(), 3u);
      }
      EXPECT_EQ(obs::Trace::CurrentDepth(), 2u);
    }
    EXPECT_EQ(obs::Trace::CurrentDepth(), 1u);
  }
  EXPECT_EQ(obs::Trace::CurrentDepth(), 0u);
  EXPECT_EQ(obs::Trace::EventCount(), 3u);
  obs::Trace::Disable();
}

TEST(TraceTest, ExportIsValidChromeTraceJson) {
  obs::Trace::Reset();
  obs::Trace::Enable();
  {
    obs::Span outer("segment");
    obs::Span inner("segment.cluster", int64_t{2});
  }
  obs::Trace::Disable();
  std::string json = obs::Trace::ToJson();

  EXPECT_TRUE(JsonChecker(json).Validate()) << json;
  // Chrome trace_event envelope and the span payloads.
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("\"displayTimeUnit\":\"ms\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"segment\""), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"segment.cluster\""), std::string::npos);
  EXPECT_NE(json.find("\"arg\":2"), std::string::npos);
  EXPECT_NE(json.find("\"ts\":"), std::string::npos);
  EXPECT_NE(json.find("\"dur\":"), std::string::npos);
}

TEST(TraceTest, ResetDropsEvents) {
  obs::Trace::Reset();
  obs::Trace::Enable();
  { VS2_TRACE_SPAN("x"); }
  EXPECT_EQ(obs::Trace::EventCount(), 1u);
  obs::Trace::Reset();
  EXPECT_EQ(obs::Trace::EventCount(), 0u);
  obs::Trace::Disable();
}

// Worker threads each record nested spans concurrently; every event must
// survive and per-thread depths must not interfere. Run under
// -DVS2_SANITIZE=thread to verify the locking discipline.
TEST(TraceTest, ConcurrentSpansFromThreadPoolDoNotCorrupt) {
  obs::Trace::Reset();
  obs::Trace::Enable();
  constexpr size_t kTasks = 64;
  constexpr size_t kSpansPerTask = 3;  // one outer + two nested
  std::atomic<size_t> depth_violations{0};
  {
    util::ThreadPool pool(4);
    util::ParallelFor(&pool, kTasks, [&](size_t i) {
      obs::Span outer("task", static_cast<int64_t>(i));
      {
        obs::Span inner("task.step");
        obs::Span leaf("task.leaf");
        if (obs::Trace::CurrentDepth() != 3) {
          depth_violations.fetch_add(1, std::memory_order_relaxed);
        }
      }
      if (obs::Trace::CurrentDepth() != 1) {
        depth_violations.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }
  obs::Trace::Disable();
  EXPECT_EQ(depth_violations.load(), 0u);
  EXPECT_EQ(obs::Trace::EventCount(), kTasks * kSpansPerTask);
  // The export must remain well-formed with events from many lanes —
  // including threads that have already exited.
  std::string json = obs::Trace::ToJson();
  EXPECT_TRUE(JsonChecker(json).Validate());
  obs::Trace::Reset();
}

TEST(TraceTest, SpanFeedsHistogramEvenWhenTracingDisabled) {
  obs::Trace::Disable();
  obs::Trace::Reset();
  obs::Histogram& hist = obs::Metrics::GetHistogram("obs_test.span_ms");
  hist.Reset();
  { obs::Span span("timed", &hist); }
  EXPECT_EQ(hist.count(), 1u);
  EXPECT_EQ(obs::Trace::EventCount(), 0u);  // no trace event while disabled
}

// ----------------------------------------------------------- TraceContext --

TEST(TraceContextTest, HexRoundTripAndRejection) {
  obs::TraceContext context{0x0123456789abcdefULL, 0xfedcba9876543210ULL};
  std::string hex = context.ToHex();
  EXPECT_EQ(hex, "0123456789abcdeffedcba9876543210");
  EXPECT_EQ(obs::TraceContext::FromHex(hex), context);

  // Anything but exactly 32 hex digits — or all zeros — is invalid.
  EXPECT_FALSE(obs::TraceContext::FromHex("").valid());
  EXPECT_FALSE(obs::TraceContext::FromHex("abc").valid());
  EXPECT_FALSE(obs::TraceContext::FromHex(hex + "0").valid());
  EXPECT_FALSE(
      obs::TraceContext::FromHex("0123456789abcdeffedcba987654321g").valid());
  EXPECT_FALSE(
      obs::TraceContext::FromHex(std::string(32, '0')).valid());
  EXPECT_FALSE(obs::TraceContext{}.valid());
}

TEST(TraceContextTest, GenerateIsValidAndUnique) {
  std::set<std::string> seen;
  for (int i = 0; i < 256; ++i) {
    obs::TraceContext context = obs::TraceContext::Generate();
    EXPECT_TRUE(context.valid());
    EXPECT_TRUE(seen.insert(context.ToHex()).second);
  }
}

TEST(TraceContextTest, ScopeBindsAndRestoresNested) {
  EXPECT_FALSE(obs::CurrentTraceContext().valid());
  obs::TraceContext outer_ctx{1, 2};
  obs::TraceContext inner_ctx{3, 4};
  {
    obs::TraceContextScope outer(outer_ctx);
    EXPECT_EQ(obs::CurrentTraceContext(), outer_ctx);
    {
      obs::TraceContextScope inner(inner_ctx);
      EXPECT_EQ(obs::CurrentTraceContext(), inner_ctx);
    }
    EXPECT_EQ(obs::CurrentTraceContext(), outer_ctx);
  }
  EXPECT_FALSE(obs::CurrentTraceContext().valid());
}

TEST(TraceContextTest, TraceEventsCarryTheBoundContext) {
  obs::Trace::Reset();
  obs::Trace::Enable();
  obs::TraceContext context{0x00000000000000abULL, 0x00000000000000cdULL};
  {
    obs::TraceContextScope scope(context);
    VS2_TRACE_SPAN("attributed");
  }
  { VS2_TRACE_SPAN("unattributed"); }
  obs::Trace::Disable();
  std::string json = obs::Trace::ToJson();
  EXPECT_TRUE(JsonChecker(json).Validate()) << json;
  // Exactly the span under the scope carries the id.
  std::string needle = "\"trace_id\":\"" + context.ToHex() + "\"";
  size_t first = json.find(needle);
  ASSERT_NE(first, std::string::npos) << json;
  EXPECT_EQ(json.find(needle, first + 1), std::string::npos);
  obs::Trace::Reset();
}

TEST(StageRecorderTest, CollectsTimedSpansAndNests) {
  obs::Histogram& hist = obs::Metrics::GetHistogram("obs_test.stage_ms");
  hist.Reset();
  obs::StageRecorder outer;
  { obs::Span stage("stage.one", &hist); }
  {
    obs::StageRecorder inner;
    // The innermost recorder receives records while installed.
    { obs::Span stage("stage.two", &hist); }
    ASSERT_EQ(inner.size(), 1u);
    EXPECT_STREQ(inner.stages()[0].name, "stage.two");
    EXPECT_GE(inner.stages()[0].ms, 0.0);
  }
  { obs::Span stage("stage.three", &hist); }
  // Trace-only spans are not stages.
  { obs::Span untimed("not.a.stage"); }
  ASSERT_EQ(outer.size(), 2u);
  EXPECT_STREQ(outer.stages()[0].name, "stage.one");
  EXPECT_STREQ(outer.stages()[1].name, "stage.three");
  EXPECT_EQ(outer.dropped(), 0u);
}

TEST(StageRecorderTest, CapacityOverflowCountsDropped) {
  obs::Histogram& hist = obs::Metrics::GetHistogram("obs_test.stage_cap_ms");
  hist.Reset();
  obs::StageRecorder recorder;
  for (size_t i = 0; i < obs::StageRecorder::kMaxStages + 3; ++i) {
    obs::Span stage("stage.n", &hist);
  }
  EXPECT_EQ(recorder.size(), obs::StageRecorder::kMaxStages);
  EXPECT_EQ(recorder.dropped(), 3u);
}

// ----------------------------------------------------------- Percentiles --

// Pins the nearest-rank semantics BatchStats has always used:
// sorted[llround(p * (n - 1))], 0.0 when empty. llround rounds half away
// from zero, so p50 of two samples picks the upper one.
TEST(PercentileTest, NearestRankSemanticsPinned) {
  EXPECT_EQ(obs::SortedPercentile({}, 0.5), 0.0);
  EXPECT_EQ(obs::SortedPercentile({7.0}, 0.0), 7.0);
  EXPECT_EQ(obs::SortedPercentile({7.0}, 1.0), 7.0);
  std::vector<double> five = {1.0, 2.0, 3.0, 4.0, 5.0};
  EXPECT_EQ(obs::SortedPercentile(five, 0.50), 3.0);
  EXPECT_EQ(obs::SortedPercentile(five, 0.95), 5.0);
  EXPECT_EQ(obs::SortedPercentile(five, 0.0), 1.0);
  EXPECT_EQ(obs::SortedPercentile(five, 1.0), 5.0);
  EXPECT_EQ(obs::SortedPercentile({10.0, 20.0}, 0.5), 20.0);
  // 100 samples 1..100: p50 -> index llround(49.5) = 50 -> 51.
  std::vector<double> hundred;
  for (int i = 1; i <= 100; ++i) hundred.push_back(i);
  EXPECT_EQ(obs::SortedPercentile(hundred, 0.50), 51.0);
  EXPECT_EQ(obs::SortedPercentile(hundred, 0.95), 95.0);
  EXPECT_EQ(obs::SortedPercentile(hundred, 0.99), 99.0);
}

TEST(PercentileTest, UnsortedConvenienceSortsFirst) {
  EXPECT_EQ(obs::Percentile({5.0, 1.0, 3.0, 2.0, 4.0}, 0.50), 3.0);
}

TEST(PercentileTest, EmptyAndSingleSampleEdgeCases) {
  // Empty input is 0.0 at every p — the "no data yet" sentinel, not NaN.
  EXPECT_EQ(obs::SortedPercentile({}, 0.0), 0.0);
  EXPECT_EQ(obs::SortedPercentile({}, 1.0), 0.0);
  EXPECT_EQ(obs::Percentile({}, 0.99), 0.0);

  // A single sample answers every quantile with itself, including p past
  // 1.0 (the index clamp, not the caller, keeps it in range).
  EXPECT_EQ(obs::SortedPercentile({42.0}, 0.5), 42.0);
  EXPECT_EQ(obs::SortedPercentile({42.0}, 2.0), 42.0);
  EXPECT_EQ(obs::SortedPercentile({1.0, 2.0, 3.0}, 1.5), 3.0);  // clamped

  // The histogram estimator mirrors both edges: empty histogram reads
  // 0.0, and a single recorded sample pins every quantile to the sample
  // itself (the bucket bound clamped to the observed range).
  obs::Histogram& h =
      obs::Metrics::GetHistogram("obs_test.percentile_edge_ms");
  h.Reset();
  EXPECT_EQ(h.PercentileEstimate(0.0), 0.0);
  EXPECT_EQ(h.PercentileEstimate(0.99), 0.0);
  h.Record(3.0);
  EXPECT_EQ(h.PercentileEstimate(0.0), 3.0);
  EXPECT_EQ(h.PercentileEstimate(0.5), 3.0);
  EXPECT_EQ(h.PercentileEstimate(1.0), 3.0);
}

// ---------------------------------------------------------------- Metrics --

TEST(MetricsTest, CounterAndGaugeBasics) {
  obs::Counter& c = obs::Metrics::GetCounter("obs_test.counter");
  c.Reset();
  c.Add();
  c.Add(41);
  EXPECT_EQ(c.value(), 42u);
  // Same name resolves to the same instrument.
  EXPECT_EQ(&obs::Metrics::GetCounter("obs_test.counter"), &c);

  obs::Gauge& g = obs::Metrics::GetGauge("obs_test.gauge");
  g.Set(2.5);
  EXPECT_EQ(g.value(), 2.5);
}

TEST(MetricsTest, HistogramBucketBoundaries) {
  const std::vector<double>& bounds = obs::Histogram::BucketBounds();
  ASSERT_FALSE(bounds.empty());
  EXPECT_EQ(bounds.front(), 0.05);
  EXPECT_EQ(bounds.back(), 10000.0);

  obs::Histogram& h = obs::Metrics::GetHistogram("obs_test.bounds");
  h.Reset();
  h.Record(0.05);  // == first bound -> bucket 0 (v <= bound is inclusive)
  h.Record(0.06);  // just above -> bucket 1
  h.Record(0.10);  // == second bound -> bucket 1
  h.Record(20000.0);  // beyond the last bound -> overflow
  EXPECT_EQ(h.BucketCount(0), 1u);
  EXPECT_EQ(h.BucketCount(1), 2u);
  EXPECT_EQ(h.BucketCount(bounds.size()), 1u);  // overflow bucket
  EXPECT_EQ(h.count(), 4u);
  EXPECT_EQ(h.min(), 0.05);
  EXPECT_EQ(h.max(), 20000.0);
}

TEST(MetricsTest, HistogramPercentileEstimate) {
  obs::Histogram& h = obs::Metrics::GetHistogram("obs_test.pct");
  h.Reset();
  EXPECT_EQ(h.PercentileEstimate(0.5), 0.0);  // empty
  // 9 values in (0.25, 0.5], 1 value in (5, 10]: p50 reports the bucket
  // upper bound 0.5; p99 lands in the slow bucket, whose bound 10 is
  // clamped to the observed max 7.
  for (int i = 0; i < 9; ++i) h.Record(0.3);
  h.Record(7.0);
  EXPECT_EQ(h.PercentileEstimate(0.50), 0.5);
  EXPECT_EQ(h.PercentileEstimate(0.99), 7.0);
  // The bucket bound is clamped to the observed min as well.
  h.Reset();
  for (int i = 0; i < 4; ++i) h.Record(0.3);
  EXPECT_EQ(h.PercentileEstimate(0.50), 0.3);
  // Overflow percentile reports the observed max, not infinity.
  h.Reset();
  h.Record(50000.0);
  EXPECT_EQ(h.PercentileEstimate(0.99), 50000.0);
}

TEST(MetricsTest, SnapshotJsonIsValidAndComplete) {
  obs::Metrics::GetCounter("obs_test.snap_counter").Add(3);
  obs::Metrics::GetGauge("obs_test.snap_gauge").Set(1.5);
  obs::Metrics::GetHistogram("obs_test.snap_hist").Record(1.0);
  std::string json = obs::Metrics::SnapshotJson();
  EXPECT_TRUE(JsonChecker(json).Validate()) << json;
  EXPECT_NE(json.find("\"obs_test.snap_counter\""), std::string::npos);
  EXPECT_NE(json.find("\"obs_test.snap_gauge\""), std::string::npos);
  EXPECT_NE(json.find("\"obs_test.snap_hist\""), std::string::npos);
  EXPECT_NE(json.find("\"p50\""), std::string::npos);
  EXPECT_NE(json.find("\"p95\""), std::string::npos);
  EXPECT_NE(json.find("\"p99\""), std::string::npos);
}

// The serving layer exports its operational state through this registry;
// pin the gauge names and verify a live service drives them, and that they
// land in the snapshot JSON a `--metrics=FILE` run would write.
TEST(MetricsTest, ServeGaugesReflectServiceStateInSnapshot) {
  obs::Gauge& queue_depth = obs::Metrics::GetGauge("serve.queue_depth");
  obs::Gauge& in_flight = obs::Metrics::GetGauge("serve.in_flight");
  obs::Gauge& cache_size = obs::Metrics::GetGauge("serve.cache_size");

  datasets::GeneratorConfig gc;
  gc.num_documents = 1;
  doc::Corpus corpus = datasets::GenerateD2(gc);
  core::Vs2 vs2(doc::DatasetId::kD2EventPosters,
                datasets::PretrainedEmbedding(),
                core::DefaultConfigFor(doc::DatasetId::kD2EventPosters));

  serve::ServiceOptions options;
  options.jobs = 1;
  options.cache_entries = 4;
  serve::ExtractionService service(vs2, options);
  ASSERT_TRUE(service.Extract(corpus.documents[0]).ok());
  service.Drain();

  // Idle after drain: nothing queued or running, one cached result.
  EXPECT_EQ(queue_depth.value(), 0.0);
  EXPECT_EQ(in_flight.value(), 0.0);
  EXPECT_EQ(cache_size.value(), 1.0);

  std::string json = obs::Metrics::SnapshotJson();
  EXPECT_TRUE(JsonChecker(json).Validate()) << json;
  EXPECT_NE(json.find("\"serve.queue_depth\""), std::string::npos);
  EXPECT_NE(json.find("\"serve.in_flight\""), std::string::npos);
  EXPECT_NE(json.find("\"serve.cache_size\""), std::string::npos);
  EXPECT_NE(json.find("\"serve.accepted\""), std::string::npos);
  EXPECT_NE(json.find("\"serve.request_latency_ms\""), std::string::npos);
}

TEST(MetricsTest, TriageInstrumentsAppearInSnapshot) {
  datasets::GeneratorConfig gc;
  gc.num_documents = 1;
  doc::Corpus corpus = datasets::GenerateD2(gc);

  core::PipelineConfig config =
      core::DefaultConfigFor(doc::DatasetId::kD2EventPosters);
  config.triage.mode = triage::TriageMode::kAuto;
  core::Vs2 vs2(doc::DatasetId::kD2EventPosters,
                datasets::PretrainedEmbedding(), config);

  serve::ServiceOptions options;
  options.jobs = 1;
  serve::ExtractionService service(vs2, options);
  ASSERT_TRUE(service.Extract(corpus.documents[0]).ok());
  service.Drain();

  std::string json = obs::Metrics::SnapshotJson();
  EXPECT_TRUE(JsonChecker(json).Validate()) << json;
  // Pipeline-side triage instruments (both lane counters register
  // together on the first triaged document).
  EXPECT_NE(json.find("\"triage.classify_ms\""), std::string::npos) << json;
  EXPECT_NE(json.find("\"triage.lane.skip\""), std::string::npos);
  EXPECT_NE(json.find("\"triage.lane.full\""), std::string::npos);
  // Serving-side per-lane outcome views (D2 posters route FULL).
  EXPECT_NE(json.find("\"serve.lane.full\""), std::string::npos);
  EXPECT_GE(obs::Metrics::GetCounter("serve.lane.full").value(), 1u);
  EXPECT_GE(obs::Metrics::GetCounter("triage.lane.full").value(), 1u);
}

TEST(MetricsTest, ResetValuesZeroesButKeepsReferences) {
  obs::Counter& c = obs::Metrics::GetCounter("obs_test.reset_counter");
  obs::Histogram& h = obs::Metrics::GetHistogram("obs_test.reset_hist");
  c.Add(5);
  h.Record(1.0);
  obs::Metrics::ResetValues();
  EXPECT_EQ(c.value(), 0u);
  EXPECT_EQ(h.count(), 0u);
  // The references stay usable after a reset.
  c.Add(2);
  EXPECT_EQ(c.value(), 2u);
}

TEST(MetricsTest, ConcurrentIncrementsAreLossless) {
  obs::Counter& c = obs::Metrics::GetCounter("obs_test.mt_counter");
  obs::Histogram& h = obs::Metrics::GetHistogram("obs_test.mt_hist");
  c.Reset();
  h.Reset();
  constexpr size_t kTasks = 100;
  {
    util::ThreadPool pool(4);
    util::ParallelFor(&pool, kTasks, [&](size_t) {
      c.Add(1);
      h.Record(1.0);
    });
  }
  EXPECT_EQ(c.value(), kTasks);
  EXPECT_EQ(h.count(), kTasks);
  EXPECT_EQ(h.sum(), static_cast<double>(kTasks));
}

// --------------------------------------------------- Windowed instruments --
// All deterministic tests drive the `*At` entry points with synthetic
// epochs; only the concurrency test touches the real clock path.

TEST(WindowedCounterTest, WindowIncludesInProgressSecondExcludesOlder) {
  obs::WindowedCounter& c =
      obs::Metrics::GetWindowedCounter("obs_test.wc_window");
  c.Reset();
  c.AddAt(3, 100);
  c.AddAt(2, 105);
  c.AddAt(1, 109);
  // A 10s window at now=109 covers epochs (99, 109]: everything above.
  EXPECT_EQ(c.CountInWindowAt(10, 109), 6u);
  // At now=110 the (100, 110] window drops the epoch-100 adds.
  EXPECT_EQ(c.CountInWindowAt(10, 110), 3u);
  // The in-progress second itself counts.
  c.AddAt(4, 110);
  EXPECT_EQ(c.CountInWindowAt(10, 110), 7u);
  // A 1s window sees only the current second.
  EXPECT_EQ(c.CountInWindowAt(1, 110), 4u);
  // Rate normalizes by the window length, not the occupied seconds.
  EXPECT_EQ(c.RateInWindowAt(10, 110), 0.7);
  // Same name resolves to the same instrument.
  EXPECT_EQ(&obs::Metrics::GetWindowedCounter("obs_test.wc_window"), &c);
}

TEST(WindowedCounterTest, SlotRecyclingDropsLappedEpochs) {
  obs::WindowedCounter& c =
      obs::Metrics::GetWindowedCounter("obs_test.wc_recycle");
  c.Reset();
  c.AddAt(5, 100);
  // 400 maps to the same ring slot as 100 (ring of 300 one-second slots);
  // the recycled slot must not leak the old count into the new second.
  c.AddAt(2, 400);
  EXPECT_EQ(c.CountInWindowAt(obs::WindowedCounter::kMaxWindowSec, 400), 2u);
  EXPECT_EQ(c.CountInWindowAt(1, 400), 2u);
}

TEST(WindowedCounterTest, StaleEpochsNeverResurface) {
  obs::WindowedCounter& c =
      obs::Metrics::GetWindowedCounter("obs_test.wc_stale");
  c.Reset();
  c.AddAt(9, 50);
  // Far in the future every slot is stale; nothing may be counted even
  // though the slots still hold their old epochs.
  EXPECT_EQ(c.CountInWindowAt(obs::WindowedCounter::kMaxWindowSec, 10000), 0u);
  // Reset empties the views at the original epoch too.
  c.Reset();
  EXPECT_EQ(c.CountInWindowAt(10, 50), 0u);
}

TEST(WindowedHistogramTest, StatsMatchHistogramPercentileSemantics) {
  obs::WindowedHistogram& h =
      obs::Metrics::GetWindowedHistogram("obs_test.wh_stats");
  h.Reset();
  // Mirrors MetricsTest.HistogramPercentileEstimate: 9 values in the
  // (0.25, 0.5] bucket and one in (5, 10] — p50 reports the bucket bound
  // 0.5, p95/p99 the slow bucket's bound 10 clamped to the windowed max 7.
  for (int i = 0; i < 9; ++i) h.RecordAt(0.3, 100);
  h.RecordAt(7.0, 100);
  obs::WindowedHistogram::WindowStats stats = h.StatsInWindowAt(10, 100);
  EXPECT_EQ(stats.count, 10u);
  EXPECT_NEAR(stats.sum, 9 * 0.3 + 7.0, 1e-9);
  EXPECT_EQ(stats.rate_per_sec, 1.0);
  EXPECT_EQ(stats.p50, 0.5);
  EXPECT_EQ(stats.p95, 7.0);
  EXPECT_EQ(stats.p99, 7.0);
  EXPECT_EQ(stats.max, 7.0);
  // Sliding the window past the samples empties the view.
  EXPECT_EQ(h.StatsInWindowAt(10, 200).count, 0u);
  // Overflow percentiles report the windowed max, not infinity.
  h.Reset();
  h.RecordAt(50000.0, 300);
  EXPECT_EQ(h.StatsInWindowAt(10, 300).p99, 50000.0);
}

TEST(WindowedHistogramTest, WindowsAreIndependentViews) {
  obs::WindowedHistogram& h =
      obs::Metrics::GetWindowedHistogram("obs_test.wh_views");
  h.Reset();
  h.RecordAt(1.0, 1000);   // only in the 5m view at now=1200
  h.RecordAt(2.0, 1150);   // in the 1m and 5m views
  h.RecordAt(4.0, 1200);   // in every view
  EXPECT_EQ(h.StatsInWindowAt(10, 1200).count, 1u);
  EXPECT_EQ(h.StatsInWindowAt(60, 1200).count, 2u);
  EXPECT_EQ(h.StatsInWindowAt(300, 1200).count, 3u);
  EXPECT_EQ(h.StatsInWindowAt(10, 1200).max, 4.0);
  EXPECT_EQ(h.StatsInWindowAt(300, 1200).max, 4.0);
}

TEST(WindowedInstrumentsTest, ResetValuesEmptiesWindows) {
  obs::WindowedCounter& c =
      obs::Metrics::GetWindowedCounter("obs_test.wc_resetvalues");
  obs::WindowedHistogram& h =
      obs::Metrics::GetWindowedHistogram("obs_test.wh_resetvalues");
  c.AddAt(5, 100);
  h.RecordAt(1.0, 100);
  obs::Metrics::ResetValues();
  EXPECT_EQ(c.CountInWindowAt(10, 100), 0u);
  EXPECT_EQ(h.StatsInWindowAt(10, 100).count, 0u);
  // References stay usable after the reset.
  c.AddAt(1, 101);
  EXPECT_EQ(c.CountInWindowAt(10, 101), 1u);
}

// Concurrent records into one epoch are lossless (the documented bounded
// loss only applies to records racing a slot recycle at a second
// boundary, which a fixed synthetic epoch never triggers). Run under
// -DVS2_SANITIZE=thread to verify the lock-free record path.
TEST(WindowedInstrumentsTest, ConcurrentRecordsAreLossless) {
  obs::WindowedCounter& c =
      obs::Metrics::GetWindowedCounter("obs_test.wc_mt");
  obs::WindowedHistogram& h =
      obs::Metrics::GetWindowedHistogram("obs_test.wh_mt");
  c.Reset();
  h.Reset();
  constexpr size_t kTasks = 200;
  constexpr int64_t kEpoch = 500;
  {
    util::ThreadPool pool(4);
    util::ParallelFor(&pool, kTasks, [&](size_t i) {
      c.AddAt(1, kEpoch);
      h.RecordAt(static_cast<double>(i % 7) + 0.5, kEpoch);
      // Concurrent window reads must be safe against the writers.
      (void)c.CountInWindowAt(10, kEpoch);
      (void)h.StatsInWindowAt(10, kEpoch);
    });
  }
  EXPECT_EQ(c.CountInWindowAt(10, kEpoch), kTasks);
  obs::WindowedHistogram::WindowStats stats = h.StatsInWindowAt(10, kEpoch);
  EXPECT_EQ(stats.count, kTasks);
  EXPECT_EQ(stats.max, 6.5);
}

TEST(WindowedInstrumentsTest, SnapshotJsonCarriesWindowedSections) {
  obs::Metrics::GetWindowedCounter("obs_test.wc_snap").Add(2);
  obs::Metrics::GetWindowedHistogram("obs_test.wh_snap").Record(1.5);
  std::string json = obs::Metrics::SnapshotJson();
  EXPECT_TRUE(JsonChecker(json).Validate()) << json;
  EXPECT_NE(json.find("\"windowed_counters\""), std::string::npos);
  EXPECT_NE(json.find("\"windowed_histograms\""), std::string::npos);
  EXPECT_NE(json.find("\"obs_test.wc_snap\""), std::string::npos);
  // Every windowed instrument renders all three rolling views.
  size_t at = json.find("\"obs_test.wh_snap\"");
  ASSERT_NE(at, std::string::npos);
  EXPECT_NE(json.find("\"10s\"", at), std::string::npos);
  EXPECT_NE(json.find("\"1m\"", at), std::string::npos);
  EXPECT_NE(json.find("\"5m\"", at), std::string::npos);
  EXPECT_NE(json.find("\"rate_per_sec\"", at), std::string::npos);
  EXPECT_NE(json.find("\"p99\"", at), std::string::npos);
}

// ---------------------------------------------------------------- SlowLog --

TEST(SlowLogTest, KeepsTheSlowestAndSortsDescending) {
  // Scoped so it uninstalls from the thread's recorder chain before the
  // test returns.
  obs::StageRecorder no_stages;
  obs::SlowLog log(3);
  for (double ms : {5.0, 1.0, 9.0, 3.0, 7.0}) {
    log.Record(obs::TraceContext::Generate(), ms, "OK", no_stages);
  }
  std::vector<obs::SlowLog::Entry> entries = log.Snapshot();
  ASSERT_EQ(entries.size(), 3u);
  EXPECT_EQ(entries[0].total_ms, 9.0);
  EXPECT_EQ(entries[1].total_ms, 7.0);
  EXPECT_EQ(entries[2].total_ms, 5.0);
  // A flood of fast requests cannot flush the slow ones out.
  for (int i = 0; i < 100; ++i) {
    log.Record(obs::TraceContext::Generate(), 0.1, "OK", no_stages);
  }
  entries = log.Snapshot();
  ASSERT_EQ(entries.size(), 3u);
  EXPECT_EQ(entries[0].total_ms, 9.0);
  EXPECT_EQ(entries[2].total_ms, 5.0);
}

TEST(SlowLogTest, EntriesCarryTraceStatusAndStages) {
  obs::SlowLog log(4);
  obs::TraceContext trace{11, 22};
  obs::Histogram& hist = obs::Metrics::GetHistogram("obs_test.slowlog_ms");
  {
    obs::StageRecorder recorder;
    { obs::Span stage("slow.stage", &hist); }
    log.Record(trace, 42.0, "DeadlineExceeded", recorder);
  }
  std::vector<obs::SlowLog::Entry> entries = log.Snapshot();
  ASSERT_EQ(entries.size(), 1u);
  EXPECT_EQ(entries[0].trace, trace);
  EXPECT_EQ(entries[0].status, "DeadlineExceeded");
  ASSERT_EQ(entries[0].stages.size(), 1u);
  EXPECT_STREQ(entries[0].stages[0].name, "slow.stage");
  log.Reset();
  EXPECT_EQ(log.size(), 0u);
}

// --------------------------------------------------------------- Profiler --

#if defined(__unix__) || defined(__APPLE__)
// Smoke the SIGPROF sampler end to end: burn CPU inside named spans and
// require at least one attributed collapsed stack. Sampling is inherently
// probabilistic, so the test spins until a sample lands (bounded by wall
// time) rather than asserting an exact count.
TEST(ProfilerTest, SamplesSpansIntoCollapsedStacks) {
  obs::Profiler::Options options;
  options.interval_usec = 1000;
  ASSERT_TRUE(obs::Profiler::Start(options).ok());
  EXPECT_TRUE(obs::Profiler::active());
  // Double-start reports AlreadyExists and leaves the sampler running.
  EXPECT_EQ(obs::Profiler::Start(options).code(), StatusCode::kAlreadyExists);

  // Spin until a healthy batch of ticks landed (20 samples at a 1 ms
  // period ≈ 20 ms of CPU) so span attribution, not just the timer, is
  // exercised — virtually all CPU time burns inside the spans.
  auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(10);
  volatile double sink = 0.0;
  while (obs::Profiler::sample_count() < 20 &&
         std::chrono::steady_clock::now() < deadline) {
    obs::Span outer("profiler_test.outer");
    obs::Span inner("profiler_test.inner");
    for (int i = 0; i < 100000; ++i) sink = sink + static_cast<double>(i);
  }
  obs::Profiler::Stop();
  EXPECT_FALSE(obs::Profiler::active());
  ASSERT_GT(obs::Profiler::sample_count(), 0u);

  std::string collapsed = obs::Profiler::CollapsedStacks();
  ASSERT_FALSE(collapsed.empty());
  // Innermost-span attribution: the busy loop runs under outer;inner.
  EXPECT_NE(collapsed.find("profiler_test.outer;profiler_test.inner"),
            std::string::npos)
      << collapsed;
  obs::Profiler::Reset();
  EXPECT_EQ(obs::Profiler::sample_count(), 0u);
}
#endif  // __unix__ || __APPLE__

// ------------------------------------------------------------------- Log --

/// Captures emitted lines for the duration of one test.
class LogCapture {
 public:
  LogCapture() {
    obs::SetLogSink([this](obs::LogLevel level, const std::string& line) {
      levels.push_back(level);
      lines.push_back(line);
    });
  }
  ~LogCapture() { obs::SetLogSink(nullptr); }

  std::vector<obs::LogLevel> levels;
  std::vector<std::string> lines;
};

TEST(LogTest, EmitsAtOrAboveMinLevel) {
  obs::LogLevel saved = obs::MinLogLevel();
  obs::SetMinLogLevel(obs::LogLevel::kWarn);
  LogCapture capture;
  VS2_LOG(DEBUG) << "quiet";
  VS2_LOG(INFO) << "quiet";
  VS2_LOG(WARN) << "warned";
  VS2_LOG(ERROR) << "errored";
  obs::SetMinLogLevel(saved);
  ASSERT_EQ(capture.lines.size(), 2u);
  EXPECT_EQ(capture.levels[0], obs::LogLevel::kWarn);
  EXPECT_NE(capture.lines[0].find("warned"), std::string::npos);
  EXPECT_NE(capture.lines[1].find("errored"), std::string::npos);
  // Line format: level char + timestamp + thread + file:line] message.
  EXPECT_EQ(capture.lines[0][0], 'W');
  EXPECT_NE(capture.lines[0].find("obs_test.cpp:"), std::string::npos);
}

TEST(LogTest, DisabledLevelNeverEvaluatesOperands) {
  obs::LogLevel saved = obs::MinLogLevel();
  obs::SetMinLogLevel(obs::LogLevel::kError);
  int evaluations = 0;
  auto touch = [&]() {
    ++evaluations;
    return "x";
  };
  VS2_LOG(WARN) << touch();
  EXPECT_EQ(evaluations, 0);
  VS2_LOG(ERROR) << touch();
  EXPECT_EQ(evaluations, 1);
  obs::SetMinLogLevel(saved);
}

TEST(LogTest, CoreTypesStreamIntoLogs) {
  obs::LogLevel saved = obs::MinLogLevel();
  obs::SetMinLogLevel(obs::LogLevel::kInfo);
  LogCapture capture;
  VS2_LOG(INFO) << Status::InvalidArgument("bad width") << " at "
                << util::BBox{1.0, 2.0, 3.0, 4.0} << " color "
                << util::Lab{50.0, 10.0, -5.0};
  obs::SetMinLogLevel(saved);
  ASSERT_EQ(capture.lines.size(), 1u);
  const std::string& line = capture.lines[0];
  EXPECT_NE(line.find("InvalidArgument: bad width"), std::string::npos);
  EXPECT_NE(line.find("[x=1.0 y=2.0 w=3.0 h=4.0]"), std::string::npos);
  EXPECT_NE(line.find("Lab(50.0, 10.0, -5.0)"), std::string::npos);
}

TEST(LogTest, LevelNamesRoundTrip) {
  EXPECT_STREQ(obs::LogLevelName(obs::LogLevel::kDebug), "DEBUG");
  EXPECT_STREQ(obs::LogLevelName(obs::LogLevel::kInfo), "INFO");
  EXPECT_STREQ(obs::LogLevelName(obs::LogLevel::kWarn), "WARN");
  EXPECT_STREQ(obs::LogLevelName(obs::LogLevel::kError), "ERROR");
}

}  // namespace
}  // namespace vs2
