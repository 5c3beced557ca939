#ifndef VS2_OBS_METRICS_HPP_
#define VS2_OBS_METRICS_HPP_

/// \file metrics.hpp
/// Process-wide metrics registry: named counters, gauges and fixed-bucket
/// latency histograms, plus the shared nearest-rank percentile helper used
/// by `core::BatchStats` and the bench harness.
///
/// **Cost model.** Instruments are cheap enough to leave on permanently:
/// an increment or histogram record is a handful of relaxed atomic ops with
/// no locking. The registry lookup (`Metrics::GetCounter` etc.) takes a
/// mutex, so hot call sites cache the returned reference in a function-local
/// static — one lookup per process, atomics thereafter. Registered
/// instruments live for the process lifetime; `ResetValues()` zeroes values
/// but never invalidates references.
///
/// **Snapshot.** `Metrics::SnapshotJson()` renders every instrument as one
/// JSON object (deterministic name order); `--metrics=FILE` on
/// `vs2_extract` and the table benches dumps it after a run.
///
/// **Windowed instruments.** `WindowedCounter`/`WindowedHistogram` add
/// rolling 10s/1m/5m views on top of the cumulative instruments: a ring of
/// 300 one-second slots, each tagged with the second it covers, recorded
/// into with the same relaxed-atomic discipline (no locks on the record
/// path). A slot is recycled by CAS-ing its epoch to the current second and
/// zeroing it; a recorder racing that zeroing at a second boundary can lose
/// its sample — bounded, monitoring-grade loss accepted by design (see
/// DESIGN.md §14). Window reads merge the slots whose epoch falls in
/// `(now - W, now]`, so they include the in-progress second.

#include <array>
#include <atomic>
#include <cstdint>
#include <string>
#include <vector>

#include "util/status.hpp"

namespace vs2::obs {

/// \brief Nearest-rank percentile of an already-sorted vector:
/// `sorted[llround(p * (n - 1))]`, `p` in [0, 1]. Returns 0 when empty.
/// The single definition of percentile semantics in the repo —
/// `BatchStats`, the bench harness and `Histogram` all agree with it.
double SortedPercentile(const std::vector<double>& sorted, double p);

/// As `SortedPercentile`, sorting a copy of `values` first.
double Percentile(std::vector<double> values, double p);

/// Monotonically increasing event counter. Increments are relaxed atomic
/// adds — safe from any thread, no ordering implied.
class Counter {
 public:
  explicit Counter(std::string name) : name_(std::move(name)) {}

  void Add(uint64_t n = 1) { value_.fetch_add(n, std::memory_order_relaxed); }
  uint64_t value() const { return value_.load(std::memory_order_relaxed); }
  const std::string& name() const { return name_; }
  void Reset() { value_.store(0, std::memory_order_relaxed); }

 private:
  std::string name_;
  std::atomic<uint64_t> value_{0};
};

/// Last-value-wins instantaneous measurement.
class Gauge {
 public:
  explicit Gauge(std::string name) : name_(std::move(name)) {}

  void Set(double v) { value_.store(v, std::memory_order_relaxed); }
  double value() const { return value_.load(std::memory_order_relaxed); }
  const std::string& name() const { return name_; }
  void Reset() { value_.store(0.0, std::memory_order_relaxed); }

 private:
  std::string name_;
  std::atomic<double> value_{0.0};
};

/// \brief Fixed-bucket histogram for latencies in milliseconds.
///
/// Buckets are shared by every histogram (`BucketBounds()`): exponential
/// upper bounds from 50 µs to 10 s plus an overflow bucket. A recorded
/// value `v` lands in the first bucket whose bound satisfies `v <= bound`.
/// Percentiles are nearest-rank over the bucket counts and return the
/// containing bucket's upper bound clamped to the observed [min, max] (the
/// max for the overflow bucket) — an estimate whose error is bounded by
/// bucket width and that never leaves the recorded range. Exact
/// sample-based percentiles, where the samples are available, use
/// `Percentile()` instead.
class Histogram {
 public:
  /// Bucket upper bounds in ms, ascending; values above the last bound go
  /// to the overflow bucket.
  static const std::vector<double>& BucketBounds();

  explicit Histogram(std::string name) : name_(std::move(name)) {}

  void Record(double value_ms);

  uint64_t count() const { return count_.load(std::memory_order_relaxed); }
  double sum() const { return sum_.load(std::memory_order_relaxed); }
  /// Observed extrema; 0 when no value has been recorded.
  double min() const;
  double max() const;
  /// Count in bucket `i` (`i == BucketBounds().size()` is the overflow
  /// bucket).
  uint64_t BucketCount(size_t i) const;
  /// Nearest-rank percentile estimate from the bucket counts, `p` in
  /// [0, 1]. Returns 0 when empty.
  double PercentileEstimate(double p) const;
  const std::string& name() const { return name_; }
  void Reset();

 private:
  // 17 finite buckets + 1 overflow; must match kBucketBoundsMs in the .cpp.
  static constexpr size_t kNumBuckets = 18;

  std::string name_;
  std::array<std::atomic<uint64_t>, kNumBuckets> buckets_{};
  std::atomic<uint64_t> count_{0};
  std::atomic<double> sum_{0.0};
  std::atomic<double> min_{0.0};  ///< valid only when count_ > 0
  std::atomic<double> max_{0.0};
};

/// Monotonic whole seconds since process start — the epoch domain of the
/// windowed instruments' `*At` methods. Tests pass synthetic epochs
/// instead; production call sites use the no-argument `Add`/`Record`.
int64_t MonotonicSeconds();

/// \brief Rolling-window event counter: a ring of 300 one-second slots.
/// `Add` is lock-free (one relaxed CAS at most per second boundary plus a
/// relaxed add); `CountInWindow`/`RateInWindow` merge the slots covering
/// the trailing `window_sec` seconds, including the in-progress second.
/// `window_sec` is clamped to `kMaxWindowSec`.
class WindowedCounter {
 public:
  static constexpr int64_t kMaxWindowSec = 300;

  explicit WindowedCounter(std::string name) : name_(std::move(name)) {}

  void Add(uint64_t n = 1) { AddAt(n, MonotonicSeconds()); }
  /// Deterministic-clock record path for tests.
  void AddAt(uint64_t n, int64_t now_sec);

  uint64_t CountInWindow(int64_t window_sec) const {
    return CountInWindowAt(window_sec, MonotonicSeconds());
  }
  uint64_t CountInWindowAt(int64_t window_sec, int64_t now_sec) const;
  double RateInWindowAt(int64_t window_sec, int64_t now_sec) const;

  const std::string& name() const { return name_; }
  /// Empties every window view immediately. Not linearizable against
  /// concurrent `Add`s (a racing add may survive or vanish).
  void Reset();

 private:
  static constexpr size_t kNumSlots = static_cast<size_t>(kMaxWindowSec);

  struct Slot {
    std::atomic<int64_t> epoch{-1};  ///< second this slot covers; -1 = empty
    std::atomic<uint64_t> count{0};
  };

  std::string name_;
  std::array<Slot, kNumSlots> slots_{};
};

/// \brief Rolling-window latency histogram: the `Histogram` bucket grid
/// replicated across a ring of 300 one-second slots. The record path is
/// lock-free and stays within the cumulative histogram's cost model (one
/// extra epoch check + the same bucket/sum/max relaxed atomics — see
/// `BM_WindowedHistogramRecord`). Window reads merge bucket counts across
/// the covered slots and derive nearest-rank percentile estimates with the
/// estimator `Histogram::PercentileEstimate` uses, clamped to the windowed
/// max (the slots record no minimum).
class WindowedHistogram {
 public:
  static constexpr int64_t kMaxWindowSec = 300;

  /// Aggregates over one trailing window.
  struct WindowStats {
    uint64_t count = 0;
    double sum = 0.0;
    double rate_per_sec = 0.0;
    double p50 = 0.0;
    double p95 = 0.0;
    double p99 = 0.0;
    double max = 0.0;
  };

  explicit WindowedHistogram(std::string name) : name_(std::move(name)) {}

  void Record(double value_ms) { RecordAt(value_ms, MonotonicSeconds()); }
  /// Deterministic-clock record path for tests.
  void RecordAt(double value_ms, int64_t now_sec);

  WindowStats StatsInWindow(int64_t window_sec) const {
    return StatsInWindowAt(window_sec, MonotonicSeconds());
  }
  WindowStats StatsInWindowAt(int64_t window_sec, int64_t now_sec) const;

  const std::string& name() const { return name_; }
  /// Empties every window view immediately (same caveat as
  /// `WindowedCounter::Reset`).
  void Reset();

 private:
  static constexpr size_t kNumSlots = static_cast<size_t>(kMaxWindowSec);
  // Mirrors Histogram's 17 finite buckets + overflow (static_asserted in
  // the .cpp against the shared bound table).
  static constexpr size_t kNumBuckets = 18;

  struct Slot {
    std::atomic<int64_t> epoch{-1};  ///< second this slot covers; -1 = empty
    std::array<std::atomic<uint64_t>, kNumBuckets> buckets{};
    std::atomic<uint64_t> count{0};
    std::atomic<double> sum{0.0};
    std::atomic<double> max{0.0};
  };

  std::string name_;
  std::array<Slot, kNumSlots> slots_{};
};

/// Static registry facade. Instruments are created on first lookup and
/// never destroyed; callers cache the references.
class Metrics {
 public:
  static Counter& GetCounter(const std::string& name);
  static Gauge& GetGauge(const std::string& name);
  static Histogram& GetHistogram(const std::string& name);
  static WindowedCounter& GetWindowedCounter(const std::string& name);
  static WindowedHistogram& GetWindowedHistogram(const std::string& name);

  /// One JSON object with every registered instrument:
  /// `{"counters":{...},"gauges":{...},"histograms":{...},
  /// "windowed_counters":{...},"windowed_histograms":{...}}`, names in
  /// lexicographic order; windowed sections carry `"10s"`/`"1m"`/`"5m"`
  /// sub-objects.
  static std::string SnapshotJson();

  /// Writes `SnapshotJson()` to `path`.
  static Status ExportJson(const std::string& path);

  /// Zeroes every instrument's value, including the windowed instruments'
  /// rings (their window views read empty immediately afterwards — the
  /// contract `bench_serve_load` relies on between regimes). References
  /// stay valid.
  static void ResetValues();
};

}  // namespace vs2::obs

#endif  // VS2_OBS_METRICS_HPP_
