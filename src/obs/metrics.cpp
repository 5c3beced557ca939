#include "obs/metrics.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <ctime>
#include <map>
#include <memory>

#include "util/strings.hpp"
#include "util/sync.hpp"

namespace vs2::obs {
namespace {

/// Shared bucket grid: sub-millisecond resolution where pipeline stages
/// live, decade steps above. 17 finite bounds + overflow = kNumBuckets.
constexpr double kBucketBoundsMs[] = {0.05, 0.1,  0.25, 0.5,  1.0,   2.5,
                                      5.0,  10.0, 25.0, 50.0, 100.0, 250.0,
                                      500.0, 1000.0, 2500.0, 5000.0, 10000.0};
constexpr size_t kNumFiniteBuckets =
    sizeof(kBucketBoundsMs) / sizeof(kBucketBoundsMs[0]);

/// Name-keyed instrument store. std::map keeps snapshot order
/// deterministic; instruments are never erased, so references handed out by
/// `GetOrCreate` stay valid for the process lifetime.
template <typename T>
class NamedRegistry {
 public:
  T& GetOrCreate(const std::string& name) {
    sync::MutexLock lock(&mu_);
    std::unique_ptr<T>& slot = items_[name];
    if (slot == nullptr) slot = std::make_unique<T>(name);
    return *slot;
  }

  template <typename Fn>
  void ForEach(Fn fn) {
    sync::MutexLock lock(&mu_);
    for (const auto& [name, item] : items_) fn(*item);
  }

 private:
  sync::Mutex mu_{"obs.metrics.registry"};
  std::map<std::string, std::unique_ptr<T>> items_ VS2_GUARDED_BY(mu_);
};

// Leaked singletons: instrument references must outlive any static
// destructor that might still record.
NamedRegistry<Counter>& Counters() {
  static NamedRegistry<Counter>* r = new NamedRegistry<Counter>;
  return *r;
}
NamedRegistry<Gauge>& Gauges() {
  static NamedRegistry<Gauge>* r = new NamedRegistry<Gauge>;
  return *r;
}
NamedRegistry<Histogram>& Histograms() {
  static NamedRegistry<Histogram>* r = new NamedRegistry<Histogram>;
  return *r;
}
NamedRegistry<WindowedCounter>& WindowedCounters() {
  static NamedRegistry<WindowedCounter>* r = new NamedRegistry<WindowedCounter>;
  return *r;
}
NamedRegistry<WindowedHistogram>& WindowedHistograms() {
  static NamedRegistry<WindowedHistogram>* r =
      new NamedRegistry<WindowedHistogram>;
  return *r;
}

/// The windows every snapshot renders, smallest first.
constexpr struct {
  int64_t sec;
  const char* label;
} kSnapshotWindows[] = {{10, "10s"}, {60, "1m"}, {300, "5m"}};

/// First bucket whose bound catches `value_ms`, else the overflow bucket.
size_t BucketIndex(double value_ms) {
  for (size_t i = 0; i < kNumFiniteBuckets; ++i) {
    if (value_ms <= kBucketBoundsMs[i]) return i;
  }
  return kNumFiniteBuckets;
}

/// Nearest-rank percentile over the bucket counts of `n` samples
/// (`counts[kNumFiniteBuckets]` is the overflow bucket), consistent with
/// SortedPercentile: the upper bound of the rank's bucket, clamped to the
/// observed [`lo`, `hi`] so no estimate leaves the recorded range. The
/// overflow bucket resolves to `hi`. Shared by Histogram and
/// WindowedHistogram.
double BucketPercentile(const uint64_t* counts, uint64_t n, double p,
                        double lo, double hi) {
  if (n == 0) return 0.0;
  uint64_t rank =
      static_cast<uint64_t>(std::llround(p * static_cast<double>(n - 1)));
  rank = std::min(rank, n - 1);
  uint64_t cumulative = 0;
  for (size_t i = 0; i < kNumFiniteBuckets; ++i) {
    cumulative += counts[i];
    if (cumulative > rank) {
      return std::min(std::max(kBucketBoundsMs[i], lo), hi);
    }
  }
  return hi;
}

/// Lock-free running min/max via compare-exchange.
void AtomicMin(std::atomic<double>* slot, double v) {
  double cur = slot->load(std::memory_order_relaxed);
  while (v < cur &&
         !slot->compare_exchange_weak(cur, v, std::memory_order_relaxed)) {
  }
}
void AtomicMax(std::atomic<double>* slot, double v) {
  double cur = slot->load(std::memory_order_relaxed);
  while (v > cur &&
         !slot->compare_exchange_weak(cur, v, std::memory_order_relaxed)) {
  }
}

/// %g rendering without trailing noise for JSON values.
std::string Num(double v) { return util::Format("%g", v); }

}  // namespace

double SortedPercentile(const std::vector<double>& sorted, double p) {
  if (sorted.empty()) return 0.0;
  double rank = p * static_cast<double>(sorted.size() - 1);
  size_t idx = static_cast<size_t>(std::llround(rank));
  return sorted[std::min(idx, sorted.size() - 1)];
}

double Percentile(std::vector<double> values, double p) {
  std::sort(values.begin(), values.end());
  return SortedPercentile(values, p);
}

const std::vector<double>& Histogram::BucketBounds() {
  static const std::vector<double> bounds(kBucketBoundsMs,
                                          kBucketBoundsMs + kNumFiniteBuckets);
  return bounds;
}

void Histogram::Record(double value_ms) {
  size_t bucket = kNumFiniteBuckets;  // overflow unless a bound catches it
  for (size_t i = 0; i < kNumFiniteBuckets; ++i) {
    if (value_ms <= kBucketBoundsMs[i]) {
      bucket = i;
      break;
    }
  }
  buckets_[bucket].fetch_add(1, std::memory_order_relaxed);
  sum_.fetch_add(value_ms, std::memory_order_relaxed);
  // First-record initialization of the extrema: claim count 0 -> 1 decides
  // who seeds them; racing later records only tighten via AtomicMin/Max.
  if (count_.fetch_add(1, std::memory_order_relaxed) == 0) {
    min_.store(value_ms, std::memory_order_relaxed);
    max_.store(value_ms, std::memory_order_relaxed);
  }
  AtomicMin(&min_, value_ms);
  AtomicMax(&max_, value_ms);
}

double Histogram::min() const {
  return count() == 0 ? 0.0 : min_.load(std::memory_order_relaxed);
}

double Histogram::max() const {
  return count() == 0 ? 0.0 : max_.load(std::memory_order_relaxed);
}

uint64_t Histogram::BucketCount(size_t i) const {
  return i < kNumBuckets ? buckets_[i].load(std::memory_order_relaxed) : 0;
}

double Histogram::PercentileEstimate(double p) const {
  uint64_t counts[kNumBuckets];
  for (size_t i = 0; i < kNumBuckets; ++i) counts[i] = BucketCount(i);
  return BucketPercentile(counts, count(), p, min(), max());
}

void Histogram::Reset() {
  for (auto& b : buckets_) b.store(0, std::memory_order_relaxed);
  count_.store(0, std::memory_order_relaxed);
  sum_.store(0.0, std::memory_order_relaxed);
  min_.store(0.0, std::memory_order_relaxed);
  max_.store(0.0, std::memory_order_relaxed);
}

int64_t MonotonicSeconds() {
#if defined(__linux__)
  // CLOCK_MONOTONIC_COARSE is a VDSO read of the last-tick timestamp —
  // several times cheaper than steady_clock's rdtsc path and still
  // millisecond-accurate, far inside the one-second slot resolution. The
  // clock read is what keeps the windowed record path inside its <2x
  // budget over the plain histogram (BM_WindowedHistogramRecord).
  struct timespec ts;
  if (clock_gettime(CLOCK_MONOTONIC_COARSE, &ts) == 0) {
    static const int64_t epoch = ts.tv_sec;
    return static_cast<int64_t>(ts.tv_sec) - epoch;
  }
#endif
  static const std::chrono::steady_clock::time_point epoch =
      std::chrono::steady_clock::now();
  return std::chrono::duration_cast<std::chrono::seconds>(
             std::chrono::steady_clock::now() - epoch)
      .count();
}

void WindowedCounter::AddAt(uint64_t n, int64_t now_sec) {
  if (now_sec < 0) return;
  Slot& slot = slots_[static_cast<size_t>(now_sec) % kNumSlots];
  int64_t epoch = slot.epoch.load(std::memory_order_relaxed);
  if (epoch != now_sec) {
    // CAS winner recycles the slot for the new second; a racing add landing
    // between the CAS and the zeroing can be lost (documented design).
    if (slot.epoch.compare_exchange_strong(epoch, now_sec,
                                           std::memory_order_relaxed)) {
      slot.count.store(0, std::memory_order_relaxed);
    }
  }
  slot.count.fetch_add(n, std::memory_order_relaxed);
}

uint64_t WindowedCounter::CountInWindowAt(int64_t window_sec,
                                          int64_t now_sec) const {
  window_sec = std::clamp<int64_t>(window_sec, 1, kMaxWindowSec);
  uint64_t total = 0;
  for (const Slot& slot : slots_) {
    int64_t epoch = slot.epoch.load(std::memory_order_relaxed);
    if (epoch >= 0 && epoch > now_sec - window_sec && epoch <= now_sec) {
      total += slot.count.load(std::memory_order_relaxed);
    }
  }
  return total;
}

double WindowedCounter::RateInWindowAt(int64_t window_sec,
                                       int64_t now_sec) const {
  window_sec = std::clamp<int64_t>(window_sec, 1, kMaxWindowSec);
  return static_cast<double>(CountInWindowAt(window_sec, now_sec)) /
         static_cast<double>(window_sec);
}

void WindowedCounter::Reset() {
  for (Slot& slot : slots_) {
    slot.epoch.store(-1, std::memory_order_relaxed);
    slot.count.store(0, std::memory_order_relaxed);
  }
}

void WindowedHistogram::RecordAt(double value_ms, int64_t now_sec) {
  static_assert(kNumBuckets == kNumFiniteBuckets + 1,
                "windowed slot grid must mirror the Histogram bucket table");
  if (now_sec < 0) return;
  Slot& slot = slots_[static_cast<size_t>(now_sec) % kNumSlots];
  int64_t epoch = slot.epoch.load(std::memory_order_relaxed);
  if (epoch != now_sec) {
    if (slot.epoch.compare_exchange_strong(epoch, now_sec,
                                           std::memory_order_relaxed)) {
      for (auto& b : slot.buckets) b.store(0, std::memory_order_relaxed);
      slot.count.store(0, std::memory_order_relaxed);
      slot.sum.store(0.0, std::memory_order_relaxed);
      slot.max.store(0.0, std::memory_order_relaxed);
    }
  }
  slot.buckets[BucketIndex(value_ms)].fetch_add(1, std::memory_order_relaxed);
  slot.count.fetch_add(1, std::memory_order_relaxed);
  slot.sum.fetch_add(value_ms, std::memory_order_relaxed);
  AtomicMax(&slot.max, value_ms);
}

WindowedHistogram::WindowStats WindowedHistogram::StatsInWindowAt(
    int64_t window_sec, int64_t now_sec) const {
  window_sec = std::clamp<int64_t>(window_sec, 1, kMaxWindowSec);
  uint64_t merged[kNumBuckets] = {};
  WindowStats stats;
  for (const Slot& slot : slots_) {
    int64_t epoch = slot.epoch.load(std::memory_order_relaxed);
    if (epoch < 0 || epoch <= now_sec - window_sec || epoch > now_sec) {
      continue;
    }
    for (size_t i = 0; i < kNumBuckets; ++i) {
      merged[i] += slot.buckets[i].load(std::memory_order_relaxed);
    }
    stats.count += slot.count.load(std::memory_order_relaxed);
    stats.sum += slot.sum.load(std::memory_order_relaxed);
    stats.max = std::max(stats.max, slot.max.load(std::memory_order_relaxed));
  }
  stats.rate_per_sec =
      static_cast<double>(stats.count) / static_cast<double>(window_sec);
  // The windowed slots record no minimum, so only the max clamps.
  stats.p50 = BucketPercentile(merged, stats.count, 0.50, 0.0, stats.max);
  stats.p95 = BucketPercentile(merged, stats.count, 0.95, 0.0, stats.max);
  stats.p99 = BucketPercentile(merged, stats.count, 0.99, 0.0, stats.max);
  return stats;
}

void WindowedHistogram::Reset() {
  for (Slot& slot : slots_) {
    slot.epoch.store(-1, std::memory_order_relaxed);
    for (auto& b : slot.buckets) b.store(0, std::memory_order_relaxed);
    slot.count.store(0, std::memory_order_relaxed);
    slot.sum.store(0.0, std::memory_order_relaxed);
    slot.max.store(0.0, std::memory_order_relaxed);
  }
}

Counter& Metrics::GetCounter(const std::string& name) {
  return Counters().GetOrCreate(name);
}

Gauge& Metrics::GetGauge(const std::string& name) {
  return Gauges().GetOrCreate(name);
}

Histogram& Metrics::GetHistogram(const std::string& name) {
  return Histograms().GetOrCreate(name);
}

WindowedCounter& Metrics::GetWindowedCounter(const std::string& name) {
  return WindowedCounters().GetOrCreate(name);
}

WindowedHistogram& Metrics::GetWindowedHistogram(const std::string& name) {
  return WindowedHistograms().GetOrCreate(name);
}

std::string Metrics::SnapshotJson() {
  std::string out = "{\"counters\":{";
  bool first = true;
  Counters().ForEach([&](Counter& c) {
    if (!first) out.push_back(',');
    first = false;
    out += util::Format("\"%s\":%llu", c.name().c_str(),
                        static_cast<unsigned long long>(c.value()));
  });
  out += "},\"gauges\":{";
  first = true;
  Gauges().ForEach([&](Gauge& g) {
    if (!first) out.push_back(',');
    first = false;
    out += util::Format("\"%s\":%s", g.name().c_str(), Num(g.value()).c_str());
  });
  out += "},\"histograms\":{";
  first = true;
  Histograms().ForEach([&](Histogram& h) {
    if (!first) out.push_back(',');
    first = false;
    out += util::Format(
        "\"%s\":{\"count\":%llu,\"sum\":%s,\"min\":%s,\"max\":%s,"
        "\"p50\":%s,\"p95\":%s,\"p99\":%s,\"buckets\":{",
        h.name().c_str(), static_cast<unsigned long long>(h.count()),
        Num(h.sum()).c_str(), Num(h.min()).c_str(), Num(h.max()).c_str(),
        Num(h.PercentileEstimate(0.50)).c_str(),
        Num(h.PercentileEstimate(0.95)).c_str(),
        Num(h.PercentileEstimate(0.99)).c_str());
    const std::vector<double>& bounds = Histogram::BucketBounds();
    bool first_bucket = true;
    for (size_t i = 0; i < bounds.size(); ++i) {
      uint64_t n = h.BucketCount(i);
      if (n == 0) continue;
      if (!first_bucket) out.push_back(',');
      first_bucket = false;
      out += util::Format("\"%s\":%llu", Num(bounds[i]).c_str(),
                          static_cast<unsigned long long>(n));
    }
    out += util::Format("},\"overflow\":%llu}",
                        static_cast<unsigned long long>(
                            h.BucketCount(bounds.size())));
  });
  int64_t now_sec = MonotonicSeconds();
  out += "},\"windowed_counters\":{";
  first = true;
  WindowedCounters().ForEach([&](WindowedCounter& c) {
    if (!first) out.push_back(',');
    first = false;
    out += util::Format("\"%s\":{", c.name().c_str());
    bool first_window = true;
    for (const auto& w : kSnapshotWindows) {
      if (!first_window) out.push_back(',');
      first_window = false;
      out += util::Format(
          "\"%s\":{\"count\":%llu,\"rate_per_sec\":%s}", w.label,
          static_cast<unsigned long long>(c.CountInWindowAt(w.sec, now_sec)),
          Num(c.RateInWindowAt(w.sec, now_sec)).c_str());
    }
    out.push_back('}');
  });
  out += "},\"windowed_histograms\":{";
  first = true;
  WindowedHistograms().ForEach([&](WindowedHistogram& h) {
    if (!first) out.push_back(',');
    first = false;
    out += util::Format("\"%s\":{", h.name().c_str());
    bool first_window = true;
    for (const auto& w : kSnapshotWindows) {
      if (!first_window) out.push_back(',');
      first_window = false;
      WindowedHistogram::WindowStats stats = h.StatsInWindowAt(w.sec, now_sec);
      out += util::Format(
          "\"%s\":{\"count\":%llu,\"rate_per_sec\":%s,\"sum\":%s,"
          "\"max\":%s,\"p50\":%s,\"p95\":%s,\"p99\":%s}",
          w.label, static_cast<unsigned long long>(stats.count),
          Num(stats.rate_per_sec).c_str(), Num(stats.sum).c_str(),
          Num(stats.max).c_str(), Num(stats.p50).c_str(),
          Num(stats.p95).c_str(), Num(stats.p99).c_str());
    }
    out.push_back('}');
  });
  out += "}}";
  return out;
}

Status Metrics::ExportJson(const std::string& path) {
  std::string json = SnapshotJson();
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    return Status::InvalidArgument("cannot open metrics file: " + path);
  }
  size_t written = std::fwrite(json.data(), 1, json.size(), f);
  bool closed = std::fclose(f) == 0;
  if (written != json.size() || !closed) {
    return Status::Internal("short write to metrics file: " + path);
  }
  return Status::OK();
}

void Metrics::ResetValues() {
  Counters().ForEach([](Counter& c) { c.Reset(); });
  Gauges().ForEach([](Gauge& g) { g.Reset(); });
  Histograms().ForEach([](Histogram& h) { h.Reset(); });
  WindowedCounters().ForEach([](WindowedCounter& c) { c.Reset(); });
  WindowedHistograms().ForEach([](WindowedHistogram& h) { h.Reset(); });
}

}  // namespace vs2::obs
