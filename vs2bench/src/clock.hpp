#ifndef VS2BENCH_CLOCK_HPP_
#define VS2BENCH_CLOCK_HPP_

/// \file clock.hpp
/// Time and percentile helpers shared by every part of the benchmark.

#include <algorithm>
#include <chrono>
#include <cmath>
#include <vector>

namespace vs2bench {

using Clock = std::chrono::steady_clock;

/// Seconds on the steady clock (arbitrary epoch, monotonic).
inline double Now() {
  return std::chrono::duration<double>(Clock::now().time_since_epoch())
      .count();
}

/// Nearest-rank percentile of `values` (sorted in place); 0 when empty.
/// Nearest-rank keeps every reported value one that was actually measured.
inline double Percentile(std::vector<double>& values, double p) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  double rank = std::ceil(p * static_cast<double>(values.size()));
  size_t index = rank < 1.0 ? 0 : static_cast<size_t>(rank) - 1;
  return values[std::min(index, values.size() - 1)];
}

/// Median of a copy of `values`.
inline double Median(std::vector<double> values) {
  return Percentile(values, 0.5);
}

/// Busy-waits (no sleep, so the CPU stays occupied) for `seconds`.
inline void BusyWait(double seconds) {
  double until = Now() + seconds;
  while (Now() < until) {
  }
}

}  // namespace vs2bench

#endif  // VS2BENCH_CLOCK_HPP_
