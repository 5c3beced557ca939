#ifndef VS2BENCH_REPORT_HPP_
#define VS2BENCH_REPORT_HPP_

/// \file report.hpp
/// What one run prints: a human-readable line per metric (name, value,
/// unit, sample count) and, as the last line of stdout, one JSON object
/// `{"correct":...,"attempted":...,"failed":...,"metrics":{...}}`.

#include <cstdint>
#include <string>
#include <vector>

namespace vs2bench {

class Report {
 public:
  /// Records a metric for the JSON line and prints it. `samples` < 0 means
  /// the value is not a statistic over samples.
  void Metric(const std::string& name, double value, const std::string& unit,
              long long samples = -1);
  /// Prints a measured value like a metric but leaves it out of the JSON
  /// line, because it is not steady enough on a shared machine to carry a
  /// bound.
  void Info(const std::string& name, double value, const std::string& unit,
            long long samples);
  /// Prints an informational line that is not a metric.
  void Note(const std::string& text);
  /// Marks the run incorrect (a wrong or missing output) with a reason.
  void Incorrect(const std::string& reason);
  /// Marks the run invalid (its measurement cannot be trusted).
  void Invalid(const std::string& reason);

  void Count(uint64_t attempted, uint64_t failed, const std::string& what);

  bool correct() const { return correct_; }
  uint64_t attempted() const { return attempted_; }
  uint64_t failed() const { return failed_; }

  /// The final JSON line.
  std::string Json() const;

 private:
  struct Entry {
    std::string name;
    double value;
    std::string unit;
  };
  std::vector<Entry> metrics_;
  bool correct_ = true;
  uint64_t attempted_ = 0;
  uint64_t failed_ = 0;
};

}  // namespace vs2bench

#endif  // VS2BENCH_REPORT_HPP_
