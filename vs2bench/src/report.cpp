#include "report.hpp"

#include <cmath>
#include <cstdio>

namespace vs2bench {

void Report::Metric(const std::string& name, double value,
                    const std::string& unit, long long samples) {
  if (!std::isfinite(value)) {
    Invalid("metric " + name + " is not finite");
    value = 0.0;
  }
  metrics_.push_back({name, value, unit});
  if (samples >= 0) {
    std::printf("metric %-34s %14.6f %-6s (n=%lld)\n", name.c_str(), value,
                unit.c_str(), samples);
  } else {
    std::printf("metric %-34s %14.6f %s\n", name.c_str(), value, unit.c_str());
  }
  std::fflush(stdout);
}

void Report::Info(const std::string& name, double value,
                  const std::string& unit, long long samples) {
  if (samples >= 0) {
    std::printf("info   %-34s %14.6f %-6s (n=%lld, not in the result line)\n",
                name.c_str(), value, unit.c_str(), samples);
  } else {
    std::printf("info   %-34s %14.6f %-6s (not in the result line)\n",
                name.c_str(), value, unit.c_str());
  }
  std::fflush(stdout);
}

void Report::Note(const std::string& text) {
  std::printf("note   %s\n", text.c_str());
  std::fflush(stdout);
}

void Report::Incorrect(const std::string& reason) {
  correct_ = false;
  std::printf("ERROR  %s\n", reason.c_str());
  std::fflush(stdout);
}

void Report::Invalid(const std::string& reason) {
  correct_ = false;
  std::printf("INVALID %s\n", reason.c_str());
  std::fflush(stdout);
}

void Report::Count(uint64_t attempted, uint64_t failed,
                   const std::string& what) {
  attempted_ += attempted;
  failed_ += failed;
  if (failed > 0) {
    Incorrect(what + ": " + std::to_string(failed) + " of " +
              std::to_string(attempted) + " failed");
  }
}

std::string Report::Json() const {
  std::string out = "{\"correct\": ";
  out += correct_ ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted_);
  out += ", \"failed\": " + std::to_string(failed_);
  out += ", \"metrics\": {";
  char buf[64];
  for (size_t i = 0; i < metrics_.size(); ++i) {
    std::snprintf(buf, sizeof(buf), "%.17g", metrics_[i].value);
    out += (i == 0 ? "\"" : ", \"") + metrics_[i].name + "\": {\"value\": " +
           buf + ", \"unit\": \"" + metrics_[i].unit + "\"}";
  }
  out += "}}";
  return out;
}

}  // namespace vs2bench
