#include "spans.hpp"

#include <cstdio>

namespace vs2bench {

SpanRecorder::Scope::Scope(SpanRecorder& recorder, const char* name,
                           uint32_t request)
    : recorder_(recorder) {
  if (!recorder_.enabled_) return;
  index_ = static_cast<int32_t>(recorder_.spans_.size());
  uint32_t id = recorder_.open_ >= 0
                    ? recorder_.spans_[recorder_.open_].request
                    : request;
  recorder_.spans_.push_back({name, 0.0, 0.0, recorder_.open_, id});
  recorder_.open_ = index_;
  // Read the clock last, so the bookkeeping above is outside the span.
  recorder_.spans_[index_].start = Now();
}

SpanRecorder::Scope::~Scope() {
  if (index_ < 0) return;
  double end = Now();
  Span& span = recorder_.spans_[index_];
  span.end = end;
  recorder_.open_ = span.parent;
}

void SpanRecorder::AddRoot(const char* name, double start, double end,
                           uint32_t request) {
  if (enabled_) spans_.push_back({name, start, end, -1, request});
}

bool SpanRecorder::WriteChromeTrace(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  double origin = spans_.empty() ? 0.0 : spans_.front().start;
  std::fputs("{\"traceEvents\":[", f);
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(f,
                 "%s{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":1,"
                 "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"request\":%u,"
                 "\"parent\":%d}}\n",
                 i == 0 ? "" : ",", s.name, (s.start - origin) * 1e6,
                 (s.end - s.start) * 1e6, s.request, s.parent);
  }
  std::fputs("]}\n", f);
  return std::fclose(f) == 0;
}

void AddPass(const std::vector<SpanRecorder::Span>& spans, size_t requests,
             TraceSummary* out) {
  std::vector<double> child_ms(spans.size(), 0.0);
  for (const SpanRecorder::Span& s : spans) {
    if (s.parent >= 0) child_ms[s.parent] += (s.end - s.start) * 1e3;
  }
  TraceSummary& summary = *out;
  ++summary.passes;
  summary.request_ms.resize(requests, 0.0);
  for (size_t i = 0; i < spans.size(); ++i) {
    const SpanRecorder::Span& s = spans[i];
    double total_ms = (s.end - s.start) * 1e3;
    double self_ms = total_ms - child_ms[i];
    std::string name = s.name;
    if (name == kRequestSpan) {
      summary.request_total_ms += total_ms;
      summary.unattributed_ms += self_ms;
      if (s.request < requests) summary.request_ms[s.request] += total_ms;
      continue;
    }
    LayerTimes& layer = summary.layers[name];
    ++layer.calls;
    layer.self_ms.push_back(self_ms);
    layer.self_total_ms += self_ms;
  }
}

}  // namespace vs2bench
