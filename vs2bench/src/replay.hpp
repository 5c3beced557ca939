#ifndef VS2BENCH_REPLAY_HPP_
#define VS2BENCH_REPLAY_HPP_

/// \file replay.hpp
/// The traced run's in-process replay: one request at a time, through the
/// same public layer functions, in the same order, as the fleet router, the
/// worker daemon and `Vs2::Process` call them. Each call is wrapped in a
/// span; the output must be byte-identical to the reference, which shows
/// the stage timing measures the real pipeline.

#include <string>

#include "core/pipeline.hpp"
#include "fleet/router.hpp"
#include "serve/cache.hpp"
#include "spans.hpp"

namespace vs2bench {

class Replayer {
 public:
  /// `router`: replay the fleet router's layers before the worker's.
  Replayer(const vs2::core::Vs2& vs2, bool router);

  /// The pipeline stages of `Vs2::Process` (triage off).
  vs2::Result<vs2::core::Vs2::DocResult> Pipeline(
      const vs2::doc::Document& doc, SpanRecorder& spans) const;

  /// One wire request line (no newline) through router (optional), worker
  /// and pipeline; returns the response line.
  std::string Serve(const std::string& line, SpanRecorder& spans,
                    uint32_t request);

  /// One in-process document through the pipeline and the response
  /// serializer.
  std::string Process(const vs2::doc::Document& doc, SpanRecorder& spans,
                      uint32_t request) const;

  /// Inserts a document's result into the worker cache without spans (the
  /// warm set's pre-fill).
  bool Prefill(const std::string& line);

  /// Starts over with an empty worker cache of the daemon's default size.
  void ResetCache();

 private:
  const vs2::core::Vs2& vs2_;
  bool router_;
  vs2::fleet::RouterOptions router_options_;
  std::unique_ptr<vs2::serve::ResultCache> cache_;
  std::string canonical_;
};

}  // namespace vs2bench

#endif  // VS2BENCH_REPLAY_HPP_
