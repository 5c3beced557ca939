#include "replay.hpp"

#include "core/interest_points.hpp"
#include "core/segmenter.hpp"
#include "core/select.hpp"
#include "datasets/pretrained.hpp"
#include "doc/serialization.hpp"
#include "ocr/ocr.hpp"
#include "serve/content_address.hpp"
#include "serve/service.hpp"
#include "triage/features.hpp"

namespace vs2bench {
namespace {

// Results the replay computes only for their cost; stored so no call can
// be optimized away.
volatile uint64_t g_sink = 0;

}  // namespace

Replayer::Replayer(const vs2::core::Vs2& vs2, bool router)
    : vs2_(vs2), router_(router) {
  ResetCache();
}

void Replayer::ResetCache() {
  vs2::serve::ServiceOptions defaults;
  vs2::serve::ResultCache::Options options;
  options.capacity = defaults.cache_entries;
  options.ttl_seconds = defaults.cache_ttl_seconds;
  cache_ = std::make_unique<vs2::serve::ResultCache>(options);
}

vs2::Result<vs2::core::Vs2::DocResult> Replayer::Pipeline(
    const vs2::doc::Document& doc, SpanRecorder& spans) const {
  const vs2::core::PipelineConfig& config = vs2_.config();
  const vs2::embed::Embedding& embedding = vs2::datasets::PretrainedEmbedding();
  vs2::core::Vs2::DocResult result;
  {
    SpanRecorder::Scope span(spans, "ocr.transcribe");
    result.observed =
        config.simulate_ocr ? vs2::ocr::Transcribe(doc, config.ocr) : doc;
  }
  {
    SpanRecorder::Scope span(spans, "core.segment");
    auto tree =
        vs2::core::Segment(result.observed, embedding, config.segmenter);
    if (!tree.ok()) return tree.status();
    result.tree = *std::move(tree);
  }
  {
    SpanRecorder::Scope span(spans, "core.interest_points");
    result.interest_points = vs2::core::SelectInterestPoints(
        result.observed, result.tree, embedding);
  }
  {
    SpanRecorder::Scope span(spans, "core.select");
    result.extractions = vs2::core::SelectEntities(
        result.observed, result.tree, vs2_.pattern_book(), vs2_.entity_specs(),
        embedding, config.select);
  }
  return result;
}

std::string Replayer::Process(const vs2::doc::Document& doc,
                              SpanRecorder& spans, uint32_t request) const {
  SpanRecorder::Scope root(spans, kRequestSpan, request);
  auto result = Pipeline(doc, spans);
  SpanRecorder::Scope span(spans, "doc.extractions_to_json");
  return result.ok() ? vs2::doc::ExtractionsToJson(*result)
                     : vs2::doc::ErrorToJson("<request>", result.status());
}

std::string Replayer::Serve(const std::string& line, SpanRecorder& spans,
                            uint32_t request) {
  SpanRecorder::Scope root(spans, kRequestSpan, request);
  if (router_) {
    // fleet::Router::RouteDocument: parse, address, triage statistics.
    auto parsed = Timed(spans, "doc.from_json",
                        [&] { return vs2::doc::FromJson(line); });
    if (!parsed.ok()) return "router: " + parsed.status().ToString();
    {
      SpanRecorder::Scope span(spans, "serve.content_address");
      g_sink = g_sink + vs2::serve::ContentAddress(*parsed);
    }
    {
      SpanRecorder::Scope span(spans, "triage.classify");
      vs2::triage::Lane lane = vs2::triage::RouteFeatures(
          vs2::triage::ComputeTriageFeatures(
              *parsed, router_options_.triage.grid_scale),
          router_options_.triage);
      g_sink = g_sink + static_cast<uint64_t>(lane);
    }
  }
  // serve::Daemon::HandleDocument, then ExtractionService::RunAdmitted.
  auto parsed = Timed(spans, "doc.from_json",
                      [&] { return vs2::doc::FromJson(line); });
  if (!parsed.ok()) return "worker: " + parsed.status().ToString();
  uint64_t hash = 0;
  {
    SpanRecorder::Scope span(spans, "serve.content_address");
    canonical_.clear();
    hash = vs2::serve::ContentAddressInto(*parsed, &canonical_);
  }
  vs2::core::Vs2::DocResult result;
  bool hit = false;
  {
    SpanRecorder::Scope span(spans, "serve.cache.get");
    if (vs2::serve::ResultCache::Value value =
            cache_->Get(hash, canonical_, Now())) {
      result = *value;  // the service copies a hit out the same way
      hit = true;
    }
  }
  if (!hit) {
    auto processed = Pipeline(*parsed, spans);
    if (!processed.ok()) {
      SpanRecorder::Scope span(spans, "doc.extractions_to_json");
      return vs2::doc::ErrorToJson("<request>", processed.status());
    }
    result = *std::move(processed);
    SpanRecorder::Scope span(spans, "serve.cache.put");
    cache_->Put(hash, canonical_,
                std::make_shared<const vs2::core::Vs2::DocResult>(result),
                Now());
  }
  SpanRecorder::Scope span(spans, "doc.extractions_to_json");
  return vs2::doc::ExtractionsToJson(result);
}

bool Replayer::Prefill(const std::string& line) {
  auto parsed = vs2::doc::FromJson(line);
  if (!parsed.ok()) return false;
  canonical_.clear();
  uint64_t hash = vs2::serve::ContentAddressInto(*parsed, &canonical_);
  SpanRecorder off(false);
  auto result = Pipeline(*parsed, off);
  if (!result.ok()) return false;
  cache_->Put(hash, canonical_,
              std::make_shared<const vs2::core::Vs2::DocResult>(*result),
              Now());
  return true;
}

}  // namespace vs2bench
