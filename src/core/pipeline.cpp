#include "core/pipeline.hpp"

#include "check/audit.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace vs2::core {

PipelineConfig DefaultConfigFor(doc::DatasetId dataset) {
  PipelineConfig config;
  config.select.weights = MultimodalWeights::ForDataset(dataset);
  return config;
}

Vs2::Vs2(doc::DatasetId dataset, const embed::Embedding& embedding,
         PipelineConfig config)
    : dataset_(dataset),
      embedding_(embedding),
      config_(std::move(config)),
      specs_(datasets::EntitySpecsFor(dataset)) {
  datasets::HoldoutCorpus holdout;
  {
    obs::Span span("vs2.build_holdout");
    holdout = datasets::BuildHoldoutCorpus(dataset, config_.holdout_seed);
  }
  {
    obs::Span span("vs2.learn_patterns");
    book_ = LearnPatterns(holdout, config_.learner);
  }
}

Result<doc::LayoutTree> Vs2::SegmentOnly(const doc::Document& observed) const {
  VS2_ASSIGN_OR_RETURN(doc::LayoutTree tree,
                       Segment(observed, embedding_, config_.segmenter));
  if (check::AuditsEnabled()) {
    check::LayoutTreeAuditOptions audit_options;
    // Semantic merging replaces two leaves at `max_depth` with a merged
    // child one level below them.
    audit_options.max_depth = config_.segmenter.max_depth + 1;
    VS2_RETURN_IF_ERROR(check::AuditLayoutTree(tree, observed, audit_options)
                            .ToStatus("vs2.segment.layout_tree"));
  }
  return tree;
}

Result<Vs2::DocResult> Vs2::Process(const doc::Document& doc,
                                    const StageCheckpoint& checkpoint) const {
  // Stage latencies always feed the registry (a clock read per stage); the
  // same spans land in the trace only when tracing is on. The whole-pipeline
  // span additionally feeds the rolling-window view behind `{"cmd":"stats"}`.
  static obs::Histogram& process_ms =
      obs::Metrics::GetHistogram("vs2.process_ms");
  static obs::WindowedHistogram& process_windowed =
      obs::Metrics::GetWindowedHistogram("vs2.process");
  static obs::Counter& documents = obs::Metrics::GetCounter("vs2.documents");
  static obs::WindowedCounter& documents_windowed =
      obs::Metrics::GetWindowedCounter("vs2.documents");
  obs::Span process_span("vs2.process", &process_ms, &process_windowed);
  documents.Add(1);
  documents_windowed.Add(1);

  DocResult result;
  if (config_.triage.mode != triage::TriageMode::kOff) {
    // Pre-classification (DESIGN.md §16): a coarse-grid feature pass routes
    // the document before any expensive stage runs. The histogram's lowest
    // bucket starts at 50µs — the classifier's whole budget — so a healthy
    // deployment shows every sample in bucket zero.
    static obs::Histogram& classify_ms =
        obs::Metrics::GetHistogram("triage.classify_ms");
    static obs::Counter* lane_totals[] = {
        &obs::Metrics::GetCounter("triage.lane.skip"),
        &obs::Metrics::GetCounter("triage.lane.full"),
    };
    static obs::WindowedCounter* lane_windows[] = {
        &obs::Metrics::GetWindowedCounter("triage.lane.skip"),
        &obs::Metrics::GetWindowedCounter("triage.lane.full"),
    };
    {
      obs::Span span("vs2.triage", &classify_ms);
      result.triage = triage::Classify(doc, config_.triage);
    }
    size_t lane_index = static_cast<size_t>(result.triage.lane);
    lane_totals[lane_index]->Add(1);
    lane_windows[lane_index]->Add(1);
  }

  if (checkpoint) VS2_RETURN_IF_ERROR(checkpoint());
  {
    static obs::Histogram& h =
        obs::Metrics::GetHistogram("vs2.ocr_observe_ms");
    obs::Span span("vs2.ocr_observe", &h);
    result.observed =
        config_.simulate_ocr ? ocr::Transcribe(doc, config_.ocr) : doc;
  }
  // Stage-checkpoint audits (DESIGN.md §12): each stage's output is deep-
  // validated before the next stage consumes it. A violated invariant is a
  // pipeline bug, surfaced as kInternal rather than silently corrupting
  // downstream extraction.
  if (check::AuditsEnabled()) {
    VS2_RETURN_IF_ERROR(check::AuditDocument(result.observed)
                            .ToStatus("vs2.ocr_observe.document"));
  }
  if (result.triage.lane == triage::Lane::kSkip) {
    // SKIP lane: near-empty/decorative page. Return the empty (root-only)
    // layout model immediately — no segmentation, no selection.
    result.tree = doc::LayoutTree::ForDocument(result.observed);
    return result;
  }
  if (checkpoint) VS2_RETURN_IF_ERROR(checkpoint());
  {
    static obs::Histogram& h = obs::Metrics::GetHistogram("vs2.segment_ms");
    obs::Span span("vs2.segment", &h);
    VS2_ASSIGN_OR_RETURN(result.tree, SegmentOnly(result.observed));
  }
  if (checkpoint) VS2_RETURN_IF_ERROR(checkpoint());
  {
    static obs::Histogram& h =
        obs::Metrics::GetHistogram("vs2.select_interest_points_ms");
    obs::Span span("vs2.select_interest_points", &h);
    result.interest_points =
        SelectInterestPoints(result.observed, result.tree, embedding_);
  }
  if (checkpoint) VS2_RETURN_IF_ERROR(checkpoint());
  {
    static obs::Histogram& h =
        obs::Metrics::GetHistogram("vs2.select_entities_ms");
    obs::Span span("vs2.select_entities", &h);
    result.extractions = SelectEntities(result.observed, result.tree, book_,
                                        specs_, embedding_, config_.select);
  }
  return result;
}

}  // namespace vs2::core
