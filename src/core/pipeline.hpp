#ifndef VS2_CORE_PIPELINE_HPP_
#define VS2_CORE_PIPELINE_HPP_

/// \file pipeline.hpp
/// The end-to-end VS2 system (paper Fig. 2): OCR observation → VS2-Segment
/// → VS2-Select, with every ablation toggle of Table 9 exposed.

#include <functional>
#include <vector>

#include "core/pattern_learner.hpp"
#include "core/segmenter.hpp"
#include "core/select.hpp"
#include "datasets/generator.hpp"
#include "datasets/holdout.hpp"
#include "ocr/ocr.hpp"
#include "triage/triage.hpp"

namespace vs2::core {

/// End-to-end configuration.
struct PipelineConfig {
  SegmenterConfig segmenter;
  SelectConfig select;
  ocr::OcrConfig ocr;
  /// Simulate transcription noise (always on in the paper's setting; off
  /// is useful for tests wanting clean text).
  bool simulate_ocr = true;
  LearnerConfig learner;
  uint64_t holdout_seed = 0x5EED;
  /// Pre-classification router (DESIGN.md §16). Off by default: the
  /// pipeline is then bit-identical to a build without triage.
  triage::TriageConfig triage;
};

/// \brief The assembled VS2 system for one dataset/IE task. Construction
/// learns the pattern book from the (isolated, text-only) holdout corpus —
/// the distant-supervision step. Thereafter `Process` handles any number
/// of documents.
///
/// **Thread safety.** A `Vs2` is immutable after construction: the pattern
/// book, entity specs and config never change, and the referenced
/// `Embedding` must itself stay unmodified (it is immutable after training).
/// All const member functions are safe to call concurrently from any number
/// of threads with no external locking — `BatchEngine` relies on exactly
/// this contract. Audited 2026-08: `Process`, `SegmentOnly`, `Segment`,
/// `SelectInterestPoints` and `SelectEntities` touch only per-call locals,
/// const members, and const function-local statics (gazetteer tables, the
/// `nlp::Lexicon` singleton), and every stochastic step draws from a local
/// `util::Rng` seeded per document — no global generator, no lazy caches.
class Vs2 {
 public:
  Vs2(doc::DatasetId dataset, const embed::Embedding& embedding,
      PipelineConfig config = {});

  /// Per-document output.
  struct DocResult {
    doc::Document observed;               ///< transcribed document
    doc::LayoutTree tree;                 ///< layout model T_D
    std::vector<size_t> interest_points;  ///< node ids
    std::vector<Extraction> extractions;  ///< key-value pairs
    /// Routing decision + classifier features. With triage off this stays
    /// default-constructed (lane = kFull, zeroed features).
    triage::TriageDecision triage;
  };

  /// Consulted between pipeline stages when processing under a deadline or
  /// cancellation scope; a non-OK return aborts the remaining stages and
  /// becomes the result of `Process`. Must be cheap — it runs four times
  /// per document.
  using StageCheckpoint = std::function<Status()>;

  /// Runs the full pipeline on one document, calling `checkpoint` (when
  /// set) before each stage. Reentrant: depends only on `doc` and state
  /// frozen at construction, so concurrent calls (and repeated calls on the
  /// same document) give bit-identical results. With a null or always-OK
  /// checkpoint the result is the same as without one — the serving
  /// layer's deadline enforcement relies on that equivalence.
  Result<DocResult> Process(
      const doc::Document& doc,
      const StageCheckpoint& checkpoint = StageCheckpoint()) const;

  /// Segmentation only (phase 1), on the observed document.
  Result<doc::LayoutTree> SegmentOnly(const doc::Document& observed) const;

  const PatternBook& pattern_book() const { return book_; }
  const std::vector<datasets::EntitySpec>& entity_specs() const {
    return specs_;
  }
  const PipelineConfig& config() const { return config_; }
  doc::DatasetId dataset() const { return dataset_; }

 private:
  doc::DatasetId dataset_;
  const embed::Embedding& embedding_;
  PipelineConfig config_;
  PatternBook book_;
  std::vector<datasets::EntitySpec> specs_;
};

/// Convenience: a pipeline with the paper's per-dataset Eq. 2 weights.
PipelineConfig DefaultConfigFor(doc::DatasetId dataset);

}  // namespace vs2::core

#endif  // VS2_CORE_PIPELINE_HPP_
