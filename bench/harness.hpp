#ifndef VS2_BENCH_HARNESS_HPP_
#define VS2_BENCH_HARNESS_HPP_

/// \file harness.hpp
/// Shared experiment-driver code for the table benches. Every bench binary
/// regenerates one table (or figure) of the paper; this header provides
/// corpus generation, train/test splitting, and the per-method scoring
/// loops both phases share.

#include <functional>
#include <string>
#include <vector>

#include "baselines/endtoend.hpp"
#include "baselines/segmentation.hpp"
#include "core/batch_engine.hpp"
#include "core/pipeline.hpp"
#include "datasets/generator.hpp"
#include "datasets/pretrained.hpp"
#include "eval/metrics.hpp"
#include "eval/table.hpp"
#include "util/thread_pool.hpp"

namespace vs2::bench {

/// Bench-scale corpus sizes. The paper's corpora are 5 595 / 2 190 / 1 200
/// documents; benches default to a laptop-scale sample per dataset and
/// honor the VS2_BENCH_DOCS environment variable for larger runs.
size_t BenchCorpusSize(doc::DatasetId dataset);

/// Deterministic bench corpus for a dataset.
doc::Corpus BenchCorpus(doc::DatasetId dataset, uint64_t seed = 2019);

/// Observes a corpus through the OCR channel (cleaning + deskew +
/// transcription noise) exactly once. All methods consume the observed
/// documents, and scoring uses the observed annotations, so every method
/// sees the same input frame.
doc::Corpus ObserveCorpus(const doc::Corpus& corpus,
                          const ocr::OcrConfig& config);

/// 60/40 split (ReportMiner's rule split; the SVM baselines' train split).
void SplitCorpus(const doc::Corpus& corpus, double train_fraction,
                 doc::Corpus* train, doc::Corpus* test);

/// A segmentation method under test: name + per-document block proposals.
struct SegMethod {
  std::string name;
  /// Returns proposals or NotApplicable.
  std::function<Result<std::vector<util::BBox>>(const doc::Document&)> run;
};

/// The six Table 5 contenders, in paper order (A1–A6).
std::vector<SegMethod> Table5Methods(const embed::Embedding& embedding,
                                     const ocr::OcrConfig& ocr);

/// Runs a segmentation method over a corpus; aggregates Sec 6.2 phase-1
/// precision/recall. Returns false when NotApplicable for this corpus.
/// With `jobs > 1` the per-document proposals are computed on a worker
/// pool; scoring stays serial and in input order, so the aggregated counts
/// are identical at every job count.
bool RunSegmentation(const SegMethod& method, const doc::Corpus& corpus,
                     eval::PrCounts* counts, size_t jobs = 1);

/// VS2 end-to-end predictions for one document.
Result<std::vector<eval::LabeledPrediction>> Vs2Predictions(
    const core::Vs2& vs2, const doc::Document& document);

/// Runs an end-to-end method over a test corpus; per-entity counts are
/// accumulated into `per_entity` (keyed by entity name) when non-null.
bool RunEndToEnd(
    const std::function<Result<std::vector<eval::LabeledPrediction>>(
        const doc::Document&)>& extract,
    const doc::Corpus& test, eval::PrCounts* total,
    std::vector<std::pair<std::string, eval::PrCounts>>* per_entity);

/// Prints the standard bench header (seed, corpus sizes).
void PrintBenchHeader(const std::string& title);

/// Parses a `--jobs N` argument (N >= 1). Returns 1 — the serial reference
/// path — when the flag is absent or malformed; 0 is normalized to 1.
size_t ParseJobsFlag(int argc, char** argv);

/// Parses `--triage=auto|skip|full|off` (DESIGN.md §16). Returns
/// `kOff` — the seed-identical reference path — when the flag is absent;
/// warns and returns `kOff` on an unknown value.
triage::TriageMode ParseTriageFlag(int argc, char** argv);

/// Observability export destinations parsed from the command line.
struct ObsFlags {
  std::string trace_path;    ///< `--trace=FILE` (empty: tracing stays off)
  std::string metrics_path;  ///< `--metrics=FILE` (empty: no dump)
  std::string profile_path;  ///< `--profile=FILE` (empty: sampler stays off)
};

/// Parses `--trace=FILE` / `--metrics=FILE` / `--profile=FILE` (also the
/// space-separated `--trace FILE` form), enables the tracer when a trace
/// path is given, and arms the sampling profiler (`obs::Profiler`) when a
/// profile path is given. Call before any pipeline work so spans and
/// samples are captured from the start.
ObsFlags ParseObsFlags(int argc, char** argv);

/// Writes the trace / metrics / collapsed-stack files requested by `flags`
/// (no-ops when the corresponding path is empty) and reports the
/// destinations on stderr. Call once, at the end of main.
void ExportObsFlags(const ObsFlags& flags);

/// \brief Serial-vs-parallel `BatchEngine` throughput comparison.
///
/// Runs `vs2.Process` over `docs` once with one worker and once with
/// `jobs` workers, verifies the two extraction streams are byte-identical,
/// prints a human-readable summary and emits one machine-readable line:
/// `batch-json {"bench":...,"jobs":...,"serial_docs_per_sec":...,
/// "parallel_docs_per_sec":...,"speedup":...,"identical":...}` for
/// tooling to scrape. Returns false when the streams diverge.
bool RunBatchComparison(const std::string& bench_name, const core::Vs2& vs2,
                        const std::vector<doc::Document>& docs, size_t jobs);

}  // namespace vs2::bench

#endif  // VS2_BENCH_HARNESS_HPP_
