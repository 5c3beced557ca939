/// \file bench_table5_segmentation.cpp
/// Regenerates **Table 5**: precision/recall of six segmentation methods
/// (A1 Text-only, A2 XY-Cut, A3 Voronoi, A4 VIPS, A5 Tesseract, A6
/// VS2-Segment) at localizing named entities on D1–D3, IoU > 0.65.
///
/// `--jobs N` runs the per-document scoring loops on an N-worker pool
/// (identical totals — see `RunSegmentation`) and appends a serial-vs-
/// parallel `BatchEngine` throughput comparison over the full VS2
/// pipeline, emitted as a `batch-json` line. `--trace=FILE` writes a
/// Chrome trace of the run; `--metrics=FILE` dumps the metrics registry.

#include <cstdio>

#include "harness.hpp"
#include "util/strings.hpp"

using namespace vs2;

int main(int argc, char** argv) {
  size_t jobs = bench::ParseJobsFlag(argc, argv);
  bench::ObsFlags obs_flags = bench::ParseObsFlags(argc, argv);
  bench::PrintBenchHeader(
      "Table 5: Evaluation of VS2-Segment on experimental datasets");

  const embed::Embedding& embedding = datasets::PretrainedEmbedding();
  ocr::OcrConfig ocr_config;

  std::vector<doc::Corpus> corpora = {
      bench::ObserveCorpus(bench::BenchCorpus(doc::DatasetId::kD1TaxForms),
                           ocr_config),
      bench::ObserveCorpus(bench::BenchCorpus(doc::DatasetId::kD2EventPosters),
                           ocr_config),
      bench::ObserveCorpus(
          bench::BenchCorpus(doc::DatasetId::kD3RealEstateFlyers), ocr_config),
  };

  eval::AsciiTable table({"Index", "Algorithm", "D1 Pr(%)", "D1 Rec(%)",
                          "D2 Pr(%)", "D2 Rec(%)", "D3 Pr(%)", "D3 Rec(%)"});

  std::vector<bench::SegMethod> methods =
      bench::Table5Methods(embedding, ocr_config);
  for (size_t m = 0; m < methods.size(); ++m) {
    std::vector<std::string> row = {
        util::Format("A%zu", m + 1), methods[m].name};
    for (const doc::Corpus& corpus : corpora) {
      eval::PrCounts counts;
      bool applicable =
          bench::RunSegmentation(methods[m], corpus, &counts, jobs);
      if (!applicable) {
        row.push_back("-");
        row.push_back("-");
      } else {
        row.push_back(eval::Pct(counts.Precision()));
        row.push_back(eval::Pct(counts.Recall()));
      }
    }
    table.AddRow(std::move(row));
  }
  std::printf("%s\n", table.Render().c_str());
  std::printf(
      "Paper shape: VS2-Segment best on all three; margins small on the\n"
      "structured D1, large on the visually rich D2/D3; VIPS inapplicable\n"
      "to D1; XY-Cut/Text-only collapse on D2/D3.\n");

  if (jobs > 1) {
    // End-to-end throughput of the batch engine on the observed D2 corpus
    // (the heaviest per-document workload of the three).
    core::PipelineConfig config =
        core::DefaultConfigFor(doc::DatasetId::kD2EventPosters);
    config.simulate_ocr = false;  // the corpus is already observed
    core::Vs2 vs2(doc::DatasetId::kD2EventPosters, embedding, config);
    if (!bench::RunBatchComparison("table5_d2_pipeline", vs2,
                                   corpora[1].documents, jobs)) {
      bench::ExportObsFlags(obs_flags);
      return 1;
    }
  }
  bench::ExportObsFlags(obs_flags);
  return 0;
}
