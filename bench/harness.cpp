#include "harness.hpp"

#include <cstdio>
#include <cstdlib>
#include <cstring>

#include "obs/log.hpp"
#include "obs/metrics.hpp"
#include "obs/profiler.hpp"
#include "obs/trace.hpp"
#include "util/rng.hpp"
#include "util/strings.hpp"

namespace vs2::bench {

size_t BenchCorpusSize(doc::DatasetId dataset) {
  if (const char* env = std::getenv("VS2_BENCH_DOCS")) {
    int v = std::atoi(env);
    if (v > 0) return static_cast<size_t>(v);
  }
  switch (dataset) {
    case doc::DatasetId::kD1TaxForms:
      return 80;  // paper: 5 595
    case doc::DatasetId::kD2EventPosters:
      return 120;  // paper: 2 190
    case doc::DatasetId::kD3RealEstateFlyers:
      return 100;  // paper: 1 200
  }
  return 80;
}

doc::Corpus BenchCorpus(doc::DatasetId dataset, uint64_t seed) {
  datasets::GeneratorConfig config;
  config.num_documents = BenchCorpusSize(dataset);
  config.seed = seed;
  return datasets::Generate(dataset, config);
}

void SplitCorpus(const doc::Corpus& corpus, double train_fraction,
                 doc::Corpus* train, doc::Corpus* test) {
  train->dataset = corpus.dataset;
  test->dataset = corpus.dataset;
  train->entity_types = corpus.entity_types;
  test->entity_types = corpus.entity_types;
  train->documents.clear();
  test->documents.clear();
  // Deterministic interleaved split keeps every D1 form face in both
  // splits.
  size_t n = corpus.documents.size();
  size_t train_target = static_cast<size_t>(train_fraction * n);
  util::Rng rng(0x5711F7);
  std::vector<size_t> order(n);
  for (size_t i = 0; i < n; ++i) order[i] = i;
  rng.Shuffle(&order);
  for (size_t k = 0; k < n; ++k) {
    if (k < train_target) {
      train->documents.push_back(corpus.documents[order[k]]);
    } else {
      test->documents.push_back(corpus.documents[order[k]]);
    }
  }
}

doc::Corpus ObserveCorpus(const doc::Corpus& corpus,
                          const ocr::OcrConfig& config) {
  doc::Corpus observed = corpus;
  for (doc::Document& d : observed.documents) {
    d = ocr::Transcribe(d, config);
  }
  return observed;
}

namespace {

/// Text-bearing leaf bboxes of a layout tree — the entity-location
/// proposals shared by the A6 variants.
std::vector<util::BBox> TextLeafBoxes(const doc::Document& observed,
                                      const doc::LayoutTree& tree) {
  std::vector<util::BBox> out;
  for (size_t leaf : tree.Leaves()) {
    // Only blocks carrying text are entity-location proposals;
    // image-only leaves (logos, surviving smudges) are not.
    bool has_text = false;
    for (size_t e : tree.node(leaf).element_indices) {
      if (observed.elements[e].is_text()) {
        has_text = true;
        break;
      }
    }
    if (has_text) out.push_back(tree.node(leaf).bbox);
  }
  return out;
}

}  // namespace

std::vector<SegMethod> Table5Methods(const embed::Embedding& embedding,
                                     const ocr::OcrConfig& ocr) {
  (void)ocr;  // observation happens once in ObserveCorpus
  auto boxes_of = [](const std::vector<baselines::SegBlock>& blocks) {
    std::vector<util::BBox> out;
    out.reserve(blocks.size());
    for (const auto& b : blocks) out.push_back(b.bbox);
    return out;
  };

  std::vector<SegMethod> methods;
  methods.push_back(
      {"Text-only", [&embedding, boxes_of](const doc::Document& observed)
                        -> Result<std::vector<util::BBox>> {
         return boxes_of(baselines::SegmentTextOnly(observed, embedding));
       }});
  methods.push_back({"XY-Cut", [boxes_of](const doc::Document& observed)
                                   -> Result<std::vector<util::BBox>> {
                       return boxes_of(baselines::SegmentXYCut(observed));
                     }});
  methods.push_back(
      {"Voronoi-tessellation",
       [boxes_of](const doc::Document& observed)
           -> Result<std::vector<util::BBox>> {
         return boxes_of(baselines::SegmentVoronoi(observed));
       }});
  methods.push_back({"VIPS", [boxes_of](const doc::Document& observed)
                                 -> Result<std::vector<util::BBox>> {
                       auto blocks = baselines::SegmentVips(observed);
                       if (!blocks.ok()) return blocks.status();
                       return boxes_of(*blocks);
                     }});
  methods.push_back({"Tesseract", [boxes_of](const doc::Document& observed)
                                      -> Result<std::vector<util::BBox>> {
                       return boxes_of(baselines::SegmentTesseract(observed));
                     }});
  methods.push_back(
      {"VS2-Segment", [&embedding](const doc::Document& observed)
                          -> Result<std::vector<util::BBox>> {
         core::SegmenterConfig config;
         VS2_ASSIGN_OR_RETURN(doc::LayoutTree tree,
                              core::Segment(observed, embedding, config));
         return TextLeafBoxes(observed, tree);
       }});
  return methods;
}

bool RunSegmentation(const SegMethod& method, const doc::Corpus& corpus,
                     eval::PrCounts* counts, size_t jobs) {
  size_t n = corpus.documents.size();
  VS2_TRACE_SPAN_ARG("bench.run_segmentation", n);
  // Per-document proposals land in input-order slots; aggregation below is
  // serial, so the totals cannot depend on worker interleaving.
  std::vector<Result<std::vector<util::BBox>>> proposals(
      n, Status::Internal("not run"));
  auto run_one = [&](size_t i) {
    proposals[i] = method.run(corpus.documents[i]);
  };
  if (jobs <= 1) {
    for (size_t i = 0; i < n; ++i) run_one(i);
  } else {
    util::ThreadPool pool(jobs);
    util::ParallelFor(&pool, n, run_one);
  }
  for (size_t i = 0; i < n; ++i) {
    if (!proposals[i].ok()) {
      if (proposals[i].status().IsNotApplicable()) return false;
      continue;  // skip failed documents, count nothing
    }
    counts->Add(eval::ScoreSegmentation(*proposals[i], corpus.documents[i]));
  }
  return true;
}

Result<std::vector<eval::LabeledPrediction>> Vs2Predictions(
    const core::Vs2& vs2, const doc::Document& document) {
  VS2_ASSIGN_OR_RETURN(core::Vs2::DocResult result, vs2.Process(document));
  std::vector<eval::LabeledPrediction> out;
  for (const core::Extraction& ex : result.extractions) {
    out.push_back({ex.entity, ex.block_bbox, ex.text, ex.match_bbox});
  }
  return out;
}

bool RunEndToEnd(
    const std::function<Result<std::vector<eval::LabeledPrediction>>(
        const doc::Document&)>& extract,
    const doc::Corpus& test, eval::PrCounts* total,
    std::vector<std::pair<std::string, eval::PrCounts>>* per_entity) {
  VS2_TRACE_SPAN_ARG("bench.run_end_to_end", test.documents.size());
  bool applicable_any = false;
  for (const doc::Document& d : test.documents) {
    Result<std::vector<eval::LabeledPrediction>> preds = extract(d);
    if (!preds.ok()) {
      if (preds.status().IsNotApplicable()) continue;
      continue;
    }
    applicable_any = true;
    total->Add(eval::ScoreEndToEnd(*preds, d));
    if (per_entity != nullptr) {
      for (auto& [entity, counts] : *per_entity) {
        counts.Add(eval::ScoreEndToEndForEntity(*preds, d, entity));
      }
    }
  }
  return applicable_any;
}

size_t ParseJobsFlag(int argc, char** argv) {
  for (int i = 1; i + 1 < argc; ++i) {
    if (std::strcmp(argv[i], "--jobs") == 0) {
      int v = std::atoi(argv[i + 1]);
      return v > 1 ? static_cast<size_t>(v) : 1;
    }
  }
  return 1;
}

triage::TriageMode ParseTriageFlag(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--triage=", 9) == 0) {
      triage::TriageMode mode;
      if (triage::ParseTriageMode(argv[i] + 9, &mode)) return mode;
      std::fprintf(stderr,
                   "ignoring bad --triage value \"%s\" (expected auto, "
                   "skip, full or off)\n",
                   argv[i] + 9);
    }
  }
  return triage::TriageMode::kOff;
}

ObsFlags ParseObsFlags(int argc, char** argv) {
  ObsFlags flags;
  auto match = [&](int i, const char* name, std::string* out) {
    size_t len = std::strlen(name);
    if (std::strncmp(argv[i], name, len) == 0 && argv[i][len] == '=') {
      *out = argv[i] + len + 1;
      return true;
    }
    if (std::strcmp(argv[i], name) == 0 && i + 1 < argc) {
      *out = argv[i + 1];
      return true;
    }
    return false;
  };
  for (int i = 1; i < argc; ++i) {
    if (match(i, "--trace", &flags.trace_path)) continue;
    if (match(i, "--metrics", &flags.metrics_path)) continue;
    match(i, "--profile", &flags.profile_path);
  }
  if (!flags.trace_path.empty()) obs::Trace::Enable();
  if (!flags.profile_path.empty()) {
    Status s = obs::Profiler::Start();
    if (!s.ok()) VS2_LOG(ERROR) << "profiler start failed: " << s;
  }
  return flags;
}

void ExportObsFlags(const ObsFlags& flags) {
  if (!flags.trace_path.empty()) {
    Status s = obs::Trace::ExportJson(flags.trace_path);
    if (s.ok()) {
      std::fprintf(stderr, "trace written to %s (%zu events)\n",
                   flags.trace_path.c_str(), obs::Trace::EventCount());
    } else {
      VS2_LOG(ERROR) << "trace export failed: " << s;
    }
  }
  if (!flags.metrics_path.empty()) {
    Status s = obs::Metrics::ExportJson(flags.metrics_path);
    if (s.ok()) {
      std::fprintf(stderr, "metrics written to %s\n",
                   flags.metrics_path.c_str());
    } else {
      VS2_LOG(ERROR) << "metrics export failed: " << s;
    }
  }
  if (!flags.profile_path.empty()) {
    obs::Profiler::Stop();
    Status s = obs::Profiler::ExportCollapsed(flags.profile_path);
    if (s.ok()) {
      std::fprintf(stderr, "profile written to %s (%zu samples)\n",
                   flags.profile_path.c_str(), obs::Profiler::sample_count());
    } else {
      VS2_LOG(ERROR) << "profile export failed: " << s;
    }
  }
}

namespace {

/// Byte-exact fingerprint of one batch's extraction stream. Geometry and
/// scores are rendered as hex floats (`%a`), so any bit-level divergence
/// between the serial and parallel paths shows up.
std::string BatchFingerprint(const core::BatchEngine::Output& out) {
  std::string fp;
  for (const Result<core::Vs2::DocResult>& r : out.results) {
    if (!r.ok()) {
      fp += "ERR " + r.status().ToString() + "\n";
      continue;
    }
    for (const core::Extraction& ex : r->extractions) {
      fp += util::Format("%s|%s|%a,%a,%a,%a|%a\n", ex.entity.c_str(),
                         ex.text.c_str(), ex.match_bbox.x, ex.match_bbox.y,
                         ex.match_bbox.width, ex.match_bbox.height, ex.score);
    }
    fp += "--\n";
  }
  return fp;
}

}  // namespace

bool RunBatchComparison(const std::string& bench_name, const core::Vs2& vs2,
                        const std::vector<doc::Document>& docs, size_t jobs) {
  VS2_TRACE_SPAN_ARG("bench.batch_comparison", docs.size());
  core::BatchEngine serial_engine(vs2, core::BatchOptions{1});
  core::BatchEngine parallel_engine(vs2, core::BatchOptions{jobs});
  core::BatchEngine::Output serial = serial_engine.ProcessAll(docs);
  core::BatchEngine::Output parallel = parallel_engine.ProcessAll(docs);

  bool identical = BatchFingerprint(serial) == BatchFingerprint(parallel);
  double speedup = serial.stats.docs_per_second > 0.0
                       ? parallel.stats.docs_per_second /
                             serial.stats.docs_per_second
                       : 0.0;
  std::printf(
      "batch engine [%s]: %zu docs, serial %.2f docs/s, %zu jobs %.2f "
      "docs/s (%.2fx), p50 %.1f ms, p95 %.1f ms, errors %zu, outputs %s\n",
      bench_name.c_str(), docs.size(), serial.stats.docs_per_second,
      parallel.stats.jobs, parallel.stats.docs_per_second, speedup,
      parallel.stats.p50_latency_ms, parallel.stats.p95_latency_ms,
      parallel.stats.errors, identical ? "identical" : "DIVERGED");
  std::printf(
      "batch-json {\"bench\":\"%s\",\"jobs\":%zu,"
      "\"serial_docs_per_sec\":%.2f,\"parallel_docs_per_sec\":%.2f,"
      "\"speedup\":%.3f,\"identical\":%s,\"serial\":%s,\"parallel\":%s}\n",
      bench_name.c_str(), parallel.stats.jobs,
      serial.stats.docs_per_second, parallel.stats.docs_per_second, speedup,
      identical ? "true" : "false", serial.stats.ToJson().c_str(),
      parallel.stats.ToJson().c_str());
  return identical;
}

void PrintBenchHeader(const std::string& title) {
  std::printf("=== %s ===\n", title.c_str());
  std::printf(
      "corpus sizes: D1=%zu D2=%zu D3=%zu (paper: 5595/2190/1200; set "
      "VS2_BENCH_DOCS to scale) seed=2019\n\n",
      BenchCorpusSize(doc::DatasetId::kD1TaxForms),
      BenchCorpusSize(doc::DatasetId::kD2EventPosters),
      BenchCorpusSize(doc::DatasetId::kD3RealEstateFlyers));
}

}  // namespace vs2::bench
