/// \file vs2_extract.cpp
/// Command-line extractor — the deployment entry point. Reads one or more
/// documents in the JSON interchange format (see `doc/serialization.hpp`)
/// from files or stdin, runs the VS2 pipeline, and prints the extracted
/// key-value pairs as JSON on stdout, one line per input document.
///
/// Usage:
///   vs2_extract [--dataset 1|2|3] [--no-ocr-noise] [--jobs N]
///               [--triage=auto|skip|full] [--trace=FILE]
///               [--metrics=FILE] [file.json...]
///   ... | vs2_extract --dataset 2
///
/// `--triage=auto` routes each document through the pre-classifier
/// (DESIGN.md §16) before the pipeline; `skip`/`full` force one lane
/// for A/B runs. The chosen lane and the classifier features are printed to
/// stderr per document.
///
/// `--trace=FILE` records a Chrome trace-event JSON of the run (open in
/// chrome://tracing or https://ui.perfetto.dev); `--metrics=FILE` dumps
/// the pipeline metrics registry (stage latency percentiles and domain
/// counters) as JSON. Both are off — and cost nothing — by default.
///
/// With several files (or `--jobs N > 1`) the documents are dispatched
/// through `core::BatchEngine`: output lines stay in input order, a failed
/// document produces an `{"error": ...}` line in its slot instead of
/// aborting the batch, and batch statistics go to stderr.
///
/// With `--demo`, generates a sample poster, prints its JSON to stderr
/// (as a template for your own producer) and extracts from it.

#include <cstdio>
#include <cstring>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "core/batch_engine.hpp"
#include "core/pipeline.hpp"
#include "datasets/generator.hpp"
#include "datasets/pretrained.hpp"
#include "doc/serialization.hpp"
#include "obs/log.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "util/strings.hpp"

using namespace vs2;

namespace {

/// Writes the requested trace / metrics files. No-ops on empty paths, so
/// it is safe to call on every exit path past argument parsing.
void ExportObs(const std::string& trace_path, const std::string& metrics_path) {
  if (!trace_path.empty()) {
    Status s = obs::Trace::ExportJson(trace_path);
    if (s.ok()) {
      std::fprintf(stderr, "trace written to %s (%zu events)\n",
                   trace_path.c_str(), obs::Trace::EventCount());
    } else {
      VS2_LOG(ERROR) << "trace export failed: " << s;
    }
  }
  if (!metrics_path.empty()) {
    Status s = obs::Metrics::ExportJson(metrics_path);
    if (s.ok()) {
      std::fprintf(stderr, "metrics written to %s\n", metrics_path.c_str());
    } else {
      VS2_LOG(ERROR) << "metrics export failed: " << s;
    }
  }
}

}  // namespace

int main(int argc, char** argv) {
  int dataset = 2;
  bool ocr_noise = true;
  bool demo = false;
  size_t jobs = 0;  // BatchEngine default: hardware concurrency
  triage::TriageMode triage_mode = triage::TriageMode::kOff;
  std::string trace_path;
  std::string metrics_path;
  std::vector<const char*> paths;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--dataset") == 0 && i + 1 < argc) {
      dataset = std::atoi(argv[++i]);
    } else if (std::strncmp(argv[i], "--triage=", 9) == 0) {
      if (!triage::ParseTriageMode(argv[i] + 9, &triage_mode)) {
        std::fprintf(stderr,
                     "bad --triage value \"%s\": expected auto, skip, full "
                     "or off\n",
                     argv[i] + 9);
        return 2;
      }
    } else if (std::strcmp(argv[i], "--jobs") == 0 && i + 1 < argc) {
      int v = std::atoi(argv[++i]);
      jobs = v > 0 ? static_cast<size_t>(v) : 0;
    } else if (std::strncmp(argv[i], "--trace=", 8) == 0) {
      trace_path = argv[i] + 8;
    } else if (std::strcmp(argv[i], "--trace") == 0 && i + 1 < argc) {
      trace_path = argv[++i];
    } else if (std::strncmp(argv[i], "--metrics=", 10) == 0) {
      metrics_path = argv[i] + 10;
    } else if (std::strcmp(argv[i], "--metrics") == 0 && i + 1 < argc) {
      metrics_path = argv[++i];
    } else if (std::strcmp(argv[i], "--no-ocr-noise") == 0) {
      ocr_noise = false;
    } else if (std::strcmp(argv[i], "--demo") == 0) {
      demo = true;
    } else if (std::strcmp(argv[i], "--help") == 0) {
      std::fprintf(stderr,
                   "usage: vs2_extract [--dataset 1|2|3] [--no-ocr-noise] "
                   "[--jobs N] [--triage=auto|skip|full] [--trace=FILE] "
                   "[--metrics=FILE] [--demo] [file.json...]\n");
      return 0;
    } else {
      paths.push_back(argv[i]);
    }
  }
  if (dataset < 1 || dataset > 3) {
    std::fprintf(stderr, "dataset must be 1, 2 or 3\n");
    return 2;
  }
  // Enable before the pipeline is even constructed so holdout building and
  // pattern learning land in the trace too.
  if (!trace_path.empty()) obs::Trace::Enable();
  doc::DatasetId id = static_cast<doc::DatasetId>(dataset);

  // Gather input documents. `sources` labels each slot for error lines.
  std::vector<std::string> inputs;
  std::vector<std::string> sources;
  if (demo) {
    datasets::GeneratorConfig gc;
    gc.num_documents = 1;
    gc.seed = 4;
    gc.mobile_capture_fraction = 0.0;
    doc::Corpus corpus = datasets::Generate(id, gc);
    inputs.push_back(doc::ToJson(corpus.documents[0]));
    sources.push_back("<demo>");
    std::fprintf(stderr, "%s\n", inputs.back().c_str());
  } else if (!paths.empty()) {
    for (const char* path : paths) {
      std::ifstream in(path);
      if (!in) {
        std::fprintf(stderr, "cannot open %s\n", path);
        return 2;
      }
      std::stringstream buffer;
      buffer << in.rdbuf();
      inputs.push_back(buffer.str());
      sources.push_back(path);
    }
  } else {
    std::stringstream buffer;
    buffer << std::cin.rdbuf();
    inputs.push_back(buffer.str());
    sources.push_back("<stdin>");
  }

  // Parse errors are reported up front; a malformed file never reaches the
  // pipeline, but also never aborts the other documents.
  std::vector<doc::Document> documents;
  std::vector<std::pair<size_t, Status>> parse_errors;  // input index -> why
  std::vector<size_t> doc_input;  // documents[k] came from inputs[doc_input[k]]
  for (size_t i = 0; i < inputs.size(); ++i) {
    auto document = doc::FromJson(inputs[i]);
    if (!document.ok()) {
      parse_errors.push_back({i, document.status()});
      continue;
    }
    documents.push_back(std::move(*document));
    doc_input.push_back(i);
  }

  const embed::Embedding& embedding = datasets::PretrainedEmbedding();
  core::PipelineConfig config = core::DefaultConfigFor(id);
  config.simulate_ocr = ocr_noise;
  config.triage.mode = triage_mode;
  core::Vs2 vs2(id, embedding, config);

  core::BatchOptions options;
  options.jobs = inputs.size() > 1 ? jobs : 1;
  core::BatchEngine engine(vs2, options);
  core::BatchEngine::Output out = engine.ProcessAll(documents);

  // Emit one line per input, in input order: extraction JSON for
  // successes, an error object for parse or pipeline failures.
  std::vector<std::string> lines(inputs.size());
  for (const auto& [i, status] : parse_errors) {
    lines[i] = doc::ErrorToJson(sources[i], Status::InvalidArgument(
                                                "bad document JSON: " +
                                                status.ToString()));
  }
  for (size_t k = 0; k < out.results.size(); ++k) {
    const Result<core::Vs2::DocResult>& r = out.results[k];
    if (!r.ok()) {
      VS2_LOG(WARN) << "document " << sources[doc_input[k]]
                    << " failed: " << r.status();
    }
    if (r.ok() && triage_mode != triage::TriageMode::kOff) {
      // Lane + classifier features per document — the triage debugging view.
      std::fprintf(stderr, "triage: %s lane=%s%s features=%s\n",
                   sources[doc_input[k]].c_str(),
                   triage::LaneName(r->triage.lane),
                   r->triage.forced ? " (forced)" : "",
                   r->triage.features.ToJson().c_str());
    }
    lines[doc_input[k]] = r.ok() ? doc::ExtractionsToJson(*r)
                                 : doc::ErrorToJson(sources[doc_input[k]],
                                                    r.status());
  }
  for (const std::string& line : lines) std::printf("%s\n", line.c_str());

  if (inputs.size() > 1) {
    std::fprintf(stderr, "batch: %s\n", out.stats.ToJson().c_str());
  }
  ExportObs(trace_path, metrics_path);
  // Exit codes: 0 all good, 2 when every input was unparseable (caller
  // error), 1 when at least one document failed somewhere in the pipeline.
  if (parse_errors.size() == inputs.size()) return 2;
  return parse_errors.empty() && out.stats.errors == 0 ? 0 : 1;
}
