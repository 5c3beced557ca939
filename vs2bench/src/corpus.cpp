#include "corpus.hpp"

#include "datasets/generator.hpp"
#include "doc/serialization.hpp"
#include "util/thread_pool.hpp"

namespace vs2bench {

uint64_t Mix(uint64_t x) {
  x += 0x9E3779B97F4A7C15ull;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ull;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBull;
  return x ^ (x >> 31);
}

Corpus MakeCorpus(const vs2::core::Vs2& vs2, vs2::doc::DatasetId dataset,
                  size_t count, uint64_t seed, bool wire, size_t threads) {
  vs2::datasets::GeneratorConfig config;
  config.num_documents = count;
  config.seed = seed;
  Corpus corpus;
  corpus.docs = vs2::datasets::Generate(dataset, config).documents;
  corpus.wire.lines.resize(corpus.docs.size());
  corpus.wire.refs.resize(corpus.docs.size());
  std::vector<vs2::eval::PrCounts> scores(corpus.docs.size());
  std::vector<std::string> errors(corpus.docs.size());

  vs2::util::ThreadPool pool(threads);
  vs2::util::ParallelFor(&pool, corpus.docs.size(), [&](size_t i) {
    vs2::doc::Document& doc = corpus.docs[i];
    if (wire) {
      corpus.wire.lines[i] = vs2::doc::ToJson(doc);
      auto parsed = vs2::doc::FromJson(corpus.wire.lines[i]);
      if (!parsed.ok()) {
        errors[i] = "request line does not parse: " +
                    parsed.status().ToString();
        return;
      }
      doc = *std::move(parsed);
      corpus.wire.lines[i].push_back('\n');
    }
    auto result = vs2.Process(doc);
    if (!result.ok()) {
      errors[i] = "reference failed: " + result.status().ToString();
      return;
    }
    corpus.wire.refs[i] = vs2::doc::ExtractionsToJson(*result);
    // The Table 6/8 scorer: predictions as bench::Vs2Predictions builds
    // them, scored against the observed document's annotations.
    std::vector<vs2::eval::LabeledPrediction> predictions;
    for (const vs2::core::Extraction& ex : result->extractions) {
      predictions.push_back({ex.entity, ex.block_bbox, ex.text, ex.match_bbox});
    }
    scores[i] = vs2::eval::ScoreEndToEnd(predictions, result->observed);
  });
  for (size_t i = 0; i < corpus.docs.size(); ++i) {
    if (!errors[i].empty() && corpus.error.empty()) {
      corpus.error = "document " + std::to_string(i) + ": " + errors[i];
    }
    corpus.scores.Add(scores[i]);
  }
  return corpus;
}

}  // namespace vs2bench
