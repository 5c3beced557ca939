#ifndef VS2BENCH_CORPUS_HPP_
#define VS2BENCH_CORPUS_HPP_

/// \file corpus.hpp
/// A workload's distinct documents, generated from the seed, with the
/// reference response of each (`doc::ExtractionsToJson(Vs2::Process(doc))`)
/// and their extraction micro-F1 against the generator's annotations.

#include <cstdint>
#include <string>
#include <vector>

#include "core/pipeline.hpp"
#include "eval/metrics.hpp"
#include "loadgen.hpp"

namespace vs2bench {

struct Corpus {
  /// Documents as the pipeline receives them. For wire workloads this is
  /// `doc::FromJson` of the request line: the program under test only ever
  /// sees the line, and today `FromJson(ToJson(d))` is not always `d`.
  std::vector<vs2::doc::Document> docs;
  WireCorpus wire;
  vs2::eval::PrCounts scores;  ///< summed over the distinct documents
  std::string error;           ///< non-empty when a reference failed
};

/// Generates `count` documents of `dataset` from `seed` and computes their
/// references with `vs2` on `threads` threads. With `wire` the documents
/// are round-tripped through their request lines first.
Corpus MakeCorpus(const vs2::core::Vs2& vs2, vs2::doc::DatasetId dataset,
                  size_t count, uint64_t seed, bool wire, size_t threads);

/// Deterministic 64-bit mix (splitmix64), for seeded request sequences.
uint64_t Mix(uint64_t x);

}  // namespace vs2bench

#endif  // VS2BENCH_CORPUS_HPP_
