/// \file bench_micro.cpp
/// google-benchmark micro-benchmarks for the hot paths: cut finding,
/// Algorithm 1, clustering, full segmentation, NLP analysis, pattern
/// matching, subtree mining, the end-to-end pipeline, plus throughput
/// ablations of the design choices DESIGN.md calls out (banded cuts vs.
/// straight cuts; semantic merging on/off; scalar vs. bit-parallel cut
/// kernel; page-raster reuse on/off).
///
/// `--segment_json=FILE` additionally writes a machine-readable summary of
/// the DESIGN.md §11 optimization pairs (ns/op + speedup) for the perf
/// trajectory; CI uploads it as the `BENCH_segment.json` artifact.

#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <mutex>  // sync-lint-allowed: raw-std::mutex baseline for the sync wrapper pair
#include <string>
#include <vector>

#include "baselines/segmentation.hpp"
#include "check/check.hpp"
#include "core/pattern_learner.hpp"
#include "core/pipeline.hpp"
#include "core/segmenter_reference.hpp"
#include "datasets/pretrained.hpp"
#include "nlp/analyzer.hpp"
#include "nlp/chunk_tree.hpp"
#include "nlp/pattern.hpp"
#include "obs/metrics.hpp"
#include "util/sync.hpp"

using namespace vs2;

namespace {

const doc::Document& SamplePoster() {
  static const doc::Document* doc = [] {
    datasets::GeneratorConfig gc;
    gc.num_documents = 1;
    gc.seed = 42;
    auto* d = new doc::Document(
        datasets::GenerateD2(gc).documents[0]);
    return d;
  }();
  return *doc;
}

const doc::Document& SampleObserved() {
  static const doc::Document* doc = [] {
    return new doc::Document(ocr::Transcribe(SamplePoster(), {}));
  }();
  return *doc;
}

/// The sample page rasterized over its full frame at the segmenter's
/// default resolution — the grid shape the cut kernels see in production.
const raster::OccupancyGrid& BenchGrid() {
  static const raster::OccupancyGrid* grid = [] {
    const doc::Document& d = SampleObserved();
    std::vector<util::BBox> boxes;
    for (const auto& el : d.elements) boxes.push_back(el.bbox);
    return new raster::OccupancyGrid(raster::RasterizeBoxes(
        boxes, {0, 0, d.width, d.height}, raster::GridScale{0.5}));
  }();
  return *grid;
}

void BM_CutsScalar(benchmark::State& state) {
  const raster::OccupancyGrid& g = BenchGrid();
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        core::BandedHorizontalCuts(g, 8, core::CutKernel::kScalar));
    benchmark::DoNotOptimize(
        core::BandedVerticalCuts(g, 8, core::CutKernel::kScalar));
  }
}
BENCHMARK(BM_CutsScalar);

void BM_CutsBitParallel(benchmark::State& state) {
  const raster::OccupancyGrid& g = BenchGrid();
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        core::BandedHorizontalCuts(g, 8, core::CutKernel::kBitParallel));
    benchmark::DoNotOptimize(
        core::BandedVerticalCuts(g, 8, core::CutKernel::kBitParallel));
  }
}
BENCHMARK(BM_CutsBitParallel);

void BM_FindSeparatorRuns(benchmark::State& state) {
  const doc::Document& d = SampleObserved();
  std::vector<util::BBox> boxes;
  for (const auto& el : d.elements) boxes.push_back(el.bbox);
  util::BBox region{0, 0, d.width, d.height};
  raster::GridScale scale{0.5};
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::FindSeparatorRuns(boxes, region, scale));
  }
}
BENCHMARK(BM_FindSeparatorRuns);

void BM_SelectDelimiters(benchmark::State& state) {
  const doc::Document& d = SampleObserved();
  std::vector<util::BBox> boxes;
  for (const auto& el : d.elements) boxes.push_back(el.bbox);
  auto runs = core::FindSeparatorRuns(boxes, {0, 0, d.width, d.height},
                                      raster::GridScale{0.5});
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::SelectDelimiters(runs));
  }
}
BENCHMARK(BM_SelectDelimiters);

void BM_ClusterElements(benchmark::State& state) {
  const doc::Document& d = SampleObserved();
  std::vector<size_t> idx = d.TextElementIndices();
  util::BBox region{0, 0, d.width, d.height};
  core::SegmenterConfig config;
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::ClusterElements(d, idx, region, config));
  }
}
BENCHMARK(BM_ClusterElements);

void BM_Segment_Full(benchmark::State& state) {
  const doc::Document& d = SampleObserved();
  const auto& emb = datasets::PretrainedEmbedding();
  core::SegmenterConfig config;
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::Segment(d, emb, config));
  }
}
BENCHMARK(BM_Segment_Full);

void BM_Segment_NoMerge(benchmark::State& state) {
  const doc::Document& d = SampleObserved();
  const auto& emb = datasets::PretrainedEmbedding();
  core::SegmenterConfig config;
  config.enable_semantic_merging = false;
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::Segment(d, emb, config));
  }
}
BENCHMARK(BM_Segment_NoMerge);

void BM_Segment_RasterReuse(benchmark::State& state) {
  const doc::Document& d = SampleObserved();
  const auto& emb = datasets::PretrainedEmbedding();
  core::SegmenterConfig config;
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::Segment(d, emb, config));
  }
}
BENCHMARK(BM_Segment_RasterReuse);

void BM_Segment_NoRasterReuse(benchmark::State& state) {
  const doc::Document& d = SampleObserved();
  const auto& emb = datasets::PretrainedEmbedding();
  core::SegmentReferencePaths paths;
  paths.rasterize_per_node = true;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        core::SegmentWithReferencePaths(d, emb, {}, paths));
  }
}
BENCHMARK(BM_Segment_NoRasterReuse);

void BM_SegmentXYCut(benchmark::State& state) {
  const doc::Document& d = SampleObserved();
  for (auto _ : state) {
    benchmark::DoNotOptimize(baselines::SegmentXYCut(d));
  }
}
BENCHMARK(BM_SegmentXYCut);

void BM_NlpAnalyze(benchmark::State& state) {
  std::string text = SampleObserved().FullText();
  for (auto _ : state) {
    benchmark::DoNotOptimize(nlp::Analyze(text));
  }
}
BENCHMARK(BM_NlpAnalyze);

void BM_PatternMatch(benchmark::State& state) {
  nlp::AnalyzedText analyzed = nlp::Analyze(SampleObserved().FullText());
  nlp::SyntacticPattern pattern{nlp::PatternKind::kNpWithTimex, {}};
  for (auto _ : state) {
    benchmark::DoNotOptimize(nlp::MatchPattern(analyzed, pattern));
  }
}
BENCHMARK(BM_PatternMatch);

void BM_OcrTranscribe(benchmark::State& state) {
  const doc::Document& d = SamplePoster();
  for (auto _ : state) {
    benchmark::DoNotOptimize(ocr::Transcribe(d, {}));
  }
}
BENCHMARK(BM_OcrTranscribe);

void BM_MineSubtrees(benchmark::State& state) {
  datasets::HoldoutCorpus holdout =
      datasets::BuildHoldoutCorpus(doc::DatasetId::kD2EventPosters, 7, 20);
  std::vector<mining::FlatTree> transactions;
  for (const auto& e : holdout.entries) {
    if (e.entity != "event_organizer") continue;
    nlp::AnalyzedText analyzed = nlp::Analyze(e.text);
    // Rebuild the learner's flattening inline.
    auto node = nlp::BuildChunkTree(analyzed);
    mining::FlatTree t;
    struct Frame { const nlp::ParseNode* n; int parent; };
    std::vector<Frame> stack{{&node, -1}};
    while (!stack.empty()) {
      Frame f = stack.back();
      stack.pop_back();
      int id = static_cast<int>(t.labels.size());
      t.labels.push_back(f.n->label);
      t.parents.push_back(f.parent);
      for (auto it = f.n->children.rbegin(); it != f.n->children.rend(); ++it)
        stack.push_back({&*it, id});
    }
    transactions.push_back(std::move(t));
  }
  mining::MinerConfig config;
  config.min_support = transactions.size() / 3 + 1;
  config.max_nodes = 4;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        mining::MineFrequentSubtrees(transactions, config));
  }
}
BENCHMARK(BM_MineSubtrees);

void BM_Pipeline_EndToEnd(benchmark::State& state) {
  const auto& emb = datasets::PretrainedEmbedding();
  static const core::Vs2* vs2 = new core::Vs2(
      doc::DatasetId::kD2EventPosters, emb,
      core::DefaultConfigFor(doc::DatasetId::kD2EventPosters));
  const doc::Document& d = SamplePoster();
  for (auto _ : state) {
    benchmark::DoNotOptimize(vs2->Process(d));
  }
}
BENCHMARK(BM_Pipeline_EndToEnd);

// Audit-mode overhead on the end-to-end pipeline (DESIGN.md §12): the deep
// validators are always compiled, so the runtime toggle alone decides the
// cost. CI's audit-mode job runs this pair and the documented budget is
// <2x wall time for the On/Off ratio.
void BM_Pipeline_AuditMode_Off(benchmark::State& state) {
  const auto& emb = datasets::PretrainedEmbedding();
  static const core::Vs2* vs2 = new core::Vs2(
      doc::DatasetId::kD2EventPosters, emb,
      core::DefaultConfigFor(doc::DatasetId::kD2EventPosters));
  const doc::Document& d = SamplePoster();
  const bool prior = check::AuditsEnabled();
  check::SetAuditsEnabled(false);
  for (auto _ : state) {
    benchmark::DoNotOptimize(vs2->Process(d));
  }
  check::SetAuditsEnabled(prior);
}
BENCHMARK(BM_Pipeline_AuditMode_Off);

void BM_Pipeline_AuditMode_On(benchmark::State& state) {
  const auto& emb = datasets::PretrainedEmbedding();
  static const core::Vs2* vs2 = new core::Vs2(
      doc::DatasetId::kD2EventPosters, emb,
      core::DefaultConfigFor(doc::DatasetId::kD2EventPosters));
  const doc::Document& d = SamplePoster();
  const bool prior = check::AuditsEnabled();
  check::SetAuditsEnabled(true);
  for (auto _ : state) {
    benchmark::DoNotOptimize(vs2->Process(d));
  }
  check::SetAuditsEnabled(prior);
}
BENCHMARK(BM_Pipeline_AuditMode_On);

void BM_EmbeddingTextSimilarity(benchmark::State& state) {
  const auto& emb = datasets::PretrainedEmbedding();
  std::string a = "annual jazz festival at memorial hall";
  std::string b = "hosted by the columbus jazz society";
  for (auto _ : state) {
    benchmark::DoNotOptimize(emb.TextSimilarity(a, b));
  }
}
BENCHMARK(BM_EmbeddingTextSimilarity);

// ------------------------------------------------ obs instrument pairs ----

// Windowed-histogram record vs. the plain histogram it extends (DESIGN.md
// §14). Both are relaxed-atomic and lock-free; the windowed path adds a
// coarse clock read plus a slot-epoch check, and the documented budget is
// <2x the plain record. The pair is also folded into BENCH_segment.json.
void BM_HistogramRecord(benchmark::State& state) {
  obs::Histogram& hist = obs::Metrics::GetHistogram("bench.obs_plain_ms");
  double value = 0.05;
  for (auto _ : state) {
    hist.Record(value);
    value = value < 400.0 ? value * 1.7 : 0.05;  // walk the bucket ladder
  }
}
BENCHMARK(BM_HistogramRecord);

void BM_WindowedHistogramRecord(benchmark::State& state) {
  obs::WindowedHistogram& hist =
      obs::Metrics::GetWindowedHistogram("bench.obs_windowed_ms");
  double value = 0.05;
  for (auto _ : state) {
    hist.Record(value);
    value = value < 400.0 ? value * 1.7 : 0.05;
  }
}
BENCHMARK(BM_WindowedHistogramRecord);

// ------------------------------------------------- sync wrapper pairs ----
// Annotated-mutex overhead (DESIGN.md §17): with order checking off,
// `sync::Mutex` must cost what the raw standard mutex it wraps costs (the
// annotations are compile-time only; the runtime gate is one relaxed
// atomic load). The lock-order checker's bookkeeping is the audit-mode
// cost, and the documented budget is <2x the unchecked acquisition. The
// pairs are folded into BENCH_segment.json as "sync".

void BM_MutexRawStd(benchmark::State& state) {
  static std::mutex mu;  // sync-lint-allowed: the raw baseline this pair measures against
  for (auto _ : state) {
    mu.lock();
    benchmark::DoNotOptimize(&mu);
    mu.unlock();
  }
}
BENCHMARK(BM_MutexRawStd);

void BM_SyncMutex_CheckerOff(benchmark::State& state) {
  static sync::Mutex mu("bench.sync.plain");
  const bool prior = sync::SetLockOrderCheckingEnabled(false);
  for (auto _ : state) {
    sync::MutexLock lock(&mu);
    benchmark::DoNotOptimize(&mu);
  }
  sync::SetLockOrderCheckingEnabled(prior);
}
BENCHMARK(BM_SyncMutex_CheckerOff);

// The nested outer→inner pair is the checker's real workload: the inner
// acquisition records/looks up an acquired-after edge under the graph
// lock, which a single uncontended lock never does.
void BM_SyncMutexPair_CheckerOff(benchmark::State& state) {
  static sync::Mutex outer("bench.sync.pair_outer");
  static sync::Mutex inner("bench.sync.pair_inner");
  const bool prior = sync::SetLockOrderCheckingEnabled(false);
  for (auto _ : state) {
    sync::MutexLock lock_outer(&outer);
    sync::MutexLock lock_inner(&inner);
    benchmark::DoNotOptimize(&inner);
  }
  sync::SetLockOrderCheckingEnabled(prior);
}
BENCHMARK(BM_SyncMutexPair_CheckerOff);

void BM_SyncMutexPair_CheckerOn(benchmark::State& state) {
  static sync::Mutex outer("bench.sync.pair_outer");
  static sync::Mutex inner("bench.sync.pair_inner");
  const bool prior = sync::SetLockOrderCheckingEnabled(true);
  for (auto _ : state) {
    sync::MutexLock lock_outer(&outer);
    sync::MutexLock lock_inner(&inner);
    benchmark::DoNotOptimize(&inner);
  }
  sync::SetLockOrderCheckingEnabled(prior);
}
BENCHMARK(BM_SyncMutexPair_CheckerOn);

// ------------------------------------------------- BENCH_segment.json -----

/// Median-of-batches wall time per call of `fn`, in nanoseconds.
template <typename Fn>
double NsPerOp(Fn&& fn) {
  using clock = std::chrono::steady_clock;
  // Warm up once (static corpora, embedding tables, page caches).
  fn();
  // Size a batch to ~30 ms, then keep the best of 5 batches: the minimum is
  // the standard noise-robust estimator for short deterministic kernels.
  int batch = 1;
  for (;;) {
    auto t0 = clock::now();
    for (int i = 0; i < batch; ++i) fn();
    double ns = static_cast<double>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(clock::now() - t0)
            .count());
    if (ns > 30e6 || batch >= (1 << 20)) break;
    batch *= 2;
  }
  double best = 1e30;
  for (int rep = 0; rep < 5; ++rep) {
    auto t0 = clock::now();
    for (int i = 0; i < batch; ++i) fn();
    double ns = static_cast<double>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(clock::now() - t0)
            .count());
    best = std::min(best, ns / batch);
  }
  return best;
}

/// Times the DESIGN.md §11 optimization pairs and writes the machine-readable
/// summary consumed by CI and the perf trajectory.
bool WriteSegmentJson(const std::string& path) {
  const doc::Document& d = SampleObserved();
  const auto& emb = datasets::PretrainedEmbedding();
  const raster::OccupancyGrid& g = BenchGrid();

  double cuts_scalar = NsPerOp([&] {
    benchmark::DoNotOptimize(
        core::BandedHorizontalCuts(g, 8, core::CutKernel::kScalar));
    benchmark::DoNotOptimize(
        core::BandedVerticalCuts(g, 8, core::CutKernel::kScalar));
  });
  double cuts_bitp = NsPerOp([&] {
    benchmark::DoNotOptimize(
        core::BandedHorizontalCuts(g, 8, core::CutKernel::kBitParallel));
    benchmark::DoNotOptimize(
        core::BandedVerticalCuts(g, 8, core::CutKernel::kBitParallel));
  });

  auto segment_with = [&](core::CutKernel kernel, bool rasterize_per_node) {
    return NsPerOp([&] {
      benchmark::DoNotOptimize(core::SegmentWithReferencePaths(
          d, emb, {}, {kernel, rasterize_per_node}));
    });
  };
  double seg_baseline = segment_with(core::CutKernel::kScalar, true);
  double seg_optimized =
      NsPerOp([&] { benchmark::DoNotOptimize(core::Segment(d, emb)); });
  double seg_reuse_only = segment_with(core::CutKernel::kScalar, false);

  // Telemetry-plane record cost (DESIGN.md §14): the windowed record must
  // stay within 2x of the plain histogram it extends. Each timed call is a
  // 256-record batch so loop overhead stays negligible at ns-scale ops.
  obs::Histogram& obs_plain = obs::Metrics::GetHistogram("bench.obs_plain_ms");
  obs::WindowedHistogram& obs_windowed =
      obs::Metrics::GetWindowedHistogram("bench.obs_windowed_ms");
  auto record_batch = [](auto& instrument) {
    double v = 0.05;
    for (int i = 0; i < 256; ++i) {
      instrument.Record(v);
      v = v < 400.0 ? v * 1.7 : 0.05;
    }
  };
  double obs_plain_ns = NsPerOp([&] { record_batch(obs_plain); }) / 256.0;
  double obs_windowed_ns =
      NsPerOp([&] { record_batch(obs_windowed); }) / 256.0;

  // Annotated-lock costs (DESIGN.md §17): wrapper vs the raw standard
  // mutex, and the nested-pair acquisition with the lock-order checker off
  // vs on (the checker budget is <2x). 64-iteration batches for ns-scale ops.
  static std::mutex raw_mu;  // sync-lint-allowed: the raw baseline this pair measures against
  static sync::Mutex sync_mu("bench.sync.json_plain");
  static sync::Mutex sync_outer("bench.sync.json_outer");
  static sync::Mutex sync_inner("bench.sync.json_inner");
  const bool checker_prior = sync::SetLockOrderCheckingEnabled(false);
  double std_mutex_ns = NsPerOp([&] {
    for (int i = 0; i < 64; ++i) {
      raw_mu.lock();
      benchmark::DoNotOptimize(&raw_mu);
      raw_mu.unlock();
    }
  }) / 64.0;
  double sync_mutex_ns = NsPerOp([&] {
    for (int i = 0; i < 64; ++i) {
      sync::MutexLock lock(&sync_mu);
      benchmark::DoNotOptimize(&sync_mu);
    }
  }) / 64.0;
  double pair_off_ns = NsPerOp([&] {
    for (int i = 0; i < 64; ++i) {
      sync::MutexLock lock_outer(&sync_outer);
      sync::MutexLock lock_inner(&sync_inner);
      benchmark::DoNotOptimize(&sync_inner);
    }
  }) / 64.0;
  sync::SetLockOrderCheckingEnabled(true);
  double pair_on_ns = NsPerOp([&] {
    for (int i = 0; i < 64; ++i) {
      sync::MutexLock lock_outer(&sync_outer);
      sync::MutexLock lock_inner(&sync_inner);
      benchmark::DoNotOptimize(&sync_inner);
    }
  }) / 64.0;
  sync::SetLockOrderCheckingEnabled(checker_prior);

  std::FILE* f = std::fopen(path.c_str(), "w");
  if (!f) {
    std::fprintf(stderr, "bench_micro: cannot open %s\n", path.c_str());
    return false;
  }
  std::fprintf(
      f,
      "{\n"
      "  \"bench\": \"segment\",\n"
      "  \"grid\": {\"width\": %d, \"height\": %d, \"occupancy\": %.4f},\n"
      "  \"cut_kernel\": {\"scalar_ns\": %.1f, \"bitparallel_ns\": %.1f, "
      "\"speedup\": %.2f},\n"
      "  \"segment\": {\"baseline_ns\": %.1f, \"raster_reuse_only_ns\": %.1f, "
      "\"optimized_ns\": %.1f, \"speedup\": %.2f},\n"
      "  \"obs\": {\"histogram_record_ns\": %.2f, "
      "\"windowed_record_ns\": %.2f, \"ratio\": %.2f},\n"
      "  \"sync\": {\"std_mutex_ns\": %.2f, \"sync_mutex_ns\": %.2f, "
      "\"wrapper_ratio\": %.2f, \"pair_ns\": %.2f, "
      "\"pair_checked_ns\": %.2f, \"checker_ratio\": %.2f}\n"
      "}\n",
      g.width(), g.height(), g.OccupancyRatio(), cuts_scalar, cuts_bitp,
      cuts_scalar / cuts_bitp, seg_baseline, seg_reuse_only, seg_optimized,
      seg_baseline / seg_optimized, obs_plain_ns, obs_windowed_ns,
      obs_windowed_ns / obs_plain_ns, std_mutex_ns, sync_mutex_ns,
      sync_mutex_ns / std_mutex_ns, pair_off_ns, pair_on_ns,
      pair_on_ns / pair_off_ns);
  std::fclose(f);
  std::fprintf(stderr,
               "bench_micro: wrote %s (cut kernel %.2fx, segment %.2fx, "
               "windowed record %.2fx plain, sync wrapper %.2fx raw, "
               "order checker %.2fx unchecked)\n",
               path.c_str(), cuts_scalar / cuts_bitp,
               seg_baseline / seg_optimized, obs_windowed_ns / obs_plain_ns, sync_mutex_ns / std_mutex_ns,
               pair_on_ns / pair_off_ns);
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  // Strip our flag before google-benchmark parses the rest.
  std::string json_path;
  int out = 1;
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg.rfind("--segment_json=", 0) == 0) {
      json_path = arg.substr(std::string("--segment_json=").size());
    } else {
      argv[out++] = argv[i];
    }
  }
  argc = out;
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  if (!json_path.empty() && !WriteSegmentJson(json_path)) return 1;
  return 0;
}
