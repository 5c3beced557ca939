/// \file bench_triage.cpp
/// Benchmarks the triage router (DESIGN.md §16): classifier cost per
/// document, per-generator lane mix and misroute rates, end-to-end time
/// with `triage=auto` versus the all-FULL pipeline, and the accuracy cost
/// of routing (end-to-end F1 with `triage=auto` versus FULL, per dataset).
///
/// The traffic model is the three paper corpora plus a slice of blank /
/// near-blank pages (scanner feed separators, cover sheets) that exercise
/// the SKIP lane — real heterogeneous feeds contain them, the generators
/// do not emit them.
///
/// Usage:
///   bench_triage [--features] [--triage_json=FILE]
///
/// `--features` additionally dumps every document's classifier feature
/// vector (one JSON line each) for threshold tuning. `--triage_json=FILE`
/// writes the machine-readable summary that CI uploads as
/// BENCH_triage.json.
///
/// Exit status: 0 when every dataset's F1 under `triage=auto` equals its
/// FULL F1 exactly, 1 otherwise. The classifier budget (< 50 µs/doc) is
/// printed and exported but warn-only — CI machines are noisy.

#include <chrono>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <string>
#include <vector>

#include "harness.hpp"
#include "triage/triage.hpp"
#include "util/math.hpp"
#include "util/strings.hpp"

using namespace vs2;

namespace {

constexpr double kClassifierBudgetUs = 50.0;

double NowMs() {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Near-blank pages mixed into the traffic stream: a sheet with at most a
/// couple of stray marks (feed separators, fax cover banners). These are
/// the SKIP lane's reason to exist — spending a full VS2-Segment on them
/// is pure waste.
std::vector<doc::Document> BlankPages(size_t count) {
  std::vector<doc::Document> pages;
  for (size_t i = 0; i < count; ++i) {
    doc::Document d;
    d.id = 0xB1A4C000 + i;
    d.dataset = doc::DatasetId::kD1TaxForms;
    d.width = 612.0;
    d.height = 792.0;
    if (i % 2 == 1) {
      // A lone page number; still SKIP (<= skip_max_elements).
      doc::AtomicElement el;
      el.kind = doc::ElementKind::kText;
      el.text = util::Format("%zu", i);
      el.bbox = {290.0, 760.0, 20.0, 12.0};
      d.elements.push_back(el);
    }
    pages.push_back(std::move(d));
  }
  return pages;
}

struct LaneCounts {
  size_t skip = 0, full = 0;
  void Count(triage::Lane lane) {
    ++(lane == triage::Lane::kSkip ? skip : full);
  }
};

struct DatasetReport {
  std::string name;
  size_t docs = 0;
  double classify_us_mean = 0.0;
  double classify_us_max = 0.0;
  LaneCounts lanes;
  triage::Lane expected = triage::Lane::kFull;
  double misroute_rate = 0.0;
  double full_ms = 0.0;  ///< all-FULL wall time over the corpus
  double auto_ms = 0.0;  ///< triage=auto wall time over the corpus
  double f1_full = 0.0;
  double f1_auto = 0.0;
};

/// Classifier cost + lane mix over one corpus. `expected` is the lane the
/// generator's regime should land in; anything else counts as a misroute.
void ClassifyCorpus(const std::vector<doc::Document>& docs,
                    const triage::TriageConfig& config, bool dump_features,
                    DatasetReport* report) {
  std::vector<double> us;
  us.reserve(docs.size());
  for (const doc::Document& d : docs) {
    double t0 = NowMs();
    triage::TriageDecision decision = triage::Classify(d, config);
    us.push_back((NowMs() - t0) * 1000.0);
    report->lanes.Count(decision.lane);
    if (dump_features) {
      std::fprintf(stderr, "feature-json {\"dataset\":\"%s\",\"doc\":%llu,"
                   "\"lane\":\"%s\",\"features\":%s}\n",
                   report->name.c_str(),
                   static_cast<unsigned long long>(d.id),
                   triage::LaneName(decision.lane),
                   decision.features.ToJson().c_str());
    }
  }
  report->docs = docs.size();
  report->classify_us_mean = util::Mean(us);
  for (double u : us) report->classify_us_max = std::max(report->classify_us_max, u);
  size_t expected_hits = report->expected == triage::Lane::kSkip
                             ? report->lanes.skip
                             : report->lanes.full;
  report->misroute_rate =
      docs.empty() ? 0.0
                   : 1.0 - static_cast<double>(expected_hits) / docs.size();
}

/// The same pipeline twice, routing every document FULL and under
/// `triage=auto`; both arms learn the same pattern book (fixed holdout
/// seed), so the comparison isolates routing.
struct Arms {
  core::Vs2 full;
  core::Vs2 routed;

  static core::PipelineConfig ConfigFor(doc::DatasetId dataset,
                                        triage::TriageMode mode) {
    core::PipelineConfig config = core::DefaultConfigFor(dataset);
    config.simulate_ocr = false;  // the corpus is already observed
    config.triage.mode = mode;
    return config;
  }
  Arms(doc::DatasetId dataset, const embed::Embedding& embedding)
      : full(dataset, embedding,
             ConfigFor(dataset, triage::TriageMode::kForceFull)),
        routed(dataset, embedding,
               ConfigFor(dataset, triage::TriageMode::kAuto)) {}
};

/// Wall time of pushing `docs` through `vs2`.
double TimedRun(const core::Vs2& vs2, const std::vector<doc::Document>& docs) {
  double t0 = NowMs();
  for (const doc::Document& d : docs) {
    Result<core::Vs2::DocResult> r = vs2.Process(d);
    (void)r;
  }
  return NowMs() - t0;
}

/// Times both arms over `docs` (after a warm-up pass of each) into `report`.
void TimeArms(const Arms& arms, const std::vector<doc::Document>& docs,
              DatasetReport* report) {
  TimedRun(arms.full, docs);
  TimedRun(arms.routed, docs);
  report->full_ms = TimedRun(arms.full, docs);
  report->auto_ms = TimedRun(arms.routed, docs);
}

}  // namespace

int main(int argc, char** argv) {
  bool dump_features = false;
  std::string json_path;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--features") == 0) {
      dump_features = true;
    } else if (std::strncmp(argv[i], "--triage_json=", 14) == 0) {
      json_path = argv[i] + 14;
    } else if (std::strcmp(argv[i], "--help") == 0) {
      std::fprintf(stderr,
                   "usage: bench_triage [--features] [--triage_json=FILE]\n");
      return 0;
    } else {
      std::fprintf(stderr, "unknown argument: %s\n", argv[i]);
      return 2;
    }
  }
  bench::PrintBenchHeader(
      "Triage: pre-classification routing (SKIP / FULL)");

  const embed::Embedding& embedding = datasets::PretrainedEmbedding();
  ocr::OcrConfig ocr_config;
  triage::TriageConfig auto_config;
  auto_config.mode = triage::TriageMode::kAuto;

  struct DatasetUnderTest {
    doc::DatasetId id;
    const char* name;
    triage::Lane expected;
  };
  const DatasetUnderTest datasets_under_test[] = {
      {doc::DatasetId::kD1TaxForms, "D1-tax-forms", triage::Lane::kFull},
      {doc::DatasetId::kD2EventPosters, "D2-event-posters",
       triage::Lane::kFull},
      {doc::DatasetId::kD3RealEstateFlyers, "D3-real-estate-flyers",
       triage::Lane::kFull},
  };

  std::vector<DatasetReport> reports;
  double mixed_full_ms = 0.0, mixed_auto_ms = 0.0;
  size_t mixed_docs = 0;
  bool accuracy_ok = true;

  for (const DatasetUnderTest& dut : datasets_under_test) {
    doc::Corpus corpus =
        bench::ObserveCorpus(bench::BenchCorpus(dut.id), ocr_config);

    DatasetReport report;
    report.name = dut.name;
    report.expected = dut.expected;
    ClassifyCorpus(corpus.documents, auto_config, dump_features, &report);

    Arms arms(dut.id, embedding);
    TimeArms(arms, corpus.documents, &report);
    mixed_full_ms += report.full_ms;
    mixed_auto_ms += report.auto_ms;
    mixed_docs += corpus.documents.size();

    eval::PrCounts full_counts, auto_counts;
    bench::RunEndToEnd(
        [&](const doc::Document& d) {
          return bench::Vs2Predictions(arms.full, d);
        },
        corpus, &full_counts, nullptr);
    bench::RunEndToEnd(
        [&](const doc::Document& d) {
          return bench::Vs2Predictions(arms.routed, d);
        },
        corpus, &auto_counts, nullptr);
    report.f1_full = full_counts.F1();
    report.f1_auto = auto_counts.F1();
    // Accuracy gate: routing only changes blank pages (SKIP lane); the
    // generators' documents route FULL, bit-identical to no triage.
    if (report.f1_auto != report.f1_full) accuracy_ok = false;
    reports.push_back(std::move(report));
  }

  // The SKIP slice: blank pages amount to ~10% of the mixed stream. They
  // only have an all-FULL cost to compare against, no accuracy stake (no
  // annotated entities).
  {
    std::vector<doc::Document> blanks = BlankPages(30);
    DatasetReport report;
    report.name = "blank-pages";
    report.expected = triage::Lane::kSkip;
    ClassifyCorpus(blanks, auto_config, dump_features, &report);

    Arms arms(doc::DatasetId::kD1TaxForms, embedding);
    TimeArms(arms, blanks, &report);
    mixed_full_ms += report.full_ms;
    mixed_auto_ms += report.auto_ms;
    mixed_docs += blanks.size();
    report.f1_full = report.f1_auto = 0.0;
    reports.push_back(std::move(report));
  }

  eval::AsciiTable table({"Corpus", "Docs", "us/doc", "SKIP", "FULL",
                          "Misroute", "FULL ms", "auto ms", "Speedup",
                          "dF1"});
  for (const DatasetReport& r : reports) {
    double speedup = r.auto_ms > 0.0 ? r.full_ms / r.auto_ms : 0.0;
    table.AddRow({r.name, util::Format("%zu", r.docs),
                  util::Format("%.1f", r.classify_us_mean),
                  util::Format("%zu", r.lanes.skip),
                  util::Format("%zu", r.lanes.full),
                  util::Format("%.1f%%", r.misroute_rate * 100.0),
                  util::Format("%.1f", r.full_ms),
                  util::Format("%.1f", r.auto_ms),
                  util::Format("%.2fx", speedup),
                  util::Format("%+.3f", r.f1_auto - r.f1_full)});
  }
  std::printf("%s\n", table.Render().c_str());

  double mixed_speedup =
      mixed_auto_ms > 0.0 ? mixed_full_ms / mixed_auto_ms : 0.0;
  double classify_us_mean_all = 0.0;
  double classify_us_max_all = 0.0;
  size_t classified = 0;
  for (const DatasetReport& r : reports) {
    classify_us_mean_all += r.classify_us_mean * r.docs;
    classify_us_max_all = std::max(classify_us_max_all, r.classify_us_max);
    classified += r.docs;
  }
  if (classified > 0) classify_us_mean_all /= classified;

  std::printf(
      "classifier: %.1f us/doc mean, %.1f us max (budget %.0f us) %s\n",
      classify_us_mean_all, classify_us_max_all, kClassifierBudgetUs,
      classify_us_mean_all < kClassifierBudgetUs ? "OK" : "OVER BUDGET");
  std::printf(
      "mixed traffic (%zu docs): all-FULL %.1f ms, triage=auto %.1f ms, "
      "%.2fx\n",
      mixed_docs, mixed_full_ms, mixed_auto_ms, mixed_speedup);
  std::printf("accuracy: per-dataset dF1 must be exactly 0 -> %s\n",
              accuracy_ok ? "OK" : "VIOLATED");

  // Machine-readable summary (uploaded from CI as BENCH_triage.json).
  std::string json = util::Format(
      "{\"bench\":\"triage\",\"classifier_us_mean\":%.2f,"
      "\"classifier_us_max\":%.2f,\"classifier_budget_us\":%.0f,"
      "\"mixed_docs\":%zu,\"mixed_full_ms\":%.2f,\"mixed_auto_ms\":%.2f,"
      "\"mixed_speedup\":%.3f,\"accuracy_ok\":%s,\"datasets\":[",
      classify_us_mean_all, classify_us_max_all, kClassifierBudgetUs,
      mixed_docs, mixed_full_ms, mixed_auto_ms, mixed_speedup,
      accuracy_ok ? "true" : "false");
  for (size_t i = 0; i < reports.size(); ++i) {
    const DatasetReport& r = reports[i];
    json += util::Format(
        "%s{\"name\":\"%s\",\"docs\":%zu,\"classify_us_mean\":%.2f,"
        "\"lanes\":{\"skip\":%zu,\"full\":%zu},"
        "\"expected_lane\":\"%s\",\"misroute_rate\":%.4f,"
        "\"full_ms\":%.2f,\"auto_ms\":%.2f,\"speedup\":%.3f,"
        "\"f1_full\":%.4f,\"f1_auto\":%.4f,\"f1_delta\":%.4f}",
        i == 0 ? "" : ",", r.name.c_str(), r.docs, r.classify_us_mean,
        r.lanes.skip, r.lanes.full,
        triage::LaneName(r.expected), r.misroute_rate, r.full_ms, r.auto_ms,
        r.auto_ms > 0.0 ? r.full_ms / r.auto_ms : 0.0, r.f1_full, r.f1_auto,
        r.f1_auto - r.f1_full);
  }
  json += "]}";
  std::printf("triage-json %s\n", json.c_str());
  if (!json_path.empty()) {
    std::ofstream out(json_path);
    out << json << "\n";
    std::fprintf(stderr, "triage summary written to %s\n", json_path.c_str());
  }
  return accuracy_ok ? 0 : 1;
}
