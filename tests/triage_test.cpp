/// Tests for src/triage: classifier features, lane routing (pinned
/// decisions per generator), the XY-cut splitter and force-lane override
/// equivalence (DESIGN.md §16).

#include <gtest/gtest.h>

#include <vector>

#include "core/pipeline.hpp"
#include "datasets/generator.hpp"
#include "datasets/pretrained.hpp"
#include "triage/features.hpp"
#include "triage/triage.hpp"
#include "triage/xycut.hpp"
#include "util/strings.hpp"

namespace vs2::triage {
namespace {

doc::Corpus SmallCorpus(doc::DatasetId dataset, size_t n, uint64_t seed) {
  datasets::GeneratorConfig gc;
  gc.num_documents = n;
  gc.seed = seed;
  return datasets::Generate(dataset, gc);
}

doc::Document NearBlankPage(size_t stray_marks) {
  doc::Document d;
  d.id = 7001;
  d.dataset = doc::DatasetId::kD1TaxForms;
  d.width = 612.0;
  d.height = 792.0;
  for (size_t i = 0; i < stray_marks; ++i) {
    doc::AtomicElement el;
    el.kind = doc::ElementKind::kText;
    el.text = util::Format("%zu", i);
    el.bbox = {280.0 + 30.0 * i, 760.0, 20.0, 12.0};
    d.elements.push_back(el);
  }
  return d;
}

/// A hand-built 4x3 form grid: 12 uniform 40x10 labels on a regular
/// vertical rhythm. Deterministic input for the feature golden values.
doc::Document GridFixture() {
  doc::Document d;
  d.id = 7002;
  d.dataset = doc::DatasetId::kD1TaxForms;
  d.width = 400.0;
  d.height = 400.0;
  for (int row = 0; row < 4; ++row) {
    for (int col = 0; col < 3; ++col) {
      doc::AtomicElement el;
      el.kind = doc::ElementKind::kText;
      el.text = util::Format("cell%d%d", row, col);
      el.bbox = {40.0 + col * 120.0, 50.0 + row * 90.0, 40.0, 10.0};
      d.elements.push_back(el);
    }
  }
  return d;
}

// ------------------------------------------------------------- Features --

TEST(TriageFeaturesTest, GoldenValuesOnGridFixture) {
  doc::Document d = GridFixture();
  TriageFeatures f = ComputeTriageFeatures(d, raster::GridScale{0.125});
  EXPECT_EQ(f.element_count, 12u);
  EXPECT_GT(f.occupancy, 0.0);
  EXPECT_LT(f.occupancy, 0.5);
}

TEST(TriageFeaturesTest, EmptyDocumentIsAllZeros) {
  TriageFeatures f =
      ComputeTriageFeatures(NearBlankPage(0), raster::GridScale{0.125});
  EXPECT_EQ(f.element_count, 0u);
  EXPECT_DOUBLE_EQ(f.occupancy, 0.0);
}

TEST(TriageFeaturesTest, ToJsonIsWellFormed) {
  TriageFeatures f =
      ComputeTriageFeatures(GridFixture(), raster::GridScale{0.125});
  std::string json = f.ToJson();
  EXPECT_EQ(json.front(), '{');
  EXPECT_EQ(json.back(), '}');
  EXPECT_NE(json.find("\"element_count\":12"), std::string::npos) << json;
  EXPECT_NE(json.find(util::Format("\"occupancy\":%.4f", f.occupancy)),
            std::string::npos)
      << json;
}

// -------------------------------------------------------------- Routing --

TEST(TriageRouteTest, PinnedLanesPerGenerator) {
  TriageConfig config;
  config.mode = TriageMode::kAuto;
  // D1 tax forms, D2 posters and D3 flyers: every document routes FULL.
  for (const doc::Document& d :
       SmallCorpus(doc::DatasetId::kD1TaxForms, 8, 2019).documents) {
    EXPECT_EQ(Classify(d, config).lane, Lane::kFull) << "doc " << d.id;
  }
  for (const doc::Document& d :
       SmallCorpus(doc::DatasetId::kD2EventPosters, 8, 2019).documents) {
    EXPECT_EQ(Classify(d, config).lane, Lane::kFull) << "doc " << d.id;
  }
  for (const doc::Document& d :
       SmallCorpus(doc::DatasetId::kD3RealEstateFlyers, 8, 2019).documents) {
    EXPECT_EQ(Classify(d, config).lane, Lane::kFull) << "doc " << d.id;
  }
  // Near-blank pages route SKIP.
  EXPECT_EQ(Classify(NearBlankPage(0), config).lane, Lane::kSkip);
  EXPECT_EQ(Classify(NearBlankPage(2), config).lane, Lane::kSkip);
}

TEST(TriageRouteTest, MisrouteAccountingOnMixedCorpus) {
  TriageConfig config;
  config.mode = TriageMode::kAuto;
  size_t lanes[2] = {0, 0};
  size_t misroutes = 0;
  auto route = [&](const doc::Document& d, Lane expected) {
    Lane lane = Classify(d, config).lane;
    ++lanes[static_cast<size_t>(lane)];
    if (lane != expected) ++misroutes;
  };
  for (const doc::Document& d :
       SmallCorpus(doc::DatasetId::kD1TaxForms, 6, 77).documents) {
    route(d, Lane::kFull);
  }
  for (const doc::Document& d :
       SmallCorpus(doc::DatasetId::kD2EventPosters, 6, 77).documents) {
    route(d, Lane::kFull);
  }
  for (const doc::Document& d :
       SmallCorpus(doc::DatasetId::kD3RealEstateFlyers, 6, 77).documents) {
    route(d, Lane::kFull);
  }
  route(NearBlankPage(1), Lane::kSkip);
  EXPECT_EQ(misroutes, 0u);
  EXPECT_EQ(lanes[static_cast<size_t>(Lane::kSkip)], 1u);
  EXPECT_EQ(lanes[static_cast<size_t>(Lane::kFull)], 18u);
}

TEST(TriageRouteTest, ForceModesPinTheLane) {
  TriageConfig config;
  doc::Document d = GridFixture();
  config.mode = TriageMode::kForceSkip;
  EXPECT_EQ(Classify(d, config).lane, Lane::kSkip);
  EXPECT_TRUE(Classify(d, config).forced);
  config.mode = TriageMode::kForceFull;
  EXPECT_EQ(Classify(d, config).lane, Lane::kFull);
  // Features are still computed under force modes (the A/B payload).
  EXPECT_EQ(Classify(d, config).features.element_count, 12u);
}

TEST(TriageRouteTest, ParseTriageModeNamesRoundTrip) {
  TriageMode mode = TriageMode::kOff;
  EXPECT_TRUE(ParseTriageMode("auto", &mode));
  EXPECT_EQ(mode, TriageMode::kAuto);
  EXPECT_TRUE(ParseTriageMode("skip", &mode));
  EXPECT_EQ(mode, TriageMode::kForceSkip);
  EXPECT_TRUE(ParseTriageMode("full", &mode));
  EXPECT_EQ(mode, TriageMode::kForceFull);
  EXPECT_TRUE(ParseTriageMode("off", &mode));
  EXPECT_EQ(mode, TriageMode::kOff);
  mode = TriageMode::kAuto;
  EXPECT_FALSE(ParseTriageMode("warp", &mode));
  EXPECT_EQ(mode, TriageMode::kAuto);  // untouched on failure
  EXPECT_FALSE(ParseTriageMode("fast", &mode));  // the retired FAST lane
}

// --------------------------------------------------------------- XY-cut --

TEST(XYCutTest, SingleElementDocumentIsOneLeaf) {
  doc::Document d = NearBlankPage(1);
  std::vector<std::vector<size_t>> groups = XYCutPartition(d);
  ASSERT_EQ(groups.size(), 1u);
  EXPECT_EQ(groups[0], std::vector<size_t>{0});
}

// ------------------------------------------------------ Pipeline wiring --

struct ExtractionKey {
  std::string entity, text;
  double x, y, w, h, score;
  bool operator==(const ExtractionKey&) const = default;
};

std::vector<ExtractionKey> Keys(const std::vector<core::Extraction>& exs) {
  std::vector<ExtractionKey> keys;
  for (const core::Extraction& ex : exs) {
    keys.push_back({ex.entity, ex.text, ex.match_bbox.x, ex.match_bbox.y,
                    ex.match_bbox.width, ex.match_bbox.height, ex.score});
  }
  return keys;
}

TEST(TriagePipelineTest, ForceFullIsBitIdenticalToTriageOff) {
  const embed::Embedding& emb = datasets::PretrainedEmbedding();
  core::PipelineConfig config =
      core::DefaultConfigFor(doc::DatasetId::kD2EventPosters);
  core::Vs2 vs2(doc::DatasetId::kD2EventPosters, emb, config);
  config.triage.mode = TriageMode::kForceFull;
  core::Vs2 vs2_full(doc::DatasetId::kD2EventPosters, emb, config);

  for (const doc::Document& d :
       SmallCorpus(doc::DatasetId::kD2EventPosters, 3, 42).documents) {
    auto off = vs2.Process(d);          // triage off: the seed path
    auto forced = vs2_full.Process(d);
    ASSERT_TRUE(off.ok());
    ASSERT_TRUE(forced.ok());
    EXPECT_EQ(off->tree.size(), forced->tree.size());
    EXPECT_EQ(off->interest_points, forced->interest_points);
    EXPECT_EQ(Keys(off->extractions), Keys(forced->extractions));
    EXPECT_EQ(forced->triage.lane, Lane::kFull);
    EXPECT_TRUE(forced->triage.forced);
  }
}

TEST(TriagePipelineTest, SkipLaneReturnsRootOnlyTree) {
  const embed::Embedding& emb = datasets::PretrainedEmbedding();
  core::PipelineConfig config =
      core::DefaultConfigFor(doc::DatasetId::kD2EventPosters);
  config.simulate_ocr = false;  // observed == input, element counts compare
  config.triage.mode = TriageMode::kForceSkip;
  core::Vs2 vs2(doc::DatasetId::kD2EventPosters, emb, config);

  doc::Corpus corpus = SmallCorpus(doc::DatasetId::kD2EventPosters, 1, 5);
  auto r = vs2.Process(corpus.documents[0]);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->tree.size(), 1u);  // root only
  EXPECT_TRUE(r->extractions.empty());
  EXPECT_TRUE(r->interest_points.empty());
  EXPECT_EQ(r->triage.lane, Lane::kSkip);
  // The SKIP lane still observes: the result carries the transcription.
  EXPECT_EQ(r->observed.elements.size(),
            corpus.documents[0].elements.size());
}

TEST(TriagePipelineTest, AutoRoutesD1FullWithLaneInResult) {
  const embed::Embedding& emb = datasets::PretrainedEmbedding();
  core::PipelineConfig config =
      core::DefaultConfigFor(doc::DatasetId::kD1TaxForms);
  config.triage.mode = TriageMode::kAuto;
  core::Vs2 vs2(doc::DatasetId::kD1TaxForms, emb, config);

  doc::Corpus corpus = SmallCorpus(doc::DatasetId::kD1TaxForms, 2, 2019);
  for (const doc::Document& d : corpus.documents) {
    auto r = vs2.Process(d);
    ASSERT_TRUE(r.ok());
    EXPECT_EQ(r->triage.lane, Lane::kFull);
    EXPECT_FALSE(r->triage.forced);
    EXPECT_GT(r->triage.features.element_count, 0u);
    EXPECT_FALSE(r->extractions.empty());
  }
}

}  // namespace
}  // namespace vs2::triage
