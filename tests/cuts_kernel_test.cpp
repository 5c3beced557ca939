/// Differential tests for the bit-parallel wavefront cut kernel and the
/// page-raster reuse path (DESIGN.md §11): the production path
/// (kBitParallel + page-raster reuse) must be *bit-for-bit* identical to
/// the scalar reference at every level — raw cut vectors, separator runs,
/// and whole layout trees.

#include <gtest/gtest.h>

#include <vector>

#include "core/cuts.hpp"
#include "core/segmenter.hpp"
#include "core/segmenter_reference.hpp"
#include "datasets/generator.hpp"
#include "datasets/pretrained.hpp"
#include "ocr/ocr.hpp"
#include "util/rng.hpp"

namespace vs2::core {
namespace {

// ------------------------------------------------------- raw cut vectors --

void ExpectKernelsAgree(const raster::OccupancyGrid& g, int drift,
                        const std::string& label) {
  EXPECT_EQ(BandedHorizontalCuts(g, drift, CutKernel::kScalar),
            BandedHorizontalCuts(g, drift, CutKernel::kBitParallel))
      << label << " horizontal, drift " << drift;
  EXPECT_EQ(BandedVerticalCuts(g, drift, CutKernel::kScalar),
            BandedVerticalCuts(g, drift, CutKernel::kBitParallel))
      << label << " vertical, drift " << drift;
}

TEST(CutKernelDifferentialTest, RandomizedBoxesAllDriftsBothAxes) {
  util::Rng rng(0xC075);
  for (int trial = 0; trial < 60; ++trial) {
    // Dimensions straddle the 64-bit word boundary on both axes.
    int w = rng.UniformInt(1, 150);
    int h = rng.UniformInt(1, 150);
    raster::OccupancyGrid g(w, h);
    int boxes = rng.UniformInt(0, 18);
    for (int b = 0; b < boxes; ++b) {
      double bw = rng.UniformDouble(0.5, w * 0.6);
      double bh = rng.UniformDouble(0.5, h * 0.6);
      g.FillBox({rng.UniformDouble(-3.0, w), rng.UniformDouble(-3.0, h), bw,
                 bh});
    }
    for (int drift : {0, 1, 2, 8}) {
      ExpectKernelsAgree(g, drift, "trial " + std::to_string(trial));
    }
  }
}

TEST(CutKernelDifferentialTest, SparseSaltAndPepperGrids) {
  // Single-cell noise stresses the drift band: paths must thread between
  // isolated occupied cells, and every live/dead lane transition matters.
  util::Rng rng(0x5A17);
  for (int trial = 0; trial < 30; ++trial) {
    int w = rng.UniformInt(30, 140);
    int h = rng.UniformInt(30, 140);
    raster::OccupancyGrid g(w, h);
    double density = rng.UniformDouble(0.02, 0.35);
    for (int y = 0; y < h; ++y) {
      for (int x = 0; x < w; ++x) {
        if (rng.Bernoulli(density)) g.set_occupied(x, y);
      }
    }
    for (int drift : {1, 3, 8}) {
      ExpectKernelsAgree(g, drift, "noise trial " + std::to_string(trial));
    }
  }
}

TEST(CutKernelDifferentialTest, AllWhitespaceAndAllOccupied) {
  for (int dim : {1, 7, 63, 64, 65, 130}) {
    raster::OccupancyGrid clear(dim, dim);
    ExpectKernelsAgree(clear, 8, "all-whitespace");
    std::vector<bool> cuts = ValidHorizontalCuts(clear);
    EXPECT_EQ(static_cast<int>(cuts.size()), dim);
    for (bool c : cuts) EXPECT_TRUE(c);

    raster::OccupancyGrid full(dim, dim);
    full.FillCellRect({0, 0, dim - 1, dim - 1});
    ExpectKernelsAgree(full, 8, "all-occupied");
    for (bool c : ValidVerticalCuts(full)) EXPECT_FALSE(c);
  }
}

TEST(CutKernelDifferentialTest, DegenerateShapes) {
  // Single row / single column / one-cell grids exercise the n_steps == 1
  // early path and out-of-range band edges.
  for (auto [w, h] : std::vector<std::pair<int, int>>{
           {1, 1}, {1, 100}, {100, 1}, {64, 1}, {1, 64}, {200, 3}}) {
    raster::OccupancyGrid g(w, h);
    if (w > 2 && h > 2) g.FillBox({w / 2.0, 0.0, 1.0, static_cast<double>(h)});
    for (int drift : {0, 2, 8}) ExpectKernelsAgree(g, drift, "degenerate");
  }
}

// -------------------------------------------------------- separator runs --

std::vector<util::BBox> RandomBoxes(util::Rng* rng, int count, double page_w,
                                    double page_h) {
  std::vector<util::BBox> boxes;
  for (int i = 0; i < count; ++i) {
    boxes.push_back({rng->UniformDouble(0, page_w * 0.85),
                     rng->UniformDouble(0, page_h * 0.85),
                     rng->UniformDouble(4.0, page_w * 0.4),
                     rng->UniformDouble(4.0, 22.0)});
  }
  return boxes;
}

void ExpectRunsIdentical(const std::vector<SeparatorRun>& a,
                         const std::vector<SeparatorRun>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].horizontal, b[i].horizontal);
    EXPECT_EQ(a[i].start_units, b[i].start_units);
    EXPECT_EQ(a[i].width_units, b[i].width_units);
    EXPECT_EQ(a[i].mid_units, b[i].mid_units);
    EXPECT_EQ(a[i].neighbor_max_height, b[i].neighbor_max_height);
    EXPECT_EQ(a[i].scaled_width, b[i].scaled_width);
  }
}

TEST(CutKernelDifferentialTest, SeparatorRunsBitIdenticalAcrossPaths) {
  util::Rng rng(0xD1FF);
  raster::GridScale scale{0.5};
  for (int trial = 0; trial < 25; ++trial) {
    util::BBox region{0, 0, 320, 240};
    auto boxes = RandomBoxes(&rng, rng.UniformInt(2, 24), region.width,
                             region.height);

    CutOptions scalar_opts;
    scalar_opts.kernel = CutKernel::kScalar;
    auto reference = FindSeparatorRuns(boxes, region, scale, scalar_opts);

    // Bit-parallel kernel, fresh rasterization.
    auto bitparallel = FindSeparatorRuns(boxes, region, scale);
    ExpectRunsIdentical(reference, bitparallel);

    // Bit-parallel kernel, grid cropped from the page raster.
    raster::PageRaster page(boxes, scale);
    std::vector<size_t> ids(boxes.size());
    for (size_t i = 0; i < ids.size(); ++i) ids[i] = i;
    CutOptions crop_opts;
    crop_opts.page = &page;
    crop_opts.element_ids = &ids;
    auto cropped = FindSeparatorRuns(boxes, region, scale, crop_opts);
    ExpectRunsIdentical(reference, cropped);

    // A subset of elements must crop to the subset's own grid, not the
    // page's: compare against a fresh run over just that subset.
    std::vector<size_t> subset;
    for (size_t i = 0; i < boxes.size(); i += 2) subset.push_back(i);
    std::vector<util::BBox> subset_boxes;
    for (size_t i : subset) subset_boxes.push_back(boxes[i]);
    CutOptions subset_opts;
    subset_opts.page = &page;
    subset_opts.element_ids = &subset;
    ExpectRunsIdentical(
        FindSeparatorRuns(subset_boxes, region, scale, scalar_opts),
        FindSeparatorRuns(subset_boxes, region, scale, subset_opts));
  }
}

// ----------------------------------------------------------- layout trees --

void ExpectTreesIdentical(const doc::LayoutTree& a, const doc::LayoutTree& b,
                          const std::string& label) {
  ASSERT_EQ(a.size(), b.size()) << label;
  for (size_t id = 0; id < a.size(); ++id) {
    const doc::LayoutNode& na = a.node(id);
    const doc::LayoutNode& nb = b.node(id);
    EXPECT_EQ(na.bbox, nb.bbox) << label << " node " << id;
    EXPECT_EQ(na.element_indices, nb.element_indices) << label << " node " << id;
    EXPECT_EQ(na.parent, nb.parent) << label << " node " << id;
    EXPECT_EQ(na.children, nb.children) << label << " node " << id;
    EXPECT_EQ(na.depth, nb.depth) << label << " node " << id;
  }
}

TEST(CutKernelDifferentialTest, LayoutTreesIdenticalOnDatasetSamples) {
  const embed::Embedding& emb = datasets::PretrainedEmbedding();
  datasets::GeneratorConfig gc;
  gc.num_documents = 2;
  gc.seed = 77;
  struct Sample {
    std::string name;
    doc::Corpus corpus;
  };
  std::vector<Sample> samples;
  samples.push_back({"D1", datasets::GenerateD1(gc)});
  samples.push_back({"D2", datasets::GenerateD2(gc)});
  samples.push_back({"D3", datasets::GenerateD3(gc)});

  for (const Sample& sample : samples) {
    for (const doc::Document& clean : sample.corpus.documents) {
      doc::Document observed = ocr::Transcribe(clean, {});

      auto ref_tree = SegmentWithReferencePaths(
          observed, emb, {}, {CutKernel::kScalar, /*rasterize_per_node=*/true});
      ASSERT_TRUE(ref_tree.ok()) << sample.name;

      // Every optimized combination against the scalar/no-reuse reference;
      // bit-parallel + reuse is the production `Segment`.
      for (auto [kernel, reuse] :
           std::vector<std::pair<CutKernel, bool>>{
               {CutKernel::kBitParallel, false},
               {CutKernel::kScalar, true},
               {CutKernel::kBitParallel, true}}) {
        auto tree = kernel == CutKernel::kBitParallel && reuse
                        ? Segment(observed, emb)
                        : SegmentWithReferencePaths(observed, emb, {},
                                                    {kernel, !reuse});
        ASSERT_TRUE(tree.ok()) << sample.name;
        ExpectTreesIdentical(
            ref_tree.value(), tree.value(),
            sample.name + (kernel == CutKernel::kScalar ? "/scalar" : "/bitp") +
                (reuse ? "+reuse" : ""));
      }
    }
  }
}

}  // namespace
}  // namespace vs2::core
