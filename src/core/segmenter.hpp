#ifndef VS2_CORE_SEGMENTER_HPP_
#define VS2_CORE_SEGMENTER_HPP_

/// \file segmenter.hpp
/// VS2-Segment (paper Sec 5.1): hierarchical decomposition of a visually
/// rich document into logical blocks.
///
/// Each recursion step over a visual area:
///  1. finds explicit visual delimiters — runs of consecutive valid cuts
///     filtered by Algorithm 1 — and splits the area along them;
///  2. when no delimiter exists, clusters the atomic elements on the
///     low-level visual features of Table 1 (2×2-grid-seeded medoids,
///     refined into visually-connected components);
///  3. performs semantic merging (Eq. 1): a child whose semantic
///     contribution exceeds the depth-scaled threshold θ_h is merged with
///     its most semantically similar, not-visually-separated sibling.
///
/// The result is the layout tree T_D; its leaves are the logical blocks.

#include <vector>

#include "doc/document.hpp"
#include "doc/layout_tree.hpp"
#include "embed/embedding.hpp"
#include "core/algorithm1.hpp"
#include "core/cuts.hpp"
#include "raster/grid.hpp"
#include "util/status.hpp"

namespace vs2::core {

/// Ablation and tuning knobs for VS2-Segment.
struct SegmenterConfig {
  /// Table 9 row A2: visual-feature clustering on/off. With clustering off,
  /// areas without explicit delimiters stay unsplit.
  bool enable_visual_clustering = true;

  /// Table 9 row A1: semantic merging on/off.
  bool enable_semantic_merging = true;

  /// Grid resolution for the whitespace raster.
  raster::GridScale grid_scale{0.5};

  /// Algorithm 1 knobs.
  DelimiterConfig delimiter;

  /// Recursion guards.
  int max_depth = 8;
  size_t min_elements_to_split = 3;
  double min_region_area = 400.0;

  /// Eq. 1 threshold bounds: θ_h = θ_min + (θ_max − θ_min)/10 · h.
  /// The paper's footnote sets θ_min = 0, θ_max = 1; under our corpus-
  /// trained embedding all same-document blocks are topically related, so
  /// θ_min = 0 merges everything — defaults are raised to keep the merge
  /// selective while preserving the depth scaling.
  double theta_min = 0.60;
  double theta_max = 0.95;
  /// Siblings further apart than this many max-element-heights are deemed
  /// visually separated and never merged.
  double merge_gap_factor = 2.0;

  /// Maximum clusters per clustering step (2×2 seed grid).
  int cluster_grid = 2;
};

/// \brief The paper's Table 1 feature vector for one atomic element,
/// computed relative to the area being clustered (normalized coordinates).
struct VisualFeatures {
  double centroid_x = 0.0;       ///< centroid position (normalized to area)
  double centroid_y = 0.0;
  double height = 0.0;           ///< bbox height (normalized to max in area)
  double lab_l = 0.0;            ///< LAB color, scaled to [0,1]-ish
  double lab_a = 0.0;
  double lab_b = 0.0;
  double angular_distance = 0.0; ///< centroid angle from the area origin

  std::vector<double> ToVector() const;
};

/// Computes Table 1 features of `element` within `region`.
VisualFeatures ComputeVisualFeatures(const doc::AtomicElement& element,
                                     const util::BBox& region,
                                     double max_height_in_region);

/// Feature-space distance including the pairwise "sum of angular
/// distances" term of Table 1.
double VisualDistance(const VisualFeatures& a, const VisualFeatures& b,
                      const doc::AtomicElement& ea,
                      const doc::AtomicElement& eb, const util::BBox& region);

/// \brief The Table 1 features of one clustering step in structure-of-arrays
/// form. `theta_origin`/`theta_anti` are the per-element angles of
/// `util::SumOfAngularDistances`: the pairwise sum decomposes as
/// |θo_i − θo_j| + |θa_i − θa_j|, so a clustering step needs two `atan2`
/// per element instead of four per pair (DESIGN.md §13).
struct FeatureSoA {
  std::vector<double> centroid_x, centroid_y;
  std::vector<double> height;
  std::vector<double> lab_l, lab_a, lab_b;
  std::vector<double> angular;
  std::vector<double> theta_origin, theta_anti;

  size_t size() const { return centroid_x.size(); }
};

/// Fills `soa` for one clustering step: `features[k]` are the Table 1
/// features of `doc.elements[element_indices[k]]` within `region`.
void FillFeatureSoA(const doc::Document& doc,
                    const std::vector<size_t>& element_indices,
                    const std::vector<VisualFeatures>& features,
                    const util::BBox& region, FeatureSoA* soa);

/// `VisualDistance` between entries `i` and `j` of `soa`, bit-identical to
/// it: the same operations in the same order, with the angular term read
/// from the precomputed angles.
double VisualDistancePair(const FeatureSoA& soa, size_t i, size_t j);

/// \brief Runs VS2-Segment and returns the layout tree. `embedding`
/// provides the Word2Vec-style vectors for Eq. 1. Every element box is
/// snapped to the page lattice once per call and the recursion crops
/// per-node sub-grids from that rasterization; cuts come from the
/// bit-parallel kernel (DESIGN.md §11).
///
/// Thread-safe: a pure function of its arguments (all taken by const
/// reference and never captured), so concurrent calls — even on the same
/// document — are safe as long as the embedding is not retrained.
Result<doc::LayoutTree> Segment(const doc::Document& doc,
                                const embed::Embedding& embedding,
                                const SegmenterConfig& config = {});

/// \brief One clustering step (exposed for tests): groups `element_indices`
/// of `doc` within `region` into visually coherent clusters. Returns a
/// partition (each inner vector non-empty); a single cluster means the
/// area is visually homogeneous.
std::vector<std::vector<size_t>> ClusterElements(
    const doc::Document& doc, const std::vector<size_t>& element_indices,
    const util::BBox& region, const SegmenterConfig& config);

}  // namespace vs2::core

#endif  // VS2_CORE_SEGMENTER_HPP_
