#ifndef VS2_CORE_SELECT_HPP_
#define VS2_CORE_SELECT_HPP_

/// \file select.hpp
/// VS2-Select (paper Sec 5.2–5.3): searches each entity's learned patterns
/// within the context boundaries defined by the logical blocks, then
/// resolves multiple matches by the optimization-based multimodal
/// disambiguation of Eq. 2:
///
///   F(s, c) = α·ΔD(s,c) + β·ΔH(s,c) + γ·ΔSim(s,c) + ν·ΔWd(s,c),
///   α + β + γ + ν = 1,
///
/// minimized over the interest points c; the candidate match s closest to
/// an interest point in this multimodal space is selected.

#include <string>
#include <vector>

#include "core/interest_points.hpp"
#include "core/pattern_learner.hpp"
#include "datasets/generator.hpp"
#include "doc/layout_tree.hpp"
#include "embed/embedding.hpp"

namespace vs2::core {

/// Eq. 2 weights. The paper sets them by corpus character: "if the
/// documents are not verbose but visually ornate (e.g. our second dataset)
/// then β, ν ≥ γ; … for a balanced corpus (first and third datasets) it is
/// safe to assume α ≈ β ≈ ν ≈ γ".
struct MultimodalWeights {
  double alpha = 0.25;  ///< ΔD: L1 centroid distance
  double beta = 0.25;   ///< ΔH: element-height (font size) difference
  double gamma = 0.25;  ///< ΔSim: 1 − text cosine similarity
  double nu = 0.25;     ///< ΔWd: word-density difference

  static MultimodalWeights ForDataset(doc::DatasetId dataset);
};

/// Disambiguation strategies (the Table 9 ablation axis).
enum class DisambiguationMode {
  kMultimodal,  ///< Eq. 2 against interest points (full VS2)
  kFirstMatch,  ///< no disambiguation: first match in reading order (A3)
  kLesk,        ///< text-only Lesk gloss overlap (A4)
};

/// VS2-Select knobs.
struct SelectConfig {
  MultimodalWeights weights;
  DisambiguationMode disambiguation = DisambiguationMode::kMultimodal;
  /// Extra ablation: rank against all blocks instead of the Pareto front.
  bool use_interest_points = true;
  /// Weight of the entity-affinity term (hint-word overlap with the block)
  /// subtracted from F; the stand-in for per-entity pattern specificity
  /// beyond what the abstracted pattern kinds encode.
  double affinity_weight = 0.30;
  /// Weight of the pattern's own specificity score subtracted from F.
  double pattern_weight = 0.30;
};

/// One extracted key-value pair.
struct Extraction {
  std::string entity;
  std::string text;          ///< transcribed entity text
  util::BBox match_bbox;     ///< bbox of the matched tokens
  util::BBox block_bbox;     ///< bbox of the logical block it came from
  size_t block_node = doc::kNoNode;
  double score = 0.0;        ///< final ranking score (lower = better)
};

/// \brief Runs the search-and-select phase over a segmented document.
///
/// `doc` must be the *observed* (transcribed) document whose element
/// geometry the layout tree refers to. Returns at most one extraction per
/// entity (entities without any pattern match are absent).
///
/// Thread-safe: a pure function of its arguments; the pattern book and
/// embedding are read-only here, so one book may serve concurrent calls.
std::vector<Extraction> SelectEntities(
    const doc::Document& doc, const doc::LayoutTree& tree,
    const PatternBook& book, const std::vector<datasets::EntitySpec>& specs,
    const embed::Embedding& embedding, const SelectConfig& config);

}  // namespace vs2::core

#endif  // VS2_CORE_SELECT_HPP_
