#ifndef VS2_TRIAGE_FEATURES_HPP_
#define VS2_TRIAGE_FEATURES_HPP_

/// \file features.hpp
/// Cheap layout statistics for triage pre-classification (DESIGN.md §16).
///
/// Computable in microseconds from one coarse `raster::OccupancyGrid` pass
/// over the document's content bounds — orders of magnitude cheaper than a
/// single VS2-Segment recursion level.

#include <cstddef>
#include <string>

#include "doc/document.hpp"
#include "raster/grid.hpp"

namespace vs2::triage {

/// Layout statistics of one document at classification time: the inputs of
/// `RouteFeatures`.
struct TriageFeatures {
  size_t element_count = 0;  ///< atomic elements on the page
  double occupancy = 0.0;    ///< occupied cell fraction of the content window

  /// One-line JSON rendering (debugging aid for `vs2_extract --triage`).
  std::string ToJson() const;
};

/// Computes the features on a coarse occupancy grid of the document's
/// content bounds. Deterministic: same document + scale → identical values.
TriageFeatures ComputeTriageFeatures(const doc::Document& doc,
                                     const raster::GridScale& scale);

}  // namespace vs2::triage

#endif  // VS2_TRIAGE_FEATURES_HPP_
