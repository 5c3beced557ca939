#ifndef VS2_TRIAGE_XYCUT_HPP_
#define VS2_TRIAGE_XYCUT_HPP_

/// \file xycut.hpp
/// The recursive XY-cut splitter (Krishnamoorthy et al.): straight
/// horizontal/vertical projection-profile gaps, widest gap first.
///
/// Its one consumer is the Table 5/7 **A2 baseline**
/// (`baselines::SegmentXYCut`), which wants the flat leaf partition.

#include <cstddef>
#include <vector>

#include "doc/document.hpp"

namespace vs2::triage {

/// \brief Recursive XY-cut partition of all elements of `doc`.
///
/// A gap splits a group when it is at least 0.9 × the median element height
/// and never narrower than 8 layout units; frames deeper than 12 splits
/// become leaves. Returns leaf element-index groups in the historical
/// emission order of the baseline implementation (depth-first, high side of
/// each split first). Empty documents yield an empty partition.
std::vector<std::vector<size_t>> XYCutPartition(const doc::Document& doc);

}  // namespace vs2::triage

#endif  // VS2_TRIAGE_XYCUT_HPP_
