#include "triage/xycut.hpp"

#include <algorithm>
#include <utility>

#include "util/math.hpp"

namespace vs2::triage {
namespace {

using doc::Document;
using util::BBox;

/// Widest interior gap of the projection profile along one axis; returns the
/// gap width and writes the midpoint split coordinate. Zero when every
/// position is covered.
double WidestGap(const Document& doc, const std::vector<size_t>& idx,
                 bool vertical_axis, double* split_at) {
  std::vector<std::pair<double, double>> intervals;
  intervals.reserve(idx.size());
  for (size_t i : idx) {
    const BBox& b = doc.elements[i].bbox;
    if (vertical_axis) {
      intervals.push_back({b.y, b.bottom()});
    } else {
      intervals.push_back({b.x, b.right()});
    }
  }
  std::sort(intervals.begin(), intervals.end());
  double best = 0.0;
  double cover_end = intervals[0].second;
  for (size_t i = 1; i < intervals.size(); ++i) {
    if (intervals[i].first > cover_end) {
      double gap = intervals[i].first - cover_end;
      if (gap > best) {
        best = gap;
        *split_at = cover_end + gap / 2.0;
      }
    }
    cover_end = std::max(cover_end, intervals[i].second);
  }
  return best;
}

/// One split decision. Returns false when the group is a leaf (no gap wide
/// enough, or a degenerate partition); otherwise fills `lo`/`hi` with the
/// element groups on either side of the cut.
bool TrySplit(const Document& doc, const std::vector<size_t>& idx,
              double min_gap, std::vector<size_t>* lo,
              std::vector<size_t>* hi) {
  double h_split = 0.0, v_split = 0.0;
  double h_gap = WidestGap(doc, idx, /*vertical_axis=*/true, &h_split);
  double v_gap = WidestGap(doc, idx, /*vertical_axis=*/false, &v_split);
  bool horizontal = h_gap >= v_gap;
  double gap = horizontal ? h_gap : v_gap;
  double split = horizontal ? h_split : v_split;
  if (gap < min_gap) return false;
  for (size_t i : idx) {
    util::PointF c = doc.elements[i].bbox.Centroid();
    double coord = horizontal ? c.y : c.x;
    (coord < split ? *lo : *hi).push_back(i);
  }
  if (lo->empty() || hi->empty()) {
    lo->clear();
    hi->clear();
    return false;
  }
  return true;
}

constexpr double kMinGapFactor = 0.9;  ///< × median element height …
constexpr double kMinGapFloor = 8.0;   ///< … never narrower (layout units)
constexpr int kMaxDepth = 12;          ///< deeper frames become leaves

/// Minimum separator width: proportional to the median element height with
/// an absolute floor.
double MinGap(const Document& doc) {
  std::vector<double> heights;
  heights.reserve(doc.elements.size());
  for (const doc::AtomicElement& el : doc.elements) {
    heights.push_back(el.bbox.height);
  }
  double median_h = heights.empty() ? 12.0 : util::Median(heights);
  return std::max(median_h * kMinGapFactor, kMinGapFloor);
}

}  // namespace

std::vector<std::vector<size_t>> XYCutPartition(const Document& doc) {
  std::vector<std::vector<size_t>> groups;
  if (doc.elements.empty()) return groups;
  std::vector<size_t> all(doc.elements.size());
  for (size_t i = 0; i < all.size(); ++i) all[i] = i;
  double min_gap = MinGap(doc);

  struct Frame {
    std::vector<size_t> indices;
    int depth;
  };
  std::vector<Frame> stack{{std::move(all), 0}};
  while (!stack.empty()) {
    Frame frame = std::move(stack.back());
    stack.pop_back();
    std::vector<size_t> lo, hi;
    if (frame.indices.size() <= 1 || frame.depth > kMaxDepth ||
        !TrySplit(doc, frame.indices, min_gap, &lo, &hi)) {
      groups.push_back(std::move(frame.indices));
      continue;
    }
    stack.push_back({std::move(lo), frame.depth + 1});
    stack.push_back({std::move(hi), frame.depth + 1});
  }
  return groups;
}

}  // namespace vs2::triage
